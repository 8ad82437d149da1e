#include "util/artifact_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>

#include "util/string_util.h"

namespace transer {
namespace artifact {

namespace {

/// Caps on the container structure. Real artifacts sit far below these;
/// a crafted file that exceeds them is rejected before any allocation.
constexpr uint32_t kMaxSections = 4096;
constexpr uint32_t kMaxNameBytes = 1 << 16;

const uint32_t* CrcTable() {
  static const uint32_t* table = [] {
    static uint32_t t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

}  // namespace

namespace {

FsyncFn g_fsync_hook = nullptr;
WriteFn g_write_hook = nullptr;

}  // namespace

FsyncFn SetFsyncHookForTesting(FsyncFn fn) {
  FsyncFn previous = g_fsync_hook;
  g_fsync_hook = fn;
  return previous;
}

int FsyncFd(int fd) {
  return g_fsync_hook != nullptr ? g_fsync_hook(fd) : ::fsync(fd);
}

WriteFn SetWriteHookForTesting(WriteFn fn) {
  WriteFn previous = g_write_hook;
  g_write_hook = fn;
  return previous;
}

ssize_t WriteFd(int fd, const void* buf, size_t count) {
  return g_write_hook != nullptr ? g_write_hook(fd, buf, count)
                                 : ::write(fd, buf, count);
}

Status SyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IoError("cannot open directory " + dir + " for fsync");
  }
  const int synced = FsyncFd(fd);
  ::close(fd);
  if (synced != 0) {
    return Status::IoError("failed fsyncing directory " + dir);
  }
  return Status::OK();
}

Status WriteFileAtomically(const std::string& path,
                           std::span<const uint8_t> bytes) {
  const std::string temp_path = path + ".tmp";
  const int fd = ::open(temp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot open " + temp_path + " for writing");
  }
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        WriteFd(fd, bytes.data() + written, bytes.size() - written);
    if (n <= 0) {
      ::close(fd);
      ::unlink(temp_path.c_str());
      return Status::IoError("failed writing " + temp_path);
    }
    written += static_cast<size_t>(n);
  }
  // A failed fsync means the kernel could not promise the bytes are on
  // disk; surfacing it *before* the rename is what keeps the file at
  // `path` trustworthy — renaming first would publish content that
  // might evaporate on power loss.
  if (FsyncFd(fd) != 0) {
    ::close(fd);
    ::unlink(temp_path.c_str());
    return Status::IoError("failed fsyncing " + temp_path);
  }
  if (::close(fd) != 0) {
    ::unlink(temp_path.c_str());
    return Status::IoError("failed closing " + temp_path);
  }
  if (std::rename(temp_path.c_str(), path.c_str()) != 0) {
    ::unlink(temp_path.c_str());
    return Status::IoError("failed renaming " + temp_path + " over " + path);
  }
  // The rename itself lives in the directory; without this sync a crash
  // can forget the publish even though the file's bytes are safe. The
  // file at `path` is complete either way, so the caller may retry.
  return SyncParentDir(path);
}

uint32_t Crc32(const void* data, size_t size) {
  const uint32_t* table = CrcTable();
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

uint64_t FingerprintFeatureSchema(const std::vector<std::string>& names) {
  // FNV-1a over the column count and each name (with a separator so
  // {"ab","c"} and {"a","bc"} differ).
  uint64_t h = 14695981039346656037ull;
  auto mix = [&h](uint8_t byte) {
    h ^= byte;
    h *= 1099511628211ull;
  };
  for (int shift = 0; shift < 64; shift += 8) {
    mix(static_cast<uint8_t>(names.size() >> shift));
  }
  for (const std::string& name : names) {
    for (char c : name) mix(static_cast<uint8_t>(c));
    mix(0x1F);
  }
  return h;
}

void Encoder::PutU32(uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    bytes_.push_back(static_cast<uint8_t>(v >> shift));
  }
}

void Encoder::PutU64(uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    bytes_.push_back(static_cast<uint8_t>(v >> shift));
  }
}

void Encoder::PutDouble(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void Encoder::PutString(const std::string& s) {
  PutU32(static_cast<uint32_t>(s.size()));
  bytes_.insert(bytes_.end(), s.begin(), s.end());
}

void Encoder::PutDoubleVec(const std::vector<double>& v) {
  PutU64(v.size());
  for (double d : v) PutDouble(d);
}

void Encoder::PutIntVec(const std::vector<int>& v) {
  PutU64(v.size());
  for (int i : v) PutI64(i);
}

void Encoder::PutU64Vec(const std::vector<uint64_t>& v) {
  PutU64(v.size());
  for (uint64_t u : v) PutU64(u);
}

void Encoder::PutStringVec(const std::vector<std::string>& v) {
  PutU64(v.size());
  for (const std::string& s : v) PutString(s);
}

Status Decoder::Take(size_t n, const uint8_t** out) {
  if (n > remaining()) {
    return Status::InvalidArgument(
        StrFormat("artifact payload truncated: need %zu bytes, %zu left", n,
                  remaining()));
  }
  *out = bytes_.data() + pos_;
  pos_ += n;
  return Status::OK();
}

Status Decoder::GetU8(uint8_t* out) {
  const uint8_t* p = nullptr;
  TRANSER_RETURN_IF_ERROR(Take(1, &p));
  *out = *p;
  return Status::OK();
}

Status Decoder::GetU32(uint32_t* out) {
  const uint8_t* p = nullptr;
  TRANSER_RETURN_IF_ERROR(Take(4, &p));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  *out = v;
  return Status::OK();
}

Status Decoder::GetU64(uint64_t* out) {
  const uint8_t* p = nullptr;
  TRANSER_RETURN_IF_ERROR(Take(8, &p));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  *out = v;
  return Status::OK();
}

Status Decoder::GetI64(int64_t* out) {
  uint64_t v = 0;
  TRANSER_RETURN_IF_ERROR(GetU64(&v));
  *out = static_cast<int64_t>(v);
  return Status::OK();
}

Status Decoder::GetDouble(double* out) {
  uint64_t bits = 0;
  TRANSER_RETURN_IF_ERROR(GetU64(&bits));
  std::memcpy(out, &bits, sizeof(bits));
  return Status::OK();
}

Status Decoder::GetString(std::string* out) {
  uint32_t length = 0;
  TRANSER_RETURN_IF_ERROR(GetU32(&length));
  const uint8_t* p = nullptr;
  TRANSER_RETURN_IF_ERROR(Take(length, &p));
  out->assign(reinterpret_cast<const char*>(p), length);
  return Status::OK();
}

Status Decoder::GetDoubleVec(std::vector<double>* out) {
  uint64_t count = 0;
  TRANSER_RETURN_IF_ERROR(GetU64(&count));
  if (count > remaining() / 8) {
    return Status::InvalidArgument(
        StrFormat("artifact vector count %llu exceeds the payload",
                  static_cast<unsigned long long>(count)));
  }
  out->clear();
  out->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    double v = 0.0;
    TRANSER_RETURN_IF_ERROR(GetDouble(&v));
    out->push_back(v);
  }
  return Status::OK();
}

Status Decoder::GetIntVec(std::vector<int>* out) {
  uint64_t count = 0;
  TRANSER_RETURN_IF_ERROR(GetU64(&count));
  if (count > remaining() / 8) {
    return Status::InvalidArgument(
        StrFormat("artifact vector count %llu exceeds the payload",
                  static_cast<unsigned long long>(count)));
  }
  out->clear();
  out->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    int64_t v = 0;
    TRANSER_RETURN_IF_ERROR(GetI64(&v));
    if (v < INT32_MIN || v > INT32_MAX) {
      return Status::InvalidArgument("artifact int out of range");
    }
    out->push_back(static_cast<int>(v));
  }
  return Status::OK();
}

Status Decoder::GetU64Vec(std::vector<uint64_t>* out) {
  uint64_t count = 0;
  TRANSER_RETURN_IF_ERROR(GetU64(&count));
  if (count > remaining() / 8) {
    return Status::InvalidArgument(
        StrFormat("artifact vector count %llu exceeds the payload",
                  static_cast<unsigned long long>(count)));
  }
  out->clear();
  out->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t v = 0;
    TRANSER_RETURN_IF_ERROR(GetU64(&v));
    out->push_back(v);
  }
  return Status::OK();
}

Status Decoder::GetStringVec(std::vector<std::string>* out) {
  uint64_t count = 0;
  TRANSER_RETURN_IF_ERROR(GetU64(&count));
  if (count > remaining() / 4) {  // each entry costs at least a u32 length
    return Status::InvalidArgument(
        StrFormat("artifact vector count %llu exceeds the payload",
                  static_cast<unsigned long long>(count)));
  }
  out->clear();
  out->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    std::string s;
    TRANSER_RETURN_IF_ERROR(GetString(&s));
    out->push_back(std::move(s));
  }
  return Status::OK();
}

Status Decoder::ExpectEnd() const {
  if (remaining() != 0) {
    return Status::InvalidArgument(
        StrFormat("artifact payload has %zu trailing bytes", remaining()));
  }
  return Status::OK();
}

const Section* Artifact::Find(const std::string& name) const {
  for (const Section& section : sections) {
    if (section.name == name) return &section;
  }
  return nullptr;
}

Status WriteArtifact(const std::string& path, const Header& header,
                     const std::vector<Section>& sections) {
  if (path.empty()) {
    return Status::InvalidArgument("artifact path is empty");
  }
  if (sections.size() > kMaxSections) {
    return Status::InvalidArgument("too many artifact sections");
  }

  std::vector<uint8_t> file;
  file.insert(file.end(), kMagic, kMagic + sizeof(kMagic));
  Encoder body;
  body.PutU32(kFormatVersion);
  body.PutString(header.kind);
  body.PutU64(header.schema_fingerprint);
  body.PutU32(static_cast<uint32_t>(sections.size()));
  for (const Section& section : sections) {
    body.PutString(section.name);
    body.PutU64(section.payload.size());
    for (uint8_t b : section.payload) body.PutU8(b);
    body.PutU32(Crc32(section.payload.data(), section.payload.size()));
  }
  const std::vector<uint8_t> encoded = body.TakeBytes();
  file.insert(file.end(), encoded.begin(), encoded.end());
  Encoder trailer;
  trailer.PutU32(Crc32(file.data(), file.size()));
  file.insert(file.end(), trailer.bytes().begin(), trailer.bytes().end());

  return WriteFileAtomically(path, file);
}

Result<Artifact> ReadArtifact(const std::string& path) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) {
    return Status::NotFound("no artifact at " + path);
  }
  std::vector<uint8_t> file;
  uint8_t buffer[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), in)) > 0) {
    file.insert(file.end(), buffer, buffer + n);
  }
  const bool read_error = std::ferror(in) != 0;
  std::fclose(in);
  if (read_error) {
    return Status::IoError("failed reading " + path);
  }

  // Container minimum: magic + version + kind length + fingerprint +
  // section count + trailer CRC.
  if (file.size() < sizeof(kMagic) + 4 + 4 + 8 + 4 + 4) {
    return Status::InvalidArgument(path + " is too short to be an artifact");
  }
  if (std::memcmp(file.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(path + " is not a TransER artifact");
  }
  // Whole-file CRC before any structure is trusted: truncation and bit
  // flips anywhere (including in the version and length fields) fail
  // here, not deep inside the parser.
  const size_t body_size = file.size() - 4;
  Decoder trailer(
      std::span<const uint8_t>(file.data() + body_size, size_t{4}));
  uint32_t stored_crc = 0;
  TRANSER_RETURN_IF_ERROR(trailer.GetU32(&stored_crc));
  if (Crc32(file.data(), body_size) != stored_crc) {
    return Status::InvalidArgument(
        path + ": artifact checksum mismatch (truncated or corrupted)");
  }

  Decoder body(std::span<const uint8_t>(file.data() + sizeof(kMagic),
                                        body_size - sizeof(kMagic)));
  uint32_t version = 0;
  TRANSER_RETURN_IF_ERROR(body.GetU32(&version));
  if (version != kFormatVersion) {
    return Status::FailedPrecondition(
        StrFormat("%s: artifact format version %u is not supported "
                  "(this build reads version %u)",
                  path.c_str(), version, kFormatVersion));
  }

  Artifact artifact;
  TRANSER_RETURN_IF_ERROR(body.GetString(&artifact.header.kind));
  TRANSER_RETURN_IF_ERROR(body.GetU64(&artifact.header.schema_fingerprint));
  uint32_t section_count = 0;
  TRANSER_RETURN_IF_ERROR(body.GetU32(&section_count));
  if (section_count > kMaxSections) {
    return Status::InvalidArgument(path + ": implausible section count");
  }
  artifact.sections.reserve(section_count);
  for (uint32_t i = 0; i < section_count; ++i) {
    Section section;
    TRANSER_RETURN_IF_ERROR(body.GetString(&section.name));
    if (section.name.size() > kMaxNameBytes) {
      return Status::InvalidArgument(path + ": implausible section name");
    }
    uint64_t payload_size = 0;
    TRANSER_RETURN_IF_ERROR(body.GetU64(&payload_size));
    if (payload_size > body.remaining()) {
      return Status::InvalidArgument(
          StrFormat("%s: section '%s' claims %llu bytes but only %zu remain",
                    path.c_str(), section.name.c_str(),
                    static_cast<unsigned long long>(payload_size),
                    body.remaining()));
    }
    section.payload.resize(payload_size);
    for (uint64_t b = 0; b < payload_size; ++b) {
      TRANSER_RETURN_IF_ERROR(body.GetU8(&section.payload[b]));
    }
    uint32_t section_crc = 0;
    TRANSER_RETURN_IF_ERROR(body.GetU32(&section_crc));
    if (Crc32(section.payload.data(), section.payload.size()) !=
        section_crc) {
      return Status::InvalidArgument(StrFormat(
          "%s: section '%s' checksum mismatch", path.c_str(),
          section.name.c_str()));
    }
    artifact.sections.push_back(std::move(section));
  }
  TRANSER_RETURN_IF_ERROR(body.ExpectEnd());
  return artifact;
}

}  // namespace artifact
}  // namespace transer
