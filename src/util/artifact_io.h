#ifndef TRANSER_UTIL_ARTIFACT_IO_H_
#define TRANSER_UTIL_ARTIFACT_IO_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/status.h"

namespace transer {
namespace artifact {

/// On-disk format version of the artifact container. Bump on any layout
/// change; readers reject versions they do not understand with
/// FailedPrecondition rather than guessing (see DESIGN.md §8).
inline constexpr uint32_t kFormatVersion = 1;

/// Leading / trailing magic of every artifact file. The trailer CRC sits
/// between the last section and the end of file.
inline constexpr char kMagic[4] = {'T', 'E', 'R', 'A'};

/// CRC-32 (IEEE 802.3 polynomial, the zlib crc32) of `size` bytes.
uint32_t Crc32(const void* data, size_t size);

/// The fsync implementation every artifact / journal writer in the
/// library flushes through. Returns 0 on success, -1 with errno set on
/// failure — the ::fsync contract.
using FsyncFn = int (*)(int fd);

/// Installs a replacement fsync (nullptr restores the real ::fsync) and
/// returns the previous hook. Test-only: lets the fault-injection
/// harness (fault::ScopedFsyncFault) prove that a failed flush surfaces
/// as a write error instead of being swallowed before the rename that
/// would publish unsynced bytes. Not thread-safe; install in
/// single-threaded test setup only.
FsyncFn SetFsyncHookForTesting(FsyncFn fn);

/// fsync(fd) through the installed hook.
int FsyncFd(int fd);

/// The write(2) implementation every artifact / journal writer in the
/// library pushes bytes through. Returns the byte count written (which
/// may be short), or -1 with errno set — the ::write contract.
using WriteFn = ssize_t (*)(int fd, const void* buf, size_t count);

/// Installs a replacement write (nullptr restores the real ::write) and
/// returns the previous hook. Test-only: lets the fault-injection
/// harness (fault::ScopedDiskFullFault) model a filling disk — writes
/// that land partially and then fail with ENOSPC — and prove that every
/// writer surfaces a clean IoError and leaves a recoverable prefix.
/// Same discipline as the fsync hook: single-threaded test setup only.
WriteFn SetWriteHookForTesting(WriteFn fn);

/// write(fd, buf, count) through the installed hook.
ssize_t WriteFd(int fd, const void* buf, size_t count);

/// fsyncs the directory containing `path`, making a preceding rename
/// into that directory durable. IoError on failure.
Status SyncParentDir(const std::string& path);

/// Publishes `bytes` at `path` crash-safely: write a sibling
/// `<path>.tmp`, fsync it, rename it over `path`, fsync the directory.
/// A crash leaves either the previous file or the complete new one,
/// never a torn write. Any failure before the rename removes the temp
/// file and returns IoError with nothing published. The one publish
/// discipline of the library: artifacts, journal creation and
/// compaction, and segment manifests all go through it.
Status WriteFileAtomically(const std::string& path,
                           std::span<const uint8_t> bytes);

/// Order-sensitive FNV-1a fingerprint of a feature schema (column count
/// plus every column name). Two matrices agree on the fingerprint iff
/// they present the same features in the same order — the compatibility
/// contract a saved model carries.
uint64_t FingerprintFeatureSchema(const std::vector<std::string>& names);

/// \brief Append-only typed byte buffer: the serialisation half of the
/// artifact payload format. All integers are little-endian fixed width;
/// doubles are their IEEE-754 bit patterns.
class Encoder {
 public:
  void PutU8(uint8_t v) { bytes_.push_back(v); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutDouble(double v);
  /// u32 length + raw bytes.
  void PutString(const std::string& s);
  /// u64 count + elements.
  void PutDoubleVec(const std::vector<double>& v);
  void PutIntVec(const std::vector<int>& v);     ///< elements as i64
  void PutU64Vec(const std::vector<uint64_t>& v);
  void PutStringVec(const std::vector<std::string>& v);

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  std::vector<uint8_t> TakeBytes() { return std::move(bytes_); }

 private:
  std::vector<uint8_t> bytes_;
};

/// \brief Bounds-checked reader over an Encoder-produced payload. Every
/// Get returns InvalidArgument instead of reading past the end, and
/// vector reads validate the element count against the bytes actually
/// remaining *before* allocating — a corrupted count can never trigger a
/// huge allocation or an out-of-bounds read.
class Decoder {
 public:
  explicit Decoder(std::span<const uint8_t> bytes) : bytes_(bytes) {}

  Status GetU8(uint8_t* out);
  Status GetU32(uint32_t* out);
  Status GetU64(uint64_t* out);
  Status GetI64(int64_t* out);
  Status GetDouble(double* out);
  Status GetString(std::string* out);
  Status GetDoubleVec(std::vector<double>* out);
  Status GetIntVec(std::vector<int>* out);
  Status GetU64Vec(std::vector<uint64_t>* out);
  Status GetStringVec(std::vector<std::string>* out);

  size_t remaining() const { return bytes_.size() - pos_; }
  /// InvalidArgument unless every payload byte was consumed — trailing
  /// garbage means the payload is not what the writer produced.
  Status ExpectEnd() const;

 private:
  Status Take(size_t n, const uint8_t** out);

  std::span<const uint8_t> bytes_;
  size_t pos_ = 0;
};

/// \brief One named, independently CRC-framed payload of an artifact.
struct Section {
  std::string name;
  std::vector<uint8_t> payload;
};

/// \brief Container-level identity of an artifact.
struct Header {
  /// What the artifact holds: "classifier", "scaler", "transer_pipeline".
  std::string kind;
  /// FingerprintFeatureSchema of the feature space the model was trained
  /// on; 0 when the artifact is not bound to a schema.
  uint64_t schema_fingerprint = 0;
};

/// \brief A fully read and integrity-checked artifact.
struct Artifact {
  Header header;
  std::vector<Section> sections;

  /// Section by name, or nullptr.
  const Section* Find(const std::string& name) const;
};

/// Serialises header + sections and publishes them at `path` through
/// WriteFileAtomically. Layout (DESIGN.md §8): magic, u32 format version,
/// header fields, u32 section count, per section (name, u64 length,
/// payload, u32 CRC-32 of the payload), then a u32 CRC-32 of everything
/// before it as the file trailer.
Status WriteArtifact(const std::string& path, const Header& header,
                     const std::vector<Section>& sections);

/// Reads and verifies the artifact at `path`. Failure modes:
///   missing file                       -> NotFound
///   not an artifact / corrupt / torn   -> InvalidArgument
///   unsupported future format version  -> FailedPrecondition
/// The whole-file CRC is verified before any structure is parsed, so
/// truncation and bit flips anywhere in the file are caught up front;
/// section parsing is additionally bounds-checked, so even a crafted
/// file whose CRCs have been re-stamped cannot crash the reader.
Result<Artifact> ReadArtifact(const std::string& path);

}  // namespace artifact
}  // namespace transer

#endif  // TRANSER_UTIL_ARTIFACT_IO_H_
