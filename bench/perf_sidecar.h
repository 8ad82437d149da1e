#ifndef TRANSER_BENCH_PERF_SIDECAR_H_
#define TRANSER_BENCH_PERF_SIDECAR_H_

#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/string_util.h"

namespace transer {
namespace bench {

/// Schema identity of the kernel perf sidecar. perf_compare refuses to
/// diff sidecars whose schema or version differ — a silent format drift
/// must fail loudly, not produce a bogus comparison.
inline constexpr char kPerfSchema[] = "transer.kernel_perf";
inline constexpr int kPerfSchemaVersion = 1;

/// Extras key naming the kernel branch a sidecar was timed on: 1 when
/// linalg/kernels compiled its AVX2 bodies, 0 for the portable ones.
inline constexpr char kKernelsAvx2Extra[] = "kernels_avx2";

/// \brief One measured primitive: ns per operation at a given thread
/// count. `ops_per_sec` is redundant (1e9 / ns_per_op) but kept in the
/// sidecar so humans and plots never re-derive it.
struct PerfEntry {
  std::string name;
  int threads = 1;
  double ns_per_op = 0.0;
  double ops_per_sec = 0.0;
};

/// \brief The full perf report of one micro_primitives run: schema
/// header, the thread count the binary resolved, every measured entry,
/// and free-form numeric extras (speedup ratios).
struct PerfSidecar {
  std::string schema = kPerfSchema;
  int version = kPerfSchemaVersion;
  int threads = 1;
  std::vector<PerfEntry> entries;
  std::vector<std::pair<std::string, double>> extras;

  /// The extra named `key`, or nullopt when the sidecar lacks it.
  std::optional<double> FindExtra(const std::string& key) const {
    for (const auto& [name, value] : extras) {
      if (name == key) return value;
    }
    return std::nullopt;
  }

  const PerfEntry* Find(const std::string& name, int entry_threads) const {
    for (const PerfEntry& entry : entries) {
      if (entry.name == name && entry.threads == entry_threads) return &entry;
    }
    return nullptr;
  }
};

namespace sidecar_internal {

/// Same minimal field extraction as the sweep journal: finds `"name":`
/// in a flat one-line object and returns the raw value token. Only ever
/// reads what WritePerfSidecar produced.
inline bool ExtractRaw(const std::string& line, const std::string& name,
                       std::string* out) {
  const std::string needle = "\"" + name + "\":";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  size_t pos = at + needle.size();
  if (pos >= line.size()) return false;
  if (line[pos] == '"') {
    ++pos;
    const size_t end = line.find('"', pos);
    if (end == std::string::npos) return false;
    *out = line.substr(pos, end - pos);
    return true;
  }
  const size_t end = line.find_first_of(",}", pos);
  if (end == std::string::npos || end == pos) return false;
  *out = line.substr(pos, end - pos);
  return true;
}

inline bool ExtractDouble(const std::string& line, const std::string& name,
                          double* out) {
  std::string raw;
  return ExtractRaw(line, name, &raw) && ParseDouble(raw, out);
}

inline bool ExtractInt(const std::string& line, const std::string& name,
                       int64_t* out) {
  std::string raw;
  return ExtractRaw(line, name, &raw) && ParseInt64(raw, out);
}

}  // namespace sidecar_internal

/// Writes the sidecar as line-structured JSON: a header line, one line
/// per entry, one line of extras. Line-per-record keeps the reader a
/// trivial scan (the sweep-journal idiom) while the whole file is still
/// a single valid JSON object. Returns false (with a message on stderr)
/// if the file cannot be written.
inline bool WritePerfSidecar(const std::string& path,
                             const PerfSidecar& sidecar) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(out, "{\"schema\":\"%s\",\"version\":%d,\"threads\":%d,\n",
               sidecar.schema.c_str(), sidecar.version, sidecar.threads);
  std::fprintf(out, "\"entries\":[\n");
  for (size_t i = 0; i < sidecar.entries.size(); ++i) {
    const PerfEntry& entry = sidecar.entries[i];
    std::fprintf(out,
                 "{\"name\":\"%s\",\"threads\":%d,\"ns_per_op\":%.6g,"
                 "\"ops_per_sec\":%.6g}%s\n",
                 entry.name.c_str(), entry.threads, entry.ns_per_op,
                 entry.ops_per_sec, i + 1 == sidecar.entries.size() ? "" : ",");
  }
  std::fprintf(out, "],\n\"extra\":{");
  for (size_t i = 0; i < sidecar.extras.size(); ++i) {
    std::fprintf(out, "%s\"%s\":%.6g", i == 0 ? "" : ",",
                 sidecar.extras[i].first.c_str(), sidecar.extras[i].second);
  }
  std::fprintf(out, "}}\n");
  std::fclose(out);
  return true;
}

/// Reads a sidecar previously written by WritePerfSidecar. On any
/// malformation (missing header, bad entry line, unreadable file) the
/// error string names the problem and false is returned; schema/version
/// acceptance is the caller's decision so perf_compare can report both
/// identities in its message.
inline bool ReadPerfSidecar(const std::string& path, PerfSidecar* sidecar,
                            std::string* error) {
  std::FILE* in = std::fopen(path.c_str(), "r");
  if (in == nullptr) {
    *error = "cannot open " + path;
    return false;
  }
  std::string content;
  char buffer[4096];
  size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), in)) > 0) {
    content.append(buffer, got);
  }
  std::fclose(in);

  sidecar->entries.clear();
  sidecar->extras.clear();
  bool saw_header = false;
  size_t start = 0;
  while (start <= content.size()) {
    const size_t newline = content.find('\n', start);
    const std::string line =
        content.substr(start, newline == std::string::npos
                                  ? std::string::npos
                                  : newline - start);
    start = newline == std::string::npos ? content.size() + 1 : newline + 1;
    if (line.empty() || line == "],") continue;
    if (line.find("\"schema\"") != std::string::npos) {
      int64_t version = 0;
      int64_t threads = 0;
      if (!sidecar_internal::ExtractRaw(line, "schema", &sidecar->schema) ||
          !sidecar_internal::ExtractInt(line, "version", &version) ||
          !sidecar_internal::ExtractInt(line, "threads", &threads)) {
        *error = path + ": malformed header line";
        return false;
      }
      sidecar->version = static_cast<int>(version);
      sidecar->threads = static_cast<int>(threads);
      saw_header = true;
      continue;
    }
    if (line.rfind("{\"name\"", 0) == 0) {
      PerfEntry entry;
      int64_t threads = 0;
      if (!sidecar_internal::ExtractRaw(line, "name", &entry.name) ||
          !sidecar_internal::ExtractInt(line, "threads", &threads) ||
          !sidecar_internal::ExtractDouble(line, "ns_per_op",
                                           &entry.ns_per_op) ||
          !sidecar_internal::ExtractDouble(line, "ops_per_sec",
                                           &entry.ops_per_sec)) {
        *error = path + ": malformed entry line: " + line;
        return false;
      }
      entry.threads = static_cast<int>(threads);
      sidecar->entries.push_back(std::move(entry));
      continue;
    }
    if (line.find("\"extra\"") != std::string::npos) {
      // Scan `"key":value` pairs inside the extras object.
      size_t pos = line.find('{');
      while (pos != std::string::npos) {
        const size_t key_start = line.find('"', pos + 1);
        if (key_start == std::string::npos) break;
        const size_t key_end = line.find('"', key_start + 1);
        if (key_end == std::string::npos) break;
        const size_t colon = line.find(':', key_end);
        if (colon == std::string::npos) break;
        const size_t value_end = line.find_first_of(",}", colon + 1);
        if (value_end == std::string::npos) break;
        double value = 0.0;
        if (!ParseDouble(line.substr(colon + 1, value_end - colon - 1),
                         &value)) {
          *error = path + ": malformed extras line";
          return false;
        }
        sidecar->extras.emplace_back(
            line.substr(key_start + 1, key_end - key_start - 1), value);
        pos = line[value_end] == ',' ? value_end : std::string::npos;
      }
      continue;
    }
  }
  if (!saw_header) {
    *error = path + ": missing schema header";
    return false;
  }
  return true;
}

}  // namespace bench
}  // namespace transer

#endif  // TRANSER_BENCH_PERF_SIDECAR_H_
