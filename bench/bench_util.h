#ifndef TRANSER_BENCH_BENCH_UTIL_H_
#define TRANSER_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "util/flags.h"

namespace transer {
namespace bench {

/// \brief Machine-readable run report of one bench binary, written to
/// BENCH_<name>.json in the working directory: per-stage wall time, the
/// thread count the binary ran with, and free-form numeric extras (e.g.
/// speedup_vs_1_thread). Consumed by scripts; the human-readable table
/// stays on stdout.
class BenchReport {
 public:
  BenchReport(std::string name, int threads)
      : name_(std::move(name)), threads_(threads) {}

  void AddStage(const std::string& stage, double seconds) {
    stages_.emplace_back(stage, seconds);
  }

  void AddExtra(const std::string& key, double value) {
    extras_.emplace_back(key, value);
  }

  /// Writes BENCH_<name>.json. A write failure warns on stderr but never
  /// fails the bench — the JSON sidecar is an artefact, not the result.
  void Write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(out, "{\"name\":\"%s\",\"threads\":%d,\"stages\":[",
                 name_.c_str(), threads_);
    for (size_t i = 0; i < stages_.size(); ++i) {
      std::fprintf(out, "%s{\"stage\":\"%s\",\"seconds\":%.6g}",
                   i == 0 ? "" : ",", stages_[i].first.c_str(),
                   stages_[i].second);
    }
    std::fprintf(out, "],\"extra\":{");
    for (size_t i = 0; i < extras_.size(); ++i) {
      std::fprintf(out, "%s\"%s\":%.6g", i == 0 ? "" : ",",
                   extras_[i].first.c_str(), extras_[i].second);
    }
    std::fprintf(out, "}}\n");
    std::fclose(out);
    std::printf("wrote %s\n", path.c_str());
  }

 private:
  std::string name_;
  int threads_;
  std::vector<std::pair<std::string, double>> stages_;
  std::vector<std::pair<std::string, double>> extras_;
};

}  // namespace bench
}  // namespace transer

#endif  // TRANSER_BENCH_BENCH_UTIL_H_
