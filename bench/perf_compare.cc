// Diffs two transer.kernel_perf sidecars (a committed baseline and a
// fresh micro_primitives run) and fails on performance regressions.
//
// Flags: --baseline=<path> (required), --candidate=<path> (required),
//        --threshold=<fraction> (default 0.15: fail when a primitive is
//        more than 15% slower than the baseline),
//        --kernel-slack=<fraction> (default 0.05: fail when a kernel
//        entry is more than 5% slower than its scalar counterpart *in
//        the candidate itself* — a vectorized primitive that lost to
//        the code it replaced is a regression no matter what the
//        baseline machine measured),
//        --report-only (print the comparison but never fail on
//        regressions — CI smoke mode for machines whose absolute speed
//        is unknown), --version.
//
// Exit codes: 0 = no regression (or --report-only), 1 = at least one
// primitive regressed past the threshold, 2 = schema or I/O error, or
// sidecars timed on different kernel branches (their `kernels_avx2`
// extras disagree, or only one of them carries it). These are hard
// failures even under --report-only: a sidecar that cannot be trusted
// must never pass silently.
//
// Entries are matched by name. A baseline entry missing from the
// candidate (or vice versa) is a schema-level failure — the harness
// emits a fixed entry set, so a disappearing row means the two files
// were produced by incompatible harness versions. Entries whose thread
// counts differ (e.g. knn_batch.tiled.tN across machines of different
// width) are reported but excluded from the regression verdict.

#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/perf_sidecar.h"

namespace transer {
namespace {

/// The scalar counterpart of a kernel entry's name: ".kernel" and
/// ".tiled" segments map to ".scalar" (dot.kernel.d128 ->
/// dot.scalar.d128, pairwise_l2.tiled -> pairwise_l2.scalar). Returns
/// an empty string for entries with no such segment.
std::string ScalarCounterpartName(const std::string& name) {
  for (const char* segment : {".kernel", ".tiled"}) {
    const size_t at = name.find(segment);
    if (at != std::string::npos) {
      return name.substr(0, at) + ".scalar" +
             name.substr(at + std::string(segment).size());
    }
  }
  return "";
}

int Main(int argc, char** argv) {
  const Flags flags(
      argc, argv,
      {"baseline", "candidate", "threshold", "kernel-slack", "report-only"});
  const std::string baseline_path = flags.GetString("baseline", "");
  const std::string candidate_path = flags.GetString("candidate", "");
  if (baseline_path.empty() || candidate_path.empty()) {
    std::fprintf(stderr,
                 "usage: perf_compare --baseline=<path> --candidate=<path>"
                 " [--threshold=0.15] [--report-only]\n");
    return 2;
  }
  const double threshold = flags.GetDouble("threshold", 0.15);
  const double kernel_slack = flags.GetDouble("kernel-slack", 0.05);
  const bool report_only = flags.GetBool("report-only", false);

  bench::PerfSidecar baseline;
  bench::PerfSidecar candidate;
  std::string error;
  if (!bench::ReadPerfSidecar(baseline_path, &baseline, &error) ||
      !bench::ReadPerfSidecar(candidate_path, &candidate, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  for (const bench::PerfSidecar* sidecar : {&baseline, &candidate}) {
    if (sidecar->schema != bench::kPerfSchema ||
        sidecar->version != bench::kPerfSchemaVersion) {
      std::fprintf(stderr,
                   "error: schema mismatch: expected %s v%d, got %s v%d\n",
                   bench::kPerfSchema, bench::kPerfSchemaVersion,
                   sidecar->schema.c_str(), sidecar->version);
      return 2;
    }
  }

  // The AVX2 and portable kernel bodies differ in speed by 2-4x, so a
  // diff across branches would measure the build, not the change.
  const std::optional<double> base_avx2 =
      baseline.FindExtra(bench::kKernelsAvx2Extra);
  const std::optional<double> cand_avx2 =
      candidate.FindExtra(bench::kKernelsAvx2Extra);
  if (base_avx2 != cand_avx2) {
    const auto describe = [](const std::optional<double>& value) {
      return value.has_value() ? StrFormat("%g", *value)
                               : std::string("absent");
    };
    std::fprintf(stderr,
                 "error: kernel branch mismatch: baseline %s=%s, candidate "
                 "%s=%s (compare builds with the same TRANSER_NATIVE_ARCH)\n",
                 bench::kKernelsAvx2Extra, describe(base_avx2).c_str(),
                 bench::kKernelsAvx2Extra, describe(cand_avx2).c_str());
    return 2;
  }

  std::printf("perf_compare: %s vs %s (threshold %.0f%%%s)\n\n",
              baseline_path.c_str(), candidate_path.c_str(),
              threshold * 100.0, report_only ? ", report-only" : "");
  std::printf("%-28s %12s %12s %9s  %s\n", "primitive", "base ns/op",
              "cand ns/op", "delta", "verdict");

  std::vector<std::string> regressions;
  for (const bench::PerfEntry& base : baseline.entries) {
    const bench::PerfEntry* cand = nullptr;
    for (const bench::PerfEntry& entry : candidate.entries) {
      if (entry.name == base.name) {
        cand = &entry;
        break;
      }
    }
    if (cand == nullptr) {
      std::fprintf(stderr,
                   "error: entry '%s' present in baseline but missing from"
                   " candidate\n",
                   base.name.c_str());
      return 2;
    }
    if (base.ns_per_op <= 0.0 || !std::isfinite(cand->ns_per_op)) {
      std::fprintf(stderr, "error: entry '%s' has a non-positive or"
                           " non-finite measurement\n",
                   base.name.c_str());
      return 2;
    }
    const double delta = cand->ns_per_op / base.ns_per_op - 1.0;
    const bool comparable = base.threads == cand->threads;
    const bool regressed = comparable && delta > threshold;
    std::printf("%-28s %12.2f %12.2f %8.1f%%  %s\n", base.name.c_str(),
                base.ns_per_op, cand->ns_per_op, delta * 100.0,
                !comparable ? "skipped (thread counts differ)"
                : regressed ? "REGRESSED"
                            : "ok");
    if (regressed) regressions.push_back(base.name);
  }
  for (const bench::PerfEntry& entry : candidate.entries) {
    bool known = false;
    for (const bench::PerfEntry& base : baseline.entries) {
      known |= base.name == entry.name;
    }
    if (!known) {
      std::fprintf(stderr,
                   "error: entry '%s' present in candidate but missing from"
                   " baseline\n",
                   entry.name.c_str());
      return 2;
    }
  }

  // Kernel-vs-scalar invariant, judged inside the candidate run alone
  // (both sides measured on the same machine in the same session, so no
  // cross-machine slack is needed beyond measurement noise).
  std::printf("\nkernel vs scalar (candidate, slack %.0f%%):\n",
              kernel_slack * 100.0);
  for (const bench::PerfEntry& entry : candidate.entries) {
    const std::string scalar_name = ScalarCounterpartName(entry.name);
    if (scalar_name.empty()) continue;
    const bench::PerfEntry* scalar =
        candidate.Find(scalar_name, entry.threads);
    if (scalar == nullptr || scalar->ns_per_op <= 0.0) continue;
    const double ratio = entry.ns_per_op / scalar->ns_per_op;
    const bool slower = ratio > 1.0 + kernel_slack;
    std::printf("%-28s %12.2f %12.2f %8.2fx  %s\n", entry.name.c_str(),
                entry.ns_per_op, scalar->ns_per_op,
                scalar->ns_per_op / entry.ns_per_op,
                slower ? "SLOWER THAN SCALAR" : "ok");
    if (slower) regressions.push_back(entry.name + " (vs " + scalar_name + ")");
  }

  if (regressions.empty()) {
    std::printf("\nno regressions past %.0f%%\n", threshold * 100.0);
    return 0;
  }
  std::printf("\n%zu primitive(s) regressed:\n", regressions.size());
  for (const std::string& name : regressions) {
    std::printf("  %s\n", name.c_str());
  }
  if (report_only) {
    std::printf("report-only mode: not failing\n");
    return 0;
  }
  return 1;
}

}  // namespace
}  // namespace transer

int main(int argc, char** argv) { return transer::Main(argc, argv); }
