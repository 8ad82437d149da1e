// Reproduces Table 3: feature-matrix sizes and runtimes (seconds) of
// TransER and all baselines per scenario. Runtimes cover the full
// classifier-suite protocol of Table 2 (four runs per method), matching
// how the paper timed its experiments. 'TE' / 'ME' mark the scaled
// time / memory caps.
//
// Flags: --scale (default 0.015), --time-limit (default 30 s/run),
//        --memory-limit-mb (default 64), --seed,
//        --checkpoint=<path> (journal completed cells by an fsync'd
//        append; a re-run resumes, reusing journaled runtimes for
//        completed cells),
//        --threads=N (worker lanes; default hardware width),
//        --skip-speedup (omit the single-threaded reference run),
//        --knn-backend=kdtree|brute|ann (SEL neighbour index; ann is the
//        recall-knobbed navigable graph), --recall=R, --ef-search=N
//        (graph beam knobs; see knn/ann_graph.h),
//        --version (print build identity and exit).
//
// Also writes BENCH_table3.json: per-stage wall time, thread count, the
// measured speedup of the bibliographic TransER pipeline at --threads
// versus a single thread (speedup_vs_1_thread), and --threads-aware
// kernel-layer stats (kernel_dot_ns_per_op, batch k-NN ns/query at 1
// and --threads lanes) so per-stage primitive cost rides with the
// end-to-end runtimes.

#include <cstdio>

#include "bench/bench_util.h"
#include "bench/kernel_probe.h"
#include "core/experiment.h"
#include "data/scenario.h"
#include "eval/table_printer.h"
#include "knn/knn_backend.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace transer {
namespace {

int Main(int argc, char** argv) {
  const Flags flags(argc, argv,
                           {"scale", "seed", "time-limit",
                            "memory-limit-mb", "checkpoint", "threads",
                            "skip-speedup", "knn-backend", "recall",
                            "ef-search"});
  const int threads = ConfigureThreads(flags);
  bench::BenchReport bench_report("table3", threads);
  ScenarioScale scale;
  scale.scale = flags.GetDouble("scale", 0.015);
  scale.seed = static_cast<uint64_t>(flags.GetInt("seed", 33));
  const ExecutionLimits cell_limits{
      flags.GetTimeLimitSeconds("time-limit", 30.0),
      flags.GetMemoryLimitBytes("memory-limit-mb", 64)};
  TransferRunOptions run_options;
  run_options.seed = scale.seed;
  // --knn-backend=ann times SEL on the navigable graph instead of the
  // exact KD-tree — the headline runtime win at paper-scale inputs.
  const std::string knn_backend = flags.GetString("knn-backend", "kd_tree");
  if (!ParseKnnBackendKind(knn_backend, &run_options.knn_backend)) {
    std::fprintf(stderr, "unknown --knn-backend '%s' (kdtree|brute|ann)\n",
                 knn_backend.c_str());
    return 2;
  }
  run_options.knn_recall_target = flags.GetDouble("recall", 0.95);
  run_options.knn_ef_search =
      static_cast<size_t>(flags.GetInt("ef-search", 0));

  SetLogLevel(LogLevel::kError);
  std::printf(
      "Table 3: feature-matrix sizes and runtimes in seconds (sum over the\n"
      "4-classifier suite). scale=%.4g, limits: %.0fs/run, %zu MB.\n\n",
      scale.scale, cell_limits.time_limit_seconds,
      cell_limits.memory_limit_bytes >> 20);

  const auto methods = DefaultMethodLineup();
  std::vector<std::string> header = {"Scenario", "|X^S|", "|X^T|"};
  for (const auto& method : methods) header.push_back(method->name());
  TablePrinter table(header);

  Stopwatch setup_watch;
  std::vector<TransferScenario> scenarios;
  for (ScenarioId id : AllScenarioIds()) {
    scenarios.push_back(BuildScenario(id, scale));
  }
  bench_report.AddStage("build_scenarios", setup_watch.ElapsedSeconds());
  SweepOptions sweep_options;
  sweep_options.checkpoint_path = flags.GetString("checkpoint", "");
  sweep_options.base_options = run_options;
  sweep_options.cell_limits = cell_limits;
  Stopwatch sweep_watch;
  auto sweep = RunCheckpointedSweep(methods, scenarios,
                                    DefaultClassifierSuite(), sweep_options);
  bench_report.AddStage("sweep", sweep_watch.ElapsedSeconds());
  if (!sweep.ok()) {
    std::fprintf(stderr, "sweep failed: %s\n",
                 sweep.status().ToString().c_str());
    return 1;
  }

  for (size_t s = 0; s < scenarios.size(); ++s) {
    const TransferScenario& scenario = scenarios[s];
    std::vector<std::string> row = {scenario.name,
                                    std::to_string(scenario.source.size()),
                                    std::to_string(scenario.target.size())};
    for (size_t m = 0; m < methods.size(); ++m) {
      const MethodScenarioResult& result =
          sweep.value()[s * methods.size() + m];
      if (!result.failure.empty() && result.completed_runs == 0) {
        row.push_back(result.failure);
      } else {
        row.push_back(StrFormat("%.2f", result.total_runtime_seconds));
      }
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf(
      "\nExpected ordering (paper Section 5.2.2): Naive and Coral are the\n"
      "fastest, TransER third, then DR; the deep DTAL* is the slowest and\n"
      "TCA exceeds memory on mid-sized data.\n");

  // Speedup probe: the bibliographic TransER pipeline (the paper's
  // headline end-to-end workload) timed at --threads versus one thread.
  // Both runs produce identical predictions; only wall time differs.
  if (!flags.GetBool("skip-speedup", false) && threads > 1) {
    const TransferScenario& biblio = scenarios.front();
    const auto& suite = DefaultClassifierSuite();
    TransferRunOptions probe_options = run_options;
    probe_options.num_threads = 1;
    Stopwatch serial_watch;
    RunMethodOnScenario(*methods.front(), biblio, suite, probe_options);
    const double serial_seconds = serial_watch.ElapsedSeconds();
    probe_options.num_threads = threads;
    Stopwatch parallel_watch;
    RunMethodOnScenario(*methods.front(), biblio, suite, probe_options);
    const double parallel_seconds = parallel_watch.ElapsedSeconds();
    bench_report.AddStage("transer_biblio_1_thread", serial_seconds);
    bench_report.AddStage(
        StrFormat("transer_biblio_%d_threads", threads), parallel_seconds);
    const double speedup =
        parallel_seconds > 0.0 ? serial_seconds / parallel_seconds : 0.0;
    bench_report.AddExtra("speedup_vs_1_thread", speedup);
    std::printf("\nTransER on %s: %.2fs at 1 thread, %.2fs at %d threads "
                "(speedup %.2fx)\n",
                biblio.name.c_str(), serial_seconds, parallel_seconds,
                threads, speedup);
  }
  // Kernel-layer stats at the same --threads value: the per-primitive
  // cost underneath the end-to-end runtimes above.
  Stopwatch probe_watch;
  const bench::KernelProbeResult probe =
      bench::ProbeKernelPerf(threads, /*min_seconds=*/0.05);
  bench_report.AddStage("kernel_probe", probe_watch.ElapsedSeconds());
  bench_report.AddExtra("kernel_dot_ns_per_op", probe.dot_ns_per_op);
  bench_report.AddExtra("knn_batch_ns_per_query_1t",
                        probe.knn_batch_ns_per_query_1t);
  bench_report.AddExtra("knn_batch_ns_per_query_nt",
                        probe.knn_batch_ns_per_query_nt);
  bench_report.AddExtra("knn_batch_speedup_vs_1_thread",
                        probe.knn_batch_speedup_vs_1_thread);
  bench_report.AddExtra("knn_batch_probe_lanes",
                        static_cast<double>(probe.probe_lanes));
  std::printf("\nkernel probe: dot %.1f ns/op, batch k-NN %.0f ns/query at "
              "1 thread, %.0f ns/query at %d lanes (%.2fx)\n",
              probe.dot_ns_per_op, probe.knn_batch_ns_per_query_1t,
              probe.knn_batch_ns_per_query_nt, probe.probe_lanes,
              probe.knn_batch_speedup_vs_1_thread);
  bench_report.Write();
  return 0;
}

}  // namespace
}  // namespace transer

int main(int argc, char** argv) { return transer::Main(argc, argv); }
