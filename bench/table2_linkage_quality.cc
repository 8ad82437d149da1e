// Reproduces Table 2: precision, recall, F*, F1 (mean ± std over the
// SVM / random-forest / logistic-regression / decision-tree suite) of
// TransER against the Naive, DTAL*, DR, LocIT*, TCA and Coral baselines
// on all eight source -> target scenarios.
//
// Flags: --scale (default 0.015 of the paper's data set sizes),
//        --time-limit (seconds per run, the scaled stand-in for the
//        paper's 72 h cap; default 30),
//        --memory-limit-mb (the scaled stand-in for the 200 GB cap;
//        default 64), --seed,
//        --checkpoint=<path> (crash-safe restartability: every
//        completed (method, scenario, classifier) cell is journaled
//        by an fsync'd append; re-running with the same flags skips
//        completed cells and reproduces the identical table),
//        --threads=N (worker lanes; default hardware width; the table
//        is byte-identical for every value),
//        --warm-start=<dir> (existing directory for per-cell model
//        snapshots; re-running with the same flags warm-starts each
//        TransER cell from its snapshot instead of retraining),
//        --knn-backend=kdtree|brute|ann (SEL neighbour index; ann is the
//        recall-knobbed navigable graph), --recall=R, --ef-search=N
//        (graph beam knobs; see knn/ann_graph.h),
//        --version (print build identity and exit).
//
// Also writes BENCH_table2.json: per-stage wall time and thread count.

#include <cstdio>
#include <map>

#include "bench/bench_util.h"
#include "core/experiment.h"
#include "data/scenario.h"
#include "eval/table_printer.h"
#include "knn/knn_backend.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace transer {
namespace {

std::string Cell(const MethodScenarioResult& result,
                 const MeanStd& measure) {
  if (!result.failure.empty()) return result.failure;
  return measure.ToString();
}

int Main(int argc, char** argv) {
  const bench::Flags flags(argc, argv,
                           {"scale", "seed", "time-limit",
                            "memory-limit-mb", "checkpoint", "threads",
                            "warm-start", "sparse", "knn-backend",
                            "recall", "ef-search"});
  const int threads = bench::ConfigureThreads(flags);
  bench::BenchReport bench_report("table2", threads);
  ScenarioScale scale;
  scale.scale = flags.GetDouble("scale", 0.015);
  scale.seed = static_cast<uint64_t>(flags.GetInt("seed", 33));
  TransferRunOptions run_options;
  run_options.time_limit_seconds = flags.GetDouble("time-limit", 30.0);
  run_options.memory_limit_bytes =
      static_cast<size_t>(flags.GetInt("memory-limit-mb", 64)) << 20;
  run_options.seed = scale.seed;
  // --sparse=true trains the linear classifiers of the suite through the
  // CSR feature path (others fall back dense with a diagnostics event).
  run_options.sparse_features = flags.GetBool("sparse", false);
  // --knn-backend=ann runs SEL's neighbourhood scans on the navigable
  // graph; quality columns should stay within 0.5 F1 points of exact.
  const std::string knn_backend = flags.GetString("knn-backend", "kd_tree");
  if (!ParseKnnBackendKind(knn_backend, &run_options.knn_backend)) {
    std::fprintf(stderr, "unknown --knn-backend '%s' (kdtree|brute|ann)\n",
                 knn_backend.c_str());
    return 2;
  }
  run_options.knn_recall_target = flags.GetDouble("recall", 0.95);
  run_options.knn_ef_search =
      static_cast<size_t>(flags.GetInt("ef-search", 0));
  const std::string checkpoint_path = flags.GetString("checkpoint", "");

  SetLogLevel(LogLevel::kError);
  std::printf(
      "Table 2: linkage quality (mean ±std over SVM/RF/LR/DT)\n"
      "scale=%.4g of paper sizes, time limit %.0fs/run, memory %zu MB\n\n",
      scale.scale, run_options.time_limit_seconds,
      run_options.memory_limit_bytes >> 20);

  const auto methods = DefaultMethodLineup();
  std::vector<std::string> header = {"Scenario", "M"};
  for (const auto& method : methods) header.push_back(method->name());
  TablePrinter table(header);

  // Per-method accumulation for the paper's Averages block.
  std::map<std::string, std::vector<LinkageQuality>> all_results;

  // The sweep visits scenarios major, methods minor — the same order as
  // the table — so results slice per-scenario below. With --checkpoint
  // every completed cell is journaled and a re-run resumes.
  Stopwatch setup_watch;
  std::vector<TransferScenario> scenarios;
  for (ScenarioId id : AllScenarioIds()) {
    scenarios.push_back(BuildScenario(id, scale));
  }
  bench_report.AddStage("build_scenarios", setup_watch.ElapsedSeconds());
  SweepOptions sweep_options;
  sweep_options.checkpoint_path = checkpoint_path;
  sweep_options.base_options = run_options;
  sweep_options.warm_start_dir = flags.GetString("warm-start", "");
  Stopwatch sweep_watch;
  auto sweep = RunCheckpointedSweep(methods, scenarios,
                                    DefaultClassifierSuite(), sweep_options);
  bench_report.AddStage("sweep", sweep_watch.ElapsedSeconds());
  if (!sweep.ok()) {
    std::fprintf(stderr, "sweep failed: %s\n",
                 sweep.status().ToString().c_str());
    return 1;
  }

  const char* measure_names[] = {"P", "R", "F*", "F1"};
  for (size_t s = 0; s < scenarios.size(); ++s) {
    const TransferScenario& scenario = scenarios[s];
    std::vector<MethodScenarioResult> row_results;
    for (size_t m = 0; m < methods.size(); ++m) {
      MethodScenarioResult result =
          sweep.value()[s * methods.size() + m];
      all_results[result.method].insert(all_results[result.method].end(),
                                        result.per_classifier.begin(),
                                        result.per_classifier.end());
      row_results.push_back(std::move(result));
    }
    for (int measure = 0; measure < 4; ++measure) {
      std::vector<std::string> row = {
          measure == 0 ? scenario.name : std::string(),
          measure_names[measure]};
      for (const auto& result : row_results) {
        const QualityAggregate& q = result.quality;
        const MeanStd& cell = measure == 0   ? q.precision
                              : measure == 1 ? q.recall
                              : measure == 2 ? q.f_star
                                             : q.f1;
        row.push_back(Cell(result, cell));
      }
      table.AddRow(std::move(row));
    }
    std::fprintf(stderr, "done: %s\n", scenario.name.c_str());
  }

  // Averages over all completed (scenario, classifier) runs.
  for (int measure = 0; measure < 4; ++measure) {
    std::vector<std::string> row = {
        measure == 0 ? std::string("Averages") : std::string(),
        measure_names[measure]};
    for (const auto& method : methods) {
      const QualityAggregate agg =
          AggregateQuality(all_results[method->name()]);
      const MeanStd& cell = measure == 0   ? agg.precision
                            : measure == 1 ? agg.recall
                            : measure == 2 ? agg.f_star
                                           : agg.f1;
      row.push_back(cell.ToString());
    }
    table.AddRow(std::move(row));
  }

  table.Print();
  bench_report.Write();
  return 0;
}

}  // namespace
}  // namespace transer

int main(int argc, char** argv) { return transer::Main(argc, argv); }
