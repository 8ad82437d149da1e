// Reproduces Table 4: the ablation analysis of TransER's components on
// the three focus scenario pairs — full TransER, without GEN & TCL,
// without SEL, without sim_c, without sim_l, and TransER + sim_v (the
// extra covariance filter from LocIT).
//
// Flags: --scale (default 0.015), --seed.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/experiment.h"
#include "core/transer.h"
#include "data/scenario.h"
#include "eval/table_printer.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace transer {
namespace {

struct Variant {
  const char* label;
  TransEROptions options;
};

std::vector<Variant> Variants() {
  std::vector<Variant> variants;
  variants.push_back({"TransER", {}});
  {
    TransEROptions options;
    options.use_gen_tcl = false;
    variants.push_back({"w/o GEN&TCL", options});
  }
  {
    TransEROptions options;
    options.use_sel = false;
    variants.push_back({"w/o SEL", options});
  }
  {
    TransEROptions options;
    options.use_sim_c = false;
    variants.push_back({"w/o sim_c", options});
  }
  {
    TransEROptions options;
    options.use_sim_l = false;
    variants.push_back({"w/o sim_l", options});
  }
  {
    TransEROptions options;
    options.use_sim_v = true;
    variants.push_back({"+ sim_v", options});
  }
  return variants;
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv, {"scale", "seed", "threads"});
  const int threads = ConfigureThreads(flags);
  bench::BenchReport bench_report("table4", threads);
  Stopwatch run_watch;
  ScenarioScale scale;
  scale.scale = flags.GetDouble("scale", 0.015);
  scale.seed = static_cast<uint64_t>(flags.GetInt("seed", 33));
  TransferRunOptions run_options;
  run_options.seed = scale.seed;

  SetLogLevel(LogLevel::kError);
  std::printf(
      "Table 4: ablation of TransER's components (mean ±std over the\n"
      "4-classifier suite). scale=%.4g\n\n",
      scale.scale);

  const auto variants = Variants();
  std::vector<std::string> header = {"Scenario", "M"};
  for (const auto& variant : variants) header.push_back(variant.label);
  TablePrinter table(header);
  const char* measure_names[] = {"P", "R", "F*", "F1"};

  for (ScenarioId id : FocusScenarioIds()) {
    const TransferScenario scenario = BuildScenario(id, scale);
    std::vector<MethodScenarioResult> results;
    for (const auto& variant : variants) {
      TransER method(variant.options);
      results.push_back(RunMethodOnScenario(
          method, scenario, DefaultClassifierSuite(), run_options));
    }
    for (int measure = 0; measure < 4; ++measure) {
      std::vector<std::string> row = {
          measure == 0 ? scenario.name : std::string(),
          measure_names[measure]};
      for (const auto& result : results) {
        const QualityAggregate& q = result.quality;
        const MeanStd& cell = measure == 0   ? q.precision
                              : measure == 1 ? q.recall
                              : measure == 2 ? q.f_star
                                             : q.f1;
        row.push_back(cell.ToString());
      }
      table.AddRow(std::move(row));
    }
    std::fprintf(stderr, "done: %s\n", scenario.name.c_str());
  }
  table.Print();
  std::printf(
      "\nExpected shape (paper Section 5.4): removing SEL or sim_c hurts\n"
      "most where the source carries conflicting labels; removing sim_l\n"
      "costs a few points; adding sim_v changes almost nothing.\n");
  bench_report.AddStage("run", run_watch.ElapsedSeconds());
  bench_report.Write();
  return 0;
}

}  // namespace
}  // namespace transer

int main(int argc, char** argv) { return transer::Main(argc, argv); }
