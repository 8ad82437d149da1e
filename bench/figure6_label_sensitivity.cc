// Reproduces Figure 6: TransER's sensitivity to the fraction of labelled
// source data (25%, 50%, 75%, 100%) on the three focus scenario pairs.
// Unlabelled source instances are simply unavailable to the framework
// (the labelling-cost scenario of Section 5.2.3).
//
// Flags: --scale (default 0.015), --seed.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/experiment.h"
#include "core/transer.h"
#include "data/scenario.h"
#include "eval/table_printer.h"
#include "ml/sampling.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace transer {
namespace {

int Main(int argc, char** argv) {
  const Flags flags(argc, argv, {"scale", "seed", "threads"});
  const int threads = ConfigureThreads(flags);
  bench::BenchReport bench_report("figure6", threads);
  Stopwatch run_watch;
  ScenarioScale scale;
  scale.scale = flags.GetDouble("scale", 0.015);
  scale.seed = static_cast<uint64_t>(flags.GetInt("seed", 33));

  SetLogLevel(LogLevel::kError);
  std::printf(
      "Figure 6: sensitivity of TransER to the labelled-source fraction\n"
      "(mean ±std over the 4-classifier suite). scale=%.4g\n\n",
      scale.scale);

  TablePrinter table({"Scenario", "Labels", "P", "R", "F*", "F1"});
  TransER transer;
  for (ScenarioId id : FocusScenarioIds()) {
    const TransferScenario scenario = BuildScenario(id, scale);
    bool first = true;
    for (double fraction : {0.25, 0.50, 0.75, 1.00}) {
      Rng rng(scale.seed + static_cast<uint64_t>(fraction * 100));
      TransferScenario reduced = scenario;
      if (fraction < 1.0) {
        reduced.source = scenario.source.Select(
            RandomSubset(scenario.source.size(), fraction, &rng));
      }
      TransferRunOptions run_options;
      run_options.seed = scale.seed;
      const MethodScenarioResult result = RunMethodOnScenario(
          transer, reduced, DefaultClassifierSuite(), run_options);
      table.AddRow({first ? scenario.name : std::string(),
                    StrFormat("%3.0f%%", fraction * 100.0),
                    result.quality.precision.ToString(),
                    result.quality.recall.ToString(),
                    result.quality.f_star.ToString(),
                    result.quality.f1.ToString()});
      first = false;
    }
    std::fprintf(stderr, "done: %s\n", scenario.name.c_str());
  }
  table.Print();
  std::printf(
      "\nExpected shape (paper Figure 6): quality improves with the\n"
      "labelled fraction; the small bibliographic pair suffers most at\n"
      "25%% while the larger pairs are already good with fewer labels.\n");
  bench_report.AddStage("run", run_watch.ElapsedSeconds());
  bench_report.Write();
  return 0;
}

}  // namespace
}  // namespace transer

int main(int argc, char** argv) { return transer::Main(argc, argv); }
