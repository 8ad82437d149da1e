// Reproduces Figure 7: TransER's sensitivity to its four parameters —
// t_c, t_l, t_p (each in [0.5, 1.0]) and the neighbourhood size k in
// [3, 11] — varied one at a time around the defaults, on the three focus
// scenario pairs.
//
// Flags: --scale (default 0.01), --seed.

#include <cstdio>
#include <functional>

#include "bench/bench_util.h"
#include "core/experiment.h"
#include "core/transer.h"
#include "data/scenario.h"
#include "eval/table_printer.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace transer {
namespace {

struct Sweep {
  const char* parameter;
  std::vector<double> values;
  std::function<void(TransEROptions*, double)> apply;
};

std::vector<Sweep> Sweeps() {
  return {
      {"t_c",
       {0.5, 0.6, 0.7, 0.8, 0.9, 1.0},
       [](TransEROptions* o, double v) { o->t_c = v; }},
      {"t_l",
       {0.5, 0.6, 0.7, 0.8, 0.9, 1.0},
       [](TransEROptions* o, double v) { o->t_l = v; }},
      {"t_p",
       {0.5, 0.7, 0.9, 0.95, 0.99, 1.0},
       [](TransEROptions* o, double v) { o->t_p = v; }},
      {"k",
       {3, 5, 7, 9, 11},
       [](TransEROptions* o, double v) { o->k = static_cast<size_t>(v); }},
  };
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv, {"scale", "seed", "threads"});
  const int threads = ConfigureThreads(flags);
  bench::BenchReport bench_report("figure7", threads);
  Stopwatch run_watch;
  ScenarioScale scale;
  scale.scale = flags.GetDouble("scale", 0.01);
  scale.seed = static_cast<uint64_t>(flags.GetInt("seed", 33));

  SetLogLevel(LogLevel::kError);
  std::printf(
      "Figure 7: parameter sensitivity of TransER (F* mean ±std over the\n"
      "4-classifier suite), one parameter varied at a time around the\n"
      "defaults t_c=0.9, t_l=0.9, t_p=0.99, k=7. scale=%.4g\n\n",
      scale.scale);

  for (const Sweep& sweep : Sweeps()) {
    std::printf("--- varying %s ---\n", sweep.parameter);
    std::vector<std::string> header = {"Scenario"};
    for (double v : sweep.values) header.push_back(StrFormat("%g", v));
    TablePrinter table(header);
    for (ScenarioId id : FocusScenarioIds()) {
      const TransferScenario scenario = BuildScenario(id, scale);
      std::vector<std::string> row = {scenario.name};
      for (double v : sweep.values) {
        TransEROptions options;
        sweep.apply(&options, v);
        TransER method(options);
        TransferRunOptions run_options;
        run_options.seed = scale.seed;
        const MethodScenarioResult result = RunMethodOnScenario(
            method, scenario, DefaultClassifierSuite(), run_options);
        row.push_back(result.quality.f_star.ToString());
      }
      table.AddRow(std::move(row));
      std::fprintf(stderr, "done: %s %s\n", sweep.parameter,
                   scenario.name.c_str());
    }
    table.Print();
    std::printf("\n");
  }
  std::printf(
      "Expected shape (paper Figure 7): results are robust across most of\n"
      "each range, with drops at the strict extremes (t_l=1.0, t_p=1.0)\n"
      "where too few instances survive the filters.\n");
  bench_report.AddStage("run", run_watch.ElapsedSeconds());
  bench_report.Write();
  return 0;
}

}  // namespace
}  // namespace transer

int main(int argc, char** argv) { return transer::Main(argc, argv); }
