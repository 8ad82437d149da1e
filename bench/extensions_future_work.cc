// Evaluates the paper's future-work extensions (Section 6) on the focus
// scenarios:
//   (1) multi-source selection  — RankSourceDomains picks the better of
//       two candidate sources before transferring;
//   (2) semi-supervised transfer — TrAdaBoost with a small labelled
//       target sample, vs. plain TransER with none;
//   (3) active learning         — ActiveTransER with an oracle budget.
//
// Flags: --scale (default 0.015), --budget (default 100 oracle queries),
//        --labeled (default 150 labelled target instances), --seed.

#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "core/active_transer.h"
#include "core/source_selection.h"
#include "core/transer.h"
#include "data/scenario.h"
#include "eval/metrics.h"
#include "eval/table_printer.h"
#include "ml/random_forest.h"
#include "transfer/tradaboost.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace transer {
namespace {

ClassifierFactory MakeRfFactory() {
  return []() -> std::unique_ptr<Classifier> {
    return std::make_unique<RandomForest>();
  };
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv,
                    {"scale", "seed", "budget", "labeled", "threads"});
  const int threads = ConfigureThreads(flags);
  bench::BenchReport bench_report("extensions", threads);
  Stopwatch run_watch;
  ScenarioScale scale;
  scale.scale = flags.GetDouble("scale", 0.015);
  scale.seed = static_cast<uint64_t>(flags.GetInt("seed", 33));
  const size_t budget = static_cast<size_t>(flags.GetInt("budget", 100));
  const size_t labeled = static_cast<size_t>(flags.GetInt("labeled", 150));

  SetLogLevel(LogLevel::kError);
  std::printf(
      "Future-work extensions (Section 6) on the focus scenarios.\n"
      "scale=%.4g, oracle budget=%zu, labelled target sample=%zu\n\n",
      scale.scale, budget, labeled);

  TablePrinter table({"Scenario", "TransER F*", "Active F*", "TrAdaBoost F*",
                      "Best source (rank)"});
  for (ScenarioId id : FocusScenarioIds()) {
    const TransferScenario scenario = BuildScenario(id, scale);
    const FeatureMatrix hidden = scenario.target.WithoutLabels();

    // Plain TransER.
    TransER transer;
    auto plain = transer.Run(scenario.source, hidden, MakeRfFactory(), {});
    const double plain_f =
        plain.ok()
            ? EvaluateLinkage(scenario.target.labels(), plain.value()).f_star
            : 0.0;

    // Active learning with a labelling oracle.
    ActiveTransEROptions active_options;
    active_options.budget = budget;
    ActiveTransER active(active_options);
    auto active_result = active.Run(
        scenario.source, hidden, MakeRfFactory(),
        [&scenario](size_t index) { return scenario.target.label(index); },
        {});
    const double active_f =
        active_result.ok()
            ? EvaluateLinkage(scenario.target.labels(),
                              active_result.value().predicted)
                  .f_star
            : 0.0;

    // Semi-supervised TrAdaBoost with a small labelled target sample.
    Rng rng(scale.seed + 5);
    std::vector<size_t> all(scenario.target.size());
    for (size_t i = 0; i < all.size(); ++i) all[i] = i;
    rng.Shuffle(&all);
    const size_t n_labeled = std::min(labeled, all.size() / 4);
    const FeatureMatrix target_labeled = scenario.target.Select(
        {all.begin(), all.begin() + static_cast<ptrdiff_t>(n_labeled)});
    TrAdaBoost boost;
    auto boosted = boost.Run(scenario.source, target_labeled, hidden,
                             MakeRfFactory());
    const double boost_f =
        boosted.ok()
            ? EvaluateLinkage(scenario.target.labels(), boosted.value())
                  .f_star
            : 0.0;

    // Multi-source selection: the true source vs. a decoy with shifted
    // modes; the ranker should place the true source first.
    FeatureSpaceGenerator decoy_gen(FeatureSpaceSharedSpec{
        scenario.source.num_features(), 40, scale.seed + 9});
    FeatureDomainSpec decoy_spec;
    decoy_spec.num_instances = scenario.source.size();
    decoy_spec.match_mean = 0.55;
    decoy_spec.match_stddev = 0.2;
    decoy_spec.seed = scale.seed + 11;
    const FeatureMatrix decoy = decoy_gen.Generate(decoy_spec);
    auto ranking = RankSourceDomains({&decoy, &scenario.source},
                                     scenario.target);
    const std::string rank_note =
        ranking.ok()
            ? (ranking.value()[0].source_index == 1 ? "true source first"
                                                    : "decoy first (!)")
            : ranking.status().ToString();

    table.AddRow({scenario.name, StrFormat("%.2f", plain_f * 100.0),
                  StrFormat("%.2f", active_f * 100.0),
                  StrFormat("%.2f", boost_f * 100.0), rank_note});
    std::fprintf(stderr, "done: %s\n", scenario.name.c_str());
  }
  table.Print();
  std::printf(
      "\nExpected: the oracle budget never hurts; TrAdaBoost benefits from\n"
      "target labels where conditionals conflict; the ranker prefers the\n"
      "genuine source over the decoy.\n");
  bench_report.AddStage("run", run_watch.ElapsedSeconds());
  bench_report.Write();
  return 0;
}

}  // namespace
}  // namespace transer

int main(int argc, char** argv) { return transer::Main(argc, argv); }
