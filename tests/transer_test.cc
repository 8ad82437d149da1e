#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/transer.h"
#include "data/feature_space_generator.h"
#include "data/scenario.h"
#include "eval/metrics.h"
#include "features/ambiguity.h"
#include "ml/logistic_regression.h"
#include "ml/random_forest.h"
#include "transfer/naive_transfer.h"

namespace transer {
namespace {

ClassifierFactory MakeRfFactory() {
  return []() -> std::unique_ptr<Classifier> {
    RandomForestOptions options;
    options.num_trees = 16;
    return std::make_unique<RandomForest>(options);
  };
}

ClassifierFactory MakeLrFactory() {
  return []() -> std::unique_ptr<Classifier> {
    return std::make_unique<LogisticRegression>();
  };
}

/// A transfer pair with both marginal shift and conditional shift in the
/// shared ambiguous region — the setting TransER is built for.
struct HardPair {
  FeatureMatrix source;
  FeatureMatrix target;
};

HardPair MakeHardPair(uint64_t seed = 131, size_t n = 1500) {
  FeatureSpaceGenerator generator({5, 60, seed});
  FeatureDomainSpec source;
  source.num_instances = n;
  source.match_fraction = 0.30;
  source.ambiguous_fraction = 0.15;
  source.ambiguous_match_prob = 0.75;  // ambiguous region mostly matches
  source.mode_shift = 0.03;
  source.seed = seed + 1;
  FeatureDomainSpec target = source;
  target.ambiguous_match_prob = 0.25;  // ... but mostly non-match in target
  target.mode_shift = -0.05;
  target.seed = seed + 2;
  return {generator.Generate(source), generator.Generate(target)};
}

double RunFStar(const TransferMethod& method, const HardPair& pair,
                const ClassifierFactory& factory) {
  auto predicted =
      method.Run(pair.source, pair.target.WithoutLabels(), factory, {});
  EXPECT_TRUE(predicted.ok()) << predicted.status().ToString();
  if (!predicted.ok()) return 0.0;
  return EvaluateLinkage(pair.target.labels(), predicted.value()).f_star;
}

// ---------- Equation 2 / Figure 5 ----------

TEST(TransEREquationTest, StructuralSimilarityDecay) {
  // Zero distance -> similarity 1; max distance sqrt(m) -> e^{-5}.
  EXPECT_DOUBLE_EQ(TransER::StructuralSimilarityFromDistance(0.0, 4), 1.0);
  EXPECT_NEAR(TransER::StructuralSimilarityFromDistance(2.0, 4),
              std::exp(-5.0), 1e-12);
  // Monotone decreasing in distance.
  double prev = 2.0;
  for (double dist = 0.0; dist <= 2.0; dist += 0.1) {
    const double sim = TransER::StructuralSimilarityFromDistance(dist, 4);
    EXPECT_LT(sim, prev);
    EXPECT_GE(sim, 0.0);
    EXPECT_LE(sim, 1.0);
    prev = sim;
  }
}

// ---------- SEL phase ----------

TEST(TransERSelTest, DropsConflictingPrototypeInstances) {
  const HardPair pair = MakeHardPair(132);
  TransER transer;
  auto selected = transer.SelectInstances(pair.source,
                                          pair.target.WithoutLabels(), {});
  ASSERT_TRUE(selected.ok());
  // Something must be selected but the ambiguous region (15%) and the
  // shifted tail should be dropped.
  EXPECT_GT(selected.value().size(), pair.source.size() / 10);
  EXPECT_LT(selected.value().size(), pair.source.size());

  // Selected instances should be concentrated in clean regions: the
  // fraction of prototype instances among selected is far below 15%.
  AmbiguityAnalyzer analyzer;
  const AmbiguityStats all_stats = analyzer.Analyze(pair.source);
  const AmbiguityStats sel_stats =
      analyzer.Analyze(pair.source.Select(selected.value()));
  EXPECT_LT(sel_stats.ambiguous_fraction, all_stats.ambiguous_fraction);
}

TEST(TransERSelTest, ThresholdOneKeepsOnlyPureNeighbourhoods) {
  const HardPair pair = MakeHardPair(133, 800);
  TransEROptions strict;
  strict.t_c = 1.0;
  strict.t_l = 0.0;  // isolate the confidence filter
  TransER transer_strict(strict);
  TransEROptions loose;
  loose.t_c = 0.0;
  loose.t_l = 0.0;
  TransER transer_loose(loose);
  auto strict_sel = transer_strict.SelectInstances(
      pair.source, pair.target.WithoutLabels(), {});
  auto loose_sel = transer_loose.SelectInstances(
      pair.source, pair.target.WithoutLabels(), {});
  ASSERT_TRUE(strict_sel.ok());
  ASSERT_TRUE(loose_sel.ok());
  EXPECT_LT(strict_sel.value().size(), loose_sel.value().size());
  EXPECT_EQ(loose_sel.value().size(), pair.source.size());
}

TEST(TransERSelTest, TimeLimitProducesTe) {
  const HardPair pair = MakeHardPair(134, 3000);
  TransER transer;
  ExecutionContext context({/*time=*/1e-9, /*memory=*/0});
  TransferRunOptions run;
  run.context = &context;
  auto result = transer.SelectInstances(pair.source,
                                        pair.target.WithoutLabels(), run);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("(TE)"), std::string::npos);
}

// ---------- full run & report ----------

TEST(TransERRunTest, ReportTracksPhases) {
  const HardPair pair = MakeHardPair(135);
  TransER transer;
  TransERReport report;
  auto predicted =
      transer.RunWithReport(pair.source, pair.target.WithoutLabels(),
                            MakeRfFactory(), {}, &report);
  ASSERT_TRUE(predicted.ok());
  EXPECT_EQ(predicted.value().size(), pair.target.size());
  EXPECT_EQ(report.source_instances, pair.source.size());
  EXPECT_GT(report.selected_instances, 0u);
  EXPECT_GT(report.candidate_instances, 0u);
  EXPECT_GE(report.candidate_instances, report.balanced_instances);
  EXPECT_TRUE(report.tcl_trained);
}

TEST(TransERRunTest, RejectsMismatchedFeatureSpaces) {
  const HardPair pair = MakeHardPair(136, 300);
  FeatureMatrix narrow({"x"});
  narrow.Append({0.5}, kUnlabeled);
  TransER transer;
  EXPECT_FALSE(
      transer.Run(pair.source, narrow, MakeRfFactory(), {}).ok());
}

TEST(TransERRunTest, EmptySourceIsInvalid) {
  const HardPair pair = MakeHardPair(137, 300);
  FeatureMatrix empty(pair.source.feature_names());
  TransER transer;
  EXPECT_FALSE(transer
                   .Run(empty, pair.target.WithoutLabels(), MakeRfFactory(),
                        {})
                   .ok());
}

TEST(TransERRunTest, BalancedSetRespectsRatioB) {
  const HardPair pair = MakeHardPair(138);
  TransEROptions options;
  options.b = 2.0;
  TransER transer(options);
  TransERReport report;
  auto predicted =
      transer.RunWithReport(pair.source, pair.target.WithoutLabels(),
                            MakeRfFactory(), {}, &report);
  ASSERT_TRUE(predicted.ok());
  ASSERT_TRUE(report.tcl_trained);
  // balanced = matches + min(nonmatches, 2 * matches) — never more than
  // 3x the pseudo matches that survive confidence filtering.
  EXPECT_LE(report.balanced_instances, 3 * report.pseudo_matches + 3);
}

// ---------- the headline: TransER beats Naive under shift ----------

TEST(TransERQualityTest, BeatsNaiveUnderConditionalAndMarginalShift) {
  const HardPair pair = MakeHardPair(139, 2000);
  TransER transer;
  NaiveTransfer naive;
  const double transer_f = RunFStar(transer, pair, MakeRfFactory());
  const double naive_f = RunFStar(naive, pair, MakeRfFactory());
  EXPECT_GT(transer_f, naive_f);
  EXPECT_GT(transer_f, 0.6);
}

TEST(TransERQualityTest, MatchesNaiveOnIdenticalDomains) {
  // No shift at all: TransER must not hurt.
  FeatureSpaceGenerator generator({4, 30, 140});
  FeatureDomainSpec spec;
  spec.num_instances = 1200;
  spec.match_fraction = 0.3;
  spec.ambiguous_fraction = 0.01;
  spec.seed = 141;
  FeatureDomainSpec spec_t = spec;
  spec_t.seed = 142;
  HardPair pair{generator.Generate(spec), generator.Generate(spec_t)};
  TransER transer;
  NaiveTransfer naive;
  const double transer_f = RunFStar(transer, pair, MakeLrFactory());
  const double naive_f = RunFStar(naive, pair, MakeLrFactory());
  EXPECT_GT(transer_f, naive_f - 0.05);
}

// ---------- ablations (Table 4 behaviour) ----------

TEST(TransERAblationTest, WithoutSelHurtsUnderConditionalShift) {
  const HardPair pair = MakeHardPair(143, 2000);
  TransER full;
  TransEROptions no_sel_options;
  no_sel_options.use_sel = false;
  TransER no_sel(no_sel_options);
  const double full_f = RunFStar(full, pair, MakeRfFactory());
  const double no_sel_f = RunFStar(no_sel, pair, MakeRfFactory());
  EXPECT_GE(full_f, no_sel_f - 0.02);
}

TEST(TransERAblationTest, AblationsProduceValidPredictions) {
  const HardPair pair = MakeHardPair(144, 800);
  for (const bool use_sel : {true, false}) {
    for (const bool use_gen_tcl : {true, false}) {
      TransEROptions options;
      options.use_sel = use_sel;
      options.use_gen_tcl = use_gen_tcl;
      TransER method(options);
      auto predicted = method.Run(pair.source, pair.target.WithoutLabels(),
                                  MakeRfFactory(), {});
      ASSERT_TRUE(predicted.ok());
      EXPECT_EQ(predicted.value().size(), pair.target.size());
    }
  }
}

TEST(TransERAblationTest, SimVFilterSelectsSubset) {
  const HardPair pair = MakeHardPair(145, 800);
  TransEROptions with_v;
  with_v.use_sim_v = true;
  TransEROptions without_v;
  TransER method_v(with_v);
  TransER method_plain(without_v);
  auto sel_v = method_v.SelectInstances(pair.source,
                                        pair.target.WithoutLabels(), {});
  auto sel_plain = method_plain.SelectInstances(
      pair.source, pair.target.WithoutLabels(), {});
  ASSERT_TRUE(sel_v.ok());
  ASSERT_TRUE(sel_plain.ok());
  EXPECT_LE(sel_v.value().size(), sel_plain.value().size());
}

// ---------- experiment runner ----------

TEST(ExperimentTest, RunsSuiteAndAggregates) {
  ScenarioScale scale;
  scale.scale = 0.02;
  scale.min_instances = 300;
  scale.max_instances = 500;
  const TransferScenario scenario =
      BuildScenario(ScenarioId::kDblpAcmToDblpScholar, scale);
  TransER transer;
  const auto suite = DefaultClassifierSuite();
  const MethodScenarioResult result =
      RunMethodOnScenario(transer, scenario, suite, {});
  EXPECT_TRUE(result.failure.empty()) << result.failure;
  EXPECT_EQ(result.completed_runs, suite.size());
  EXPECT_EQ(result.per_classifier.size(), suite.size());
  EXPECT_GT(result.quality.f_star.mean, 0.3);
  EXPECT_GT(result.total_runtime_seconds, 0.0);
}

TEST(ExperimentTest, FailureShorthandClassification) {
  EXPECT_EQ(FailureShorthand(
                Status::FailedPrecondition("x: runtime limit exceeded (TE)")),
            "TE");
  EXPECT_EQ(FailureShorthand(
                Status::FailedPrecondition("x: memory limit exceeded (ME)")),
            "ME");
  EXPECT_NE(FailureShorthand(Status::Internal("boom")), "TE");
}

TEST(ExperimentTest, DefaultLineupMatchesPaperOrder) {
  const auto methods = DefaultMethodLineup();
  ASSERT_EQ(methods.size(), 7u);
  EXPECT_EQ(methods[0]->name(), "transer");
  EXPECT_EQ(methods[1]->name(), "naive");
  EXPECT_EQ(methods[2]->name(), "dtal");
  EXPECT_EQ(methods[3]->name(), "dr");
  EXPECT_EQ(methods[4]->name(), "locit");
  EXPECT_EQ(methods[5]->name(), "tca");
  EXPECT_EQ(methods[6]->name(), "coral");
}

}  // namespace
}  // namespace transer
