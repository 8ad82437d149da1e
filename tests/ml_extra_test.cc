// Tests of the threshold-rule classifier family and the TrAdaBoost
// semi-supervised transfer method.

#include <memory>

#include <gtest/gtest.h>

#include "data/feature_space_generator.h"
#include "eval/metrics.h"
#include "ml/decision_tree.h"
#include "ml/threshold_classifier.h"
#include "transfer/tradaboost.h"
#include "util/random.h"

namespace transer {
namespace {

/// Share of rows where `predicted` agrees with `truth` (labels in {0, 1}).
double Accuracy(const std::vector<int>& truth,
                const std::vector<int>& predicted) {
  const ConfusionCounts counts = CountConfusion(truth, predicted);
  return static_cast<double>(counts.true_positives + counts.true_negatives) /
         static_cast<double>(truth.size());
}

// ---------- ThresholdClassifier ----------

TEST(ThresholdClassifierTest, TunesToTheGap) {
  // Non-matches around 0.2, matches around 0.8: the tuned threshold must
  // land in between.
  FeatureSpaceGenerator generator(FeatureSpaceSharedSpec{4, 0, 305});
  FeatureDomainSpec spec;
  spec.num_instances = 1000;
  spec.ambiguous_fraction = 0.0;
  spec.seed = 306;
  const FeatureMatrix data = generator.Generate(spec);
  ThresholdClassifier threshold;
  threshold.Fit(data.ToMatrix(), data.labels());
  EXPECT_GT(threshold.threshold(), 0.4);
  EXPECT_LT(threshold.threshold(), 0.75);
  EXPECT_GT(Accuracy(data.labels(), threshold.PredictAll(data.ToMatrix())),
            0.95);
}

TEST(ThresholdClassifierTest, FixedThresholdWithoutTuning) {
  ThresholdClassifierOptions options;
  options.tune = false;
  options.threshold = 0.7;
  ThresholdClassifier threshold(options);
  threshold.Fit(Matrix{{0.1}, {0.9}}, {0, 1});
  EXPECT_DOUBLE_EQ(threshold.threshold(), 0.7);
  EXPECT_LT(threshold.PredictProba(std::vector<double>{0.5}), 0.5);
  EXPECT_GT(threshold.PredictProba(std::vector<double>{0.9}), 0.5);
}

TEST(ThresholdClassifierTest, ProbabilityMonotoneInAverage) {
  ThresholdClassifier threshold;
  threshold.Fit(Matrix{{0.1, 0.1}, {0.9, 0.9}}, {0, 1});
  double prev = -1.0;
  for (double v = 0.0; v <= 1.0; v += 0.1) {
    const double p = threshold.PredictProba(std::vector<double>{v, v});
    EXPECT_GT(p, prev);
    prev = p;
  }
}

// ---------- TrAdaBoost ----------

ClassifierFactory MakeStumpFactory() {
  return []() -> std::unique_ptr<Classifier> {
    DecisionTreeOptions options;
    options.max_depth = 2;
    options.min_samples_split = 2;
    return std::make_unique<DecisionTree>(options);
  };
}

TEST(TrAdaBoostTest, UsesTargetLabelsToOverrideConflictingSource) {
  // Source labels the mid region as match; the target concept says
  // non-match. A few labelled target instances must win out.
  FeatureSpaceGenerator generator(FeatureSpaceSharedSpec{4, 40, 307});
  FeatureDomainSpec source_spec;
  source_spec.num_instances = 1200;
  source_spec.ambiguous_fraction = 0.25;
  source_spec.ambiguous_match_prob = 0.9;
  source_spec.seed = 308;
  FeatureDomainSpec target_spec = source_spec;
  target_spec.ambiguous_match_prob = 0.1;
  target_spec.seed = 309;
  const FeatureMatrix source = generator.Generate(source_spec);
  const FeatureMatrix target = generator.Generate(target_spec);

  Rng rng(310);
  std::vector<size_t> all(target.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  rng.Shuffle(&all);
  const std::vector<size_t> labeled_rows(all.begin(), all.begin() + 200);
  const std::vector<size_t> test_rows(all.begin() + 200, all.end());
  const FeatureMatrix target_labeled = target.Select(labeled_rows);
  const FeatureMatrix target_test = target.Select(test_rows);

  TrAdaBoost boost;
  auto predicted = boost.Run(source, target_labeled,
                             target_test.WithoutLabels(),
                             MakeStumpFactory());
  ASSERT_TRUE(predicted.ok()) << predicted.status().ToString();
  const double boost_f =
      EvaluateLinkage(target_test.labels(), predicted.value()).f_star;

  // Baseline: the same weak learner trained on the raw source only.
  auto naive = MakeStumpFactory()();
  naive->Fit(source.ToMatrix(), source.labels());
  const double naive_f =
      EvaluateLinkage(target_test.labels(),
                      naive->PredictAll(target_test.ToMatrix()))
          .f_star;
  EXPECT_GT(boost_f, naive_f);
}

TEST(TrAdaBoostTest, RejectsInvalidInputs) {
  FeatureMatrix a({"x"});
  a.Append({0.1}, kNonMatch);
  FeatureMatrix b({"x", "y"});
  FeatureMatrix empty({"x"});
  TrAdaBoost boost;
  EXPECT_FALSE(boost.Run(a, b, a, MakeStumpFactory()).ok());
  EXPECT_FALSE(boost.Run(a, empty, a, MakeStumpFactory()).ok());
}

TEST(TrAdaBoostTest, PredictsEveryUnlabeledInstance) {
  FeatureSpaceGenerator generator(FeatureSpaceSharedSpec{4, 20, 311});
  FeatureDomainSpec spec;
  spec.num_instances = 400;
  spec.seed = 312;
  const FeatureMatrix source = generator.Generate(spec);
  spec.seed = 313;
  const FeatureMatrix target = generator.Generate(spec);
  TrAdaBoost boost;
  auto predicted = boost.Run(source, target.Select({0, 1, 2, 3, 4, 5}),
                             target.WithoutLabels(), MakeStumpFactory());
  ASSERT_TRUE(predicted.ok());
  EXPECT_EQ(predicted.value().size(), target.size());
}

}  // namespace
}  // namespace transer
