// Tests of the future-work extensions (paper Section 6): the k-NN
// classifier family, multi-source selection, and active-learning TransER.

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>

#include <gtest/gtest.h>

#include "core/active_transer.h"
#include "core/source_selection.h"
#include "core/transer.h"
#include "data/feature_space_generator.h"
#include "eval/metrics.h"
#include "knn/brute_force.h"
#include "ml/knn_classifier.h"
#include "ml/random_forest.h"
#include "util/execution_context.h"
#include "util/random.h"

namespace transer {
namespace {

ClassifierFactory MakeRfFactory() {
  return []() -> std::unique_ptr<Classifier> {
    RandomForestOptions options;
    options.num_trees = 16;
    return std::make_unique<RandomForest>(options);
  };
}

FeatureMatrix MakeDomain(double match_mean, uint64_t seed, size_t n = 1200,
                         const FeatureSpaceGenerator* shared_gen = nullptr) {
  static const FeatureSpaceGenerator default_gen(
      FeatureSpaceSharedSpec{4, 40, 555});
  const FeatureSpaceGenerator& gen =
      shared_gen != nullptr ? *shared_gen : default_gen;
  FeatureDomainSpec spec;
  spec.num_instances = n;
  spec.match_fraction = 0.3;
  spec.ambiguous_fraction = 0.05;
  spec.match_mean = match_mean;
  spec.seed = seed;
  return gen.Generate(spec);
}

/// A classifier with one constant probability: every confidence ties.
class ConstantProbaClassifier : public Classifier {
 public:
  explicit ConstantProbaClassifier(double proba) : proba_(proba) {}
  void Fit(const Matrix&, const std::vector<int>&,
           const std::vector<double>&) override {}
  double PredictProba(std::span<const double>) const override {
    return proba_;
  }
  std::string name() const override { return "constant_proba"; }

 private:
  double proba_;
};

/// Share of rows where `predicted` agrees with `truth` (labels in {0, 1}).
double Accuracy(const std::vector<int>& truth,
                const std::vector<int>& predicted) {
  const ConfusionCounts counts = CountConfusion(truth, predicted);
  return static_cast<double>(counts.true_positives + counts.true_negatives) /
         static_cast<double>(truth.size());
}

// ---------- KnnClassifier ----------

TEST(KnnClassifierTest, LearnsSeparableData) {
  const FeatureMatrix train = MakeDomain(0.8, 1);
  const FeatureMatrix test = MakeDomain(0.8, 2);
  KnnClassifier knn;
  knn.Fit(train.ToMatrix(), train.labels());
  EXPECT_GT(Accuracy(test.labels(), knn.PredictAll(test.ToMatrix())), 0.85);
}

TEST(KnnClassifierTest, ExactTrainingPointIsConfident) {
  Matrix x = {{0.0, 0.0}, {0.0, 0.1}, {1.0, 1.0}, {1.0, 0.9}};
  std::vector<int> y = {0, 0, 1, 1};
  KnnClassifierOptions options;
  options.k = 2;
  KnnClassifier knn(options);
  knn.Fit(x, y);
  EXPECT_GT(knn.PredictProba(std::vector<double>{1.0, 1.0}), 0.9);
  EXPECT_LT(knn.PredictProba(std::vector<double>{0.0, 0.0}), 0.1);
}

TEST(KnnClassifierTest, SampleWeightsTipTheVote) {
  // Equidistant conflicting neighbours: the heavier one wins.
  Matrix x = {{0.4}, {0.6}};
  std::vector<int> y = {0, 1};
  KnnClassifierOptions options;
  options.k = 2;
  options.distance_weighted = false;
  KnnClassifier knn(options);
  knn.Fit(x, y, {1.0, 5.0});
  EXPECT_GT(knn.PredictProba(std::vector<double>{0.5}), 0.5);
}

TEST(KnnClassifierTest, UnfittedReturnsUninformative) {
  KnnClassifier knn;
  Matrix empty(0, 2);
  knn.Fit(empty, {});
  EXPECT_DOUBLE_EQ(knn.PredictProba(std::vector<double>{0.1, 0.2}), 0.5);
}

// ---------- source selection ----------

TEST(SourceSelectionTest, PrefersTheAlignedSource) {
  FeatureSpaceGenerator gen(FeatureSpaceSharedSpec{4, 40, 556});
  const FeatureMatrix target = MakeDomain(0.80, 10, 1200, &gen);
  const FeatureMatrix aligned = MakeDomain(0.80, 11, 1200, &gen);
  const FeatureMatrix shifted = MakeDomain(0.55, 12, 1200, &gen);

  auto ranking = RankSourceDomains({&shifted, &aligned}, target);
  ASSERT_TRUE(ranking.ok());
  ASSERT_EQ(ranking.value().size(), 2u);
  EXPECT_EQ(ranking.value()[0].source_index, 1u);  // aligned wins
  EXPECT_GT(ranking.value()[0].Score(), ranking.value()[1].Score());
}

TEST(SourceSelectionTest, ScoresAreWithinUnitRange) {
  FeatureSpaceGenerator gen(FeatureSpaceSharedSpec{4, 40, 557});
  const FeatureMatrix target = MakeDomain(0.8, 13, 800, &gen);
  const FeatureMatrix source = MakeDomain(0.8, 14, 800, &gen);
  auto score = ScoreSourceDomain(source, target, {});
  ASSERT_TRUE(score.ok());
  EXPECT_GE(score.value().transferable_fraction, 0.0);
  EXPECT_LE(score.value().transferable_fraction, 1.0);
  EXPECT_GE(score.value().mean_structural_similarity, 0.0);
  EXPECT_LE(score.value().mean_structural_similarity, 1.0);
}

TEST(SourceSelectionTest, RejectsMismatchedFeatureSpaces) {
  const FeatureMatrix target = MakeDomain(0.8, 15, 400);
  FeatureSpaceGenerator narrow_gen(FeatureSpaceSharedSpec{3, 20, 558});
  FeatureDomainSpec spec;
  spec.num_instances = 200;
  spec.seed = 16;
  const FeatureMatrix narrow = narrow_gen.Generate(spec);
  EXPECT_FALSE(ScoreSourceDomain(narrow, target, {}).ok());
  EXPECT_FALSE(RankSourceDomains({}, target).ok());
}

/// ScoreSourceDomain written out by hand: brute-force neighbourhoods,
/// Eq. 1 as a label count and Eq. 2 as exp(-5 d / sqrt(m)) between the
/// neighbourhood centroids. The squared distance sums element j into
/// lane j mod 4 and combines (l0 + l1) + (l2 + l3), the order of every
/// kernel reduction.
SourceScore ReferenceSourceScore(const FeatureMatrix& source,
                                 const FeatureMatrix& target,
                                 const SourceSelectionOptions& options) {
  const Matrix x_source = source.ToMatrix();
  const Matrix x_target = target.ToMatrix();
  const size_t m = source.num_features();
  const BruteForceKnn source_knn(x_source);
  const BruteForceKnn target_knn(x_target);
  Rng rng(options.seed);
  const std::vector<size_t> sample = rng.SampleWithoutReplacement(
      source.size(), std::min(options.sample_size, source.size()));
  const size_t k_source = std::min(options.transer.k, source.size() - 1);
  const size_t k_target = std::min(options.transer.k, target.size());
  auto centroid = [m](const Matrix& x, const std::vector<Neighbour>& nbs) {
    std::vector<double> c(m, 0.0);
    for (const Neighbour& nb : nbs) {
      for (size_t j = 0; j < m; ++j) c[j] += x.Row(nb.index)[j];
    }
    for (double& v : c) v *= 1.0 / static_cast<double>(nbs.size());
    return c;
  };

  size_t transferable = 0;
  double structural_total = 0.0;
  for (size_t s : sample) {
    const std::span<const double> row(x_source.Row(s), m);
    const std::vector<Neighbour> n_s =
        source_knn.Query(row, k_source, static_cast<ptrdiff_t>(s));
    const std::vector<Neighbour> n_t = target_knn.Query(row, k_target);

    size_t same_label = 0;
    for (const Neighbour& nb : n_s) {
      if (source.label(nb.index) == source.label(s)) ++same_label;
    }
    const double sim_c =
        static_cast<double>(same_label) / static_cast<double>(n_s.size());

    const std::vector<double> c_s = centroid(x_source, n_s);
    const std::vector<double> c_t = centroid(x_target, n_t);
    double lane[4] = {0.0, 0.0, 0.0, 0.0};
    for (size_t j = 0; j < m; ++j) {
      const double d = c_s[j] - c_t[j];
      lane[j % 4] += d * d;
    }
    const double distance =
        std::sqrt((lane[0] + lane[1]) + (lane[2] + lane[3]));
    const double sim_l =
        std::exp(-5.0 * (distance / std::sqrt(static_cast<double>(m))));

    structural_total += sim_l;
    if (sim_c >= options.transer.t_c && sim_l >= options.transer.t_l) {
      ++transferable;
    }
  }
  SourceScore score;
  score.transferable_fraction =
      static_cast<double>(transferable) / static_cast<double>(sample.size());
  score.mean_structural_similarity =
      structural_total / static_cast<double>(sample.size());
  return score;
}

TEST(SourceSelectionTest, MatchesHandWrittenEquations) {
  FeatureSpaceGenerator gen(FeatureSpaceSharedSpec{5, 40, 563});
  const FeatureMatrix target = MakeDomain(0.78, 25, 700, &gen);
  const FeatureMatrix source = MakeDomain(0.8, 26, 900, &gen);
  // A sample smaller than the source, and one larger than it (the whole
  // source in sampled order).
  for (const size_t sample_size : {size_t{250}, size_t{5000}}) {
    SourceSelectionOptions options;
    options.sample_size = sample_size;
    options.transer.t_l = 0.97;  // make the Eq. 2 filter bind
    auto score = ScoreSourceDomain(source, target, options);
    ASSERT_TRUE(score.ok()) << score.status().ToString();
    const SourceScore reference =
        ReferenceSourceScore(source, target, options);
    EXPECT_EQ(score.value().transferable_fraction,
              reference.transferable_fraction)
        << "sample " << sample_size;
    EXPECT_EQ(score.value().mean_structural_similarity,
              reference.mean_structural_similarity)
        << "sample " << sample_size;
    EXPECT_GT(reference.transferable_fraction, 0.0);
    EXPECT_LT(reference.transferable_fraction, 1.0);
  }
}

// ---------- active TransER ----------

TEST(ActiveTransERTest, OracleQueriesRespectBudget) {
  FeatureSpaceGenerator gen(FeatureSpaceSharedSpec{4, 40, 559});
  const FeatureMatrix source = MakeDomain(0.80, 17, 1200, &gen);
  const FeatureMatrix target = MakeDomain(0.72, 18, 1200, &gen);

  ActiveTransEROptions options;
  options.budget = 25;
  ActiveTransER active(options);
  size_t oracle_calls = 0;
  auto result = active.Run(
      source, target.WithoutLabels(), MakeRfFactory(),
      [&](size_t index) {
        ++oracle_calls;
        return target.label(index);
      },
      {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(oracle_calls, 25u);
  EXPECT_EQ(result.value().queried_indices.size(), 25u);
  EXPECT_EQ(result.value().predicted.size(), target.size());
}

TEST(ActiveTransERTest, OracleAnswersAreNeverOverruled) {
  FeatureSpaceGenerator gen(FeatureSpaceSharedSpec{4, 40, 560});
  const FeatureMatrix source = MakeDomain(0.80, 19, 1000, &gen);
  const FeatureMatrix target = MakeDomain(0.72, 20, 1000, &gen);
  ActiveTransEROptions options;
  options.budget = 10;
  ActiveTransER active(options);
  auto result = active.Run(
      source, target.WithoutLabels(), MakeRfFactory(),
      [&](size_t index) { return target.label(index); }, {});
  ASSERT_TRUE(result.ok());
  for (size_t index : result.value().queried_indices) {
    EXPECT_EQ(result.value().predicted[index], target.label(index));
  }
}

TEST(ActiveTransERTest, OracleLabelsDoNotHurtQuality) {
  FeatureSpaceGenerator gen(FeatureSpaceSharedSpec{4, 40, 561});
  const FeatureMatrix source = MakeDomain(0.80, 21, 1500, &gen);
  FeatureDomainSpec hard;
  hard.num_instances = 1500;
  hard.match_fraction = 0.3;
  hard.ambiguous_fraction = 0.15;
  hard.match_mean = 0.70;
  hard.match_stddev = 0.13;
  hard.seed = 22;
  const FeatureMatrix target = gen.Generate(hard);

  TransER plain;
  auto base = plain.Run(source, target.WithoutLabels(), MakeRfFactory(), {});
  ASSERT_TRUE(base.ok());
  const double base_f =
      EvaluateLinkage(target.labels(), base.value()).f_star;

  ActiveTransEROptions options;
  options.budget = 150;
  ActiveTransER active(options);
  auto result = active.Run(
      source, target.WithoutLabels(), MakeRfFactory(),
      [&](size_t index) { return target.label(index); }, {});
  ASSERT_TRUE(result.ok());
  const double active_f =
      EvaluateLinkage(target.labels(), result.value().predicted).f_star;
  EXPECT_GE(active_f, base_f - 0.03);
}

TEST(ActiveTransERTest, ZeroBudgetMatchesPlainPhases) {
  FeatureSpaceGenerator gen(FeatureSpaceSharedSpec{4, 40, 562});
  const FeatureMatrix source = MakeDomain(0.8, 23, 800, &gen);
  const FeatureMatrix target = MakeDomain(0.75, 24, 800, &gen);
  ActiveTransEROptions options;
  options.budget = 0;
  ActiveTransER active(options);
  bool called = false;
  auto result = active.Run(
      source, target.WithoutLabels(), MakeRfFactory(),
      [&](size_t) {
        called = true;
        return kMatch;
      },
      {});
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(called);
  EXPECT_TRUE(result.value().queried_indices.empty());

  // With no queries the active run is plain TransER, byte for byte.
  auto plain = TransER().Run(source, target.WithoutLabels(),
                             MakeRfFactory(), {});
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(result.value().predicted, plain.value());
}

TEST(ActiveTransERTest, TiedConfidencesQueryLowestIndicesFirst) {
  FeatureSpaceGenerator gen(FeatureSpaceSharedSpec{4, 40, 564});
  const FeatureMatrix source = MakeDomain(0.8, 27, 400, &gen);
  const FeatureMatrix target = MakeDomain(0.75, 28, 400, &gen);
  ActiveTransEROptions options;
  options.budget = 12;
  ActiveTransER active(options);
  std::vector<size_t> asked;
  auto result = active.Run(
      source, target.WithoutLabels(),
      []() -> std::unique_ptr<Classifier> {
        return std::make_unique<ConstantProbaClassifier>(0.7);
      },
      [&](size_t index) {
        asked.push_back(index);
        return target.label(index);
      },
      {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::vector<size_t> lowest(options.budget);
  std::iota(lowest.begin(), lowest.end(), size_t{0});
  EXPECT_EQ(asked, lowest);
  EXPECT_EQ(result.value().queried_indices, lowest);
}

TEST(ActiveTransERTest, ExpiredContextWithoutSelReturnsTe) {
  FeatureSpaceGenerator gen(FeatureSpaceSharedSpec{4, 40, 565});
  const FeatureMatrix source = MakeDomain(0.8, 29, 400, &gen);
  const FeatureMatrix target = MakeDomain(0.75, 30, 400, &gen);
  ActiveTransEROptions options;
  options.transer.use_sel = false;
  ActiveTransER active(options);
  ExecutionContext expired({/*time=*/1e-9, /*memory=*/0});
  ASSERT_TRUE(expired.Expired());
  TransferRunOptions run_options;
  run_options.context = &expired;
  auto result = active.Run(
      source, target.WithoutLabels(), MakeRfFactory(),
      [&](size_t index) { return target.label(index); }, run_options);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("(TE)"), std::string::npos)
      << result.status().ToString();
}

}  // namespace
}  // namespace transer
