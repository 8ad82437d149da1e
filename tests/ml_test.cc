#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "eval/metrics.h"
#include "ml/classifier.h"
#include "ml/decision_tree.h"
#include "ml/linear_svm.h"
#include "ml/logistic_regression.h"
#include "ml/mlp.h"
#include "ml/naive_bayes.h"
#include "ml/random_forest.h"
#include "ml/sampling.h"
#include "ml/scaler.h"
#include "util/random.h"

namespace transer {
namespace {

/// Two-Gaussian binary problem with the given separation.
struct Blobs {
  Matrix x;
  std::vector<int> y;
};

Blobs MakeBlobs(size_t n_per_class, size_t dims, double separation,
                uint64_t seed) {
  Rng rng(seed);
  Blobs blobs;
  blobs.x = Matrix(2 * n_per_class, dims);
  blobs.y.resize(2 * n_per_class);
  for (size_t i = 0; i < 2 * n_per_class; ++i) {
    const int label = i < n_per_class ? 0 : 1;
    blobs.y[i] = label;
    const double center = label == 0 ? 0.0 : separation;
    for (size_t d = 0; d < dims; ++d) {
      blobs.x(i, d) = rng.Gaussian(center, 1.0);
    }
  }
  return blobs;
}

/// Share of rows where `predicted` agrees with `truth` (labels in {0, 1}).
double Accuracy(const std::vector<int>& truth,
                const std::vector<int>& predicted) {
  const ConfusionCounts counts = CountConfusion(truth, predicted);
  return static_cast<double>(counts.true_positives + counts.true_negatives) /
         static_cast<double>(truth.size());
}

// ---------- StandardScaler ----------

TEST(ScalerTest, ProducesZeroMeanUnitVariance) {
  Rng rng(51);
  Matrix x(500, 3);
  for (size_t i = 0; i < 500; ++i) {
    x(i, 0) = rng.Gaussian(10.0, 4.0);
    x(i, 1) = rng.Gaussian(-3.0, 0.5);
    x(i, 2) = rng.Uniform(0.0, 100.0);
  }
  StandardScaler scaler;
  const Matrix z = scaler.FitTransform(x);
  for (size_t c = 0; c < 3; ++c) {
    double mean = 0.0, var = 0.0;
    for (size_t i = 0; i < z.rows(); ++i) mean += z(i, c);
    mean /= static_cast<double>(z.rows());
    for (size_t i = 0; i < z.rows(); ++i) {
      var += (z(i, c) - mean) * (z(i, c) - mean);
    }
    var /= static_cast<double>(z.rows());
    EXPECT_NEAR(mean, 0.0, 1e-9);
    EXPECT_NEAR(var, 1.0, 1e-9);
  }
}

TEST(ScalerTest, ConstantFeatureStaysFinite) {
  Matrix x(10, 1, 7.0);
  StandardScaler scaler;
  const Matrix z = scaler.FitTransform(x);
  for (size_t i = 0; i < z.rows(); ++i) {
    EXPECT_TRUE(std::isfinite(z(i, 0)));
    EXPECT_DOUBLE_EQ(z(i, 0), 0.0);
  }
}

TEST(ScalerTest, TransformInPlaceMatchesTransform) {
  Blobs blobs = MakeBlobs(50, 3, 2.0, 52);
  StandardScaler scaler;
  const Matrix z = scaler.FitTransform(blobs.x);
  std::vector<double> row = blobs.x.RowVector(7);
  scaler.TransformInPlace(&row);
  for (size_t c = 0; c < 3; ++c) EXPECT_NEAR(row[c], z(7, c), 1e-12);
}

// ---------- Classifier suite: parameterized learning test ----------

using MakeFn = std::unique_ptr<Classifier> (*)();

std::unique_ptr<Classifier> MakeLr() {
  return std::make_unique<LogisticRegression>();
}
std::unique_ptr<Classifier> MakeSvm() {
  return std::make_unique<LinearSvm>();
}
std::unique_ptr<Classifier> MakeDt() {
  return std::make_unique<DecisionTree>();
}
std::unique_ptr<Classifier> MakeRf() {
  return std::make_unique<RandomForest>();
}
std::unique_ptr<Classifier> MakeNb() {
  return std::make_unique<GaussianNaiveBayes>();
}

class ClassifierContractTest : public ::testing::TestWithParam<MakeFn> {};

TEST_P(ClassifierContractTest, LearnsSeparableBlobs) {
  const Blobs train = MakeBlobs(150, 4, 4.0, 61);
  const Blobs test = MakeBlobs(50, 4, 4.0, 62);
  auto classifier = GetParam()();
  classifier->Fit(train.x, train.y);
  EXPECT_GT(Accuracy(test.y, classifier->PredictAll(test.x)), 0.95)
      << classifier->name();
}

TEST_P(ClassifierContractTest, ProbabilitiesAreValidAndOrdered) {
  const Blobs train = MakeBlobs(150, 2, 5.0, 63);
  auto classifier = GetParam()();
  classifier->Fit(train.x, train.y);
  // Probabilities in [0,1]; deep in class-1 territory beats deep in
  // class-0 territory.
  const std::vector<double> deep_one = {5.0, 5.0};
  const std::vector<double> deep_zero = {0.0, 0.0};
  const double p1 = classifier->PredictProba(deep_one);
  const double p0 = classifier->PredictProba(deep_zero);
  EXPECT_GE(p1, 0.0);
  EXPECT_LE(p1, 1.0);
  EXPECT_GE(p0, 0.0);
  EXPECT_LE(p0, 1.0);
  EXPECT_GT(p1, p0) << classifier->name();
  EXPECT_GT(p1, 0.5) << classifier->name();
  EXPECT_LT(p0, 0.5) << classifier->name();
}

TEST_P(ClassifierContractTest, SampleWeightsShiftTheDecision) {
  // Conflicting labels at the same point: the heavier class must win.
  Matrix x = {{0.0}, {0.0}, {0.0}, {0.0}};
  std::vector<int> y = {1, 1, 0, 0};
  auto classifier = GetParam()();
  classifier->Fit(x, y, {10.0, 10.0, 0.1, 0.1});
  EXPECT_GT(classifier->PredictProba(std::vector<double>{0.0}), 0.5)
      << classifier->name();
  auto classifier2 = GetParam()();
  classifier2->Fit(x, y, {0.1, 0.1, 10.0, 10.0});
  EXPECT_LT(classifier2->PredictProba(std::vector<double>{0.0}), 0.5)
      << classifier2->name();
}

INSTANTIATE_TEST_SUITE_P(AllModels, ClassifierContractTest,
                         ::testing::Values(&MakeLr, &MakeSvm, &MakeDt,
                                           &MakeRf, &MakeNb));

// ---------- model-specific behaviour ----------

TEST(LogisticRegressionTest, CoefficientsPointTowardPositiveClass) {
  const Blobs train = MakeBlobs(200, 1, 3.0, 64);
  LogisticRegression lr;
  lr.Fit(train.x, train.y);
  EXPECT_GT(lr.coefficients()[0], 0.0);
}

TEST(LinearSvmTest, DecisionFunctionSignMatchesClass) {
  const Blobs train = MakeBlobs(200, 2, 4.0, 65);
  LinearSvm svm;
  svm.Fit(train.x, train.y);
  EXPECT_GT(svm.DecisionFunction(std::vector<double>{4.0, 4.0}), 0.0);
  EXPECT_LT(svm.DecisionFunction(std::vector<double>{0.0, 0.0}), 0.0);
}

TEST(DecisionTreeTest, PerfectlySeparableDataFitsExactly) {
  Matrix x = {{0.1}, {0.2}, {0.8}, {0.9}};
  std::vector<int> y = {0, 0, 1, 1};
  DecisionTree tree;
  tree.Fit(x, y);
  EXPECT_EQ(tree.PredictAll(x), y);
  EXPECT_GT(tree.node_count(), 1u);
}

TEST(DecisionTreeTest, RespectsMaxDepth) {
  const Blobs train = MakeBlobs(300, 3, 1.0, 66);
  DecisionTreeOptions options;
  options.max_depth = 3;
  options.min_samples_split = 2;
  DecisionTree tree(options);
  tree.Fit(train.x, train.y);
  EXPECT_LE(tree.Depth(), 4u);  // root at depth 1
}

TEST(DecisionTreeTest, PureLeafProbabilityIsExact) {
  Matrix x = {{0.0}, {0.1}, {0.9}, {1.0}};
  std::vector<int> y = {0, 0, 1, 1};
  DecisionTree tree;
  tree.Fit(x, y);
  // Pure leaves report exact probabilities (sklearn behaviour), which
  // TransER's t_p = 0.99 confidence filter depends on.
  EXPECT_DOUBLE_EQ(tree.PredictProba(std::vector<double>{1.0}), 1.0);
  EXPECT_DOUBLE_EQ(tree.PredictProba(std::vector<double>{0.0}), 0.0);
}

TEST(RandomForestTest, BuildsRequestedTreeCount) {
  const Blobs train = MakeBlobs(50, 2, 3.0, 67);
  RandomForestOptions options;
  options.num_trees = 11;
  RandomForest forest(options);
  forest.Fit(train.x, train.y);
  EXPECT_EQ(forest.tree_count(), 11u);
}

TEST(RandomForestTest, OutperformsSingleTreeOnNoisyData) {
  const Blobs train = MakeBlobs(300, 6, 1.2, 68);
  const Blobs test = MakeBlobs(300, 6, 1.2, 69);
  DecisionTree tree;
  tree.Fit(train.x, train.y);
  RandomForest forest;
  forest.Fit(train.x, train.y);
  const double tree_acc = Accuracy(test.y, tree.PredictAll(test.x));
  const double forest_acc = Accuracy(test.y, forest.PredictAll(test.x));
  EXPECT_GE(forest_acc, tree_acc - 0.02);  // forest at least on par
}

TEST(NaiveBayesTest, SingleClassTrainingPredictsThatClass) {
  Matrix x = {{0.5}, {0.6}};
  std::vector<int> y = {1, 1};
  GaussianNaiveBayes nb;
  nb.Fit(x, y);
  EXPECT_DOUBLE_EQ(nb.PredictProba(std::vector<double>{0.55}), 1.0);
}

TEST(DannTest, AbortCallbackStopsTraining) {
  const Blobs source = MakeBlobs(50, 3, 3.0, 71);
  const Blobs target = MakeBlobs(50, 3, 3.0, 72);
  DannOptions options;
  options.epochs = 100;
  DomainAdversarialMlp dann(options);
  int calls = 0;
  dann.Fit(source.x, source.y, target.x, [&calls]() { return ++calls > 3; });
  EXPECT_LE(dann.epochs_run(), 4);
}

TEST(DannTest, LearnsSourceTaskWhenDomainsMatch) {
  const Blobs source = MakeBlobs(200, 3, 4.0, 73);
  const Blobs target = MakeBlobs(200, 3, 4.0, 74);
  DannOptions options;
  options.epochs = 30;
  DomainAdversarialMlp dann(options);
  dann.Fit(source.x, source.y, target.x);
  const std::vector<double> proba = dann.PredictProbaAll(target.x);
  std::vector<int> predicted(proba.size());
  for (size_t i = 0; i < proba.size(); ++i) {
    predicted[i] = proba[i] >= 0.5 ? 1 : 0;
  }
  EXPECT_GT(Accuracy(target.y, predicted), 0.9);
}

// ---------- sampling ----------

TEST(SamplingTest, UndersampleEnforcesRatio) {
  std::vector<int> labels(100, 0);
  for (size_t i = 0; i < 10; ++i) labels[i] = 1;
  Rng rng(75);
  const auto kept = UndersampleNonMatches(labels, 3.0, &rng);
  size_t matches = 0, nonmatches = 0;
  for (size_t index : kept) {
    (labels[index] == 1 ? matches : nonmatches) += 1;
  }
  EXPECT_EQ(matches, 10u);
  EXPECT_EQ(nonmatches, 30u);
}

TEST(SamplingTest, UndersampleKeepsAllWhenAlreadyBalanced) {
  std::vector<int> labels = {1, 1, 0, 0};
  Rng rng(76);
  EXPECT_EQ(UndersampleNonMatches(labels, 3.0, &rng).size(), 4u);
}

TEST(SamplingTest, RandomSubsetSizeAndRange) {
  Rng rng(78);
  const auto subset = RandomSubset(100, 0.3, &rng);
  EXPECT_EQ(subset.size(), 30u);
  for (size_t v : subset) EXPECT_LT(v, 100u);
}

// ---------- default suite ----------

TEST(DefaultSuiteTest, HasTheFourPaperFamilies) {
  const auto suite = DefaultClassifierSuite();
  ASSERT_EQ(suite.size(), 4u);
  EXPECT_EQ(suite[0].name, "svm");
  EXPECT_EQ(suite[1].name, "random_forest");
  EXPECT_EQ(suite[2].name, "logistic_regression");
  EXPECT_EQ(suite[3].name, "decision_tree");
  for (const auto& family : suite) {
    auto classifier = family.make();
    ASSERT_NE(classifier, nullptr);
  }
}

}  // namespace
}  // namespace transer
