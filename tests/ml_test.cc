#include <algorithm>
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "data/bibliographic_generator.h"
#include "data/demographic_generator.h"
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
#include "util/artifact_io.h"
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

// ---------- presorted growth vs. a sort-based reference ----------

/// How the reference orders equal values.
enum class TieOrder {
  /// std::sort by value alone over the previous feature's order, census
  /// in partition order: unspecified among ties, exact for integer
  /// weights only.
  kUnspecified,
  /// Sweeps in (value, row) order and sums each census in feature 0's
  /// (value, row) order: the order DecisionTree documents.
  kValueRow,
};

/// A CART grower that sorts each node's rows for every candidate
/// feature. Its state encodes exactly as DecisionTree::SaveState does, so
/// the two fits can be compared byte for byte.
class SortedReferenceTree {
 public:
  SortedReferenceTree(DecisionTreeOptions options, TieOrder order)
      : options_(options), order_(order) {}

  void Fit(const Matrix& x, const std::vector<int>& y,
           const std::vector<double>& w) {
    x_ = &x;
    y_ = &y;
    w_ = &w;
    nodes_.clear();
    root_ = -1;
    rng_state_ = options_.seed;
    if (x.rows() == 0) return;
    std::vector<size_t> indices(x.rows());
    for (size_t i = 0; i < indices.size(); ++i) indices[i] = i;
    root_ = Grow(&indices, 0, indices.size(), 0);
  }

  void Save(artifact::Encoder* out) const {
    out->PutI64(options_.max_depth);
    out->PutU64(options_.min_samples_split);
    out->PutDouble(options_.min_impurity_decrease);
    out->PutU64(options_.max_features);
    out->PutU64(options_.seed);
    out->PutU64(x_->cols());
    out->PutI64(root_);
    out->PutU64(nodes_.size());
    for (const Node& node : nodes_) {
      out->PutU8(node.is_leaf ? 1 : 0);
      out->PutU64(node.feature);
      out->PutDouble(node.threshold);
      out->PutI64(node.left);
      out->PutI64(node.right);
      out->PutDouble(node.match_probability);
    }
  }

 private:
  struct Node {
    bool is_leaf = true;
    size_t feature = 0;
    double threshold = 0.0;
    ptrdiff_t left = -1;
    ptrdiff_t right = -1;
    double match_probability = 0.5;
  };

  static double Gini(double match_w, double total_w) {
    if (total_w <= 0.0) return 0.0;
    const double p = match_w / total_w;
    return 2.0 * p * (1.0 - p);
  }

  void SortBy(size_t feature, std::vector<size_t>* rows) const {
    const Matrix& x = *x_;
    if (order_ == TieOrder::kUnspecified) {
      std::sort(rows->begin(), rows->end(), [&x, feature](size_t a, size_t b) {
        return x(a, feature) < x(b, feature);
      });
    } else {
      std::sort(rows->begin(), rows->end(), [&x, feature](size_t a, size_t b) {
        return x(a, feature) < x(b, feature) ||
               (x(a, feature) == x(b, feature) && a < b);
      });
    }
  }

  ptrdiff_t Grow(std::vector<size_t>* indices, size_t begin, size_t end,
                 int depth) {
    const Matrix& x = *x_;
    const std::vector<int>& y = *y_;
    const std::vector<double>& w = *w_;
    const size_t num_features = x.cols();
    std::vector<size_t> census(indices->begin() + static_cast<ptrdiff_t>(begin),
                               indices->begin() + static_cast<ptrdiff_t>(end));
    if (order_ == TieOrder::kValueRow) {
      if (num_features > 0) {
        SortBy(0, &census);
      } else {
        std::sort(census.begin(), census.end());
      }
    }
    double total_w = 0.0;
    double match_w = 0.0;
    for (size_t row : census) {
      total_w += w[row];
      if (y[row] == 1) match_w += w[row];
    }

    Node node;
    node.match_probability = total_w <= 0.0 ? 0.5 : match_w / total_w;
    const double parent_impurity = Gini(match_w, total_w);
    const bool can_split = depth < options_.max_depth &&
                           end - begin >= options_.min_samples_split &&
                           parent_impurity > 0.0;

    size_t best_feature = 0;
    double best_threshold = 0.0;
    double best_decrease = options_.min_impurity_decrease;
    bool found = false;
    if (can_split) {
      std::vector<size_t> candidates;
      if (options_.max_features == 0 ||
          options_.max_features >= num_features) {
        candidates.resize(num_features);
        for (size_t f = 0; f < num_features; ++f) candidates[f] = f;
      } else {
        Rng rng(rng_state_);
        rng_state_ = rng.NextUint64();
        candidates = rng.SampleWithoutReplacement(num_features,
                                                  options_.max_features);
      }
      std::vector<size_t> sorted(
          indices->begin() + static_cast<ptrdiff_t>(begin),
          indices->begin() + static_cast<ptrdiff_t>(end));
      for (size_t feature : candidates) {
        SortBy(feature, &sorted);
        double left_w = 0.0;
        double left_match = 0.0;
        for (size_t i = 0; i + 1 < sorted.size(); ++i) {
          const size_t row = sorted[i];
          left_w += w[row];
          if (y[row] == 1) left_match += w[row];
          const double value = x(row, feature);
          const double next = x(sorted[i + 1], feature);
          if (next <= value) continue;
          const double right_w = total_w - left_w;
          const double right_match = match_w - left_match;
          if (left_w <= 0.0 || right_w <= 0.0) continue;
          const double child_impurity =
              (left_w * Gini(left_match, left_w) +
               right_w * Gini(right_match, right_w)) /
              total_w;
          const double decrease = parent_impurity - child_impurity;
          if (decrease > best_decrease) {
            const double threshold = value + 0.5 * (next - value);
            if (!(threshold < next)) continue;
            best_decrease = decrease;
            best_feature = feature;
            best_threshold = threshold;
            found = true;
          }
        }
      }
    }
    if (!found) {
      nodes_.push_back(node);
      return static_cast<ptrdiff_t>(nodes_.size() - 1);
    }
    auto mid_it = std::partition(
        indices->begin() + static_cast<ptrdiff_t>(begin),
        indices->begin() + static_cast<ptrdiff_t>(end),
        [&x, best_feature, best_threshold](size_t row) {
          return x(row, best_feature) <= best_threshold;
        });
    const size_t mid = static_cast<size_t>(mid_it - indices->begin());
    node.is_leaf = false;
    node.feature = best_feature;
    node.threshold = best_threshold;
    nodes_.push_back(node);
    const ptrdiff_t index = static_cast<ptrdiff_t>(nodes_.size() - 1);
    const ptrdiff_t left = Grow(indices, begin, mid, depth + 1);
    const ptrdiff_t right = Grow(indices, mid, end, depth + 1);
    nodes_[static_cast<size_t>(index)].left = left;
    nodes_[static_cast<size_t>(index)].right = right;
    return index;
  }

  DecisionTreeOptions options_;
  TieOrder order_;
  const Matrix* x_ = nullptr;
  const std::vector<int>* y_ = nullptr;
  const std::vector<double>* w_ = nullptr;
  std::vector<Node> nodes_;
  ptrdiff_t root_ = -1;
  uint64_t rng_state_ = 0;
};

std::vector<uint8_t> ReferenceTreeState(const DecisionTreeOptions& options,
                                        TieOrder order, const Matrix& x,
                                        const std::vector<int>& y,
                                        const std::vector<double>& weights) {
  std::vector<double> w = weights;
  if (w.empty()) w.assign(x.rows(), 1.0);
  SortedReferenceTree tree(options, order);
  tree.Fit(x, y, w);
  artifact::Encoder out;
  tree.Save(&out);
  return out.TakeBytes();
}

/// The forest's draws, made as `double` bag weights in the forest's
/// order, each tree grown by the reference.
std::vector<uint8_t> ReferenceForestState(const RandomForestOptions& options,
                                          TieOrder order, const Matrix& x,
                                          const std::vector<int>& y,
                                          const std::vector<double>& weights) {
  const size_t n = x.rows();
  DecisionTreeOptions tree_options = options.tree;
  if (tree_options.max_features == 0) {
    tree_options.max_features = static_cast<size_t>(
        std::max(1.0, std::floor(std::sqrt(static_cast<double>(x.cols())))));
  }
  artifact::Encoder out;
  out.PutU64(options.num_trees);
  out.PutU64(options.seed);
  out.PutU64(n == 0 ? 0 : options.num_trees);
  Rng rng(options.seed);
  for (size_t t = 0; n > 0 && t < options.num_trees; ++t) {
    std::vector<double> bag(n, 0.0);
    for (size_t draw = 0; draw < n; ++draw) bag[rng.NextUint64Below(n)] += 1.0;
    if (!weights.empty()) {
      for (size_t i = 0; i < n; ++i) bag[i] *= weights[i];
    }
    DecisionTreeOptions slot_options = tree_options;
    slot_options.seed = rng.NextUint64();
    SortedReferenceTree tree(slot_options, order);
    tree.Fit(x, y, bag);
    tree.Save(&out);
  }
  return out.TakeBytes();
}

template <typename Model>
std::vector<uint8_t> StateBytes(const Model& model) {
  artifact::Encoder out;
  EXPECT_TRUE(model.SaveState(&out).ok());
  return out.TakeBytes();
}

struct NamedInput {
  std::string name;
  Matrix x;
  std::vector<int> y;
};

/// Comparison vectors of a small seeded biblio or demo source domain.
NamedInput DomainInput(bool bibliographic, uint64_t seed) {
  LinkageProblem problem;
  if (bibliographic) {
    BibliographicOptions options;
    options.num_entities = 1000;
    options.seed = seed;
    options.right_corruption.typo_probability = 0.3;
    problem = GenerateBibliographic(options);
  } else {
    DemographicOptions options;
    options.num_families = 1500;
    options.seed = seed;
    options.right_corruption.typo_probability = 0.3;
    problem = GenerateDemographic(options);
  }
  auto features = BuildDomainFeatures(problem, PipelineOptions{});
  EXPECT_TRUE(features.ok()) << features.status().ToString();
  return {bibliographic ? "biblio" : "demo", features.value().ToMatrix(),
          features.value().labels()};
}

/// The edge cases: values on a coarse grid (ties everywhere) beside a
/// constant column, one class only, and fewer rows than a split needs.
std::vector<NamedInput> EdgeInputs() {
  std::vector<NamedInput> inputs;
  Rng rng(81);
  NamedInput ties{"ties_and_constant_column", Matrix(400, 4), {}};
  for (size_t i = 0; i < 400; ++i) {
    const int label = rng.Bernoulli(0.35) ? 1 : 0;
    ties.y.push_back(label);
    for (size_t f = 0; f < 3; ++f) {
      const double center = label == 1 ? 0.7 : 0.3;
      ties.x(i, f) = std::round(std::clamp(rng.Gaussian(center, 0.25), 0.0,
                                           1.0) * 4.0) / 4.0;
    }
    ties.x(i, 3) = 0.5;
  }
  inputs.push_back(ties);
  NamedInput single{"single_class", Matrix(50, 2), std::vector<int>(50, 1)};
  for (size_t i = 0; i < 50; ++i) {
    single.x(i, 0) = rng.NextDouble();
    single.x(i, 1) = rng.NextDouble();
  }
  inputs.push_back(single);
  inputs.push_back({"below_min_samples_split",
                    Matrix({{0.1, 0.9}, {0.8, 0.2}, {0.5, 0.5}}),
                    {0, 1, 0}});
  inputs.push_back({"no_columns", Matrix(6, 0), {0, 1, 0, 1, 1, 0}});
  return inputs;
}

std::vector<NamedInput> DifferentialInputs() {
  std::vector<NamedInput> inputs = {DomainInput(true, 17),
                                    DomainInput(false, 18)};
  for (NamedInput& edge : EdgeInputs()) inputs.push_back(std::move(edge));
  return inputs;
}

/// Integer weights with zeros: a bootstrap bag's counts.
std::vector<double> BootstrapCounts(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> counts(n, 0.0);
  for (size_t draw = 0; draw < n; ++draw) counts[rng.NextUint64Below(n)] += 1.0;
  return counts;
}

std::vector<double> IntegerWeights(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> weights(n);
  for (double& w : weights) w = static_cast<double>(rng.NextUint64Below(4));
  return weights;
}

std::vector<double> RealWeights(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> weights(n);
  for (double& w : weights) {
    w = rng.Bernoulli(0.1) ? 0.0 : rng.Uniform(0.05, 2.0);
  }
  return weights;
}

std::vector<DecisionTreeOptions> TreeOptionGrid(size_t num_features) {
  DecisionTreeOptions all_features;  // max_features 0: every feature
  DecisionTreeOptions sqrt_features;
  sqrt_features.max_features = static_cast<size_t>(
      std::max(1.0, std::floor(std::sqrt(static_cast<double>(num_features)))));
  sqrt_features.seed = 11;
  DecisionTreeOptions depth_zero;
  depth_zero.max_depth = 0;
  DecisionTreeOptions deep;
  deep.max_depth = 30;
  deep.min_samples_split = 1;
  deep.min_impurity_decrease = 0.0;
  return {all_features, sqrt_features, depth_zero, deep};
}

TEST(PresortedGrowthTest, TreeStateMatchesSortReferenceForIntegerWeights) {
  for (const NamedInput& input : DifferentialInputs()) {
    const size_t n = input.x.rows();
    const std::vector<std::vector<double>> weightings = {
        {}, BootstrapCounts(n, 5), IntegerWeights(n, 6)};
    for (const DecisionTreeOptions& options : TreeOptionGrid(input.x.cols())) {
      for (size_t k = 0; k < weightings.size(); ++k) {
        DecisionTree tree(options);
        tree.Fit(input.x, input.y, weightings[k]);
        EXPECT_EQ(StateBytes(tree),
                  ReferenceTreeState(options, TieOrder::kUnspecified, input.x,
                                     input.y, weightings[k]))
            << input.name << " weighting " << k << " max_features "
            << options.max_features << " max_depth " << options.max_depth;
      }
    }
  }
}

TEST(PresortedGrowthTest, ForestStateMatchesSortReferenceAtAnyLaneCount) {
  for (const NamedInput& input : DifferentialInputs()) {
    const size_t n = input.x.rows();
    const std::vector<std::vector<double>> weightings = {
        {}, IntegerWeights(n, 7)};
    for (size_t max_features : {size_t{0}, input.x.cols()}) {
      RandomForestOptions options;
      options.num_trees = 8;
      options.seed = 21;
      options.tree.max_features = max_features;
      for (size_t k = 0; k < weightings.size(); ++k) {
        const std::vector<uint8_t> reference =
            ReferenceForestState(options, TieOrder::kUnspecified, input.x,
                                 input.y, weightings[k]);
        for (int threads : {1, 4, 8}) {
          options.num_threads = threads;
          RandomForest forest(options);
          forest.Fit(input.x, input.y, weightings[k]);
          EXPECT_EQ(StateBytes(forest), reference)
              << input.name << " weighting " << k << " threads " << threads
              << " max_features " << max_features;
        }
      }
    }
  }
}

TEST(PresortedGrowthTest, RealWeightsFollowTheValueRowOrder) {
  for (const NamedInput& input : DifferentialInputs()) {
    const std::vector<double> weights = RealWeights(input.x.rows(), 8);
    for (const DecisionTreeOptions& options : TreeOptionGrid(input.x.cols())) {
      DecisionTree tree(options);
      tree.Fit(input.x, input.y, weights);
      EXPECT_EQ(StateBytes(tree),
                ReferenceTreeState(options, TieOrder::kValueRow, input.x,
                                   input.y, weights))
          << input.name << " max_features " << options.max_features
          << " max_depth " << options.max_depth;
    }
    RandomForestOptions options;
    options.num_trees = 8;
    const std::vector<uint8_t> reference = ReferenceForestState(
        options, TieOrder::kValueRow, input.x, input.y, weights);
    for (int threads : {1, 4, 8}) {
      options.num_threads = threads;
      RandomForest forest(options);
      forest.Fit(input.x, input.y, weights);
      EXPECT_EQ(StateBytes(forest), reference)
          << input.name << " threads " << threads;
    }
  }
}

TEST(DecisionTreeDeathTest, ZeroMinSamplesSplitIsRefused) {
  DecisionTreeOptions options;
  options.min_samples_split = 0;
  DecisionTree tree(options);
  const Matrix x = {{0.1}, {0.9}};
  const std::vector<int> y = {0, 1};
  EXPECT_DEATH(tree.Fit(x, y), "min_samples_split");
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
