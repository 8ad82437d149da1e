#include <memory>

#include <gtest/gtest.h>

#include "data/feature_space_generator.h"
#include "eval/metrics.h"
#include "linalg/covariance.h"
#include "ml/logistic_regression.h"
#include "ml/random_forest.h"
#include "transfer/coral.h"
#include "transfer/dr_transfer.h"
#include "transfer/dtal.h"
#include "transfer/embedding_lift.h"
#include "transfer/locit.h"
#include "transfer/naive_transfer.h"
#include "transfer/tca.h"

namespace transer {
namespace {

ClassifierFactory MakeLrFactory() {
  return []() -> std::unique_ptr<Classifier> {
    return std::make_unique<LogisticRegression>();
  };
}

ClassifierFactory MakeRfFactory() {
  return []() -> std::unique_ptr<Classifier> {
    return std::make_unique<RandomForest>();
  };
}

/// A well-behaved pair of homogeneous domains with a mild marginal shift.
struct DomainPair {
  FeatureMatrix source;
  FeatureMatrix target;
};

DomainPair MakePair(double target_shift = -0.05, size_t n = 1500,
                    uint64_t seed = 111) {
  FeatureSpaceGenerator generator({4, 40, seed});
  FeatureDomainSpec source;
  source.num_instances = n;
  source.match_fraction = 0.30;
  source.ambiguous_fraction = 0.05;
  source.seed = seed + 1;
  FeatureDomainSpec target = source;
  target.mode_shift = target_shift;
  target.seed = seed + 2;
  return {generator.Generate(source), generator.Generate(target)};
}

double TargetFStar(const TransferMethod& method, const DomainPair& pair,
                   const ClassifierFactory& factory,
                   const TransferRunOptions& run = {}) {
  auto predicted =
      method.Run(pair.source, pair.target.WithoutLabels(), factory, run);
  EXPECT_TRUE(predicted.ok()) << predicted.status().ToString();
  if (!predicted.ok()) return 0.0;
  return EvaluateLinkage(pair.target.labels(), predicted.value()).f_star;
}

// ---------- Naive ----------

TEST(NaiveTransferTest, LearnsWellSeparatedDomains) {
  const DomainPair pair = MakePair(0.0);
  NaiveTransfer naive;
  EXPECT_GT(TargetFStar(naive, pair, MakeLrFactory()), 0.85);
}

TEST(NaiveTransferTest, RejectsMismatchedFeatureSpaces) {
  const DomainPair pair = MakePair();
  FeatureMatrix narrow({"only_one"});
  narrow.Append({0.5}, kMatch);
  NaiveTransfer naive;
  EXPECT_FALSE(
      naive.Run(pair.source, narrow, MakeLrFactory(), {}).ok());
}

// ---------- CORAL ----------

TEST(CoralTest, AlignedSourceMatchesTargetCovariance) {
  const DomainPair pair = MakePair(-0.1);
  CoralTransfer coral;
  const Matrix x_source = pair.source.ToMatrix();
  const Matrix x_target = pair.target.ToMatrix();
  auto aligned = coral.AlignSource(x_source, x_target);
  ASSERT_TRUE(aligned.ok());

  CoralOptions options;
  Matrix cov_aligned = SampleCovariance(aligned.value());
  cov_aligned.AddDiagonal(options.regularization);
  Matrix cov_target = SampleCovariance(x_target);
  cov_target.AddDiagonal(options.regularization);
  // Second-order statistics are matched up to the regularisation ridge.
  EXPECT_LT(cov_aligned.Subtract(cov_target).FrobeniusNorm() /
                cov_target.FrobeniusNorm(),
            0.15);
}

TEST(CoralTest, RunProducesReasonableQuality) {
  const DomainPair pair = MakePair(-0.05);
  CoralTransfer coral;
  EXPECT_GT(TargetFStar(coral, pair, MakeLrFactory()), 0.6);
}

// ---------- TCA ----------

TEST(TcaTest, EmbeddingReducesDomainMeanGap) {
  const DomainPair pair = MakePair(-0.12, 600, 112);
  TcaTransfer tca;
  const Matrix x_source = pair.source.ToMatrix();
  const Matrix x_target = pair.target.ToMatrix();
  auto embedding = tca.Embed(x_source, x_target, {});
  ASSERT_TRUE(embedding.ok());
  EXPECT_EQ(embedding.value().rows(), x_source.rows() + x_target.rows());

  // Compare normalised mean gaps before and after: TCA minimises MMD.
  auto normalized_gap = [](const Matrix& all, size_t ns) {
    std::vector<size_t> src(ns), tgt(all.rows() - ns);
    for (size_t i = 0; i < ns; ++i) src[i] = i;
    for (size_t j = ns; j < all.rows(); ++j) tgt[j - ns] = j;
    const auto mean_s = ColumnMeans(all.SelectRows(src));
    const auto mean_t = ColumnMeans(all.SelectRows(tgt));
    double gap = 0.0, scale = 0.0;
    for (size_t c = 0; c < mean_s.size(); ++c) {
      gap += (mean_s[c] - mean_t[c]) * (mean_s[c] - mean_t[c]);
      scale += mean_s[c] * mean_s[c] + mean_t[c] * mean_t[c];
    }
    return scale > 0.0 ? gap / scale : 0.0;
  };
  const Matrix joined = Matrix::VStack(x_source, x_target);
  const double before = normalized_gap(joined, x_source.rows());
  const double after =
      normalized_gap(embedding.value(), x_source.rows());
  EXPECT_LT(after, before);
}

TEST(TcaTest, MemoryLimitProducesMe) {
  const DomainPair pair = MakePair(-0.05, 800, 113);
  TcaTransfer tca;
  // 1 MB: far above the working set, far below the kernel Embed reserves.
  ExecutionContext context({/*time=*/0.0, /*memory=*/1 << 20});
  TransferRunOptions run;
  run.context = &context;
  auto result =
      tca.Run(pair.source, pair.target.WithoutLabels(), MakeLrFactory(), run);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("(ME)"), std::string::npos);
}

TEST(TcaTest, SmallProblemRunsToCompletion) {
  const DomainPair pair = MakePair(-0.05, 400, 114);
  TcaTransfer tca;
  const double f_star = TargetFStar(tca, pair, MakeLrFactory());
  EXPECT_GT(f_star, 0.3);  // transfer happens, though not necessarily well
}

// ---------- LocIT ----------

TEST(LocItTest, SelectsSomeSubsetOfSource) {
  const DomainPair pair = MakePair(-0.05, 500, 115);
  LocItTransfer locit;
  auto selected = locit.SelectInstances(pair.source,
                                        pair.target.WithoutLabels(), {});
  ASSERT_TRUE(selected.ok());
  EXPECT_LE(selected.value().size(), pair.source.size());
}

TEST(LocItTest, RunAlwaysReturnsFullPredictionVector) {
  const DomainPair pair = MakePair(-0.05, 400, 116);
  LocItTransfer locit;
  auto predicted = locit.Run(pair.source, pair.target.WithoutLabels(),
                             MakeLrFactory(), {});
  ASSERT_TRUE(predicted.ok());
  EXPECT_EQ(predicted.value().size(), pair.target.size());
}

TEST(LocItTest, TimeLimitProducesTe) {
  const DomainPair pair = MakePair(-0.05, 2000, 117);
  LocItTransfer locit;
  ExecutionContext context({/*time=*/1e-9, /*memory=*/0});
  TransferRunOptions run;
  run.context = &context;
  auto result = locit.Run(pair.source, pair.target.WithoutLabels(),
                          MakeLrFactory(), run);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("(TE)"), std::string::npos);
}

// ---------- embedding lift ----------

TEST(EmbeddingLiftTest, ShapeAndDeterminism) {
  const DomainPair pair = MakePair(-0.05, 200, 118);
  EmbeddingLiftOptions options;
  options.dimension = 16;
  const Matrix a = LiftToEmbedding(pair.source.ToMatrix(), options);
  const Matrix b = LiftToEmbedding(pair.source.ToMatrix(), options);
  EXPECT_EQ(a.rows(), pair.source.size());
  EXPECT_EQ(a.cols(), 16u);
  EXPECT_DOUBLE_EQ(a.MaxAbsDiff(b), 0.0);
}

TEST(EmbeddingLiftTest, NoiseDegradesSeparability) {
  // More noise -> worse downstream classification on the lift.
  const DomainPair pair = MakePair(0.0, 800, 119);
  auto accuracy_with_noise = [&](double noise) {
    EmbeddingLiftOptions options;
    options.noise_stddev = noise;
    const Matrix lifted = LiftToEmbedding(pair.source.ToMatrix(), options);
    LogisticRegression lr;
    lr.Fit(lifted, pair.source.labels());
    const auto predicted = lr.PredictAll(lifted);
    size_t correct = 0;
    for (size_t i = 0; i < predicted.size(); ++i) {
      correct += predicted[i] == pair.source.label(i) ? 1 : 0;
    }
    return static_cast<double>(correct) /
           static_cast<double>(predicted.size());
  };
  EXPECT_GT(accuracy_with_noise(0.01), accuracy_with_noise(2.0));
}

// ---------- DR ----------

TEST(DrTest, WeightsAreClippedAndPositive) {
  const DomainPair pair = MakePair(-0.1, 500, 120);
  DrTransfer dr;
  EmbeddingLiftOptions lift;
  const Matrix e_source = LiftToEmbedding(pair.source.ToMatrix(), lift);
  const Matrix e_target = LiftToEmbedding(pair.target.ToMatrix(), lift);
  auto weights = dr.ComputeWeights(e_source, e_target, 7);
  ASSERT_TRUE(weights.ok());
  ASSERT_EQ(weights.value().size(), pair.source.size());
  for (double w : weights.value()) {
    EXPECT_GE(w, 0.1);
    EXPECT_LE(w, 10.0);
  }
}

TEST(DrTest, RunCompletesAndPredictsAllInstances) {
  const DomainPair pair = MakePair(-0.05, 500, 121);
  DrTransfer dr;
  auto predicted = dr.Run(pair.source, pair.target.WithoutLabels(),
                          MakeRfFactory(), {});
  ASSERT_TRUE(predicted.ok());
  EXPECT_EQ(predicted.value().size(), pair.target.size());
}

// ---------- DTAL ----------

TEST(DtalTest, RunCompletesOnSmallPair) {
  const DomainPair pair = MakePair(-0.05, 300, 122);
  DtalOptions options;
  options.network.epochs = 8;
  DtalTransfer dtal(options);
  auto predicted = dtal.Run(pair.source, pair.target.WithoutLabels(),
                            MakeLrFactory(), {});
  ASSERT_TRUE(predicted.ok());
  EXPECT_EQ(predicted.value().size(), pair.target.size());
}

TEST(DtalTest, TightDeadlineProducesTe) {
  const DomainPair pair = MakePair(-0.05, 800, 123);
  DtalTransfer dtal;
  ExecutionContext context({/*time=*/1e-9, /*memory=*/0});
  TransferRunOptions run;
  run.context = &context;
  auto result = dtal.Run(pair.source, pair.target.WithoutLabels(),
                         MakeLrFactory(), run);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("(TE)"), std::string::npos);
}

// ---------- quality ordering (the paper's headline) ----------

TEST(TransferOrderingTest, SimilarityFeaturesBeatEmbeddingsOnStructuredData) {
  const DomainPair pair = MakePair(-0.05, 900, 124);
  NaiveTransfer naive;
  DrTransfer dr;
  const double naive_f = TargetFStar(naive, pair, MakeLrFactory());
  const double dr_f = TargetFStar(dr, pair, MakeLrFactory());
  // Section 5.2.1: embedding-based DR underperforms the similarity-
  // feature Naive baseline on structured data.
  EXPECT_GT(naive_f, dr_f);
}

}  // namespace
}  // namespace transer
