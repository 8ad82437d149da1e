// Tests of the sparse high-dimensional feature path (DESIGN.md §12):
// CSR validation, sparse kernels against their scalar references,
// sparse↔dense training equivalence, the culled sparse weight layout
// under truncation / byte-flip fuzzing, L-BFGS-vs-SGD convergence, the
// thread-count invariance of the shared loss/gradient kernel, and the
// run-options fit dispatch.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "features/sparse_matrix.h"
#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "ml/feature_view.h"
#include "ml/lbfgs.h"
#include "ml/linear_svm.h"
#include "ml/logistic_regression.h"
#include "ml/random_forest.h"
#include "ml/sparse_weights.h"
#include "text/char_ngram_embedder.h"
#include "transfer/transfer_method.h"
#include "util/artifact_io.h"
#include "util/diagnostics.h"
#include "util/execution_context.h"
#include "util/random.h"
#include "util/validation.h"

namespace transer {
namespace {

// A small dense problem with every value strictly nonzero, so its CSR
// view enumerates every column and the bit-identity contract of
// ml/feature_view.h applies.
FeatureMatrix DenseProblem(size_t rows, size_t cols, uint64_t seed) {
  std::vector<std::string> names;
  for (size_t j = 0; j < cols; ++j) names.push_back("f" + std::to_string(j));
  FeatureMatrix x(std::move(names));
  Rng rng(seed);
  std::vector<double> row(cols);
  for (size_t i = 0; i < rows; ++i) {
    const int label = static_cast<int>(i % 2);
    const double shift = label == 1 ? 0.15 : -0.15;
    for (size_t j = 0; j < cols; ++j) {
      double v = shift + rng.NextDouble() - 0.5;
      if (v == 0.0) v = 0.01;  // keep the CSR view full
      row[j] = v;
    }
    x.Append(row, label);
  }
  return x;
}

// ---------- Validate ----------

TEST(SparseValidateTest, StrictRejectsNonFiniteValues) {
  SparseFeatureMatrix x(4);
  const std::vector<uint32_t> idx = {0, 2};
  const std::vector<double> bad = {1.0, std::nan("")};
  x.AppendRow(idx, bad, kMatch);
  ValidationOptions options;  // kStrict
  EXPECT_FALSE(x.Validate(options).ok());
}

TEST(SparseValidateTest, StrictRejectsOutOfRangeAndUnsortedIndices) {
  {
    SparseFeatureMatrix x(4);
    const std::vector<uint32_t> idx = {0, 4};  // 4 == num_features
    const std::vector<double> val = {1.0, 1.0};
    x.AppendRow(idx, val, kMatch);
    EXPECT_FALSE(x.Validate(ValidationOptions{}).ok());
  }
  {
    SparseFeatureMatrix x(4);
    const std::vector<uint32_t> idx = {2, 1};  // not increasing
    const std::vector<double> val = {1.0, 1.0};
    x.AppendRow(idx, val, kMatch);
    EXPECT_FALSE(x.Validate(ValidationOptions{}).ok());
  }
  {
    SparseFeatureMatrix x(4);
    const std::vector<uint32_t> idx = {1, 1};  // duplicate column
    const std::vector<double> val = {1.0, 1.0};
    x.AppendRow(idx, val, kMatch);
    EXPECT_FALSE(x.Validate(ValidationOptions{}).ok());
  }
}

TEST(SparseValidateTest, DropRowsKeepsCleanRowsAndEmitsDiagnostics) {
  SparseFeatureMatrix x(4);
  const std::vector<uint32_t> good_idx = {0, 2};
  const std::vector<double> good_val = {0.5, 0.25};
  const std::vector<uint32_t> bad_idx = {3, 1};  // unsorted
  const std::vector<double> bad_val = {1.0, 1.0};
  x.AppendRow(good_idx, good_val, kMatch);
  x.AppendRow(bad_idx, bad_val, kNonMatch);
  x.AppendRow(good_idx, good_val, kNonMatch);

  ValidationOptions options;
  options.policy = RepairPolicy::kDropRows;
  ValidationReport report;
  RunDiagnostics diagnostics;
  auto cleaned = x.Validate(options, &report, &diagnostics);
  ASSERT_TRUE(cleaned.ok()) << cleaned.status().ToString();
  EXPECT_EQ(cleaned.value().size(), 2u);
  EXPECT_EQ(cleaned.value().label(0), kMatch);
  EXPECT_EQ(report.rows_dropped, 1u);
  EXPECT_TRUE(diagnostics.HasKind(DegradationKind::kSparseRowsDropped));
}

TEST(SparseValidateTest, ClampRepairsValuesButDropsStructuralRows) {
  SparseFeatureMatrix x(4);
  const std::vector<uint32_t> nan_idx = {0, 2};
  const std::vector<double> nan_val = {std::nan(""), 0.5};
  const std::vector<uint32_t> bad_idx = {0, 9};  // out of range: no repair
  const std::vector<double> bad_val = {1.0, 1.0};
  x.AppendRow(nan_idx, nan_val, kMatch);
  x.AppendRow(bad_idx, bad_val, kNonMatch);

  ValidationOptions options;
  options.policy = RepairPolicy::kClampValues;
  ValidationReport report;
  RunDiagnostics diagnostics;
  auto cleaned = x.Validate(options, &report, &diagnostics);
  ASSERT_TRUE(cleaned.ok()) << cleaned.status().ToString();
  ASSERT_EQ(cleaned.value().size(), 1u);
  EXPECT_EQ(cleaned.value().Row(0).values[0], 0.0);  // NaN -> 0
  EXPECT_GE(report.values_repaired, 1u);
  EXPECT_EQ(report.rows_dropped, 1u);
  EXPECT_TRUE(diagnostics.HasKind(DegradationKind::kSparseRowsDropped));
}

// ---------- Sparse kernels ----------

TEST(SparseKernelTest, MatchScalarReferencesBitForBit) {
  ASSERT_TRUE(kernels::SelfCheck().ok());
  Rng rng(77);
  for (size_t trial = 0; trial < 20; ++trial) {
    const size_t dims = 64 + trial * 7;
    std::vector<uint32_t> a_idx, b_idx;
    std::vector<double> a_val, b_val;
    for (uint32_t j = 0; j < dims; ++j) {
      if (rng.NextDouble() < 0.3) {
        a_idx.push_back(j);
        a_val.push_back(rng.NextDouble() * 2.0 - 1.0);
      }
      if (rng.NextDouble() < 0.3) {
        b_idx.push_back(j);
        b_val.push_back(rng.NextDouble() * 2.0 - 1.0);
      }
    }
    std::vector<double> dense(dims);
    for (double& v : dense) v = rng.NextDouble() * 2.0 - 1.0;

    EXPECT_EQ(kernels::SparseDenseDot(a_idx, a_val, dense),
              kernels::ref::SparseDenseDot(a_idx, a_val, dense));
    EXPECT_EQ(kernels::SparseDot(a_idx, a_val, b_idx, b_val),
              kernels::ref::SparseDot(a_idx, a_val, b_idx, b_val));
    EXPECT_EQ(kernels::SparseSquaredL2(a_idx, a_val, b_idx, b_val),
              kernels::ref::SparseSquaredL2(a_idx, a_val, b_idx, b_val));
    std::vector<double> y_kernel = dense, y_ref = dense;
    kernels::SparseAxpy(0.75, a_idx, a_val, y_kernel);
    kernels::ref::SparseAxpy(0.75, a_idx, a_val, y_ref);
    EXPECT_EQ(y_kernel, y_ref);
  }
}

// ---------- Sparse <-> dense training equivalence ----------

TEST(SparseEquivalenceTest, LbfgsTrainsBitIdenticalWeightsOnFullCsrView) {
  const FeatureMatrix fm = DenseProblem(120, 6, 5);
  const Matrix dense = fm.ToMatrix();
  const SparseFeatureMatrix sparse = SparseFeatureMatrix::FromDense(fm);
  ASSERT_EQ(sparse.nnz(), dense.rows() * dense.cols());  // full view

  LogisticRegressionOptions options;
  options.solver = LinearSolver::kLbfgs;
  options.lbfgs_max_iterations = 25;
  LogisticRegression dense_model(options), sparse_model(options);
  dense_model.FitView(FeatureView(dense), fm.labels(), {});
  sparse_model.FitView(FeatureView(sparse), fm.labels(), {});

  ASSERT_EQ(dense_model.coefficients().size(),
            sparse_model.coefficients().size());
  for (size_t j = 0; j < dense_model.coefficients().size(); ++j) {
    EXPECT_EQ(dense_model.coefficients()[j], sparse_model.coefficients()[j]);
  }
  EXPECT_EQ(dense_model.intercept(), sparse_model.intercept());

  LinearSvmOptions svm_options;
  svm_options.solver = LinearSolver::kLbfgs;
  svm_options.lbfgs_max_iterations = 25;
  LinearSvm dense_svm(svm_options), sparse_svm(svm_options);
  dense_svm.FitView(FeatureView(dense), fm.labels(), {});
  sparse_svm.FitView(FeatureView(sparse), fm.labels(), {});
  ASSERT_EQ(dense_svm.coefficients().size(), sparse_svm.coefficients().size());
  for (size_t j = 0; j < dense_svm.coefficients().size(); ++j) {
    EXPECT_EQ(dense_svm.coefficients()[j], sparse_svm.coefficients()[j]);
  }
}

TEST(SparseEquivalenceTest, SgdSparsePathAgreesWithDenseWithinTolerance) {
  const FeatureMatrix fm = DenseProblem(150, 5, 9);
  const Matrix dense = fm.ToMatrix();
  const SparseFeatureMatrix sparse = SparseFeatureMatrix::FromDense(fm);

  LogisticRegression dense_lr, sparse_lr;  // default kSgd
  dense_lr.FitView(FeatureView(dense), fm.labels(), {});
  sparse_lr.FitView(FeatureView(sparse), fm.labels(), {});
  // The deferred-scaling sparse loop performs the same mathematical
  // updates in a different floating-point factoring, so weights agree
  // closely but not bit-for-bit.
  ASSERT_EQ(dense_lr.coefficients().size(), sparse_lr.coefficients().size());
  for (size_t j = 0; j < dense_lr.coefficients().size(); ++j) {
    EXPECT_NEAR(dense_lr.coefficients()[j], sparse_lr.coefficients()[j], 1e-6);
  }
  EXPECT_NEAR(dense_lr.intercept(), sparse_lr.intercept(), 1e-6);

  LinearSvm dense_svm, sparse_svm;  // default Pegasos
  dense_svm.FitView(FeatureView(dense), fm.labels(), {});
  sparse_svm.FitView(FeatureView(sparse), fm.labels(), {});
  ASSERT_EQ(dense_svm.coefficients().size(), sparse_svm.coefficients().size());
  for (size_t j = 0; j < dense_svm.coefficients().size(); ++j) {
    EXPECT_NEAR(dense_svm.coefficients()[j], sparse_svm.coefficients()[j],
                1e-6);
  }
}

// ---------- Culled sparse weight persistence ----------

TEST(SparseWeightsTest, CulledRoundTripDropsOnlySmallEntries) {
  const std::vector<double> w = {0.5, 1e-12, 0.0, -0.25, 5e-9, 3.0};
  artifact::Encoder encoder;
  EncodeWeightVector(&encoder, w, 1e-8);
  artifact::Decoder decoder(encoder.bytes());
  std::vector<double> decoded;
  ASSERT_TRUE(DecodeWeightVector(&decoder, &decoded).ok());
  ASSERT_TRUE(decoder.ExpectEnd().ok());
  ASSERT_EQ(decoded.size(), w.size());
  EXPECT_EQ(decoded[0], 0.5);
  EXPECT_EQ(decoded[1], 0.0);  // culled
  EXPECT_EQ(decoded[2], 0.0);
  EXPECT_EQ(decoded[3], -0.25);
  EXPECT_EQ(decoded[4], 0.0);  // culled
  EXPECT_EQ(decoded[5], 3.0);
  EXPECT_EQ(CountAboveEpsilon(w, 1e-8), 3u);
}

TEST(SparseWeightsTest, NegativeEpsilonIsByteIdenticalToDenseLayout) {
  const std::vector<double> w = {0.5, 0.0, -1.25};
  artifact::Encoder culled_off, historical;
  EncodeWeightVector(&culled_off, w, -1.0);
  historical.PutDoubleVec(w);
  EXPECT_EQ(culled_off.bytes(), historical.bytes());
}

TEST(SparseWeightsTest, TruncationAtEveryPrefixFailsCleanly) {
  std::vector<double> w(64, 0.0);
  Rng rng(13);
  for (size_t j = 0; j < w.size(); j += 3) w[j] = rng.NextDouble() - 0.5;
  artifact::Encoder encoder;
  EncodeWeightVector(&encoder, w, 1e-8);
  const std::vector<uint8_t>& bytes = encoder.bytes();
  for (size_t len = 0; len < bytes.size(); ++len) {
    artifact::Decoder decoder(
        std::span<const uint8_t>(bytes.data(), len));
    std::vector<double> decoded;
    const Status status = DecodeWeightVector(&decoder, &decoded);
    // A strict prefix can never satisfy the full encoding; the decoder
    // must reject it (bounds-checked before any allocation) and the
    // remaining-bytes check makes a silent short read impossible.
    EXPECT_FALSE(status.ok()) << "prefix length " << len;
  }
}

TEST(SparseWeightsTest, ByteFlipFuzzNeverCrashesOrOverAllocates) {
  std::vector<double> w(48, 0.0);
  Rng rng(29);
  for (size_t j = 0; j < w.size(); j += 4) w[j] = rng.NextDouble() + 0.5;
  artifact::Encoder encoder;
  EncodeWeightVector(&encoder, w, 1e-8);
  const std::vector<uint8_t> bytes = encoder.bytes();
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    std::vector<uint8_t> corrupt = bytes;
    corrupt[pos] ^= 0xFF;
    artifact::Decoder decoder(corrupt);
    std::vector<double> decoded;
    const Status status = DecodeWeightVector(&decoder, &decoded);
    // Inside a TERA artifact the section CRC catches every flip before
    // this decoder runs; standalone, a flip must either be rejected or
    // decode to a structurally sound vector — never crash, never trip
    // the dimension ceiling into a huge allocation.
    if (status.ok()) {
      EXPECT_LE(decoded.size(), kMaxWeightDimension);
      for (double v : decoded) EXPECT_TRUE(std::isfinite(v));
    }
  }
}

TEST(SparseWeightsTest, ModelSaveLoadRoundTripsThroughCulledLayout) {
  const FeatureMatrix fm = DenseProblem(100, 6, 21);
  const SparseFeatureMatrix sparse = SparseFeatureMatrix::FromDense(fm);

  LogisticRegressionOptions options;
  options.solver = LinearSolver::kLbfgs;
  options.lbfgs_max_iterations = 20;
  options.save_cull_epsilon = 1e-8;
  LogisticRegression trained(options);
  trained.FitView(FeatureView(sparse), fm.labels(), {});

  artifact::Encoder encoder;
  ASSERT_TRUE(trained.SaveState(&encoder).ok());
  LogisticRegression restored;
  artifact::Decoder decoder(encoder.bytes());
  ASSERT_TRUE(restored.LoadState(&decoder).ok());
  for (size_t i = 0; i < sparse.size(); ++i) {
    EXPECT_NEAR(restored.PredictProbaSparse(sparse.Row(i)),
                trained.PredictProbaSparse(sparse.Row(i)), 1e-9);
  }

  LinearSvmOptions svm_options;
  svm_options.solver = LinearSolver::kLbfgs;
  svm_options.lbfgs_max_iterations = 20;
  svm_options.save_cull_epsilon = 1e-8;
  LinearSvm trained_svm(svm_options);
  trained_svm.FitView(FeatureView(sparse), fm.labels(), {});
  artifact::Encoder svm_encoder;
  ASSERT_TRUE(trained_svm.SaveState(&svm_encoder).ok());
  LinearSvm restored_svm;
  artifact::Decoder svm_decoder(svm_encoder.bytes());
  ASSERT_TRUE(restored_svm.LoadState(&svm_decoder).ok());
  for (size_t i = 0; i < sparse.size(); ++i) {
    EXPECT_NEAR(restored_svm.PredictProbaSparse(sparse.Row(i)),
                trained_svm.PredictProbaSparse(sparse.Row(i)), 1e-9);
  }
}

// ---------- Solver convergence ----------

double LogLossObjective(const Matrix& x, const std::vector<int>& y,
                        const std::vector<double>& w, double bias, double l2) {
  double loss = 0.0;
  for (size_t i = 0; i < x.rows(); ++i) {
    const double z =
        bias + kernels::Dot(w, std::span<const double>(x.Row(i), x.cols()));
    loss += std::max(z, 0.0) + std::log1p(std::exp(-std::fabs(z))) -
            static_cast<double>(y[i]) * z;
  }
  loss /= static_cast<double>(x.rows());
  for (double v : w) loss += 0.5 * l2 * v * v;
  return loss;
}

TEST(SolverConvergenceTest, LbfgsReachesSgdObjectiveInTenthOfEpochs) {
  // Overlapping classes (the bench's construction, scaled down): the
  // optimum is strictly positive, so reaching the SGD objective means
  // real convergence, not float dust around zero.
  const size_t n = 800, m = 16;
  Matrix x(n, m);
  std::vector<int> y(n);
  Rng rng(1377);
  for (size_t i = 0; i < n; ++i) {
    y[i] = static_cast<int>(i % 2);
    const double shift = y[i] == 1 ? 0.1 : -0.1;
    for (size_t d = 0; d < m; ++d) x(i, d) = shift + rng.NextDouble() - 0.5;
  }

  LogisticRegressionOptions sgd_options;  // 200 SGD epochs
  LogisticRegression sgd(sgd_options);
  sgd.Fit(x, y);
  const double sgd_objective = LogLossObjective(
      x, y, sgd.coefficients(), sgd.intercept(), sgd_options.l2);

  LogisticRegressionOptions lbfgs_options;
  lbfgs_options.solver = LinearSolver::kLbfgs;
  lbfgs_options.lbfgs_max_iterations = sgd_options.epochs / 10;
  LogisticRegression lbfgs(lbfgs_options);
  lbfgs.Fit(x, y);
  const double lbfgs_objective = LogLossObjective(
      x, y, lbfgs.coefficients(), lbfgs.intercept(), lbfgs_options.l2);

  EXPECT_LE(lbfgs_objective, sgd_objective + 1e-9)
      << "L-BFGS " << lbfgs_objective << " vs SGD " << sgd_objective;
}

// ---------- Thread-count invariance ----------

double TestLogLoss(double margin, int label, double sample_w,
                   double* dmargin) {
  const double p = 1.0 / (1.0 + std::exp(-margin));
  *dmargin = sample_w * (p - static_cast<double>(label));
  return sample_w * (std::max(margin, 0.0) +
                     std::log1p(std::exp(-std::fabs(margin))) -
                     static_cast<double>(label) * margin);
}

TEST(ThreadInvarianceTest, LossAndGradientBitIdenticalAt1And8Threads) {
  const size_t dims = 512;
  SparseFeatureMatrix x(dims);
  Rng rng(55);
  std::vector<uint32_t> indices;
  std::vector<double> values;
  for (size_t i = 0; i < 200; ++i) {
    indices.clear();
    values.clear();
    for (uint32_t j = 0; j < dims; ++j) {
      if (rng.NextDouble() < 0.05) {
        indices.push_back(j);
        values.push_back(rng.NextDouble() * 2.0 - 1.0);
      }
    }
    x.AppendRow(indices, values, static_cast<int>(i % 2));
  }
  std::vector<double> w(dims);
  for (double& v : w) v = rng.NextDouble() - 0.5;

  const FeatureView view(x);
  std::vector<double> grad1(dims, 0.0), grad8(dims, 0.0);
  double bias_grad1 = 0.0, bias_grad8 = 0.0;
  auto loss1 = WeightedLinearLossGrad(view, x.labels(), {}, w, 0.3,
                                      &TestLogLoss, grad1, &bias_grad1,
                                      ExecutionContext::Unlimited(), 1);
  auto loss8 = WeightedLinearLossGrad(view, x.labels(), {}, w, 0.3,
                                      &TestLogLoss, grad8, &bias_grad8,
                                      ExecutionContext::Unlimited(), 8);
  ASSERT_TRUE(loss1.ok());
  ASSERT_TRUE(loss8.ok());
  EXPECT_EQ(loss1.value(), loss8.value());
  EXPECT_EQ(bias_grad1, bias_grad8);
  EXPECT_EQ(grad1, grad8);
}

// ---------- Sparse embedder output ----------

TEST(SparseEmbedderTest, EmbedPairSparseProducesAValidCsrRow) {
  CharNgramEmbedderOptions options;
  options.sparse_dimension = size_t{1} << 10;
  const CharNgramEmbedder embedder(options);
  std::vector<uint32_t> indices;
  std::vector<double> values;
  embedder.EmbedPairSparse({"john smith", "main st"},
                           {"jon smith", "main street"}, &indices, &values);
  ASSERT_EQ(indices.size(), values.size());
  ASSERT_FALSE(indices.empty());
  const size_t pair_dim = embedder.SparsePairDimension(2);
  for (size_t k = 0; k < indices.size(); ++k) {
    EXPECT_LT(indices[k], pair_dim);
    if (k > 0) {
      EXPECT_LT(indices[k - 1], indices[k]);
    }
    EXPECT_TRUE(std::isfinite(values[k]));
    EXPECT_NE(values[k], 0.0);  // exact zeros are dropped
  }
  // The row passes the strict CSR gate end to end.
  SparseFeatureMatrix matrix(pair_dim);
  matrix.AppendRow(indices, values, kMatch);
  ValidationOptions validation;
  EXPECT_TRUE(matrix.Validate(validation).ok());
}

// ---------- Run-options fit dispatch ----------

TEST(SparseFitDispatchTest, LinearModelsTrainSparseOthersFallBackDense) {
  const FeatureMatrix fm = DenseProblem(80, 5, 42);
  RunDiagnostics diagnostics;
  TransferRunOptions run_options;
  run_options.sparse_features = true;
  run_options.diagnostics = &diagnostics;

  LogisticRegression lr;
  FitClassifierWithRunOptions(&lr, fm, fm.labels(), {}, run_options);
  EXPECT_FALSE(diagnostics.HasKind(DegradationKind::kSparseFitUnsupported));
  EXPECT_FALSE(lr.coefficients().empty());

  RandomForestOptions forest_options;
  forest_options.num_trees = 4;
  RandomForest forest(forest_options);
  FitClassifierWithRunOptions(&forest, fm, fm.labels(), {}, run_options);
  EXPECT_TRUE(diagnostics.HasKind(DegradationKind::kSparseFitUnsupported));
  // The fallback still trained a usable model.
  const double p = forest.PredictProba(fm.Row(0));
  EXPECT_GE(p, 0.0);
  EXPECT_LE(p, 1.0);
}

}  // namespace
}  // namespace transer
