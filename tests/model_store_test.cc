// Tests for the crash-safe model artifact store: bit-identical pipeline
// snapshot round-trips for every registry classifier family, integrity
// rejection of truncated / bit-flipped / re-stamped / foreign files,
// and the TransER warm-start / serve / fall-back-to-retraining
// semantics.

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/transer.h"
#include "data/feature_space_generator.h"
#include "ml/decision_tree.h"
#include "ml/knn_classifier.h"
#include "ml/linear_svm.h"
#include "ml/logistic_regression.h"
#include "ml/model_store.h"
#include "ml/naive_bayes.h"
#include "ml/random_forest.h"
#include "ml/threshold_classifier.h"
#include "testing/fault_injection.h"
#include "util/artifact_io.h"
#include "util/random.h"

namespace transer {
namespace {

const std::vector<std::string> kSchema = {"jaro", "jaccard", "trigram",
                                          "exact"};

/// Two-Gaussian binary problem (same shape as ml_test's blobs).
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

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// ---------- Round trips: every registry classifier family ----------

using MakeFn = std::unique_ptr<Classifier> (*)();

std::unique_ptr<Classifier> MakeDt() {
  return std::make_unique<DecisionTree>();
}
std::unique_ptr<Classifier> MakeRf() {
  RandomForestOptions options;
  options.num_trees = 8;
  return std::make_unique<RandomForest>(options);
}
std::unique_ptr<Classifier> MakeLr() {
  return std::make_unique<LogisticRegression>();
}
std::unique_ptr<Classifier> MakeSvm() {
  return std::make_unique<LinearSvm>();
}
std::unique_ptr<Classifier> MakeNb() {
  return std::make_unique<GaussianNaiveBayes>();
}
std::unique_ptr<Classifier> MakeKnn() {
  return std::make_unique<KnnClassifier>();
}
std::unique_ptr<Classifier> MakeThreshold() {
  return std::make_unique<ThresholdClassifier>();
}

/// A snapshot whose C^U is a `make` classifier fit on two blobs; C^V is
/// left null.
TransERPipelineState MakePipelineState(uint64_t seed, MakeFn make = MakeLr) {
  const Blobs train = MakeBlobs(50, kSchema.size(), 3.0, seed);
  TransERPipelineState state;
  state.feature_names = kSchema;
  state.seed = seed;
  state.source_rows = 100;
  state.target_rows = 6;
  state.selected_indices = {0, 7, 42, 99};
  state.pseudo_labels = {0, 1, 1, 0, 1, 0};
  state.pseudo_confidences = {0.1, 0.99, 0.8, 0.05, 1.0, 0.0};
  std::unique_ptr<Classifier> u = make();
  u->Fit(train.x, train.y);
  state.classifier_name = u->name();
  state.classifier_u = std::move(u);
  return state;
}

class ModelRoundTripTest : public ::testing::TestWithParam<MakeFn> {};

TEST_P(ModelRoundTripTest, SaveLoadPredictBitIdentical) {
  TransERPipelineState state = MakePipelineState(71, GetParam());
  const Blobs target_train = MakeBlobs(80, kSchema.size(), 2.5, 72);
  state.classifier_v = GetParam()();
  state.classifier_v->Fit(target_train.x, target_train.y);
  const std::string name = state.classifier_name;

  const std::string path = TempPath("roundtrip_" + name + ".tera");
  ASSERT_TRUE(SaveTransERPipelineState(state, path).ok());
  auto loaded = LoadTransERPipelineState(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const TransERPipelineState& got = loaded.value();
  EXPECT_EQ(got.classifier_name, name);
  EXPECT_EQ(got.feature_names, kSchema);
  ASSERT_NE(got.classifier_u, nullptr);
  ASSERT_NE(got.classifier_v, nullptr);

  // Bit-identical probabilities for C^U and C^V, at serial and at 8-lane
  // scoring: the loaded models must be indistinguishable from the ones
  // that were saved.
  const Blobs test = MakeBlobs(40, kSchema.size(), 3.0, 73);
  const std::pair<const Classifier*, const Classifier*> models[] = {
      {state.classifier_u.get(), got.classifier_u.get()},
      {state.classifier_v.get(), got.classifier_v.get()}};
  for (const auto& [original, restored] : models) {
    const std::vector<double> want = original->PredictProbaAll(test.x, 1);
    const std::vector<double> got_1 = restored->PredictProbaAll(test.x, 1);
    const std::vector<double> got_8 = restored->PredictProbaAll(test.x, 8);
    ASSERT_EQ(want.size(), got_1.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(want[i], got_1[i]) << name << " row " << i;
      EXPECT_EQ(want[i], got_8[i]) << name << " row " << i;
    }
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, ModelRoundTripTest,
                         ::testing::Values(MakeDt, MakeRf, MakeLr, MakeSvm,
                                           MakeNb, MakeKnn, MakeThreshold));

TEST(ModelStoreTest, UnsaveableClassifierRefusesCleanly) {
  // A user subclass without SaveState must be refused, not written as an
  // empty model section.
  class Custom : public Classifier {
   public:
    void Fit(const Matrix&, const std::vector<int>&,
             const std::vector<double>&) override {}
    double PredictProba(std::span<const double>) const override {
      return 0.5;
    }
    std::string name() const override { return "custom"; }
  };
  TransERPipelineState state = MakePipelineState(74);
  state.classifier_u = std::make_unique<Custom>();
  state.classifier_name = "custom";
  const std::string path = TempPath("custom.tera");
  std::remove(path.c_str());
  const Status status = SaveTransERPipelineState(state, path);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  std::vector<uint8_t> bytes;
  EXPECT_FALSE(fault::ReadFileBytes(path, &bytes).ok());
}

// ---------- Rejection: missing, foreign, tampered ----------

TEST(ModelStoreTest, MissingFileIsNotFound) {
  auto loaded = LoadTransERPipelineState(TempPath("nonexistent.tera"));
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(ModelStoreTest, KindMismatchIsFailedPrecondition) {
  // A well-formed artifact of another kind is refused by its identity,
  // before any of its sections is parsed.
  artifact::Header header;
  header.kind = "stream_snapshot";
  header.schema_fingerprint = artifact::FingerprintFeatureSchema(kSchema);
  const std::string path = TempPath("kind_mismatch.tera");
  ASSERT_TRUE(
      artifact::WriteArtifact(path, header, {{"meta", {1, 2, 3}}}).ok());
  auto loaded = LoadTransERPipelineState(path);
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(ModelStoreTest, FutureFormatVersionIsFailedPrecondition) {
  const std::string path = TempPath("future_version.tera");
  ASSERT_TRUE(SaveTransERPipelineState(MakePipelineState(76), path).ok());

  // Bump the version field (right after the 4-byte magic) and re-stamp
  // the whole-file trailer CRC so only the version check can object.
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(fault::ReadFileBytes(path, &bytes).ok());
  ASSERT_GT(bytes.size(), 8u);
  bytes[4] = static_cast<uint8_t>(artifact::kFormatVersion + 1);
  const uint32_t crc = artifact::Crc32(bytes.data(), bytes.size() - 4);
  for (int b = 0; b < 4; ++b) {
    bytes[bytes.size() - 4 + b] =
        static_cast<uint8_t>((crc >> (8 * b)) & 0xFF);
  }
  ASSERT_TRUE(fault::WriteFileBytes(path, bytes).ok());

  auto loaded = LoadTransERPipelineState(path);
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(ModelStoreTest, EveryTruncationIsRejectedCleanly) {
  // The threshold family gives the smallest snapshot, so every prefix
  // stays testable.
  const std::string path = TempPath("truncation.tera");
  ASSERT_TRUE(
      SaveTransERPipelineState(MakePipelineState(77, MakeThreshold), path)
          .ok());
  std::vector<uint8_t> pristine;
  ASSERT_TRUE(fault::ReadFileBytes(path, &pristine).ok());

  const std::string torn = TempPath("truncation_torn.tera");
  for (size_t keep = 0; keep < pristine.size(); ++keep) {
    std::vector<uint8_t> prefix(pristine.begin(), pristine.begin() + keep);
    ASSERT_TRUE(fault::WriteFileBytes(torn, prefix).ok());
    auto loaded = LoadTransERPipelineState(torn);
    EXPECT_FALSE(loaded.ok()) << "prefix of " << keep << " bytes accepted";
  }
  std::remove(path.c_str());
  std::remove(torn.c_str());
}

/// Appends a weight vector in the culled layout older builds could
/// write: an all-ones count sentinel, the dimension, the stored count,
/// then (u32 index, f64 value) pairs.
void PutCulledWeights(artifact::Encoder* out) {
  out->PutU64(0xFFFFFFFFFFFFFFFFull);
  out->PutU64(4);  // dimension
  out->PutU64(2);  // stored entries
  out->PutU32(0);
  out->PutDouble(0.5);
  out->PutU32(3);
  out->PutDouble(-1.25);
}

TEST(ModelStoreTest, CulledWeightLayoutIsRefusedNotMigrated) {
  // Weights are stored densely only. A culled vector's sentinel count
  // exceeds the payload, so a state holding one is refused.
  artifact::Encoder lr_state;
  lr_state.PutDouble(0.1);  // learning_rate
  lr_state.PutDouble(1e-4);  // l2
  lr_state.PutI64(200);  // epochs
  lr_state.PutU64(1);  // seed
  PutCulledWeights(&lr_state);
  lr_state.PutDouble(0.25);  // bias
  artifact::Decoder lr_in(lr_state.bytes());
  LogisticRegression lr;
  EXPECT_EQ(lr.LoadState(&lr_in).code(), StatusCode::kInvalidArgument);

  artifact::Encoder svm_state;
  svm_state.PutDouble(1e-3);  // lambda
  svm_state.PutI64(200);  // epochs
  svm_state.PutU64(2);  // seed
  PutCulledWeights(&svm_state);
  svm_state.PutDouble(0.25);  // bias
  svm_state.PutDouble(1.0);  // platt_a
  svm_state.PutDouble(0.0);  // platt_b
  artifact::Decoder svm_in(svm_state.bytes());
  LinearSvm svm;
  EXPECT_EQ(svm.LoadState(&svm_in).code(), StatusCode::kInvalidArgument);
}

// ---------- TransER pipeline snapshots ----------

TEST(PipelineSnapshotTest, RoundTripPreservesEverything) {
  TransERPipelineState state = MakePipelineState(81);
  auto v = std::make_unique<LogisticRegression>();
  const Blobs target_train = MakeBlobs(50, kSchema.size(), 2.0, 82);
  v->Fit(target_train.x, target_train.y);
  state.classifier_v = std::move(v);

  const std::string path = TempPath("pipeline_roundtrip.tera");
  ASSERT_TRUE(SaveTransERPipelineState(state, path).ok());
  auto loaded = LoadTransERPipelineState(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const TransERPipelineState& got = loaded.value();
  EXPECT_EQ(got.feature_names, state.feature_names);
  EXPECT_EQ(got.seed, state.seed);
  EXPECT_EQ(got.source_rows, state.source_rows);
  EXPECT_EQ(got.target_rows, state.target_rows);
  EXPECT_EQ(got.selected_indices, state.selected_indices);
  EXPECT_EQ(got.pseudo_labels, state.pseudo_labels);
  EXPECT_EQ(got.pseudo_confidences, state.pseudo_confidences);
  EXPECT_EQ(got.classifier_name, state.classifier_name);
  ASSERT_NE(got.classifier_u, nullptr);
  ASSERT_NE(got.classifier_v, nullptr);

  const Blobs probe = MakeBlobs(20, kSchema.size(), 3.0, 83);
  EXPECT_EQ(got.classifier_u->PredictProbaAll(probe.x, 1),
            state.classifier_u->PredictProbaAll(probe.x, 1));
  EXPECT_EQ(got.classifier_v->PredictProbaAll(probe.x, 1),
            state.classifier_v->PredictProbaAll(probe.x, 1));
  std::remove(path.c_str());
}

TEST(PipelineSnapshotTest, SnapshotWithoutTclLoadsWithNullV) {
  TransERPipelineState state = MakePipelineState(84);
  const std::string path = TempPath("pipeline_no_v.tera");
  ASSERT_TRUE(SaveTransERPipelineState(state, path).ok());
  auto loaded = LoadTransERPipelineState(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_NE(loaded.value().classifier_u, nullptr);
  EXPECT_EQ(loaded.value().classifier_v, nullptr);
  std::remove(path.c_str());
}

TEST(PipelineSnapshotTest, InvalidStatesAreRefusedAtSaveTime) {
  TransERPipelineState no_u = MakePipelineState(85);
  no_u.classifier_u.reset();
  EXPECT_FALSE(
      SaveTransERPipelineState(no_u, TempPath("bad1.tera")).ok());

  TransERPipelineState short_labels = MakePipelineState(86);
  short_labels.pseudo_labels.pop_back();
  EXPECT_FALSE(
      SaveTransERPipelineState(short_labels, TempPath("bad2.tera")).ok());
}

TEST(PipelineSnapshotTest, EveryByteFlipOfSnapshotIsRejected) {
  TransERPipelineState state = MakePipelineState(87);
  const std::string path = TempPath("pipeline_fuzz.tera");
  ASSERT_TRUE(SaveTransERPipelineState(state, path).ok());
  std::vector<uint8_t> pristine;
  ASSERT_TRUE(fault::ReadFileBytes(path, &pristine).ok());

  const std::string mutated = TempPath("pipeline_fuzz_mut.tera");
  for (size_t offset = 0; offset < pristine.size(); ++offset) {
    ASSERT_TRUE(fault::WriteFileBytes(mutated, pristine).ok());
    ASSERT_TRUE(fault::FlipFileByte(mutated, offset).ok());
    auto loaded = LoadTransERPipelineState(mutated);
    EXPECT_FALSE(loaded.ok()) << "flip at offset " << offset << " accepted";
  }
  std::remove(path.c_str());
  std::remove(mutated.c_str());
}

// ---------- TransER warm start / serve / fall back ----------

struct TransferPair {
  FeatureMatrix source;
  FeatureMatrix target;
};

TransferPair MakePair(uint64_t seed) {
  FeatureSpaceGenerator generator({4, 40, seed});
  FeatureDomainSpec source;
  source.num_instances = 400;
  source.match_fraction = 0.3;
  source.seed = seed + 1;
  FeatureDomainSpec target = source;
  target.mode_shift = -0.04;
  target.seed = seed + 2;
  return {generator.Generate(source), generator.Generate(target)};
}

ClassifierFactory LrFactory() {
  return []() -> std::unique_ptr<Classifier> {
    return std::make_unique<LogisticRegression>();
  };
}

TEST(WarmStartTest, ServeAndResumeMatchColdRunExactly) {
  const TransferPair pair = MakePair(91);
  const std::string path = TempPath("warmstart.tera");
  std::remove(path.c_str());
  TransER transer;
  TransferRunOptions options;
  options.seed = 7;
  options.model_snapshot_path = path;

  // Cold run: trains everything, snapshots after GEN and after TCL.
  TransERReport cold_report;
  auto cold = transer.RunWithReport(pair.source,
                                    pair.target.WithoutLabels(),
                                    LrFactory(), options, &cold_report);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE(cold_report.warm_started);

  // Second run finds the complete snapshot and serves from C^V without
  // training; predictions are bit-identical.
  TransERReport serve_report;
  auto served = transer.RunWithReport(pair.source,
                                      pair.target.WithoutLabels(),
                                      LrFactory(), options, &serve_report);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_TRUE(serve_report.served_from_snapshot);
  EXPECT_TRUE(
      serve_report.diagnostics.HasKind(DegradationKind::kModelWarmStarted));
  EXPECT_EQ(cold.value(), served.value());

  // Strip C^V to emulate a crash between GEN and TCL: the next run
  // resumes at TCL from the stored pseudo labels and still reproduces
  // the cold predictions exactly (TCL re-seeds from the run seed).
  auto snapshot = LoadTransERPipelineState(path);
  ASSERT_TRUE(snapshot.ok());
  TransERPipelineState partial = std::move(snapshot).value();
  partial.classifier_v.reset();
  ASSERT_TRUE(SaveTransERPipelineState(partial, path).ok());

  TransERReport resume_report;
  auto resumed = transer.RunWithReport(pair.source,
                                       pair.target.WithoutLabels(),
                                       LrFactory(), options, &resume_report);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resume_report.warm_started);
  EXPECT_FALSE(resume_report.served_from_snapshot);
  EXPECT_EQ(cold.value(), resumed.value());
  std::remove(path.c_str());
}

TEST(WarmStartTest, IncompatibleSnapshotIsIgnoredWithEvent) {
  const TransferPair pair = MakePair(92);
  const std::string path = TempPath("warmstart_incompat.tera");
  std::remove(path.c_str());
  TransER transer;
  TransferRunOptions options;
  options.seed = 7;
  options.model_snapshot_path = path;

  TransERReport cold_report;
  auto cold = transer.RunWithReport(pair.source,
                                    pair.target.WithoutLabels(),
                                    LrFactory(), options, &cold_report);
  ASSERT_TRUE(cold.ok());

  // A different seed breaks the compatibility contract: the run must
  // retrain (recording the rejection) and match its own cold result.
  TransferRunOptions other_seed = options;
  other_seed.seed = 8;
  TransERReport report;
  auto rerun = transer.RunWithReport(pair.source,
                                     pair.target.WithoutLabels(),
                                     LrFactory(), other_seed, &report);
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  EXPECT_FALSE(report.warm_started);
  EXPECT_TRUE(
      report.diagnostics.HasKind(DegradationKind::kModelArtifactRejected));
  std::remove(path.c_str());
}

TEST(WarmStartTest, SnapshotFromAnotherSchemaIsRejectedAndRetrained) {
  const TransferPair pair = MakePair(94);
  const std::string path = TempPath("warmstart_schema.tera");
  std::remove(path.c_str());
  TransER transer;
  TransferRunOptions options;
  options.seed = 7;
  options.model_snapshot_path = path;

  TransERReport cold_report;
  auto cold = transer.RunWithReport(pair.source,
                                    pair.target.WithoutLabels(),
                                    LrFactory(), options, &cold_report);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();

  // Re-publish the complete snapshot bound to another feature schema of
  // the same width: seed and domain sizes still agree with the run, so
  // only the schema binding can refuse it.
  auto snapshot = LoadTransERPipelineState(path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  TransERPipelineState foreign = std::move(snapshot).value();
  ASSERT_NE(foreign.classifier_v, nullptr);
  for (std::string& name : foreign.feature_names) name += "_other";
  ASSERT_TRUE(SaveTransERPipelineState(foreign, path).ok());

  TransERReport report;
  auto rerun = transer.RunWithReport(pair.source,
                                     pair.target.WithoutLabels(),
                                     LrFactory(), options, &report);
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  EXPECT_FALSE(report.warm_started);
  EXPECT_FALSE(report.served_from_snapshot);
  EXPECT_TRUE(
      report.diagnostics.HasKind(DegradationKind::kModelArtifactRejected));
  EXPECT_FALSE(report.diagnostics.HasKind(DegradationKind::kModelWarmStarted));
  EXPECT_EQ(cold.value(), rerun.value());
  std::remove(path.c_str());
}

TEST(WarmStartTest, CorruptSnapshotFallsBackToRetraining) {
  const TransferPair pair = MakePair(93);
  const std::string path = TempPath("warmstart_corrupt.tera");
  std::remove(path.c_str());
  TransER transer;
  TransferRunOptions options;
  options.seed = 11;

  // Reference run with no snapshotting at all.
  auto reference = transer.Run(pair.source, pair.target.WithoutLabels(),
                               LrFactory(), options);
  ASSERT_TRUE(reference.ok());

  // Cold run writes the snapshot; then a byte of it rots.
  options.model_snapshot_path = path;
  TransERReport cold_report;
  ASSERT_TRUE(transer
                  .RunWithReport(pair.source, pair.target.WithoutLabels(),
                                 LrFactory(), options, &cold_report)
                  .ok());
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(fault::ReadFileBytes(path, &bytes).ok());
  ASSERT_TRUE(fault::FlipFileByte(path, bytes.size() / 2).ok());

  TransERReport report;
  auto recovered = transer.RunWithReport(pair.source,
                                         pair.target.WithoutLabels(),
                                         LrFactory(), options, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_FALSE(report.warm_started);
  EXPECT_TRUE(
      report.diagnostics.HasKind(DegradationKind::kModelArtifactRejected));
  EXPECT_EQ(reference.value(), recovered.value());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace transer
