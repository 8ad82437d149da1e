// Tests for the crash-safe model artifact store: bit-identical pipeline
// snapshot round-trips for every registry classifier family, integrity
// rejection of truncated / bit-flipped / re-stamped / foreign files,
// and TransER's write-only artifact path: a run always trains, writes
// once at the end, and never reads what the path holds.

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

// ---------- TransER writes its artifact and never reads it ----------

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

/// What the snapshot path holds before a TransER run writes it.
enum class PriorArtifact {
  kNothing,
  kCompleteRandomForest,  ///< a complete RF artifact, same data and seed
  kWithoutCv,             ///< the run's own artifact with C^V dropped
  kFlippedByte,           ///< the run's own artifact with one byte flipped
  kForeignSchema,         ///< the run's own artifact under another schema
};

std::string PriorArtifactName(
    const ::testing::TestParamInfo<PriorArtifact>& info) {
  switch (info.param) {
    case PriorArtifact::kNothing:
      return "Nothing";
    case PriorArtifact::kCompleteRandomForest:
      return "CompleteRandomForest";
    case PriorArtifact::kWithoutCv:
      return "WithoutCv";
    case PriorArtifact::kFlippedByte:
      return "FlippedByte";
    case PriorArtifact::kForeignSchema:
      return "ForeignSchema";
  }
  return "Unknown";
}

using ArtifactNeverReadTest = ::testing::TestWithParam<PriorArtifact>;

// Whatever the path holds, an LR run trains SEL -> GEN -> TCL: it answers
// as a run with no path does, records no warm-start or rejection event,
// and leaves the bytes it writes onto an empty path.
TEST_P(ArtifactNeverReadTest, RunTrainsAndOverwritesWhateverThePathHolds) {
  const TransferPair pair = MakePair(91);
  const FeatureMatrix target = pair.target.WithoutLabels();
  const TransER transer;
  TransferRunOptions options;
  options.seed = 7;
  auto reference = transer.Run(pair.source, target, LrFactory(), options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  const std::string fresh = TempPath("never_read_fresh.tera");
  std::remove(fresh.c_str());
  options.model_snapshot_path = fresh;
  ASSERT_TRUE(transer.Run(pair.source, target, LrFactory(), options).ok());
  std::vector<uint8_t> fresh_bytes;
  ASSERT_TRUE(fault::ReadFileBytes(fresh, &fresh_bytes).ok());

  const std::string path = TempPath("never_read.tera");
  std::remove(path.c_str());
  switch (GetParam()) {
    case PriorArtifact::kNothing:
      break;
    case PriorArtifact::kCompleteRandomForest: {
      TransferRunOptions rf = options;
      rf.model_snapshot_path = path;
      ASSERT_TRUE(transer
                      .Run(pair.source, target,
                           [] { return std::make_unique<RandomForest>(); },
                           rf)
                      .ok());
      auto written = LoadTransERPipelineState(path);
      ASSERT_TRUE(written.ok()) << written.status().ToString();
      ASSERT_NE(written.value().classifier_v, nullptr);
      ASSERT_EQ(written.value().classifier_name, "random_forest");
      break;
    }
    case PriorArtifact::kWithoutCv: {
      auto loaded = LoadTransERPipelineState(fresh);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      TransERPipelineState partial = std::move(loaded).value();
      partial.classifier_v.reset();
      ASSERT_TRUE(SaveTransERPipelineState(partial, path).ok());
      break;
    }
    case PriorArtifact::kFlippedByte:
      ASSERT_TRUE(fault::WriteFileBytes(path, fresh_bytes).ok());
      ASSERT_TRUE(fault::FlipFileByte(path, fresh_bytes.size() / 2).ok());
      break;
    case PriorArtifact::kForeignSchema: {
      auto loaded = LoadTransERPipelineState(fresh);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      TransERPipelineState foreign = std::move(loaded).value();
      for (std::string& name : foreign.feature_names) name += "_other";
      ASSERT_TRUE(SaveTransERPipelineState(foreign, path).ok());
      break;
    }
  }

  options.model_snapshot_path = path;
  TransERReport report;
  auto run =
      transer.RunWithReport(pair.source, target, LrFactory(), options, &report);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run.value(), reference.value());
  EXPECT_TRUE(report.tcl_trained);
  EXPECT_FALSE(report.diagnostics.HasKind(DegradationKind::kModelWarmStarted));
  EXPECT_FALSE(
      report.diagnostics.HasKind(DegradationKind::kModelArtifactRejected));
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(fault::ReadFileBytes(path, &bytes).ok());
  EXPECT_EQ(bytes, fresh_bytes);
  std::remove(fresh.c_str());
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    PathContents, ArtifactNeverReadTest,
    ::testing::Values(PriorArtifact::kNothing,
                      PriorArtifact::kCompleteRandomForest,
                      PriorArtifact::kWithoutCv, PriorArtifact::kFlippedByte,
                      PriorArtifact::kForeignSchema),
    PriorArtifactName);

TEST(ArtifactSaveTest, FailedSaveIsReportedOnceAndKeepsPredictions) {
  const TransferPair pair = MakePair(95);
  const FeatureMatrix target = pair.target.WithoutLabels();
  const TransER transer;
  TransferRunOptions options;
  options.seed = 7;
  auto reference = transer.Run(pair.source, target, LrFactory(), options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  options.model_snapshot_path =
      TempPath("model_store_test_missing_dir/model.tera");
  RunDiagnostics sink;
  options.diagnostics = &sink;
  TransERReport report;
  auto run =
      transer.RunWithReport(pair.source, target, LrFactory(), options, &report);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run.value(), reference.value());
  EXPECT_EQ(report.diagnostics.CountKind(DegradationKind::kModelSaveFailed),
            1u);
  EXPECT_EQ(sink.CountKind(DegradationKind::kModelSaveFailed), 1u);
}

TEST(ArtifactSaveTest, FailedRunLeavesThePathAsItWas) {
  const TransferPair pair = MakePair(96);
  const std::string path = TempPath("failed_run.tera");
  const std::vector<uint8_t> prior = {'n', 'o', 't', ' ', 'a', 'n', ' ',
                                      'a', 'r', 't', 'i', 'f', 'a', 'c',
                                      't'};
  ASSERT_TRUE(fault::WriteFileBytes(path, prior).ok());

  // Cancelled as TCL begins, after SEL and GEN have finished.
  CancellationToken token;
  const ExecutionContext context({}, &token, [&](const ProgressEvent& event) {
    if (event.stage == "tcl") token.Cancel();
  });
  TransferRunOptions options;
  options.seed = 7;
  options.context = &context;
  options.model_snapshot_path = path;
  auto run = TransER().Run(pair.source, pair.target.WithoutLabels(),
                           LrFactory(), options);
  ASSERT_FALSE(run.ok());
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(fault::ReadFileBytes(path, &bytes).ok());
  EXPECT_EQ(bytes, prior);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace transer
