// Tests for the serving model repository: directory scan and schema
// indexing, deterministic selection (fingerprint first, SEL-style
// centroid probe fallback), hot reload on change, and the bounded
// retry/backoff path — proven to give up cleanly against the partial-
// write/ENOSPC fault injector and to recover the moment the file is
// repaired.

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ml/logistic_regression.h"
#include "ml/model_store.h"
#include "ml/naive_bayes.h"
#include "serve/model_repository.h"
#include "serve/retry.h"
#include "testing/fault_injection.h"
#include "util/artifact_io.h"
#include "util/random.h"

namespace transer {
namespace serve {
namespace {

namespace fs = std::filesystem;

const std::vector<std::string> kSchemaA = {"jaro", "jaccard", "trigram"};
const std::vector<std::string> kSchemaB = {"cosine", "lcs", "exact"};
const std::vector<std::string> kSchemaC = {"soundex", "numeric", "prefix"};

/// A unique per-test scratch directory.
std::string MakeModelDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/repo_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Minimal valid pipeline snapshot: a trained classifier over blobs,
/// empty GEN state, optional C^V and optional domain profile.
TransERPipelineState MakeState(const std::vector<std::string>& names,
                               std::vector<double> centroid, bool with_v,
                               uint64_t seed,
                               bool naive_bayes_family = false) {
  Rng rng(seed);
  const size_t dims = names.size();
  Matrix x(80, dims);
  std::vector<int> y(80);
  for (size_t i = 0; i < 80; ++i) {
    y[i] = i < 40 ? 0 : 1;
    for (size_t d = 0; d < dims; ++d) {
      x(i, d) = rng.Gaussian(y[i] == 0 ? 0.0 : 3.0, 1.0);
    }
  }
  auto make = [&]() -> std::unique_ptr<Classifier> {
    if (naive_bayes_family) return std::make_unique<GaussianNaiveBayes>();
    return std::make_unique<LogisticRegression>();
  };
  TransERPipelineState state;
  state.feature_names = names;
  state.seed = seed;
  state.source_rows = 100;
  state.target_rows = 0;
  state.target_centroid = std::move(centroid);
  auto u = make();
  u->Fit(x, y);
  state.classifier_name = u->name();
  state.classifier_u = std::move(u);
  if (with_v) {
    auto v = make();
    v->Fit(x, y);
    state.classifier_v = std::move(v);
  }
  return state;
}

void SaveStateOrDie(const TransERPipelineState& state,
                    const std::string& path) {
  const Status saved = SaveTransERPipelineState(state, path);
  ASSERT_TRUE(saved.ok()) << saved.ToString();
}

/// Bumps a file's mtime well past its current value so a rescan sees a
/// change without the test sleeping.
void BumpMtime(const std::string& path) {
  const auto now = fs::last_write_time(path);
  fs::last_write_time(path, now + std::chrono::seconds(2));
}

RepositoryOptions FastOptions(const std::string& dir) {
  RepositoryOptions options;
  options.directory = dir;
  options.refresh_interval_seconds = 0.0;
  options.retry.max_attempts = 3;
  options.retry.initial_backoff_ms = 10.0;
  options.retry.backoff_multiplier = 2.0;
  return options;
}

TEST(ModelRepositoryTest, IndexesAndSelectsByFingerprint) {
  const std::string dir = MakeModelDir("fingerprint");
  SaveStateOrDie(MakeState(kSchemaA, {}, true, 1), dir + "/a.tera");
  SaveStateOrDie(MakeState(kSchemaB, {}, true, 2), dir + "/b.tera");

  ModelRepository repository(FastOptions(dir));
  const RefreshReport report = repository.ForceRescan();
  EXPECT_EQ(report.files_seen, 2u);
  EXPECT_EQ(report.loaded, 2u);
  EXPECT_EQ(repository.size(), 2u);

  auto selected = repository.Select(kSchemaA, {});
  ASSERT_TRUE(selected.ok()) << selected.status().ToString();
  EXPECT_EQ(selected.value().model->id, "a.tera");
  EXPECT_TRUE(selected.value().by_fingerprint);

  // Unknown schema, no centroid to probe with -> NotFound.
  auto missing = repository.Select(kSchemaC, {});
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(ModelRepositoryTest, PrefersTrainedCvAmongFingerprintMatches) {
  const std::string dir = MakeModelDir("prefer_cv");
  SaveStateOrDie(MakeState(kSchemaA, {}, false, 1), dir + "/resume_only.tera");
  SaveStateOrDie(MakeState(kSchemaA, {}, true, 2), dir + "/full.tera");

  ModelRepository repository(FastOptions(dir));
  repository.ForceRescan();
  auto selected = repository.Select(kSchemaA, {});
  ASSERT_TRUE(selected.ok());
  EXPECT_EQ(selected.value().model->id, "full.tera");
  EXPECT_TRUE(selected.value().model->has_classifier_v);
}

TEST(ModelRepositoryTest, CentroidProbeServesForeignSchema) {
  const std::string dir = MakeModelDir("probe");
  SaveStateOrDie(MakeState(kSchemaB, {0.5, 0.5, 0.5}, true, 3),
                 dir + "/profiled.tera");

  ModelRepository repository(FastOptions(dir));
  repository.ForceRescan();

  // Same width, different names, near-identical domain -> probe hit.
  auto near = repository.Select(kSchemaC, std::vector<double>{0.5, 0.5, 0.5});
  ASSERT_TRUE(near.ok()) << near.status().ToString();
  EXPECT_FALSE(near.value().by_fingerprint);
  EXPECT_NEAR(near.value().probe_similarity, 1.0, 1e-12);

  // A distant domain falls below the similarity floor.
  auto far = repository.Select(kSchemaC, std::vector<double>{0.0, 0.0, 0.0});
  ASSERT_FALSE(far.ok());
  EXPECT_EQ(far.status().code(), StatusCode::kNotFound);
}

TEST(ModelRepositoryTest, ProbeRespectsSimilarityFloor) {
  const std::string dir = MakeModelDir("probe_floor");
  SaveStateOrDie(MakeState(kSchemaB, {0.5, 0.5, 0.5}, true, 4),
                 dir + "/profiled.tera");
  // Offset of 0.08 per axis: similarity exp(-5 * 0.08) ~ 0.67.
  const std::vector<double> request_centroid = {0.58, 0.58, 0.58};

  RepositoryOptions strict = FastOptions(dir);
  strict.min_probe_similarity = 0.9;
  ModelRepository strict_repository(strict);
  strict_repository.ForceRescan();
  EXPECT_FALSE(strict_repository.Select(kSchemaC, request_centroid).ok());

  RepositoryOptions lenient = FastOptions(dir);
  lenient.min_probe_similarity = 0.5;
  ModelRepository lenient_repository(lenient);
  lenient_repository.ForceRescan();
  auto selected = lenient_repository.Select(kSchemaC, request_centroid);
  ASSERT_TRUE(selected.ok());
  EXPECT_GT(selected.value().probe_similarity, 0.6);
  EXPECT_LT(selected.value().probe_similarity, 0.75);
}

TEST(ModelRepositoryTest, HotReloadsChangedArtifact) {
  const std::string dir = MakeModelDir("hot_reload");
  const std::string path = dir + "/model.tera";
  SaveStateOrDie(MakeState(kSchemaA, {}, true, 5), path);

  ModelRepository repository(FastOptions(dir));
  repository.ForceRescan();
  ASSERT_EQ(repository.size(), 1u);
  EXPECT_EQ(repository.Models()[0]->classifier_kind, "logistic_regression");

  // Unchanged file: the rescan must not re-read it.
  const RefreshReport unchanged = repository.ForceRescan();
  EXPECT_EQ(unchanged.unchanged, 1u);
  EXPECT_EQ(unchanged.loaded + unchanged.reloaded, 0u);

  // Swap in a different family and bump mtime: the rescan hot-reloads.
  SaveStateOrDie(MakeState(kSchemaA, {}, true, 6, /*naive_bayes=*/true),
                 path);
  BumpMtime(path);
  const RefreshReport swapped = repository.ForceRescan();
  EXPECT_EQ(swapped.reloaded, 1u);
  EXPECT_EQ(repository.Models()[0]->classifier_kind, "naive_bayes");
}

TEST(ModelRepositoryTest, RemovesVanishedArtifacts) {
  const std::string dir = MakeModelDir("vanish");
  SaveStateOrDie(MakeState(kSchemaA, {}, true, 7), dir + "/a.tera");
  SaveStateOrDie(MakeState(kSchemaB, {}, true, 8), dir + "/b.tera");

  ModelRepository repository(FastOptions(dir));
  repository.ForceRescan();
  ASSERT_EQ(repository.size(), 2u);
  fs::remove(dir + "/b.tera");
  const RefreshReport report = repository.ForceRescan();
  EXPECT_EQ(report.removed, 1u);
  EXPECT_EQ(repository.size(), 1u);
  EXPECT_FALSE(repository.Select(kSchemaB, {}).ok());
}

TEST(ModelRepositoryTest, FileDeletedMidScanIsSkippedNotQuarantined) {
  const std::string dir = MakeModelDir("toctou");
  SaveStateOrDie(MakeState(kSchemaA, {}, true, 11), dir + "/keep.tera");
  SaveStateOrDie(MakeState(kSchemaB, {}, true, 12), dir + "/racy.tera");

  // Race the scan deterministically: a publisher deletes racy.tera
  // after the directory enumeration saw it but before the load opens it
  // — the classic TOCTOU window. One deletion only, so later rescans
  // see whatever is republished under the name.
  RepositoryOptions options = FastOptions(dir);
  int deletions = 0;
  options.before_load_hook = [&](const std::string& path) {
    if (deletions == 0 && path == dir + "/racy.tera") {
      ++deletions;
      fs::remove(path);
    }
  };
  std::vector<double> sleeps;
  ModelRepository repository(options,
                             [&](double ms) { sleeps.push_back(ms); });
  const RefreshReport report = repository.ForceRescan();

  // The vanished file is not a corrupt artifact: no quarantine entry,
  // and the retry budget was not burned waiting for it to reappear
  // (NotFound is permanent, so no backoff sleeps happened).
  EXPECT_TRUE(sleeps.empty());
  EXPECT_EQ(report.quarantined, 0u);
  EXPECT_EQ(repository.quarantined_count(), 0u);
  EXPECT_TRUE(
      report.diagnostics.HasKind(DegradationKind::kServeArtifactRetried));
  EXPECT_EQ(repository.size(), 1u);
  EXPECT_TRUE(repository.Select(kSchemaA, {}).ok());
  EXPECT_FALSE(repository.Select(kSchemaB, {}).ok());

  // The next publish under the same name is indexed cleanly — the whole
  // point of not poisoning the path with a quarantine entry.
  options.before_load_hook = nullptr;
  SaveStateOrDie(MakeState(kSchemaB, {}, true, 13), dir + "/racy.tera");
  ModelRepository fresh(options);
  fresh.ForceRescan();
  EXPECT_EQ(fresh.size(), 2u);
  EXPECT_TRUE(fresh.Select(kSchemaB, {}).ok());

  // And the SAME repository that saw the race re-indexes it too.
  BumpMtime(dir + "/racy.tera");
  const RefreshReport rescan = repository.ForceRescan();
  EXPECT_EQ(rescan.loaded, 1u);
  EXPECT_EQ(repository.size(), 2u);
}

TEST(ModelRepositoryTest, MissingDirectoryDegradesCleanly) {
  ModelRepository repository(
      FastOptions(::testing::TempDir() + "/repo_does_not_exist"));
  const RefreshReport report = repository.ForceRescan();
  EXPECT_EQ(report.files_seen, 0u);
  EXPECT_TRUE(report.diagnostics.HasKind(
      DegradationKind::kModelArtifactRejected));
  EXPECT_EQ(repository.size(), 0u);
  EXPECT_FALSE(repository.Select(kSchemaA, {}).ok());
}

// ---------- Bounded retry / quarantine (the satellite's proof) -------

TEST(ModelRepositoryTest, CorruptArtifactQuarantinedAfterRetryBudget) {
  const std::string dir = MakeModelDir("quarantine");
  SaveStateOrDie(MakeState(kSchemaA, {}, true, 9), dir + "/good.tera");
  ASSERT_TRUE(fault::WriteFileBytes(dir + "/bad.tera",
                                    {0xDE, 0xAD, 0xBE, 0xEF})
                  .ok());

  std::vector<double> sleeps;
  ModelRepository repository(FastOptions(dir),
                             [&](double ms) { sleeps.push_back(ms); });
  const RefreshReport report = repository.ForceRescan();

  // The retry budget: 3 attempts, so exactly 2 exponential backoffs.
  ASSERT_EQ(sleeps.size(), 2u);
  EXPECT_DOUBLE_EQ(sleeps[0], 10.0);
  EXPECT_DOUBLE_EQ(sleeps[1], 20.0);
  EXPECT_EQ(report.quarantined, 1u);
  EXPECT_EQ(
      report.diagnostics.CountKind(DegradationKind::kServeArtifactRetried),
      2u);
  EXPECT_TRUE(
      report.diagnostics.HasKind(DegradationKind::kModelArtifactRejected));
  EXPECT_EQ(repository.quarantined_count(), 1u);
  // The good artifact still serves.
  EXPECT_EQ(repository.size(), 1u);
  EXPECT_TRUE(repository.Select(kSchemaA, {}).ok());

  // An unchanged quarantined file is NOT re-probed: no new sleeps.
  const RefreshReport again = repository.ForceRescan();
  EXPECT_EQ(again.still_quarantined, 1u);
  EXPECT_EQ(again.quarantined, 0u);
  EXPECT_EQ(sleeps.size(), 2u);

  // Repairing the file (new mtime) lifts the quarantine.
  SaveStateOrDie(MakeState(kSchemaB, {}, true, 10), dir + "/bad.tera");
  BumpMtime(dir + "/bad.tera");
  const RefreshReport repaired = repository.ForceRescan();
  EXPECT_EQ(repaired.loaded, 1u);
  EXPECT_EQ(repository.quarantined_count(), 0u);
  EXPECT_EQ(repository.size(), 2u);
}

TEST(ModelRepositoryTest, EnospcTornWriteGivesUpCleanly) {
  const std::string dir = MakeModelDir("enospc");
  const std::string path = dir + "/torn.tera";

  // Produce a complete artifact, then re-write it through the ENOSPC
  // injector: the write fails mid-way and leaves a torn prefix on disk,
  // exactly what a full disk plus a non-atomic writer produces.
  SaveStateOrDie(MakeState(kSchemaA, {}, true, 11), path);
  std::vector<uint8_t> full_bytes;
  ASSERT_TRUE(fault::ReadFileBytes(path, &full_bytes).ok());
  ASSERT_GT(full_bytes.size(), 64u);
  {
    fault::ScopedPartialWriteFault fault(/*bytes_before_failure=*/48);
    const Status torn = fault::WriteFileBytes(path, full_bytes);
    ASSERT_FALSE(torn.ok());
    EXPECT_EQ(torn.code(), StatusCode::kIoError);
    EXPECT_NE(torn.message().find("injected"), std::string::npos);
    EXPECT_EQ(fault.injected_failures(), 1u);
  }
  std::vector<uint8_t> torn_bytes;
  ASSERT_TRUE(fault::ReadFileBytes(path, &torn_bytes).ok());
  ASSERT_EQ(torn_bytes.size(), 48u);  // the torn prefix survived

  std::vector<double> sleeps;
  ModelRepository repository(FastOptions(dir),
                             [&](double ms) { sleeps.push_back(ms); });
  const RefreshReport report = repository.ForceRescan();

  // The loader sees a torn container (transient class), burns exactly
  // its bounded budget, then gives up cleanly into quarantine.
  EXPECT_EQ(sleeps.size(), 2u);
  EXPECT_EQ(report.quarantined, 1u);
  EXPECT_EQ(repository.size(), 0u);
  EXPECT_EQ(repository.quarantined_count(), 1u);

  // Completing the write (as a recovered disk would) restores service.
  ASSERT_TRUE(fault::WriteFileBytes(path, full_bytes).ok());
  BumpMtime(path);
  const RefreshReport recovered = repository.ForceRescan();
  EXPECT_EQ(recovered.loaded, 1u);
  EXPECT_EQ(repository.quarantined_count(), 0u);
  EXPECT_TRUE(repository.Select(kSchemaA, {}).ok());
}

TEST(ModelRepositoryTest, PermanentErrorsAreNotRetried) {
  // A well-formed artifact of another kind fails with FailedPrecondition:
  // permanent, so no backoff is burned on it.
  const std::string dir = MakeModelDir("permanent");
  artifact::Header header;
  header.kind = "classifier";
  header.schema_fingerprint = artifact::FingerprintFeatureSchema(kSchemaA);
  ASSERT_TRUE(artifact::WriteArtifact(dir + "/clf.tera", header,
                                      {{"meta", {1, 2, 3}}})
                  .ok());

  std::vector<double> sleeps;
  ModelRepository repository(FastOptions(dir),
                             [&](double ms) { sleeps.push_back(ms); });
  const RefreshReport report = repository.ForceRescan();
  EXPECT_EQ(sleeps.size(), 0u);
  EXPECT_EQ(report.quarantined, 1u);
  EXPECT_EQ(repository.size(), 0u);
}

TEST(RetryTest, BackoffGrowsExponentiallyUnderCap) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 10.0;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_ms = 50.0;
  EXPECT_DOUBLE_EQ(BackoffMilliseconds(policy, 0), 10.0);
  EXPECT_DOUBLE_EQ(BackoffMilliseconds(policy, 1), 20.0);
  EXPECT_DOUBLE_EQ(BackoffMilliseconds(policy, 2), 40.0);
  EXPECT_DOUBLE_EQ(BackoffMilliseconds(policy, 3), 50.0);  // capped
  EXPECT_DOUBLE_EQ(BackoffMilliseconds(policy, 9), 50.0);
}

TEST(RetryTest, StopsOnFirstNonRetryableStatus) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  int calls = 0;
  const Status status = RetryWithBackoff(
      policy, "test",
      [&]() -> Status {
        ++calls;
        return Status::NotFound("gone");
      },
      IsTransientArtifactError, [](double) {});
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST(ModelRepositoryTest, MaybeRefreshIsDebouncedByTheRescanFloor) {
  const std::string dir = MakeModelDir("debounce");
  SaveStateOrDie(MakeState(kSchemaA, {}, true, 1), dir + "/a.tera");

  RepositoryOptions options = FastOptions(dir);
  // refresh_interval_seconds = 0 asks for "every call", but the floor
  // still bounds how often per-request freshness checks can stat() the
  // directory under load.
  options.min_rescan_interval_seconds = 3600.0;
  ModelRepository repository(options);

  EXPECT_TRUE(repository.MaybeRefresh());  // first call always scans
  EXPECT_EQ(repository.refresh_count(), 1u);
  for (int i = 0; i < 16; ++i) {
    EXPECT_FALSE(repository.MaybeRefresh());
  }
  EXPECT_EQ(repository.refresh_count(), 1u);

  // ForceRescan bypasses the floor (tests, admin-triggered hot swaps).
  repository.ForceRescan();
  EXPECT_EQ(repository.refresh_count(), 2u);
  EXPECT_FALSE(repository.MaybeRefresh());
}

TEST(ModelRepositoryTest, MaybeRefreshWithZeroFloorScansEveryCall) {
  const std::string dir = MakeModelDir("debounce_zero");
  SaveStateOrDie(MakeState(kSchemaA, {}, true, 1), dir + "/a.tera");

  RepositoryOptions options = FastOptions(dir);
  options.min_rescan_interval_seconds = 0.0;
  ModelRepository repository(options);
  EXPECT_TRUE(repository.MaybeRefresh());
  EXPECT_TRUE(repository.MaybeRefresh());
  EXPECT_EQ(repository.refresh_count(), 2u);
}

}  // namespace
}  // namespace serve
}  // namespace transer
