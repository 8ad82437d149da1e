// Tests for the crash-safe streaming subsystem (src/stream): the
// incremental blocking index and dynamic k-NN building blocks, the
// deterministic StreamResolver state machine (digest-checked replay
// determinism, thread invariance, poison quarantine), snapshot
// save/load/compaction with its fallback policy, and the live-serve
// continuity path (PublishTo -> ModelRepository hot swap). The
// SIGKILL-based crash matrix lives in stream_crash_test.cc; this file
// covers every recovery path reachable in-process.

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "knn/brute_force.h"
#include "linalg/matrix.h"
#include "ml/model_store.h"
#include "serve/model_repository.h"
#include "stream/dynamic_knn.h"
#include "stream/incremental_blocking.h"
#include "stream/stream_ingestor.h"
#include "stream/stream_resolver.h"
#include "testing/fault_injection.h"
#include "util/diagnostics.h"
#include "util/status.h"
#include "util/string_util.h"

namespace transer {
namespace stream {
namespace {

namespace fs = std::filesystem;

std::string MakeStreamDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/stream_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void BumpMtime(const std::string& path) {
  const auto now = fs::last_write_time(path);
  fs::last_write_time(path, now + std::chrono::seconds(2));
}

/// The same deterministic synthetic stream the ingest tool drives:
/// record i describes entity i/2, odd records are dirty duplicates, and
/// the leading "gN" group token keys each record into a block holding a
/// mix of entities — both classes for the refresh path.
Record MakeStreamRecord(uint64_t i) {
  Record record;
  record.id = StrFormat("r%llu", static_cast<unsigned long long>(i));
  const uint64_t entity = i / 2;
  record.entity_id = static_cast<int64_t>(entity);
  static const char* kVenues[] = {"journal of streams",
                                  "data engineering letters",
                                  "entity resolution review"};
  const std::string title =
      StrFormat("g%llu topic %llu on streaming record linkage",
                static_cast<unsigned long long>(entity % 4),
                static_cast<unsigned long long>(entity));
  const std::string authors =
      StrFormat("author%llu and author%llu",
                static_cast<unsigned long long>(entity % 13),
                static_cast<unsigned long long>(entity % 7));
  const std::string venue = kVenues[entity % 3];
  const std::string year = StrFormat(
      "%llu", static_cast<unsigned long long>(1980 + (entity * 7) % 40));
  if (i % 2 == 0) {
    record.values = {title, authors, venue, year};
  } else {
    std::string dirty_title = title.substr(0, title.size() - 2);
    std::string dirty_venue = venue;
    dirty_venue[dirty_venue.size() / 2] = 'x';
    record.values = {dirty_title, authors + " et al", dirty_venue, year};
  }
  return record;
}

IngestEntry MakeEntry(uint64_t sequence) {
  IngestEntry entry;
  entry.sequence = sequence;
  entry.record = MakeStreamRecord(sequence - 1);
  return entry;
}

StreamResolverOptions FastResolverOptions(int threads = 1) {
  StreamResolverOptions options;
  options.schema = Schema{{"title", "jaro_winkler"},
                          {"authors", "word_jaccard"},
                          {"venue", "levenshtein"},
                          {"year", "year"}};
  options.blocking.key_attribute = 0;
  options.blocking.prefix_length = 2;  // the "gN" group token
  options.knn.rebuild_interval = 6;
  options.knn.num_threads = threads;
  options.match_threshold = 0.75;
  options.refresh_interval = 16;
  options.min_refresh_pairs = 4;
  return options;
}

StreamResolver MakeResolver(const StreamResolverOptions& options,
                            RunDiagnostics* diagnostics = nullptr) {
  auto created = StreamResolver::Create(options, diagnostics);
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  return std::move(created).value();
}

void ApplyRange(StreamResolver* resolver, uint64_t first, uint64_t last,
                RunDiagnostics* diagnostics = nullptr) {
  for (uint64_t s = first; s <= last; ++s) {
    const Status applied = resolver->Apply(MakeEntry(s), diagnostics);
    ASSERT_TRUE(applied.ok()) << "seq " << s << ": " << applied.ToString();
  }
}

// ---------- IncrementalBlockingIndex ----------

TEST(IncrementalBlockingTest, EmitsAscendingCandidatesPerBlock) {
  IncrementalBlockingOptions options;
  options.key_attribute = 0;
  options.prefix_length = 3;
  IncrementalBlockingIndex index(options);

  Record aaa1{"a", 0, {"AAAx", "p"}};
  Record aaa2{"b", 0, {"aaay", "q"}};  // case-folds into the same block
  Record bbb{"c", 1, {"bbbz", "r"}};

  EXPECT_TRUE(index.InsertAndCollect(0, aaa1).empty());
  EXPECT_TRUE(index.InsertAndCollect(1, bbb).empty());
  const std::vector<size_t> candidates = index.InsertAndCollect(2, aaa2);
  EXPECT_EQ(candidates, (std::vector<size_t>{0}));
  EXPECT_EQ(index.size(), 3u);
  EXPECT_EQ(index.block_count(), 2u);
}

TEST(IncrementalBlockingTest, MissingAttributeKeysAsEmptyString) {
  IncrementalBlockingIndex index({2, 3, 256});
  Record short_record{"a", 0, {"only", "two"}};
  EXPECT_EQ(index.KeyOf(short_record), "");
}

TEST(IncrementalBlockingTest, OverCapBlockSuppressesCandidatesButCounts) {
  IncrementalBlockingOptions options;
  options.max_block_size = 2;
  IncrementalBlockingIndex index(options);
  Record record{"a", 0, {"same key", "x"}};

  EXPECT_TRUE(index.InsertAndCollect(0, record).empty());
  EXPECT_EQ(index.InsertAndCollect(1, record),
            (std::vector<size_t>{0}));
  // The block is now at the cap: further inserts are counted (the block
  // stays honest about its size) but emit no quadratic candidate work.
  EXPECT_TRUE(index.InsertAndCollect(2, record).empty());
  EXPECT_EQ(index.suppressed_inserts(), 1u);
  EXPECT_EQ(index.size(), 3u);
}

TEST(IncrementalBlockingTest, DigestTracksContent) {
  IncrementalBlockingIndex a, b;
  Record record{"a", 0, {"key value", "x"}};
  a.InsertAndCollect(0, record);
  EXPECT_NE(a.Digest(), b.Digest());
  b.InsertAndCollect(0, record);
  EXPECT_EQ(a.Digest(), b.Digest());
}

// ---------- DynamicKnn ----------

std::vector<double> MakePoint(size_t i, size_t dims) {
  std::vector<double> point(dims);
  for (size_t d = 0; d < dims; ++d) {
    point[d] = 0.25 * ((i * 7 + d * 3) % 11) - 1.0;
  }
  return point;
}

TEST(DynamicKnnTest, MatchesBruteForceAcrossRebuildBoundary) {
  const size_t kDims = 3;
  const size_t kPoints = 11;
  DynamicKnnOptions options;
  options.rebuild_interval = 4;  // tree + scanned-tail mix at 11 points
  DynamicKnn dynamic(options);
  Matrix all(kPoints, kDims);
  for (size_t i = 0; i < kPoints; ++i) {
    const std::vector<double> point = MakePoint(i, kDims);
    ASSERT_TRUE(dynamic.Insert(point).ok());
    for (size_t d = 0; d < kDims; ++d) all(i, d) = point[d];
  }
  ASSERT_GT(dynamic.rebuild_count(), 0u);
  ASSERT_LT(dynamic.indexed_size(), kPoints);  // a tail is being scanned

  // Both paths funnel through PushBoundedNeighbour over the same
  // decomposed kernel, so the answers are bit-identical, not just close.
  BruteForceKnn brute(all);
  for (size_t i = 0; i < kPoints; ++i) {
    const auto expected =
        brute.Query(dynamic.Point(i), 4, static_cast<ptrdiff_t>(i));
    const auto got =
        dynamic.Query(dynamic.Point(i), 4, static_cast<ptrdiff_t>(i));
    ASSERT_EQ(got.size(), expected.size()) << "query " << i;
    for (size_t j = 0; j < got.size(); ++j) {
      EXPECT_EQ(got[j].index, expected[j].index) << "query " << i;
      EXPECT_EQ(got[j].distance, expected[j].distance) << "query " << i;
    }
  }
}

TEST(DynamicKnnTest, ThreadCountNeverChangesAnswers) {
  DynamicKnnOptions serial, parallel;
  serial.rebuild_interval = parallel.rebuild_interval = 5;
  serial.num_threads = 1;
  parallel.num_threads = 8;
  DynamicKnn a(serial), b(parallel);
  for (size_t i = 0; i < 23; ++i) {
    ASSERT_TRUE(a.Insert(MakePoint(i, 4)).ok());
    ASSERT_TRUE(b.Insert(MakePoint(i, 4)).ok());
  }
  for (size_t i = 0; i < 23; ++i) {
    const auto left = a.Query(a.Point(i), 5, static_cast<ptrdiff_t>(i));
    const auto right = b.Query(b.Point(i), 5, static_cast<ptrdiff_t>(i));
    ASSERT_EQ(left.size(), right.size());
    for (size_t j = 0; j < left.size(); ++j) {
      EXPECT_EQ(left[j].index, right[j].index);
      EXPECT_EQ(left[j].distance, right[j].distance);
    }
  }
}

TEST(DynamicKnnTest, RejectsDimensionMismatch) {
  DynamicKnn knn;
  ASSERT_TRUE(knn.Insert({1.0, 2.0}).ok());
  const Status mismatched = knn.Insert({1.0, 2.0, 3.0});
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.code(), StatusCode::kInvalidArgument);
}

// ---------- StreamResolver determinism ----------

TEST(StreamResolverTest, ReplayIsBitIdenticalAndThreadInvariant) {
  RunDiagnostics diag_a, diag_b;
  StreamResolver serial = MakeResolver(FastResolverOptions(1), &diag_a);
  StreamResolver parallel = MakeResolver(FastResolverOptions(8), &diag_b);
  ApplyRange(&serial, 1, 40, &diag_a);
  ApplyRange(&parallel, 1, 40, &diag_b);

  EXPECT_EQ(serial.StateDigest(), parallel.StateDigest());
  EXPECT_GT(serial.matches().size(), 0u);
  EXPECT_GT(serial.comparison_count(), 0u);
  // The periodic refresh fired (the stream supplies both classes).
  EXPECT_GT(serial.refresh_count(), 0u);
  EXPECT_EQ(serial.refresh_count(), parallel.refresh_count());
}

TEST(StreamResolverTest, DigestDistinguishesDifferentStreams) {
  StreamResolver a = MakeResolver(FastResolverOptions());
  StreamResolver b = MakeResolver(FastResolverOptions());
  ApplyRange(&a, 1, 20);
  for (uint64_t s = 1; s <= 20; ++s) {
    IngestEntry entry = MakeEntry(s);
    if (s == 11) entry.record.values[0] = "a completely different title";
    ASSERT_TRUE(b.Apply(entry).ok());
  }
  EXPECT_NE(a.StateDigest(), b.StateDigest());
}

TEST(StreamResolverTest, SequenceGapFails) {
  StreamResolver resolver = MakeResolver(FastResolverOptions());
  ASSERT_TRUE(resolver.Apply(MakeEntry(1)).ok());
  const Status gap = resolver.Apply(MakeEntry(3));
  ASSERT_FALSE(gap.ok());
  EXPECT_EQ(gap.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(resolver.applied_sequence(), 1u);
}

TEST(StreamResolverTest, QuarantinesPoisonRecordsAndReplaysThemIdentically) {
  auto apply_with_poison = [](StreamResolver* resolver,
                              RunDiagnostics* diagnostics) {
    for (uint64_t s = 1; s <= 20; ++s) {
      IngestEntry entry = MakeEntry(s);
      if (s % 6 == 0) entry.record.values = {"poison"};  // wrong arity
      if (s == 13) entry.record.id.clear();              // missing id
      const Status applied = resolver->Apply(entry, diagnostics);
      ASSERT_TRUE(applied.ok()) << applied.ToString();
    }
  };
  RunDiagnostics diagnostics;
  StreamResolver a = MakeResolver(FastResolverOptions());
  apply_with_poison(&a, &diagnostics);

  const std::vector<uint64_t> expected = {6, 12, 13, 18};
  EXPECT_EQ(a.quarantined(), expected);
  EXPECT_EQ(a.applied_sequence(), 20u);
  EXPECT_EQ(a.records().size(), 20u - expected.size());
  EXPECT_EQ(
      diagnostics.CountKind(DegradationKind::kStreamRecordQuarantined),
      expected.size());

  // Replay quarantines the exact same set: poison cannot fork the state.
  StreamResolver b = MakeResolver(FastResolverOptions());
  apply_with_poison(&b, nullptr);
  EXPECT_EQ(a.StateDigest(), b.StateDigest());
}

// ---------- Snapshots ----------

TEST(StreamResolverTest, SnapshotRoundTripsAndContinuesIdentically) {
  const std::string dir = MakeStreamDir("snapshot_roundtrip");
  const std::string path = dir + "/state.tera";

  StreamResolver original = MakeResolver(FastResolverOptions());
  ApplyRange(&original, 1, 100);
  ASSERT_TRUE(original.SaveSnapshot(path).ok());

  auto loaded = StreamResolver::LoadSnapshot(path, FastResolverOptions());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  StreamResolver restored = std::move(loaded).value();
  EXPECT_EQ(restored.StateDigest(), original.StateDigest());

  // The restored state is not a dead end: both copies evolve in
  // lockstep past rebuild, refresh and match boundaries. Each compares
  // against its own store of prepared records, rebuilt on load and grown
  // (reallocated several times) on apply.
  ApplyRange(&original, 101, 300);
  ApplyRange(&restored, 101, 300);
  EXPECT_EQ(restored.StateDigest(), original.StateDigest());
  ASSERT_EQ(restored.matches().size(), original.matches().size());
  EXPECT_GT(original.matches().size(), 0u);
  for (size_t m = 0; m < original.matches().size(); ++m) {
    EXPECT_EQ(restored.matches()[m].left, original.matches()[m].left);
    EXPECT_EQ(restored.matches()[m].right, original.matches()[m].right);
    EXPECT_EQ(restored.matches()[m].score, original.matches()[m].score);
  }
}

TEST(StreamResolverTest, SnapshotRejectsMismatchedOptions) {
  const std::string dir = MakeStreamDir("snapshot_options");
  const std::string path = dir + "/state.tera";
  StreamResolver resolver = MakeResolver(FastResolverOptions());
  ApplyRange(&resolver, 1, 10);
  ASSERT_TRUE(resolver.SaveSnapshot(path).ok());

  StreamResolverOptions different = FastResolverOptions();
  different.match_threshold = 0.5;  // would replay a different stream
  auto mismatched = StreamResolver::LoadSnapshot(path, different);
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kFailedPrecondition);

  StreamResolverOptions reschema = FastResolverOptions();
  reschema.schema = Schema{{"title", "jaro_winkler"}};
  auto wrong_schema = StreamResolver::LoadSnapshot(path, reschema);
  ASSERT_FALSE(wrong_schema.ok());
  EXPECT_EQ(wrong_schema.status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(StreamResolverTest, SnapshotRejectsWrongKindAndBitRot) {
  const std::string dir = MakeStreamDir("snapshot_corrupt");
  StreamResolver resolver = MakeResolver(FastResolverOptions());
  ApplyRange(&resolver, 1, 12);

  // A valid TERA artifact of the wrong kind is refused by identity, not
  // by parse failure.
  const std::string pipeline_path = dir + "/pipeline.tera";
  ASSERT_TRUE(resolver.PublishTo(pipeline_path).ok());
  auto wrong_kind =
      StreamResolver::LoadSnapshot(pipeline_path, FastResolverOptions());
  ASSERT_FALSE(wrong_kind.ok());
  EXPECT_EQ(wrong_kind.status().code(), StatusCode::kInvalidArgument);

  const std::string path = dir + "/state.tera";
  ASSERT_TRUE(resolver.SaveSnapshot(path).ok());
  ASSERT_TRUE(fault::FlipFileByte(path, fs::file_size(path) / 2).ok());
  auto corrupt = StreamResolver::LoadSnapshot(path, FastResolverOptions());
  ASSERT_FALSE(corrupt.ok());
}

// ---------- Serving hand-off ----------

TEST(StreamResolverTest, PublishesLoadablePipelineState) {
  const std::string dir = MakeStreamDir("publish");
  StreamResolver resolver = MakeResolver(FastResolverOptions());
  ApplyRange(&resolver, 1, 30);

  const std::string path = dir + "/published.tera";
  ASSERT_TRUE(resolver.PublishTo(path).ok());
  auto loaded = LoadTransERPipelineState(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().feature_names, resolver.feature_names());
  EXPECT_EQ(loaded.value().target_rows, resolver.comparison_count());
  EXPECT_NE(loaded.value().classifier_u, nullptr);
  EXPECT_EQ(loaded.value().target_centroid.size(),
            resolver.feature_names().size());
}

TEST(StreamResolverTest, WarmStartsFromPublishedArtifact) {
  const std::string dir = MakeStreamDir("warm_start");
  StreamResolver teacher = MakeResolver(FastResolverOptions());
  ApplyRange(&teacher, 1, 30);
  const std::string path = dir + "/teacher.tera";
  ASSERT_TRUE(teacher.PublishTo(path).ok());

  StreamResolverOptions warm = FastResolverOptions();
  warm.warm_start_path = path;
  RunDiagnostics diagnostics;
  auto created = StreamResolver::Create(warm, &diagnostics);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  EXPECT_EQ(diagnostics.CountKind(DegradationKind::kModelWarmStarted), 1u);

  // A missing warm-start artifact must fail loudly: a silently
  // cold-started replica would diverge from its peers.
  warm.warm_start_path = dir + "/does_not_exist.tera";
  auto missing = StreamResolver::Create(warm);
  ASSERT_FALSE(missing.ok());
}

TEST(StreamResolverTest, WarmStartFromAnotherSchemaIsRefused) {
  const std::string dir = MakeStreamDir("warm_start_schema");
  StreamResolver teacher = MakeResolver(FastResolverOptions());
  ApplyRange(&teacher, 1, 30);
  const std::string path = dir + "/teacher.tera";
  ASSERT_TRUE(teacher.PublishTo(path).ok());

  // A model trained on another feature schema would score this stream's
  // pairs on the wrong columns; the replica must refuse to start.
  StreamResolverOptions reschema = FastResolverOptions();
  reschema.schema = Schema{{"title", "jaro_winkler"}};
  reschema.warm_start_path = path;
  auto created = StreamResolver::Create(reschema);
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kFailedPrecondition);
}

// ---------- StreamIngestor recovery ----------

StreamIngestorOptions FastIngestorOptions(const std::string& dir,
                                          size_t snapshot_interval = 0) {
  StreamIngestorOptions options;
  options.directory = dir;
  options.resolver = FastResolverOptions();
  options.snapshot_interval = snapshot_interval;
  return options;
}

/// Path of the journal segment the ingestor is currently appending to.
std::string ActiveSegmentPath(const StreamIngestor& ingestor) {
  return ingestor.journal_directory() +
         StrFormat("/ingest.%06llu.wal",
                   static_cast<unsigned long long>(
                       ingestor.journal_stats().active_segment));
}

uint64_t RunCleanStream(const std::string& dir, uint64_t count,
                        size_t snapshot_interval = 0) {
  auto opened =
      StreamIngestor::Open(FastIngestorOptions(dir, snapshot_interval));
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  StreamIngestor ingestor = std::move(opened).value();
  for (uint64_t i = 0; i < count; ++i) {
    EXPECT_TRUE(ingestor.Ingest(MakeStreamRecord(i)).ok());
  }
  return ingestor.resolver().StateDigest();
}

TEST(StreamIngestorTest, ReopenAfterSnapshotReplaysOnlyTheTail) {
  const std::string dir = MakeStreamDir("reopen");
  const std::string control = MakeStreamDir("reopen_control");
  const uint64_t expected = RunCleanStream(control, 20);

  {
    auto opened = StreamIngestor::Open(FastIngestorOptions(dir, 8));
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    StreamIngestor ingestor = std::move(opened).value();
    for (uint64_t i = 0; i < 20; ++i) {
      ASSERT_TRUE(ingestor.Ingest(MakeStreamRecord(i)).ok());
    }
    EXPECT_EQ(ingestor.snapshot_count(), 2u);  // at sequences 8 and 16
  }
  RunDiagnostics diagnostics;
  auto reopened =
      StreamIngestor::Open(FastIngestorOptions(dir, 8), &diagnostics);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const StreamIngestor& ingestor = reopened.value();
  EXPECT_TRUE(ingestor.recovered_from_snapshot());
  EXPECT_EQ(ingestor.replayed_entries(), 4u);  // 17..20 past the snapshot
  EXPECT_EQ(ingestor.applied_sequence(), 20u);
  EXPECT_EQ(ingestor.resolver().StateDigest(), expected);
}

TEST(StreamIngestorTest, TornJournalTailIsDroppedAndReported) {
  const std::string dir = MakeStreamDir("torn_tail");
  const std::string control = MakeStreamDir("torn_tail_control");
  const uint64_t expected = RunCleanStream(control, 9);

  std::string journal_path;
  {
    auto opened = StreamIngestor::Open(FastIngestorOptions(dir));
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    StreamIngestor ingestor = std::move(opened).value();
    for (uint64_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(ingestor.Ingest(MakeStreamRecord(i)).ok());
    }
    journal_path = ActiveSegmentPath(ingestor);
  }
  // Tear the last few bytes off the final frame — the on-disk shape a
  // crash mid-append leaves.
  ASSERT_TRUE(
      fault::TruncateFile(journal_path, fs::file_size(journal_path) - 3)
          .ok());

  RunDiagnostics diagnostics;
  auto reopened =
      StreamIngestor::Open(FastIngestorOptions(dir), &diagnostics);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value().applied_sequence(), 9u);
  EXPECT_EQ(reopened.value().resolver().StateDigest(), expected);
  EXPECT_EQ(
      diagnostics.CountKind(DegradationKind::kCheckpointTailDropped), 1u);
}

TEST(StreamIngestorTest, FsyncFailureNeverAcknowledgesARecord) {
  const std::string dir = MakeStreamDir("fsync_fault");
  const std::string control = MakeStreamDir("fsync_control");
  const uint64_t expected = RunCleanStream(control, 10);

  auto opened = StreamIngestor::Open(FastIngestorOptions(dir));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  StreamIngestor ingestor = std::move(opened).value();
  for (uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(ingestor.Ingest(MakeStreamRecord(i)).ok());
  }
  {
    fault::ScopedFsyncFault fault;
    const Status failed = ingestor.Ingest(MakeStreamRecord(5));
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.code(), StatusCode::kIoError);
    EXPECT_EQ(ingestor.applied_sequence(), 5u);  // not acknowledged
  }
  // Retry the same record once durability is back; the stream converges
  // on the uninterrupted digest.
  for (uint64_t i = 5; i < 10; ++i) {
    ASSERT_TRUE(ingestor.Ingest(MakeStreamRecord(i)).ok());
  }
  EXPECT_EQ(ingestor.resolver().StateDigest(), expected);
}

TEST(StreamIngestorTest, DiskFullNeverAcknowledgesOrLosesARecord) {
  const std::string dir = MakeStreamDir("enospc");
  const std::string control = MakeStreamDir("enospc_control");
  const uint64_t expected = RunCleanStream(control, 10);

  StreamIngestorOptions options = FastIngestorOptions(dir);
  options.journal_retry.initial_backoff_ms = 0;  // no real sleeps in tests
  auto opened = StreamIngestor::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  StreamIngestor ingestor = std::move(opened).value();
  for (uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(ingestor.Ingest(MakeStreamRecord(i)).ok());
  }
  {
    fault::ScopedDiskFullFault fault(/*bytes_before_enospc=*/0);
    const Status failed = ingestor.Ingest(MakeStreamRecord(5));
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.code(), StatusCode::kIoError);
    EXPECT_EQ(ingestor.applied_sequence(), 5u);  // the ack was refused
  }
  // Space is back: the retry lands on a fresh segment (the one that saw
  // ENOSPC was quarantined) and the stream converges on the clean digest.
  for (uint64_t i = 5; i < 10; ++i) {
    ASSERT_TRUE(ingestor.Ingest(MakeStreamRecord(i)).ok());
  }
  EXPECT_EQ(ingestor.resolver().StateDigest(), expected);

  // Reopen replays to the same state: every acked record survived.
  auto reopened = StreamIngestor::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value().applied_sequence(), 10u);
  EXPECT_EQ(reopened.value().resolver().StateDigest(), expected);
}

// ---------- Disk budget & retention ----------

TEST(StreamIngestorTest, JournalStaysWithinDiskBudget) {
  const std::string dir = MakeStreamDir("budget");
  const std::string control = MakeStreamDir("budget_control");
  const uint64_t kCount = 200;
  const uint64_t expected = RunCleanStream(control, kCount);

  StreamIngestorOptions options = FastIngestorOptions(dir);
  options.max_segment_bytes = 1024;
  options.max_journal_bytes = 4096;
  auto opened = StreamIngestor::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  StreamIngestor ingestor = std::move(opened).value();

  size_t journaled_bytes = 0;
  for (uint64_t i = 0; i < kCount; ++i) {
    IngestEntry entry;
    entry.sequence = i + 1;
    entry.record = MakeStreamRecord(i);
    journaled_bytes += EncodeIngestEntry(entry).size() + 8;
    ASSERT_TRUE(ingestor.Ingest(MakeStreamRecord(i)).ok()) << "record " << i;
    // The budget holds after EVERY ack, not just at the end.
    ASSERT_LE(ingestor.journal_stats().live_bytes, options.max_journal_bytes)
        << "record " << i;
  }
  // The run journaled several budgets' worth of bytes...
  EXPECT_GT(journaled_bytes, 4 * options.max_journal_bytes);
  // ...while the files actually on disk stayed within it.
  size_t on_disk = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".wal") on_disk += entry.file_size();
  }
  EXPECT_LE(on_disk, options.max_journal_bytes);

  const JournalStats stats = ingestor.journal_stats();
  EXPECT_GT(stats.segments_dropped, 0u);
  EXPECT_GT(ingestor.snapshot_count(), 0u);
  EXPECT_EQ(stats.retention_stalls, 0u);  // retention always caught up
  // Budget-triggered snapshots never perturb the deterministic state.
  EXPECT_EQ(ingestor.resolver().StateDigest(), expected);
}

TEST(StreamIngestorTest, BudgetStallDegradesStructurallyWithoutDataLoss) {
  const std::string dir = MakeStreamDir("budget_stall");
  const std::string control = MakeStreamDir("budget_stall_control");
  const uint64_t expected = RunCleanStream(control, 3);

  StreamIngestorOptions options = FastIngestorOptions(dir);
  // A budget smaller than a single entry: retention can never get back
  // under it, which must degrade to a structured stall event — and keep
  // ingesting — rather than refuse or drop data.
  options.max_journal_bytes = 64;
  RunDiagnostics diagnostics;
  auto opened = StreamIngestor::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  StreamIngestor ingestor = std::move(opened).value();
  for (uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(ingestor.Ingest(MakeStreamRecord(i), &diagnostics).ok());
  }
  EXPECT_EQ(ingestor.applied_sequence(), 3u);
  EXPECT_GE(ingestor.journal_stats().retention_stalls, 1u);
  EXPECT_GE(
      diagnostics.CountKind(DegradationKind::kJournalRetentionStalled), 1u);

  // "Stalled" means over budget, never lossy: a reopen replays to the
  // exact same state.
  auto reopened = StreamIngestor::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value().applied_sequence(), 3u);
  EXPECT_EQ(reopened.value().resolver().StateDigest(), expected);
}

// ---------- Multi-writer ingest ----------

TEST(StreamIngestorTest, MultiWriterIngestMatchesSingleWriterBitForBit) {
  const uint64_t kCount = 60;
  auto run = [&](const std::string& name, size_t writers) -> uint64_t {
    const std::string dir = MakeStreamDir(name);
    StreamIngestorOptions options = FastIngestorOptions(dir);
    options.max_segment_bytes = 2048;  // rotations under the merge too
    auto opened = StreamIngestor::Open(options);
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    StreamIngestor ingestor = std::move(opened).value();
    const Status ran = RunMultiWriterIngest(
        &ingestor, writers, kCount,
        [](uint64_t i) { return MakeStreamRecord(i); });
    EXPECT_TRUE(ran.ok()) << ran.ToString();
    EXPECT_EQ(ingestor.applied_sequence(), kCount);
    return ingestor.resolver().StateDigest();
  };

  const uint64_t single = run("writers_1", 1);
  EXPECT_EQ(run("writers_4", 4), single);
  EXPECT_EQ(run("writers_7", 7), single);  // count not divisible by writers

  // And both equal the plain sequential loop.
  const std::string control = MakeStreamDir("writers_control");
  EXPECT_EQ(RunCleanStream(control, kCount), single);
}

TEST(StreamIngestorTest, MultiWriterIngestValidatesArguments) {
  const std::string dir = MakeStreamDir("writers_args");
  auto opened = StreamIngestor::Open(FastIngestorOptions(dir));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  StreamIngestor ingestor = std::move(opened).value();
  const Status zero_writers = RunMultiWriterIngest(
      &ingestor, 0, 4, [](uint64_t i) { return MakeStreamRecord(i); });
  ASSERT_FALSE(zero_writers.ok());
  EXPECT_EQ(zero_writers.code(), StatusCode::kInvalidArgument);
  const Status no_maker = RunMultiWriterIngest(&ingestor, 2, 4, nullptr);
  ASSERT_FALSE(no_maker.ok());
  EXPECT_EQ(no_maker.code(), StatusCode::kInvalidArgument);
}

TEST(StreamIngestorTest, CorruptSnapshotFallsBackToFullReplayWhenPossible) {
  const std::string dir = MakeStreamDir("fallback");
  const std::string control = MakeStreamDir("fallback_control");
  const uint64_t expected = RunCleanStream(control, 12);

  std::string snapshot_path;
  std::string segment_path;
  std::vector<uint8_t> full_segment;
  std::vector<uint8_t> manifest;
  {
    auto opened = StreamIngestor::Open(FastIngestorOptions(dir));
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    StreamIngestor ingestor = std::move(opened).value();
    for (uint64_t i = 0; i < 12; ++i) {
      ASSERT_TRUE(ingestor.Ingest(MakeStreamRecord(i)).ok());
    }
    segment_path = ActiveSegmentPath(ingestor);
    ASSERT_TRUE(fault::ReadFileBytes(segment_path, &full_segment).ok());
    ASSERT_TRUE(
        fault::ReadFileBytes(dir + "/ingest.manifest", &manifest).ok());
    ASSERT_TRUE(ingestor.Snapshot().ok());  // snapshots, then retains
    snapshot_path = ingestor.snapshot_path();
  }
  // Crash scenario: the snapshot rotted but the journal still holds the
  // complete history (segment chain + manifest restored to their
  // pre-retention state; the newer post-rotation segment becomes an
  // orphan past the manifest's range and is deleted on recovery).
  ASSERT_TRUE(fault::WriteFileBytes(segment_path, full_segment).ok());
  ASSERT_TRUE(
      fault::WriteFileBytes(dir + "/ingest.manifest", manifest).ok());
  ASSERT_TRUE(
      fault::FlipFileByte(snapshot_path, fs::file_size(snapshot_path) / 2)
          .ok());

  RunDiagnostics diagnostics;
  auto reopened =
      StreamIngestor::Open(FastIngestorOptions(dir), &diagnostics);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_FALSE(reopened.value().recovered_from_snapshot());
  EXPECT_EQ(reopened.value().replayed_entries(), 12u);
  EXPECT_EQ(reopened.value().resolver().StateDigest(), expected);
  EXPECT_EQ(
      diagnostics.CountKind(DegradationKind::kStreamSnapshotFallback), 1u);
}

TEST(StreamIngestorTest, CorruptSnapshotAfterCompactionFailsLoudly) {
  const std::string dir = MakeStreamDir("fallback_refused");
  std::string snapshot_path;
  {
    auto opened = StreamIngestor::Open(FastIngestorOptions(dir));
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    StreamIngestor ingestor = std::move(opened).value();
    for (uint64_t i = 0; i < 12; ++i) {
      ASSERT_TRUE(ingestor.Ingest(MakeStreamRecord(i)).ok());
    }
    ASSERT_TRUE(ingestor.Snapshot().ok());
    snapshot_path = ingestor.snapshot_path();
  }
  ASSERT_TRUE(
      fault::FlipFileByte(snapshot_path, fs::file_size(snapshot_path) / 2)
          .ok());
  // The journal was compacted: replaying from scratch would silently
  // lose the compacted history, so Open must refuse instead.
  auto reopened = StreamIngestor::Open(FastIngestorOptions(dir));
  ASSERT_FALSE(reopened.ok());
}

// ---------- Live-serve continuity: publish -> repository hot swap ----------

TEST(StreamIngestorTest, PublishedSnapshotsHotSwapIntoModelRepository) {
  const std::string dir = MakeStreamDir("continuity");
  const std::string models = MakeStreamDir("continuity_models");

  StreamIngestorOptions options = FastIngestorOptions(dir);
  options.publish_directory = models;
  auto opened = StreamIngestor::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  StreamIngestor ingestor = std::move(opened).value();
  for (uint64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(ingestor.Ingest(MakeStreamRecord(i)).ok());
  }
  ASSERT_TRUE(ingestor.Snapshot().ok());
  ASSERT_TRUE(fs::exists(ingestor.publish_path()));

  serve::RepositoryOptions repo_options;
  repo_options.directory = models;
  repo_options.refresh_interval_seconds = 0.0;
  repo_options.min_rescan_interval_seconds = 0.0;
  serve::ModelRepository repository(repo_options);
  const serve::RefreshReport first = repository.ForceRescan();
  EXPECT_EQ(first.loaded, 1u);

  auto selected =
      repository.Select(ingestor.resolver().feature_names(), {});
  ASSERT_TRUE(selected.ok()) << selected.status().ToString();
  EXPECT_TRUE(selected.value().by_fingerprint);
  const uint64_t rows_before = selected.value().model->state->target_rows;

  // The stream keeps ingesting; the next snapshot republishes and the
  // repository swaps the fresher model in on its next scan.
  for (uint64_t i = 20; i < 40; ++i) {
    ASSERT_TRUE(ingestor.Ingest(MakeStreamRecord(i)).ok());
  }
  ASSERT_TRUE(ingestor.Snapshot().ok());
  BumpMtime(ingestor.publish_path());
  const serve::RefreshReport second = repository.ForceRescan();
  EXPECT_EQ(second.reloaded, 1u);

  auto reselected =
      repository.Select(ingestor.resolver().feature_names(), {});
  ASSERT_TRUE(reselected.ok()) << reselected.status().ToString();
  EXPECT_GT(reselected.value().model->state->target_rows, rows_before);
}

}  // namespace
}  // namespace stream
}  // namespace transer
