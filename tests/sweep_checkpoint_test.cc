// Tests for the crash-safe sweep checkpoint: framed record round-trips,
// durability under fsync / disk-full faults, torn-tail tolerance, and
// RunCheckpointedSweep resume semantics at 1 and 4 threads (bit-identical
// resumed aggregates, TE/ME skip, bounded transient retry, seed- and
// budget-mismatch rejection, per-cell limits, sweep cancellation).

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/sweep_checkpoint.h"
#include "data/feature_space_generator.h"
#include "testing/fault_injection.h"
#include "transfer/naive_transfer.h"
#include "util/execution_context.h"
#include "util/journal_io.h"

namespace transer {
namespace {

std::string TempJournalPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + name + ".ckpt";
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  return path;
}

SweepCellRecord MakeRecord() {
  SweepCellRecord record;
  record.key = {"transer", "A -> B", "svm"};
  record.seed = 12033;
  record.limits = {/*time=*/0.1, /*memory=*/64 << 20};
  record.quality.precision = 1.0 / 3.0;  // not representable in decimal
  record.quality.recall = 0.875;
  record.quality.f1 = 2.0 / 7.0;
  record.quality.f_star = 0.1234567890123456789;
  record.runtime_seconds = 1.5e-3;
  return record;
}

TransferScenario MakeScenario(const std::string& name, size_t n,
                              uint64_t seed) {
  FeatureSpaceGenerator generator({4, 40, seed});
  FeatureDomainSpec source;
  source.num_instances = n;
  source.match_fraction = 0.30;
  source.ambiguous_fraction = 0.05;
  source.seed = seed + 1;
  FeatureDomainSpec target = source;
  target.mode_shift = -0.05;
  target.seed = seed + 2;
  TransferScenario scenario;
  scenario.name = name;
  scenario.source_name = "source";
  scenario.target_name = "target";
  scenario.source = generator.Generate(source);
  scenario.target = generator.Generate(target);
  return scenario;
}

std::vector<std::unique_ptr<TransferMethod>> NaiveOnly() {
  std::vector<std::unique_ptr<TransferMethod>> methods;
  methods.push_back(std::make_unique<NaiveTransfer>());
  return methods;
}

void ExpectSameResults(const std::vector<MethodScenarioResult>& a,
                       const std::vector<MethodScenarioResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].method, b[i].method);
    EXPECT_EQ(a[i].scenario, b[i].scenario);
    EXPECT_EQ(a[i].failure, b[i].failure);
    EXPECT_EQ(a[i].completed_runs, b[i].completed_runs);
    ASSERT_EQ(a[i].per_classifier.size(), b[i].per_classifier.size());
    for (size_t j = 0; j < a[i].per_classifier.size(); ++j) {
      // Bit-for-bit: journaled doubles round-trip exactly (IEEE-754
      // bits) and live re-runs are seeded identically.
      EXPECT_EQ(a[i].per_classifier[j].precision,
                b[i].per_classifier[j].precision);
      EXPECT_EQ(a[i].per_classifier[j].recall, b[i].per_classifier[j].recall);
      EXPECT_EQ(a[i].per_classifier[j].f1, b[i].per_classifier[j].f1);
      EXPECT_EQ(a[i].per_classifier[j].f_star,
                b[i].per_classifier[j].f_star);
    }
    EXPECT_EQ(a[i].quality.precision.mean, b[i].quality.precision.mean);
    EXPECT_EQ(a[i].quality.recall.mean, b[i].quality.recall.mean);
    EXPECT_EQ(a[i].quality.f1.mean, b[i].quality.f1.mean);
    EXPECT_EQ(a[i].quality.f_star.mean, b[i].quality.f_star.mean);
  }
}

// ---------- record encoding ----------

void ExpectSameRecord(const SweepCellRecord& a, const SweepCellRecord& b) {
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.limits, b.limits);
  EXPECT_EQ(a.failure, b.failure);
  EXPECT_EQ(a.quality.precision, b.quality.precision);
  EXPECT_EQ(a.quality.recall, b.quality.recall);
  EXPECT_EQ(a.quality.f1, b.quality.f1);
  EXPECT_EQ(a.quality.f_star, b.quality.f_star);
  EXPECT_EQ(a.runtime_seconds, b.runtime_seconds);
}

TEST(SweepCellRecordTest, EncodeDecodeRoundTripsExactly) {
  const SweepCellRecord record = MakeRecord();
  auto decoded = DecodeSweepCellRecord(EncodeSweepCellRecord(record));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectSameRecord(decoded.value(), record);
}

TEST(SweepCellRecordTest, RoundTripsFailureRecords) {
  SweepCellRecord record = MakeRecord();
  record.failure = "TE";
  auto decoded = DecodeSweepCellRecord(EncodeSweepCellRecord(record));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().failure, "TE");
}

TEST(SweepCellRecordTest, RoundTripsArbitraryStrings) {
  SweepCellRecord record = MakeRecord();
  record.key.scenario = "a \"quoted\" \\ name";
  record.failure = std::string("disk\nfull\0!", 11);
  auto decoded = DecodeSweepCellRecord(EncodeSweepCellRecord(record));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().key.scenario, record.key.scenario);
  EXPECT_EQ(decoded.value().failure, record.failure);
}

TEST(SweepCellRecordTest, DecodeRejectsMalformedPayloads) {
  const std::vector<uint8_t> full = EncodeSweepCellRecord(MakeRecord());
  // Every strict prefix (a payload cut short) and a trailing extra byte.
  for (size_t cut = 0; cut < full.size(); ++cut) {
    const std::vector<uint8_t> prefix(full.begin(), full.begin() + cut);
    EXPECT_FALSE(DecodeSweepCellRecord(prefix).ok()) << "cut=" << cut;
  }
  std::vector<uint8_t> longer = full;
  longer.push_back(0);
  EXPECT_FALSE(DecodeSweepCellRecord(longer).ok());
  for (const uint8_t version : {uint8_t{1}, uint8_t{0x7F}}) {
    std::vector<uint8_t> other = full;
    other[0] = version;  // record layout version; 1 had no cell limits
    EXPECT_FALSE(DecodeSweepCellRecord(other).ok()) << int{version};
  }
}

// ---------- journal durability ----------

TEST(SweepCheckpointTest, PersistsRecordsAcrossReopen) {
  const std::string path = TempJournalPath("persist");
  {
    auto checkpoint = SweepCheckpoint::Open(path);
    ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
    EXPECT_EQ(checkpoint.value().size(), 0u);
    ASSERT_TRUE(checkpoint.value().Record(MakeRecord()).ok());
  }
  auto reopened = SweepCheckpoint::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_EQ(reopened.value().size(), 1u);
  const SweepCellRecord* found =
      reopened.value().Find({"transer", "A -> B", "svm"});
  ASSERT_NE(found, nullptr);
  ExpectSameRecord(*found, MakeRecord());
  EXPECT_EQ(reopened.value().Find({"transer", "A -> B", "rf"}), nullptr);
}

TEST(SweepCheckpointTest, ReRecordingAKeySupersedes) {
  const std::string path = TempJournalPath("supersede");
  SweepCellRecord failed = MakeRecord();
  failed.failure = "flaky io";
  {
    auto checkpoint = SweepCheckpoint::Open(path);
    ASSERT_TRUE(checkpoint.ok());
    ASSERT_TRUE(checkpoint.value().Record(failed).ok());
    ASSERT_TRUE(checkpoint.value().Record(MakeRecord()).ok());
    EXPECT_EQ(checkpoint.value().size(), 1u);
    const SweepCellRecord* found = checkpoint.value().Find(failed.key);
    ASSERT_NE(found, nullptr);
    EXPECT_TRUE(found->failure.empty());
  }
  // Replay applies frames in order, so the later frame wins on disk too.
  auto reopened = SweepCheckpoint::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value().size(), 1u);
  ASSERT_NE(reopened.value().Find(failed.key), nullptr);
  EXPECT_TRUE(reopened.value().Find(failed.key)->failure.empty());
}

TEST(SweepCheckpointTest, CanonicalizeCompactsAndKeepsAppending) {
  const std::string path = TempJournalPath("canonical");
  SweepCellRecord later = MakeRecord();
  later.key.scenario = "Z -> Y";
  SweepCellRecord earlier = MakeRecord();
  earlier.key.scenario = "B -> C";
  SweepCellRecord retried = later;
  retried.failure = "flaky io";
  {
    auto checkpoint = SweepCheckpoint::Open(path);
    ASSERT_TRUE(checkpoint.ok());
    ASSERT_TRUE(checkpoint.value().Record(retried).ok());
    ASSERT_TRUE(checkpoint.value().Record(later).ok());
    ASSERT_TRUE(checkpoint.value().Record(earlier).ok());
    ASSERT_TRUE(checkpoint.value().Canonicalize().ok());
    // The journal stays open for appends after the rewrite.
    ASSERT_TRUE(checkpoint.value().Record(MakeRecord()).ok());
  }
  auto reopened = SweepCheckpoint::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const std::vector<SweepCellRecord>& records = reopened.value().records();
  ASSERT_EQ(records.size(), 3u);
  ExpectSameRecord(records[0], earlier);
  ExpectSameRecord(records[1], later);  // superseded frame compacted away
  ExpectSameRecord(records[2], MakeRecord());
}

TEST(SweepCheckpointTest, CorruptTailIsTruncatedAndReported) {
  const std::string path = TempJournalPath("torn_tail");
  SweepCellRecord second = MakeRecord();
  second.key.classifier = "rf";
  SweepCellRecord third = MakeRecord();
  third.key.classifier = "lr";
  {
    auto checkpoint = SweepCheckpoint::Open(path);
    ASSERT_TRUE(checkpoint.ok());
    for (const SweepCellRecord& record : {MakeRecord(), second, third}) {
      ASSERT_TRUE(checkpoint.value().Record(record).ok());
    }
  }
  // A torn append: the third frame lost its last bytes.
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(fault::ReadFileBytes(path, &bytes).ok());
  ASSERT_TRUE(fault::TruncateFile(path, bytes.size() - 5).ok());

  RunDiagnostics diagnostics;
  auto checkpoint = SweepCheckpoint::Open(path, &diagnostics);
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
  EXPECT_EQ(checkpoint.value().size(), 2u);
  EXPECT_EQ(checkpoint.value().Find(third.key), nullptr);
  EXPECT_TRUE(diagnostics.HasKind(DegradationKind::kCheckpointTailDropped));

  // The truncation was persisted: a reopen is clean.
  RunDiagnostics clean;
  auto reopened = SweepCheckpoint::Open(path, &clean);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value().size(), 2u);
  EXPECT_FALSE(clean.HasKind(DegradationKind::kCheckpointTailDropped));
}

TEST(SweepCheckpointTest, CorruptionBeforeTheTailFails) {
  const std::string path = TempJournalPath("corrupt_middle");
  SweepCellRecord second = MakeRecord();
  second.key.classifier = "rf";
  {
    auto checkpoint = SweepCheckpoint::Open(path);
    ASSERT_TRUE(checkpoint.ok());
    ASSERT_TRUE(checkpoint.value().Record(MakeRecord()).ok());
    ASSERT_TRUE(checkpoint.value().Record(second).ok());
  }
  // Bit rot inside the first frame's payload (12-byte header, u32 length).
  ASSERT_TRUE(fault::FlipFileByte(path, 12 + 4 + 2).ok());
  auto checkpoint = SweepCheckpoint::Open(path);
  ASSERT_FALSE(checkpoint.ok());
  EXPECT_EQ(checkpoint.status().code(), StatusCode::kFailedPrecondition);
}

// A frame whose CRC holds but whose payload is not a cell record is not
// bit rot, so it is never treated as a torn tail: Open refuses it.
TEST(SweepCheckpointTest, UndecodableFrameIsRefused) {
  const std::string path = TempJournalPath("undecodable");
  {
    auto checkpoint = SweepCheckpoint::Open(path);
    ASSERT_TRUE(checkpoint.ok());
    ASSERT_TRUE(checkpoint.value().Record(MakeRecord()).ok());
  }
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(fault::ReadFileBytes(path, &bytes).ok());
  const char magic[4] = {static_cast<char>(bytes[0]),
                         static_cast<char>(bytes[1]),
                         static_cast<char>(bytes[2]),
                         static_cast<char>(bytes[3])};
  {
    auto raw = journal::FrameJournal::Open(path, magic);
    ASSERT_TRUE(raw.ok()) << raw.status().ToString();
    std::vector<uint8_t> future = EncodeSweepCellRecord(MakeRecord());
    future[0] = 0x7F;  // record layout version
    ASSERT_TRUE(raw.value().Append(future).ok());
  }
  auto checkpoint = SweepCheckpoint::Open(path);
  ASSERT_FALSE(checkpoint.ok());
  EXPECT_EQ(checkpoint.status().code(), StatusCode::kFailedPrecondition);
}

// A JSON-lines checkpoint from before the framed format is not ours to
// repair: Open refuses it by name and leaves every byte in place.
TEST(SweepCheckpointTest, LegacyJsonLinesCheckpointIsRefusedUntouched) {
  const std::string path = TempJournalPath("legacy_jsonl");
  {
    std::ofstream out(path);
    out << "{\"method\":\"transer\",\"scenario\":\"A -> B\","
           "\"classifier\":\"svm\",\"seed\":12033,\"failure\":\"\","
           "\"precision\":0.5,\"recall\":0.5,\"f1\":0.5,\"f_star\":0.5,"
           "\"runtime_seconds\":0.25}\n";
  }
  std::vector<uint8_t> before;
  ASSERT_TRUE(fault::ReadFileBytes(path, &before).ok());

  auto checkpoint = SweepCheckpoint::Open(path);
  ASSERT_FALSE(checkpoint.ok());
  EXPECT_EQ(checkpoint.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(checkpoint.status().message().find(path), std::string::npos);

  std::vector<uint8_t> after;
  ASSERT_TRUE(fault::ReadFileBytes(path, &after).ok());
  EXPECT_EQ(after, before);
}

// ---------- durability faults ----------

// A cell is acknowledged only once its frame is durable: under a failing
// write or fsync, Record returns IoError and leaves no trace.

/// Opens a fresh checkpoint holding MakeRecord() durably.
SweepCheckpoint OpenWithOneCell(const std::string& path) {
  auto opened = SweepCheckpoint::Open(path);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  SweepCheckpoint checkpoint = std::move(opened).value();
  EXPECT_TRUE(checkpoint.Record(MakeRecord()).ok());
  return checkpoint;
}

/// A new cell and a superseding version of the stored one.
std::vector<SweepCellRecord> UnsyncableRecords() {
  SweepCellRecord fresh = MakeRecord();
  fresh.key.classifier = "rf";
  SweepCellRecord superseding = MakeRecord();
  superseding.failure = "TE";
  return {fresh, superseding};
}

/// After Record failed under a fault: the in-memory view and the reopened
/// journal both hold exactly the one durable cell, unchanged.
void ExpectOnlyTheDurableCell(const SweepCheckpoint& checkpoint) {
  const SweepCellRecord fresh = UnsyncableRecords()[0];
  EXPECT_EQ(checkpoint.size(), 1u);
  EXPECT_EQ(checkpoint.Find(fresh.key), nullptr);
  ASSERT_NE(checkpoint.Find(MakeRecord().key), nullptr);
  ExpectSameRecord(*checkpoint.Find(MakeRecord().key), MakeRecord());

  auto reopened = SweepCheckpoint::Open(checkpoint.path());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value().size(), 1u);
  EXPECT_EQ(reopened.value().Find(fresh.key), nullptr);
  ASSERT_NE(reopened.value().Find(MakeRecord().key), nullptr);
  ExpectSameRecord(*reopened.value().Find(MakeRecord().key), MakeRecord());
}

TEST(SweepCheckpointTest, RecordSurfacesFsyncFailure) {
  SweepCheckpoint checkpoint =
      OpenWithOneCell(TempJournalPath("fsync_fault"));
  {
    fault::ScopedFsyncFault fault;
    for (const SweepCellRecord& record : UnsyncableRecords()) {
      const Status failed = checkpoint.Record(record);
      ASSERT_FALSE(failed.ok());
      EXPECT_EQ(failed.code(), StatusCode::kIoError);
    }
    EXPECT_GE(fault.injected_failures(), 2u);
  }
  ExpectOnlyTheDurableCell(checkpoint);
}

TEST(SweepCheckpointTest, RecordSurfacesDiskFull) {
  SweepCheckpoint checkpoint =
      OpenWithOneCell(TempJournalPath("disk_full_fault"));
  {
    // A few bytes land before ENOSPC: the torn-frame worst case.
    fault::ScopedDiskFullFault fault(/*bytes_before_enospc=*/3);
    for (const SweepCellRecord& record : UnsyncableRecords()) {
      const Status failed = checkpoint.Record(record);
      ASSERT_FALSE(failed.ok());
      EXPECT_EQ(failed.code(), StatusCode::kIoError);
    }
    EXPECT_GE(fault.injected_failures(), 2u);
  }
  ExpectOnlyTheDurableCell(checkpoint);
}

// ---------- checkpointed sweep resume ----------

// Every resume case runs serially and on the parallel (scenario, method)
// runner: journal access is shared by the worker lanes.
class CheckpointedSweepTest : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Threads, CheckpointedSweepTest,
                         ::testing::Values(1, 4));

TEST_P(CheckpointedSweepTest, InterruptedResumeMatchesUninterruptedRun) {
  const std::string path = TempJournalPath("resume");
  std::vector<TransferScenario> scenarios;
  scenarios.push_back(MakeScenario("A -> B", 300, 21));
  scenarios.push_back(MakeScenario("C -> D", 300, 22));
  const auto suite = DefaultClassifierSuite();

  SweepOptions base;
  base.base_options.seed = 33;
  base.base_options.num_threads = GetParam();

  // Reference: the whole sweep, uninterrupted and unjournaled.
  auto reference =
      RunCheckpointedSweep(NaiveOnly(), scenarios, suite, base);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_EQ(reference.value().size(), 2u);

  // "Kill" the sweep at the start of its second (method, scenario)
  // group: the cancellation token fires from the sweep's own heartbeat,
  // exactly as an operator interrupt between cells would.
  CancellationToken token;
  int groups_started = 0;
  ExecutionContext sweep_context(
      {}, &token, [&](const ProgressEvent& event) {
        if (event.stage.find('/') == std::string::npos) return;
        if (++groups_started == 2) token.Cancel();
      });
  SweepOptions interrupted = base;
  interrupted.checkpoint_path = path;
  interrupted.base_options.context = &sweep_context;
  auto killed =
      RunCheckpointedSweep(NaiveOnly(), scenarios, suite, interrupted);
  EXPECT_FALSE(killed.ok());

  // Only the group that started first can have journaled cells: all of
  // them when groups run one at a time; when they run concurrently the
  // cancel may also cut that group short mid-cell.
  {
    auto journal = SweepCheckpoint::Open(path);
    ASSERT_TRUE(journal.ok());
    if (GetParam() == 1) {
      EXPECT_EQ(journal.value().size(), suite.size());
    } else {
      EXPECT_LE(journal.value().size(), suite.size());
    }
  }

  // Resume from the journal: completed cells are reused, the rest run
  // live under their recorded seeds — the aggregate is bit-identical.
  SweepOptions resumed = base;
  resumed.checkpoint_path = path;
  auto resume =
      RunCheckpointedSweep(NaiveOnly(), scenarios, suite, resumed);
  ASSERT_TRUE(resume.ok()) << resume.status().ToString();
  ExpectSameResults(resume.value(), reference.value());
}

TEST_P(CheckpointedSweepTest, JournaledBudgetFailureIsNotReRun) {
  const std::string path = TempJournalPath("te_skip");
  std::vector<TransferScenario> scenarios;
  scenarios.push_back(MakeScenario("A -> B", 300, 24));
  const auto suite = DefaultClassifierSuite();

  SweepOptions options;
  options.base_options.seed = 33;
  options.base_options.num_threads = GetParam();
  options.checkpoint_path = path;
  {
    auto journal = SweepCheckpoint::Open(path);
    ASSERT_TRUE(journal.ok());
    SweepCellRecord te;
    te.key = {"naive", "A -> B", suite[0].name};
    te.seed = options.base_options.seed;  // classifier index 0
    te.failure = "TE";
    ASSERT_TRUE(journal.value().Record(te).ok());
  }

  auto sweep = RunCheckpointedSweep(NaiveOnly(), scenarios, suite, options);
  ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
  ASSERT_EQ(sweep.value().size(), 1u);
  EXPECT_EQ(sweep.value()[0].failure, "TE");
  EXPECT_EQ(sweep.value()[0].completed_runs, 0u);
}

TEST_P(CheckpointedSweepTest, TransientFailureGetsOneRetry) {
  const std::string path = TempJournalPath("retry");
  std::vector<TransferScenario> scenarios;
  scenarios.push_back(MakeScenario("A -> B", 300, 25));
  const auto suite = DefaultClassifierSuite();

  RunDiagnostics diagnostics;
  SweepOptions options;
  options.base_options.seed = 33;
  options.base_options.num_threads = GetParam();
  options.checkpoint_path = path;
  options.diagnostics = &diagnostics;
  {
    auto journal = SweepCheckpoint::Open(path);
    ASSERT_TRUE(journal.ok());
    SweepCellRecord transient;
    transient.key = {"naive", "A -> B", suite[1].name};
    transient.seed = options.base_options.seed + 1000;  // classifier 1
    transient.failure = "disk hiccup";
    ASSERT_TRUE(journal.value().Record(transient).ok());
  }

  auto sweep = RunCheckpointedSweep(NaiveOnly(), scenarios, suite, options);
  ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
  EXPECT_EQ(sweep.value()[0].completed_runs, suite.size());
  EXPECT_EQ(diagnostics.CountKind(DegradationKind::kCheckpointCellRetried),
            1u);

  // The retried cell's success superseded the journaled failure.
  auto journal = SweepCheckpoint::Open(path);
  ASSERT_TRUE(journal.ok());
  const SweepCellRecord* cell =
      journal.value().Find({"naive", "A -> B", suite[1].name});
  ASSERT_NE(cell, nullptr);
  EXPECT_TRUE(cell->failure.empty());
}

TEST_P(CheckpointedSweepTest, TornTailFromKilledWriterResumes) {
  const std::string path = TempJournalPath("torn_writer");
  std::vector<TransferScenario> scenarios;
  scenarios.push_back(MakeScenario("A -> B", 300, 27));
  scenarios.push_back(MakeScenario("C -> D", 300, 28));
  const auto suite = DefaultClassifierSuite();

  SweepOptions base;
  base.base_options.seed = 33;
  base.base_options.num_threads = GetParam();

  // Reference: uninterrupted and unjournaled.
  auto reference = RunCheckpointedSweep(NaiveOnly(), scenarios, suite, base);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  // A full journaled sweep, then the journal writer is "killed" mid-way
  // through appending its last record: the file ends in a torn frame.
  SweepOptions journaled = base;
  journaled.checkpoint_path = path;
  ASSERT_TRUE(
      RunCheckpointedSweep(NaiveOnly(), scenarios, suite, journaled).ok());
  std::vector<uint8_t> journal_bytes;
  ASSERT_TRUE(fault::ReadFileBytes(path, &journal_bytes).ok());
  ASSERT_GT(journal_bytes.size(), 10u);
  ASSERT_TRUE(fault::TruncateFile(path, journal_bytes.size() - 10).ok());

  // Resume: the torn tail is dropped with a diagnostic, the lost cell
  // re-runs under its recorded seed, and the aggregate stays
  // bit-identical.
  RunDiagnostics diagnostics;
  SweepOptions resumed = base;
  resumed.checkpoint_path = path;
  resumed.diagnostics = &diagnostics;
  auto resume = RunCheckpointedSweep(NaiveOnly(), scenarios, suite, resumed);
  ASSERT_TRUE(resume.ok()) << resume.status().ToString();
  EXPECT_TRUE(diagnostics.HasKind(DegradationKind::kCheckpointTailDropped));
  ExpectSameResults(resume.value(), reference.value());
}

TEST_P(CheckpointedSweepTest, SeedMismatchIsRejected) {
  const std::string path = TempJournalPath("seed_mismatch");
  std::vector<TransferScenario> scenarios;
  scenarios.push_back(MakeScenario("A -> B", 300, 26));
  const auto suite = DefaultClassifierSuite();

  SweepOptions options;
  options.base_options.seed = 33;
  options.base_options.num_threads = GetParam();
  options.checkpoint_path = path;
  {
    auto journal = SweepCheckpoint::Open(path);
    ASSERT_TRUE(journal.ok());
    SweepCellRecord foreign = MakeRecord();
    foreign.key = {"naive", "A -> B", suite[0].name};
    foreign.seed = 999999;  // journal from a different base seed
    foreign.limits = options.cell_limits;  // only the seed differs
    ASSERT_TRUE(journal.value().Record(foreign).ok());
  }
  auto sweep = RunCheckpointedSweep(NaiveOnly(), scenarios, suite, options);
  ASSERT_FALSE(sweep.ok());
  EXPECT_NE(sweep.status().message().find("different sweep"),
            std::string::npos);
}

TEST_P(CheckpointedSweepTest, BudgetMismatchIsRejected) {
  const std::string path = TempJournalPath("budget_mismatch");
  std::vector<TransferScenario> scenarios;
  scenarios.push_back(MakeScenario("A -> B", 300, 29));
  const auto suite = DefaultClassifierSuite();

  // Journal under a cell budget every run overshoots: the first cell is
  // recorded as TE.
  SweepOptions options;
  options.base_options.seed = 33;
  options.base_options.num_threads = GetParam();
  options.checkpoint_path = path;
  options.cell_limits.time_limit_seconds = 1e-9;
  auto tight = RunCheckpointedSweep(NaiveOnly(), scenarios, suite, options);
  ASSERT_TRUE(tight.ok()) << tight.status().ToString();
  ASSERT_EQ(tight.value()[0].failure, "TE");
  std::vector<uint8_t> journaled;
  ASSERT_TRUE(fault::ReadFileBytes(path, &journaled).ok());

  // That TE says nothing about a 600 s budget: the resume is refused
  // instead of replaying it.
  options.cell_limits.time_limit_seconds = 600.0;
  auto resumed = RunCheckpointedSweep(NaiveOnly(), scenarios, suite, options);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(resumed.status().message().find("different sweep"),
            std::string::npos);
  EXPECT_NE(resumed.status().message().find("1e-09s"), std::string::npos)
      << resumed.status().message();
  EXPECT_NE(resumed.status().message().find("600s"), std::string::npos)
      << resumed.status().message();
  std::vector<uint8_t> after;
  ASSERT_TRUE(fault::ReadFileBytes(path, &after).ok());
  EXPECT_EQ(after, journaled);
}

TEST_P(CheckpointedSweepTest, CellLimitsBoundEachCellUnderASweepContext) {
  std::vector<TransferScenario> scenarios;
  scenarios.push_back(MakeScenario("A -> B", 300, 27));
  const auto suite = DefaultClassifierSuite();
  CancellationToken token;
  ExecutionContext sweep_context({}, &token);
  const ExecutionLimits te_limits{/*time=*/1e-9, /*memory=*/0};
  const ExecutionLimits me_limits{/*time=*/0.0, /*memory=*/1024};
  for (const ExecutionLimits& limits : {te_limits, me_limits}) {
    const std::string path = TempJournalPath("cell_limits");
    SweepOptions options;
    options.base_options.seed = 33;
    options.base_options.num_threads = GetParam();
    options.base_options.context = &sweep_context;
    options.cell_limits = limits;
    options.checkpoint_path = path;
    const std::string expected = limits == te_limits ? "TE" : "ME";
    auto sweep = RunCheckpointedSweep(NaiveOnly(), scenarios, suite, options);
    ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
    EXPECT_EQ(sweep.value()[0].failure, expected);

    auto journal = SweepCheckpoint::Open(path);
    ASSERT_TRUE(journal.ok());
    const SweepCellRecord* cell =
        journal.value().Find({"naive", "A -> B", suite[0].name});
    ASSERT_NE(cell, nullptr);
    EXPECT_EQ(cell->failure, expected);
    EXPECT_EQ(cell->limits, limits);
  }
}

/// Cancels the sweep from inside its own run, as an operator interrupt
/// arriving mid-cell would, then reports what its context says.
class CancellingMethod : public TransferMethod {
 public:
  explicit CancellingMethod(CancellationToken* token) : token_(token) {}
  std::string name() const override { return "cancelling"; }
  Result<std::vector<int>> Run(
      const FeatureMatrix& /*source*/, const FeatureMatrix& target,
      const ClassifierFactory& /*make_classifier*/,
      const TransferRunOptions& run_options) const override {
    token_->Cancel();
    TRANSER_RETURN_IF_ERROR(run_options.context->Check(name()));
    return std::vector<int>(target.size(), kNonMatch);
  }

 private:
  CancellationToken* token_;
};

TEST_P(CheckpointedSweepTest, SweepCancellationReachesARunningCell) {
  const std::string path = TempJournalPath("cancel_mid_cell");
  std::vector<TransferScenario> scenarios;
  scenarios.push_back(MakeScenario("A -> B", 300, 30));
  scenarios.push_back(MakeScenario("C -> D", 300, 31));
  CancellationToken token;
  ExecutionContext sweep_context({}, &token);
  std::vector<std::unique_ptr<TransferMethod>> methods;
  methods.push_back(std::make_unique<CancellingMethod>(&token));
  SweepOptions options;
  options.base_options.seed = 33;
  options.base_options.num_threads = GetParam();
  options.base_options.context = &sweep_context;
  options.cell_limits = {/*time=*/600.0, /*memory=*/0};
  options.checkpoint_path = path;
  auto sweep = RunCheckpointedSweep(methods, scenarios,
                                    DefaultClassifierSuite(), options);
  ASSERT_FALSE(sweep.ok());
  EXPECT_NE(sweep.status().message().find("cancelled"), std::string::npos)
      << sweep.status().ToString();
  auto journal = SweepCheckpoint::Open(path);
  ASSERT_TRUE(journal.ok());
  EXPECT_EQ(journal.value().size(), 0u) << "nothing may be journaled";
}

/// Sleeps past the sweep's deadline, then reports what its own context
/// says.
class SlowMethod : public TransferMethod {
 public:
  explicit SlowMethod(double seconds) : seconds_(seconds) {}
  std::string name() const override { return "slow"; }
  Result<std::vector<int>> Run(
      const FeatureMatrix& /*source*/, const FeatureMatrix& target,
      const ClassifierFactory& /*make_classifier*/,
      const TransferRunOptions& run_options) const override {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds_));
    TRANSER_RETURN_IF_ERROR(run_options.context->Check(name()));
    return std::vector<int>(target.size(), kNonMatch);
  }

 private:
  double seconds_;
};

TEST_P(CheckpointedSweepTest, SweepDeadlineStopsAtTheNextCellBoundary) {
  const std::string path = TempJournalPath("sweep_deadline");
  std::vector<TransferScenario> scenarios;
  scenarios.push_back(MakeScenario("A -> B", 300, 32));
  scenarios.push_back(MakeScenario("C -> D", 300, 33));
  const auto suite = DefaultClassifierSuite();
  std::vector<std::unique_ptr<TransferMethod>> methods;
  methods.push_back(std::make_unique<SlowMethod>(/*seconds=*/1.0));
  ExecutionContext sweep_context({/*time=*/0.5, /*memory=*/0});
  RunDiagnostics diagnostics;
  SweepOptions options;
  options.base_options.seed = 33;
  options.base_options.num_threads = GetParam();
  options.base_options.context = &sweep_context;
  options.cell_limits = {/*time=*/600.0, /*memory=*/0};
  options.checkpoint_path = path;
  options.diagnostics = &diagnostics;
  auto sweep = RunCheckpointedSweep(methods, scenarios, suite, options);
  ASSERT_FALSE(sweep.ok());
  EXPECT_NE(sweep.status().message().find("(TE)"), std::string::npos)
      << sweep.status().ToString();
  EXPECT_TRUE(diagnostics.HasKind(DegradationKind::kTimeLimitExceeded));

  // The deadline passed while each group's first cell slept: those cells
  // ran to completion and are journaled as successes, and no group
  // started a second cell. Groups run one at a time at 1 thread, so the
  // second group never started.
  auto journal = SweepCheckpoint::Open(path);
  ASSERT_TRUE(journal.ok());
  if (GetParam() == 1) {
    EXPECT_EQ(journal.value().size(), 1u);
  } else {
    EXPECT_GE(journal.value().size(), 1u);
    EXPECT_LE(journal.value().size(), scenarios.size());
  }
  for (const SweepCellRecord& cell : journal.value().records()) {
    EXPECT_EQ(cell.key.classifier, suite[0].name);
    EXPECT_TRUE(cell.failure.empty()) << cell.failure;
  }
}

}  // namespace
}  // namespace transer
