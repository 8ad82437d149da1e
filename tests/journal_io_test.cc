// Tests for the shared journal layer (util/journal_io): the one
// CRC-framed format and torn-tail recovery policy behind both journal
// clients, the sweep checkpoint and the segmented ingest WAL. The heavy
// lifting is two fuzz families run over the raw FrameJournal AND both
// clients — truncate-at-every-byte-prefix (every possible crash point of
// an append) and flip-every-byte (bit rot anywhere in the file) — plus
// the fsync-fault proofs that a journal append and an artifact publish
// surface fsync failure as a write error instead of acknowledging
// unsynced bytes.

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/sweep_checkpoint.h"
#include "stream/ingest_journal.h"
#include "testing/fault_injection.h"
#include "util/artifact_io.h"
#include "util/journal_io.h"
#include "util/status.h"

namespace transer {
namespace {

namespace fs = std::filesystem;

constexpr char kTestMagic[4] = {'T', 'J', 'T', '1'};
constexpr size_t kHeaderBytes = 12;  // magic + version + header CRC

std::string TempPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  return path;
}

/// Fresh empty directory for segmented-journal tests.
std::string TempDirPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  fs::remove_all(path);
  fs::create_directories(path);
  return path;
}

/// Deterministic variable-length payload for frame `i`.
std::vector<uint8_t> MakePayload(size_t i) {
  std::vector<uint8_t> payload(5 + 3 * i);
  for (size_t j = 0; j < payload.size(); ++j) {
    payload[j] = static_cast<uint8_t>((i * 31 + j * 7 + 1) & 0xFF);
  }
  return payload;
}

/// Writes a fresh journal of `n` MakePayload frames and returns the
/// byte offset at which each frame ends (boundaries[0] == header end).
std::vector<size_t> WriteFrames(const std::string& path, size_t n) {
  std::vector<size_t> boundaries = {kHeaderBytes};
  auto opened = journal::FrameJournal::Open(path, kTestMagic);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  journal::FrameJournal journal = std::move(opened).value();
  for (size_t i = 0; i < n; ++i) {
    const std::vector<uint8_t> payload = MakePayload(i);
    EXPECT_TRUE(journal.Append(payload).ok());
    boundaries.push_back(boundaries.back() + 8 + payload.size());
  }
  return boundaries;
}

std::vector<uint8_t> FileBytes(const std::string& path) {
  std::vector<uint8_t> bytes;
  EXPECT_TRUE(fault::ReadFileBytes(path, &bytes).ok());
  return bytes;
}

// ---------- FrameJournal basics ----------

TEST(FrameJournalTest, RoundTripsFramesInAppendOrder) {
  const std::string path = TempPath("frame_roundtrip.wal");
  WriteFrames(path, 6);

  journal::FrameRecovery recovery;
  auto reopened = journal::FrameJournal::Open(path, kTestMagic, &recovery);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_FALSE(recovery.tail_dropped);
  ASSERT_EQ(recovery.frames.size(), 6u);
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(recovery.frames[i], MakePayload(i)) << "frame " << i;
  }
  EXPECT_EQ(reopened.value().frame_count(), 6u);
}

TEST(FrameJournalTest, CreatesEmptyJournalWithHeaderOnly) {
  const std::string path = TempPath("frame_fresh.wal");
  journal::FrameRecovery recovery;
  auto opened = journal::FrameJournal::Open(path, kTestMagic, &recovery);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_TRUE(recovery.frames.empty());
  EXPECT_FALSE(recovery.tail_dropped);
  EXPECT_EQ(fs::file_size(path), kHeaderBytes);
}

TEST(FrameJournalTest, RejectsWrongMagic) {
  const std::string path = TempPath("frame_magic.wal");
  WriteFrames(path, 2);
  constexpr char kOtherMagic[4] = {'N', 'O', 'P', 'E'};
  auto opened = journal::FrameJournal::Open(path, kOtherMagic);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
}

TEST(FrameJournalTest, RejectsFutureFormatVersion) {
  const std::string path = TempPath("frame_version.wal");
  WriteFrames(path, 1);
  // Bump the version field (offset 4) and re-stamp the header CRC so
  // only the version check can object.
  std::vector<uint8_t> bytes = FileBytes(path);
  bytes[4] = 0x7F;
  const uint32_t crc = artifact::Crc32(bytes.data(), 8);
  for (int i = 0; i < 4; ++i) {
    bytes[8 + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
  ASSERT_TRUE(fault::WriteFileBytes(path, bytes).ok());
  auto opened = journal::FrameJournal::Open(path, kTestMagic);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kFailedPrecondition);
}

TEST(FrameJournalTest, RejectsOversizedFrame) {
  const std::string path = TempPath("frame_oversize.wal");
  journal::FrameJournalOptions options;
  options.max_frame_bytes = 16;
  auto opened = journal::FrameJournal::Open(path, kTestMagic,
                                            /*recovery=*/nullptr, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  journal::FrameJournal journal = std::move(opened).value();
  EXPECT_TRUE(journal.Append(std::vector<uint8_t>(16, 1)).ok());
  const Status too_big = journal.Append(std::vector<uint8_t>(17, 1));
  ASSERT_FALSE(too_big.ok());
  EXPECT_EQ(too_big.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(journal.frame_count(), 1u);
}

TEST(FrameJournalTest, RewriteReplacesContentAtomically) {
  const std::string path = TempPath("frame_rewrite.wal");
  WriteFrames(path, 5);
  const std::vector<std::vector<uint8_t>> kept = {MakePayload(9)};
  ASSERT_TRUE(journal::FrameJournal::Rewrite(path, kTestMagic, kept).ok());

  journal::FrameRecovery recovery;
  auto reopened = journal::FrameJournal::Open(path, kTestMagic, &recovery);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_EQ(recovery.frames.size(), 1u);
  EXPECT_EQ(recovery.frames[0], MakePayload(9));
  EXPECT_FALSE(recovery.tail_dropped);
}

// ---------- Fuzz family 1: truncate at every byte prefix ----------

// Every byte length the file can have after a crash mid-append. The
// contract: below the header it is not a journal (error); at or past
// the header, recovery yields exactly the frames wholly contained in
// the prefix, reports a torn tail iff the cut is not on a frame
// boundary, persists the truncation, and leaves the journal appendable.
TEST(FrameJournalFuzzTest, TruncateAtEveryPrefixRecoversCleanPrefix) {
  const std::string master = TempPath("frame_trunc_master.wal");
  const size_t kFrames = 6;
  const std::vector<size_t> boundaries = WriteFrames(master, kFrames);
  const std::vector<uint8_t> original = FileBytes(master);
  ASSERT_EQ(original.size(), boundaries.back());

  const std::string path = TempPath("frame_trunc.wal");
  for (size_t cut = 0; cut <= original.size(); ++cut) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    const std::vector<uint8_t> prefix(original.begin(),
                                      original.begin() + cut);
    ASSERT_TRUE(fault::WriteFileBytes(path, prefix).ok());

    journal::FrameRecovery recovery;
    auto opened = journal::FrameJournal::Open(path, kTestMagic, &recovery);
    if (cut < kHeaderBytes) {
      ASSERT_FALSE(opened.ok());
      EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
      continue;
    }
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();

    // The longest frame prefix wholly inside the cut.
    size_t intact = 0;
    while (intact < kFrames && boundaries[intact + 1] <= cut) ++intact;
    ASSERT_EQ(recovery.frames.size(), intact);
    for (size_t i = 0; i < intact; ++i) {
      EXPECT_EQ(recovery.frames[i], MakePayload(i));
    }
    const bool on_boundary = cut == boundaries[intact];
    EXPECT_EQ(recovery.tail_dropped, !on_boundary);
    EXPECT_EQ(recovery.dropped_bytes, cut - boundaries[intact]);
    // The torn bytes are gone from disk, not merely ignored.
    EXPECT_EQ(fs::file_size(path), boundaries[intact]);

    // The recovered journal accepts appends at the truncated tail.
    journal::FrameJournal journal = std::move(opened).value();
    const std::vector<uint8_t> resumed = MakePayload(100);
    ASSERT_TRUE(journal.Append(resumed).ok());
    journal.Close();

    journal::FrameRecovery after;
    auto reread = journal::FrameJournal::Open(path, kTestMagic, &after);
    ASSERT_TRUE(reread.ok()) << reread.status().ToString();
    ASSERT_EQ(after.frames.size(), intact + 1);
    EXPECT_EQ(after.frames.back(), resumed);
    EXPECT_FALSE(after.tail_dropped);
  }
}

// ---------- Fuzz family 2: flip every byte ----------

// A flipped byte anywhere must never surface corrupt data: recovery
// either fails (header damage, mid-file damage) or returns a bit-exact
// strict prefix of the original frames with the drop reported.
TEST(FrameJournalFuzzTest, FlipEveryByteNeverYieldsCorruptFrames) {
  const std::string master = TempPath("frame_flip_master.wal");
  const size_t kFrames = 6;
  WriteFrames(master, kFrames);
  const std::vector<uint8_t> original = FileBytes(master);

  const std::string path = TempPath("frame_flip.wal");
  for (size_t offset = 0; offset < original.size(); ++offset) {
    SCOPED_TRACE("offset=" + std::to_string(offset));
    std::vector<uint8_t> mutated = original;
    mutated[offset] ^= 0xFF;
    ASSERT_TRUE(fault::WriteFileBytes(path, mutated).ok());

    journal::FrameRecovery recovery;
    auto opened = journal::FrameJournal::Open(path, kTestMagic, &recovery);
    if (offset < kHeaderBytes) {
      // Header damage is always fatal (magic or header CRC).
      ASSERT_FALSE(opened.ok());
      continue;
    }
    if (!opened.ok()) {
      // Mid-file damage detected: the only acceptable refusal.
      EXPECT_EQ(opened.status().code(), StatusCode::kFailedPrecondition);
      continue;
    }
    // Accepted: the flip fell in (or re-delimited into) the tail. The
    // recovered frames must be an untouched strict prefix.
    ASSERT_LT(recovery.frames.size(), kFrames);
    EXPECT_TRUE(recovery.tail_dropped);
    for (size_t i = 0; i < recovery.frames.size(); ++i) {
      EXPECT_EQ(recovery.frames[i], MakePayload(i)) << "frame " << i;
    }
  }
}

// ---------- Sweep-checkpoint call site ----------

SweepCellRecord MakeCell(size_t i) {
  SweepCellRecord record;
  record.key = {"method" + std::to_string(i % 2), "A -> B",
                "clf" + std::to_string(i)};
  record.seed = 1000 + i;
  record.quality.precision = 1.0 / (3.0 + i);
  record.quality.recall = 0.5 + 0.01 * i;
  record.quality.f1 = 1.0 / (7.0 + i);
  record.quality.f_star = 0.25;
  record.runtime_seconds = 0.001 * (i + 1);
  return record;
}

/// Journals MakeCell(0..n-1) into a fresh checkpoint and returns the
/// byte offset at which each frame ends (boundaries[0] == header end).
std::vector<size_t> WriteCheckpoint(const std::string& path, size_t n) {
  std::vector<size_t> boundaries = {kHeaderBytes};
  auto opened = SweepCheckpoint::Open(path);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  SweepCheckpoint checkpoint = std::move(opened).value();
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(checkpoint.Record(MakeCell(i)).ok());
    boundaries.push_back(boundaries.back() + 8 +
                         EncodeSweepCellRecord(MakeCell(i)).size());
  }
  return boundaries;
}

/// Expects `checkpoint` to hold exactly MakeCell(0..n-1), bit for bit.
void ExpectCellPrefix(const SweepCheckpoint& checkpoint, size_t n) {
  ASSERT_EQ(checkpoint.size(), n);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(EncodeSweepCellRecord(checkpoint.records()[i]),
              EncodeSweepCellRecord(MakeCell(i)))
        << "cell " << i;
  }
}

// The every-prefix sweep against the checkpoint: a cut inside the
// header (created atomically, so never torn by a crash) is refused; any
// later cut recovers exactly the complete frames, reports a torn tail
// once iff the cut is off a frame boundary, and persists the truncation.
TEST(SweepCheckpointFuzzTest, TruncateAtEveryPrefixRecoversCleanPrefix) {
  const size_t kCells = 4;
  const std::string master = TempPath("sweep_trunc_master.ckpt");
  const std::vector<size_t> boundaries = WriteCheckpoint(master, kCells);
  const std::vector<uint8_t> original = FileBytes(master);
  ASSERT_EQ(original.size(), boundaries.back());

  const std::string path = TempPath("sweep_trunc.ckpt");
  for (size_t cut = 0; cut <= original.size(); ++cut) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    const std::vector<uint8_t> prefix(original.begin(),
                                      original.begin() + cut);
    ASSERT_TRUE(fault::WriteFileBytes(path, prefix).ok());

    RunDiagnostics diagnostics;
    auto opened = SweepCheckpoint::Open(path, &diagnostics);
    if (cut < kHeaderBytes) {
      ASSERT_FALSE(opened.ok());
      EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
      continue;
    }
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    size_t intact = 0;
    while (intact < kCells && boundaries[intact + 1] <= cut) ++intact;
    ExpectCellPrefix(opened.value(), intact);
    const bool on_boundary = cut == boundaries[intact];
    EXPECT_EQ(
        diagnostics.CountKind(DegradationKind::kCheckpointTailDropped),
        on_boundary ? 0u : 1u);
    // The torn bytes are gone from disk, so a second Open is clean.
    EXPECT_EQ(fs::file_size(path), boundaries[intact]);
    RunDiagnostics again;
    auto reopened = SweepCheckpoint::Open(path, &again);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    ExpectCellPrefix(reopened.value(), intact);
    EXPECT_EQ(again.CountKind(DegradationKind::kCheckpointTailDropped), 0u);
  }
}

// Damage before the tail must refuse, not silently drop completed work —
// the FrameJournal policy every journal client inherits.
TEST(SweepCheckpointFuzzTest, MidFileCorruptionFailsInsteadOfDropping) {
  const std::string path = TempPath("sweep_midfile.ckpt");
  WriteCheckpoint(path, 4);
  // First frame's payload: past the header and the frame's u32 length.
  ASSERT_TRUE(fault::FlipFileByte(path, kHeaderBytes + 4).ok());
  auto opened = SweepCheckpoint::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kFailedPrecondition);
}

// Every frame carries a CRC, so a flipped byte can never surface as a
// changed cell: Open either refuses (header damage, mid-file damage) or
// recovers an untouched strict prefix with the drop reported.
TEST(SweepCheckpointFuzzTest, FlipEveryByteNeverYieldsChangedRecords) {
  const size_t kCells = 3;
  const std::string master = TempPath("sweep_flip_master.ckpt");
  WriteCheckpoint(master, kCells);
  const std::vector<uint8_t> original = FileBytes(master);

  const std::string path = TempPath("sweep_flip.ckpt");
  for (size_t offset = 0; offset < original.size(); ++offset) {
    SCOPED_TRACE("offset=" + std::to_string(offset));
    std::vector<uint8_t> mutated = original;
    mutated[offset] ^= 0xFF;
    ASSERT_TRUE(fault::WriteFileBytes(path, mutated).ok());

    RunDiagnostics diagnostics;
    auto opened = SweepCheckpoint::Open(path, &diagnostics);
    if (offset < kHeaderBytes) {
      ASSERT_FALSE(opened.ok());
      EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
      continue;
    }
    if (!opened.ok()) {
      EXPECT_EQ(opened.status().code(), StatusCode::kFailedPrecondition);
      continue;
    }
    ASSERT_LT(opened.value().size(), kCells);
    ExpectCellPrefix(opened.value(), opened.value().size());
    EXPECT_EQ(
        diagnostics.CountKind(DegradationKind::kCheckpointTailDropped), 1u);
  }
}

// ---------- SegmentedJournal: rotation, manifest, retention ----------

/// Opens the test segmented journal in `dir` with a tiny rotation
/// threshold so a handful of MakePayload frames spans several segments.
journal::SegmentedJournalOptions SmallSegments(size_t max_bytes = 64) {
  journal::SegmentedJournalOptions options;
  options.max_segment_bytes = max_bytes;
  return options;
}

TEST(SegmentedJournalTest, RotatesAtSizeCapAndRecoversAcrossSegments) {
  const std::string dir = TempDirPath("seg_rotate");
  const size_t kFrames = 10;
  {
    auto opened = journal::SegmentedJournal::Open(dir, "seg", kTestMagic,
                                                  nullptr, SmallSegments());
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    journal::SegmentedJournal journal = std::move(opened).value();
    for (size_t i = 0; i < kFrames; ++i) {
      ASSERT_TRUE(journal.Append(MakePayload(i)).ok());
    }
    EXPECT_GT(journal.segment_count(), 2u);
    // total_bytes tracks every live segment, not just the active one.
    size_t on_disk = 0;
    for (uint64_t id = journal.first_segment_id();
         id <= journal.active_segment_id(); ++id) {
      on_disk += fs::file_size(journal.SegmentPath(id));
    }
    EXPECT_EQ(journal.total_bytes(), on_disk);
  }
  journal::SegmentedRecovery recovery;
  auto reopened = journal::SegmentedJournal::Open(dir, "seg", kTestMagic,
                                                  &recovery, SmallSegments());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_FALSE(recovery.tail_dropped);
  std::vector<std::vector<uint8_t>> flat;
  for (const journal::SegmentRecovery& segment : recovery.segments) {
    for (const auto& frame : segment.frames) flat.push_back(frame);
  }
  ASSERT_EQ(flat.size(), kFrames);
  for (size_t i = 0; i < kFrames; ++i) {
    EXPECT_EQ(flat[i], MakePayload(i)) << "frame " << i;
  }
}

TEST(SegmentedJournalTest, DropSegmentsBeforeUnlinksCoveredFiles) {
  const std::string dir = TempDirPath("seg_retention");
  auto opened = journal::SegmentedJournal::Open(dir, "seg", kTestMagic,
                                                nullptr, SmallSegments());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  journal::SegmentedJournal journal = std::move(opened).value();
  for (size_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(journal.Append(MakePayload(i)).ok());
  }
  const uint64_t active = journal.active_segment_id();
  ASSERT_GT(active, 2u);

  auto dropped = journal.DropSegmentsBefore(active);
  ASSERT_TRUE(dropped.ok()) << dropped.status().ToString();
  EXPECT_EQ(dropped.value(), static_cast<size_t>(active - 1));
  EXPECT_EQ(journal.first_segment_id(), active);
  EXPECT_EQ(journal.segment_count(), 1u);
  for (uint64_t id = 1; id < active; ++id) {
    EXPECT_FALSE(fs::exists(journal.SegmentPath(id))) << "segment " << id;
  }
  // The active segment is never dropped, even when asked.
  auto again = journal.DropSegmentsBefore(active + 100);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), 0u);
  EXPECT_TRUE(fs::exists(journal.SegmentPath(active)));
  journal.Close();

  // Recovery sees only what retention kept.
  journal::SegmentedRecovery recovery;
  auto reopened = journal::SegmentedJournal::Open(dir, "seg", kTestMagic,
                                                  &recovery, SmallSegments());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_EQ(recovery.segments.size(), 1u);
  EXPECT_EQ(recovery.segments[0].id, active);
}

// Torn tail on the LAST segment: the one crash window the append
// protocol allows. Truncate the active segment at every byte prefix;
// recovery must truncate, report, and resume — exactly the FrameJournal
// contract, lifted through the chain.
TEST(SegmentedJournalTest, TornTailOnLastSegmentTruncatesAndResumes) {
  const std::string dir = TempDirPath("seg_torn_last");
  {
    auto opened = journal::SegmentedJournal::Open(dir, "seg", kTestMagic,
                                                  nullptr, SmallSegments());
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    journal::SegmentedJournal journal = std::move(opened).value();
    for (size_t i = 0; i < 6; ++i) {
      ASSERT_TRUE(journal.Append(MakePayload(i)).ok());
    }
    ASSERT_GT(journal.segment_count(), 1u);
  }
  // Identify the active segment and count the frames before it.
  journal::SegmentedRecovery before;
  std::string last_path;
  {
    auto opened = journal::SegmentedJournal::Open(dir, "seg", kTestMagic,
                                                  &before, SmallSegments());
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    last_path = opened.value().SegmentPath(opened.value().active_segment_id());
  }
  ASSERT_TRUE(fs::exists(last_path));
  const std::vector<uint8_t> original = FileBytes(last_path);
  size_t sealed_frames = 0;
  for (size_t i = 0; i + 1 < before.segments.size(); ++i) {
    sealed_frames += before.segments[i].frames.size();
  }

  for (size_t cut = kHeaderBytes; cut < original.size(); ++cut) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    const std::vector<uint8_t> prefix(original.begin(),
                                      original.begin() + cut);
    ASSERT_TRUE(fault::WriteFileBytes(last_path, prefix).ok());

    journal::SegmentedRecovery recovery;
    auto opened = journal::SegmentedJournal::Open(dir, "seg", kTestMagic,
                                                  &recovery, SmallSegments());
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    // Sealed segments are untouched; only the tail shrinks.
    size_t flat = 0;
    for (const auto& segment : recovery.segments) {
      flat += segment.frames.size();
    }
    EXPECT_GE(flat, sealed_frames);
    EXPECT_LE(flat, sealed_frames + before.segments.back().frames.size());
  }
  // Restore for other assertions' sake.
  ASSERT_TRUE(fault::WriteFileBytes(last_path, original).ok());
}

// Damage to a SEALED segment is mid-chain damage: entries after it
// exist in later segments, so silently dropping it would lose
// acknowledged data. Recovery must refuse.
TEST(SegmentedJournalTest, TornSealedSegmentFailsInsteadOfDropping) {
  const std::string dir = TempDirPath("seg_torn_sealed");
  {
    auto opened = journal::SegmentedJournal::Open(dir, "seg", kTestMagic,
                                                  nullptr, SmallSegments());
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    journal::SegmentedJournal journal = std::move(opened).value();
    for (size_t i = 0; i < 8; ++i) {
      ASSERT_TRUE(journal.Append(MakePayload(i)).ok());
    }
    ASSERT_GT(journal.segment_count(), 1u);
  }
  const std::string first_segment = dir + "/seg.000001.wal";
  ASSERT_TRUE(fs::exists(first_segment));
  // Chop the sealed segment's last 3 bytes — a "torn tail" shape that
  // would be recoverable on the last segment, but not mid-chain.
  ASSERT_TRUE(
      fault::TruncateFile(first_segment, fs::file_size(first_segment) - 3)
          .ok());
  auto opened = journal::SegmentedJournal::Open(dir, "seg", kTestMagic,
                                                nullptr, SmallSegments());
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kFailedPrecondition);

  // A missing sealed segment is the same refusal.
  ASSERT_TRUE(fs::remove(first_segment));
  auto missing = journal::SegmentedJournal::Open(dir, "seg", kTestMagic,
                                                 nullptr, SmallSegments());
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SegmentedJournalTest, SegmentsWithoutManifestAreRefused) {
  const std::string dir = TempDirPath("seg_no_manifest");
  {
    auto opened = journal::SegmentedJournal::Open(dir, "seg", kTestMagic,
                                                  nullptr, SmallSegments());
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    journal::SegmentedJournal journal = std::move(opened).value();
    ASSERT_TRUE(journal.Append(MakePayload(0)).ok());
  }
  ASSERT_TRUE(fs::remove(dir + "/seg.manifest"));
  auto opened = journal::SegmentedJournal::Open(dir, "seg", kTestMagic,
                                                nullptr, SmallSegments());
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kFailedPrecondition);
}

// A crash between temp write and rename (manifest publish, segment
// creation) leaves a stale `.tmp` behind. Recovery must ignore its
// content entirely and delete it, and the next atomic publish must not
// be confused by it.
TEST(SegmentedJournalTest, StaleTempFilesAreIgnoredAndRemoved) {
  const std::string dir = TempDirPath("seg_stale_tmp");
  {
    auto opened = journal::SegmentedJournal::Open(dir, "seg", kTestMagic,
                                                  nullptr, SmallSegments());
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    journal::SegmentedJournal journal = std::move(opened).value();
    for (size_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(journal.Append(MakePayload(i)).ok());
    }
  }
  // Plant torn temp files a crash could have left at both publish
  // sites: the manifest and a segment creation.
  const std::vector<uint8_t> garbage = {0x00, 0x01, 0x02};
  ASSERT_TRUE(
      fault::WriteFileBytes(dir + "/seg.manifest.tmp", garbage).ok());
  ASSERT_TRUE(
      fault::WriteFileBytes(dir + "/seg.000099.wal.tmp", garbage).ok());

  journal::SegmentedRecovery recovery;
  auto reopened = journal::SegmentedJournal::Open(dir, "seg", kTestMagic,
                                                  &recovery, SmallSegments());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_GE(recovery.orphans_removed, 2u);
  EXPECT_FALSE(fs::exists(dir + "/seg.manifest.tmp"));
  EXPECT_FALSE(fs::exists(dir + "/seg.000099.wal.tmp"));
  size_t flat = 0;
  for (const auto& segment : recovery.segments) {
    flat += segment.frames.size();
  }
  EXPECT_EQ(flat, 4u);
}

// The same stale-temp discipline for a single-file FrameJournal: Open
// must not read the `.tmp`, and Rewrite (temp + rename) must leave no
// temp behind — the stale one is overwritten and consumed.
TEST(FrameJournalTest, RewriteCleansUpStaleTempFile) {
  const std::string path = TempPath("frame_stale_tmp.wal");
  WriteFrames(path, 3);
  const std::vector<uint8_t> garbage = {0xBA, 0xD1, 0xDE, 0xA5};
  ASSERT_TRUE(fault::WriteFileBytes(path + ".tmp", garbage).ok());

  journal::FrameRecovery recovery;
  auto opened = journal::FrameJournal::Open(path, kTestMagic, &recovery);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ASSERT_EQ(recovery.frames.size(), 3u);  // the .tmp played no part
  opened.value().Close();

  ASSERT_TRUE(
      journal::FrameJournal::Rewrite(path, kTestMagic, {MakePayload(7)})
          .ok());
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  journal::FrameRecovery after;
  auto reread = journal::FrameJournal::Open(path, kTestMagic, &after);
  ASSERT_TRUE(reread.ok()) << reread.status().ToString();
  ASSERT_EQ(after.frames.size(), 1u);
  EXPECT_EQ(after.frames[0], MakePayload(7));
}

TEST(SegmentedJournalTest, RotationOrphanPastManifestIsDeleted) {
  const std::string dir = TempDirPath("seg_orphan");
  {
    auto opened = journal::SegmentedJournal::Open(dir, "seg", kTestMagic,
                                                  nullptr, SmallSegments());
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    journal::SegmentedJournal journal = std::move(opened).value();
    ASSERT_TRUE(journal.Append(MakePayload(0)).ok());
    const uint64_t active = journal.active_segment_id();
    journal.Close();
    // Simulate the rotation crash window: the next segment's file was
    // created but the manifest never published it.
    auto orphan = journal::FrameJournal::Open(
        journal.SegmentPath(active + 1), kTestMagic);
    ASSERT_TRUE(orphan.ok());
  }
  journal::SegmentedRecovery recovery;
  auto reopened = journal::SegmentedJournal::Open(dir, "seg", kTestMagic,
                                                  &recovery, SmallSegments());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_GE(recovery.orphans_removed, 1u);
  EXPECT_FALSE(fs::exists(dir + "/seg.000002.wal"));
  EXPECT_EQ(reopened.value().active_segment_id(), 1u);
}

// ---------- Binary call site: the ingest WAL ----------

stream::IngestEntry MakeEntry(uint64_t sequence) {
  stream::IngestEntry entry;
  entry.sequence = sequence;
  entry.record.id = "r" + std::to_string(sequence);
  entry.record.entity_id = static_cast<int64_t>(sequence / 2);
  entry.record.values = {"title " + std::to_string(sequence), "author",
                         "venue", "1999"};
  return entry;
}

stream::IngestJournalOptions IngestOptions(const std::string& dir,
                                           size_t max_segment_bytes = 96) {
  stream::IngestJournalOptions options;
  options.directory = dir;
  options.max_segment_bytes = max_segment_bytes;
  options.sleep = [](double) {};  // tests never wait out a backoff
  return options;
}

TEST(IngestJournalTest, RoundTripsEntriesAcrossSegmentsAndRetains) {
  const std::string dir = TempDirPath("ingest_roundtrip");
  {
    stream::IngestJournalRecovery recovery;
    auto opened = stream::IngestJournal::Open(IngestOptions(dir), &recovery);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    stream::IngestJournal journal = std::move(opened).value();
    EXPECT_TRUE(recovery.entries.empty());
    for (uint64_t s = 1; s <= 8; ++s) {
      ASSERT_TRUE(journal.Append(MakeEntry(s)).ok());
    }
    EXPECT_GT(journal.segment_count(), 1u);
  }
  stream::IngestJournalRecovery recovery;
  auto reopened = stream::IngestJournal::Open(IngestOptions(dir), &recovery);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_EQ(recovery.entries.size(), 8u);
  for (uint64_t s = 1; s <= 8; ++s) {
    EXPECT_EQ(recovery.entries[s - 1].sequence, s);
    EXPECT_EQ(recovery.entries[s - 1].record.id, MakeEntry(s).record.id);
    EXPECT_EQ(recovery.entries[s - 1].record.values,
              MakeEntry(s).record.values);
  }

  // Retention after a snapshot covering everything: whole segments go,
  // nothing is rewritten, and the journal keeps accepting appends.
  stream::IngestJournal journal = std::move(reopened).value();
  const size_t segments_before = journal.segment_count();
  auto dropped = journal.RetainCoveredBy(8);
  ASSERT_TRUE(dropped.ok()) << dropped.status().ToString();
  EXPECT_GE(dropped.value(), segments_before - 1);
  EXPECT_EQ(journal.segment_count(), 1u);
  ASSERT_TRUE(journal.Append(MakeEntry(9)).ok());

  stream::IngestJournalRecovery after;
  auto last = stream::IngestJournal::Open(IngestOptions(dir), &after);
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  ASSERT_EQ(after.entries.size(), 1u);
  EXPECT_EQ(after.entries[0].sequence, 9u);
}

TEST(IngestJournalTest, RetainKeepsSegmentsWithUncoveredEntries) {
  const std::string dir = TempDirPath("ingest_partial_retain");
  {
    stream::IngestJournalRecovery recovery;
    auto opened = stream::IngestJournal::Open(IngestOptions(dir), &recovery);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    stream::IngestJournal journal = std::move(opened).value();
    for (uint64_t s = 1; s <= 12; ++s) {
      ASSERT_TRUE(journal.Append(MakeEntry(s)).ok());
    }
    ASSERT_GT(journal.segment_count(), 2u);

    // A snapshot at 5 may only drop segments whose entries are ALL <= 5.
    auto dropped = journal.RetainCoveredBy(5);
    ASSERT_TRUE(dropped.ok()) << dropped.status().ToString();
  }

  stream::IngestJournalRecovery after;
  auto reopened = stream::IngestJournal::Open(IngestOptions(dir), &after);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_FALSE(after.entries.empty());
  // Every entry past the snapshot survived; nothing uncovered was lost.
  uint64_t next_required = 6;
  for (const stream::IngestEntry& entry : after.entries) {
    if (entry.sequence >= 6) {
      EXPECT_EQ(entry.sequence, next_required);
      ++next_required;
    }
  }
  EXPECT_EQ(next_required, 13u);
}

TEST(IngestJournalTest, RejectsUndecodablePayloadEvenWithValidCrc) {
  const std::string dir = TempDirPath("ingest_garbage");
  {
    stream::IngestJournalRecovery recovery;
    auto created =
        stream::IngestJournal::Open(IngestOptions(dir), &recovery);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
  }
  {
    auto opened = journal::FrameJournal::Open(dir + "/ingest.000001.wal",
                                              stream::kIngestJournalMagic);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    journal::FrameJournal raw = std::move(opened).value();
    const std::vector<uint8_t> garbage = {0xDE, 0xAD, 0xBE, 0xEF};
    ASSERT_TRUE(raw.Append(garbage).ok());  // frame CRC is valid
  }
  stream::IngestJournalRecovery recovery;
  auto opened = stream::IngestJournal::Open(IngestOptions(dir), &recovery);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kFailedPrecondition);
}

TEST(IngestJournalTest, RejectsNonIncreasingSequences) {
  const std::string dir = TempDirPath("ingest_sequence");
  {
    stream::IngestJournalRecovery recovery;
    auto created =
        stream::IngestJournal::Open(IngestOptions(dir), &recovery);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
  }
  {
    auto opened = journal::FrameJournal::Open(dir + "/ingest.000001.wal",
                                              stream::kIngestJournalMagic);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    journal::FrameJournal raw = std::move(opened).value();
    ASSERT_TRUE(raw.Append(stream::EncodeIngestEntry(MakeEntry(3))).ok());
    ASSERT_TRUE(raw.Append(stream::EncodeIngestEntry(MakeEntry(3))).ok());
  }
  stream::IngestJournalRecovery recovery;
  auto opened = stream::IngestJournal::Open(IngestOptions(dir), &recovery);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kFailedPrecondition);
}

// Every-prefix truncation of the ACTIVE segment through the full
// IngestJournal stack: the recovered entries must be a clean sequence
// prefix and the journal must keep accepting appends at the tail.
TEST(IngestJournalFuzzTest, TruncateAtEveryPrefixRecoversSequencePrefix) {
  const std::string master = TempDirPath("ingest_trunc");
  const size_t kEntries = 5;
  {
    auto opened = stream::IngestJournal::Open(IngestOptions(master), nullptr);
    // Open requires the recovery out-param; use the documented call.
    ASSERT_FALSE(opened.ok());
  }
  {
    stream::IngestJournalRecovery recovery;
    // One big segment so every entry lives in the active (truncatable)
    // segment — the sealed-segment case is the refusal test above.
    auto opened = stream::IngestJournal::Open(
        IngestOptions(master, /*max_segment_bytes=*/1 << 20), &recovery);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    stream::IngestJournal journal = std::move(opened).value();
    for (uint64_t s = 1; s <= kEntries; ++s) {
      ASSERT_TRUE(journal.Append(MakeEntry(s)).ok());
    }
  }
  const std::string segment = master + "/ingest.000001.wal";
  const std::vector<uint8_t> original = FileBytes(segment);

  for (size_t cut = kHeaderBytes; cut <= original.size(); ++cut) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    const std::vector<uint8_t> prefix(original.begin(),
                                      original.begin() + cut);
    ASSERT_TRUE(fault::WriteFileBytes(segment, prefix).ok());

    stream::IngestJournalRecovery recovery;
    auto opened = stream::IngestJournal::Open(
        IngestOptions(master, /*max_segment_bytes=*/1 << 20), &recovery);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    for (size_t i = 0; i < recovery.entries.size(); ++i) {
      EXPECT_EQ(recovery.entries[i].sequence, i + 1);
      EXPECT_EQ(recovery.entries[i].record.values,
                MakeEntry(i + 1).record.values);
    }
    // Resume exactly where the recovered prefix stops.
    stream::IngestJournal journal = std::move(opened).value();
    const uint64_t next = recovery.entries.size() + 1;
    ASSERT_TRUE(journal.Append(MakeEntry(next)).ok());
  }
}

// ---------- fsync faults: durability failures surface as errors ----------

TEST(JournalFsyncFaultTest, AppendSurfacesFsyncFailureAndStaysUsable) {
  const std::string path = TempPath("fsync_append.wal");
  auto opened = journal::FrameJournal::Open(path, kTestMagic);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  journal::FrameJournal journal = std::move(opened).value();
  ASSERT_TRUE(journal.Append(MakePayload(0)).ok());

  {
    fault::ScopedFsyncFault fault;
    const Status failed = journal.Append(MakePayload(1));
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.code(), StatusCode::kIoError);
    EXPECT_GE(fault.injected_failures(), 1u);
    // The failed frame was not acknowledged and is not on disk.
    EXPECT_EQ(journal.frame_count(), 1u);
  }

  // The disk recovered; the same journal object keeps working.
  ASSERT_TRUE(journal.Append(MakePayload(2)).ok());
  journal.Close();

  journal::FrameRecovery recovery;
  auto reopened = journal::FrameJournal::Open(path, kTestMagic, &recovery);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_EQ(recovery.frames.size(), 2u);
  EXPECT_EQ(recovery.frames[0], MakePayload(0));
  EXPECT_EQ(recovery.frames[1], MakePayload(2));
  EXPECT_FALSE(recovery.tail_dropped);
}

TEST(JournalFsyncFaultTest, ArtifactWriteSurfacesFsyncFailure) {
  const std::string path = TempPath("fsync_artifact.tera");
  artifact::Header header;
  header.kind = "fsync_probe";
  artifact::Section section;
  section.name = "payload";
  section.payload = MakePayload(3);

  {
    fault::ScopedFsyncFault fault;
    const Status failed = artifact::WriteArtifact(path, header, {section});
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.code(), StatusCode::kIoError);
    EXPECT_GE(fault.injected_failures(), 1u);
  }
  // Nothing was published: no artifact, no leftover temp file.
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));

  // And the identical write succeeds once fsync works again.
  ASSERT_TRUE(artifact::WriteArtifact(path, header, {section}).ok());
  auto read = artifact::ReadArtifact(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value().header.kind, "fsync_probe");
}

// ---------- disk-full faults: ENOSPC surfaces, prefixes stay clean ----------

TEST(DiskFullFaultTest, JournalAppendSurfacesEnospcWithRecoverablePrefix) {
  const std::string path = TempPath("enospc_append.wal");
  auto opened = journal::FrameJournal::Open(path, kTestMagic);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  journal::FrameJournal journal = std::move(opened).value();
  ASSERT_TRUE(journal.Append(MakePayload(0)).ok());

  {
    // Allow a few bytes so the failure lands mid-frame: a partial write
    // followed by ENOSPC, the worst case for prefix cleanliness.
    fault::ScopedDiskFullFault fault(/*bytes_before_enospc=*/3);
    const Status failed = journal.Append(MakePayload(1));
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.code(), StatusCode::kIoError);
    EXPECT_GE(fault.injected_failures(), 1u);
    EXPECT_EQ(journal.frame_count(), 1u);  // the failed frame is gone

    // Space frees up; the same descriptor keeps working.
    fault.Refill(1u << 20);
    ASSERT_TRUE(journal.Append(MakePayload(2)).ok());
  }
  journal.Close();

  journal::FrameRecovery recovery;
  auto reopened = journal::FrameJournal::Open(path, kTestMagic, &recovery);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_EQ(recovery.frames.size(), 2u);
  EXPECT_EQ(recovery.frames[0], MakePayload(0));
  EXPECT_EQ(recovery.frames[1], MakePayload(2));
  EXPECT_FALSE(recovery.tail_dropped);
}

TEST(DiskFullFaultTest, ArtifactWriteSurfacesEnospcWithoutPublishing) {
  const std::string path = TempPath("enospc_artifact.tera");
  artifact::Header header;
  header.kind = "enospc_probe";
  artifact::Section section;
  section.name = "payload";
  section.payload = MakePayload(4);

  {
    fault::ScopedDiskFullFault fault(/*bytes_before_enospc=*/8);
    const Status failed = artifact::WriteArtifact(path, header, {section});
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.code(), StatusCode::kIoError);
    EXPECT_GE(fault.injected_failures(), 1u);
  }
  // The atomic-publish contract holds under ENOSPC exactly as under
  // fsync failure: no artifact, no leftover temp file.
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));

  ASSERT_TRUE(artifact::WriteArtifact(path, header, {section}).ok());
  auto read = artifact::ReadArtifact(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value().header.kind, "enospc_probe");
}

// A failed append quarantines the active segment: the next append goes
// to a fresh segment file rather than reusing a descriptor that just
// saw an I/O error.
TEST(DiskFullFaultTest, SegmentedAppendQuarantinesAndRotatesOnRetry) {
  const std::string dir = TempDirPath("enospc_quarantine");
  auto opened = journal::SegmentedJournal::Open(dir, "seg", kTestMagic,
                                                nullptr, SmallSegments(1024));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  journal::SegmentedJournal journal = std::move(opened).value();
  ASSERT_TRUE(journal.Append(MakePayload(0)).ok());
  const uint64_t before = journal.active_segment_id();

  {
    fault::ScopedDiskFullFault fault(/*bytes_before_enospc=*/0);
    const Status failed = journal.Append(MakePayload(1));
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.code(), StatusCode::kIoError);
    EXPECT_EQ(journal.active_segment_id(), before);  // no rotate mid-failure
  }

  // Space is back; the retry lands on a fresh segment.
  ASSERT_TRUE(journal.Append(MakePayload(1)).ok());
  EXPECT_EQ(journal.active_segment_id(), before + 1);
  journal.Close();

  journal::SegmentedRecovery recovery;
  auto reopened = journal::SegmentedJournal::Open(dir, "seg", kTestMagic,
                                                  &recovery, SmallSegments(1024));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  std::vector<std::vector<uint8_t>> flat;
  for (const auto& segment : recovery.segments) {
    for (const auto& frame : segment.frames) flat.push_back(frame);
  }
  ASSERT_EQ(flat.size(), 2u);
  EXPECT_EQ(flat[0], MakePayload(0));
  EXPECT_EQ(flat[1], MakePayload(1));
}

// The full ingest append path rides RetryWithBackoff over a transient
// ENOSPC: the backoff sleep models the operator freeing space, and the
// entry is acknowledged only once it is durable on a fresh segment.
TEST(DiskFullFaultTest, IngestAppendRecoversViaRetryWhenSpaceFrees) {
  const std::string dir = TempDirPath("enospc_ingest_retry");
  stream::IngestJournalOptions options = IngestOptions(dir);
  fault::ScopedDiskFullFault* active_fault = nullptr;
  options.sleep = [&](double) {
    if (active_fault != nullptr) active_fault->Refill(1u << 20);
  };

  stream::IngestJournalRecovery recovery;
  auto opened = stream::IngestJournal::Open(options, &recovery);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  stream::IngestJournal journal = std::move(opened).value();
  ASSERT_TRUE(journal.Append(MakeEntry(1)).ok());

  RunDiagnostics diagnostics;
  {
    fault::ScopedDiskFullFault fault(/*bytes_before_enospc=*/0);
    active_fault = &fault;
    ASSERT_TRUE(journal.Append(MakeEntry(2), &diagnostics).ok());
    active_fault = nullptr;
    EXPECT_GE(fault.injected_failures(), 1u);
  }

  stream::IngestJournalRecovery after;
  auto reopened = stream::IngestJournal::Open(IngestOptions(dir), &after);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_EQ(after.entries.size(), 2u);
  EXPECT_EQ(after.entries[0].sequence, 1u);
  EXPECT_EQ(after.entries[1].sequence, 2u);
}

}  // namespace
}  // namespace transer
