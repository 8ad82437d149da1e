#ifndef TRANSER_UTIL_JOURNAL_IO_H_
#define TRANSER_UTIL_JOURNAL_IO_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace transer {
namespace journal {

/// \file
/// The one torn-tail recovery discipline every append-only journal in
/// the library shares (DESIGN.md §11). A journal on disk is always a
/// well-formed prefix of what was written: a crash mid-append can at
/// worst leave a damaged *trailing* entry, which recovery drops and
/// truncates away. Damage anywhere *before* the tail is not consistent
/// with the append protocol — it means the file was edited or belongs
/// to someone else — and is an error rather than silent data loss.
/// There is one on-disk format, the CRC-framed FrameJournal; both
/// journals in the library are its clients — the sweep checkpoint
/// (core/sweep_checkpoint) directly, the ingest WAL
/// (stream/ingest_journal) through SegmentedJournal — so the policy
/// cannot drift between them.

// ---------------------------------------------------------------------
// Binary CRC-framed journals.

/// \brief Frame-journal tuning knobs.
struct FrameJournalOptions {
  /// Frames larger than this are rejected on write and treated as
  /// corruption on read (a flipped length field can claim anything).
  uint32_t max_frame_bytes = 16u << 20;
};

/// \brief What FrameJournal::Open recovered from an existing file.
struct FrameRecovery {
  std::vector<std::vector<uint8_t>> frames;  ///< payloads, append order
  bool tail_dropped = false;  ///< torn/corrupt tail truncated away
  size_t dropped_bytes = 0;   ///< bytes removed by the truncation
};

/// \brief Append-only write-ahead journal of CRC-framed binary records.
///
/// Layout: a 12-byte header — 4-byte flavour magic, u32 format version,
/// u32 CRC-32 of the first 8 bytes — then zero or more frames, each
/// `u32 payload length | payload | u32 CRC-32(payload)`. All integers
/// little-endian (the artifact_io Encoder discipline).
///
/// Durability contract: Append returns OK only after the frame is
/// written *and* fsync'd, so an acknowledged record survives SIGKILL
/// and power loss. A crash mid-append leaves a torn tail that the next
/// Open truncates back to the last durable frame; a complete-but-CRC-
/// corrupt frame *before* the end of the file fails Open instead (see
/// the file comment). A fresh journal is created via write-temp-fsync-
/// rename, so a crash during creation never leaves a half header.
///
/// Not thread-safe: one writer owns a journal, and concurrent producers
/// serialise through it (the ingest loop's single appender, the sweep
/// checkpoint's mutex).
class FrameJournal {
 public:
  FrameJournal() = default;
  ~FrameJournal();
  FrameJournal(FrameJournal&& other) noexcept;
  FrameJournal& operator=(FrameJournal&& other) noexcept;
  FrameJournal(const FrameJournal&) = delete;
  FrameJournal& operator=(const FrameJournal&) = delete;

  /// Opens (creating if absent) the journal at `path` with the given
  /// 4-byte flavour magic. Existing frames are recovered into
  /// `recovery` (optional); a torn tail is truncated on disk before
  /// returning. Wrong magic -> InvalidArgument; future format version
  /// -> FailedPrecondition; mid-file corruption -> FailedPrecondition.
  static Result<FrameJournal> Open(const std::string& path,
                                   const char magic[4],
                                   FrameRecovery* recovery = nullptr,
                                   const FrameJournalOptions& options = {});

  /// Appends one frame durably (write + fsync) before returning. On
  /// any failure the file is truncated back to the previous durable
  /// prefix (best effort) and the journal remains usable.
  Status Append(std::span<const uint8_t> payload);

  /// Atomically replaces the journal at `path` with a fresh header plus
  /// `frames` (write-temp-fsync-rename). The compaction primitive: the
  /// caller re-Opens afterwards. Any open FrameJournal on `path` must
  /// be closed first.
  static Status Rewrite(const std::string& path, const char magic[4],
                        const std::vector<std::vector<uint8_t>>& frames,
                        const FrameJournalOptions& options = {});

  /// Closes the file descriptor (idempotent; the destructor closes too).
  void Close();

  bool is_open() const { return fd_ >= 0; }
  size_t frame_count() const { return frame_count_; }
  size_t size_bytes() const { return write_offset_; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  FrameJournalOptions options_;
  int fd_ = -1;
  size_t write_offset_ = 0;  ///< end of the durable well-formed prefix
  size_t frame_count_ = 0;
};

/// Read-only frame scan of the journal at `path`: validates the header
/// and recovers every intact frame into `recovery` without truncating
/// anything or keeping a descriptor. Sealed (non-active) segments of a
/// SegmentedJournal are read this way — a torn tail there is *reported*
/// (`tail_dropped`), never repaired, because mid-chain damage is the
/// caller's FailedPrecondition to raise, not a tail to silently drop.
Status ScanFrames(const std::string& path, const char magic[4],
                  FrameRecovery* recovery,
                  const FrameJournalOptions& options = {});

// ---------------------------------------------------------------------
// Segmented journals: a chain of fixed-size FrameJournal segments under
// one directory, with an atomically-published manifest naming the live
// id range. Rotation seals the active segment and opens the next;
// retention drops whole sealed segments from the front. Both are
// crash-ordered so recovery can always reconcile the manifest with the
// files actually present (DESIGN.md §12).

/// \brief Segmented-journal tuning knobs.
struct SegmentedJournalOptions {
  /// The active segment rotates once its size reaches this many bytes
  /// (checked before each append, so a segment may exceed it by at most
  /// one frame).
  size_t max_segment_bytes = 8u << 20;
  /// Per-segment frame cap, forwarded to FrameJournal.
  FrameJournalOptions frame_options;
};

/// \brief One recovered segment: its id and the frames it held.
struct SegmentRecovery {
  uint64_t id = 0;
  std::vector<std::vector<uint8_t>> frames;  ///< payloads, append order
};

/// \brief What SegmentedJournal::Open recovered.
struct SegmentedRecovery {
  std::vector<SegmentRecovery> segments;  ///< ascending id order
  bool tail_dropped = false;   ///< last segment had a torn tail truncated
  size_t dropped_bytes = 0;    ///< bytes removed from the last segment
  size_t orphans_removed = 0;  ///< stale .tmp / out-of-range files deleted
};

/// \brief A disk-budgetable WAL made of rotating FrameJournal segments.
///
/// Layout under `directory`: segment files `<stem>.NNNNNN.wal` (zero-
/// padded decimal id, ids never reused) plus a manifest `<stem>.manifest`
/// — 4-byte magic "TSJM", u32 version, u64 first live id, u64 last live
/// id, u32 CRC-32 of the preceding bytes — published with write-temp-
/// fsync-rename so it is always either the old or the new range, never
/// torn.
///
/// Crash ordering:
///  - Rotation creates the new segment file *before* publishing the
///    manifest that includes it; a crash between leaves an orphan file
///    past `last`, deleted on recovery.
///  - Retention publishes the manifest that excludes dropped segments
///    *before* unlinking them; a crash between leaves stale files below
///    `first`, deleted on recovery.
/// Recovery therefore trusts the manifest range, scans segments
/// first..last-1 read-only (any torn tail there is mid-chain damage ->
/// FailedPrecondition), and opens the last segment writable with the
/// usual torn-tail truncation.
///
/// Not thread-safe — same single-writer contract as FrameJournal.
class SegmentedJournal {
 public:
  SegmentedJournal() = default;
  SegmentedJournal(SegmentedJournal&&) noexcept = default;
  SegmentedJournal& operator=(SegmentedJournal&&) noexcept = default;
  SegmentedJournal(const SegmentedJournal&) = delete;
  SegmentedJournal& operator=(const SegmentedJournal&) = delete;

  /// Opens (creating if needed) the segmented journal `<stem>.*` in
  /// `directory`. Existing frames are recovered into `recovery`
  /// (optional). A directory with segments but no manifest fails with
  /// FailedPrecondition (the manifest is published at creation, so its
  /// absence means tampering); a corrupt manifest is InvalidArgument.
  static Result<SegmentedJournal> Open(const std::string& directory,
                                       const std::string& stem,
                                       const char magic[4],
                                       SegmentedRecovery* recovery = nullptr,
                                       const SegmentedJournalOptions& options = {});

  /// Appends one frame durably, rotating to a fresh segment first when
  /// the active one is at its size cap. On an append failure the active
  /// segment is sealed as-is (quarantined from further writes) so a
  /// caller-level retry lands on a fresh segment; the failed frame is
  /// never acknowledged.
  Status Append(std::span<const uint8_t> payload);

  /// Seals the active segment and starts a new one, regardless of size.
  /// A no-op-sized active segment still rotates (ids are cheap; callers
  /// use this to make "everything before now" droppable).
  Status Rotate();

  /// Drops every *sealed* segment with id < `keep_from_id` — manifest
  /// first, then unlink, per the crash ordering above. The active
  /// segment is never dropped. Returns the number of segments removed.
  Result<size_t> DropSegmentsBefore(uint64_t keep_from_id);

  /// Closes the active segment descriptor (idempotent).
  void Close() { active_.Close(); }

  bool is_open() const { return active_.is_open(); }
  uint64_t first_segment_id() const { return first_id_; }
  uint64_t active_segment_id() const { return last_id_; }
  size_t segment_count() const { return sealed_bytes_.size() + 1; }
  /// Frames in the *active* segment (sealed frames already reported via
  /// recovery are not re-counted here).
  size_t active_frame_count() const { return active_.frame_count(); }
  /// Total live bytes on disk: sealed segment sizes + active segment.
  size_t total_bytes() const;
  const std::string& directory() const { return directory_; }

  /// Path of segment `id` under this journal's directory/stem.
  std::string SegmentPath(uint64_t id) const;

 private:
  Status PublishManifest(uint64_t first_id, uint64_t last_id);
  Status OpenFreshSegment(uint64_t id);

  std::string directory_;
  std::string stem_;
  char magic_[4] = {0, 0, 0, 0};
  SegmentedJournalOptions options_;
  uint64_t first_id_ = 0;  ///< oldest live segment id
  uint64_t last_id_ = 0;   ///< active segment id
  /// Set when an append on the active segment failed: the next append
  /// rotates away from it first (the segment itself is clean — failed
  /// appends are truncated — but the descriptor saw an I/O error).
  bool quarantine_pending_ = false;
  /// Size in bytes of each sealed live segment, keyed by id.
  std::vector<std::pair<uint64_t, size_t>> sealed_bytes_;
  FrameJournal active_;
};

}  // namespace journal
}  // namespace transer

#endif  // TRANSER_UTIL_JOURNAL_IO_H_
