#ifndef TRANSER_STREAM_INGEST_JOURNAL_H_
#define TRANSER_STREAM_INGEST_JOURNAL_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "data/record.h"
#include "serve/retry.h"
#include "util/diagnostics.h"
#include "util/journal_io.h"
#include "util/status.h"

namespace transer {
namespace stream {

/// Flavour magic of the ingest write-ahead journal ("TransER Ingest
/// Write-ahead Log").
inline constexpr char kIngestJournalMagic[4] = {'T', 'I', 'W', 'L'};

/// \brief One journaled ingest operation: a record plus the sequence
/// number that fixes its position in the stream. Replay applies entries
/// in sequence order, which is what makes recovery bit-identical to the
/// uninterrupted run — the journal *is* the stream.
struct IngestEntry {
  uint64_t sequence = 0;  ///< 1-based, dense, assigned by the ingestor
  Record record;
};

/// Serialises an entry to the frame payload (artifact::Encoder layout).
std::vector<uint8_t> EncodeIngestEntry(const IngestEntry& entry);

/// Inverse of EncodeIngestEntry; bounds-checked, InvalidArgument on any
/// malformation (the frame CRC catches bit rot first; this catches
/// crafted or version-skewed payloads).
Result<IngestEntry> DecodeIngestEntry(std::span<const uint8_t> payload);

/// \brief Ingest-journal configuration.
struct IngestJournalOptions {
  /// Directory holding the segment chain `<stem>.NNNNNN.wal` plus its
  /// manifest `<stem>.manifest`. Must exist.
  std::string directory;
  std::string stem = "ingest";
  /// Segment rotation threshold (see SegmentedJournalOptions).
  size_t max_segment_bytes = 8u << 20;
  /// Backoff budget for transient append failures (ENOSPC, fsync
  /// trouble). Each retry lands on a fresh segment — the failed one is
  /// quarantined by the segmented layer — so a retry can succeed once
  /// space frees up, and the record is acked only after a durable
  /// append.
  serve::RetryPolicy retry;
  /// Test hook: replaces the real backoff sleep.
  serve::SleepFn sleep;
};

/// \brief What IngestJournal::Open recovered.
struct IngestJournalRecovery {
  std::vector<IngestEntry> entries;  ///< journal order (ascending sequence)
  bool tail_dropped = false;         ///< torn trailing frame truncated
  size_t dropped_bytes = 0;
  size_t segments = 0;         ///< live segments after recovery
  size_t orphans_removed = 0;  ///< stale .tmp / out-of-range files deleted
};

/// \brief The record write-ahead journal of the streaming ingestor: a
/// SegmentedJournal of IngestEntry frames. Every entry is durable
/// (fsync'd) before the in-memory state sees it, so a SIGKILL at any
/// boundary loses at most an *unacknowledged* append, and replaying the
/// journal reconstructs the exact pre-crash state (DESIGN.md §11, §12).
///
/// Retention is segment-granular: once a snapshot covers sequence S,
/// RetainCoveredBy(S) drops every sealed segment whose entries are all
/// <= S — entire files unlinked, no rewrite of live data.
class IngestJournal {
 public:
  /// Opens (creating if needed) the segment chain in
  /// `options.directory`, recovering all intact entries across all
  /// segments. Entries must have strictly increasing sequence numbers;
  /// a violation fails with FailedPrecondition.
  static Result<IngestJournal> Open(const IngestJournalOptions& options,
                                    IngestJournalRecovery* recovery);

  /// Durably appends one entry, retrying transient I/O failures under
  /// the options' backoff policy (each retry on a fresh segment).
  /// Returns OK only once the entry is on disk and fsync'd.
  Status Append(const IngestEntry& entry,
                RunDiagnostics* diagnostics = nullptr);

  /// Drops every segment whose entries are all covered by a durable
  /// snapshot at `sequence`: rotates the active segment first when it,
  /// too, is fully covered, then unlinks covered sealed segments.
  /// Returns the number of segments removed.
  Result<size_t> RetainCoveredBy(uint64_t sequence);

  size_t segment_count() const { return journal_.segment_count(); }
  /// Live journal bytes on disk across all segments.
  size_t size_bytes() const { return journal_.total_bytes(); }
  uint64_t first_segment_id() const { return journal_.first_segment_id(); }
  uint64_t active_segment_id() const { return journal_.active_segment_id(); }
  /// Sequence of the last successfully appended entry (0 when the
  /// journal holds none since recovery).
  uint64_t last_appended_sequence() const { return last_appended_sequence_; }
  const std::string& directory() const { return journal_.directory(); }

 private:
  IngestJournal(IngestJournalOptions options,
                journal::SegmentedJournal journal)
      : options_(std::move(options)), journal_(std::move(journal)) {}

  /// Records the last-entry sequence of segments the segmented layer
  /// sealed since the previous sync (rotation happens inside its
  /// Append; this keeps the retention map current).
  void SyncSealed();

  IngestJournalOptions options_;
  journal::SegmentedJournal journal_;
  /// (segment id, sequence of its last entry) for sealed live segments,
  /// ascending; an empty sealed segment inherits its predecessor's.
  std::vector<std::pair<uint64_t, uint64_t>> sealed_last_sequence_;
  uint64_t synced_through_id_ = 1;  ///< active id as of the last sync
  uint64_t last_appended_sequence_ = 0;
};

}  // namespace stream
}  // namespace transer

#endif  // TRANSER_STREAM_INGEST_JOURNAL_H_
