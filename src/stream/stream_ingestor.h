#ifndef TRANSER_STREAM_STREAM_INGESTOR_H_
#define TRANSER_STREAM_STREAM_INGESTOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "stream/ingest_journal.h"
#include "stream/stream_resolver.h"
#include "util/diagnostics.h"
#include "util/status.h"

namespace transer {
namespace stream {

/// \brief Configuration of the crash-safe ingest loop.
struct StreamIngestorOptions {
  /// Directory holding the journal segments (`ingest.NNNNNN.wal` plus
  /// `ingest.manifest`) and the snapshot (`snapshot.tera`). Must exist.
  std::string directory;
  StreamResolverOptions resolver;
  /// Snapshot + retain after every `snapshot_interval` journaled
  /// entries (0 = only on explicit Snapshot() calls). Like every other
  /// periodic trigger, counted in sequence numbers, so replay snapshots
  /// at the same boundaries.
  size_t snapshot_interval = 0;
  /// Segment rotation threshold for the journal.
  size_t max_segment_bytes = 8u << 20;
  /// Disk budget for the whole journal chain, in bytes (0 = unbounded).
  /// When an append would push the on-disk journal past this, the
  /// ingestor snapshots + retains first; if the journal is *still* over
  /// budget (the live tail alone exceeds it), the append proceeds
  /// anyway — availability over budget — and a kJournalRetentionStalled
  /// event records the breach. The budget bounds journal disk use
  /// whenever snapshots land; it never loses acknowledged data.
  size_t max_journal_bytes = 0;
  /// Backoff policy for transient journal-append failures (ENOSPC /
  /// fsync trouble); each retry lands on a fresh segment.
  serve::RetryPolicy journal_retry;
  /// When non-empty, every snapshot also publishes the current model as
  /// a TransER pipeline artifact `<publish_stem>.tera` in this directory
  /// (atomic rename), where a serve::ModelRepository hot-swaps it in.
  std::string publish_directory;
  std::string publish_stem = "stream";
  /// Test-only crash points, invoked with the entry sequence: after the
  /// journal append is durable but before the state sees the entry, and
  /// after the state applied it. The crash matrix SIGKILLs inside these.
  std::function<void(uint64_t)> after_append_hook;
  std::function<void(uint64_t)> after_apply_hook;
  /// More test-only crash points for the segment lifecycle: after an
  /// ingest whose append rotated to a new segment (argument: sequence),
  /// after the snapshot artifact landed but before retention (argument:
  /// covered sequence), and after retention deleted covered segments
  /// (argument: covered sequence).
  std::function<void(uint64_t)> after_rotate_hook;
  std::function<void(uint64_t)> after_snapshot_save_hook;
  std::function<void(uint64_t)> after_retain_hook;
};

/// \brief Journal + retention counters for telemetry (the ingest tool
/// emits these as a JSON line and a bench sidecar).
struct JournalStats {
  size_t segments = 0;        ///< live segment files
  size_t live_bytes = 0;      ///< on-disk journal bytes across segments
  uint64_t first_segment = 0; ///< oldest live segment id
  uint64_t active_segment = 0;
  size_t retention_stalls = 0;  ///< times the disk budget was breached
  size_t segments_dropped = 0;  ///< segments deleted by retention so far
};

/// \brief Journaled streaming ER with bit-identical replay: the write-
/// ahead loop `journal append (durable) -> apply -> periodic snapshot +
/// segment retention`, and the recovery `load snapshot -> replay
/// journal tail` (DESIGN.md §11, §12).
///
/// Crash contract: a SIGKILL (or torn write, or fsync failure, or
/// ENOSPC) at ANY point leaves a state Open() recovers to exactly what
/// an uninterrupted run reaches after the same acknowledged entries —
/// verified by StreamResolver::StateDigest over the kill matrix in
/// tests/stream_crash_test.cc. Records are acknowledged only after the
/// journal fsync, so an acknowledged record is never lost and an
/// unacknowledged one never half-applied.
class StreamIngestor {
 public:
  /// Opens the directory and recovers: journal recovery (torn tail
  /// truncated and reported as kCheckpointTailDropped), snapshot load
  /// (corrupt snapshot falls back to a full journal replay when the
  /// journal still holds full history — kStreamSnapshotFallback — and
  /// fails otherwise), then tail replay of every journal entry past the
  /// snapshot's applied sequence.
  static Result<StreamIngestor> Open(const StreamIngestorOptions& options,
                                     RunDiagnostics* diagnostics = nullptr);

  /// Ingests one record: assigns the next sequence, journals it
  /// durably, applies it, and snapshots at the configured interval.
  /// The record is acknowledged (OK) only after the journal fsync.
  Status Ingest(const Record& record, RunDiagnostics* diagnostics = nullptr);

  /// Snapshot + retain covered segments + publish now.
  Status Snapshot(RunDiagnostics* diagnostics = nullptr);

  const StreamResolver& resolver() const { return *resolver_; }
  uint64_t applied_sequence() const { return resolver_->applied_sequence(); }
  /// Journal entries replayed into the state during Open().
  size_t replayed_entries() const { return replayed_; }
  /// True when Open() recovered from a snapshot (vs a cold start).
  bool recovered_from_snapshot() const { return from_snapshot_; }
  size_t snapshot_count() const { return snapshots_; }
  JournalStats journal_stats() const;

  std::string journal_directory() const { return options_.directory; }
  std::string snapshot_path() const;
  std::string publish_path() const;

 private:
  StreamIngestor(StreamIngestorOptions options, IngestJournal journal,
                 StreamResolver resolver)
      : options_(std::move(options)),
        journal_(std::move(journal)),
        resolver_(std::make_unique<StreamResolver>(std::move(resolver))) {}

  StreamIngestorOptions options_;
  IngestJournal journal_;
  /// unique_ptr keeps the ingestor movable without requiring the
  /// resolver (which holds std::function members) to be move-assignable.
  std::unique_ptr<StreamResolver> resolver_;
  size_t replayed_ = 0;
  bool from_snapshot_ = false;
  size_t snapshots_ = 0;
  uint64_t last_snapshot_sequence_ = 0;
  size_t retention_stalls_ = 0;
  size_t segments_dropped_ = 0;
  /// True while the journal sits over budget with nothing retainable,
  /// so the stall event fires once per episode instead of per record.
  bool stalled_ = false;
};

/// \brief Drives `total` records from `writers` producer threads into
/// one ingestor while preserving the single-writer determinism
/// contract. Producer p builds the records for global indices i with
/// i % writers == p (via `make_record(i)`, which must be thread-safe
/// and pure) into a bounded per-producer queue; the calling thread is
/// the single sequencing appender, merging queues in global index order
/// and validating each producer's per-queue ordering. The journal —
/// and therefore StateDigest — is bit-identical to a single-writer run
/// of the same records at any writer count.
Status RunMultiWriterIngest(StreamIngestor* ingestor, size_t writers,
                            uint64_t total,
                            const std::function<Record(uint64_t)>& make_record,
                            RunDiagnostics* diagnostics = nullptr);

}  // namespace stream
}  // namespace transer

#endif  // TRANSER_STREAM_STREAM_INGESTOR_H_
