#ifndef TRANSER_CORE_SWEEP_CHECKPOINT_H_
#define TRANSER_CORE_SWEEP_CHECKPOINT_H_

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "eval/metrics.h"
#include "util/diagnostics.h"
#include "util/journal_io.h"
#include "util/status.h"

namespace transer {

/// \brief Identity of one sweep cell: a (method, scenario, classifier)
/// triple, the unit of work Tables 2 / 3 iterate over.
struct SweepCellKey {
  std::string method;
  std::string scenario;
  std::string classifier;

  bool operator==(const SweepCellKey& other) const {
    return method == other.method && scenario == other.scenario &&
           classifier == other.classifier;
  }
};

/// \brief Journal entry for one completed sweep cell.
struct SweepCellRecord {
  SweepCellKey key;
  /// The exact per-run seed the cell was executed with; a resumed sweep
  /// re-runs (or skips) the cell under the same seed, which is what makes
  /// resumed aggregates bit-identical to uninterrupted ones.
  uint64_t seed = 0;
  /// Empty on success; "TE" / "ME" for the paper's deterministic budget
  /// failures (skipped on resume); anything else is a transient failure
  /// eligible for one retry.
  std::string failure;
  LinkageQuality quality;  ///< valid only when `failure` is empty
  double runtime_seconds = 0.0;
};

/// Serialises a record as one journal frame payload (artifact::Encoder
/// layout). Doubles are stored as their IEEE-754 bits, so decoding
/// round-trips them exactly.
std::vector<uint8_t> EncodeSweepCellRecord(const SweepCellRecord& record);

/// Parses one frame payload. InvalidArgument on any malformation.
Result<SweepCellRecord> DecodeSweepCellRecord(
    std::span<const uint8_t> payload);

/// \brief Append-only journal of completed sweep cells, giving
/// experiment sweeps crash-safe restartability.
///
/// A client of journal::FrameJournal (DESIGN.md §11): every Record()
/// appends one CRC-framed cell and fsyncs it before returning, so an
/// acknowledged cell survives SIGKILL and power loss. A crash mid-append
/// can at worst leave a torn trailing frame, which Open() truncates
/// (reporting kCheckpointTailDropped) and the sweep re-runs.
///
/// Not thread-safe: concurrent writers serialise Record() themselves.
class SweepCheckpoint {
 public:
  /// Loads the journal at `path`, creating an empty one if absent. A
  /// torn trailing frame is truncated away and the drop is recorded in
  /// `diagnostics`. Damage *before* the tail fails with
  /// FailedPrecondition instead of silently discarding completed work;
  /// a file that is not a sweep checkpoint — including the JSON-lines
  /// checkpoints of older builds — fails with InvalidArgument and is
  /// left untouched.
  static Result<SweepCheckpoint> Open(const std::string& path,
                                      RunDiagnostics* diagnostics = nullptr);

  /// Latest record for `key`, or nullptr if the cell has not completed.
  const SweepCellRecord* Find(const SweepCellKey& key) const;

  /// Journals `record` durably (append + fsync) before returning.
  /// Re-recording a key (a retried cell) supersedes the earlier entry.
  /// On failure nothing changes: the cell is neither in memory nor
  /// acknowledged on disk.
  Status Record(const SweepCellRecord& record);

  /// Rewrites the journal in canonical (scenario, method, classifier)
  /// name order, dropping superseded entries. A parallel sweep journals
  /// cells in completion order, which depends on scheduling;
  /// canonicalising at the end of a completed sweep makes the final
  /// journal independent of how many threads ran it (runtime_seconds
  /// fields aside).
  Status Canonicalize();

  size_t size() const { return records_.size(); }
  const std::string& path() const { return journal_.path(); }
  const std::vector<SweepCellRecord>& records() const { return records_; }

 private:
  SweepCheckpoint() = default;

  /// Inserts `record`, superseding any earlier record for its key.
  void Apply(SweepCellRecord record);

  static std::string IndexKey(const SweepCellKey& key);

  journal::FrameJournal journal_;
  std::vector<SweepCellRecord> records_;
  std::unordered_map<std::string, size_t> index_;  ///< IndexKey -> records_
};

}  // namespace transer

#endif  // TRANSER_CORE_SWEEP_CHECKPOINT_H_
