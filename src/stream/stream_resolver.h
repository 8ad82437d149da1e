#ifndef TRANSER_STREAM_STREAM_RESOLVER_H_
#define TRANSER_STREAM_STREAM_RESOLVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/record.h"
#include "features/comparator.h"
#include "ml/classifier.h"
#include "ml/model_store.h"
#include "stream/dynamic_knn.h"
#include "stream/incremental_blocking.h"
#include "stream/ingest_journal.h"
#include "text/char_ngram_embedder.h"
#include "util/diagnostics.h"
#include "util/status.h"

namespace transer {
namespace stream {

/// Artifact kind of a streaming-resolution snapshot.
inline constexpr char kStreamSnapshotKind[] = "stream_snapshot";

/// \brief One resolved match between two streamed records, by their
/// insert-order indices (left < right).
struct StreamMatch {
  uint64_t left = 0;
  uint64_t right = 0;
  double score = 0.0;  ///< classifier match probability at decision time
};

/// \brief Configuration of the incremental resolution state. Recovery
/// refuses to load a snapshot taken under different options (they would
/// replay a *different* stream), so the whole struct is fingerprinted
/// into every snapshot.
struct StreamResolverOptions {
  Schema schema;
  IncrementalBlockingOptions blocking;
  DynamicKnnOptions knn;
  CharNgramEmbedderOptions embedding;
  /// Candidate pairs at or above this match probability become matches.
  double match_threshold = 0.5;
  /// Refit the classifier on the accumulated pseudo-labelled pairs after
  /// every `refresh_interval` applied records (0 = never refresh). Like
  /// the k-NN rebuild, the trigger is a pure function of the applied
  /// count, so replay refreshes at identical points.
  size_t refresh_interval = 128;
  /// A due refresh is skipped (kStreamRefreshSkipped) below this many
  /// accumulated pairs, or when they are all one class.
  size_t min_refresh_pairs = 8;
  /// Optional TransER pipeline artifact to warm-start the classifier
  /// from (ml/model_store). Empty = start from the threshold family.
  std::string warm_start_path;
};

/// \brief The deterministic incremental ER state machine the ingest
/// journal replays into: per record, embed -> block -> compare -> score
/// -> match, with periodic classifier refreshes from the accumulated
/// pseudo-labelled pairs (the GEN/TCL loop of the paper, run streaming).
///
/// Determinism contract (DESIGN.md §11): the entire state is a pure
/// function of the applied entry sequence. Apply is serial; the only
/// parallelism (KD-tree rebuilds) is the bit-identical deterministic
/// build, and every periodic trigger counts applied records rather than
/// clocks. StateDigest() is the check: equal digests <=> equal state.
///
/// Poison records (wrong arity, empty id) are quarantined — recorded by
/// sequence, excluded from all state, reported as
/// kStreamRecordQuarantined — and replay quarantines the exact same
/// set, so a poison record can neither kill the stream nor fork it.
class StreamResolver {
 public:
  /// Builds an empty resolver. Fails if the schema references unknown
  /// similarity functions or the warm-start artifact is incompatible.
  /// A usable warm start is reported as kModelWarmStarted; a missing or
  /// corrupt warm-start artifact fails (a silently cold-started replica
  /// would diverge from its peers).
  static Result<StreamResolver> Create(const StreamResolverOptions& options,
                                       RunDiagnostics* diagnostics = nullptr);

  /// Applies one journaled entry. `entry.sequence` must be exactly
  /// applied_sequence() + 1 — the journal is dense and ordered — and a
  /// gap fails with FailedPrecondition. Poison records are quarantined
  /// and still advance the sequence.
  Status Apply(const IngestEntry& entry,
               RunDiagnostics* diagnostics = nullptr);

  // --- Observable state -----------------------------------------------

  uint64_t applied_sequence() const { return applied_sequence_; }
  /// Records applied into the state (excludes quarantined).
  const std::vector<Record>& records() const { return records_; }
  const std::vector<StreamMatch>& matches() const { return matches_; }
  /// Sequences of quarantined entries, ascending.
  const std::vector<uint64_t>& quarantined() const { return quarantined_; }
  size_t refresh_count() const { return refresh_count_; }
  size_t comparison_count() const { return comparisons_; }
  const std::vector<std::string>& feature_names() const {
    return feature_names_;
  }
  const DynamicKnn& knn() const { return knn_; }
  const IncrementalBlockingIndex& blocking() const { return blocking_; }
  const Classifier& classifier() const { return *classifier_; }

  /// FNV-1a digest over the canonical encoding of the full state:
  /// records, blocking index, matches, pseudo-label buffers, classifier
  /// parameters, counters, and probe k-NN answers for the most recent
  /// records. Two runs are bit-identical iff their digests agree; the
  /// crash-replay matrix is built on this.
  uint64_t StateDigest() const;

  // --- Snapshots (journal retention anchor) ---------------------------

  /// Writes the full state as a TERA artifact, atomically.
  Status SaveSnapshot(const std::string& path) const;

  /// Restores a snapshot written by SaveSnapshot under the same options
  /// (fingerprint-checked; a mismatch is FailedPrecondition). The
  /// blocking index and k-NN index are reconstructed by re-inserting the
  /// snapshot's records in order — bit-identical by construction, and
  /// the snapshot stays small.
  static Result<StreamResolver> LoadSnapshot(
      const std::string& path, const StreamResolverOptions& options,
      RunDiagnostics* diagnostics = nullptr);

  // --- Serving hand-off -----------------------------------------------

  /// Packages the current classifier and pseudo-label state as a TransER
  /// pipeline snapshot the serving repository can index (the live-serve
  /// continuity path: ingest refreshes, serving hot-swaps).
  Result<TransERPipelineState> ExportPipelineState() const;

  /// ExportPipelineState + atomic SaveTransERPipelineState to `path`.
  Status PublishTo(const std::string& path) const;

 private:
  StreamResolver(StreamResolverOptions options, PairComparator comparator,
                 std::vector<std::string> feature_names);

  /// Embeds, blocks, compares and scores one accepted record.
  Status ApplyRecord(const Record& record, RunDiagnostics* diagnostics);

  /// Refits the classifier on the accumulated pair buffer when due.
  void MaybeRefresh(RunDiagnostics* diagnostics);

  /// Non-empty when the record cannot enter the state (the quarantine
  /// reason), empty when it is clean.
  std::string PoisonReason(const Record& record) const;

  uint64_t OptionsFingerprint() const;

  StreamResolverOptions options_;
  PairComparator comparator_;
  std::vector<std::string> feature_names_;
  CharNgramEmbedder embedder_;
  IncrementalBlockingIndex blocking_;
  DynamicKnn knn_;

  std::vector<Record> records_;
  /// records_[i] prepared for comparison, so an apply prepares only the
  /// arriving record. Filled by apply and rebuilt by snapshot load; never
  /// serialised.
  std::vector<PreparedRecords> prepared_;
  std::vector<StreamMatch> matches_;
  std::vector<uint64_t> quarantined_;

  /// Pseudo-labelled pair buffer feeding the periodic refresh: one row
  /// of feature values + label + confidence per compared candidate pair.
  std::vector<double> pair_features_;  ///< row-major, width = features
  std::vector<int> pair_labels_;
  std::vector<double> pair_confidences_;

  std::string classifier_family_;
  std::unique_ptr<Classifier> classifier_;

  uint64_t applied_sequence_ = 0;
  uint64_t applied_records_ = 0;  ///< accepted (non-quarantined) records
  size_t refresh_count_ = 0;
  size_t comparisons_ = 0;
};

}  // namespace stream
}  // namespace transer

#endif  // TRANSER_STREAM_STREAM_RESOLVER_H_
