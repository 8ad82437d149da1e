#ifndef TRANSER_UTIL_DIAGNOSTICS_H_
#define TRANSER_UTIL_DIAGNOSTICS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace transer {

/// \brief The ways a run may deviate from the nominal algorithm while
/// still producing a usable answer. Every deviation is recorded as a
/// DegradationEvent so callers can distinguish "clean run" from
/// "degraded but sane" without parsing logs.
enum class DegradationKind {
  kRowsDropped = 0,       ///< ingestion/validation discarded bad rows
  kValuesRepaired,        ///< non-finite/out-of-range values clamped
  kSelThresholdRelaxed,   ///< t_c / t_l lowered to keep enough instances
  kSelFallbackNaive,      ///< SEL abandoned; full source used instead
  kGenThresholdLowered,   ///< t_p lowered to obtain pseudo-label candidates
  kTclSkipped,            ///< TCL untrainable; pseudo labels returned as-is
  kTimeLimitExceeded,     ///< wall-clock budget expired (the paper's 'TE')
  kMemoryLimitExceeded,   ///< memory budget exceeded (the paper's 'ME')
  kRunCancelled,          ///< cancellation token fired mid-run
  kCheckpointTailDropped, ///< corrupt trailing journal line(s) truncated
  kCheckpointCellRetried, ///< transiently failed sweep cell re-run on resume
  kModelWarmStarted,      ///< stream classifier restored from an artifact
  kModelArtifactRejected, ///< saved model unusable (corrupt/incompatible)
  kModelSaveFailed,       ///< snapshot write failed; run continued unsaved
  kServeRequestShed,      ///< serving: request shed (queue full / draining)
  kServeClassifyOnly,     ///< serving: resolve degraded to classify-only
  kServeRequestRejected,  ///< serving: request rejected with structured error
  kServeArtifactRetried,  ///< serving: transient artifact load retried
  kStreamRecordQuarantined,  ///< ingest: poison record isolated, stream went on
  kStreamSnapshotFallback,   ///< ingest: snapshot unusable; full journal replay
  kStreamRefreshSkipped,     ///< ingest: classifier refresh due but untrainable
  kJournalRetentionStalled,  ///< ingest: disk budget hit, no snapshot covers
                             ///< the backlog; journal grew past the budget
  kAnnExactFallback,         ///< knn: recall_target 1.0 served by an exact
                             ///< backend instead of the approximate graph
};

/// Short identifier, e.g. "sel_threshold_relaxed".
const char* DegradationKindName(DegradationKind kind);

/// \brief One structured record of a graceful-degradation step.
struct DegradationEvent {
  DegradationKind kind = DegradationKind::kRowsDropped;
  std::string phase;   ///< "ingest", "validate", "sel", "gen", "tcl"
  std::string detail;  ///< human-readable explanation
  /// Parameter value before/after the step (thresholds) or a count
  /// (rows dropped, values repaired) in `adjusted_value`.
  double original_value = 0.0;
  double adjusted_value = 0.0;

  std::string ToString() const;
};

/// \brief Ordered collection of the degradation steps of one run,
/// attached to TransERReport / EndToEndResult. An empty event list means
/// the run executed the nominal algorithm on clean inputs.
struct RunDiagnostics {
  std::vector<DegradationEvent> events;

  bool degraded() const { return !events.empty(); }
  size_t CountKind(DegradationKind kind) const;
  bool HasKind(DegradationKind kind) const { return CountKind(kind) > 0; }

  /// Records one event (also logged at Warning level).
  void Add(DegradationEvent event);
  /// Convenience: builds and records an event.
  void Add(DegradationKind kind, std::string phase, std::string detail,
           double original_value = 0.0, double adjusted_value = 0.0);
  /// Appends all events of `other`.
  void Merge(const RunDiagnostics& other);

  /// Multi-line human-readable rendering ("no degradation" when clean).
  std::string Summary() const;
};

}  // namespace transer

#endif  // TRANSER_UTIL_DIAGNOSTICS_H_
