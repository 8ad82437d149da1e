#include "util/diagnostics.h"

#include <sstream>

#include "util/logging.h"

namespace transer {

const char* DegradationKindName(DegradationKind kind) {
  switch (kind) {
    case DegradationKind::kRowsDropped:
      return "rows_dropped";
    case DegradationKind::kValuesRepaired:
      return "values_repaired";
    case DegradationKind::kSelThresholdRelaxed:
      return "sel_threshold_relaxed";
    case DegradationKind::kSelFallbackNaive:
      return "sel_fallback_naive";
    case DegradationKind::kGenThresholdLowered:
      return "gen_threshold_lowered";
    case DegradationKind::kTclSkipped:
      return "tcl_skipped";
    case DegradationKind::kTimeLimitExceeded:
      return "time_limit_exceeded";
    case DegradationKind::kMemoryLimitExceeded:
      return "memory_limit_exceeded";
    case DegradationKind::kRunCancelled:
      return "run_cancelled";
    case DegradationKind::kCheckpointTailDropped:
      return "checkpoint_tail_dropped";
    case DegradationKind::kCheckpointCellRetried:
      return "checkpoint_cell_retried";
    case DegradationKind::kModelWarmStarted:
      return "model_warm_started";
    case DegradationKind::kModelArtifactRejected:
      return "model_artifact_rejected";
    case DegradationKind::kModelSaveFailed:
      return "model_save_failed";
    case DegradationKind::kServeRequestShed:
      return "serve_request_shed";
    case DegradationKind::kServeClassifyOnly:
      return "serve_classify_only";
    case DegradationKind::kServeRequestRejected:
      return "serve_request_rejected";
    case DegradationKind::kServeArtifactRetried:
      return "serve_artifact_retried";
    case DegradationKind::kStreamRecordQuarantined:
      return "stream_record_quarantined";
    case DegradationKind::kStreamSnapshotFallback:
      return "stream_snapshot_fallback";
    case DegradationKind::kStreamRefreshSkipped:
      return "stream_refresh_skipped";
    case DegradationKind::kJournalRetentionStalled:
      return "journal_retention_stalled";
    case DegradationKind::kAnnExactFallback:
      return "ann_exact_fallback";
  }
  return "unknown";
}

std::string DegradationEvent::ToString() const {
  std::ostringstream out;
  out << "[" << phase << "] " << DegradationKindName(kind) << ": " << detail;
  if (original_value != adjusted_value) {
    out << " (" << original_value << " -> " << adjusted_value << ")";
  }
  return out.str();
}

size_t RunDiagnostics::CountKind(DegradationKind kind) const {
  size_t count = 0;
  for (const DegradationEvent& event : events) {
    if (event.kind == kind) ++count;
  }
  return count;
}

void RunDiagnostics::Add(DegradationEvent event) {
  TRANSER_LOG(Warning) << "degradation " << event.ToString();
  events.push_back(std::move(event));
}

void RunDiagnostics::Add(DegradationKind kind, std::string phase,
                         std::string detail, double original_value,
                         double adjusted_value) {
  DegradationEvent event;
  event.kind = kind;
  event.phase = std::move(phase);
  event.detail = std::move(detail);
  event.original_value = original_value;
  event.adjusted_value = adjusted_value;
  Add(std::move(event));
}

void RunDiagnostics::Merge(const RunDiagnostics& other) {
  events.insert(events.end(), other.events.begin(), other.events.end());
}

std::string RunDiagnostics::Summary() const {
  if (events.empty()) return "no degradation";
  std::ostringstream out;
  out << events.size() << (events.size() == 1 ? " degradation event:"
                                              : " degradation events:");
  for (const DegradationEvent& event : events) {
    out << "\n  " << event.ToString();
  }
  return out.str();
}

}  // namespace transer
