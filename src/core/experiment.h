#ifndef TRANSER_CORE_EXPERIMENT_H_
#define TRANSER_CORE_EXPERIMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "core/sweep_checkpoint.h"
#include "data/scenario.h"
#include "eval/aggregate.h"
#include "eval/metrics.h"
#include "ml/classifier.h"
#include "transfer/transfer_method.h"

namespace transer {

/// \brief Outcome of one (method, scenario) cell of Tables 2 / 3:
/// linkage quality aggregated over the classifier suite plus runtime.
struct MethodScenarioResult {
  std::string method;
  std::string scenario;
  QualityAggregate quality;
  std::vector<LinkageQuality> per_classifier;
  double total_runtime_seconds = 0.0;
  size_t completed_runs = 0;
  /// Non-empty when the method failed: "TE" (time), "ME" (memory), or the
  /// status message.
  std::string failure;
};

/// \brief Runs one transfer method on one scenario for every classifier in
/// the suite and aggregates (the protocol of Section 5.1.1: per-method
/// averages ± std over SVM / RF / LR / DT). A TE/ME failure on the first
/// classifier short-circuits the remaining runs.
MethodScenarioResult RunMethodOnScenario(
    const TransferMethod& method, const TransferScenario& scenario,
    const std::vector<NamedClassifierFactory>& suite,
    const TransferRunOptions& base_options);

/// Classifies a failure status into the paper's table shorthand:
/// "TE" for time, "ME" for memory, otherwise the status text.
std::string FailureShorthand(const Status& status);

/// The baseline line-up of Section 5.1.3 in table order: TransER first,
/// then Naive, DTAL*, DR, LocIT*, TCA, Coral.
std::vector<std::unique_ptr<TransferMethod>> DefaultMethodLineup();

/// \brief Controls for a (checkpointed) experiment sweep.
struct SweepOptions {
  /// SweepCheckpoint journal path. Empty disables checkpointing (the
  /// sweep then behaves exactly like looping RunMethodOnScenario).
  std::string checkpoint_path;
  /// Per-cell run options: `seed` is the sweep base seed (each cell runs
  /// at seed + 1000 * classifier_index, as RunMethodOnScenario does);
  /// `context`, when set, is checked between cells so cancellation or a
  /// sweep-wide deadline stops the sweep at a cell boundary with every
  /// completed cell already journaled.
  TransferRunOptions base_options;
  /// Sink for sweep-level events (checkpoint tail drops, cell retries).
  RunDiagnostics* diagnostics = nullptr;
  /// When non-empty, each cell runs with a per-cell model snapshot path
  /// (`<dir>/<method>_<scenario>_<classifier>.tera`) so methods that
  /// support snapshots (TransER) warm-start on resume instead of
  /// retraining. The directory must already exist.
  std::string warm_start_dir;
};

/// \brief Runs every (method x scenario x classifier) cell of a
/// Table 2/3-style sweep with crash-safe restartability: each completed
/// cell is journaled; on restart, completed cells are skipped (their
/// recorded results reused, making the resumed aggregate bit-identical to
/// an uninterrupted sweep), deterministic TE/ME failures are not
/// re-attempted, and transiently-failed cells get one bounded retry.
/// Results are ordered scenario-major, method-minor. Stops with the
/// interrupting status when `base_options.context` is cancelled/expired.
Result<std::vector<MethodScenarioResult>> RunCheckpointedSweep(
    const std::vector<std::unique_ptr<TransferMethod>>& methods,
    const std::vector<TransferScenario>& scenarios,
    const std::vector<NamedClassifierFactory>& suite,
    const SweepOptions& options);

}  // namespace transer

#endif  // TRANSER_CORE_EXPERIMENT_H_
