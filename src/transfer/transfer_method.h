#ifndef TRANSER_TRANSFER_TRANSFER_METHOD_H_
#define TRANSER_TRANSFER_TRANSFER_METHOD_H_

#include <string>
#include <vector>

#include "features/feature_matrix.h"
#include "knn/knn_backend.h"
#include "ml/classifier.h"
#include "util/diagnostics.h"
#include "util/execution_context.h"
#include "util/status.h"

namespace transer {

/// \brief Per-run controls for a transfer method.
struct TransferRunOptions {
  uint64_t seed = 0;
  /// Worker lanes for SEL's neighbourhood loop and its kNN index, and
  /// for a sweep's group lanes. RunTransferPipeline also hands it to
  /// blocking and comparison when PipelineOptions::num_threads is 0. No
  /// classifier reads it: a random forest fits on
  /// RandomForestOptions::num_threads. 0 = the process default (hardware
  /// width or the binary's --threads flag). Results are bit-identical for
  /// every value — see util/parallel.h.
  int num_threads = 0;
  /// Optional sink for the graceful-degradation events of the run
  /// (threshold relaxations, fallbacks, skipped phases) and for the
  /// budget outcomes (TE / ME / cancellation). Not owned.
  RunDiagnostics* diagnostics = nullptr;
  /// The run's execution control (deadline, cancellation, memory budget,
  /// heartbeat): the only way to bound a run. The paper capped every
  /// experiment at 200 GB / 72 h (Section 5.1.1, 'ME' / 'TE' cells).
  /// Never null. Not owned.
  const ExecutionContext* context = &ExecutionContext::Unlimited();
  /// When non-empty, methods that support model snapshots (currently
  /// TransER) write their trained pipeline artifact to this path once,
  /// atomically, when the run succeeds; a failed run leaves the path as
  /// it was. The run never reads the path: it trains whatever the file
  /// holds. A failed save records one kModelSaveFailed event and never
  /// fails the run. Trained artifacts are read back only by the explicit
  /// readers: `transer_csv_tool --load-model`, serve::ModelRepository
  /// and StreamResolverOptions::warm_start_path.
  std::string model_snapshot_path;
  /// Nearest-neighbour index behind the SEL neighbourhood scans.
  /// kKdTree (the default) and kBruteForce are exact and bit-identical
  /// to each other; kAnnGraph answers within `knn_recall_target` of the
  /// true top-k in sub-linear time — SEL's thresholded selection
  /// tolerates the residual neighbour error (bounded end-to-end by the
  /// table2 F1 gate in tests/ann_test.cc). Any backend is
  /// deterministic: fixed inputs + seed give the same selection at any
  /// thread count.
  KnnBackendKind knn_backend = KnnBackendKind::kKdTree;
  /// Recall knob of the approximate backend, in (0, 1]. 1.0 falls back
  /// to the exact index (with a kAnnExactFallback diagnostics event).
  /// Ignored for the exact backends.
  double knn_recall_target = 0.95;
  /// Explicit beam width override for the approximate backend; 0
  /// derives the beam from `knn_recall_target`.
  size_t knn_ef_search = 0;
};

/// Assembles the factory request for the run's kNN backend choice:
/// kind/recall/beam from the options, the graph's level-hash seed
/// derived from `seed`, and `num_threads` for the exact builds (pass
/// the already-resolved lane count, not the raw option).
KnnBackendOptions ResolveKnnBackendOptions(
    const TransferRunOptions& run_options, int num_threads);

/// \brief A transfer-learning ER method: given a labelled source feature
/// matrix and an unlabelled target feature matrix over the same feature
/// space, predict match/non-match for every target instance.
class TransferMethod {
 public:
  virtual ~TransferMethod() = default;

  /// Short identifier, e.g. "transer", "naive", "coral".
  virtual std::string name() const = 0;

  /// Predicts target labels. Target labels present in `target` must be
  /// ignored (callers typically pass target.WithoutLabels()).
  /// `make_classifier` supplies the classifier family for methods that
  /// are model agnostic; deep methods may ignore it.
  /// Returns FailedPrecondition with a message containing "TE" / "ME"
  /// when a time / memory limit is exceeded, and a cancellation
  /// FailedPrecondition when the context's token fired; budget outcomes
  /// are also recorded in `run_options.diagnostics` when set.
  virtual Result<std::vector<int>> Run(
      const FeatureMatrix& source, const FeatureMatrix& target,
      const ClassifierFactory& make_classifier,
      const TransferRunOptions& run_options) const = 0;
};

namespace transfer_internal {

/// The dominant dense working set every method materialises up front:
/// row-major copies of both domains (FeatureMatrix::ToMatrix). Methods
/// reserve this against the context's budget at entry so a tiny budget
/// surfaces as 'ME' before any compute.
size_t DomainWorkingSetBytes(const FeatureMatrix& source,
                             const FeatureMatrix& target);

/// Extracts labels as a 0/1 vector (CHECK-fails on unlabeled instances).
std::vector<int> RequireLabels(const FeatureMatrix& x);

}  // namespace transfer_internal

}  // namespace transer

#endif  // TRANSER_TRANSFER_TRANSFER_METHOD_H_
