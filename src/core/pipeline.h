#ifndef TRANSER_CORE_PIPELINE_H_
#define TRANSER_CORE_PIPELINE_H_

#include <string>

#include "blocking/minhash_lsh.h"
#include "data/dataset.h"
#include "eval/metrics.h"
#include "features/comparator.h"
#include "features/feature_matrix.h"
#include "transfer/transfer_method.h"
#include "util/diagnostics.h"
#include "util/validation.h"

namespace transer {

/// \brief Options for the record-level ER pipeline of Figure 1:
/// blocking -> record-pair comparison -> (transfer) classification.
struct PipelineOptions {
  MinHashLshOptions blocking;
  ComparatorOptions comparison;
  /// Feature-matrix validation applied to both domains before transfer.
  /// The default repairs non-finite values in place (recording a
  /// DegradationEvent) rather than failing the whole linkage; set the
  /// policy to kStrict to reject dirty domains instead.
  ValidationOptions validation{.policy = RepairPolicy::kClampValues};
  /// Worker lanes for blocking and comparison (0 = process default). The
  /// pair list and the feature matrix are bit-identical for every value.
  int num_threads = 0;
};

/// \brief Blocking + comparison statistics of one linkage problem.
struct PipelineBuildInfo {
  size_t candidate_pairs = 0;
  size_t true_matches_in_candidates = 0;
  size_t true_matches_total = 0;

  /// Fraction of true matches surviving blocking (pairs completeness).
  double BlockingRecall() const {
    return true_matches_total == 0
               ? 0.0
               : static_cast<double>(true_matches_in_candidates) /
                     static_cast<double>(true_matches_total);
  }
};

/// Runs blocking and comparison on a linkage problem, producing the
/// labelled feature matrix of the domain. `info` (optional) receives
/// blocking statistics. `context` bounds the stage: blocking and
/// comparison observe its deadline / cancellation / memory budget,
/// surfacing 'TE' / 'ME' statuses; budget outcomes are recorded in
/// `diagnostics` when set.
Result<FeatureMatrix> BuildDomainFeatures(
    const LinkageProblem& problem, const PipelineOptions& options,
    PipelineBuildInfo* info = nullptr,
    const ExecutionContext& context = ExecutionContext::Unlimited(),
    RunDiagnostics* diagnostics = nullptr);

/// \brief Result of an end-to-end transfer linkage.
struct EndToEndResult {
  LinkageQuality quality;
  PipelineBuildInfo source_info;
  PipelineBuildInfo target_info;
  size_t source_instances = 0;
  size_t target_instances = 0;
  /// Every graceful-degradation step of the run: validation repairs on
  /// either domain plus the transfer method's own events.
  RunDiagnostics diagnostics;
};

/// Full Figure-1 + Figure-3 run: build both domains' feature matrices from
/// raw records, transfer-classify the target with `method`, and evaluate
/// against the target's ground truth.
Result<EndToEndResult> RunTransferPipeline(
    const LinkageProblem& source_problem,
    const LinkageProblem& target_problem, const TransferMethod& method,
    const ClassifierFactory& make_classifier,
    const PipelineOptions& options = {},
    const TransferRunOptions& run_options = {});

}  // namespace transer

#endif  // TRANSER_CORE_PIPELINE_H_
