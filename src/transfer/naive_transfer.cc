#include "transfer/naive_transfer.h"

namespace transer {

Result<std::vector<int>> NaiveTransfer::Run(
    const FeatureMatrix& source, const FeatureMatrix& target,
    const ClassifierFactory& make_classifier,
    const TransferRunOptions& run_options) const {
  if (source.num_features() != target.num_features()) {
    return Status::InvalidArgument(
        "source and target feature spaces differ");
  }
  // No transfer machinery of its own, but the domain copies and the
  // classifier fit still observe the shared budget.
  const ExecutionContext& context = *run_options.context;
  TRANSER_RETURN_IF_ERROR(context.Check("naive", run_options.diagnostics));
  ScopedReservation working_set;
  TRANSER_RETURN_IF_ERROR(working_set.Acquire(
      context, "naive",
      transfer_internal::DomainWorkingSetBytes(source, target),
      run_options.diagnostics));

  auto classifier = make_classifier();
  classifier->set_execution_context(&context);
  classifier->Fit(source.ToMatrix(), transfer_internal::RequireLabels(source));
  TRANSER_RETURN_IF_ERROR(context.Check("naive", run_options.diagnostics));
  return classifier->PredictAll(target.ToMatrix());
}

}  // namespace transer
