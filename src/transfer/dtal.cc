#include "transfer/dtal.h"

#include "ml/scaler.h"

namespace transer {

Result<std::vector<int>> DtalTransfer::Run(
    const FeatureMatrix& source, const FeatureMatrix& target,
    const ClassifierFactory& make_classifier,
    const TransferRunOptions& run_options) const {
  (void)make_classifier;  // DTAL* is a deep model; the suite is unused.
  if (source.num_features() != target.num_features()) {
    return Status::InvalidArgument(
        "source and target feature spaces differ");
  }
  const ExecutionContext& context = *run_options.context;
  TRANSER_RETURN_IF_ERROR(context.Check("dtal", run_options.diagnostics));
  ScopedReservation working_set;
  TRANSER_RETURN_IF_ERROR(working_set.Acquire(
      context, "dtal",
      transfer_internal::DomainWorkingSetBytes(source, target),
      run_options.diagnostics));

  const Matrix e_source_raw = LiftToEmbedding(source.ToMatrix(),
                                              options_.embedding);
  const Matrix e_target_raw = LiftToEmbedding(target.ToMatrix(),
                                              options_.embedding);

  StandardScaler scaler;
  scaler.Fit(Matrix::VStack(e_source_raw, e_target_raw));
  const Matrix e_source = scaler.Transform(e_source_raw);
  const Matrix e_target = scaler.Transform(e_target_raw);

  DannOptions network = options_.network;
  network.seed = run_options.seed + 53;
  DomainAdversarialMlp dann(network);
  dann.Fit(e_source, transfer_internal::RequireLabels(source), e_target,
           [&context]() { return context.Interrupted(); });
  // The paper's 72 h cap kills the run outright ('TE'); we do the same —
  // an interrupted Fit stopped early with a partial model.
  TRANSER_RETURN_IF_ERROR(context.Check("dtal", run_options.diagnostics));

  const std::vector<double> probabilities = dann.PredictProbaAll(e_target);
  std::vector<int> predicted(probabilities.size());
  for (size_t i = 0; i < probabilities.size(); ++i) {
    predicted[i] = probabilities[i] >= 0.5 ? 1 : 0;
  }
  return predicted;
}

}  // namespace transer
