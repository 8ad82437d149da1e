#include "transfer/dr_transfer.h"

#include <algorithm>

#include "ml/logistic_regression.h"
#include "ml/scaler.h"

namespace transer {

Result<std::vector<double>> DrTransfer::ComputeWeights(
    const Matrix& e_source, const Matrix& e_target, uint64_t seed) const {
  // Domain discriminator: 1 = target, 0 = source.
  const Matrix all = Matrix::VStack(e_source, e_target);
  std::vector<int> domain(all.rows(), 0);
  for (size_t j = e_source.rows(); j < all.rows(); ++j) domain[j] = 1;

  LogisticRegressionOptions lr_options;
  lr_options.seed = seed + 41;
  lr_options.epochs = 60;
  LogisticRegression discriminator(lr_options);
  discriminator.Fit(all, domain);

  std::vector<double> weights(e_source.rows());
  for (size_t i = 0; i < e_source.rows(); ++i) {
    const double p_target = discriminator.PredictProba(
        std::span<const double>(e_source.Row(i), e_source.cols()));
    const double p_source = std::max(1.0 - p_target, 1e-6);
    weights[i] = std::clamp(p_target / p_source, 1.0 / options_.max_weight,
                            options_.max_weight);
  }
  return weights;
}

Result<std::vector<int>> DrTransfer::Run(
    const FeatureMatrix& source, const FeatureMatrix& target,
    const ClassifierFactory& make_classifier,
    const TransferRunOptions& run_options) const {
  if (source.num_features() != target.num_features()) {
    return Status::InvalidArgument(
        "source and target feature spaces differ");
  }
  const ExecutionContext& context = *run_options.context;
  TRANSER_RETURN_IF_ERROR(context.Check("dr", run_options.diagnostics));
  ScopedReservation working_set;
  TRANSER_RETURN_IF_ERROR(working_set.Acquire(
      context, "dr",
      transfer_internal::DomainWorkingSetBytes(source, target),
      run_options.diagnostics));

  // Lift both domains into the distributed representation.
  const Matrix e_source_raw = LiftToEmbedding(source.ToMatrix(),
                                              options_.embedding);
  const Matrix e_target_raw = LiftToEmbedding(target.ToMatrix(),
                                              options_.embedding);
  TRANSER_RETURN_IF_ERROR(context.Check("dr", run_options.diagnostics));

  StandardScaler scaler;
  scaler.Fit(Matrix::VStack(e_source_raw, e_target_raw));
  const Matrix e_source = scaler.Transform(e_source_raw);
  const Matrix e_target = scaler.Transform(e_target_raw);

  auto weights = ComputeWeights(e_source, e_target, run_options.seed);
  if (!weights.ok()) return weights.status();
  TRANSER_RETURN_IF_ERROR(context.Check("dr", run_options.diagnostics));

  auto classifier = make_classifier();
  classifier->set_execution_context(&context);
  classifier->Fit(e_source, transfer_internal::RequireLabels(source),
                  weights.value());
  TRANSER_RETURN_IF_ERROR(context.Check("dr", run_options.diagnostics));
  return classifier->PredictAll(e_target);
}

}  // namespace transer
