#include "transfer/coral.h"

#include "linalg/covariance.h"
#include "linalg/eigen.h"

namespace transer {

Result<Matrix> CoralTransfer::AlignSource(const Matrix& x_source,
                                          const Matrix& x_target) const {
  Matrix cov_s = SampleCovariance(x_source);
  Matrix cov_t = SampleCovariance(x_target);
  cov_s.AddDiagonal(options_.regularization);
  cov_t.AddDiagonal(options_.regularization);

  auto whitener = SymmetricMatrixPower(cov_s, -0.5);
  if (!whitener.ok()) return whitener.status();
  auto recolor = SymmetricMatrixPower(cov_t, 0.5);
  if (!recolor.ok()) return recolor.status();

  // Xs * Cs^{-1/2} * Ct^{1/2}.
  return x_source.Multiply(whitener.value()).Multiply(recolor.value());
}

Result<std::vector<int>> CoralTransfer::Run(
    const FeatureMatrix& source, const FeatureMatrix& target,
    const ClassifierFactory& make_classifier,
    const TransferRunOptions& run_options) const {
  if (source.num_features() != target.num_features()) {
    return Status::InvalidArgument(
        "source and target feature spaces differ");
  }
  // The m x m eigen-problems are negligible; the domain copies and the
  // classifier fit still observe the shared budget.
  const ExecutionContext& context = *run_options.context;
  TRANSER_RETURN_IF_ERROR(context.Check("coral", run_options.diagnostics));
  ScopedReservation working_set;
  TRANSER_RETURN_IF_ERROR(working_set.Acquire(
      context, "coral",
      transfer_internal::DomainWorkingSetBytes(source, target),
      run_options.diagnostics));

  const Matrix x_target = target.ToMatrix();
  auto aligned = AlignSource(source.ToMatrix(), x_target);
  if (!aligned.ok()) return aligned.status();
  TRANSER_RETURN_IF_ERROR(context.Check("coral", run_options.diagnostics));

  auto classifier = make_classifier();
  classifier->set_execution_context(&context);
  classifier->Fit(aligned.value(),
                  transfer_internal::RequireLabels(source));
  TRANSER_RETURN_IF_ERROR(context.Check("coral", run_options.diagnostics));
  return classifier->PredictAll(x_target);
}

}  // namespace transer
