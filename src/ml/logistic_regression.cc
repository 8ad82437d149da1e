#include "ml/logistic_regression.h"

#include <cmath>
#include <cstdint>

#include "linalg/kernels.h"
#include "util/artifact_io.h"
#include "util/logging.h"
#include "util/random.h"

namespace transer {

namespace {

double Sigmoid(double z) {
  if (z >= 0.0) {
    return 1.0 / (1.0 + std::exp(-z));
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

}  // namespace

void LogisticRegression::Fit(const Matrix& x, const std::vector<int>& y,
                             const std::vector<double>& weights) {
  TRANSER_CHECK_EQ(x.rows(), y.size());
  TRANSER_CHECK(weights.empty() || weights.size() == y.size());
  const size_t n = x.rows();
  const size_t m = x.cols();
  weights_.assign(m, 0.0);
  bias_ = 0.0;
  if (n == 0) return;

  Rng rng(options_.seed);
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;

  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    if (FitInterrupted()) return;  // caller surfaces the status via Check
    rng.Shuffle(&order);
    // 1/(1+epoch) decay keeps early epochs mobile and late epochs stable.
    const double lr =
        options_.learning_rate / (1.0 + 0.01 * static_cast<double>(epoch));
    for (size_t i : order) {
      const std::span<const double> row(x.Row(i), m);
      const double z = bias_ + kernels::Dot(weights_, row);
      const double p = Sigmoid(z);
      const double sample_w = weights.empty() ? 1.0 : weights[i];
      const double grad = (p - static_cast<double>(y[i])) * sample_w;
      // w -= lr * (grad * row + l2 * w), folded into one decoupled
      // shrink plus an Axpy on the data row.
      kernels::ScaleInPlace(weights_, 1.0 - lr * options_.l2);
      kernels::Axpy(-lr * grad, row, weights_);
      bias_ -= lr * grad;
    }
  }
}

double LogisticRegression::PredictProba(
    std::span<const double> features) const {
  TRANSER_CHECK_EQ(features.size(), weights_.size());
  return Sigmoid(bias_ + kernels::Dot(weights_, features));
}

Status LogisticRegression::SaveState(artifact::Encoder* out) const {
  out->PutDouble(options_.learning_rate);
  out->PutDouble(options_.l2);
  out->PutI64(options_.epochs);
  out->PutU64(options_.seed);
  out->PutDoubleVec(weights_);
  out->PutDouble(bias_);
  return Status::OK();
}

Status LogisticRegression::LoadState(artifact::Decoder* in) {
  LogisticRegressionOptions options;
  int64_t epochs = 0;
  std::vector<double> weights;
  double bias = 0.0;
  TRANSER_RETURN_IF_ERROR(in->GetDouble(&options.learning_rate));
  TRANSER_RETURN_IF_ERROR(in->GetDouble(&options.l2));
  TRANSER_RETURN_IF_ERROR(in->GetI64(&epochs));
  TRANSER_RETURN_IF_ERROR(in->GetU64(&options.seed));
  TRANSER_RETURN_IF_ERROR(in->GetDoubleVec(&weights));
  TRANSER_RETURN_IF_ERROR(in->GetDouble(&bias));
  if (!std::isfinite(options.learning_rate) || !std::isfinite(options.l2) ||
      epochs < 0 || epochs > INT32_MAX || !std::isfinite(bias)) {
    return Status::InvalidArgument("logistic regression state out of range");
  }
  for (double w : weights) {
    if (!std::isfinite(w)) {
      return Status::InvalidArgument(
          "logistic regression weight is not finite");
    }
  }
  options.epochs = static_cast<int>(epochs);
  options_ = options;
  weights_ = std::move(weights);
  bias_ = bias;
  return Status::OK();
}

}  // namespace transer
