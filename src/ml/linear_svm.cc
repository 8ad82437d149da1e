#include "ml/linear_svm.h"

#include <algorithm>
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

void LinearSvm::Fit(const Matrix& x, const std::vector<int>& y,
                    const std::vector<double>& weights) {
  TRANSER_CHECK_EQ(x.rows(), y.size());
  TRANSER_CHECK(weights.empty() || weights.size() == y.size());
  const size_t n = x.rows();
  const size_t m = x.cols();
  weights_.assign(m, 0.0);
  bias_ = 0.0;
  platt_a_ = 1.0;
  platt_b_ = 0.0;
  if (n == 0) return;

  Rng rng(options_.seed);
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;

  // Pegasos: step size 1/(lambda * (t + t0)); the t0 = n offset keeps the
  // first steps bounded so the unregularised bias cannot be thrown to an
  // unrecoverable magnitude by the first margin violations.
  size_t t = 0;
  const double t0 = static_cast<double>(n);
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    if (FitInterrupted()) return;  // caller surfaces the status via Check
    rng.Shuffle(&order);
    for (size_t i : order) {
      ++t;
      const double eta =
          1.0 / (options_.lambda * (static_cast<double>(t) + t0));
      const std::span<const double> row(x.Row(i), m);
      const double label = y[i] == 1 ? 1.0 : -1.0;
      const double margin = bias_ + kernels::Dot(weights_, row);
      const double sample_w = weights.empty() ? 1.0 : weights[i];

      // Shrink (regularisation applies to w only, not bias).
      kernels::ScaleInPlace(weights_, 1.0 - eta * options_.lambda);
      if (label * margin < 1.0) {
        const double step = eta * label * sample_w;
        kernels::Axpy(step, row, weights_);
        bias_ += step;
      }
    }
  }
  if (FitInterrupted()) return;  // caller surfaces the status via Check
  FitPlatt(x, y);
}

double LinearSvm::DecisionFunction(std::span<const double> features) const {
  TRANSER_CHECK_EQ(features.size(), weights_.size());
  return bias_ + kernels::Dot(weights_, features);
}

void LinearSvm::FitPlatt(const Matrix& x, const std::vector<int>& y) {
  const size_t n = x.rows();
  std::vector<double> margins(n);
  for (size_t i = 0; i < n; ++i) {
    margins[i] = DecisionFunction(std::span<const double>(x.Row(i), x.cols()));
  }
  // Newton iterations on the 2-parameter log-likelihood; separable
  // margins drive the slope high enough that core instances reach the
  // extreme confidences TransER's t_p threshold expects.
  double a = 1.0;
  double b = 0.0;
  for (int iter = 0; iter < 60; ++iter) {
    if (FitInterrupted()) break;  // keep the raw-margin fallback below
    double grad_a = 0.0, grad_b = 0.0;
    double h_aa = 1e-8, h_ab = 0.0, h_bb = 1e-8;
    for (size_t i = 0; i < n; ++i) {
      const double target = y[i] == 1 ? 1.0 : 0.0;
      const double p = Sigmoid(a * margins[i] + b);
      const double err = p - target;
      const double w = std::max(p * (1.0 - p), 1e-12);
      grad_a += err * margins[i];
      grad_b += err;
      h_aa += w * margins[i] * margins[i];
      h_ab += w * margins[i];
      h_bb += w;
    }
    const double det = h_aa * h_bb - h_ab * h_ab;
    if (std::fabs(det) < 1e-18) break;
    const double step_a = (h_bb * grad_a - h_ab * grad_b) / det;
    const double step_b = (h_aa * grad_b - h_ab * grad_a) / det;
    a -= step_a;
    b -= step_b;
    a = std::clamp(a, -1e4, 1e4);
    b = std::clamp(b, -1e4, 1e4);
    if (std::fabs(step_a) + std::fabs(step_b) < 1e-10) break;
  }
  // A degenerate (negative-slope) calibration would flip decisions; keep
  // the raw margin orientation in that case.
  platt_a_ = a > 0.0 ? a : 1.0;
  platt_b_ = a > 0.0 ? b : 0.0;
}

double LinearSvm::PredictProba(std::span<const double> features) const {
  return Sigmoid(platt_a_ * DecisionFunction(features) + platt_b_);
}

Status LinearSvm::SaveState(artifact::Encoder* out) const {
  out->PutDouble(options_.lambda);
  out->PutI64(options_.epochs);
  out->PutU64(options_.seed);
  out->PutDoubleVec(weights_);
  out->PutDouble(bias_);
  out->PutDouble(platt_a_);
  out->PutDouble(platt_b_);
  return Status::OK();
}

Status LinearSvm::LoadState(artifact::Decoder* in) {
  LinearSvmOptions options;
  int64_t epochs = 0;
  std::vector<double> weights;
  double bias = 0.0;
  double platt_a = 0.0;
  double platt_b = 0.0;
  TRANSER_RETURN_IF_ERROR(in->GetDouble(&options.lambda));
  TRANSER_RETURN_IF_ERROR(in->GetI64(&epochs));
  TRANSER_RETURN_IF_ERROR(in->GetU64(&options.seed));
  TRANSER_RETURN_IF_ERROR(in->GetDoubleVec(&weights));
  TRANSER_RETURN_IF_ERROR(in->GetDouble(&bias));
  TRANSER_RETURN_IF_ERROR(in->GetDouble(&platt_a));
  TRANSER_RETURN_IF_ERROR(in->GetDouble(&platt_b));
  // Pegasos divides by lambda*t, so a refit of a loaded model must keep
  // lambda strictly positive.
  if (!(options.lambda > 0.0) || !std::isfinite(options.lambda) ||
      epochs < 0 || epochs > INT32_MAX || !std::isfinite(bias) ||
      !std::isfinite(platt_a) || !std::isfinite(platt_b)) {
    return Status::InvalidArgument("linear svm state out of range");
  }
  for (double w : weights) {
    if (!std::isfinite(w)) {
      return Status::InvalidArgument("linear svm weight is not finite");
    }
  }
  options.epochs = static_cast<int>(epochs);
  options_ = options;
  weights_ = std::move(weights);
  bias_ = bias;
  platt_a_ = platt_a;
  platt_b_ = platt_b;
  return Status::OK();
}

}  // namespace transer
