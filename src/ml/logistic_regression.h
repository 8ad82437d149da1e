#ifndef TRANSER_ML_LOGISTIC_REGRESSION_H_
#define TRANSER_ML_LOGISTIC_REGRESSION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ml/classifier.h"

namespace transer {

/// \brief Hyper-parameters for logistic regression.
struct LogisticRegressionOptions {
  double learning_rate = 0.1;
  double l2 = 1e-4;          ///< ridge penalty on the weights (not bias)
  int epochs = 200;
  uint64_t seed = 1;
};

/// \brief L2-regularised logistic regression trained with mini-batch-free
/// SGD over shuffled instances; supports per-sample weights and emits
/// calibrated probabilities via the sigmoid.
class LogisticRegression : public Classifier {
 public:
  explicit LogisticRegression(LogisticRegressionOptions options = {})
      : options_(options) {}

  void Fit(const Matrix& x, const std::vector<int>& y,
           const std::vector<double>& weights) override;
  using Classifier::Fit;

  double PredictProba(std::span<const double> features) const override;

  std::string name() const override { return "logistic_regression"; }

  Status SaveState(artifact::Encoder* out) const override;
  Status LoadState(artifact::Decoder* in) override;

  const std::vector<double>& coefficients() const { return weights_; }
  double intercept() const { return bias_; }

 private:
  LogisticRegressionOptions options_;
  std::vector<double> weights_;
  double bias_ = 0.0;
};

}  // namespace transer

#endif  // TRANSER_ML_LOGISTIC_REGRESSION_H_
