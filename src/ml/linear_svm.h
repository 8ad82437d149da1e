#ifndef TRANSER_ML_LINEAR_SVM_H_
#define TRANSER_ML_LINEAR_SVM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ml/classifier.h"

namespace transer {

/// \brief Hyper-parameters for the linear SVM.
struct LinearSvmOptions {
  double lambda = 1e-3;  ///< regularisation strength (Pegasos)
  int epochs = 200;
  uint64_t seed = 2;
};

/// \brief Linear SVM trained with the Pegasos stochastic sub-gradient
/// solver, with Platt scaling (a sigmoid over the margin, fit by a few
/// Newton steps) so PredictProba is a usable confidence —
/// required by the GEN phase's pseudo-label scores.
class LinearSvm : public Classifier {
 public:
  explicit LinearSvm(LinearSvmOptions options = {}) : options_(options) {}

  void Fit(const Matrix& x, const std::vector<int>& y,
           const std::vector<double>& weights) override;
  using Classifier::Fit;

  double PredictProba(std::span<const double> features) const override;

  std::string name() const override { return "linear_svm"; }

  Status SaveState(artifact::Encoder* out) const override;
  Status LoadState(artifact::Decoder* in) override;

  /// Raw (uncalibrated) margin w.x + b.
  double DecisionFunction(std::span<const double> features) const;

  const std::vector<double>& coefficients() const { return weights_; }

 private:
  /// Fits the Platt sigmoid P(y=1|margin) = sigmoid(a*margin + b) on the
  /// trained margins of the rows of `x`.
  void FitPlatt(const Matrix& x, const std::vector<int>& y);

  LinearSvmOptions options_;
  std::vector<double> weights_;
  double bias_ = 0.0;
  double platt_a_ = 1.0;
  double platt_b_ = 0.0;
};

}  // namespace transer

#endif  // TRANSER_ML_LINEAR_SVM_H_
