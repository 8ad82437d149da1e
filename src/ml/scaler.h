#ifndef TRANSER_ML_SCALER_H_
#define TRANSER_ML_SCALER_H_

#include <vector>

#include "linalg/matrix.h"

namespace transer {

/// \brief Per-feature standardisation (zero mean, unit variance), fit on
/// training data and applied to train and test alike. Needed by the
/// gradient-trained models (LR, SVM, the DTAL* network) when features are
/// embeddings.
class StandardScaler {
 public:
  /// Learns column means and standard deviations from `x`.
  void Fit(const Matrix& x);

  /// Returns the standardised copy of `x`. Requires a prior Fit.
  Matrix Transform(const Matrix& x) const;

  /// Fit followed by Transform on the same data.
  Matrix FitTransform(const Matrix& x);

  /// Standardises one vector in place.
  void TransformInPlace(std::vector<double>* v) const;

  const std::vector<double>& means() const { return means_; }
  const std::vector<double>& stddevs() const { return stddevs_; }

 private:
  std::vector<double> means_;
  std::vector<double> stddevs_;
};

}  // namespace transer

#endif  // TRANSER_ML_SCALER_H_
