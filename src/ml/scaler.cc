#include "ml/scaler.h"

#include <cmath>

#include "util/logging.h"

namespace transer {

void StandardScaler::Fit(const Matrix& x) {
  const size_t m = x.cols();
  means_.assign(m, 0.0);
  stddevs_.assign(m, 1.0);
  if (x.rows() == 0) return;
  for (size_t r = 0; r < x.rows(); ++r) {
    const double* row = x.Row(r);
    for (size_t c = 0; c < m; ++c) means_[c] += row[c];
  }
  const double inv_n = 1.0 / static_cast<double>(x.rows());
  for (double& mu : means_) mu *= inv_n;
  std::vector<double> variances(m, 0.0);
  for (size_t r = 0; r < x.rows(); ++r) {
    const double* row = x.Row(r);
    for (size_t c = 0; c < m; ++c) {
      const double d = row[c] - means_[c];
      variances[c] += d * d;
    }
  }
  for (size_t c = 0; c < m; ++c) {
    const double sd = std::sqrt(variances[c] * inv_n);
    stddevs_[c] = sd > 1e-12 ? sd : 1.0;  // constant feature: leave as-is
  }
}

Matrix StandardScaler::Transform(const Matrix& x) const {
  TRANSER_CHECK_EQ(x.cols(), means_.size());
  Matrix out = x;
  for (size_t r = 0; r < out.rows(); ++r) {
    double* row = out.Row(r);
    for (size_t c = 0; c < out.cols(); ++c) {
      row[c] = (row[c] - means_[c]) / stddevs_[c];
    }
  }
  return out;
}

Matrix StandardScaler::FitTransform(const Matrix& x) {
  Fit(x);
  return Transform(x);
}

void StandardScaler::TransformInPlace(std::vector<double>* v) const {
  TRANSER_CHECK_EQ(v->size(), means_.size());
  for (size_t c = 0; c < v->size(); ++c) {
    (*v)[c] = ((*v)[c] - means_[c]) / stddevs_[c];
  }
}

}  // namespace transer
