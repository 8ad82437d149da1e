#include "linalg/covariance.h"

#include "util/logging.h"

namespace transer {

std::vector<double> ColumnMeans(std::span<const double> values, size_t rows,
                                size_t cols) {
  TRANSER_CHECK_EQ(values.size(), rows * cols);
  std::vector<double> mean(cols, 0.0);
  if (rows == 0) return mean;
  for (size_t r = 0; r < rows; ++r) {
    const double* row = values.data() + r * cols;
    for (size_t c = 0; c < cols; ++c) mean[c] += row[c];
  }
  const double inv = 1.0 / static_cast<double>(rows);
  for (double& v : mean) v *= inv;
  return mean;
}

std::vector<double> ColumnMeans(const Matrix& x) {
  return ColumnMeans(x.data(), x.rows(), x.cols());
}

Matrix SampleCovariance(const Matrix& x) {
  const size_t m = x.cols();
  Matrix cov(m, m, 0.0);
  if (x.rows() < 2) return cov;
  const std::vector<double> mean = ColumnMeans(x);
  for (size_t r = 0; r < x.rows(); ++r) {
    const double* row = x.Row(r);
    for (size_t i = 0; i < m; ++i) {
      const double di = row[i] - mean[i];
      for (size_t j = i; j < m; ++j) {
        cov(i, j) += di * (row[j] - mean[j]);
      }
    }
  }
  const double inv = 1.0 / static_cast<double>(x.rows() - 1);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = i; j < m; ++j) {
      cov(i, j) *= inv;
      cov(j, i) = cov(i, j);
    }
  }
  return cov;
}

Matrix SampleCovarianceOfRows(const Matrix& x,
                              const std::vector<size_t>& rows) {
  return SampleCovariance(x.SelectRows(rows));
}

Matrix CenterRows(const Matrix& x) {
  Matrix out = x;
  const std::vector<double> mean = ColumnMeans(x);
  for (size_t r = 0; r < out.rows(); ++r) {
    double* row = out.Row(r);
    for (size_t c = 0; c < out.cols(); ++c) row[c] -= mean[c];
  }
  return out;
}

}  // namespace transer
