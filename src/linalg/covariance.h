#ifndef TRANSER_LINALG_COVARIANCE_H_
#define TRANSER_LINALG_COVARIANCE_H_

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/matrix.h"

namespace transer {

/// Column-wise mean of `rows` row-major rows of width `cols` stored in
/// `values` (which must hold rows * cols entries): each column is summed
/// in row order, then multiplied by 1/rows. Zero rows yield a zero
/// vector of width `cols`.
std::vector<double> ColumnMeans(std::span<const double> values, size_t rows,
                                size_t cols);

/// Column-wise mean of the rows of `x` (n x m -> length-m vector).
/// Empty input yields a zero vector of width x.cols().
std::vector<double> ColumnMeans(const Matrix& x);

/// Sample covariance (divisor n-1; n<2 yields zeros) of the rows of `x`.
Matrix SampleCovariance(const Matrix& x);

/// Sample covariance of a subset of rows given by `rows`.
Matrix SampleCovarianceOfRows(const Matrix& x,
                              const std::vector<size_t>& rows);

/// Centers the rows of `x` by subtracting the column means; returns the
/// centered copy.
Matrix CenterRows(const Matrix& x);

}  // namespace transer

#endif  // TRANSER_LINALG_COVARIANCE_H_
