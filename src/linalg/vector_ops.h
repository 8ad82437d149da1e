#ifndef TRANSER_LINALG_VECTOR_OPS_H_
#define TRANSER_LINALG_VECTOR_OPS_H_

#include <span>
#include <vector>

namespace transer {

/// Convenience layer over linalg/kernels: the vector-returning API the
/// rest of the codebase grew up with, plus allocation-free span
/// overloads for hot paths. All reductions delegate to the kernel
/// layer, so their accumulation order follows the determinism contract
/// in kernels.h (four interleaved lanes), not the old sequential loop.

/// Dot product of equal-length vectors.
double Dot(const std::vector<double>& a, const std::vector<double>& b);
double Dot(std::span<const double> a, std::span<const double> b);

/// Euclidean (L2) norm.
double L2Norm(const std::vector<double>& v);
double L2Norm(std::span<const double> v);

/// Euclidean distance between equal-length vectors.
double L2Distance(const std::vector<double>& a, const std::vector<double>& b);
double L2Distance(std::span<const double> a, std::span<const double> b);

/// Squared Euclidean distance (avoids the sqrt for k-NN comparisons).
double SquaredL2Distance(const std::vector<double>& a,
                         const std::vector<double>& b);
double SquaredL2Distance(std::span<const double> a, std::span<const double> b);

/// a + b, element-wise.
std::vector<double> Add(const std::vector<double>& a,
                        const std::vector<double>& b);

/// a - b, element-wise.
std::vector<double> Subtract(const std::vector<double>& a,
                             const std::vector<double>& b);

/// v * s, element-wise.
std::vector<double> Scale(const std::vector<double>& v, double s);

/// In-place a += b.
void AddInPlace(std::span<double> a, std::span<const double> b);

/// In-place v *= s.
void ScaleInPlace(std::span<double> v, double s);

/// Arithmetic mean of `vectors` (all equal length; at least one vector).
std::vector<double> Mean(const std::vector<std::vector<double>>& vectors);

/// In-place a += s * b.
void Axpy(double s, const std::vector<double>& b, std::vector<double>* a);
void Axpy(double s, std::span<const double> b, std::span<double> a);

/// Normalises v to unit L2 norm; leaves zero vectors untouched.
void NormalizeInPlace(std::vector<double>* v);

}  // namespace transer

#endif  // TRANSER_LINALG_VECTOR_OPS_H_
