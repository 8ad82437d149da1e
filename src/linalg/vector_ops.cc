#include "linalg/vector_ops.h"

#include <cmath>

#include "linalg/kernels.h"
#include "util/logging.h"

namespace transer {

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  return kernels::Dot(a, b);
}

double Dot(std::span<const double> a, std::span<const double> b) {
  return kernels::Dot(a, b);
}

double L2Norm(const std::vector<double>& v) {
  return std::sqrt(kernels::SquaredNorm(v));
}

double L2Norm(std::span<const double> v) {
  return std::sqrt(kernels::SquaredNorm(v));
}

double SquaredL2Distance(const std::vector<double>& a,
                         const std::vector<double>& b) {
  return kernels::SquaredL2(a, b);
}

double SquaredL2Distance(std::span<const double> a, std::span<const double> b) {
  return kernels::SquaredL2(a, b);
}

double L2Distance(const std::vector<double>& a, const std::vector<double>& b) {
  return std::sqrt(kernels::SquaredL2(a, b));
}

double L2Distance(std::span<const double> a, std::span<const double> b) {
  return std::sqrt(kernels::SquaredL2(a, b));
}

std::vector<double> Add(const std::vector<double>& a,
                        const std::vector<double>& b) {
  TRANSER_CHECK_EQ(a.size(), b.size());
  std::vector<double> out(a);
  kernels::AddInPlace(out, b);
  return out;
}

std::vector<double> Subtract(const std::vector<double>& a,
                             const std::vector<double>& b) {
  TRANSER_CHECK_EQ(a.size(), b.size());
  std::vector<double> out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

std::vector<double> Scale(const std::vector<double>& v, double s) {
  std::vector<double> out(v);
  kernels::ScaleInPlace(out, s);
  return out;
}

void AddInPlace(std::span<double> a, std::span<const double> b) {
  kernels::AddInPlace(a, b);
}

void ScaleInPlace(std::span<double> v, double s) {
  kernels::ScaleInPlace(v, s);
}

std::vector<double> Mean(const std::vector<std::vector<double>>& vectors) {
  TRANSER_CHECK(!vectors.empty());
  std::vector<double> out(vectors[0].size(), 0.0);
  for (const auto& v : vectors) {
    TRANSER_CHECK_EQ(v.size(), out.size());
    kernels::AddInPlace(out, v);
  }
  kernels::ScaleInPlace(out, 1.0 / static_cast<double>(vectors.size()));
  return out;
}

void Axpy(double s, const std::vector<double>& b, std::vector<double>* a) {
  kernels::Axpy(s, b, *a);
}

void Axpy(double s, std::span<const double> b, std::span<double> a) {
  kernels::Axpy(s, b, a);
}

void NormalizeInPlace(std::vector<double>* v) {
  const double norm = L2Norm(*v);
  if (norm <= 0.0) return;
  for (double& x : *v) x /= norm;
}

}  // namespace transer
