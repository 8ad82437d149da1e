#include "transfer/tca.h"

#include <cmath>

#include "linalg/vector_ops.h"
#include "ml/scaler.h"
#include "util/logging.h"
#include "util/random.h"

namespace transer {

namespace {

// y := K x for symmetric dense K.
std::vector<double> ApplyKernel(const Matrix& k, const std::vector<double>& x) {
  return k.MultiplyVector(x);
}

// z := H z with the centering matrix H = I - (1/n) 1 1^T.
void CenterInPlace(std::vector<double>* z) {
  double mean = 0.0;
  for (double v : *z) mean += v;
  mean /= static_cast<double>(z->size());
  for (double& v : *z) v -= mean;
}

// Modified Gram-Schmidt orthonormalisation of the columns of q.
void Orthonormalize(std::vector<std::vector<double>>* q) {
  for (size_t j = 0; j < q->size(); ++j) {
    for (size_t i = 0; i < j; ++i) {
      const double proj = Dot((*q)[i], (*q)[j]);
      Axpy(-proj, (*q)[i], &(*q)[j]);
    }
    const double norm = L2Norm((*q)[j]);
    if (norm > 1e-12) {
      for (double& v : (*q)[j]) v /= norm;
    }
  }
}

}  // namespace

Result<Matrix> TcaTransfer::Embed(const Matrix& x_source,
                                  const Matrix& x_target,
                                  const TransferRunOptions& run_options) const {
  const ExecutionContext& context = *run_options.context;
  const size_t ns = x_source.rows();
  const size_t nt = x_target.rows();
  const size_t n = ns + nt;
  if (n == 0) return Status::InvalidArgument("no instances");

  TRANSER_RETURN_IF_ERROR(context.Check("tca", run_options.diagnostics));

  // The kernel matrix dominates memory: n^2 doubles plus workspace.
  const size_t needed = n * n * sizeof(double) +
                        4 * n * options_.num_components * sizeof(double);
  ScopedReservation kernel_memory;
  TRANSER_RETURN_IF_ERROR(kernel_memory.Acquire(context, "tca", needed,
                                                run_options.diagnostics));

  const Matrix z = Matrix::VStack(x_source, x_target);
  const Matrix k = z.Multiply(z.Transpose());  // linear kernel

  // L = v v^T with v_i = 1/ns (source) or -1/nt (target); u = K v.
  std::vector<double> v(n);
  for (size_t i = 0; i < ns; ++i) v[i] = 1.0 / static_cast<double>(ns);
  for (size_t i = ns; i < n; ++i) v[i] = -1.0 / static_cast<double>(nt);
  const std::vector<double> u = ApplyKernel(k, v);
  const double denom = options_.mu + Dot(u, u);

  // Operators: A x = K H K x,   B^{-1} y = (y - u (u.y)/denom) / mu.
  auto apply_a = [&](const std::vector<double>& x) {
    std::vector<double> t = ApplyKernel(k, x);
    CenterInPlace(&t);
    return ApplyKernel(k, t);
  };
  auto apply_b_inverse = [&](std::vector<double> y) {
    const double coeff = Dot(u, y) / denom;
    Axpy(-coeff, u, &y);
    for (double& val : y) val /= options_.mu;
    return y;
  };

  // Subspace iteration on B^{-1} A for the top components.
  const size_t d = std::min(options_.num_components, n);
  Rng rng(run_options.seed + 17);
  std::vector<std::vector<double>> q(d, std::vector<double>(n));
  for (auto& col : q) {
    for (double& val : col) val = rng.Gaussian(0.0, 1.0);
  }
  Orthonormalize(&q);
  for (int iter = 0; iter < options_.power_iterations; ++iter) {
    TRANSER_RETURN_IF_ERROR(context.Check("tca", run_options.diagnostics));
    context.ReportProgress(static_cast<double>(iter) /
                           static_cast<double>(options_.power_iterations));
    for (auto& col : q) col = apply_b_inverse(apply_a(col));
    Orthonormalize(&q);
  }

  // Embedding = K W: rows are instances, columns transfer components.
  Matrix embedding(n, d);
  for (size_t j = 0; j < d; ++j) {
    const std::vector<double> kq = ApplyKernel(k, q[j]);
    for (size_t i = 0; i < n; ++i) embedding(i, j) = kq[i];
  }
  return embedding;
}

Result<std::vector<int>> TcaTransfer::Run(
    const FeatureMatrix& source, const FeatureMatrix& target,
    const ClassifierFactory& make_classifier,
    const TransferRunOptions& run_options) const {
  if (source.num_features() != target.num_features()) {
    return Status::InvalidArgument(
        "source and target feature spaces differ");
  }
  const ExecutionContext& context = *run_options.context;
  TRANSER_RETURN_IF_ERROR(context.Check("tca", run_options.diagnostics));
  ScopedReservation working_set;
  TRANSER_RETURN_IF_ERROR(working_set.Acquire(
      context, "tca",
      transfer_internal::DomainWorkingSetBytes(source, target),
      run_options.diagnostics));

  const Matrix x_source = source.ToMatrix();
  const Matrix x_target = target.ToMatrix();
  auto embedding = Embed(x_source, x_target, run_options);
  if (!embedding.ok()) return embedding.status();

  const size_t ns = x_source.rows();
  const size_t nt = x_target.rows();
  std::vector<size_t> source_rows(ns);
  std::vector<size_t> target_rows(nt);
  for (size_t i = 0; i < ns; ++i) source_rows[i] = i;
  for (size_t j = 0; j < nt; ++j) target_rows[j] = ns + j;

  // Standardise the embedding so gradient-trained classifiers behave.
  StandardScaler scaler;
  const Matrix all = scaler.FitTransform(embedding.value());
  const Matrix e_source = all.SelectRows(source_rows);
  const Matrix e_target = all.SelectRows(target_rows);

  auto classifier = make_classifier();
  classifier->set_execution_context(&context);
  classifier->Fit(e_source, transfer_internal::RequireLabels(source));
  TRANSER_RETURN_IF_ERROR(context.Check("tca", run_options.diagnostics));
  return classifier->PredictAll(e_target);
}

}  // namespace transer
