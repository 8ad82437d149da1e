// Acceptance bench for the sparse high-dimensional feature path
// (DESIGN.md §12). Two bounds are enforced, not just reported:
//
//  1. Memory: a synthetic high-dimensional run (2^19 hashed pair
//     columns, 50k record pairs in full mode) must hold its CSR
//     instance matrix in < 25% of what the same instances would occupy
//     as a dense row-major matrix. The dense equivalent is analytic
//     (rows * cols * 8) — materialising it is exactly what the sparse
//     path exists to avoid.
//  2. Convergence: on synthetic separable data, L-BFGS must reach the
//     SGD reference objective within 10% of the SGD epoch budget.
//
// A violated bound exits 1; CI runs `--quick` and diffs the sidecar
// against bench/baselines/BENCH_sparse.json (report-only timings; the
// bounds themselves are hard).
//
// Flags: --quick (fewer rows / fit iterations for CI smoke; entry
//        names stay fixed so sidecars remain diffable), --threads=N,
//        --out=<path> (default BENCH_sparse.json), --version.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/perf_sidecar.h"
#include "features/sparse_matrix.h"
#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "ml/feature_view.h"
#include "ml/lbfgs.h"
#include "ml/logistic_regression.h"
#include "text/char_ngram_embedder.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace transer {
namespace {

std::string RandomToken(Rng* rng, size_t length) {
  static constexpr char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789 ";
  std::string token;
  token.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    token.push_back(kAlphabet[rng->NextUint64Below(sizeof(kAlphabet) - 1)]);
  }
  return token;
}

// One typo: enough to perturb a handful of n-grams without destroying
// the subword overlap a matching pair is supposed to keep.
std::string Corrupt(std::string token, Rng* rng) {
  if (token.empty()) return token;
  token[rng->NextUint64Below(token.size())] =
      static_cast<char>('a' + rng->NextUint64Below(26));
  return token;
}

// Regularised mean log-loss — the objective both solvers minimise.
double LogLossObjective(const Matrix& x, const std::vector<int>& y,
                        const std::vector<double>& w, double bias,
                        double l2) {
  double loss = 0.0;
  for (size_t i = 0; i < x.rows(); ++i) {
    const double z =
        bias + kernels::Dot(w, std::span<const double>(x.Row(i), x.cols()));
    const double softplus =
        std::max(z, 0.0) + std::log1p(std::exp(-std::fabs(z)));
    loss += softplus - static_cast<double>(y[i]) * z;
  }
  loss /= static_cast<double>(x.rows());
  for (double v : w) loss += 0.5 * l2 * v * v;
  return loss;
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv, {"quick", "threads", "out"});
  const int threads = ConfigureThreads(flags);
  const bool quick = flags.GetBool("quick", false);
  const std::string out_path = flags.GetString("out", "BENCH_sparse.json");

  bench::PerfSidecar sidecar;
  sidecar.threads = threads;

  // ------------------------------------------------------------------
  // Bound 1: memory of the high-dimensional CSR matrix.
  const size_t rows = quick ? 4000 : 50000;
  CharNgramEmbedderOptions embed_options;
  embed_options.sparse_dimension = size_t{1} << 18;
  const CharNgramEmbedder embedder(embed_options);
  const size_t pair_dim = embedder.SparsePairDimension(1);

  Rng rng(991);
  SparseFeatureMatrix matrix(pair_dim);
  matrix.Reserve(rows, rows * 64);
  std::vector<uint32_t> indices;
  std::vector<double> values;
  Stopwatch embed_watch;
  for (size_t i = 0; i < rows; ++i) {
    const std::string a = RandomToken(&rng, 14);
    const bool match = (i & 1) == 0;
    const std::string b = match ? Corrupt(a, &rng) : RandomToken(&rng, 14);
    embedder.EmbedPairSparse({a}, {b}, &indices, &values);
    matrix.AppendRow(indices, values, match ? 1 : 0);
  }
  const double embed_seconds = embed_watch.ElapsedSeconds();

  const double sparse_bytes = static_cast<double>(matrix.MemoryBytes());
  const double dense_bytes = static_cast<double>(
      SparseFeatureMatrix::DenseEquivalentBytes(rows, pair_dim));
  const double mem_ratio = sparse_bytes / dense_bytes;
  std::printf(
      "sparse matrix: %zu rows x %zu cols, %zu nnz\n"
      "  CSR bytes %.3g, dense-equivalent bytes %.3g, ratio %.3g\n",
      matrix.size(), pair_dim, matrix.nnz(), sparse_bytes, dense_bytes,
      mem_ratio);
  if (!(mem_ratio < 0.25)) {
    std::fprintf(stderr,
                 "FAIL: sparse memory is %.3gx the dense equivalent "
                 "(bound: < 0.25)\n",
                 mem_ratio);
    return 1;
  }

  // The full sparse fit over the 2^19-wide space: completion (under the
  // memory bound above) is the acceptance condition; the timing goes to
  // the sidecar.
  LogisticRegressionOptions sparse_fit_options;
  sparse_fit_options.solver = LinearSolver::kLbfgs;
  sparse_fit_options.lbfgs_max_iterations = quick ? 3 : 10;
  LogisticRegression sparse_model(sparse_fit_options);
  Stopwatch fit_watch;
  sparse_model.FitView(FeatureView(matrix), matrix.labels(), {});
  const double fit_seconds = fit_watch.ElapsedSeconds();

  size_t correct = 0;
  for (size_t i = 0; i < matrix.size(); ++i) {
    const int predicted =
        sparse_model.PredictProbaSparse(matrix.Row(i)) >= 0.5 ? 1 : 0;
    correct += predicted == matrix.label(i);
  }
  const double train_accuracy =
      static_cast<double>(correct) / static_cast<double>(matrix.size());
  std::printf(
      "sparse L-BFGS fit: %.3fs over %zu rows (embed %.3fs); train "
      "accuracy %.4f\n",
      fit_seconds, rows, embed_seconds, train_accuracy);

  const double rows_d = static_cast<double>(rows);
  bench::PerfEntry embed_entry;
  embed_entry.name = "sparse_embed.pair";
  embed_entry.threads = 1;
  embed_entry.ns_per_op = embed_seconds * 1e9 / rows_d;
  embed_entry.ops_per_sec = rows_d / embed_seconds;
  sidecar.entries.push_back(embed_entry);
  bench::PerfEntry fit_entry;
  fit_entry.name = "sparse_fit.lbfgs";
  fit_entry.threads = threads;
  fit_entry.ns_per_op = fit_seconds * 1e9 / rows_d;
  fit_entry.ops_per_sec = rows_d / fit_seconds;
  sidecar.entries.push_back(fit_entry);

  // ------------------------------------------------------------------
  // Bound 2: L-BFGS reaches the SGD reference objective in <= 10% of
  // the SGD epochs. The dense workload is fixed across --quick so the
  // bound never weakens in CI.
  const size_t conv_n = 2000, conv_m = 32;
  Matrix conv_x(conv_n, conv_m);
  std::vector<int> conv_y(conv_n);
  Rng conv_rng(1377);
  // Overlapping classes: a perfectly separable problem drives both
  // solvers to a ~0 objective and the comparison degenerates to float
  // dust; with overlap the true minimum is strictly positive and the
  // second-order path has something to win.
  for (size_t i = 0; i < conv_n; ++i) {
    conv_y[i] = static_cast<int>(i % 2);
    const double shift = conv_y[i] == 1 ? 0.1 : -0.1;
    for (size_t d = 0; d < conv_m; ++d) {
      conv_x(i, d) = shift + conv_rng.NextDouble() - 0.5;
    }
  }

  LogisticRegressionOptions sgd_options;  // reference: 200 SGD epochs
  LogisticRegression sgd_model(sgd_options);
  Stopwatch sgd_watch;
  sgd_model.Fit(conv_x, conv_y);
  const double sgd_seconds = sgd_watch.ElapsedSeconds();
  const double sgd_objective =
      LogLossObjective(conv_x, conv_y, sgd_model.coefficients(),
                       sgd_model.intercept(), sgd_options.l2);

  LogisticRegressionOptions lbfgs_options;
  lbfgs_options.solver = LinearSolver::kLbfgs;
  lbfgs_options.lbfgs_max_iterations = sgd_options.epochs / 10;
  LogisticRegression lbfgs_model(lbfgs_options);
  Stopwatch lbfgs_watch;
  lbfgs_model.Fit(conv_x, conv_y);
  const double lbfgs_seconds = lbfgs_watch.ElapsedSeconds();
  const double lbfgs_objective =
      LogLossObjective(conv_x, conv_y, lbfgs_model.coefficients(),
                       lbfgs_model.intercept(), lbfgs_options.l2);

  std::printf(
      "solver convergence: SGD %d epochs -> objective %.6f (%.3fs); "
      "L-BFGS %d iterations -> objective %.6f (%.3fs)\n",
      sgd_options.epochs, sgd_objective, sgd_seconds,
      lbfgs_options.lbfgs_max_iterations, lbfgs_objective, lbfgs_seconds);
  if (!(lbfgs_objective <= sgd_objective + 1e-9)) {
    std::fprintf(stderr,
                 "FAIL: L-BFGS objective %.6f did not reach the SGD "
                 "reference %.6f within %d iterations (10%% of %d epochs)\n",
                 lbfgs_objective, sgd_objective,
                 lbfgs_options.lbfgs_max_iterations, sgd_options.epochs);
    return 1;
  }

  bench::PerfEntry sgd_entry;
  sgd_entry.name = "solver.sgd_reference.n2000";
  sgd_entry.threads = 1;
  sgd_entry.ns_per_op = sgd_seconds * 1e9;
  sgd_entry.ops_per_sec = sgd_seconds > 0.0 ? 1.0 / sgd_seconds : 0.0;
  sidecar.entries.push_back(sgd_entry);
  bench::PerfEntry lbfgs_entry;
  lbfgs_entry.name = "solver.lbfgs.n2000";
  lbfgs_entry.threads = 1;
  lbfgs_entry.ns_per_op = lbfgs_seconds * 1e9;
  lbfgs_entry.ops_per_sec = lbfgs_seconds > 0.0 ? 1.0 / lbfgs_seconds : 0.0;
  sidecar.entries.push_back(lbfgs_entry);

  sidecar.extras.emplace_back("sparse_mem_ratio", mem_ratio);
  sidecar.extras.emplace_back("sparse_rows", rows_d);
  sidecar.extras.emplace_back("sparse_pair_dim",
                              static_cast<double>(pair_dim));
  sidecar.extras.emplace_back("train_accuracy", train_accuracy);
  sidecar.extras.emplace_back("sgd_objective", sgd_objective);
  sidecar.extras.emplace_back("lbfgs_objective", lbfgs_objective);
  sidecar.extras.emplace_back(
      "lbfgs_epoch_fraction",
      static_cast<double>(lbfgs_options.lbfgs_max_iterations) /
          static_cast<double>(sgd_options.epochs));

  if (!bench::WritePerfSidecar(out_path, sidecar)) return 1;
  std::printf("wrote %s\n", out_path.c_str());
  std::printf("sparse-path acceptance bounds: PASS\n");
  return 0;
}

}  // namespace
}  // namespace transer

int main(int argc, char** argv) { return transer::Main(argc, argv); }
