// Perf-regression harness for the performance-critical primitives: the
// vectorized kernel layer, tiled batch k-NN, bounded-heap queries and
// the string similarity functions. Each primitive is timed next to the
// scalar implementation it replaced, so the sidecar records both the
// absolute cost and the speedup the kernel layer buys.
//
// Flags: --quick (shorter samples, fewer repeats; for CI smoke —
//        workload sizes never change, so quick sidecars stay
//        comparable to the committed full-run baseline),
//        --threads=N (worker lanes for the N-thread batch k-NN row;
//        default hardware width), --out=<path> (sidecar path; default
//        BENCH_kernels.json), --dims=N / --pair-dims=N (vector widths
//        for the elementwise and pairwise sections; defaults 128 / 16 —
//        entry names carry the width, so diffing against the committed
//        baseline requires the default), --version.
//
// The widths deliberately arrive through flags: as compile-time
// constants the "scalar baseline" loops would be fully unrolled at
// their literal trip counts — a luxury the real pre-kernel code, which
// always received runtime dims, never had.
//
// The sidecar is schema-versioned (transer.kernel_perf v1) and diffed
// against bench/baselines/BENCH_kernels.json by perf_compare. Its
// extras record the kernel branch this build compiled (`kernels_avx2`:
// 1 for the AVX2 bodies, 0 for the portable ones). The
// binary runs kernels::SelfCheck() before timing anything and exits 1
// if the vectorized kernels are not bit-identical to their scalar
// references — a fast harness measuring wrong numbers is worthless.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.h"
#include "bench/kernel_probe.h"
#include "bench/perf_sidecar.h"
#include "knn/brute_force.h"
#include "knn/kd_tree.h"
#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "ml/logistic_regression.h"
#include "text/edit_distance.h"
#include "text/jaro_winkler.h"
#include "text/set_similarity.h"
#include "text/tokenize.h"
#include "util/execution_context.h"
#include "util/parallel.h"
#include "util/random.h"
#include "util/status.h"

namespace transer {
namespace {

// ---------------------------------------------------------------------
// Scalar baselines: the implementations these primitives had before the
// kernel layer, reproduced here so every speedup in the sidecar is
// measured against real prior code, not a strawman.

double ScalarDot(std::span<const double> a, std::span<const double> b) {
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double ScalarSquaredL2(std::span<const double> a,
                       std::span<const double> b) {
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

void ScalarAxpy(double alpha, std::span<const double> x,
                std::span<double> y) {
  for (size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

// The pre-kernel BruteForceKnn::Query: materialize all n distances,
// sort, take k.
std::vector<Neighbour> SortAllQuery(const Matrix& points,
                                    std::span<const double> query,
                                    size_t k) {
  std::vector<Neighbour> all;
  all.reserve(points.rows());
  for (size_t row = 0; row < points.rows(); ++row) {
    const std::span<const double> p(points.Row(row), points.cols());
    all.push_back(Neighbour{row, std::sqrt(ScalarSquaredL2(query, p))});
  }
  std::sort(all.begin(), all.end(), NeighbourBefore);
  all.resize(std::min(k, all.size()));
  return all;
}

// The pre-kernel QueryBatch body: one row-at-a-time scan per query.
void RowScanBatch(const Matrix& points, const Matrix& queries, size_t k,
                  std::vector<std::vector<Neighbour>>* out) {
  out->resize(queries.rows());
  for (size_t q = 0; q < queries.rows(); ++q) {
    const std::span<const double> query(queries.Row(q), queries.cols());
    (*out)[q] = SortAllQuery(points, query, k);
  }
}

// Full-table Levenshtein (the pre-banded implementation).
size_t NaiveLevenshtein(std::string_view a, std::string_view b) {
  std::vector<size_t> prev(b.size() + 1), cur(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      const size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

// The Jaro kernel before its match flags moved into 64-bit words: flags
// in thread-local byte vectors, both byte sets rebuilt on every call.
thread_local std::vector<uint8_t> tls_matched_a;
thread_local std::vector<uint8_t> tls_matched_b;

std::array<uint64_t, 4> ByteVectorByteSet(std::string_view s) {
  std::array<uint64_t, 4> set{};
  for (const char c : s) {
    const auto byte = static_cast<unsigned char>(c);
    set[byte >> 6] |= uint64_t{1} << (byte & 63);
  }
  return set;
}

double ByteVectorJaro(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  if (a == b) return 1.0;
  const std::array<uint64_t, 4> set_a = ByteVectorByteSet(a);
  const std::array<uint64_t, 4> set_b = ByteVectorByteSet(b);
  if (((set_a[0] & set_b[0]) | (set_a[1] & set_b[1]) |
       (set_a[2] & set_b[2]) | (set_a[3] & set_b[3])) == 0) {
    return 0.0;
  }
  const size_t len_a = a.size();
  const size_t len_b = b.size();
  const size_t max_len = std::max(len_a, len_b);
  const size_t window = max_len / 2 == 0 ? 0 : max_len / 2 - 1;
  std::vector<uint8_t>& matched_a = tls_matched_a;
  std::vector<uint8_t>& matched_b = tls_matched_b;
  matched_a.assign(len_a, 0);
  matched_b.assign(len_b, 0);
  size_t matches = 0;
  for (size_t i = 0; i < len_a; ++i) {
    const size_t lo = i > window ? i - window : 0;
    const size_t hi = std::min(len_b, i + window + 1);
    for (size_t j = lo; j < hi; ++j) {
      if (matched_b[j] != 0 || a[i] != b[j]) continue;
      matched_a[i] = 1;
      matched_b[j] = 1;
      ++matches;
      break;
    }
  }
  if (matches == 0) return 0.0;
  size_t transpositions = 0;
  size_t j = 0;
  for (size_t i = 0; i < len_a; ++i) {
    if (matched_a[i] == 0) continue;
    while (matched_b[j] == 0) ++j;
    if (a[i] != b[j]) ++transpositions;
    ++j;
  }
  const double m = static_cast<double>(matches);
  const double t = static_cast<double>(transpositions / 2);
  return (m / static_cast<double>(len_a) + m / static_cast<double>(len_b) +
          (m - t) / m) /
         3.0;
}

double ByteVectorJaroWinkler(std::string_view a, std::string_view b) {
  const double jaro = ByteVectorJaro(a, b);
  size_t prefix = 0;
  const size_t limit = std::min({a.size(), b.size(), size_t{4}});
  while (prefix < limit && a[prefix] == b[prefix]) ++prefix;
  return jaro + static_cast<double>(prefix) * 0.1 * (1.0 - jaro);
}

// One direction of Monge-Elkan: the two-scan symmetric score ran it
// both ways, scoring every token pair twice.
double OneDirectionMongeElkan(std::span<const std::string_view> a,
                              std::span<const std::string_view> b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  double total = 0.0;
  for (std::string_view ta : a) {
    double best = 0.0;
    for (std::string_view tb : b) {
      best = std::max(best, ByteVectorJaroWinkler(ta, tb));
    }
    total += best;
  }
  return total / static_cast<double>(a.size());
}

// ---------------------------------------------------------------------

Matrix RandomMatrix(size_t n, size_t dims, Rng* rng) {
  Matrix m(n, dims);
  for (size_t i = 0; i < n; ++i) {
    for (size_t d = 0; d < dims; ++d) m(i, d) = rng->NextDouble();
  }
  return m;
}

/// Runs each primitive through MeasureNsPerOp, prints the human table
/// and accumulates the machine-readable sidecar.
class Harness {
 public:
  Harness(int threads, double min_seconds, int samples)
      : min_seconds_(min_seconds), samples_(samples) {
    sidecar_.threads = threads;
    std::printf("%-28s %8s %14s %14s\n", "primitive", "threads", "ns/op",
                "Mops/s");
  }

  template <typename F>
  double Run(const std::string& name, int threads, F&& fn,
             double ops_per_call = 1.0) {
    const double ns = bench::MeasureNsPerOp(
        std::forward<F>(fn), ops_per_call, min_seconds_, samples_);
    bench::PerfEntry entry;
    entry.name = name;
    entry.threads = threads;
    entry.ns_per_op = ns;
    entry.ops_per_sec = ns > 0.0 ? 1e9 / ns : 0.0;
    sidecar_.entries.push_back(entry);
    std::printf("%-28s %8d %14.2f %14.3f\n", name.c_str(), threads, ns,
                entry.ops_per_sec / 1e6);
    return ns;
  }

  /// Run() in both clocks: records the usual wall-time entry and also
  /// returns the process-CPU reading, for the thread-scaling extra.
  template <typename F>
  bench::WallCpuNs RunWallCpu(const std::string& name, int threads, F&& fn,
                              double ops_per_call = 1.0) {
    const bench::WallCpuNs ns = bench::MeasureWallCpuNsPerOp(
        std::forward<F>(fn), ops_per_call, min_seconds_, samples_);
    bench::PerfEntry entry;
    entry.name = name;
    entry.threads = threads;
    entry.ns_per_op = ns.wall;
    entry.ops_per_sec = ns.wall > 0.0 ? 1e9 / ns.wall : 0.0;
    sidecar_.entries.push_back(entry);
    std::printf("%-28s %8d %14.2f %14.3f\n", name.c_str(), threads, ns.wall,
                entry.ops_per_sec / 1e6);
    return ns;
  }

  void Extra(const std::string& key, double value) {
    sidecar_.extras.emplace_back(key, value);
    std::printf("  %-42s %.2fx\n", (key + ":").c_str(), value);
  }

  const bench::PerfSidecar& sidecar() const { return sidecar_; }

 private:
  double min_seconds_;
  int samples_;
  bench::PerfSidecar sidecar_;
};

int Main(int argc, char** argv) {
  const Flags flags(argc, argv,
                           {"quick", "threads", "out", "dims", "pair-dims"});
  const int threads = ConfigureThreads(flags);
  const bool quick = flags.GetBool("quick", false);
  const std::string out_path = flags.GetString("out", "BENCH_kernels.json");
  const size_t elem_dims = static_cast<size_t>(flags.GetInt("dims", 128));
  const size_t pd = static_cast<size_t>(flags.GetInt("pair-dims", 16));
  const std::string ed = std::to_string(elem_dims);

  const Status self_check = kernels::SelfCheck();
  if (!self_check.ok()) {
    std::fprintf(stderr, "kernel self-check failed: %s\n",
                 self_check.ToString().c_str());
    return 1;
  }
  std::printf("kernel self-check passed (vectorized == scalar reference)\n");
  const bool avx2 = kernels::CompiledWithAvx2();
  std::printf("kernel branch: %s\n", avx2 ? "AVX2" : "portable");

  // Full mode takes five samples per primitive: the committed baseline
  // must not record one lucky scheduler slice.
  const double min_seconds = quick ? 0.05 : 0.25;
  Harness harness(threads, min_seconds, quick ? 3 : 5);
  Rng rng(4242);

  // --- elementwise kernels at --dims (default 128) ---
  std::vector<double> a(elem_dims), b(elem_dims), y(elem_dims);
  for (double& x : a) x = rng.NextDouble() - 0.5;
  for (double& x : b) x = rng.NextDouble() - 0.5;
  for (double& x : y) x = rng.NextDouble() - 0.5;

  const double dot_kernel = harness.Run("dot.kernel.d" + ed, 1, [&] {
    bench::DoNotOptimize(kernels::Dot(a, b));
  });
  const double dot_scalar = harness.Run("dot.scalar.d" + ed, 1, [&] {
    bench::DoNotOptimize(ScalarDot(a, b));
  });
  const double l2_kernel = harness.Run("squared_l2.kernel.d" + ed, 1, [&] {
    bench::DoNotOptimize(kernels::SquaredL2(a, b));
  });
  const double l2_scalar = harness.Run("squared_l2.scalar.d" + ed, 1, [&] {
    bench::DoNotOptimize(ScalarSquaredL2(a, b));
  });
  harness.Run("axpy.kernel.d" + ed, 1, [&] {
    kernels::Axpy(1e-9, a, y);
    bench::DoNotOptimize(y.data());
  });
  harness.Run("axpy.scalar.d" + ed, 1, [&] {
    ScalarAxpy(1e-9, a, y);
    bench::DoNotOptimize(y.data());
  });
  harness.Run("fma.kernel.d" + ed, 1, [&] {
    kernels::Fma(a, b, y);
    bench::DoNotOptimize(y.data());
  });

  // --- tiled pairwise distances straddling the internal 8x64 tiles ---
  const size_t pa = 64, pb = 256;
  const Matrix rows_a = RandomMatrix(pa, pd, &rng);
  const Matrix rows_b = RandomMatrix(pb, pd, &rng);
  std::vector<double> norms_a(pa), norms_b(pb);
  kernels::SquaredNorms(rows_a.Row(0), pa, pd, norms_a.data());
  kernels::SquaredNorms(rows_b.Row(0), pb, pd, norms_b.data());
  std::vector<double> pairwise(pa * pb);
  const double pair_tiled = harness.Run(
      "pairwise_l2.tiled", 1,
      [&] {
        kernels::PairwiseSquaredL2(rows_a.Row(0), pa, norms_a.data(),
                                   rows_b.Row(0), pb, norms_b.data(), pd,
                                   pairwise.data());
        bench::DoNotOptimize(pairwise.data());
      },
      static_cast<double>(pa * pb));
  const double pair_scalar = harness.Run(
      "pairwise_l2.scalar", 1,
      [&] {
        for (size_t i = 0; i < pa; ++i) {
          const std::span<const double> row_a(rows_a.Row(i), pd);
          for (size_t j = 0; j < pb; ++j) {
            pairwise[i * pb + j] = ScalarSquaredL2(
                row_a, std::span<const double>(rows_b.Row(j), pd));
          }
        }
        bench::DoNotOptimize(pairwise.data());
      },
      static_cast<double>(pa * pb));

  // --- k-NN: tiled batch vs the old row-at-a-time scan ---
  const size_t points_n = 4000;
  const size_t queries_n = 256;
  const size_t dims = 12, k = 10;
  const Matrix points = RandomMatrix(points_n, dims, &rng);
  const Matrix queries = RandomMatrix(queries_n, dims, &rng);
  const BruteForceKnn brute(points);
  const KdTree tree(points);
  const ExecutionContext& context = ExecutionContext::Unlimited();
  ParallelOptions serial;
  serial.num_threads = 1;

  const bench::WallCpuNs batch_1t = harness.RunWallCpu(
      "knn_batch.tiled.t1", 1,
      [&] {
        bench::DoNotOptimize(
            brute.QueryBatch(queries, k, context, "bench", serial));
      },
      static_cast<double>(queries_n));
  std::vector<std::vector<Neighbour>> rowscan_out;
  const double batch_rowscan = harness.Run(
      "knn_batch.rowscan.t1", 1,
      [&] {
        RowScanBatch(points, queries, k, &rowscan_out);
        bench::DoNotOptimize(rowscan_out.data());
      },
      static_cast<double>(queries_n));
  // Always emitted so the sidecar's entry set is machine-independent;
  // perf_compare skips it when lane counts differ between baseline and
  // candidate. At --threads=1 the probe oversubscribes lanes (see
  // ResolveProbeLanes) so the parallel dispatch path is measured — and
  // knn_batch_speedup_vs_1_thread populated (via the CPU-time scaling
  // projection of ThreadScalingSpeedup) — even on one core.
  const int lanes = bench::ResolveProbeLanes(threads);
  ParallelOptions wide;
  wide.num_threads = lanes;
  const bench::WallCpuNs batch_nt = harness.RunWallCpu(
      "knn_batch.tiled.tN", lanes,
      [&] {
        bench::DoNotOptimize(
            brute.QueryBatch(queries, k, context, "bench", wide));
      },
      static_cast<double>(queries_n));

  const std::span<const double> probe(queries.Row(0), dims);
  harness.Run("knn_query.heap", 1, [&] {
    bench::DoNotOptimize(brute.Query(probe, k));
  });
  harness.Run("knn_query.sortall", 1, [&] {
    bench::DoNotOptimize(SortAllQuery(points, probe, k));
  });
  harness.Run("kdtree.query", 1, [&] {
    bench::DoNotOptimize(tree.Query(probe, k));
  });

  // --- string similarity ---
  const std::string jw_a = "margaret thompson";
  const std::string jw_b = "margret thomson";
  harness.Run("sim.jaro_winkler", 1, [&] {
    bench::DoNotOptimize(JaroWinklerSimilarity(jw_a, jw_b));
  });
  const std::string lev_a = "international association of entity resolution";
  const std::string lev_b = "internation asociation of entity resolutions";
  const double lev_banded = harness.Run("sim.levenshtein.banded", 1, [&] {
    bench::DoNotOptimize(LevenshteinDistance(lev_a, lev_b));
  });
  const double lev_naive = harness.Run("sim.levenshtein.naive", 1, [&] {
    bench::DoNotOptimize(NaiveLevenshtein(lev_a, lev_b));
  });
  harness.Run("sim.levenshtein.bounded", 1, [&] {
    bench::DoNotOptimize(LevenshteinDistanceBounded(lev_a, lev_b, 3));
  });
  const std::string qg_a = "efficient entity resolution methods";
  const std::string qg_b = "eficient entity resolution method";
  harness.Run("sim.qgram_jaccard", 1, [&] {
    bench::DoNotOptimize(QGramJaccardSimilarity(qg_a, qg_b));
  });
  // An authors-like pair of three tokens each.
  const std::string me_a = "margaret e thompson";
  const std::string me_b = "thomson margret e";
  const std::vector<std::string_view> me_tokens_a = WordViews(me_a);
  const std::vector<std::string_view> me_tokens_b = WordViews(me_b);
  const double me_matrix = harness.Run("sim.monge_elkan", 1, [&] {
    bench::DoNotOptimize(SymmetricMongeElkan(me_tokens_a, me_tokens_b));
  });
  const double me_two_scan = harness.Run("sim.monge_elkan.two_scan", 1, [&] {
    bench::DoNotOptimize(
        std::max(OneDirectionMongeElkan(me_tokens_a, me_tokens_b),
                 OneDirectionMongeElkan(me_tokens_b, me_tokens_a)));
  });

  // --- solver: one dense logistic-regression fit ---
  // Fixed workload (n=256, m=16) so a regression in the per-fit cost of
  // the SGD loop shows up against the baseline.
  const size_t fit_n = 256, fit_m = 16;
  Matrix fit_x(fit_n, fit_m);
  std::vector<int> fit_y(fit_n);
  for (size_t i = 0; i < fit_n; ++i) {
    fit_y[i] = static_cast<int>(i % 2);
    const double shift = fit_y[i] == 1 ? 1.0 : -1.0;
    for (size_t d = 0; d < fit_m; ++d) {
      fit_x(i, d) = shift + 0.25 * (rng.NextDouble() - 0.5);
    }
  }
  LogisticRegressionOptions sgd_opts;
  sgd_opts.epochs = 50;
  harness.Run("solver.sgd_fit.n256", 1, [&] {
    LogisticRegression model(sgd_opts);
    model.Fit(fit_x, fit_y);
    bench::DoNotOptimize(model.coefficients().data());
  });

  std::printf("\nspeedups (scalar baseline = pre-kernel implementation):\n");
  harness.Extra("dot_speedup_vs_scalar", dot_scalar / dot_kernel);
  harness.Extra("squared_l2_speedup_vs_scalar", l2_scalar / l2_kernel);
  harness.Extra("pairwise_speedup_vs_scalar", pair_scalar / pair_tiled);
  harness.Extra("knn_batch_speedup_tiled_vs_rowscan",
                batch_rowscan / batch_1t.wall);
  harness.Extra("knn_batch_speedup_vs_1_thread",
                bench::ThreadScalingSpeedup(batch_1t, batch_nt, lanes));
  harness.Extra("levenshtein_speedup_vs_naive", lev_naive / lev_banded);
  harness.Extra("monge_elkan_speedup_vs_two_scan", me_two_scan / me_matrix);

  // The build identity, not a measurement: perf_compare refuses to diff
  // sidecars timed on different kernel branches.
  bench::PerfSidecar sidecar = harness.sidecar();
  sidecar.extras.emplace_back(bench::kKernelsAvx2Extra, avx2 ? 1.0 : 0.0);
  if (!bench::WritePerfSidecar(out_path, sidecar)) return 1;
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace transer

int main(int argc, char** argv) { return transer::Main(argc, argv); }
