// Recall / speedup harness for the approximate k-NN backend
// (knn/ann_graph): builds brute-force, KD-tree and ANN-graph indexes
// over the same clustered synthetic point set, times QueryBatch on
// each, and measures the graph's recall against the brute-force truth.
// The graph is built twice through the production (batched) build: on
// one lane and on N lanes, N = --threads (4 when --threads=1, so the
// lane-count check below always compares different lane counts).
//
// Flags: --quick (n=20k, 128 queries — CI smoke; the full run is
//        n=200k, 512 queries at d=64),
//        --threads=N (build and QueryBatch lanes; default hardware
//        width),
//        --recall=R (the graph's recall_target; default 0.95),
//        --ef-search=N (explicit beam override; 0 = derive from R),
//        --out=<path> (sidecar; default BENCH_ann.json), --version.
//
// The binary enforces its own acceptance floors. In every mode: the
// 1-lane and N-lane graphs must answer the query batch byte-identically
// (the build's lane-count determinism contract), and measured recall
// must reach the target. In full mode the graph must also answer
// batches at least 10x faster than brute force; quick mode skips that
// claim (20k points leave too little work for a stable 10x wall-clock
// claim on a loaded CI box). Violations exit 1 so CI fails loudly.
//
// The sidecar reuses the transer.kernel_perf schema and is diffed
// against bench/baselines/BENCH_ann.json by perf_compare (report-only
// in CI; the in-binary floors are the hard gate).

#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/kernel_probe.h"
#include "bench/perf_sidecar.h"
#include "knn/ann_graph.h"
#include "knn/brute_force.h"
#include "knn/kd_tree.h"
#include "linalg/matrix.h"
#include "util/execution_context.h"
#include "util/parallel.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace transer {
namespace {

/// Mixture centres for the synthetic workload: `clusters` points in
/// [0, 10)^dims. Clustered data is the honest workload — ER feature
/// vectors concentrate around match/non-match modes, and uniform noise
/// has no neighbourhood structure for a graph to exploit or miss.
Matrix MixtureCenters(size_t clusters, size_t dims, uint64_t seed) {
  Rng rng(seed);
  Matrix centers(clusters, dims);
  for (size_t c = 0; c < clusters; ++c) {
    for (size_t d = 0; d < dims; ++d) centers(c, d) = 10.0 * rng.NextDouble();
  }
  return centers;
}

/// `n` draws from the mixture: centre (round-robin) + unit Gaussian
/// noise. Data and queries share one centre set — queries come from the
/// *indexed* distribution, which is what SEL's self-neighbourhood scans
/// do; querying a disjoint mixture would score the graph on points that
/// live 30 sigma from every indexed cluster, a workload no k-NN caller
/// here has.
Matrix SampleMixture(const Matrix& centers, size_t n, uint64_t seed) {
  Rng rng(seed);
  Matrix points(n, centers.cols());
  for (size_t i = 0; i < n; ++i) {
    const size_t c = i % centers.rows();
    for (size_t d = 0; d < centers.cols(); ++d) {
      points(i, d) = centers(c, d) + rng.NextGaussian();
    }
  }
  return points;
}

double MeasuredRecall(const std::vector<std::vector<Neighbour>>& truth,
                      const std::vector<std::vector<Neighbour>>& candidates) {
  size_t hit = 0;
  size_t total = 0;
  for (size_t q = 0; q < truth.size(); ++q) {
    std::set<size_t> true_set;
    for (const Neighbour& n : truth[q]) true_set.insert(n.index);
    total += true_set.size();
    for (const Neighbour& n : candidates[q]) hit += true_set.count(n.index);
  }
  return total == 0 ? 1.0 : static_cast<double>(hit) / total;
}

/// True when both batches hold the same neighbours at bit-identical
/// distances, row for row.
bool SameAnswers(const std::vector<std::vector<Neighbour>>& a,
                 const std::vector<std::vector<Neighbour>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t q = 0; q < a.size(); ++q) {
    if (a[q].size() != b[q].size()) return false;
    for (size_t i = 0; i < a[q].size(); ++i) {
      if (a[q][i].index != b[q][i].index ||
          a[q][i].distance != b[q][i].distance) {
        return false;
      }
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  const Flags flags(
      argc, argv, {"quick", "threads", "recall", "ef-search", "out"});
  const int threads = ConfigureThreads(flags);
  const bool quick = flags.GetBool("quick", false);
  const double recall_target = flags.GetDouble("recall", 0.95);
  const size_t ef_search =
      static_cast<size_t>(flags.GetInt("ef-search", 0));
  const std::string out_path = flags.GetString("out", "BENCH_ann.json");

  const size_t n = quick ? 20000 : 200000;
  const size_t queries_n = quick ? 128 : 512;
  const size_t dims = 64;
  const size_t clusters = 256;
  const size_t k = 10;
  const double min_seconds = quick ? 0.05 : 0.25;
  const int samples = quick ? 3 : 5;

  std::printf("ann_recall: n=%zu dims=%zu queries=%zu k=%zu threads=%d%s\n",
              n, dims, queries_n, k, threads, quick ? " (quick)" : "");

  const Matrix centers = MixtureCenters(clusters, dims, 20260808);
  const Matrix points = SampleMixture(centers, n, 1);
  const Matrix queries = SampleMixture(centers, queries_n, 4711);

  AnnGraphOptions ann_options;
  ann_options.recall_target = recall_target;
  ann_options.ef_search = ef_search;

  const ExecutionContext& context = ExecutionContext::Unlimited();
  ParallelOptions parallel;
  parallel.num_threads = threads;

  // The production build (Create) on `lanes` lanes, timed.
  auto build = [&](int lanes, double* seconds) {
    Stopwatch watch;
    auto built = AnnGraph::Create(points, ann_options, context, "ann",
                                  nullptr, lanes);
    *seconds = watch.ElapsedSeconds();
    return built;
  };
  // The 1-lane graph lives only long enough to answer the query batch;
  // the N-lane graph is the one timed and scored below.
  const int build_lanes = bench::ResolveProbeLanes(threads);
  double build_seconds_1_lane = 0.0;
  std::vector<std::vector<Neighbour>> serial_answers;
  {
    auto serial_graph = build(1, &build_seconds_1_lane);
    if (!serial_graph.ok()) {
      std::fprintf(stderr, "graph build failed\n");
      return 2;
    }
    auto answers =
        serial_graph.value().QueryBatch(queries, k, context, "ann", parallel);
    if (!answers.ok()) {
      std::fprintf(stderr, "query batch failed\n");
      return 2;
    }
    serial_answers = std::move(answers).value();
  }
  double graph_build_seconds = 0.0;
  auto built = build(build_lanes, &graph_build_seconds);
  if (!built.ok()) {
    std::fprintf(stderr, "graph build failed\n");
    return 2;
  }
  const AnnGraph graph = std::move(built).value();
  const BruteForceKnn brute(points);
  const KdTree tree(points, threads);

  const auto truth = brute.QueryBatch(queries, k, context, "ann", parallel);
  const auto approx = graph.QueryBatch(queries, k, context, "ann", parallel);
  if (!truth.ok() || !approx.ok()) {
    std::fprintf(stderr, "query batch failed\n");
    return 2;
  }
  const bool lanes_identical = SameAnswers(serial_answers, approx.value());
  const double recall = MeasuredRecall(truth.value(), approx.value());

  bench::PerfSidecar sidecar;
  sidecar.threads = threads;
  // Build cost per inserted point, on one lane and on `build_lanes`.
  auto add_build_entry = [&](const std::string& name, int lanes,
                             double seconds) {
    bench::PerfEntry entry;
    entry.name = name;
    entry.threads = lanes;
    entry.ns_per_op = seconds * 1e9 / static_cast<double>(n);
    entry.ops_per_sec =
        seconds > 0.0 ? static_cast<double>(n) / seconds : 0.0;
    sidecar.entries.push_back(entry);
  };
  add_build_entry("ann.build.ann_graph.t1", 1, build_seconds_1_lane);
  add_build_entry("ann.build.ann_graph.tN", build_lanes, graph_build_seconds);
  std::printf("%-24s %16s %14s\n", "index", "ns/query", "queries/s");
  auto time_batch = [&](const std::string& name, const KnnBackend& index) {
    const double ns = bench::MeasureNsPerOp(
        [&] {
          bench::DoNotOptimize(
              index.QueryBatch(queries, k, context, "ann", parallel));
        },
        static_cast<double>(queries_n), min_seconds, samples);
    bench::PerfEntry entry;
    entry.name = name;
    entry.threads = threads;
    entry.ns_per_op = ns;
    entry.ops_per_sec = ns > 0.0 ? 1e9 / ns : 0.0;
    sidecar.entries.push_back(entry);
    std::printf("%-24s %16.0f %14.0f\n", name.c_str(), ns,
                entry.ops_per_sec);
    return ns;
  };

  const double brute_ns = time_batch("ann.batch.brute_force", brute);
  const double tree_ns = time_batch("ann.batch.kd_tree", tree);
  const double graph_ns = time_batch("ann.batch.ann_graph", graph);

  const double speedup_vs_brute = brute_ns / graph_ns;
  const double speedup_vs_tree = tree_ns / graph_ns;
  const double mib =
      static_cast<double>(graph.GraphBytes()) / (1024.0 * 1024.0);
  const double build_speedup = build_seconds_1_lane / graph_build_seconds;
  std::printf(
      "\nrecall=%.4f (target %.2f)  ef=%zu  speedup: %.1fx vs brute, "
      "%.1fx vs kd-tree\n"
      "graph: %zu edges, top level %zu, %.1f MiB, built in %.2fs on 1 "
      "lane, %.2fs on %d lanes (%.2fx); answers %s across lane counts\n",
      recall, recall_target, graph.EffectiveEf(k), speedup_vs_brute,
      speedup_vs_tree, graph.EdgeCount(), graph.max_level(), mib,
      build_seconds_1_lane, graph_build_seconds, build_lanes, build_speedup,
      lanes_identical ? "identical" : "DIFFER");

  sidecar.extras.emplace_back("ann_recall", recall);
  sidecar.extras.emplace_back("ann_recall_target", recall_target);
  sidecar.extras.emplace_back("ann_effective_ef",
                              static_cast<double>(graph.EffectiveEf(k)));
  sidecar.extras.emplace_back("ann_speedup_vs_brute", speedup_vs_brute);
  sidecar.extras.emplace_back("ann_speedup_vs_kd_tree", speedup_vs_tree);
  sidecar.extras.emplace_back("ann_graph_build_seconds_1_lane",
                              build_seconds_1_lane);
  sidecar.extras.emplace_back("ann_graph_build_seconds",
                              graph_build_seconds);
  sidecar.extras.emplace_back("ann_graph_build_speedup_vs_1_lane",
                              build_speedup);
  sidecar.extras.emplace_back("ann_graph_mib", mib);
  if (!bench::WritePerfSidecar(out_path, sidecar)) return 2;
  std::printf("wrote %s\n", out_path.c_str());

  // In-binary acceptance floors (see header comment).
  bool failed = false;
  if (!lanes_identical) {
    std::fprintf(stderr,
                 "FAIL: graphs built on 1 and %d lanes answer the query "
                 "batch differently\n",
                 build_lanes);
    failed = true;
  }
  if (recall < recall_target) {
    std::fprintf(stderr,
                 "FAIL: measured recall %.4f below target %.2f\n", recall,
                 recall_target);
    failed = true;
  }
  if (!quick && speedup_vs_brute < 10.0) {
    std::fprintf(stderr,
                 "FAIL: ann speedup vs brute force %.1fx below the 10x "
                 "floor\n",
                 speedup_vs_brute);
    failed = true;
  }
  return failed ? 1 : 0;
}

}  // namespace
}  // namespace transer

int main(int argc, char** argv) { return transer::Main(argc, argv); }
