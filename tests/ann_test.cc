// Tests for the approximate k-NN backend (knn/ann_graph) and the
// unified backend factory (knn/knn_backend): determinism (bit-identity
// of queries across thread counts, of batched builds across lane
// counts, of repeated builds, and of the matrix constructor vs Create),
// measured recall against the exact backends, the exact-fallback
// contract at recall_target == 1.0, budget and deadline enforcement,
// and the end-to-end SEL quality bound under the approximate backend.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/transer.h"
#include "data/scenario.h"
#include "knn/ann_graph.h"
#include "knn/brute_force.h"
#include "knn/knn_backend.h"
#include "stream/dynamic_knn.h"
#include "util/random.h"

namespace transer {
namespace {

// Mixture-of-Gaussians point cloud: realistic for recall measurements
// (uniform noise has no neighbourhood structure for the graph to find).
Matrix ClusteredPoints(size_t n, size_t dims, size_t clusters,
                       uint64_t seed) {
  Rng rng(seed);
  Matrix centers(clusters, dims);
  for (size_t c = 0; c < clusters; ++c) {
    for (size_t d = 0; d < dims; ++d) centers(c, d) = 10.0 * rng.NextDouble();
  }
  Matrix points(n, dims);
  for (size_t i = 0; i < n; ++i) {
    const size_t c = i % clusters;
    for (size_t d = 0; d < dims; ++d) {
      points(i, d) = centers(c, d) + rng.NextGaussian();
    }
  }
  return points;
}

std::span<const double> RowSpan(const Matrix& m, size_t r) {
  return {m.Row(r), m.cols()};
}

// Fraction of true top-k indices the candidate lists recovered.
double MeasuredRecall(
    const std::vector<std::vector<Neighbour>>& truth,
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

// Same nodes with the same adjacency lists, in the same order, on
// every layer.
void ExpectSameGraph(const AnnGraph& a, const AnnGraph& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.max_level(), b.max_level());
  EXPECT_EQ(a.EdgeCount(), b.EdgeCount());
  for (size_t node = 0; node < a.size(); ++node) {
    for (size_t layer = 0; layer <= a.max_level(); ++layer) {
      const std::span<const uint32_t> la = a.Links(node, layer);
      const std::span<const uint32_t> lb = b.Links(node, layer);
      ASSERT_TRUE(std::equal(la.begin(), la.end(), lb.begin(), lb.end()))
          << "node " << node << " layer " << layer;
    }
  }
}

void ExpectSameAnswers(const std::vector<std::vector<Neighbour>>& a,
                       const std::vector<std::vector<Neighbour>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t q = 0; q < a.size(); ++q) {
    ASSERT_EQ(a[q].size(), b[q].size()) << "query " << q;
    for (size_t i = 0; i < a[q].size(); ++i) {
      EXPECT_EQ(a[q][i].index, b[q][i].index) << "query " << q << " rank " << i;
      // Bit-identical, not merely close.
      EXPECT_EQ(a[q][i].distance, b[q][i].distance)
          << "query " << q << " rank " << i;
    }
  }
}

// ---------- recall ----------

TEST(AnnGraphTest, RecallMeetsTargetOnClusteredSet) {
  const Matrix points = ClusteredPoints(3000, 16, 24, 71);
  const Matrix queries = ClusteredPoints(200, 16, 24, 72);
  const size_t k = 10;

  AnnGraphOptions options;
  options.recall_target = 0.9;
  BruteForceKnn exact(points);
  const auto truth =
      exact.QueryBatch(queries, k, ExecutionContext::Unlimited());
  ASSERT_TRUE(truth.ok());

  // Both construction paths: the batched matrix build, and the
  // streaming path growing the graph one Insert at a time.
  AnnGraph batched(points, options);
  AnnGraph grown(points.cols(), options);
  for (size_t r = 0; r < points.rows(); ++r) {
    ASSERT_TRUE(grown.Insert(RowSpan(points, r)).ok());
  }
  for (const AnnGraph* graph : {&batched, &grown}) {
    SCOPED_TRACE(graph == &batched ? "matrix build" : "Insert");
    const auto approx =
        graph->QueryBatch(queries, k, ExecutionContext::Unlimited());
    ASSERT_TRUE(approx.ok());
    const double recall = MeasuredRecall(truth.value(), approx.value());
    EXPECT_GE(recall, options.recall_target)
        << "beam ef=" << graph->EffectiveEf(k);
  }
}

TEST(AnnGraphTest, WiderBeamNeverLosesRecall) {
  const Matrix points = ClusteredPoints(1500, 8, 12, 73);
  const Matrix queries = ClusteredPoints(100, 8, 12, 74);
  const size_t k = 5;
  BruteForceKnn exact(points);
  const auto truth =
      exact.QueryBatch(queries, k, ExecutionContext::Unlimited());
  ASSERT_TRUE(truth.ok());

  double previous = 0.0;
  for (size_t ef : {8u, 32u, 128u}) {
    AnnGraphOptions options;
    options.ef_search = ef;
    AnnGraph graph(points, options);
    const auto approx =
        graph.QueryBatch(queries, k, ExecutionContext::Unlimited());
    ASSERT_TRUE(approx.ok());
    const double recall = MeasuredRecall(truth.value(), approx.value());
    EXPECT_GE(recall, previous) << "ef=" << ef;
    previous = recall;
  }
  EXPECT_GE(previous, 0.95);  // ef=128 over 1.5k points is near-exhaustive
}

// ---------- determinism ----------

TEST(AnnGraphTest, BitIdenticalAcrossThreadCounts) {
  const Matrix points = ClusteredPoints(2000, 12, 16, 75);
  const Matrix queries = ClusteredPoints(150, 12, 16, 76);
  AnnGraph graph(points);

  ParallelOptions serial;
  serial.num_threads = 1;
  ParallelOptions wide;
  wide.num_threads = 8;
  const auto one = graph.QueryBatch(queries, 10, ExecutionContext::Unlimited(),
                                    "knn", serial);
  const auto eight = graph.QueryBatch(queries, 10,
                                      ExecutionContext::Unlimited(), "knn",
                                      wide);
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(eight.ok());
  ExpectSameAnswers(one.value(), eight.value());
}

TEST(AnnGraphTest, BitIdenticalAcrossRepeatedBuilds) {
  const Matrix points = ClusteredPoints(1200, 10, 10, 77);
  const Matrix queries = ClusteredPoints(80, 10, 10, 78);
  AnnGraph first(points);
  AnnGraph second(points);
  EXPECT_EQ(first.EdgeCount(), second.EdgeCount());
  EXPECT_EQ(first.max_level(), second.max_level());
  const auto a = first.QueryBatch(queries, 7, ExecutionContext::Unlimited());
  const auto b = second.QueryBatch(queries, 7, ExecutionContext::Unlimited());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectSameAnswers(a.value(), b.value());
}

TEST(AnnGraphTest, BuildBitIdenticalAcrossLaneCounts) {
  // 3000 rows span 20 insertion batches: the doubling prefix, then
  // full-size batches whose rows search, link and back-link in parallel.
  const Matrix points = ClusteredPoints(3000, 12, 16, 97);
  AnnGraphOptions options;
  options.ef_search = 12;  // a narrow beam makes answers graph-sensitive
  std::vector<std::unique_ptr<AnnGraph>> graphs;
  for (int lanes : {1, 2, 8}) {
    auto built = AnnGraph::Create(points, options,
                                  ExecutionContext::Unlimited(), "ann_graph",
                                  nullptr, lanes);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    graphs.push_back(std::make_unique<AnnGraph>(std::move(built).value()));
  }
  const auto reference = graphs[0]->QueryBatch(
      points, 10, ExecutionContext::Unlimited(), "knn", {},
      /*skip_self=*/true);
  ASSERT_TRUE(reference.ok());
  for (size_t g = 1; g < graphs.size(); ++g) {
    SCOPED_TRACE(g);
    ExpectSameGraph(*graphs[0], *graphs[g]);
    const auto answers = graphs[g]->QueryBatch(
        points, 10, ExecutionContext::Unlimited(), "knn", {},
        /*skip_self=*/true);
    ASSERT_TRUE(answers.ok());
    ExpectSameAnswers(reference.value(), answers.value());
  }
}

TEST(AnnGraphTest, MatrixConstructorMatchesCreate) {
  // One build path: the unbudgeted constructor (one lane) and Create (4
  // lanes) produce the same graph. Sequential Insert is a different
  // construction order; RecallMeetsTargetOnClusteredSet holds it to the
  // recall floor and the DynamicKnnAnnTest cases to replay determinism.
  const Matrix points = ClusteredPoints(600, 6, 8, 79);
  const Matrix queries = ClusteredPoints(50, 6, 8, 80);
  AnnGraphOptions options;
  options.ef_search = 8;
  AnnGraph constructed(points, options);
  auto created = AnnGraph::Create(points, options,
                                  ExecutionContext::Unlimited(), "ann_graph",
                                  nullptr, /*num_threads=*/4);
  ASSERT_TRUE(created.ok());
  ExpectSameGraph(constructed, created.value());
  const auto a =
      constructed.QueryBatch(queries, 5, ExecutionContext::Unlimited());
  const auto b =
      created.value().QueryBatch(queries, 5, ExecutionContext::Unlimited());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectSameAnswers(a.value(), b.value());
}

TEST(AnnGraphTest, SeedChangesLevelAssignment) {
  const Matrix points = ClusteredPoints(800, 6, 8, 81);
  AnnGraphOptions a_opts;
  a_opts.seed = 1;
  AnnGraphOptions b_opts;
  b_opts.seed = 2;
  AnnGraph a(points, a_opts);
  AnnGraph b(points, b_opts);
  // Different level streams virtually always produce different graphs;
  // what matters is that each is internally deterministic (above).
  EXPECT_NE(a.EdgeCount(), b.EdgeCount());
}

// ---------- query semantics and edge cases ----------

TEST(AnnGraphTest, SkipIndexExcludesSelf) {
  Matrix points = {{0.1, 0.1}, {0.1, 0.1}, {0.9, 0.9}};
  AnnGraph graph(points);
  const auto result =
      graph.Query(std::vector<double>{0.1, 0.1}, 2, /*skip_index=*/0);
  ASSERT_EQ(result.size(), 2u);
  EXPECT_NE(result[0].index, 0u);
  EXPECT_NE(result[1].index, 0u);
}

TEST(AnnGraphTest, SkipSelfBatchExcludesEachRow) {
  const Matrix points = ClusteredPoints(300, 4, 4, 82);
  AnnGraph graph(points);
  const auto result =
      graph.QueryBatch(points, 3, ExecutionContext::Unlimited(), "knn", {},
                       /*skip_self=*/true);
  ASSERT_TRUE(result.ok());
  for (size_t q = 0; q < result.value().size(); ++q) {
    for (const Neighbour& n : result.value()[q]) {
      EXPECT_NE(n.index, q);
    }
  }
}

TEST(AnnGraphTest, TinyGraphReturnsEverything) {
  const Matrix points = ClusteredPoints(5, 3, 2, 83);
  AnnGraph graph(points);
  const auto result = graph.Query(std::vector<double>{0.5, 0.5, 0.5}, 50);
  EXPECT_EQ(result.size(), 5u);
  for (size_t i = 1; i < result.size(); ++i) {
    EXPECT_LE(result[i - 1].distance, result[i].distance);
  }
}

TEST(AnnGraphTest, EmptyGraphAndZeroK) {
  AnnGraph graph(3);
  EXPECT_TRUE(graph.Query(std::vector<double>{0.0, 0.0, 0.0}, 4).empty());
  const Matrix points = ClusteredPoints(10, 3, 2, 84);
  AnnGraph built(points);
  EXPECT_TRUE(built.Query(std::vector<double>{0.0, 0.0, 0.0}, 0).empty());
}

TEST(AnnGraphTest, InsertDimensionMismatchFails) {
  AnnGraph graph(3);
  ASSERT_TRUE(graph.Insert(std::vector<double>{1.0, 2.0, 3.0}).ok());
  const Status status = graph.Insert(std::vector<double>{1.0, 2.0});
  EXPECT_FALSE(status.ok());
}

TEST(AnnGraphTest, MatchesExactOnSmallSets) {
  // Below a few hundred points the beam covers the whole graph, so the
  // "approximate" answers must coincide exactly with brute force.
  const Matrix points = ClusteredPoints(120, 5, 3, 85);
  const Matrix queries = ClusteredPoints(40, 5, 3, 86);
  AnnGraphOptions options;
  options.ef_search = 128;
  AnnGraph graph(points, options);
  BruteForceKnn exact(points);
  const auto truth =
      exact.QueryBatch(queries, 8, ExecutionContext::Unlimited());
  const auto approx =
      graph.QueryBatch(queries, 8, ExecutionContext::Unlimited());
  ASSERT_TRUE(truth.ok());
  ASSERT_TRUE(approx.ok());
  ExpectSameAnswers(truth.value(), approx.value());
}

// ---------- budgets ----------

TEST(AnnGraphTest, BudgetedCreateReportsMemoryExhaustion) {
  const Matrix points = ClusteredPoints(2000, 16, 8, 87);
  ExecutionContext context({/*time=*/0.0, /*memory=*/1024});
  const auto result = AnnGraph::Create(points, {}, context);
  EXPECT_FALSE(result.ok());
}

TEST(AnnGraphTest, BudgetedCreateSucceedsWithinBudget) {
  const Matrix points = ClusteredPoints(500, 8, 4, 88);
  ExecutionContext context({/*time=*/0.0, /*memory=*/64 << 20});
  auto result = AnnGraph::Create(points, {}, context);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().size(), points.rows());
  EXPECT_GT(result.value().GraphBytes(), 0u);
}

TEST(AnnGraphTest, BudgetedCreateDeadlineExpiresMidBuild) {
  // The build takes far longer than 20 ms at any lane count, so the
  // deadline passes the entry check, then trips inside the batches.
  const Matrix points = ClusteredPoints(30000, 16, 32, 98);
  ExecutionContext context({/*time=*/0.02, /*memory=*/1ull << 30});
  RunDiagnostics diagnostics;
  const auto result = AnnGraph::Create(points, {}, context, "ann_graph",
                                       &diagnostics, /*num_threads=*/4);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("(TE)"), std::string::npos)
      << result.status().ToString();
  EXPECT_TRUE(diagnostics.HasKind(DegradationKind::kTimeLimitExceeded));
  EXPECT_GE(context.peak_reserved_bytes(),
            AnnGraph::StorageBytes(points, {}));  // reserved, then built
  EXPECT_EQ(context.reserved_bytes(), 0u);        // and released on failure
}

TEST(AnnGraphTest, QueryObservesExpiredContext) {
  const Matrix points = ClusteredPoints(400, 6, 4, 89);
  AnnGraph graph(points);
  ExecutionContext context({/*time=*/1e-9, /*memory=*/0});
  ASSERT_TRUE(context.Expired());  // ~0 deadline latches on the first poll
  const auto result = graph.QueryBatch(points.SelectRows({0}), 5, context);
  EXPECT_FALSE(result.ok());
}

// ---------- factory ----------

TEST(KnnBackendFactoryTest, ParsesBackendNames) {
  KnnBackendKind kind = KnnBackendKind::kKdTree;
  EXPECT_TRUE(ParseKnnBackendKind("ann_graph", &kind));
  EXPECT_EQ(kind, KnnBackendKind::kAnnGraph);
  EXPECT_TRUE(ParseKnnBackendKind("ann", &kind));
  EXPECT_EQ(kind, KnnBackendKind::kAnnGraph);
  EXPECT_TRUE(ParseKnnBackendKind("brute", &kind));
  EXPECT_EQ(kind, KnnBackendKind::kBruteForce);
  EXPECT_TRUE(ParseKnnBackendKind("kdtree", &kind));
  EXPECT_EQ(kind, KnnBackendKind::kKdTree);
  EXPECT_FALSE(ParseKnnBackendKind("octree", &kind));
  EXPECT_EQ(kind, KnnBackendKind::kKdTree);  // untouched on failure
}

TEST(KnnBackendFactoryTest, BuildsEveryRequestedKind) {
  const Matrix points = ClusteredPoints(200, 4, 4, 90);
  for (const auto kind : {KnnBackendKind::kKdTree, KnnBackendKind::kBruteForce,
                          KnnBackendKind::kAnnGraph}) {
    KnnBackendOptions options;
    options.kind = kind;
    auto backend = CreateKnnBackend(points, options);
    ASSERT_TRUE(backend.ok());
    EXPECT_EQ(backend.value()->backend_name(), KnnBackendKindName(kind));
    EXPECT_EQ(backend.value()->size(), points.rows());
    EXPECT_EQ(backend.value()->dimensions(), points.cols());
    EXPECT_EQ(backend.value()->Query(RowSpan(points, 0), 3).size(), 3u);
  }
}

TEST(KnnBackendFactoryTest, FullRecallTargetFallsBackToExact) {
  const Matrix points = ClusteredPoints(300, 5, 4, 91);
  KnnBackendOptions options;
  options.kind = KnnBackendKind::kAnnGraph;
  options.ann.recall_target = 1.0;
  RunDiagnostics diagnostics;
  auto backend = CreateKnnBackend(points, options,
                                  ExecutionContext::Unlimited(), "knn",
                                  &diagnostics);
  ASSERT_TRUE(backend.ok());
  EXPECT_EQ(backend.value()->backend_name(), "kd_tree");
  EXPECT_TRUE(diagnostics.HasKind(DegradationKind::kAnnExactFallback));

  // The fallback answers are the true top-k.
  BruteForceKnn exact(points);
  const Matrix queries = ClusteredPoints(30, 5, 4, 92);
  const auto truth =
      exact.QueryBatch(queries, 6, ExecutionContext::Unlimited());
  const auto got = backend.value()->QueryBatch(queries, 6,
                                               ExecutionContext::Unlimited());
  ASSERT_TRUE(truth.ok());
  ASSERT_TRUE(got.ok());
  ExpectSameAnswers(truth.value(), got.value());
}

TEST(KnnBackendFactoryTest, ExplicitEfSearchOverridesFallback) {
  const Matrix points = ClusteredPoints(300, 5, 4, 93);
  KnnBackendOptions options;
  options.kind = KnnBackendKind::kAnnGraph;
  options.ann.recall_target = 1.0;
  options.ann.ef_search = 64;  // explicit beam: caller wants the graph
  auto backend = CreateKnnBackend(points, options);
  ASSERT_TRUE(backend.ok());
  EXPECT_EQ(backend.value()->backend_name(), "ann_graph");
}

// ---------- streaming (grow-only) backend ----------

TEST(DynamicKnnAnnTest, GraphBackendMatchesStandaloneGraph) {
  const Matrix points = ClusteredPoints(500, 6, 6, 94);
  stream::DynamicKnnOptions options;
  options.backend = stream::DynamicKnnBackend::kAnnGraph;
  stream::DynamicKnn dynamic(options);
  AnnGraph reference(points.cols(), options.ann);
  for (size_t r = 0; r < points.rows(); ++r) {
    std::vector<double> row(RowSpan(points, r).begin(),
                            RowSpan(points, r).end());
    ASSERT_TRUE(dynamic.Insert(std::move(row)).ok());
    ASSERT_TRUE(reference.Insert(RowSpan(points, r)).ok());
  }
  ASSERT_NE(dynamic.graph(), nullptr);
  EXPECT_EQ(dynamic.indexed_size(), points.rows());
  EXPECT_EQ(dynamic.rebuild_count(), 0u);
  const Matrix queries = ClusteredPoints(40, 6, 6, 95);
  for (size_t q = 0; q < queries.rows(); ++q) {
    const auto a = dynamic.Query(RowSpan(queries, q), 5);
    const auto b = reference.Query(RowSpan(queries, q), 5);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].index, b[i].index);
      EXPECT_EQ(a[i].distance, b[i].distance);
    }
  }
}

TEST(DynamicKnnAnnTest, InterruptAndReplayAnswersIdentically) {
  // Simulates the crash-replay contract: a graph grown in two sessions
  // from the same insert stream answers exactly like one grown in one.
  const Matrix points = ClusteredPoints(300, 5, 4, 96);
  stream::DynamicKnnOptions options;
  options.backend = stream::DynamicKnnBackend::kAnnGraph;
  stream::DynamicKnn full(options);
  stream::DynamicKnn replayed(options);
  for (size_t r = 0; r < points.rows(); ++r) {
    std::vector<double> row(RowSpan(points, r).begin(),
                            RowSpan(points, r).end());
    ASSERT_TRUE(full.Insert(row).ok());
    ASSERT_TRUE(replayed.Insert(std::move(row)).ok());
  }
  const auto a = full.Query(RowSpan(points, 7), 4);
  const auto b = replayed.Query(RowSpan(points, 7), 4);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, b[i].index);
    EXPECT_EQ(a[i].distance, b[i].distance);
  }
}

// ---------- end-to-end SEL quality ----------

TEST(AnnSelTest, F1DeltaBoundedUnderApproximateBackend) {
  ScenarioScale scale;
  scale.scale = 0.02;
  scale.min_instances = 300;
  scale.max_instances = 500;
  const TransferScenario scenario =
      BuildScenario(ScenarioId::kDblpAcmToDblpScholar, scale);
  TransER transer;
  const auto suite = DefaultClassifierSuite();

  TransferRunOptions exact_options;
  const MethodScenarioResult exact =
      RunMethodOnScenario(transer, scenario, suite, exact_options);
  ASSERT_TRUE(exact.failure.empty()) << exact.failure;

  TransferRunOptions ann_options;
  ann_options.knn_backend = KnnBackendKind::kAnnGraph;
  ann_options.knn_recall_target = 0.95;
  const MethodScenarioResult approx =
      RunMethodOnScenario(transer, scenario, suite, ann_options);
  ASSERT_TRUE(approx.failure.empty()) << approx.failure;

  // Acceptance bound: SEL under the approximate index stays within 0.5
  // F1 points (0.005 absolute) of the exact index.
  EXPECT_NEAR(approx.quality.f_star.mean, exact.quality.f_star.mean, 0.005);
}

}  // namespace
}  // namespace transer
