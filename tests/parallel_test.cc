// Tests for the deterministic parallel runtime: chunk planning, pool /
// region mechanics, per-chunk seed derivation, and the end-to-end
// determinism contract — TransER reports, kNN answers and sweep
// journals bit-identical at --threads 1, 2 and 8.

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/sweep_checkpoint.h"
#include "core/transer.h"
#include "data/feature_space_generator.h"
#include "knn/brute_force.h"
#include "knn/kd_tree.h"
#include "transfer/naive_transfer.h"
#include "util/parallel.h"
#include "util/random.h"

namespace transer {
namespace {

// ---------- chunk planning ----------

TEST(PlanChunksTest, CoversRangeExactlyAndInOrder) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{256},
                   size_t{1000}, size_t{100000}}) {
    const ChunkPlan plan = PlanChunks(n);
    size_t covered = 0;
    for (size_t chunk = 0; chunk < plan.num_chunks; ++chunk) {
      EXPECT_EQ(plan.Begin(chunk), covered);
      EXPECT_GT(plan.End(chunk), plan.Begin(chunk));
      covered = plan.End(chunk);
    }
    EXPECT_EQ(covered, n);
    EXPECT_LE(plan.num_chunks, kMaxChunksPerRegion);
  }
}

TEST(PlanChunksTest, RespectsMinItemsPerChunk) {
  const ChunkPlan plan = PlanChunks(1000, 64);
  EXPECT_GE(plan.chunk_size, 64u);
  for (size_t chunk = 0; chunk + 1 < plan.num_chunks; ++chunk) {
    EXPECT_GE(plan.End(chunk) - plan.Begin(chunk), 64u);
  }
}

TEST(PlanChunksTest, BoundariesIgnoreThreadCount) {
  // The plan is a pure function of (n, min_items_per_chunk); there is no
  // thread-count input at all. Guard the signature staying that way by
  // checking two identical calls agree after the default changes.
  const ChunkPlan before = PlanChunks(12345, 8);
  SetDefaultThreadCount(7);
  const ChunkPlan after = PlanChunks(12345, 8);
  SetDefaultThreadCount(0);
  EXPECT_EQ(before.chunk_size, after.chunk_size);
  EXPECT_EQ(before.num_chunks, after.num_chunks);
}

// ---------- ParallelFor ----------

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 8}) {
    const size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    ParallelOptions options;
    options.num_threads = threads;
    const Status status = ParallelFor(
        ExecutionContext::Unlimited(), "test", n,
        [&](size_t begin, size_t end, size_t /*chunk*/) -> Status {
          for (size_t i = begin; i < end; ++i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
          }
          return Status::OK();
        },
        options);
    ASSERT_TRUE(status.ok()) << status.ToString();
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
  }
}

TEST(ParallelForTest, FirstErrorWinsAndCancelsRemainingChunks) {
  std::atomic<int> executed{0};
  ParallelOptions options;
  options.num_threads = 4;
  const Status status = ParallelFor(
      ExecutionContext::Unlimited(), "test", 200,
      [&](size_t /*begin*/, size_t /*end*/, size_t /*chunk*/) -> Status {
        executed.fetch_add(1, std::memory_order_relaxed);
        return Status::InvalidArgument("boom");
      },
      options);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("boom"), std::string::npos);
  // Every lane fails its first chunk and the stop flag blocks further
  // claims, so at most one chunk per lane ever runs.
  EXPECT_LE(executed.load(), 4);
}

TEST(ParallelForTest, NestedRegionsRunSerially) {
  std::atomic<int> in_region{0};
  std::atomic<int> nested_threads{-1};
  ParallelOptions options;
  options.num_threads = 4;
  const Status status = ParallelFor(
      ExecutionContext::Unlimited(), "outer", 64,
      [&](size_t /*begin*/, size_t /*end*/, size_t /*chunk*/) -> Status {
        in_region.fetch_add(InParallelRegion() ? 1 : 0,
                            std::memory_order_relaxed);
        nested_threads.store(EffectiveThreadCount(8),
                             std::memory_order_relaxed);
        return Status::OK();
      },
      options);
  ASSERT_TRUE(status.ok());
  EXPECT_GT(in_region.load(), 0);        // the parallel path was taken
  EXPECT_EQ(nested_threads.load(), 1);   // and nesting serialises
}

TEST(ParallelForSeededTest, ChunkStreamsIgnoreThreadCount) {
  const size_t n = 500;
  const uint64_t seed = 4242;
  std::vector<std::vector<uint64_t>> draws_by_threads;
  for (int threads : {1, 2, 8}) {
    const ChunkPlan plan = PlanChunks(n);
    std::vector<uint64_t> draws(plan.num_chunks, 0);
    ParallelOptions options;
    options.num_threads = threads;
    const Status status = ParallelForSeeded(
        ExecutionContext::Unlimited(), "test", n, seed,
        [&](size_t /*begin*/, size_t /*end*/, size_t chunk,
            Rng& rng) -> Status {
          draws[chunk] = rng.NextUint64();
          return Status::OK();
        },
        options);
    ASSERT_TRUE(status.ok()) << status.ToString();
    draws_by_threads.push_back(std::move(draws));
  }
  EXPECT_EQ(draws_by_threads[0], draws_by_threads[1]);
  EXPECT_EQ(draws_by_threads[0], draws_by_threads[2]);
}

// ---------- kNN determinism ----------

Matrix RandomPoints(size_t n, size_t dims, uint64_t seed) {
  Rng rng(seed);
  Matrix points(n, dims);
  for (size_t i = 0; i < n; ++i) {
    for (size_t d = 0; d < dims; ++d) points(i, d) = rng.NextDouble();
  }
  return points;
}

TEST(KdTreeParallelTest, ParallelBuildAnswersMatchSerialBuild) {
  const Matrix points = RandomPoints(2000, 6, 17);
  const KdTree serial(points, 1);
  const KdTree parallel(points, 4);
  Rng rng(18);
  for (int q = 0; q < 50; ++q) {
    std::vector<double> query(6);
    for (double& v : query) v = rng.NextDouble();
    const auto a = serial.Query(query, 7);
    const auto b = parallel.Query(query, 7);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].index, b[i].index);
      EXPECT_EQ(a[i].distance, b[i].distance);
    }
  }
}

TEST(KdTreeParallelTest, QueryBatchMatchesSingleQueriesAtAnyThreadCount) {
  const Matrix points = RandomPoints(600, 5, 23);
  const Matrix queries = RandomPoints(40, 5, 24);
  const KdTree tree(points);
  for (int threads : {1, 8}) {
    ParallelOptions options;
    options.num_threads = threads;
    auto batch = tree.QueryBatch(queries, 5, ExecutionContext::Unlimited(),
                                 "kd_tree", options);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_EQ(batch.value().size(), queries.rows());
    for (size_t q = 0; q < queries.rows(); ++q) {
      std::vector<double> query(queries.Row(q), queries.Row(q) + 5);
      const auto single = tree.Query(query, 5);
      ASSERT_EQ(batch.value()[q].size(), single.size());
      for (size_t i = 0; i < single.size(); ++i) {
        EXPECT_EQ(batch.value()[q][i].index, single[i].index);
        EXPECT_EQ(batch.value()[q][i].distance, single[i].distance);
      }
    }
  }
}

TEST(KdTreeParallelTest, BruteForceAgreesWithKdTreeOnTies) {
  // Duplicate points force distance ties; both backends must resolve
  // them by (distance, index) and so return identical neighbour lists.
  Matrix points(8, 2);
  for (size_t i = 0; i < 8; ++i) {
    points(i, 0) = static_cast<double>(i % 2);
    points(i, 1) = 0.0;
  }
  const KdTree tree(points);
  const BruteForceKnn brute(points);
  const std::vector<double> query = {0.5, 0.0};
  const auto a = tree.Query(query, 4);
  const auto b = brute.Query(query, 4);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, b[i].index);
    EXPECT_EQ(a[i].distance, b[i].distance);
  }
}

// ---------- end-to-end determinism ----------

TransferScenario MakeScenario(const std::string& name, size_t n,
                              uint64_t seed) {
  FeatureSpaceGenerator generator({4, 40, seed});
  FeatureDomainSpec source;
  source.num_instances = n;
  source.match_fraction = 0.30;
  source.ambiguous_fraction = 0.05;
  source.seed = seed + 1;
  FeatureDomainSpec target = source;
  target.mode_shift = -0.05;
  target.seed = seed + 2;
  TransferScenario scenario;
  scenario.name = name;
  scenario.source_name = "source";
  scenario.target_name = "target";
  scenario.source = generator.Generate(source);
  scenario.target = generator.Generate(target);
  return scenario;
}

TEST(ParallelDeterminismTest, TransERReportBitIdenticalAcrossThreadCounts) {
  const TransferScenario scenario = MakeScenario("A -> B", 240, 7);
  const FeatureMatrix target = scenario.target.WithoutLabels();
  const auto suite = DefaultClassifierSuite();

  std::vector<std::vector<int>> predictions;
  std::vector<TransERReport> reports;
  for (int threads : {1, 2, 8}) {
    TransferRunOptions run_options;
    run_options.seed = 91;
    run_options.num_threads = threads;
    TransER transer;
    TransERReport report;
    auto predicted = transer.RunWithReport(scenario.source, target,
                                           suite[1].make, run_options,
                                           &report);
    ASSERT_TRUE(predicted.ok()) << predicted.status().ToString();
    predictions.push_back(std::move(predicted).value());
    reports.push_back(std::move(report));
  }
  for (size_t i = 1; i < predictions.size(); ++i) {
    EXPECT_EQ(predictions[0], predictions[i]);
    EXPECT_EQ(reports[0].source_instances, reports[i].source_instances);
    EXPECT_EQ(reports[0].selected_instances, reports[i].selected_instances);
    EXPECT_EQ(reports[0].candidate_instances,
              reports[i].candidate_instances);
    EXPECT_EQ(reports[0].balanced_instances, reports[i].balanced_instances);
    EXPECT_EQ(reports[0].pseudo_matches, reports[i].pseudo_matches);
    EXPECT_EQ(reports[0].tcl_trained, reports[i].tcl_trained);
    EXPECT_EQ(reports[0].diagnostics.events.size(),
              reports[i].diagnostics.events.size());
  }
}

std::string TempJournalPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + name + ".ckpt";
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  return path;
}

/// The journal's cells in file order with every runtime_seconds (the
/// only wall-clock — i.e. nondeterministic — field) zeroed, re-encoded.
std::vector<std::vector<uint8_t>> NormalisedJournal(const std::string& path) {
  std::vector<std::vector<uint8_t>> cells;
  auto checkpoint = SweepCheckpoint::Open(path);
  EXPECT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
  if (!checkpoint.ok()) return cells;
  for (SweepCellRecord record : checkpoint.value().records()) {
    record.runtime_seconds = 0.0;
    cells.push_back(EncodeSweepCellRecord(record));
  }
  return cells;
}

TEST(ParallelDeterminismTest, SweepJournalsIdenticalAcrossThreadCounts) {
  std::vector<TransferScenario> scenarios;
  scenarios.push_back(MakeScenario("A -> B", 150, 3));
  scenarios.push_back(MakeScenario("B -> A", 150, 5));
  std::vector<std::unique_ptr<TransferMethod>> methods;
  methods.push_back(std::make_unique<TransER>());
  methods.push_back(std::make_unique<NaiveTransfer>());
  const auto suite = DefaultClassifierSuite();

  std::vector<std::vector<std::vector<uint8_t>>> journals;
  std::vector<std::vector<MethodScenarioResult>> all_results;
  for (int threads : {1, 2, 8}) {
    const std::string path = TempJournalPath(
        "parallel_sweep_t" + std::to_string(threads));
    SweepOptions options;
    options.checkpoint_path = path;
    options.base_options.seed = 12033;
    options.base_options.num_threads = threads;
    auto results = RunCheckpointedSweep(methods, scenarios, suite, options);
    ASSERT_TRUE(results.ok()) << results.status().ToString();
    all_results.push_back(std::move(results).value());
    journals.push_back(NormalisedJournal(path));
  }

  // Journals are byte-identical once the wall-clock field is normalised:
  // same cells, same quality bits, same canonical order.
  EXPECT_FALSE(journals[0].empty());
  EXPECT_EQ(journals[0], journals[1]);
  EXPECT_EQ(journals[0], journals[2]);

  for (size_t v = 1; v < all_results.size(); ++v) {
    ASSERT_EQ(all_results[0].size(), all_results[v].size());
    for (size_t i = 0; i < all_results[0].size(); ++i) {
      EXPECT_EQ(all_results[0][i].method, all_results[v][i].method);
      EXPECT_EQ(all_results[0][i].scenario, all_results[v][i].scenario);
      EXPECT_EQ(all_results[0][i].completed_runs,
                all_results[v][i].completed_runs);
      ASSERT_EQ(all_results[0][i].per_classifier.size(),
                all_results[v][i].per_classifier.size());
      for (size_t j = 0; j < all_results[0][i].per_classifier.size(); ++j) {
        EXPECT_EQ(all_results[0][i].per_classifier[j].f_star,
                  all_results[v][i].per_classifier[j].f_star);
        EXPECT_EQ(all_results[0][i].per_classifier[j].precision,
                  all_results[v][i].per_classifier[j].precision);
      }
    }
  }
}

TEST(ParallelDeterminismTest, SerialResumeCompletesParallelJournal) {
  // A journal begun by a parallel sweep must be resumable by a serial
  // one (and vice versa): cells are keyed and seeded identically.
  std::vector<TransferScenario> scenarios;
  scenarios.push_back(MakeScenario("A -> B", 120, 11));
  std::vector<std::unique_ptr<TransferMethod>> methods;
  methods.push_back(std::make_unique<NaiveTransfer>());
  const auto suite = DefaultClassifierSuite();
  const std::string path = TempJournalPath("parallel_then_serial");

  SweepOptions options;
  options.checkpoint_path = path;
  options.base_options.seed = 12033;
  options.base_options.num_threads = 8;
  auto first = RunCheckpointedSweep(methods, scenarios, suite, options);
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  options.base_options.num_threads = 1;
  auto second = RunCheckpointedSweep(methods, scenarios, suite, options);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_EQ(first.value().size(), second.value().size());
  for (size_t i = 0; i < first.value().size(); ++i) {
    EXPECT_EQ(first.value()[i].quality.f_star.mean,
              second.value()[i].quality.f_star.mean);
    // The resumed sweep reused every journaled cell instead of re-running.
    EXPECT_EQ(first.value()[i].completed_runs,
              second.value()[i].completed_runs);
  }
}

}  // namespace
}  // namespace transer
