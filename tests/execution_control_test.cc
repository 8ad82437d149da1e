// Tests for the unified execution-control layer: ExecutionContext
// deadline / cancellation / memory-budget semantics, budget enforcement
// across every registered TransferMethod, cooperative cancellation of
// the TransER phases, and the blocking / kNN budget hooks.

#include <atomic>
#include <cctype>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/minhash_lsh.h"
#include "blocking/sorted_neighbourhood.h"
#include "blocking/standard_blocking.h"
#include "core/experiment.h"
#include "core/transer.h"
#include "data/feature_space_generator.h"
#include "knn/brute_force.h"
#include "knn/kd_tree.h"
#include "ml/logistic_regression.h"
#include "util/execution_context.h"
#include "util/parallel.h"
#include "util/random.h"

namespace transer {
namespace {

ClassifierFactory MakeLrFactory() {
  return []() -> std::unique_ptr<Classifier> {
    return std::make_unique<LogisticRegression>();
  };
}

struct DomainPair {
  FeatureMatrix source;
  FeatureMatrix target;
};

DomainPair MakePair(size_t n = 300, uint64_t seed = 77) {
  FeatureSpaceGenerator generator({4, 40, seed});
  FeatureDomainSpec source;
  source.num_instances = n;
  source.match_fraction = 0.30;
  source.ambiguous_fraction = 0.05;
  source.seed = seed + 1;
  FeatureDomainSpec target = source;
  target.mode_shift = -0.05;
  target.seed = seed + 2;
  return {generator.Generate(source), generator.Generate(target)};
}

// ---------- ExecutionContext unit behaviour ----------

TEST(ExecutionContextTest, UnlimitedNeverInterrupts) {
  const ExecutionContext& context = ExecutionContext::Unlimited();
  EXPECT_FALSE(context.Expired());
  EXPECT_FALSE(context.Cancelled());
  EXPECT_FALSE(context.Interrupted());
  EXPECT_TRUE(context.Check("scope").ok());
  EXPECT_TRUE(context.TryReserve("scope", 1u << 30).ok());
  context.Release(1u << 30);
}

TEST(ExecutionContextTest, NearZeroDeadlineExpiresOnFirstPoll) {
  // The first Expired() poll always consults the clock (the amortisation
  // counter starts at 0), so a ~0 deadline is caught immediately rather
  // than after a whole stride of polls.
  ExecutionContext context({/*time=*/1e-9, /*memory=*/0});
  EXPECT_TRUE(context.Expired());
  EXPECT_TRUE(context.Interrupted());
  const Status status = context.Check("unit");
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("(TE)"), std::string::npos);
  // Expiry latches: once seen, every later poll is expired too.
  EXPECT_TRUE(context.Expired());
}

TEST(ExecutionContextTest, GenerousDeadlineStaysLive) {
  ExecutionContext context({/*time=*/3600.0, /*memory=*/0});
  for (uint32_t i = 0; i < 4 * ExecutionContext::kDeadlineCheckStride; ++i) {
    EXPECT_FALSE(context.Expired());
  }
  EXPECT_TRUE(context.Check("unit").ok());
}

TEST(ExecutionContextTest, CancellationTokenInterrupts) {
  CancellationToken token;
  ExecutionContext context({}, &token);
  EXPECT_FALSE(context.Interrupted());
  token.Cancel();
  EXPECT_TRUE(context.Cancelled());
  EXPECT_TRUE(context.Interrupted());
  const Status status = context.Check("unit");
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("cancelled"), std::string::npos);
}

TEST(ExecutionContextTest, CheckRecordsEachOutcomeOnce) {
  CancellationToken token;
  token.Cancel();
  ExecutionContext context({}, &token);
  RunDiagnostics diagnostics;
  EXPECT_FALSE(context.Check("unit", &diagnostics).ok());
  EXPECT_FALSE(context.Check("unit", &diagnostics).ok());
  EXPECT_FALSE(context.Check("unit", &diagnostics).ok());
  EXPECT_EQ(diagnostics.CountKind(DegradationKind::kRunCancelled), 1u);
}

TEST(ExecutionContextTest, MemoryBudgetAccountsAndPeaks) {
  ExecutionContext context({/*time=*/0.0, /*memory=*/1000});
  EXPECT_TRUE(context.TryReserve("unit", 600).ok());
  EXPECT_EQ(context.reserved_bytes(), 600u);

  RunDiagnostics diagnostics;
  const Status status = context.TryReserve("unit", 500, &diagnostics);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("(ME)"), std::string::npos);
  EXPECT_EQ(diagnostics.CountKind(DegradationKind::kMemoryLimitExceeded), 1u);
  EXPECT_EQ(context.reserved_bytes(), 600u);  // failed reserve holds nothing

  context.Release(600);
  EXPECT_EQ(context.reserved_bytes(), 0u);
  EXPECT_TRUE(context.TryReserve("unit", 900).ok());
  context.Release(900);
  EXPECT_EQ(context.peak_reserved_bytes(), 900u);
}

TEST(ExecutionContextTest, ScopedReservationReleasesOnDestruction) {
  ExecutionContext context({/*time=*/0.0, /*memory=*/1000});
  {
    ScopedReservation reservation;
    ASSERT_TRUE(reservation.Acquire(context, "unit", 400).ok());
    ASSERT_TRUE(reservation.Grow(300).ok());
    EXPECT_EQ(context.reserved_bytes(), 700u);
    EXPECT_FALSE(reservation.Grow(400).ok());  // 1100 > 1000
    EXPECT_EQ(context.reserved_bytes(), 700u);

    ScopedReservation moved = std::move(reservation);
    EXPECT_EQ(moved.bytes(), 700u);
    EXPECT_EQ(context.reserved_bytes(), 700u);
  }
  EXPECT_EQ(context.reserved_bytes(), 0u);
  EXPECT_EQ(context.peak_reserved_bytes(), 700u);
}

TEST(ExecutionContextTest, GrowBeforeAcquireFails) {
  ScopedReservation reservation;
  EXPECT_FALSE(reservation.Grow(10).ok());
}

TEST(ExecutionContextTest, ProgressThrottlesSubPercentUpdates) {
  std::vector<ProgressEvent> events;
  ExecutionContext context(
      {}, nullptr, [&](const ProgressEvent& event) { events.push_back(event); });
  context.BeginStage("sel");
  context.ReportProgress(0.001);  // < 1% past the stage start: suppressed
  context.ReportProgress(0.5);
  context.ReportProgress(0.502);  // < 1% past the last emission: suppressed
  context.ReportProgress(1.0);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].stage, "sel");
  EXPECT_DOUBLE_EQ(events[0].fraction, 0.0);
  EXPECT_DOUBLE_EQ(events[1].fraction, 0.5);
  EXPECT_DOUBLE_EQ(events[2].fraction, 1.0);
}

// ---------- budget enforcement across every registered method ----------

class MethodBudgetTest : public ::testing::TestWithParam<size_t> {};

TEST_P(MethodBudgetTest, TightDeadlineProducesTe) {
  const auto methods = DefaultMethodLineup();
  const auto& method = *methods[GetParam()];
  const DomainPair pair = MakePair();
  TransferRunOptions run_options;
  run_options.time_limit_seconds = 1e-9;
  RunDiagnostics diagnostics;
  run_options.diagnostics = &diagnostics;
  auto predicted = method.Run(pair.source, pair.target.WithoutLabels(),
                              MakeLrFactory(), run_options);
  ASSERT_FALSE(predicted.ok()) << method.name();
  EXPECT_NE(predicted.status().message().find("(TE)"), std::string::npos)
      << method.name() << ": " << predicted.status().ToString();
  EXPECT_TRUE(diagnostics.HasKind(DegradationKind::kTimeLimitExceeded))
      << method.name();
}

TEST_P(MethodBudgetTest, TinyMemoryBudgetProducesMe) {
  const auto methods = DefaultMethodLineup();
  const auto& method = *methods[GetParam()];
  const DomainPair pair = MakePair();
  TransferRunOptions run_options;
  run_options.memory_limit_bytes = 1024;  // far below the working set
  RunDiagnostics diagnostics;
  run_options.diagnostics = &diagnostics;
  auto predicted = method.Run(pair.source, pair.target.WithoutLabels(),
                              MakeLrFactory(), run_options);
  ASSERT_FALSE(predicted.ok()) << method.name();
  EXPECT_NE(predicted.status().message().find("(ME)"), std::string::npos)
      << method.name() << ": " << predicted.status().ToString();
  EXPECT_TRUE(diagnostics.HasKind(DegradationKind::kMemoryLimitExceeded))
      << method.name();
}

TEST_P(MethodBudgetTest, PreCancelledContextStopsBeforeWork) {
  const auto methods = DefaultMethodLineup();
  const auto& method = *methods[GetParam()];
  const DomainPair pair = MakePair();
  CancellationToken token;
  token.Cancel();
  ExecutionContext context({}, &token);
  TransferRunOptions run_options;
  run_options.context = &context;
  RunDiagnostics diagnostics;
  run_options.diagnostics = &diagnostics;
  auto predicted = method.Run(pair.source, pair.target.WithoutLabels(),
                              MakeLrFactory(), run_options);
  ASSERT_FALSE(predicted.ok()) << method.name();
  EXPECT_NE(predicted.status().message().find("cancelled"), std::string::npos)
      << method.name() << ": " << predicted.status().ToString();
  EXPECT_EQ(diagnostics.CountKind(DegradationKind::kRunCancelled), 1u)
      << method.name();
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, MethodBudgetTest, ::testing::Range<size_t>(0, 7),
    [](const ::testing::TestParamInfo<size_t>& info) {
      std::string name = DefaultMethodLineup()[info.param]->name();
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// ---------- cooperative cancellation mid-phase ----------

// Cancels the run when the heartbeat enters `stage` and verifies the run
// stops with a cancellation status and exactly one kRunCancelled event —
// no partially-written diagnostics, whatever phase the cut lands in.
void CancelDuringStage(const std::string& stage) {
  const DomainPair pair = MakePair(/*n=*/500);
  CancellationToken token;
  ExecutionContext context({}, &token, [&](const ProgressEvent& event) {
    if (event.stage == stage) token.Cancel();
  });
  TransferRunOptions run_options;
  run_options.context = &context;
  TransER transer;
  TransERReport report;
  auto predicted =
      transer.RunWithReport(pair.source, pair.target.WithoutLabels(),
                            MakeLrFactory(), run_options, &report);
  ASSERT_FALSE(predicted.ok()) << "cancelling in " << stage;
  EXPECT_NE(predicted.status().message().find("cancelled"), std::string::npos)
      << predicted.status().ToString();
  // The budget outcome is recorded once, on the sink the caller handed in
  // via run_options; the local report stays consistent (no half event).
  RunDiagnostics merged = report.diagnostics;
  EXPECT_LE(merged.CountKind(DegradationKind::kRunCancelled), 1u);
  for (const DegradationEvent& event : merged.events) {
    EXPECT_FALSE(event.detail.empty());
  }
}

TEST(TransErCancellationTest, CancelDuringSel) { CancelDuringStage("sel"); }
TEST(TransErCancellationTest, CancelDuringGen) { CancelDuringStage("gen"); }
TEST(TransErCancellationTest, CancelDuringTcl) { CancelDuringStage("tcl"); }

TEST(TransErCancellationTest, CancellationReachesRunDiagnostics) {
  const DomainPair pair = MakePair(/*n=*/500);
  CancellationToken token;
  ExecutionContext context({}, &token, [&](const ProgressEvent& event) {
    if (event.stage == "gen") token.Cancel();
  });
  TransferRunOptions run_options;
  run_options.context = &context;
  RunDiagnostics diagnostics;
  run_options.diagnostics = &diagnostics;
  TransER transer;
  auto predicted = transer.Run(pair.source, pair.target.WithoutLabels(),
                               MakeLrFactory(), run_options);
  ASSERT_FALSE(predicted.ok());
  EXPECT_EQ(diagnostics.CountKind(DegradationKind::kRunCancelled), 1u);
}

// ---------- blocking under a budget ----------

LinkageProblem OneKeyProblem(size_t per_side) {
  Schema schema({{"k", "exact"}});
  LinkageProblem problem;
  problem.left = Dataset("l", schema);
  problem.right = Dataset("r", schema);
  for (size_t i = 0; i < per_side; ++i) {
    const int64_t entity = static_cast<int64_t>(i);
    problem.left.Add({"l" + std::to_string(i), entity, {"same"}});
    problem.right.Add({"r" + std::to_string(i), entity, {"same"}});
  }
  return problem;
}

TEST(BlockingBudgetTest, StandardBlockingReportsMe) {
  const LinkageProblem problem = OneKeyProblem(40);  // 1600 candidate pairs
  StandardBlocker blocker(StandardBlocker::AttributePrefixKey(0, 4));
  ExecutionContext context({/*time=*/0.0, /*memory=*/1024});
  RunDiagnostics diagnostics;
  auto pairs =
      blocker.Block(problem.left, problem.right, context, &diagnostics);
  ASSERT_FALSE(pairs.ok());
  EXPECT_NE(pairs.status().message().find("(ME)"), std::string::npos);
  EXPECT_TRUE(diagnostics.HasKind(DegradationKind::kMemoryLimitExceeded));
}

TEST(BlockingBudgetTest, StandardBlockingReportsTe) {
  const LinkageProblem problem = OneKeyProblem(10);
  StandardBlocker blocker(StandardBlocker::AttributePrefixKey(0, 4));
  ExecutionContext context({/*time=*/1e-9, /*memory=*/0});
  auto pairs = blocker.Block(problem.left, problem.right, context);
  ASSERT_FALSE(pairs.ok());
  EXPECT_NE(pairs.status().message().find("(TE)"), std::string::npos);
}

TEST(BlockingBudgetTest, SortedNeighbourhoodReportsTe) {
  const LinkageProblem problem = OneKeyProblem(10);
  SortedNeighbourhoodBlocker blocker(
      StandardBlocker::AttributePrefixKey(0, 4));
  ExecutionContext context({/*time=*/1e-9, /*memory=*/0});
  auto pairs = blocker.Block(problem.left, problem.right, context);
  ASSERT_FALSE(pairs.ok());
  EXPECT_NE(pairs.status().message().find("(TE)"), std::string::npos);
}

TEST(BlockingBudgetTest, MinHashLshReportsTe) {
  const LinkageProblem problem = OneKeyProblem(10);
  MinHashLshBlocker blocker;
  ExecutionContext context({/*time=*/1e-9, /*memory=*/0});
  auto pairs = blocker.Block(problem.left, problem.right, context);
  ASSERT_FALSE(pairs.ok());
  EXPECT_NE(pairs.status().message().find("(TE)"), std::string::npos);
}

TEST(BlockingBudgetTest, ContextVariantMatchesPlainBlocking) {
  const LinkageProblem problem = OneKeyProblem(10);
  StandardBlocker blocker(StandardBlocker::AttributePrefixKey(0, 4));
  const auto plain = blocker.Block(problem.left, problem.right);
  auto budgeted = blocker.Block(problem.left, problem.right,
                                ExecutionContext::Unlimited());
  ASSERT_TRUE(budgeted.ok());
  EXPECT_EQ(budgeted.value().size(), plain.size());
}

// ---------- kNN under a budget ----------

Matrix RandomPoints(size_t n, size_t dims, uint64_t seed) {
  Rng rng(seed);
  Matrix points(n, dims);
  for (size_t i = 0; i < n; ++i) {
    for (size_t d = 0; d < dims; ++d) points(i, d) = rng.NextDouble();
  }
  return points;
}

TEST(KnnBudgetTest, KdTreeCreateReportsMeAndReleasesOnDestruction) {
  const Matrix points = RandomPoints(200, 3, 5);
  ExecutionContext tiny({/*time=*/0.0, /*memory=*/512});
  auto failed = KdTree::Create(points, tiny);
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().message().find("(ME)"), std::string::npos);
  EXPECT_EQ(tiny.reserved_bytes(), 0u);

  ExecutionContext roomy({/*time=*/0.0, /*memory=*/1u << 20});
  {
    auto tree = KdTree::Create(points, roomy);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    const KdTree built = std::move(tree).value();
    EXPECT_GT(roomy.reserved_bytes(), 0u);
    auto neighbours = built.QueryBatch(Matrix(1, 3, 0.5), 3, roomy);
    ASSERT_TRUE(neighbours.ok());
    ASSERT_EQ(neighbours.value().size(), 1u);
    EXPECT_EQ(neighbours.value()[0].size(), 3u);
  }
  EXPECT_EQ(roomy.reserved_bytes(), 0u);  // the tree returned its budget
}

TEST(KnnBudgetTest, BruteForceCreateReportsMe) {
  const Matrix points = RandomPoints(200, 3, 6);
  ExecutionContext tiny({/*time=*/0.0, /*memory=*/512});
  auto failed = BruteForceKnn::Create(points, tiny);
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().message().find("(ME)"), std::string::npos);
  EXPECT_EQ(tiny.reserved_bytes(), 0u);
}

TEST(KnnBudgetTest, QueryHonoursExpiredContext) {
  const Matrix points = RandomPoints(50, 2, 7);
  for (KnnBackendKind kind : {KnnBackendKind::kKdTree,
                              KnnBackendKind::kBruteForce,
                              KnnBackendKind::kAnnGraph}) {
    SCOPED_TRACE(KnnBackendKindName(kind));
    KnnBackendOptions options;
    options.kind = kind;
    auto backend = CreateKnnBackend(points, options);
    ASSERT_TRUE(backend.ok()) << backend.status().ToString();
    ExecutionContext expired({/*time=*/1e-9, /*memory=*/0});
    ASSERT_TRUE(expired.Expired());  // ~0 deadline latches on first poll
    auto neighbours = backend.value()->QueryBatch(Matrix(1, 2, 0.5), 3,
                                                  expired);
    ASSERT_FALSE(neighbours.ok());
    EXPECT_NE(neighbours.status().message().find("(TE)"),
              std::string::npos);
  }
}

// ---------- execution control under the parallel runtime ----------

// A worker lane trips the shared cancellation token mid-region: the
// other lanes observe it at their next per-chunk poll, the region stops
// early, and the outcome is recorded exactly once (from the calling
// thread after the join — workers never touch diagnostics).
TEST(ParallelExecutionControlTest, CancellationFromWorkerStopsRegion) {
  CancellationToken token;
  ExecutionContext context({}, &token);
  RunDiagnostics diagnostics;
  std::atomic<size_t> executed{0};
  ParallelOptions options;
  options.num_threads = 4;
  options.diagnostics = &diagnostics;
  const size_t n = 5000;
  const ChunkPlan plan = PlanChunks(n);
  ASSERT_GT(plan.num_chunks, 8u);
  const Status status = ParallelFor(
      context, "region", n,
      [&](size_t /*begin*/, size_t /*end*/, size_t chunk) -> Status {
        executed.fetch_add(1, std::memory_order_relaxed);
        if (chunk == 0) token.Cancel();
        return Status::OK();
      },
      options);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("run cancelled"), std::string::npos)
      << status.ToString();
  // Lanes stop claiming chunks once the token fires: at most the chunks
  // already in flight complete, far short of the full plan.
  EXPECT_LT(executed.load(), plan.num_chunks);
  EXPECT_EQ(diagnostics.CountKind(DegradationKind::kRunCancelled), 1u);
}

// Concurrent lanes charging one shared memory budget: the reservation
// that exceeds the cap fails with the paper's 'ME' status, which wins
// the region as its first error and cancels the remaining chunks.
TEST(ParallelExecutionControlTest, MemoryExhaustionUnderParallelism) {
  ExecutionContext context({/*time=*/0.0, /*memory=*/1024});
  std::atomic<size_t> executed{0};
  ParallelOptions options;
  options.num_threads = 4;
  const size_t n = 5000;
  const ChunkPlan plan = PlanChunks(n);
  const Status status = ParallelFor(
      context, "region", n,
      [&](size_t /*begin*/, size_t /*end*/, size_t /*chunk*/) -> Status {
        executed.fetch_add(1, std::memory_order_relaxed);
        // Each chunk charges 256 bytes and never releases: the fifth
        // concurrent reservation breaches the 1 KiB cap.
        return context.TryReserve("region", 256);
      },
      options);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("(ME)"), std::string::npos)
      << status.ToString();
  EXPECT_LT(executed.load(), plan.num_chunks);
  // The accounting itself stayed consistent under concurrency: only the
  // successful reservations are held.
  EXPECT_LE(context.reserved_bytes(), 1024u);
}

}  // namespace
}  // namespace transer
