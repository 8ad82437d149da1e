// Tests for the serving core: bit-identical answers vs a cold
// TransER::Run, the degradation ladder (full resolve -> classify-only
// -> reject) under time and memory pressure, admission-control
// shedding, drain semantics, malformed-frame handling, and hot model
// add via the refresh path. Every rejection must carry a structured
// DegradationKind event — the daemon never aborts and never returns
// partial results.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/transer.h"
#include "data/feature_space_generator.h"
#include "ml/logistic_regression.h"
#include "ml/model_store.h"
#include "serve/request_codec.h"
#include "serve/server_core.h"

namespace transer {
namespace serve {
namespace {

namespace fs = std::filesystem;

std::string MakeModelDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/serve_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

struct TransferPair {
  FeatureMatrix source;
  FeatureMatrix target;
};

TransferPair MakePair(uint64_t seed) {
  FeatureSpaceGenerator generator({4, 40, seed});
  FeatureDomainSpec source;
  source.num_instances = 400;
  source.match_fraction = 0.3;
  source.seed = seed + 1;
  FeatureDomainSpec target = source;
  target.mode_shift = -0.04;
  target.seed = seed + 2;
  return {generator.Generate(source), generator.Generate(target)};
}

ClassifierFactory LrFactory() {
  return []() -> std::unique_ptr<Classifier> {
    return std::make_unique<LogisticRegression>();
  };
}

/// Cold TransER run that leaves a complete snapshot (with C^V and the
/// target-domain profile) in `dir`, returning its predictions.
std::vector<int> ColdRunWithSnapshot(const TransferPair& pair,
                                     const std::string& dir,
                                     const std::string& file) {
  TransER transer;
  TransferRunOptions options;
  options.seed = 7;
  options.model_snapshot_path = dir + "/" + file;
  auto cold = transer.Run(pair.source, pair.target.WithoutLabels(),
                          LrFactory(), options);
  EXPECT_TRUE(cold.ok()) << cold.status().ToString();
  return cold.ok() ? cold.value() : std::vector<int>{};
}

Request MakeDataRequest(const TransferPair& pair, RequestOp op) {
  Request request;
  request.request_id = 1;
  request.op = op;
  request.feature_names = pair.target.feature_names();
  request.rows = pair.target.size();
  request.features.reserve(pair.target.size() *
                           pair.target.num_features());
  for (size_t i = 0; i < pair.target.size(); ++i) {
    const auto row = pair.target.Row(i);
    request.features.insert(request.features.end(), row.begin(), row.end());
  }
  return request;
}

ServerOptions MakeOptions(const std::string& dir) {
  ServerOptions options;
  options.repository.directory = dir;
  // Tests exercise hot-add immediately, so disable both the refresh
  // interval and the debounce floor that production keeps.
  options.repository.refresh_interval_seconds = 0.0;
  options.repository.min_rescan_interval_seconds = 0.0;
  return options;
}

bool HasEventKind(const Response& response, DegradationKind kind) {
  for (const auto& event : response.events) {
    if (event.kind == kind) return true;
  }
  return false;
}

TEST(ServerCoreTest, ResolveIsBitIdenticalToColdRun) {
  const TransferPair pair = MakePair(101);
  const std::string dir = MakeModelDir("bit_identity");
  const std::vector<int> cold = ColdRunWithSnapshot(pair, dir, "snap.tera");
  ASSERT_EQ(cold.size(), pair.target.size());

  ServerCore server(MakeOptions(dir));
  const RefreshReport report = server.Start();
  ASSERT_EQ(report.loaded, 1u);
  ASSERT_TRUE(server.ready());

  const Response response = server.Handle(MakeDataRequest(pair,
                                                          RequestOp::kResolve));
  ASSERT_EQ(response.outcome, ServeOutcome::kOk) << response.error;
  EXPECT_EQ(response.model_id, "snap.tera");
  EXPECT_FALSE(response.selected_by_probe);
  // The acceptance bar: serving the saved artifact reproduces the
  // predictions of the run that wrote it, bit for bit.
  EXPECT_EQ(response.labels, cold);
  ASSERT_EQ(response.confidences.size(), cold.size());
  for (size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(response.confidences[i] >= 0.5 ? 1 : 0, cold[i]);
  }
}

TEST(ServerCoreTest, ClassifyOpServesLabelsOnlyAtFullOutcome) {
  const TransferPair pair = MakePair(102);
  const std::string dir = MakeModelDir("classify_op");
  const std::vector<int> cold = ColdRunWithSnapshot(pair, dir, "snap.tera");

  ServerCore server(MakeOptions(dir));
  server.Start();
  const Response response = server.Handle(
      MakeDataRequest(pair, RequestOp::kClassify));
  // kClassify enters the ladder at rung 1 by request, so the answer is
  // at the requested level: kOk, not kDegraded.
  ASSERT_EQ(response.outcome, ServeOutcome::kOk) << response.error;
  EXPECT_EQ(response.labels, cold);
  EXPECT_TRUE(response.confidences.empty());
}

TEST(ServerCoreTest, ProbeServesForeignSchemaFromSameDomain) {
  const TransferPair pair = MakePair(103);
  const std::string dir = MakeModelDir("probe");
  ColdRunWithSnapshot(pair, dir, "snap.tera");

  ServerCore server(MakeOptions(dir));
  server.Start();
  Request request = MakeDataRequest(pair, RequestOp::kResolve);
  for (size_t i = 0; i < request.feature_names.size(); ++i) {
    request.feature_names[i] = "renamed_" + std::to_string(i);
  }
  const Response response = server.Handle(request);
  // Same rows, new names: the fingerprint misses but the request
  // centroid equals the stored profile, so the probe matches at ~1.
  ASSERT_EQ(response.outcome, ServeOutcome::kOk) << response.error;
  EXPECT_TRUE(response.selected_by_probe);
  EXPECT_GT(response.probe_similarity, 0.99);
}

TEST(ServerCoreTest, TightDeadlineHeadroomDegradesToClassifyOnly) {
  const TransferPair pair = MakePair(104);
  const std::string dir = MakeModelDir("headroom");
  const std::vector<int> cold = ColdRunWithSnapshot(pair, dir, "snap.tera");

  ServerOptions options = MakeOptions(dir);
  // No deadline can afford rung 0's refresh + probe overhead.
  options.min_full_resolve_ms = 1e9;
  ServerCore server(options);
  server.Start();
  const Response response = server.Handle(
      MakeDataRequest(pair, RequestOp::kResolve));
  ASSERT_EQ(response.outcome, ServeOutcome::kDegraded) << response.error;
  EXPECT_TRUE(HasEventKind(response, DegradationKind::kServeClassifyOnly));
  EXPECT_EQ(response.labels, cold);
  EXPECT_TRUE(response.confidences.empty());
  EXPECT_EQ(server.Stats().served_degraded, 1u);
}

TEST(ServerCoreTest, MemoryPressureDegradesThenRejects) {
  const TransferPair pair = MakePair(105);
  const std::string dir = MakeModelDir("memory");
  const std::vector<int> cold = ColdRunWithSnapshot(pair, dir, "snap.tera");
  const uint64_t rows = pair.target.size();
  const size_t cols = pair.target.num_features();
  const size_t resolve_bytes =
      rows * (sizeof(int) + sizeof(double)) + cols * sizeof(double);
  const size_t classify_bytes = rows * sizeof(int);
  ASSERT_LT(classify_bytes, resolve_bytes);

  // Budget between the two rungs: resolve degrades to classify-only.
  ServerOptions degrade = MakeOptions(dir);
  degrade.memory_limit_bytes = (classify_bytes + resolve_bytes) / 2;
  ServerCore degrading_server(degrade);
  degrading_server.Start();
  const Response degraded = degrading_server.Handle(
      MakeDataRequest(pair, RequestOp::kResolve));
  ASSERT_EQ(degraded.outcome, ServeOutcome::kDegraded) << degraded.error;
  EXPECT_TRUE(HasEventKind(degraded, DegradationKind::kServeClassifyOnly));
  EXPECT_EQ(degraded.labels, cold);
  EXPECT_TRUE(degraded.confidences.empty());

  // Budget below even the label buffer: structured rejection (ME).
  ServerOptions reject = MakeOptions(dir);
  reject.memory_limit_bytes = classify_bytes / 2;
  ServerCore rejecting_server(reject);
  rejecting_server.Start();
  const Response rejected = rejecting_server.Handle(
      MakeDataRequest(pair, RequestOp::kResolve));
  ASSERT_EQ(rejected.outcome, ServeOutcome::kRejected);
  EXPECT_TRUE(
      HasEventKind(rejected, DegradationKind::kServeRequestRejected));
  EXPECT_TRUE(rejected.labels.empty());
  EXPECT_FALSE(rejected.error.empty());
  EXPECT_EQ(rejecting_server.Stats().rejected, 1u);
}

TEST(ServerCoreTest, QueueFullShedsImmediately) {
  const TransferPair pair = MakePair(106);
  const std::string dir = MakeModelDir("queue_full");
  ColdRunWithSnapshot(pair, dir, "snap.tera");

  // Zero slots and zero queue: every data request is shed at admission,
  // without any concurrency needed to fill the queue.
  ServerOptions options = MakeOptions(dir);
  options.max_concurrent_requests = 0;
  options.queue_capacity = 0;
  ServerCore server(options);
  server.Start();
  const Response response = server.Handle(
      MakeDataRequest(pair, RequestOp::kClassify));
  ASSERT_EQ(response.outcome, ServeOutcome::kRejected);
  EXPECT_TRUE(HasEventKind(response, DegradationKind::kServeRequestShed));
  EXPECT_NE(response.error.find("queue full"), std::string::npos);
  EXPECT_EQ(server.Stats().shed, 1u);
  // Control traffic is never shed.
  EXPECT_EQ(server.Handle(Request{}).outcome, ServeOutcome::kOk);
}

TEST(ServerCoreTest, DeadlineExpiresWhileQueued) {
  const TransferPair pair = MakePair(107);
  const std::string dir = MakeModelDir("queue_deadline");
  ColdRunWithSnapshot(pair, dir, "snap.tera");

  // Zero slots but a queue: the request waits its whole (1 ms) deadline
  // for a slot that never frees, then leaves with a structured TE.
  ServerOptions options = MakeOptions(dir);
  options.max_concurrent_requests = 0;
  options.queue_capacity = 4;
  ServerCore server(options);
  server.Start();
  Request request = MakeDataRequest(pair, RequestOp::kClassify);
  request.deadline_ms = 1;
  const Response response = server.Handle(request);
  ASSERT_EQ(response.outcome, ServeOutcome::kRejected);
  EXPECT_TRUE(
      HasEventKind(response, DegradationKind::kServeRequestRejected));
  EXPECT_NE(response.error.find("(TE)"), std::string::npos);
  EXPECT_EQ(server.Stats().rejected, 1u);
}

TEST(ServerCoreTest, DrainShedsNewWorkAndCompletes) {
  const TransferPair pair = MakePair(108);
  const std::string dir = MakeModelDir("drain");
  ColdRunWithSnapshot(pair, dir, "snap.tera");

  ServerCore server(MakeOptions(dir));
  server.Start();
  ASSERT_EQ(server.Handle(MakeDataRequest(pair, RequestOp::kResolve)).outcome,
            ServeOutcome::kOk);

  server.BeginDrain();
  EXPECT_TRUE(server.draining());
  const Response shed = server.Handle(
      MakeDataRequest(pair, RequestOp::kClassify));
  ASSERT_EQ(shed.outcome, ServeOutcome::kRejected);
  EXPECT_TRUE(HasEventKind(shed, DegradationKind::kServeRequestShed));
  EXPECT_NE(shed.error.find("draining"), std::string::npos);

  // Control traffic still answers during the drain (health checks).
  Request ping;
  ping.op = RequestOp::kPing;
  const Response pong = server.Handle(ping);
  EXPECT_EQ(pong.outcome, ServeOutcome::kOk);
  EXPECT_NE(pong.stats_text.find("\"draining\":true"), std::string::npos);

  // Nothing in flight: the drain completes immediately.
  server.AwaitDrain();
  const StatsSnapshot stats = server.Stats();
  EXPECT_TRUE(stats.draining);
  EXPECT_EQ(stats.active_requests, 0u);
  EXPECT_EQ(stats.shed, 1u);
}

TEST(ServerCoreTest, EmptyRepositoryRejectsDataServesControl) {
  const std::string dir = MakeModelDir("empty");
  ServerCore server(MakeOptions(dir));
  server.Start();
  EXPECT_FALSE(server.ready());

  Request ping;
  ping.op = RequestOp::kPing;
  const Response pong = server.Handle(ping);
  EXPECT_EQ(pong.outcome, ServeOutcome::kOk);
  EXPECT_NE(pong.stats_text.find("\"ready\":false"), std::string::npos);

  const TransferPair pair = MakePair(109);
  const Response response = server.Handle(
      MakeDataRequest(pair, RequestOp::kClassify));
  ASSERT_EQ(response.outcome, ServeOutcome::kRejected);
  EXPECT_TRUE(
      HasEventKind(response, DegradationKind::kServeRequestRejected));
  EXPECT_NE(response.error.find("no artifact"), std::string::npos);
}

TEST(ServerCoreTest, HotAddedModelIsPickedUpByFullResolve) {
  const TransferPair pair = MakePair(110);
  const std::string dir = MakeModelDir("hot_add");
  ServerCore server(MakeOptions(dir));  // refresh interval 0
  server.Start();
  ASSERT_EQ(server.Handle(MakeDataRequest(pair, RequestOp::kResolve)).outcome,
            ServeOutcome::kRejected);

  // Drop an artifact into the directory mid-flight: the next full
  // resolve's freshness check (MaybeRefresh) indexes it.
  const std::vector<int> cold = ColdRunWithSnapshot(pair, dir, "late.tera");
  const Response response = server.Handle(
      MakeDataRequest(pair, RequestOp::kResolve));
  ASSERT_EQ(response.outcome, ServeOutcome::kOk) << response.error;
  EXPECT_EQ(response.model_id, "late.tera");
  EXPECT_EQ(response.labels, cold);
  EXPECT_TRUE(server.ready());
}

TEST(ServerCoreTest, HandleFrameRoundTripsAndSurvivesCorruption) {
  const TransferPair pair = MakePair(111);
  const std::string dir = MakeModelDir("frames");
  const std::vector<int> cold = ColdRunWithSnapshot(pair, dir, "snap.tera");

  ServerCore server(MakeOptions(dir));
  server.Start();
  const CodecLimits limits;

  const std::vector<uint8_t> good = EncodeRequest(
      MakeDataRequest(pair, RequestOp::kResolve));
  auto reply = DecodeResponse(server.HandleFrame(good), limits);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply.value().outcome, ServeOutcome::kOk);
  EXPECT_EQ(reply.value().labels, cold);

  // A flipped payload byte: the server answers with a well-formed
  // rejection frame (request_id 0) and ticks the malformed counter.
  std::vector<uint8_t> corrupt = good;
  corrupt[kFrameOverheadBytes - 3] ^= 0x40;
  auto rejected = DecodeResponse(server.HandleFrame(corrupt), limits);
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  EXPECT_EQ(rejected.value().outcome, ServeOutcome::kRejected);
  EXPECT_EQ(rejected.value().request_id, 0u);
  EXPECT_FALSE(rejected.value().error.empty());
  EXPECT_EQ(server.Stats().malformed, 1u);

  // The corruption cost one request; the next good frame still serves.
  auto again = DecodeResponse(server.HandleFrame(good), limits);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().outcome, ServeOutcome::kOk);
}

TEST(ServerCoreTest, StatsReportCountersAndRepositoryState) {
  const TransferPair pair = MakePair(112);
  const std::string dir = MakeModelDir("stats");
  ColdRunWithSnapshot(pair, dir, "snap.tera");

  ServerCore server(MakeOptions(dir));
  server.Start();
  server.Handle(MakeDataRequest(pair, RequestOp::kResolve));
  Request stats_request;
  stats_request.op = RequestOp::kStats;
  const Response response = server.Handle(stats_request);
  ASSERT_EQ(response.outcome, ServeOutcome::kOk);
  EXPECT_NE(response.stats_text.find("\"served_full\":1"),
            std::string::npos);
  EXPECT_NE(response.stats_text.find("\"models\":1"), std::string::npos);
  EXPECT_NE(response.stats_text.find("\"ready\":true"), std::string::npos);

  const StatsSnapshot snapshot = server.Stats();
  EXPECT_EQ(snapshot.received, 2u);
  EXPECT_EQ(snapshot.served_full, 2u);  // resolve + this stats request
  EXPECT_EQ(snapshot.models, 1u);
  EXPECT_GE(snapshot.latency_samples, 1u);
  EXPECT_GE(snapshot.p99_ms, snapshot.p50_ms);
}

}  // namespace
}  // namespace serve
}  // namespace transer
