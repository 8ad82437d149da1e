#include "serve/server_core.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "knn/ann_graph.h"
#include "linalg/covariance.h"
#include "ml/classifier.h"
#include "ml/knn_classifier.h"
#include "util/string_util.h"

namespace transer {
namespace serve {

namespace {

/// Rows scored between deadline polls. One clock read per chunk keeps
/// the overhead negligible while bounding how far past its deadline a
/// request can run.
constexpr size_t kScoreChunkRows = 256;

/// Result-buffer bytes a request reserves against the server budget.
size_t ClassifyBytes(uint64_t rows) { return rows * sizeof(int); }
size_t ResolveBytes(uint64_t rows, size_t cols) {
  return rows * (sizeof(int) + sizeof(double)) + cols * sizeof(double);
}

DegradationEvent MakeEvent(DegradationKind kind, std::string detail,
                           double original = 0.0, double adjusted = 0.0) {
  DegradationEvent event;
  event.kind = kind;
  event.phase = "serve";
  event.detail = std::move(detail);
  event.original_value = original;
  event.adjusted_value = adjusted;
  return event;
}

}  // namespace

class ServerCore::Slot {
 public:
  explicit Slot(ServerCore* core) : core_(core) {}
  ~Slot() {
    if (core_ != nullptr) core_->ReleaseSlot();
  }
  Slot(const Slot&) = delete;
  Slot& operator=(const Slot&) = delete;

 private:
  ServerCore* core_;
};

ServerCore::ServerCore(ServerOptions options, SleepFn sleep)
    : options_(std::move(options)),
      repository_(options_.repository, std::move(sleep)),
      memory_context_(ExecutionLimits{0.0, options_.memory_limit_bytes}) {}

RefreshReport ServerCore::Start() { return repository_.ForceRescan(); }

std::vector<uint8_t> ServerCore::HandleFrame(std::span<const uint8_t> frame) {
  auto decoded = DecodeRequest(frame, options_.codec);
  if (!decoded.ok()) {
    stats_.RecordReceived();
    stats_.RecordMalformed();
    Response response;
    response.outcome = ServeOutcome::kRejected;
    response.error = "malformed request: " + decoded.status().ToString();
    response.events.push_back(MakeEvent(DegradationKind::kServeRequestRejected,
                                        response.error));
    return EncodeResponse(response);
  }
  return EncodeResponse(Handle(decoded.value()));
}

Response ServerCore::Handle(const Request& request) {
  stats_.RecordReceived();
  Stopwatch watch;

  Response response;
  response.request_id = request.request_id;
  response.op = request.op;

  if (request.op == RequestOp::kPing) {
    response.stats_text =
        StrFormat("{\"ready\":%s,\"models\":%zu,\"draining\":%s}",
                  ready() ? "true" : "false", repository_.size(),
                  draining() ? "true" : "false");
    stats_.RecordServedFull();
    response.server_ms = watch.ElapsedMillis();
    stats_.RecordLatencyMs(response.server_ms);
    return response;
  }
  if (request.op == RequestOp::kStats) {
    response.stats_text = Stats().ToJson();
    stats_.RecordServedFull();
    response.server_ms = watch.ElapsedMillis();
    stats_.RecordLatencyMs(response.server_ms);
    return response;
  }

  const double deadline_ms =
      request.deadline_ms == 0
          ? options_.default_deadline_ms
          : std::min(static_cast<double>(request.deadline_ms),
                     options_.max_deadline_ms);

  switch (Admit(deadline_ms, watch.ElapsedMillis())) {
    case Admission::kAdmitted:
      break;
    case Admission::kShedDraining:
      response.outcome = ServeOutcome::kRejected;
      response.error = "shed: server is draining";
      response.events.push_back(
          MakeEvent(DegradationKind::kServeRequestShed, response.error));
      stats_.RecordShed();
      response.server_ms = watch.ElapsedMillis();
      return response;
    case Admission::kShedQueueFull:
      response.outcome = ServeOutcome::kRejected;
      response.error = StrFormat("shed: admission queue full (%zu waiting)",
                                 options_.queue_capacity);
      response.events.push_back(
          MakeEvent(DegradationKind::kServeRequestShed, response.error,
                    static_cast<double>(options_.queue_capacity),
                    static_cast<double>(options_.queue_capacity)));
      stats_.RecordShed();
      response.server_ms = watch.ElapsedMillis();
      return response;
    case Admission::kDeadlineExpired:
      response.outcome = ServeOutcome::kRejected;
      response.error = StrFormat(
          "deadline of %.1f ms expired while queued for a slot (TE)",
          deadline_ms);
      response.events.push_back(MakeEvent(
          DegradationKind::kServeRequestRejected, response.error, deadline_ms,
          watch.ElapsedMillis()));
      stats_.RecordRejected();
      response.server_ms = watch.ElapsedMillis();
      return response;
  }

  {
    Slot slot(this);
    response = HandleData(request, deadline_ms, watch);
  }
  response.server_ms = watch.ElapsedMillis();
  stats_.RecordLatencyMs(response.server_ms);
  switch (response.outcome) {
    case ServeOutcome::kOk:
      stats_.RecordServedFull();
      break;
    case ServeOutcome::kDegraded:
      stats_.RecordServedDegraded();
      break;
    case ServeOutcome::kRejected:
      stats_.RecordRejected();
      break;
  }
  return response;
}

ServerCore::Admission ServerCore::Admit(double deadline_ms,
                                        double elapsed_ms) {
  std::unique_lock<std::mutex> lock(admission_mutex_);
  if (draining_) return Admission::kShedDraining;
  if (active_ < options_.max_concurrent_requests) {
    ++active_;
    return Admission::kAdmitted;
  }
  if (waiting_ >= options_.queue_capacity) return Admission::kShedQueueFull;
  ++waiting_;
  const double budget_ms = std::max(deadline_ms - elapsed_ms, 0.0);
  const bool got_slot = slot_free_.wait_for(
      lock, std::chrono::duration<double, std::milli>(budget_ms),
      [&] { return active_ < options_.max_concurrent_requests; });
  --waiting_;
  if (!got_slot) {
    // Timed out in the queue. Drain may be waiting on the counters.
    if (draining_ && active_ == 0 && waiting_ == 0) drained_.notify_all();
    return Admission::kDeadlineExpired;
  }
  ++active_;
  return Admission::kAdmitted;
}

void ServerCore::ReleaseSlot() {
  std::lock_guard<std::mutex> lock(admission_mutex_);
  --active_;
  slot_free_.notify_one();
  if (draining_ && active_ == 0 && waiting_ == 0) drained_.notify_all();
}

Response ServerCore::HandleData(const Request& request, double deadline_ms,
                                Stopwatch& watch) {
  Response response;
  response.request_id = request.request_id;
  response.op = request.op;

  const size_t cols = request.feature_names.size();
  const uint64_t rows = request.rows;
  std::vector<DegradationEvent>& events = response.events;

  auto reject = [&](DegradationKind kind, std::string error) {
    response.outcome = ServeOutcome::kRejected;
    response.error = std::move(error);
    response.labels.clear();
    response.confidences.clear();
    events.push_back(MakeEvent(kind, response.error));
    return response;
  };

  // --- Degradation ladder: pick the rung this request runs at. ------
  bool full_resolve = request.op == RequestOp::kResolve;
  const double ewma_ms_per_row = ewma_ms_per_row_.load();
  double remaining_ms = deadline_ms - watch.ElapsedMillis();

  if (full_resolve &&
      remaining_ms - ewma_ms_per_row * static_cast<double>(rows) <
          options_.min_full_resolve_ms) {
    // Not enough headroom for the refresh + probe overhead of rung 0.
    full_resolve = false;
    events.push_back(MakeEvent(
        DegradationKind::kServeClassifyOnly,
        StrFormat("%.1f ms left of a %.1f ms deadline: serving "
                  "classify-only (no repository refresh, no confidences)",
                  remaining_ms, deadline_ms),
        0.0, 1.0));
  }
  if (ewma_ms_per_row > 0.0 &&
      ewma_ms_per_row * static_cast<double>(rows) > remaining_ms) {
    return reject(
        DegradationKind::kServeRequestRejected,
        StrFormat("estimated %.1f ms of scoring exceeds the %.1f ms left "
                  "of the deadline (TE)",
                  ewma_ms_per_row * static_cast<double>(rows), remaining_ms));
  }

  // Memory rung: reserve the result buffers against the shared budget;
  // resolve needs confidences + a probe centroid, classify labels only.
  ScopedReservation reservation;
  if (full_resolve) {
    const Status reserved = reservation.Acquire(
        memory_context_, "serve", ResolveBytes(rows, cols));
    if (!reserved.ok()) {
      full_resolve = false;
      events.push_back(MakeEvent(
          DegradationKind::kServeClassifyOnly,
          StrFormat("resolve buffers of %zu bytes exceed the memory "
                    "budget: serving classify-only",
                    ResolveBytes(rows, cols)),
          0.0, 1.0));
    }
  }
  if (!full_resolve) {
    const Status reserved = reservation.Acquire(
        memory_context_, "serve", ClassifyBytes(rows));
    if (!reserved.ok()) {
      return reject(DegradationKind::kServeRequestRejected,
                    "even label-only buffers exceed the memory budget: " +
                        reserved.message());
    }
  }

  // --- Model selection. ---------------------------------------------
  ModelRepository::Selection selection;
  if (full_resolve) {
    // Rung 0 pays for freshness and the domain probe.
    repository_.MaybeRefresh();
    auto selected = repository_.Select(
        request.feature_names, ColumnMeans(request.features, rows, cols));
    if (!selected.ok()) {
      return reject(DegradationKind::kServeRequestRejected,
                    selected.status().ToString());
    }
    selection = std::move(selected).value();
  } else {
    auto selected = repository_.Select(request.feature_names, {});
    if (!selected.ok()) {
      return reject(DegradationKind::kServeRequestRejected,
                    selected.status().ToString());
    }
    selection = std::move(selected).value();
  }
  const RepositoryModel& model = *selection.model;
  response.model_id = model.id;
  response.selected_by_probe = !selection.by_fingerprint;
  response.probe_similarity = selection.probe_similarity;

  // Serve from C^V when the snapshot has one (the fully trained
  // pipeline — bit-identical to a cold TransER::Run warm-serve), else
  // from C^U (the post-GEN state; still a valid classifier).
  const Classifier* classifier = model.state->classifier_v != nullptr
                                     ? model.state->classifier_v.get()
                                     : model.state->classifier_u.get();

  // --- Chunked scoring with cooperative deadline polling. -----------
  const Stopwatch score_watch;
  response.labels.reserve(rows);
  if (full_resolve) response.confidences.reserve(rows);
  for (uint64_t begin = 0; begin < rows; begin += kScoreChunkRows) {
    if (watch.ElapsedMillis() > deadline_ms) {
      // Mid-run expiry: no partial results leave the server.
      return reject(
          DegradationKind::kServeRequestRejected,
          StrFormat("deadline of %.1f ms expired after %llu of %llu rows "
                    "(TE)",
                    deadline_ms, static_cast<unsigned long long>(begin),
                    static_cast<unsigned long long>(rows)));
    }
    const uint64_t end = std::min(rows, begin + kScoreChunkRows);
    for (uint64_t r = begin; r < end; ++r) {
      const std::span<const double> row(request.features.data() + r * cols,
                                        cols);
      const double proba = classifier->PredictProba(row);
      response.labels.push_back(proba >= 0.5 ? 1 : 0);
      if (full_resolve) response.confidences.push_back(proba);
    }
  }

  // Fold the measured cost into the admission estimate.
  const double measured_ms_per_row =
      score_watch.ElapsedMillis() / static_cast<double>(rows);
  double expected = ewma_ms_per_row_.load();
  const double blended = expected <= 0.0
                             ? measured_ms_per_row
                             : 0.7 * expected + 0.3 * measured_ms_per_row;
  ewma_ms_per_row_.store(blended);

  response.outcome = std::any_of(events.begin(), events.end(),
                                 [](const DegradationEvent& event) {
                                   return event.kind ==
                                          DegradationKind::kServeClassifyOnly;
                                 })
                         ? ServeOutcome::kDegraded
                         : ServeOutcome::kOk;
  return response;
}

void ServerCore::BeginDrain() {
  std::lock_guard<std::mutex> lock(admission_mutex_);
  draining_ = true;
  if (active_ == 0 && waiting_ == 0) drained_.notify_all();
}

void ServerCore::AwaitDrain() {
  std::unique_lock<std::mutex> lock(admission_mutex_);
  drained_.wait(lock, [&] { return active_ == 0 && waiting_ == 0; });
}

bool ServerCore::draining() const {
  std::lock_guard<std::mutex> lock(admission_mutex_);
  return draining_;
}

StatsSnapshot ServerCore::Stats() const {
  StatsSnapshot snapshot = stats_.Snapshot();
  snapshot.models = repository_.size();
  snapshot.refreshes = repository_.refresh_count();
  snapshot.load_retries = repository_.load_retry_count();
  snapshot.quarantined = repository_.quarantined_count();
  snapshot.ready = snapshot.models > 0;
  snapshot.knn_backend = KnnBackendKindName(options_.repository.knn.kind);
  // Aggregate ANN footprint over every live knn-family classifier, so
  // operators can see from /stats how much index the graph backend is
  // actually holding (exact backends contribute nothing here).
  for (const auto& model : repository_.Models()) {
    if (model == nullptr || model->state == nullptr) continue;
    for (const Classifier* classifier :
         {model->state->classifier_u.get(), model->state->classifier_v.get()}) {
      const auto* knn = dynamic_cast<const KnnClassifier*>(classifier);
      if (knn == nullptr) continue;
      const auto* graph = dynamic_cast<const AnnGraph*>(knn->index());
      if (graph == nullptr) continue;
      ++snapshot.ann_models;
      snapshot.ann_points += graph->size();
      snapshot.ann_edges += graph->EdgeCount();
    }
  }
  {
    std::lock_guard<std::mutex> lock(admission_mutex_);
    snapshot.active_requests = active_ + waiting_;
    snapshot.draining = draining_;
  }
  return snapshot;
}

}  // namespace serve
}  // namespace transer
