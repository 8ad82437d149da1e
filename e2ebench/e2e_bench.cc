// End-to-end benchmark of the TransER system along its three user-facing
// paths, measured in one process on one generated scenario:
//
//   resolve  raw source + target records -> MinHash-LSH blocking -> pair
//            comparison -> validation -> SEL -> GEN -> TCL -> target
//            matches, with the trained pipeline persisted as a TERA
//            artifact (the batch linkage job);
//   serve    pre-encoded request frames against an in-process
//            serve::ServerCore that loaded that artifact: a closed loop
//            of more clients than its kServeSlots execution slots, so
//            requests wait in the admission queue, each timed from frame
//            hand-off to decoded response;
//   ingest   the target's raw records streamed one at a time through the
//            journaled stream::StreamIngestor, each timed until it is
//            acknowledged (durable journal append, apply, periodic
//            snapshot), warm-started from the same artifact.
//
// Usage:
//   e2e_bench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//             --workdir=<scratch directory, created and removed>
//
// The seed fixes every generated input. An untimed warm-up resolve trains
// the served artifact and the reference predictions; then rounds repeat
// until --seconds is used up, each resolving the records, starting a
// serving core for a kServeSliceSeconds slice and streaming one ingest
// pass. resolve_min_ms is the fastest round's resolve; setup_s sums the
// median server start and ingest open times.
// --trace=0 reports the end-to-end metrics with no spans recorded;
// --trace=1 runs the same work with spans at every layer boundary and
// reports per-layer means, which add up to the traced end-to-end means of
// their path, plus serve slices at 1x and 4x of the admission slots.
//
// Every path checks its outputs: resolve predictions must be identical on
// every repetition and clear an F1 floor against the generated ground
// truth; every served response must be kOk and bit-identical to the
// artifact's offline predictions; every ingest must be acknowledged and
// a reopened (recovered) directory must reproduce the live state digest.
//
// Progress goes to stderr. The last stdout line is one JSON object
//   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
// Exit codes: 0 measured (a failed check shows as "correct": false),
// 1 set-up failure, 2 bad flags.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "blocking/minhash_lsh.h"
#include "core/pipeline.h"
#include "core/transer.h"
#include "data/bibliographic_generator.h"
#include "data/demographic_generator.h"
#include "eval/metrics.h"
#include "features/comparator.h"
#include "ml/model_store.h"
#include "ml/random_forest.h"
#include "serve/request_codec.h"
#include "serve/server_core.h"
#include "stream/stream_ingestor.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/random.h"
#include "util/string_util.h"

namespace transer {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// Fixed shape of every run, so results compare across machines of the
// same width and across commits.
constexpr int kMaxLanes = 4;
constexpr size_t kMinRounds = 3;
constexpr double kServeSliceSeconds = 0.3;  // serve time per slice
// transer_serve_tool's defaults: 2 slots and a queue of 8, so up to 10
// clients are queued rather than shed.
constexpr size_t kServeSlots = 2;
constexpr size_t kServeQueue = 8;
constexpr size_t kServeRequests = 64;  // distinct pre-encoded frames
constexpr size_t kServerStartsPerRound = 4;
// Each ingest pass streams this many records into an empty directory, so
// every pass does the same work. The periodic work uses
// transer_ingest_tool's default intervals: a snapshot every 16, a KD-tree
// rebuild every 24 and a classifier refit every 32 records, so it lands on
// about one acknowledgement in eight and shows in the mean ack time. The
// end-to-end mean leaves out the refit acks: a refit trains on the pairs
// labelled so far and is skipped while they are all of one class, and
// their match count swings from 1 to ~800 between seeds, which alone moved
// the all-ack mean by 0.27-0.30 of its median across five seeds (0.07
// without them). Refit acks are reported apart, per layer.
constexpr size_t kIngestRecords = 1024;
constexpr size_t kIngestSnapshotInterval = 16;
constexpr size_t kIngestRebuildInterval = 24;
constexpr size_t kIngestRefreshInterval = 32;
// Labelling every candidate a match scores F1 ~0.2 at these generators'
// match shares; TransER scores 0.5-0.98 on them.
constexpr double kMinResolveF1 = 0.3;

enum class Domain { kBibliographic, kDemographic };

struct Workload {
  const char* name;
  Domain domain;
  size_t source_entities;
  size_t target_entities;
  KnnBackendKind sel_knn;  ///< index behind SEL's neighbourhood scans
  size_t serve_clients;    ///< closed-loop clients over kServeSlots slots
  size_t serve_rows;       ///< comparison vectors per request
  stream::DynamicKnnBackend ingest_knn;
};

// Two workloads on opposite sides of every mechanism the layers select
// between: long-text vs short-name records, exact vs graph kNN in SEL and
// in the stream index. Serve traffic is the repository's soak mix (half
// kResolve, half kClassify, rows drawn at random): transer_serve_tool's
// default of 4 clients x 32 rows, and the CI soak's 6 clients x 64 rows.
constexpr Workload kWorkloads[] = {
    {"biblio_exact", Domain::kBibliographic, 4000, 4000, KnnBackendKind::kKdTree,
     4, 32, stream::DynamicKnnBackend::kKdTreeTail},
    {"demo_ann", Domain::kDemographic, 4000, 5000, KnnBackendKind::kAnnGraph,
     6, 64, stream::DynamicKnnBackend::kAnnGraph},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : kWorkloads) {
    if (name == workload.name) return &workload;
  }
  return nullptr;
}

// --- Inputs -----------------------------------------------------------

struct Inputs {
  LinkageProblem source;
  LinkageProblem target;
  /// The first kIngestRecords target records in arrival order for the
  /// ingest path: left and right interleaved, so duplicates arrive close
  /// together.
  std::vector<Record> stream;
};

Inputs MakeInputs(const Workload& workload, uint64_t seed) {
  Inputs inputs;
  // The source pair is cleaner than the target pair (the paper's
  // transfer setting): labels are learnt where they are cheap.
  if (workload.domain == Domain::kBibliographic) {
    BibliographicOptions source;
    source.left_name = "dblp";
    source.right_name = "acm";
    source.num_entities = workload.source_entities;
    source.seed = seed * 2 + 1;
    source.right_corruption.typo_probability = 0.15;
    BibliographicOptions target;
    target.left_name = "dblp";
    target.right_name = "scholar";
    target.num_entities = workload.target_entities;
    target.seed = seed * 2 + 2;
    target.right_corruption.typo_probability = 0.45;
    target.right_corruption.abbreviate_probability = 0.25;
    target.right_corruption.drop_word_probability = 0.15;
    target.right_corruption.missing_probability = 0.05;
    inputs.source = GenerateBibliographic(source);
    inputs.target = GenerateBibliographic(target);
  } else {
    DemographicOptions source;
    source.left_name = "ios_births";
    source.right_name = "ios_deaths";
    source.num_families = workload.source_entities;
    source.seed = seed * 2 + 1;
    source.left_corruption.typo_probability = 0.10;
    source.right_corruption.typo_probability = 0.15;
    DemographicOptions target;
    target.left_name = "kil_births";
    target.right_name = "kil_deaths";
    target.num_families = workload.target_entities;
    target.seed = seed * 2 + 2;
    target.left_corruption.typo_probability = 0.25;
    target.left_corruption.ocr_probability = 0.10;
    target.right_corruption.typo_probability = 0.30;
    target.right_corruption.ocr_probability = 0.12;
    target.right_corruption.abbreviate_probability = 0.20;
    target.right_corruption.nickname_probability = 0.15;
    inputs.source = GenerateDemographic(source);
    inputs.target = GenerateDemographic(target);
  }
  const Dataset& left = inputs.target.left;
  const Dataset& right = inputs.target.right;
  for (size_t i = 0; i < std::max(left.size(), right.size()) &&
                     inputs.stream.size() < kIngestRecords;
       ++i) {
    if (i < left.size()) {
      inputs.stream.push_back(left.record(i));
      inputs.stream.back().id = "l:" + inputs.stream.back().id;
    }
    if (i < right.size()) {
      inputs.stream.push_back(right.record(i));
      inputs.stream.back().id = "r:" + inputs.stream.back().id;
    }
  }
  return inputs;
}

// --- Statistics and output ---------------------------------------------

double Min(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Nearest-rank percentile, p in (0, 1].
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

/// a / b, or 0 when nothing was measured (keeps the JSON finite).
double Ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double value : values) sum += value;
  return sum / static_cast<double>(values.size());
}

double PeakRssMegabytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Fail(const std::string& what) {
    if (correct) std::fprintf(stderr, "check failed: %s\n", what.c_str());
    correct = false;
  }
};

// --- Resolve: raw records -> matches + persisted artifact ------------------

/// Per-layer wall time of resolves, summed over the traced repetitions.
struct ResolveSpans {
  double block = 0.0;
  double compare = 0.0;
  double validate = 0.0;
  double prepare = 0.0;  ///< unlabelled target copy + TransER entry checks
  double sel = 0.0;
  double gen = 0.0;  ///< includes the post-GEN artifact save
  double tcl = 0.0;  ///< includes the final artifact save
  double total = 0.0;
  size_t candidate_pairs = 0;
  size_t true_pairs_in_candidates = 0;
};

struct ResolveOutput {
  FeatureMatrix target;  ///< labelled target comparison vectors
  std::vector<int> predicted;
  size_t selected = 0;
};

Result<ResolveOutput> Resolve(const Inputs& inputs, const Workload& workload,
                              uint64_t seed, int lanes,
                              const std::string& artifact_path,
                              ResolveSpans* spans) {
  // TransER warm-starts from an artifact already at the snapshot path;
  // every resolve here trains from the raw records.
  fs::remove(artifact_path);
  const Clock::time_point start = Clock::now();
  Clock::time_point mark = start;
  const auto lap = [&](double ResolveSpans::*slot) {
    if (spans == nullptr) return;
    const Clock::time_point now = Clock::now();
    spans->*slot += SecondsBetween(mark, now);
    mark = now;
  };

  const PipelineOptions pipeline;  // the paper's blocking + comparison
  const MinHashLshBlocker blocker(pipeline.blocking);
  ParallelOptions parallel;
  parallel.num_threads = lanes;
  FeatureMatrix domains[2];
  const LinkageProblem* problems[2] = {&inputs.source, &inputs.target};
  for (int d = 0; d < 2; ++d) {
    const LinkageProblem& problem = *problems[d];
    TRANSER_ASSIGN_OR_RETURN(
        const std::vector<PairRef> pairs,
        blocker.Block(problem.left, problem.right,
                      ExecutionContext::Unlimited()));
    lap(&ResolveSpans::block);
    TRANSER_ASSIGN_OR_RETURN(
        const PairComparator comparator,
        PairComparator::Create(problem.left.schema(), problem.right.schema(),
                               pipeline.comparison));
    TRANSER_ASSIGN_OR_RETURN(
        const FeatureMatrix compared,
        comparator.CompareAll(problem.left, problem.right, pairs,
                              ExecutionContext::Unlimited(), parallel));
    lap(&ResolveSpans::compare);
    TRANSER_ASSIGN_OR_RETURN(domains[d],
                             compared.Validate(pipeline.validation));
    lap(&ResolveSpans::validate);
    if (spans != nullptr) {
      spans->candidate_pairs += pairs.size();
      spans->true_pairs_in_candidates += compared.CountMatches();
    }
  }

  // The run's stage heartbeats mark the SEL / GEN / TCL boundaries.
  std::vector<std::pair<std::string, Clock::time_point>> stages;
  ProgressCallback progress;
  if (spans != nullptr) {
    progress = [&stages](const ProgressEvent& event) {
      if (stages.empty() || stages.back().first != event.stage) {
        stages.emplace_back(event.stage, Clock::now());
      }
    };
  }
  ExecutionContext context(ExecutionLimits{}, nullptr, progress);
  TransferRunOptions run_options;
  run_options.seed = seed;
  run_options.num_threads = lanes;
  run_options.context = &context;
  run_options.knn_backend = workload.sel_knn;
  run_options.model_snapshot_path = artifact_path;
  const TransER transer;
  TransERReport report;
  TRANSER_ASSIGN_OR_RETURN(
      std::vector<int> predicted,
      transer.RunWithReport(
          domains[0], domains[1].WithoutLabels(),
          [] { return std::unique_ptr<Classifier>(new RandomForest()); },
          run_options, &report));

  if (spans != nullptr) {
    const Clock::time_point end = Clock::now();
    for (size_t s = 0; s < stages.size(); ++s) {
      const Clock::time_point until =
          s + 1 < stages.size() ? stages[s + 1].second : end;
      const double seconds = SecondsBetween(stages[s].second, until);
      const std::string& stage = stages[s].first;
      if (stage == "sel") {
        spans->sel += seconds;
      } else if (stage == "gen") {
        spans->gen += seconds;
      } else if (stage == "tcl") {
        spans->tcl += seconds;
      } else {
        spans->prepare += seconds;
      }
    }
    spans->prepare +=
        SecondsBetween(mark, stages.empty() ? end : stages.front().second);
    spans->total += SecondsBetween(start, end);
  }
  if (!report.tcl_trained) {
    return Status::Internal("TCL did not train a target classifier");
  }
  return ResolveOutput{std::move(domains[1]), std::move(predicted),
                       report.selected_instances};
}

// --- Serve: frames through the in-process serving core -----------------

struct ServeRequest {
  std::vector<uint8_t> frame;
  uint64_t request_id = 0;
  std::vector<int> labels;
  std::vector<double> confidences;  ///< kResolve only
};

/// The soak mix: half the requests kResolve and half kClassify, in seeded
/// random order, over rows drawn at random from the target. The halves are
/// exact rather than coin flips, so the op mix, which sets most of the
/// latency, is the same for every seed.
Result<std::vector<ServeRequest>> MakeServeRequests(
    const Workload& workload, const FeatureMatrix& target,
    const std::string& artifact_path, uint64_t seed) {
  // Expected answers come from the artifact itself, scored offline.
  TRANSER_ASSIGN_OR_RETURN(const TransERPipelineState state,
                           LoadTransERPipelineState(artifact_path));
  const Classifier* model = state.classifier_v != nullptr
                                ? state.classifier_v.get()
                                : state.classifier_u.get();
  if (model == nullptr || target.size() == 0) {
    return Status::FailedPrecondition("no model or no target rows");
  }
  Rng rng(seed);
  std::vector<serve::RequestOp> ops(kServeRequests,
                                    serve::RequestOp::kClassify);
  std::fill(ops.begin(), ops.begin() + kServeRequests / 2,
            serve::RequestOp::kResolve);
  rng.Shuffle(&ops);
  const size_t cols = target.num_features();
  std::vector<ServeRequest> requests(kServeRequests);
  for (size_t q = 0; q < requests.size(); ++q) {
    serve::Request request;
    request.request_id = q + 1;
    request.op = ops[q];
    request.feature_names = target.feature_names();
    request.rows = workload.serve_rows;
    request.features.reserve(workload.serve_rows * cols);
    ServeRequest& expected = requests[q];
    expected.request_id = request.request_id;
    for (size_t r = 0; r < workload.serve_rows; ++r) {
      const std::span<const double> values =
          target.Row(rng.NextUint64Below(target.size()));
      request.features.insert(request.features.end(), values.begin(),
                              values.end());
      const double proba = model->PredictProba(values);
      expected.labels.push_back(proba >= 0.5 ? 1 : 0);
      if (request.op == serve::RequestOp::kResolve) {
        expected.confidences.push_back(proba);
      }
    }
    expected.frame = serve::EncodeRequest(request);
  }
  return requests;
}

bool ResponseMatches(const serve::Response& response,
                     const ServeRequest& expected) {
  return response.outcome == serve::ServeOutcome::kOk &&
         response.request_id == expected.request_id &&
         response.labels == expected.labels &&
         response.confidences.size() == expected.confidences.size() &&
         (expected.confidences.empty() ||
          std::memcmp(response.confidences.data(),
                      expected.confidences.data(),
                      expected.confidences.size() * sizeof(double)) == 0);
}

struct ServeSamples {
  std::vector<double> latency_us;
  std::vector<double> server_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double seconds = 0.0;
};

/// Runs a closed loop of `num_clients` clients for `seconds`, appending
/// to `samples`.
void RunServe(serve::ServerCore* core,
              const std::vector<ServeRequest>& requests, size_t num_clients,
              double seconds, ServeSamples* samples) {
  std::vector<ServeSamples> per_client(num_clients);
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const serve::CodecLimits limits;
  {
    std::vector<std::jthread> clients;
    for (size_t c = 0; c < num_clients; ++c) {
      clients.emplace_back([&, c] {
        ServeSamples& mine = per_client[c];
        for (size_t i = c; Clock::now() < stop; i += num_clients) {
          const ServeRequest& expected = requests[i % requests.size()];
          const Clock::time_point sent = Clock::now();
          const std::vector<uint8_t> reply = core->HandleFrame(expected.frame);
          auto response = serve::DecodeResponse(reply, limits);
          const Clock::time_point received = Clock::now();
          ++mine.attempted;
          if (!response.ok() || !ResponseMatches(response.value(), expected)) {
            ++mine.failed;
            continue;
          }
          mine.latency_us.push_back(SecondsBetween(sent, received) * 1e6);
          mine.server_us.push_back(response.value().server_ms * 1e3);
        }
      });
    }
  }
  samples->seconds += SecondsBetween(start, Clock::now());
  for (const ServeSamples& mine : per_client) {
    samples->latency_us.insert(samples->latency_us.end(),
                               mine.latency_us.begin(), mine.latency_us.end());
    samples->server_us.insert(samples->server_us.end(), mine.server_us.begin(),
                              mine.server_us.end());
    samples->attempted += mine.attempted;
    samples->failed += mine.failed;
  }
}

// --- Ingest: acknowledged streaming ingest ------------------------------

struct IngestSamples {
  std::vector<double> ack_us;
  /// Per pass, the mean ack of the records that carry no classifier refit.
  std::vector<double> pass_mean_ack_us;
  std::vector<double> refit_ack_us;  ///< acks of records that refit
  // Traced runs only: the ack split at the ingestor's append/apply hooks.
  std::vector<double> journal_us;
  std::vector<double> apply_us;
  std::vector<double> snapshot_us;  ///< after apply: periodic snapshot
  std::vector<double> open_s;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t comparisons = 0;
  double seconds = 0.0;
};

stream::StreamIngestorOptions MakeIngestOptions(const Workload& workload,
                                                const Inputs& inputs,
                                                const std::string& directory,
                                                const std::string& artifact) {
  stream::StreamIngestorOptions options;
  options.directory = directory;
  options.resolver.schema = inputs.target.left.schema();
  options.resolver.blocking.key_attribute = 0;
  options.resolver.blocking.prefix_length = 3;
  options.resolver.knn.backend = workload.ingest_knn;
  options.resolver.knn.rebuild_interval = kIngestRebuildInterval;
  options.resolver.refresh_interval = kIngestRefreshInterval;
  options.resolver.warm_start_path = artifact;
  options.snapshot_interval = kIngestSnapshotInterval;
  return options;
}

/// Streams `inputs.stream` into a fresh ingestor in `directory`,
/// appending to `samples`, then checks that recovery reproduces the state.
void RunIngestPass(const Workload& workload, const Inputs& inputs,
                   const std::string& directory, const std::string& artifact,
                   bool traced, IngestSamples* samples, Outcome* outcome) {
  fs::create_directories(directory);
  const Clock::time_point start = Clock::now();
  Clock::time_point appended;
  Clock::time_point applied;
  stream::StreamIngestorOptions options =
      MakeIngestOptions(workload, inputs, directory, artifact);
  if (traced) {
    options.after_append_hook = [&appended](uint64_t) {
      appended = Clock::now();
    };
    options.after_apply_hook = [&applied](uint64_t) {
      applied = Clock::now();
    };
  }
  uint64_t live_digest = 0;
  {
    auto opened = stream::StreamIngestor::Open(options);
    if (!opened.ok()) {
      outcome->Fail("ingest open: " + opened.status().ToString());
      return;
    }
    samples->open_s.push_back(SecondsBetween(start, Clock::now()));
    stream::StreamIngestor ingestor = std::move(opened).value();
    double pass_sum_us = 0.0;
    size_t pass_acks = 0;
    for (size_t r = 0; r < inputs.stream.size(); ++r) {
      const Clock::time_point sent = Clock::now();
      const Status status = ingestor.Ingest(inputs.stream[r]);
      const Clock::time_point acked = Clock::now();
      ++samples->attempted;
      if (!status.ok()) {
        ++samples->failed;
        continue;
      }
      const double ack_us = SecondsBetween(sent, acked) * 1e6;
      samples->ack_us.push_back(ack_us);
      if ((r + 1) % kIngestRefreshInterval == 0) {
        samples->refit_ack_us.push_back(ack_us);
      } else {
        pass_sum_us += ack_us;
        ++pass_acks;
      }
      if (traced) {
        samples->journal_us.push_back(SecondsBetween(sent, appended) * 1e6);
        samples->apply_us.push_back(SecondsBetween(appended, applied) * 1e6);
        samples->snapshot_us.push_back(SecondsBetween(applied, acked) * 1e6);
      }
    }
    samples->pass_mean_ack_us.push_back(
        Ratio(pass_sum_us, static_cast<double>(pass_acks)));
    samples->seconds += SecondsBetween(start, Clock::now());
    const stream::StreamResolver& resolver = ingestor.resolver();
    live_digest = resolver.StateDigest();
    samples->comparisons += resolver.comparison_count();
    if (resolver.matches().empty()) outcome->Fail("ingest found no matches");
  }
  // Recovery contract: reopening the directory replays to the state the
  // live ingestor acknowledged.
  options.after_append_hook = nullptr;
  options.after_apply_hook = nullptr;
  {
    auto reopened = stream::StreamIngestor::Open(options);
    if (!reopened.ok() ||
        reopened.value().resolver().StateDigest() != live_digest) {
      outcome->Fail("reopened ingest directory diverged from the live state");
    }
  }
  fs::remove_all(directory);
}

// --- Main -----------------------------------------------------------------

std::string Flag(int argc, char** argv, const std::string& name) {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return "";
}

int Main(int argc, char** argv) {
  const Workload* workload = FindWorkload(Flag(argc, argv, "workload"));
  const std::string seed_text = Flag(argc, argv, "seed");
  const std::string seconds_text = Flag(argc, argv, "seconds");
  const std::string trace_text = Flag(argc, argv, "trace");
  const std::string workdir = Flag(argc, argv, "workdir");
  char* seed_end = nullptr;
  char* seconds_end = nullptr;
  const uint64_t seed = std::strtoull(seed_text.c_str(), &seed_end, 10);
  const double seconds = std::strtod(seconds_text.c_str(), &seconds_end);
  if (workload == nullptr || seed_text.empty() || *seed_end != '\0' ||
      seconds_text.empty() || *seconds_end != '\0' || !(seconds > 0.0) ||
      (trace_text != "0" && trace_text != "1") || workdir.empty()) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload=<name> --seed=<n> "
                 "--seconds=<s> --trace=<0|1> --workdir=<dir>\n");
    return 2;
  }
  const bool traced = trace_text == "1";
  SetLogLevel(LogLevel::kError);
  const int lanes = static_cast<int>(std::clamp<unsigned>(
      std::thread::hardware_concurrency(), 1, kMaxLanes));
  SetDefaultThreadCount(lanes);
  fs::remove_all(workdir);
  fs::create_directories(workdir + "/repository");
  const std::string served_artifact = workdir + "/repository/model.tera";
  const std::string resolve_artifact = workdir + "/resolve.tera";

  Outcome outcome;
  std::vector<Metric> metrics;
  const auto add = [&metrics](const std::string& name, double value,
                              const std::string& unit) {
    metrics.push_back({name, value, unit});
  };

  const Clock::time_point generate_start = Clock::now();
  const Inputs inputs = MakeInputs(*workload, seed);
  const double generate_s = SecondsBetween(generate_start, Clock::now());

  // Warm-up resolve: fills caches and trains the artifact serving and
  // ingest start from; its predictions are the reference for the rest.
  auto reference =
      Resolve(inputs, *workload, seed, lanes, served_artifact, nullptr);
  if (!reference.ok()) {
    std::fprintf(stderr, "resolve failed: %s\n",
                 reference.status().ToString().c_str());
    return 1;
  }
  const LinkageQuality quality = EvaluateLinkage(
      reference.value().target.labels(), reference.value().predicted);
  std::fprintf(stderr, "%s: %zu target pairs, F1 %.4f, SEL kept %zu\n",
               workload->name, reference.value().target.size(), quality.f1,
               reference.value().selected);
  if (!(quality.f1 >= kMinResolveF1)) {
    outcome.Fail("resolve F1 below the floor");
  }

  serve::ServerOptions server_options;
  server_options.repository.directory = workdir + "/repository";
  server_options.max_concurrent_requests = kServeSlots;
  server_options.queue_capacity = kServeQueue;
  auto requests = MakeServeRequests(*workload, reference.value().target,
                                    served_artifact, seed);
  if (!requests.ok()) {
    std::fprintf(stderr, "serve set-up failed: %s\n",
                 requests.status().ToString().c_str());
    return 1;
  }

  // Measured rounds. Each resolves the records, starts a serving core for
  // one serve slice and streams one ingest pass, so every path and every
  // set-up step samples the whole run rather than one slice of the host's
  // load. Traced rounds add slices at 1x and 4x of the admission slots.
  std::vector<double> server_start_s;
  std::vector<double> resolve_s;
  ResolveSpans spans;
  ServeSamples serve;
  ServeSamples serve_1x;
  ServeSamples serve_4x;
  IngestSamples ingest;
  const Clock::time_point run_start = Clock::now();
  for (size_t round = 0;
       round < kMinRounds || SecondsBetween(run_start, Clock::now()) < seconds;
       ++round) {
    Clock::time_point t0 = Clock::now();
    auto resolved = Resolve(inputs, *workload, seed, lanes, resolve_artifact,
                            traced ? &spans : nullptr);
    const double elapsed = SecondsBetween(t0, Clock::now());
    ++outcome.attempted;
    if (!resolved.ok()) {
      ++outcome.failed;
      outcome.Fail("resolve: " + resolved.status().ToString());
      break;
    }
    if (resolved.value().predicted != reference.value().predicted) {
      outcome.Fail("resolve predictions differ between repetitions");
    }
    resolve_s.push_back(elapsed);

    // Several cold starts per round steady the set-up median; the last
    // core serves.
    std::unique_ptr<serve::ServerCore> core;
    for (size_t start = 0; start < kServerStartsPerRound; ++start) {
      core.reset();
      t0 = Clock::now();
      core = std::make_unique<serve::ServerCore>(server_options);
      core->Start();
      server_start_s.push_back(SecondsBetween(t0, Clock::now()));
    }
    if (!core->ready()) {
      outcome.Fail("server has no model after start");
      break;
    }
    RunServe(core.get(), requests.value(), workload->serve_clients,
             kServeSliceSeconds, &serve);
    if (traced) {
      RunServe(core.get(), requests.value(), kServeSlots, kServeSliceSeconds,
               &serve_1x);
      RunServe(core.get(), requests.value(), 4 * kServeSlots,
               kServeSliceSeconds, &serve_4x);
    }
    core.reset();  // no serving threads during the ingest pass

    RunIngestPass(*workload, inputs,
                  workdir + "/ingest-" + std::to_string(round),
                  served_artifact, traced, &ingest, &outcome);
  }
  const uint64_t serve_failed = serve.failed + serve_1x.failed + serve_4x.failed;
  outcome.attempted += serve.attempted + serve_1x.attempted +
                       serve_4x.attempted + ingest.attempted;
  outcome.failed += serve_failed + ingest.failed;
  if (serve_failed > 0) outcome.Fail("served responses wrong or refused");
  if (ingest.failed > 0) outcome.Fail("ingest not acknowledged");
  if (resolve_s.empty() || serve.latency_us.empty() ||
      ingest.ack_us.empty() ||
      (traced && (serve_1x.latency_us.empty() || serve_4x.latency_us.empty()))) {
    outcome.Fail("a path produced no samples");
  }

  if (!traced) {
    // The fastest resolve, not the median: a resolve is one long job with
    // 4 lanes, and load from other tenants of the host slows a varying
    // share of the rounds. Over five seeds the median moved by 0.22 of its
    // median on demo_ann, the fastest round by 0.05.
    add("resolve_min_ms", Min(resolve_s) * 1e3, "ms");
    add("serve_p50_us", Percentile(serve.latency_us, 0.50), "us");
    add("serve_p99_us", Percentile(serve.latency_us, 0.99), "us");
    add("ingest_ack_p50_us", Percentile(ingest.ack_us, 0.50), "us");
    add("ingest_ack_mean_excl_refit_us", Median(ingest.pass_mean_ack_us),
        "us");
    add("setup_s", Median(server_start_s) + Median(ingest.open_s), "s");
    add("peak_rss_mb", PeakRssMegabytes(), "MB");
  } else {
    const double n = static_cast<double>(std::max<size_t>(resolve_s.size(), 1));
    add("resolve.block_ms", spans.block / n * 1e3, "ms");
    add("resolve.compare_ms", spans.compare / n * 1e3, "ms");
    add("resolve.validate_ms", spans.validate / n * 1e3, "ms");
    add("resolve.prepare_ms", spans.prepare / n * 1e3, "ms");
    add("resolve.sel_ms", spans.sel / n * 1e3, "ms");
    add("resolve.gen_ms", spans.gen / n * 1e3, "ms");
    add("resolve.tcl_ms", spans.tcl / n * 1e3, "ms");
    add("resolve.total_ms", spans.total / n * 1e3, "ms");
    add("resolve.candidate_pairs",
        static_cast<double>(spans.candidate_pairs) / n, "count");
    add("resolve.block_true_pair_share",
        Ratio(static_cast<double>(spans.true_pairs_in_candidates),
              static_cast<double>(spans.candidate_pairs)),
        "ratio");
    add("resolve.f1", quality.f1, "ratio");
    add("serve.latency_mean_us", Mean(serve.latency_us), "us");
    add("serve.server_mean_us", Mean(serve.server_us), "us");
    add("serve.codec_mean_us",
        Mean(serve.latency_us) - Mean(serve.server_us), "us");
    add("serve.requests_per_s",
        Ratio(static_cast<double>(serve.latency_us.size()), serve.seconds),
        "1/s");
    add("serve.p50_at_1x_slots_us", Percentile(serve_1x.latency_us, 0.50),
        "us");
    add("serve.p99_at_1x_slots_us", Percentile(serve_1x.latency_us, 0.99),
        "us");
    add("serve.p50_at_4x_slots_us", Percentile(serve_4x.latency_us, 0.50),
        "us");
    add("serve.p99_at_4x_slots_us", Percentile(serve_4x.latency_us, 0.99),
        "us");
    add("ingest.ack_mean_us", Mean(ingest.ack_us), "us");
    add("ingest.ack_p90_us", Percentile(ingest.ack_us, 0.90), "us");
    add("ingest.refit_ack_mean_us", Mean(ingest.refit_ack_us), "us");
    add("ingest.journal_mean_us", Mean(ingest.journal_us), "us");
    add("ingest.apply_mean_us", Mean(ingest.apply_us), "us");
    add("ingest.snapshot_mean_us", Mean(ingest.snapshot_us), "us");
    add("ingest.records_per_s",
        Ratio(static_cast<double>(ingest.ack_us.size()), ingest.seconds),
        "1/s");
    add("ingest.comparisons_per_record",
        Ratio(static_cast<double>(ingest.comparisons),
              static_cast<double>(ingest.ack_us.size())),
        "count");
    add("setup.generate_ms", generate_s * 1e3, "ms");
    add("setup.server_start_ms", Median(server_start_s) * 1e3, "ms");
    add("setup.ingest_open_ms", Median(ingest.open_s) * 1e3, "ms");
  }
  std::fprintf(stderr,
               "%s: %zu resolves, %zu requests, %zu acks, %zu ingest passes\n",
               workload->name, resolve_s.size(), serve.latency_us.size(),
               ingest.ack_us.size(), ingest.open_s.size());
  fs::remove_all(workdir);

  std::string json = StrFormat(
      "{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
      ", \"metrics\": {",
      outcome.correct ? "true" : "false", outcome.attempted, outcome.failed);
  for (size_t m = 0; m < metrics.size(); ++m) {
    json += StrFormat("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                      m == 0 ? "" : ", ", metrics[m].name.c_str(),
                      metrics[m].value, metrics[m].unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace transer

int main(int argc, char** argv) { return transer::Main(argc, argv); }
