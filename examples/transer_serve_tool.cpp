// Long-lived TransER serving daemon and its client, over a Unix domain
// socket with the TSRV length-prefixed CRC-framed codec.
//
// Server:
//   transer_serve_tool --models=DIR --socket=PATH
//       [--max-concurrent=2] [--queue=8]
//       [--deadline-ms=1000] [--max-deadline-ms=30000]
//       [--min-full-resolve-ms=10] [--memory-limit-mb=0]
//       [--refresh-s=2] [--min-probe-sim=0.5] [--max-frame-mb=64]
//       [--knn-backend=kdtree|brute|ann] [--recall=0.95]
//       [--stats-out=FILE]
//   Scans DIR for *.tera pipeline artifacts (written by transer_csv_tool
//   --save-model), prints "SERVE_READY models=N socket=PATH" once
//   listening, and hot-reloads artifacts that change on disk. On
//   SIGTERM/SIGINT it drains: stops admitting, finishes in-flight
//   requests, prints "SERVE_DRAINED <stats json>" (also written to
//   --stats-out when given) and exits 0.
//   --knn-backend picks the index rebuilt behind knn-family classifiers
//   as their artifacts load (artifacts never record a backend); with
//   "ann" the recall-knobbed navigable graph answers neighbour votes and
//   the stats JSON reports its aggregate footprint (knn_backend,
//   ann_models, ann_points, ann_edges). --recall sets the graph's
//   recall target.
//
// Client (all need --connect=PATH):
//   --ping                     readiness probe
//   --stats                    full stats JSON
//   --target=CSV [--op=resolve|classify] [--deadline-ms=N] [--out=FILE]
//                              one batched request from a CSV feature
//                              matrix (labels ignored)
//   --soak --target=CSV [--clients=4] [--requests=50] [--rows=32]
//          [--corrupt-rate=0.15] [--oversize-rate=0.05]
//          [--tiny-deadline-rate=0.15] [--seed=1]
//          [--swap-src=FILE --swap-dst=FILE [--swap-delay-ms=200]]
//                              concurrent mixed-traffic soak: valid,
//                              byte-flipped and oversized frames plus
//                              near-zero deadlines; prints "SOAK <json>".
//                              --swap-src/--swap-dst atomically replace
//                              the artifact at DST with SRC mid-soak
//                              (e.g. a random-forest model with a
//                              logistic-regression retrain) so the
//                              repository hot-swap is exercised under
//                              live traffic; the soak still demands
//                              zero lost well-formed requests across
//                              the swap
//
// --help prints the usage, --version the build identity.
//
// Count and size flags take whole numbers >= 0; --max-concurrent,
// --max-frame-mb, --clients and --requests take >= 1. A negative or
// fractional value is an invalid flag, never a huge unsigned one.
//
// Exit codes: 0 success (soak: every well-formed request answered),
// 1 transport/load failure, 2 invalid flags (unknown flags and
// positional arguments included), 4 request rejected (single-request
// client mode).

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "features/feature_matrix.h"
#include "knn/knn_backend.h"
#include "serve/server_core.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/random.h"

namespace transer {
namespace {

// --- socket plumbing --------------------------------------------------

bool WriteAll(int fd, const uint8_t* data, size_t size) {
  size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::write(fd, data + sent, size - sent);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// Reads until one complete frame pops (true), or EOF / stream
/// corruption (false).
bool ReadFrame(int fd, serve::FrameReader* reader,
               std::vector<uint8_t>* frame) {
  for (;;) {
    switch (reader->Pop(frame)) {
      case serve::FrameReader::Next::kFrame:
        return true;
      case serve::FrameReader::Next::kCorrupt:
        return false;
      case serve::FrameReader::Next::kNeedMore:
        break;
    }
    uint8_t chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    reader->Feed(chunk, static_cast<size_t>(n));
  }
}

int ConnectSocket(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// --- server ----------------------------------------------------------

std::atomic<bool> g_shutdown{false};

void HandleSignal(int) { g_shutdown.store(true); }

/// Per-connection loop: reassemble frames, serve each through the core,
/// write the response. A corrupt stream gets one final structured
/// rejection before the connection closes (length-prefixed framing
/// cannot resync).
void ServeConnection(serve::ServerCore* core, int fd) {
  serve::FrameReader reader(core->options().codec);
  std::vector<uint8_t> frame;
  uint8_t chunk[4096];
  for (;;) {
    bool closed = false;
    for (;;) {
      const serve::FrameReader::Next next = reader.Pop(&frame);
      if (next == serve::FrameReader::Next::kNeedMore) break;
      if (next == serve::FrameReader::Next::kCorrupt) {
        serve::Response goodbye;
        goodbye.outcome = serve::ServeOutcome::kRejected;
        goodbye.error = "corrupt stream: " + reader.error().ToString();
        const std::vector<uint8_t> encoded = serve::EncodeResponse(goodbye);
        WriteAll(fd, encoded.data(), encoded.size());
        closed = true;
        break;
      }
      const std::vector<uint8_t> response = core->HandleFrame(frame);
      if (!WriteAll(fd, response.data(), response.size())) {
        closed = true;
        break;
      }
    }
    if (closed) break;
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF or the drain path shut the socket down
    reader.Feed(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
}

int RunServer(const Flags& flags) {
  serve::ServerOptions options;
  options.repository.directory = flags.GetString("models", "");
  options.repository.refresh_interval_seconds =
      flags.GetDouble("refresh-s", 2.0);
  options.repository.min_probe_similarity =
      flags.GetDouble("min-probe-sim", 0.5);
  // Index behind rebuilt knn-family classifiers: exact KD-tree unless
  // the operator opts into the approximate graph for lookup latency.
  const std::string backend_raw = flags.GetString("knn-backend", "kdtree");
  if (!ParseKnnBackendKind(backend_raw, &options.repository.knn.kind)) {
    std::fprintf(stderr, "unknown --knn-backend '%s' (kdtree|brute|ann)\n",
                 backend_raw.c_str());
    return 2;
  }
  const double recall = flags.GetDouble("recall", 0.95);
  if (!(recall > 0.0 && recall <= 1.0)) {
    std::fprintf(stderr, "--recall must be in (0, 1], got %g\n", recall);
    return 2;
  }
  options.repository.knn.ann.recall_target = recall;
  // Artifact loads run outside any parallel region, so the rebuilt
  // index may use every lane (the process default).
  options.repository.knn.num_threads = 0;
  options.max_concurrent_requests =
      flags.GetCount<size_t>("max-concurrent", 2, 1);
  options.queue_capacity = flags.GetCount<size_t>("queue", 8);
  options.default_deadline_ms = flags.GetDouble("deadline-ms", 1000.0);
  options.max_deadline_ms = flags.GetDouble("max-deadline-ms", 30000.0);
  options.min_full_resolve_ms = flags.GetDouble("min-full-resolve-ms", 10.0);
  options.memory_limit_bytes = flags.GetMemoryLimitBytes("memory-limit-mb", 0);
  options.codec.max_frame_bytes =
      flags.GetMemoryLimitBytes("max-frame-mb", 64, 1);
  const std::string socket_path = flags.GetString("socket", "");
  const std::string stats_out = flags.GetString("stats-out", "");
  if (options.repository.directory.empty() || socket_path.empty()) {
    std::fprintf(stderr, "server mode needs --models=DIR and --socket=PATH\n");
    return 2;
  }

  serve::ServerCore core(options);
  const serve::RefreshReport scan = core.Start();
  std::fprintf(stderr, "repository: %zu artifact(s) indexed, %zu quarantined\n",
               core.repository().size(), scan.quarantined);

  ::unlink(socket_path.c_str());
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (listen_fd < 0 || socket_path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "cannot create socket %s\n", socket_path.c_str());
    return 1;
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd, 64) != 0) {
    std::fprintf(stderr, "cannot listen on %s: %s\n", socket_path.c_str(),
                 std::strerror(errno));
    ::close(listen_fd);
    return 1;
  }

  struct sigaction action {};
  action.sa_handler = HandleSignal;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);

  std::printf("SERVE_READY models=%zu socket=%s\n", core.repository().size(),
              socket_path.c_str());
  std::fflush(stdout);

  std::mutex connections_mutex;
  std::vector<int> connection_fds;
  std::vector<std::thread> workers;
  while (!g_shutdown.load()) {
    pollfd poll_fd{listen_fd, POLLIN, 0};
    const int ready = ::poll(&poll_fd, 1, 100);
    if (ready <= 0) continue;
    const int conn = ::accept(listen_fd, nullptr, nullptr);
    if (conn < 0) continue;
    {
      std::lock_guard<std::mutex> lock(connections_mutex);
      connection_fds.push_back(conn);
    }
    workers.emplace_back([&core, conn] { ServeConnection(&core, conn); });
  }

  // Drain: no new work, finish what was admitted, then report and exit.
  ::close(listen_fd);
  core.BeginDrain();
  {
    // Unblock connection threads parked in read(); each finishes the
    // request it is serving first.
    std::lock_guard<std::mutex> lock(connections_mutex);
    for (int fd : connection_fds) ::shutdown(fd, SHUT_RD);
  }
  for (std::thread& worker : workers) worker.join();
  core.AwaitDrain();
  const std::string stats = core.Stats().ToJson();
  if (!stats_out.empty()) {
    if (std::FILE* f = std::fopen(stats_out.c_str(), "w")) {
      std::fputs(stats.c_str(), f);
      std::fclose(f);
    }
  }
  std::printf("SERVE_DRAINED %s\n", stats.c_str());
  std::fflush(stdout);
  ::unlink(socket_path.c_str());
  return 0;
}

// --- client ----------------------------------------------------------

/// One request/response exchange on an open connection. Returns false
/// on transport failure (EOF, corrupt stream, undecodable response).
bool Exchange(int fd, const std::vector<uint8_t>& frame,
              const serve::CodecLimits& limits, serve::Response* response) {
  if (!WriteAll(fd, frame.data(), frame.size())) return false;
  serve::FrameReader reader(limits);
  std::vector<uint8_t> reply;
  if (!ReadFrame(fd, &reader, &reply)) return false;
  auto decoded = serve::DecodeResponse(reply, limits);
  if (!decoded.ok()) return false;
  *response = std::move(decoded).value();
  return true;
}

int RunSingleRequest(const Flags& flags, const std::string& socket_path) {
  serve::CodecLimits limits;
  serve::Request request;
  request.request_id = 1;
  request.deadline_ms = flags.GetCount<uint32_t>("deadline-ms", 0);
  const std::string target_path = flags.GetString("target", "");
  if (flags.GetBool("ping", false)) {
    request.op = serve::RequestOp::kPing;
  } else if (flags.GetBool("stats", false)) {
    request.op = serve::RequestOp::kStats;
  } else if (!target_path.empty()) {
    const std::string op = flags.GetString("op", "resolve");
    if (op == "resolve") {
      request.op = serve::RequestOp::kResolve;
    } else if (op == "classify") {
      request.op = serve::RequestOp::kClassify;
    } else {
      std::fprintf(stderr, "bad --op=%s (resolve|classify)\n", op.c_str());
      return 2;
    }
    auto loaded = FeatureMatrix::FromCsvFile(target_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n", target_path.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    const FeatureMatrix& matrix = loaded.value();
    request.feature_names = matrix.feature_names();
    request.rows = matrix.size();
    request.features.reserve(matrix.size() * matrix.num_features());
    for (size_t i = 0; i < matrix.size(); ++i) {
      const std::span<const double> row = matrix.Row(i);
      request.features.insert(request.features.end(), row.begin(), row.end());
    }
  } else {
    std::fprintf(stderr,
                 "client mode needs --ping, --stats, --target=CSV or "
                 "--soak\n");
    return 2;
  }

  const int fd = ConnectSocket(socket_path);
  if (fd < 0) {
    std::fprintf(stderr, "cannot connect to %s\n", socket_path.c_str());
    return 1;
  }
  serve::Response response;
  const bool exchanged =
      Exchange(fd, serve::EncodeRequest(request), limits, &response);
  ::close(fd);
  if (!exchanged) {
    std::fprintf(stderr, "transport failure talking to %s\n",
                 socket_path.c_str());
    return 1;
  }

  std::printf("outcome=%s model=%s probe=%d similarity=%.4f server_ms=%.2f\n",
              serve::ServeOutcomeName(response.outcome),
              response.model_id.empty() ? "-" : response.model_id.c_str(),
              response.selected_by_probe ? 1 : 0, response.probe_similarity,
              response.server_ms);
  if (!response.stats_text.empty()) {
    std::printf("%s\n", response.stats_text.c_str());
  }
  if (!response.error.empty()) {
    std::printf("error: %s\n", response.error.c_str());
  }
  for (const DegradationEvent& event : response.events) {
    std::printf("event: %s\n", event.ToString().c_str());
  }
  const std::string out_path = flags.GetString("out", "");
  if (!out_path.empty() && !response.labels.empty()) {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::fputs("label,confidence\n", f);
    for (size_t i = 0; i < response.labels.size(); ++i) {
      const double confidence =
          i < response.confidences.size() ? response.confidences[i] : -1.0;
      std::fprintf(f, "%d,%.17g\n", response.labels[i], confidence);
    }
    std::fclose(f);
    std::printf("wrote %zu label(s) to %s\n", response.labels.size(),
                out_path.c_str());
  }
  return response.outcome == serve::ServeOutcome::kRejected ? 4 : 0;
}

// --- soak ------------------------------------------------------------

struct SoakCounters {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t degraded = 0;
  uint64_t rejected = 0;
  uint64_t transport_resets = 0;
  uint64_t lost_valid = 0;  ///< well-formed request with no response
};

/// One soak client: a stream of valid, corrupt, oversized and
/// tight-deadline requests, reconnecting whenever the server (rightly)
/// kills a corrupted connection.
void SoakClient(const std::string& socket_path, const FeatureMatrix& matrix,
                const serve::CodecLimits& limits, int requests, size_t rows,
                double corrupt_rate, double oversize_rate,
                double tiny_deadline_rate, uint64_t seed,
                SoakCounters* counters) {
  Rng rng(seed);
  int fd = -1;
  for (int i = 0; i < requests; ++i) {
    if (fd < 0) {
      fd = ConnectSocket(socket_path);
      if (fd < 0) {
        // The server may be mid-drain; count and move on.
        ++counters->transport_resets;
        break;
      }
    }

    serve::Request request;
    request.request_id = seed * 1000 + static_cast<uint64_t>(i);
    request.op = rng.Bernoulli(0.5) ? serve::RequestOp::kResolve
                                    : serve::RequestOp::kClassify;
    request.feature_names = matrix.feature_names();
    const size_t batch = std::max<size_t>(1, rows);
    request.rows = batch;
    request.features.reserve(batch * matrix.num_features());
    for (size_t r = 0; r < batch; ++r) {
      const std::span<const double> row =
          matrix.Row(rng.NextUint64Below(matrix.size()));
      request.features.insert(request.features.end(), row.begin(), row.end());
    }
    const bool tiny_deadline = rng.Bernoulli(tiny_deadline_rate);
    request.deadline_ms = tiny_deadline ? 1 : 0;

    std::vector<uint8_t> frame = serve::EncodeRequest(request);
    bool well_formed = true;
    if (rng.Bernoulli(oversize_rate)) {
      // Declare a payload far over the frame limit: a stream-level
      // attack the server must answer with a rejection + close.
      frame[4] = 0xFF;
      frame[5] = 0xFF;
      frame[6] = 0xFF;
      frame[7] = 0x7F;
      well_formed = false;
    } else if (rng.Bernoulli(corrupt_rate)) {
      const size_t offset = rng.NextUint64Below(frame.size());
      frame[offset] ^= static_cast<uint8_t>(1 + rng.NextUint64Below(255));
      well_formed = false;  // may hit framing or payload bytes
    }

    ++counters->sent;
    serve::Response response;
    bool answered = Exchange(fd, frame, limits, &response);
    if (!answered) {
      ::close(fd);
      fd = -1;
      ++counters->transport_resets;
      if (!well_formed) continue;
      // A preceding hostile frame may have condemned this stream (the
      // server rejects and closes); a well-formed request gets one
      // fresh connection before being declared lost.
      fd = ConnectSocket(socket_path);
      if (fd >= 0) answered = Exchange(fd, frame, limits, &response);
      if (!answered) {
        if (fd >= 0) {
          ::close(fd);
          fd = -1;
        }
        ++counters->lost_valid;
        continue;
      }
    }
    switch (response.outcome) {
      case serve::ServeOutcome::kOk:
        ++counters->ok;
        break;
      case serve::ServeOutcome::kDegraded:
        ++counters->degraded;
        break;
      case serve::ServeOutcome::kRejected:
        ++counters->rejected;
        break;
    }
  }
  if (fd >= 0) ::close(fd);
}

/// Atomically replaces the artifact at `dst` with the bytes of `src`
/// (tmp file + rename, the repository's own update idiom), after
/// waiting `delay_ms` so traffic is in flight when the swap lands.
bool SwapArtifact(const std::string& src, const std::string& dst,
                  int64_t delay_ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
  std::FILE* in = std::fopen(src.c_str(), "rb");
  if (in == nullptr) {
    std::fprintf(stderr, "swap: cannot read %s\n", src.c_str());
    return false;
  }
  const std::string tmp = dst + ".swap.tmp";
  std::FILE* out = std::fopen(tmp.c_str(), "wb");
  if (out == nullptr) {
    std::fclose(in);
    std::fprintf(stderr, "swap: cannot write %s\n", tmp.c_str());
    return false;
  }
  uint8_t buffer[1 << 16];
  size_t got = 0;
  bool wrote_ok = true;
  while ((got = std::fread(buffer, 1, sizeof(buffer), in)) > 0) {
    wrote_ok &= std::fwrite(buffer, 1, got, out) == got;
  }
  std::fclose(in);
  wrote_ok &= std::fclose(out) == 0;
  if (!wrote_ok || std::rename(tmp.c_str(), dst.c_str()) != 0) {
    std::remove(tmp.c_str());
    std::fprintf(stderr, "swap: cannot replace %s\n", dst.c_str());
    return false;
  }
  return true;
}

int RunSoak(const Flags& flags, const std::string& socket_path) {
  const std::string target_path = flags.GetString("target", "");
  const int clients = flags.GetCount<int>("clients", 4, 1);
  const int requests = flags.GetCount<int>("requests", 50, 1);
  const size_t rows = flags.GetCount<size_t>("rows", 32);
  const double corrupt_rate = flags.GetDouble("corrupt-rate", 0.15);
  const double oversize_rate = flags.GetDouble("oversize-rate", 0.05);
  const double tiny_deadline_rate =
      flags.GetDouble("tiny-deadline-rate", 0.15);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const std::string swap_src = flags.GetString("swap-src", "");
  const std::string swap_dst = flags.GetString("swap-dst", "");
  const int64_t swap_delay_ms = flags.GetInt("swap-delay-ms", 200);
  if (target_path.empty() || swap_src.empty() != swap_dst.empty() ||
      swap_delay_ms < 0) {
    std::fprintf(stderr,
                 "--soak needs --target=CSV (and sane counts; --swap-src "
                 "and --swap-dst come together)\n");
    return 2;
  }
  auto loaded = FeatureMatrix::FromCsvFile(target_path);
  if (!loaded.ok() || loaded.value().size() == 0) {
    std::fprintf(stderr, "cannot load %s\n", target_path.c_str());
    return 1;
  }
  const FeatureMatrix& matrix = loaded.value();

  serve::CodecLimits limits;
  std::vector<SoakCounters> counters(static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  // The swap thread (if requested) races the client traffic on purpose:
  // the artifact under the server's feet is replaced while requests are
  // in flight, and the soak still demands zero lost well-formed requests.
  const bool swap_enabled = !swap_src.empty();
  bool swap_ok = true;
  std::thread swapper;
  if (swap_enabled) {
    swapper = std::thread(
        [&] { swap_ok = SwapArtifact(swap_src, swap_dst, swap_delay_ms); });
  }
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      SoakClient(socket_path, matrix, limits, requests, rows, corrupt_rate,
                 oversize_rate, tiny_deadline_rate,
                 seed + static_cast<uint64_t>(c),
                 &counters[static_cast<size_t>(c)]);
    });
  }
  for (std::thread& thread : threads) thread.join();
  if (swapper.joinable()) swapper.join();

  SoakCounters total;
  for (const SoakCounters& c : counters) {
    total.sent += c.sent;
    total.ok += c.ok;
    total.degraded += c.degraded;
    total.rejected += c.rejected;
    total.transport_resets += c.transport_resets;
    total.lost_valid += c.lost_valid;
  }
  std::printf(
      "SOAK {\"sent\":%llu,\"ok\":%llu,\"degraded\":%llu,\"rejected\":%llu,"
      "\"transport_resets\":%llu,\"lost_valid\":%llu,\"swapped\":%d}\n",
      static_cast<unsigned long long>(total.sent),
      static_cast<unsigned long long>(total.ok),
      static_cast<unsigned long long>(total.degraded),
      static_cast<unsigned long long>(total.rejected),
      static_cast<unsigned long long>(total.transport_resets),
      static_cast<unsigned long long>(total.lost_valid),
      swap_enabled && swap_ok ? 1 : 0);
  // Every well-formed request must have been answered with a decodable
  // response; corrupted frames may legitimately cost their connection.
  // When a swap was requested, it must also have landed.
  return total.lost_valid == 0 && total.sent > 0 && swap_ok ? 0 : 1;
}

void PrintUsage(std::FILE* out, const char* prog) {
  std::fprintf(
      out,
      "usage: %s --models=DIR --socket=PATH\n"
      "    [--max-concurrent=2] [--queue=8] [--deadline-ms=1000]\n"
      "    [--max-deadline-ms=30000] [--min-full-resolve-ms=10]\n"
      "    [--memory-limit-mb=0] [--refresh-s=2] [--min-probe-sim=0.5]\n"
      "    [--max-frame-mb=64] [--knn-backend=kdtree|brute|ann]\n"
      "    [--recall=0.95] [--stats-out=FILE]\n"
      "  client: --connect=PATH with one of\n"
      "    --ping | --stats\n"
      "    --target=CSV [--op=resolve|classify] [--deadline-ms=N]\n"
      "        [--out=FILE]\n"
      "    --soak --target=CSV [--clients=4] [--requests=50] [--rows=32]\n"
      "        [--corrupt-rate=0.15] [--oversize-rate=0.05]\n"
      "        [--tiny-deadline-rate=0.15] [--seed=1]\n"
      "        [--swap-src=FILE --swap-dst=FILE [--swap-delay-ms=200]]\n"
      "  [--help] [--version]\n"
      "exit codes: 0 success, 1 transport/load failure, 2 invalid flags,\n"
      "4 request rejected (single-request client mode)\n",
      prog);
}

int Main(int argc, char** argv) {
  const Flags flags(
      argc, argv,
      {"models", "socket", "max-concurrent", "queue", "deadline-ms",
       "max-deadline-ms", "min-full-resolve-ms", "memory-limit-mb",
       "refresh-s", "min-probe-sim", "max-frame-mb", "knn-backend", "recall",
       "stats-out", "connect", "ping", "stats", "target", "op", "out", "soak",
       "clients", "requests", "rows", "corrupt-rate", "oversize-rate",
       "tiny-deadline-rate", "seed", "swap-src", "swap-dst", "swap-delay-ms",
       "help", "version"});
  if (flags.GetBool("help", false)) {
    PrintUsage(stdout, argv[0]);
    return 0;
  }
  // A peer closing mid-write (the server condemning a corrupt stream,
  // or a client gone away) must surface as a write error, not SIGPIPE.
  ::signal(SIGPIPE, SIG_IGN);
  SetLogLevel(LogLevel::kError);  // soak traffic would flood Warning logs
  const std::string connect = flags.GetString("connect", "");
  if (!connect.empty()) {
    if (flags.GetBool("soak", false)) return RunSoak(flags, connect);
    return RunSingleRequest(flags, connect);
  }
  return RunServer(flags);
}

}  // namespace
}  // namespace transer

int main(int argc, char** argv) { return transer::Main(argc, argv); }
