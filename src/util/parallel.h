#ifndef TRANSER_UTIL_PARALLEL_H_
#define TRANSER_UTIL_PARALLEL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/execution_context.h"
#include "util/random.h"
#include "util/status.h"

namespace transer {

// ---------------------------------------------------------------------
// Thread-count policy
// ---------------------------------------------------------------------

/// The process-wide default parallelism used wherever a caller passes
/// num_threads = 0. Initially std::thread::hardware_concurrency()
/// (clamped to >= 1); binaries override it from their --threads flag.
int DefaultThreadCount();

/// Sets the process-wide default. `n <= 0` restores the hardware
/// default. Affects only regions started after the call.
void SetDefaultThreadCount(int n);

/// Resolves a requested thread count: `requested > 0` wins, otherwise
/// DefaultThreadCount(). Inside an already-running parallel region the
/// answer is always 1 — nested regions run serially on their calling
/// lane instead of oversubscribing the pool, which also means a
/// parallel sweep executes each cell exactly as a single-threaded run
/// would (the determinism contract of the Table 2/3 journals).
int EffectiveThreadCount(int requested);

/// True while the calling thread is executing inside a ParallelFor
/// lane (used by EffectiveThreadCount; exposed for tests).
bool InParallelRegion();

// ---------------------------------------------------------------------
// Chunking
// ---------------------------------------------------------------------

/// \brief Static chunk plan over [0, n). Boundaries depend only on
/// (n, min_items_per_chunk) — never on the thread count — so per-chunk
/// RNG streams and ordered reductions are bit-identical for any
/// parallelism, including the serial path.
struct ChunkPlan {
  size_t items = 0;
  size_t chunk_size = 1;
  size_t num_chunks = 0;

  size_t Begin(size_t chunk) const { return chunk * chunk_size; }
  size_t End(size_t chunk) const {
    const size_t end = (chunk + 1) * chunk_size;
    return end < items ? end : items;
  }
};

/// Plans chunks of at least `min_items_per_chunk` items, targeting at
/// most kMaxChunksPerRegion chunks.
ChunkPlan PlanChunks(size_t n, size_t min_items_per_chunk = 1);

/// Upper bound on chunks per region; keeps scheduling overhead bounded
/// while leaving enough slack for load balancing at any sane thread
/// count.
inline constexpr size_t kMaxChunksPerRegion = 256;

// ---------------------------------------------------------------------
// Thread pool
// ---------------------------------------------------------------------

/// \brief Lazily-started shared worker pool. Threads are spawned on
/// first demand (never at static-init time) and grown as regions
/// request more lanes, up to a hard cap; they idle on a condition
/// variable between regions. Use through ParallelFor — Run() is the
/// low-level primitive.
class ThreadPool {
 public:
  /// The process-wide pool. First call constructs it; workers start
  /// only when a Run() actually needs them.
  static ThreadPool& Global();

  /// Executes `work` on up to `lanes` lanes: the calling thread always
  /// participates, and up to `lanes - 1` pool workers join. `work` must
  /// be callable concurrently; each lane calls it exactly once and the
  /// function typically drains an atomic chunk queue. Returns when the
  /// caller's call and every joined worker's call have finished.
  ///
  /// Safe to call from inside a worker lane (the nested call simply
  /// runs `work` on the calling lane; see EffectiveThreadCount) and
  /// from several threads at once.
  void Run(int lanes, const std::function<void()>& work);

  /// Workers currently alive (grown on demand; for tests/diagnostics).
  int worker_count() const;

  /// Hard cap on pool workers (oversubscription beyond the hardware
  /// width is allowed — determinism tests exercise --threads=8 on any
  /// machine).
  static constexpr int kMaxWorkers = 128;

  ~ThreadPool();

 private:
  ThreadPool() = default;

  struct Region;

  void EnsureWorkers(int wanted);
  void WorkerLoop();

  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::shared_ptr<Region>> queue_;
  std::vector<std::thread> workers_;
  bool shutting_down_ = false;
};

// ---------------------------------------------------------------------
// Parallel loops
// ---------------------------------------------------------------------

/// \brief Tuning knobs for one parallel region.
struct ParallelOptions {
  /// 0 = DefaultThreadCount(). Always serial inside a parallel region.
  int num_threads = 0;
  /// Minimum items per chunk; raise it when the per-item body is tiny.
  /// Part of the static chunk plan, so it must not vary with thread
  /// count between runs that are expected to match bit-for-bit.
  size_t min_items_per_chunk = 1;
  /// Optional sink: when the region fails with a budget/cancellation
  /// status, the outcome is recorded once from the calling thread
  /// (workers never touch diagnostics — RunDiagnostics is not
  /// thread-safe).
  RunDiagnostics* diagnostics = nullptr;
};

/// Chunk body: process [begin, end); `chunk` is the chunk's index in
/// the static plan. Returning a non-OK status stops the region: the
/// first error wins and the remaining chunks are cancelled.
using ParallelChunkBody =
    std::function<Status(size_t begin, size_t end, size_t chunk)>;

/// Runs `body` over the static chunk plan of [0, n). Workers poll
/// `context` (deadline + cancellation) before every chunk and may
/// charge its memory budget from inside the body; the first non-OK
/// status — body error, TE, ME or cancellation — wins and cancels all
/// not-yet-started chunks. Chunk boundaries are independent of the
/// thread count, so any body that writes to per-item or per-chunk slots
/// produces bit-identical results at every parallelism level.
Status ParallelFor(const ExecutionContext& context, const std::string& scope,
                   size_t n, const ParallelChunkBody& body,
                   const ParallelOptions& options = {});

/// Seeded chunk body: as ParallelChunkBody plus a chunk-private Rng.
using SeededParallelChunkBody = std::function<Status(
    size_t begin, size_t end, size_t chunk, Rng& rng)>;

/// ParallelFor with a deterministic per-chunk RNG stream: chunk c draws
/// from Rng(seed).Fork(c), a function of (seed, c) alone — not of the
/// thread count, the execution order, or any other chunk's consumption.
Status ParallelForSeeded(const ExecutionContext& context,
                         const std::string& scope, size_t n, uint64_t seed,
                         const SeededParallelChunkBody& body,
                         const ParallelOptions& options = {});

}  // namespace transer

#endif  // TRANSER_UTIL_PARALLEL_H_
