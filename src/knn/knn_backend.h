#ifndef TRANSER_KNN_KNN_BACKEND_H_
#define TRANSER_KNN_KNN_BACKEND_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "util/diagnostics.h"
#include "util/execution_context.h"
#include "util/parallel.h"
#include "util/status.h"

namespace transer {

/// \brief One k-NN answer: the row index of a stored point and its
/// Euclidean distance to the query.
///
/// Neighbour lists are ordered by (distance, index) — the index breaks
/// distance ties — so every top-k answer is uniquely defined and the
/// exact backends return bit-identical lists at any thread count.
struct Neighbour {
  size_t index = 0;
  double distance = 0.0;
};

/// The canonical (distance, index) ordering of neighbour lists.
inline bool NeighbourBefore(const Neighbour& a, const Neighbour& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.index < b.index;
}

/// \brief Offers `candidate` to a bounded max-heap of the k best
/// neighbours (heap front = worst kept, ordered by NeighbourBefore).
///
/// Because (distance, index) is a strict total order, the kept set —
/// and therefore the sorted top-k list — is independent of the order in
/// which candidates arrive. Every k-NN backend (KD-tree leaf scans,
/// brute-force single queries, the tiled batch path, and the ANN
/// graph's result set) funnels through this one helper, which is what
/// makes their answers bit-identical to each other at any thread count.
inline void PushBoundedNeighbour(std::vector<Neighbour>* heap, size_t k,
                                 const Neighbour& candidate) {
  if (heap->size() < k) {
    heap->push_back(candidate);
    std::push_heap(heap->begin(), heap->end(), NeighbourBefore);
  } else if (NeighbourBefore(candidate, heap->front())) {
    std::pop_heap(heap->begin(), heap->end(), NeighbourBefore);
    heap->back() = candidate;
    std::push_heap(heap->begin(), heap->end(), NeighbourBefore);
  }
}

/// \brief Uniform interface over the nearest-neighbour indexes. The
/// exact backends (KdTree, BruteForceKnn) answer the true top-k; the
/// approximate backend (AnnGraph) answers within its recall target.
/// Every implementation is deterministic: for a fixed build input and
/// seed, Query/QueryBatch return the same bytes at any thread count.
class KnnBackend {
 public:
  virtual ~KnnBackend() = default;

  /// Short identifier: "kd_tree", "brute_force", "ann_graph".
  virtual std::string backend_name() const = 0;

  virtual size_t size() const = 0;
  virtual size_t dimensions() const = 0;

  /// The `k` nearest stored points to `query`, closest first (fewer when
  /// the index holds fewer). `skip_index` >= 0 excludes that stored row.
  virtual std::vector<Neighbour> Query(std::span<const double> query,
                                       size_t k,
                                       ptrdiff_t skip_index = -1) const = 0;

  /// One Query per row of `queries` over the parallel runtime. Results
  /// land in row order, bit-identical at any thread count; workers poll
  /// `context` per chunk. With `skip_self`, query row i excludes stored
  /// row i (queries must be the indexed matrix).
  virtual Result<std::vector<std::vector<Neighbour>>> QueryBatch(
      const Matrix& queries, size_t k, const ExecutionContext& context,
      const std::string& scope = "knn", const ParallelOptions& options = {},
      bool skip_self = false) const = 0;
};

/// Which index implementation a caller wants.
enum class KnnBackendKind {
  kKdTree = 0,
  kBruteForce,
  kAnnGraph,
};

/// "kd_tree" / "brute_force" / "ann_graph".
const char* KnnBackendKindName(KnnBackendKind kind);

/// Parses "kd_tree" / "kdtree" / "brute_force" / "brute" / "ann_graph" /
/// "ann". Returns false (and leaves `out` untouched) on anything else.
bool ParseKnnBackendKind(const std::string& text, KnnBackendKind* out);

/// \brief Shape and search knobs of the navigable-graph ANN index.
/// Defined here (not in ann_graph.h) so callers can carry backend
/// options without depending on the graph implementation.
struct AnnGraphOptions {
  /// Neighbours kept per node on the upper layers (HNSW's M); layer 0
  /// keeps 2x. Larger = better recall, more memory, slower build.
  size_t max_degree = 16;
  /// Beam width while building. Larger = better graph, slower build.
  size_t ef_construction = 96;
  /// Beam width while searching. 0 derives it from `recall_target` and
  /// the requested k (see AnnGraph::EffectiveEf).
  size_t ef_search = 0;
  /// Requested fraction of the true top-k the search should return, in
  /// (0, 1]. Only consulted when `ef_search` is 0. A target of 1.0 asks
  /// for exactness — CreateKnnBackend answers it with an exact backend
  /// instead of the graph.
  double recall_target = 0.95;
  /// Seed of the level-assignment hash. Build and search are pure
  /// functions of (points, options, seed): two builds from the same
  /// inputs produce byte-identical graphs and answers.
  uint64_t seed = 0x5eedULL;
};

/// \brief Factory request: which backend plus its knobs.
struct KnnBackendOptions {
  KnnBackendKind kind = KnnBackendKind::kKdTree;
  AnnGraphOptions ann;
  /// Build lanes (KD-tree subtree builds). Graph build is serial by
  /// construction; queries parallelise in QueryBatch regardless.
  int num_threads = 1;
};

/// Builds the requested index over the rows of `points`, budgeted
/// against `context` (storage reserved for the index's lifetime;
/// deadline/cancellation polled during the build). When an AnnGraph is
/// requested with recall_target >= 1.0 and ef_search == 0, the factory
/// returns a KdTree instead — exactness was asked for — and records a
/// kAnnExactFallback event on `diagnostics` (may be null).
Result<std::unique_ptr<KnnBackend>> CreateKnnBackend(
    const Matrix& points, const KnnBackendOptions& options,
    const ExecutionContext& context, const std::string& scope = "knn",
    RunDiagnostics* diagnostics = nullptr);

/// Unbudgeted convenience overload (unlimited context) for callers that
/// do not manage an execution context, e.g. classifier Fit paths.
Result<std::unique_ptr<KnnBackend>> CreateKnnBackend(
    const Matrix& points, const KnnBackendOptions& options);

}  // namespace transer

#endif  // TRANSER_KNN_KNN_BACKEND_H_
