#ifndef TRANSER_KNN_ANN_GRAPH_H_
#define TRANSER_KNN_ANN_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "knn/knn_backend.h"
#include "linalg/matrix.h"
#include "util/execution_context.h"
#include "util/parallel.h"
#include "util/status.h"

namespace transer {

/// \brief Approximate k-NN over a hierarchical navigable small-world
/// graph [Malkov & Yashunin 2018] — the sub-linear candidate search
/// that keeps SEL viable at millions of instances.
///
/// Determinism contract (DESIGN.md §13): the graph is a pure function
/// of (points, options, seed) at any lane count. Levels come from a
/// SplitMix64 hash of (seed, row index) — never from a shared RNG
/// stream — and every candidate set is ordered by the canonical
/// (distance, index) comparator. A matrix build (constructor or Create)
/// inserts rows in batches whose boundaries depend only on the row
/// count: each row of a batch searches the graph frozen at the batch
/// start in parallel, scans its earlier batch-mates exactly and picks
/// its links; back-links are then applied per target node, in insert
/// order, in parallel across nodes. No step reads state another lane
/// writes, so builds at 1, 2 or 8 lanes are byte-identical. Queries
/// only read the graph; QueryBatch chunks rows over the parallel
/// runtime, so answers are bit-identical at any thread count. Unlike
/// the exact backends the *answers* are approximate: the search
/// explores a beam of `ef` candidates and returns the best k found,
/// trading recall for a roughly O(ef · M · log n) query instead of
/// O(n).
///
/// The graph is grow-only: Insert appends one point and links it
/// immediately as a batch of one (no rebuild, no tombstones), which is
/// what the streaming path (stream/dynamic_knn) needs; a sequence of
/// Inserts is a pure function of the insert stream, so replay is
/// deterministic. Insert is not thread-safe and must not race queries;
/// the streaming resolver already serialises applies.
class AnnGraph : public KnnBackend {
 public:
  /// An empty grow-only graph over `dimensions`-wide points.
  AnnGraph(size_t dimensions, AnnGraphOptions options = {});

  /// Builds over all rows of `points` (copied) by batched insertion on
  /// the calling thread — the build of Create, without a budget.
  explicit AnnGraph(const Matrix& points, AnnGraphOptions options = {});

  /// Budgeted build mirroring KdTree::Create, on `num_threads` lanes
  /// (0 = process default; the graph does not depend on it): reserves
  /// the estimated storage against `context` for the graph's lifetime
  /// and polls the deadline / cancellation from every lane, so an
  /// expiring budget surfaces as 'ME' / 'TE' (with the reservation
  /// released) instead of an over-budget index.
  static Result<AnnGraph> Create(const Matrix& points,
                                 const AnnGraphOptions& options,
                                 const ExecutionContext& context,
                                 const std::string& scope = "ann_graph",
                                 RunDiagnostics* diagnostics = nullptr,
                                 int num_threads = 1);

  /// Estimated resident bytes of the graph over `points` (budgeting).
  static size_t StorageBytes(const Matrix& points,
                             const AnnGraphOptions& options);

  /// Appends one point and links it into the graph as a batch of one
  /// row, on the calling thread. Mismatching widths fail with
  /// InvalidArgument.
  Status Insert(std::span<const double> point);

  // --- KnnBackend ---
  std::string backend_name() const override { return "ann_graph"; }
  size_t size() const override { return rows_; }
  size_t dimensions() const override { return dims_; }

  std::vector<Neighbour> Query(std::span<const double> query, size_t k,
                               ptrdiff_t skip_index = -1) const override;

  Result<std::vector<std::vector<Neighbour>>> QueryBatch(
      const Matrix& queries, size_t k, const ExecutionContext& context,
      const std::string& scope = "ann_graph",
      const ParallelOptions& options = {},
      bool skip_self = false) const override;

  /// The search beam width used for a k-neighbour query: ef_search when
  /// set, otherwise derived from recall_target (calibrated against
  /// bench/ann_recall — wider beams for higher targets).
  size_t EffectiveEf(size_t k) const;

  /// Stored point by row index (insert order).
  std::span<const double> Point(size_t index) const;

  const AnnGraphOptions& options() const { return options_; }
  /// Top layer of the current entry point (0 for a 1-layer graph).
  size_t max_level() const { return rows_ == 0 ? 0 : (size_t)max_level_; }
  /// Actual resident bytes of the adjacency lists + point storage.
  size_t GraphBytes() const;
  /// Total directed edges over all layers (telemetry).
  size_t EdgeCount() const;
  /// Node `node`'s adjacency on `layer` in stored order; empty above the
  /// node's top layer. Lets tests compare whole graphs byte for byte.
  std::span<const uint32_t> Links(size_t node, size_t layer) const;

 private:
  /// Links of one node: adjacency per layer, layer 0 first. Layer 0
  /// keeps up to 2·max_degree neighbours, upper layers max_degree.
  using NodeLinks = std::vector<std::vector<uint32_t>>;

  /// Deterministic level for row `index`: geometric with mean
  /// 1/ln(max_degree), from a SplitMix64 hash of (seed, index).
  int LevelForIndex(size_t index) const;

  /// Stores `point` as row rows_: coordinates, norm, level and empty
  /// per-layer link lists. The row is unlinked until its batch runs.
  void AppendPoint(std::span<const double> point);

  /// Appends every row of `points` and links them batch by batch.
  Status Build(const Matrix& points, const ExecutionContext& context,
               const std::string& scope, RunDiagnostics* diagnostics,
               int num_threads);

  /// Links the appended rows [begin, end) as one batch. Phase 1, in
  /// parallel over rows: LinkForward. Phase 2, in parallel over target
  /// nodes: each node receives its back-links in insert order, shrinking
  /// after every addition that overflows it. Then the entry point moves
  /// to the first row that reached a new top layer.
  Status LinkBatch(size_t begin, size_t end, const ExecutionContext& context,
                   const std::string& scope, const ParallelOptions& lanes);

  /// Sets the forward links of row `index` in the batch starting at
  /// `batch_begin`: descends and beam-searches the graph as it stood at
  /// `batch_begin`, merges exact distances to the batch-mates in
  /// [batch_begin, index), and keeps SelectNeighbours of the ef best per
  /// layer. Reads only rows < batch_begin's lists; writes only row
  /// `index`'s.
  void LinkForward(size_t index, size_t batch_begin);

  /// Appends `source` to node `node`'s layer-`layer` list, shrinking the
  /// list when it exceeds LayerCapacity. Touches no other node's list.
  void AddBackLink(size_t node, int layer, uint32_t source);

  double DistSq(std::span<const double> query, double query_norm,
                size_t row) const;

  /// Greedy descent on `layer`: repeatedly moves to the best neighbour
  /// (by (distance, index)) until no neighbour improves. Updates
  /// `best` in place.
  void GreedyStep(std::span<const double> query, double query_norm,
                  int layer, Neighbour* best) const;

  /// Beam search on `layer` from entry `start`: returns the best
  /// `ef` nodes found, sorted ascending by (distance, index).
  std::vector<Neighbour> SearchLayer(std::span<const double> query,
                                     double query_norm, Neighbour start,
                                     size_t ef, int layer) const;

  /// HNSW's diversity heuristic: walks `candidates` (ascending) and
  /// keeps c only when c is closer to the query than to every already
  /// kept node — up to `max_keep`. Deterministic: pure function of the
  /// ordered candidate list.
  std::vector<uint32_t> SelectNeighbours(
      const std::vector<Neighbour>& candidates, size_t max_keep) const;

  /// Re-applies SelectNeighbours to node `node`'s layer-`layer` list
  /// after a back-link pushed it past its capacity. Reads only that list
  /// and the stored points.
  void ShrinkLinks(size_t node, int layer, size_t max_keep);

  size_t LayerCapacity(int layer) const {
    return layer == 0 ? 2 * options_.max_degree : options_.max_degree;
  }

  AnnGraphOptions options_;
  size_t dims_ = 0;
  size_t rows_ = 0;
  std::vector<double> data_;    ///< row-major points, grow-only
  std::vector<double> norms_;   ///< squared norm per row
  std::vector<int> levels_;     ///< top layer per row
  std::vector<NodeLinks> links_;
  uint32_t entry_ = 0;          ///< entry point (highest-level node)
  int max_level_ = 0;
  double level_mult_ = 0.0;     ///< 1 / ln(max_degree)
  /// Budget holding of a Create()d graph; released on destruction.
  ScopedReservation memory_;
};

}  // namespace transer

#endif  // TRANSER_KNN_ANN_GRAPH_H_
