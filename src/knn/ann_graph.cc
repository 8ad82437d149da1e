#include "knn/ann_graph.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "linalg/kernels.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace transer {

namespace {

/// Reverse of NeighbourBefore, for min-heaps of candidates (front =
/// best unexpanded node).
bool NeighbourAfter(const Neighbour& a, const Neighbour& b) {
  return NeighbourBefore(b, a);
}

/// SplitMix64 finaliser: the level-assignment hash. A per-index hash —
/// not a sequential RNG stream — so the level of row i never depends on
/// how many rows were inserted before it.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Per-thread search scratch: an epoch-stamped visited mark per stored
/// row plus the two heaps, reused across queries so the search
/// allocates nothing steady-state. The epoch only ever rises, so a mark
/// always holds a past epoch until its row is visited again: the marks
/// stay valid across graphs and across a graph's growth without being
/// wiped.
struct AnnScratch {
  uint32_t epoch = 0;
  std::vector<uint32_t> mark;
  std::vector<Neighbour> candidates;  ///< min-heap by NeighbourAfter
  std::vector<Neighbour> results;     ///< bounded max-heap (ef best)

  /// Starts a fresh visited set covering rows [0, rows).
  void Begin(size_t rows) {
    // Grow geometrically: a grow-only graph gains one row per Insert,
    // and re-sizing to exactly `rows` would zero-fill all n marks on
    // every insert. New slots are 0, which is never a live epoch.
    if (mark.size() < rows) mark.resize(std::max(rows, 2 * mark.size()), 0);
    if (++epoch == 0) {  // epoch wrapped: wipe the stale marks
      std::fill(mark.begin(), mark.end(), 0);
      epoch = 1;
    }
    candidates.clear();
    results.clear();
  }

  bool Visited(size_t row) const { return mark[row] == epoch; }
  void Visit(size_t row) { mark[row] = epoch; }
};
thread_local AnnScratch tls_ann;

/// Largest insertion batch of a matrix build. Every row scans its
/// earlier batch-mates exactly, so that scan grows with the square of
/// the batch; a few hundred rows keeps it well below the beam search
/// while leaving each lane dozens of rows per batch.
constexpr size_t kMaxBatchRows = 256;

/// End of the batch that starts at row `begin` — the batch plan, a pure
/// function of the row count and never of the lane count. Prefix
/// doubling: a batch holds as many rows as the graph it searches (row 0
/// alone first), capped at kMaxBatchRows, so the small early graph
/// grows in small batches.
size_t BatchEnd(size_t begin, size_t rows) {
  return std::min(rows, begin + std::clamp<size_t>(begin, 1, kMaxBatchRows));
}

/// One back-link of a batch: `source` (a new row) joins `target`'s list
/// on `layer`.
struct BackLink {
  uint32_t target = 0;
  uint32_t source = 0;
  int layer = 0;
};

}  // namespace

AnnGraph::AnnGraph(size_t dimensions, AnnGraphOptions options)
    : options_(options), dims_(dimensions) {
  TRANSER_CHECK(options_.max_degree >= 2);
  options_.ef_construction =
      std::max(options_.ef_construction, options_.max_degree + 1);
  level_mult_ = 1.0 / std::log(static_cast<double>(options_.max_degree));
}

AnnGraph::AnnGraph(const Matrix& points, AnnGraphOptions options)
    : AnnGraph(points.cols(), options) {
  const Status built = Build(points, ExecutionContext::Unlimited(),
                             "ann_graph", nullptr, /*num_threads=*/1);
  TRANSER_CHECK(built.ok());
}

Result<AnnGraph> AnnGraph::Create(const Matrix& points,
                                  const AnnGraphOptions& options,
                                  const ExecutionContext& context,
                                  const std::string& scope,
                                  RunDiagnostics* diagnostics,
                                  int num_threads) {
  TRANSER_RETURN_IF_ERROR(context.Check(scope, diagnostics));
  ScopedReservation reservation;
  TRANSER_RETURN_IF_ERROR(reservation.Acquire(
      context, scope, StorageBytes(points, options), diagnostics));
  AnnGraph graph(points.cols(), options);
  TRANSER_RETURN_IF_ERROR(
      graph.Build(points, context, scope, diagnostics, num_threads));
  graph.memory_ = std::move(reservation);
  return graph;
}

size_t AnnGraph::StorageBytes(const Matrix& points,
                              const AnnGraphOptions& options) {
  // Point copy + norms + levels, plus adjacency: nearly every node lives
  // only on layer 0 (capacity 2M) and the expected number of upper
  // layers per node is 1/(M-1); one vector header per layer list.
  const size_t n = points.rows();
  const size_t per_node_links =
      (3 * options.max_degree) * sizeof(uint32_t) +
      2 * sizeof(std::vector<uint32_t>) + sizeof(NodeLinks);
  return n * points.cols() * sizeof(double) + n * sizeof(double) +
         n * sizeof(int) + n * per_node_links;
}

int AnnGraph::LevelForIndex(size_t index) const {
  const uint64_t h = Mix64(options_.seed ^ Mix64(index));
  // Map the hash to u in (0, 1]; -ln(u) * mult is the standard
  // geometric level draw. 2^-64 floors u away from zero.
  const double u =
      (static_cast<double>(h >> 11) + 1.0) * (1.0 / 9007199254740992.0);
  const int level = static_cast<int>(-std::log(u) * level_mult_);
  return std::min(level, 32);
}

double AnnGraph::DistSq(std::span<const double> query, double query_norm,
                        size_t row) const {
  return kernels::PairSquaredL2(
      query, query_norm,
      std::span<const double>(data_.data() + row * dims_, dims_),
      norms_[row]);
}

void AnnGraph::AppendPoint(std::span<const double> point) {
  data_.insert(data_.end(), point.begin(), point.end());
  norms_.push_back(kernels::SquaredNorm(
      std::span<const double>(data_.data() + rows_ * dims_, dims_)));
  const int level = LevelForIndex(rows_);
  levels_.push_back(level);
  links_.emplace_back(static_cast<size_t>(level) + 1);
  ++rows_;
}

Status AnnGraph::Build(const Matrix& points, const ExecutionContext& context,
                       const std::string& scope, RunDiagnostics* diagnostics,
                       int num_threads) {
  const size_t n = points.rows();
  data_.reserve(n * dims_);
  norms_.reserve(n);
  levels_.reserve(n);
  links_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    AppendPoint(std::span<const double>(points.Row(i), points.cols()));
  }
  ParallelOptions lanes;
  lanes.num_threads = num_threads;
  lanes.diagnostics = diagnostics;
  // ParallelFor polls the context before every chunk, so a deadline or
  // cancellation stops the build within one batch.
  for (size_t begin = 0; begin < n;) {
    const size_t end = BatchEnd(begin, n);
    TRANSER_RETURN_IF_ERROR(LinkBatch(begin, end, context, scope, lanes));
    begin = end;
  }
  return Status::OK();
}

Status AnnGraph::LinkBatch(size_t begin, size_t end,
                           const ExecutionContext& context,
                           const std::string& scope,
                           const ParallelOptions& lanes) {
  // Phase 1: rows are independent — each writes only its own lists and
  // reads only lists of rows before `begin`, which nobody writes until
  // phase 2 — so any chunking yields the same links.
  TRANSER_RETURN_IF_ERROR(ParallelFor(
      context, scope, end - begin,
      [&](size_t lo, size_t hi, size_t /*chunk*/) -> Status {
        for (size_t row = begin + lo; row < begin + hi; ++row) {
          LinkForward(row, begin);
        }
        return Status::OK();
      },
      lanes));

  // Phase 2: group the back-links by target node, in insert order
  // within each node. A node's shrink reads only its own list and the
  // stored points, so nodes apply their additions in parallel, each in
  // insert order, with the same result at any lane count.
  std::vector<BackLink> back_links;
  for (size_t source = begin; source < end; ++source) {
    for (int layer = 0; layer <= levels_[source]; ++layer) {
      for (uint32_t target : links_[source][layer]) {
        back_links.push_back(
            BackLink{target, static_cast<uint32_t>(source), layer});
      }
    }
  }
  std::sort(back_links.begin(), back_links.end(),
            [](const BackLink& a, const BackLink& b) {
              if (a.target != b.target) return a.target < b.target;
              if (a.source != b.source) return a.source < b.source;
              return a.layer < b.layer;
            });
  std::vector<size_t> node_begin;  // first back-link of each target node
  for (size_t i = 0; i < back_links.size(); ++i) {
    if (i == 0 || back_links[i].target != back_links[i - 1].target) {
      node_begin.push_back(i);
    }
  }
  node_begin.push_back(back_links.size());
  TRANSER_RETURN_IF_ERROR(ParallelFor(
      context, scope, node_begin.size() - 1,
      [&](size_t lo, size_t hi, size_t /*chunk*/) -> Status {
        for (size_t i = node_begin[lo]; i < node_begin[hi]; ++i) {
          const BackLink& link = back_links[i];
          AddBackLink(link.target, link.layer, link.source);
        }
        return Status::OK();
      },
      lanes));

  for (size_t row = begin; row < end; ++row) {
    if (row == 0 || levels_[row] > max_level_) {
      entry_ = static_cast<uint32_t>(row);
      max_level_ = levels_[row];
    }
  }
  return Status::OK();
}

void AnnGraph::LinkForward(size_t index, size_t batch_begin) {
  const std::span<const double> point(data_.data() + index * dims_, dims_);
  const double norm = norms_[index];
  const int level = levels_[index];
  // The frozen graph is rows [0, batch_begin); empty only for row 0.
  const bool has_graph = batch_begin > 0;

  // Greedy descent through the frozen layers above the row's top layer,
  // homing in on its neighbourhood.
  Neighbour best;
  if (has_graph) {
    best = Neighbour{entry_, DistSq(point, norm, entry_)};
    for (int layer = max_level_; layer > level; --layer) {
      GreedyStep(point, norm, layer, &best);
    }
  }

  std::vector<Neighbour> candidates;
  for (int layer = level; layer >= 0; --layer) {
    candidates.clear();
    if (has_graph && layer <= max_level_) {
      candidates =
          SearchLayer(point, norm, best, options_.ef_construction, layer);
      best = candidates.front();  // nearest graph node seeds the next layer
    }
    // Earlier batch-mates are not in the frozen graph yet: offer each
    // one on this layer to the ef best by exact distance.
    if (index > batch_begin) {
      std::make_heap(candidates.begin(), candidates.end(), NeighbourBefore);
      for (size_t mate = batch_begin; mate < index; ++mate) {
        if (levels_[mate] < layer) continue;
        PushBoundedNeighbour(&candidates, options_.ef_construction,
                             Neighbour{mate, DistSq(point, norm, mate)});
      }
      std::sort(candidates.begin(), candidates.end(), NeighbourBefore);
    }
    links_[index][layer] = SelectNeighbours(candidates, options_.max_degree);
  }
}

void AnnGraph::AddBackLink(size_t node, int layer, uint32_t source) {
  std::vector<uint32_t>& links = links_[node][layer];
  links.push_back(source);
  if (links.size() > LayerCapacity(layer)) {
    ShrinkLinks(node, layer, LayerCapacity(layer));
  }
}

Status AnnGraph::Insert(std::span<const double> point) {
  if (point.size() != dims_) {
    return Status::InvalidArgument(
        "ann_graph: point width " + std::to_string(point.size()) +
        " != index width " + std::to_string(dims_));
  }
  AppendPoint(point);
  // A batch of one row, on the calling thread: its frozen graph is every
  // earlier row.
  ParallelOptions one_lane;
  one_lane.num_threads = 1;
  return LinkBatch(rows_ - 1, rows_, ExecutionContext::Unlimited(),
                   "ann_graph", one_lane);
}

void AnnGraph::GreedyStep(std::span<const double> query, double query_norm,
                          int layer, Neighbour* best) const {
  for (;;) {
    bool improved = false;
    const std::vector<uint32_t>& neighbours = links_[best->index][layer];
    for (uint32_t nb : neighbours) {
      const Neighbour candidate{nb, DistSq(query, query_norm, nb)};
      if (NeighbourBefore(candidate, *best)) {
        *best = candidate;
        improved = true;
      }
    }
    if (!improved) return;
  }
}

std::vector<Neighbour> AnnGraph::SearchLayer(std::span<const double> query,
                                             double query_norm,
                                             Neighbour start, size_t ef,
                                             int layer) const {
  AnnScratch& scratch = tls_ann;
  scratch.Begin(rows_);
  scratch.Visit(start.index);
  scratch.candidates.push_back(start);
  PushBoundedNeighbour(&scratch.results, ef, start);

  while (!scratch.candidates.empty()) {
    std::pop_heap(scratch.candidates.begin(), scratch.candidates.end(),
                  NeighbourAfter);
    const Neighbour current = scratch.candidates.back();
    scratch.candidates.pop_back();
    // The beam is exhausted once the best unexpanded node is worse than
    // the worst kept result. (distance, index) is a strict total order,
    // so this termination point is deterministic.
    if (scratch.results.size() >= ef &&
        NeighbourBefore(scratch.results.front(), current)) {
      break;
    }
    // Neighbours expand in stored adjacency order — a pure function of
    // the build — so the visited set and heap contents never depend on
    // timing or thread count.
    for (uint32_t nb : links_[current.index][layer]) {
      if (scratch.Visited(nb)) continue;
      scratch.Visit(nb);
      const Neighbour candidate{nb, DistSq(query, query_norm, nb)};
      if (scratch.results.size() < ef ||
          NeighbourBefore(candidate, scratch.results.front())) {
        scratch.candidates.push_back(candidate);
        std::push_heap(scratch.candidates.begin(), scratch.candidates.end(),
                       NeighbourAfter);
        PushBoundedNeighbour(&scratch.results, ef, candidate);
      }
    }
  }

  std::vector<Neighbour> sorted(scratch.results.begin(),
                                scratch.results.end());
  std::sort(sorted.begin(), sorted.end(), NeighbourBefore);
  return sorted;
}

std::vector<uint32_t> AnnGraph::SelectNeighbours(
    const std::vector<Neighbour>& candidates, size_t max_keep) const {
  // HNSW's select-by-diversity: keep c only when no already kept node
  // is closer to c than the query is — spreading the links across
  // directions instead of clustering them, which is what makes the
  // greedy routing converge.
  std::vector<uint32_t> kept;
  kept.reserve(std::min(max_keep, candidates.size()));
  for (const Neighbour& c : candidates) {
    if (kept.size() >= max_keep) break;
    const std::span<const double> c_point(data_.data() + c.index * dims_,
                                          dims_);
    bool diverse = true;
    for (uint32_t other : kept) {
      const double d = kernels::PairSquaredL2(
          c_point, norms_[c.index],
          std::span<const double>(data_.data() + other * dims_, dims_),
          norms_[other]);
      if (d < c.distance) {
        diverse = false;
        break;
      }
    }
    if (diverse) kept.push_back(static_cast<uint32_t>(c.index));
  }
  // Fill any remaining capacity with the nearest skipped candidates so
  // sparse regions still get their full degree.
  if (kept.size() < max_keep) {
    for (const Neighbour& c : candidates) {
      if (kept.size() >= max_keep) break;
      const uint32_t idx = static_cast<uint32_t>(c.index);
      if (std::find(kept.begin(), kept.end(), idx) == kept.end()) {
        kept.push_back(idx);
      }
    }
  }
  return kept;
}

void AnnGraph::ShrinkLinks(size_t node, int layer, size_t max_keep) {
  const std::span<const double> point(data_.data() + node * dims_, dims_);
  std::vector<Neighbour> candidates;
  candidates.reserve(links_[node][layer].size());
  for (uint32_t nb : links_[node][layer]) {
    candidates.push_back(Neighbour{nb, DistSq(point, norms_[node], nb)});
  }
  std::sort(candidates.begin(), candidates.end(), NeighbourBefore);
  links_[node][layer] = SelectNeighbours(candidates, max_keep);
}

size_t AnnGraph::EffectiveEf(size_t k) const {
  if (options_.ef_search > 0) return std::max(options_.ef_search, k);
  // Calibrated against bench/ann_recall (n = 200k, d = 64, M = 16):
  // beam = 128·r² reaches measured recall ≈ r + a small margin across
  // the committed scenarios; the k + 8 floor keeps tiny-k queries from
  // starving the beam.
  const double r = std::clamp(options_.recall_target, 0.0, 1.0);
  const size_t derived = static_cast<size_t>(std::ceil(128.0 * r * r));
  return std::max(k + 8, derived);
}

std::span<const double> AnnGraph::Point(size_t index) const {
  TRANSER_CHECK(index < rows_);
  return std::span<const double>(data_.data() + index * dims_, dims_);
}

size_t AnnGraph::GraphBytes() const {
  size_t bytes = data_.capacity() * sizeof(double) +
                 norms_.capacity() * sizeof(double) +
                 levels_.capacity() * sizeof(int) +
                 links_.capacity() * sizeof(NodeLinks);
  for (const NodeLinks& node : links_) {
    bytes += node.capacity() * sizeof(std::vector<uint32_t>);
    for (const std::vector<uint32_t>& layer : node) {
      bytes += layer.capacity() * sizeof(uint32_t);
    }
  }
  return bytes;
}

size_t AnnGraph::EdgeCount() const {
  size_t edges = 0;
  for (const NodeLinks& node : links_) {
    for (const std::vector<uint32_t>& layer : node) edges += layer.size();
  }
  return edges;
}

std::span<const uint32_t> AnnGraph::Links(size_t node, size_t layer) const {
  TRANSER_CHECK(node < rows_);
  if (layer >= links_[node].size()) return {};
  return links_[node][layer];
}

std::vector<Neighbour> AnnGraph::Query(std::span<const double> query,
                                       size_t k,
                                       ptrdiff_t skip_index) const {
  TRANSER_CHECK_EQ(query.size(), dims_);
  if (k == 0 || rows_ == 0) return {};
  const double query_norm = kernels::SquaredNorm(query);
  Neighbour best{entry_, DistSq(query, query_norm, entry_)};
  for (int layer = max_level_; layer > 0; --layer) {
    GreedyStep(query, query_norm, layer, &best);
  }
  // One extra beam slot when a row is excluded, so a full-k answer
  // survives the filter.
  const size_t ef =
      std::max(EffectiveEf(k), k + (skip_index >= 0 ? size_t{1} : size_t{0}));
  std::vector<Neighbour> found =
      SearchLayer(query, query_norm, best, ef, /*layer=*/0);
  std::vector<Neighbour> out;
  out.reserve(std::min(k, found.size()));
  for (const Neighbour& n : found) {
    if (static_cast<ptrdiff_t>(n.index) == skip_index) continue;
    out.push_back(Neighbour{n.index, std::sqrt(n.distance)});
    if (out.size() == k) break;
  }
  return out;
}

Result<std::vector<std::vector<Neighbour>>> AnnGraph::QueryBatch(
    const Matrix& queries, size_t k, const ExecutionContext& context,
    const std::string& scope, const ParallelOptions& options,
    bool skip_self) const {
  TRANSER_CHECK_EQ(queries.cols(), dims_);
  std::vector<std::vector<Neighbour>> results(queries.rows());
  if (k == 0) return results;
  TRANSER_RETURN_IF_ERROR(ParallelFor(
      context, scope, queries.rows(),
      [&](size_t begin, size_t end, size_t /*chunk*/) -> Status {
        // Queries only read the graph; each row's answer is a pure
        // function of (graph, query row), so chunk assignment — and
        // therefore the thread count — cannot change any byte of the
        // result.
        for (size_t row = begin; row < end; ++row) {
          const ptrdiff_t skip_index =
              skip_self ? static_cast<ptrdiff_t>(row) : ptrdiff_t{-1};
          results[row] =
              Query(std::span<const double>(queries.Row(row), queries.cols()),
                    k, skip_index);
        }
        return Status::OK();
      },
      options));
  return results;
}

}  // namespace transer
