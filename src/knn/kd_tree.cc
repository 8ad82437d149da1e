#include "knn/kd_tree.h"

#include <algorithm>
#include <cmath>

#include "linalg/kernels.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace transer {

namespace {

/// Per-thread candidate heap reused across queries (the SEL loop issues
/// millions of small queries; one allocation per thread, not per call).
thread_local std::vector<Neighbour> tls_query_heap;

}  // namespace

KdTree::KdTree(const Matrix& points, int num_threads) : points_(points) {
  norms_.resize(points_.rows());
  kernels::SquaredNorms(points_.rows() > 0 ? points_.Row(0) : nullptr,
                        points_.rows(), points_.cols(), norms_.data());
  order_.resize(points_.rows());
  for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
  if (order_.empty()) return;
  nodes_.reserve(2 * order_.size() / kLeafSize + 2);

  const int threads = EffectiveThreadCount(num_threads);
  if (threads <= 1 || order_.size() <= kLeafSize * 4) {
    root_ = BuildInto(&nodes_, 0, order_.size(), 0);
    return;
  }

  // Serial expansion down to a fixed frontier depth, then the pending
  // subtrees build concurrently into private arenas over disjoint
  // order_ ranges. Every nth_element call sees exactly the range the
  // serial build would hand it, so the permutation and geometry are
  // identical to the serial build for any thread count.
  std::vector<PendingSubtree> pending;
  root_ = ExpandTop(0, order_.size(), 0, &pending);

  std::vector<std::vector<Node>> arenas(pending.size());
  std::vector<ptrdiff_t> subtree_roots(pending.size(), -1);
  ParallelOptions build_options;
  build_options.num_threads = threads;
  const Status built = ParallelFor(
      ExecutionContext::Unlimited(), "kd_build", pending.size(),
      [&](size_t begin, size_t end, size_t /*chunk*/) -> Status {
        for (size_t i = begin; i < end; ++i) {
          subtree_roots[i] = BuildInto(&arenas[i], pending[i].begin,
                                       pending[i].end, pending[i].depth);
        }
        return Status::OK();
      },
      build_options);
  TRANSER_CHECK(built.ok());

  // Splice the arenas in pending order and patch the encoded child
  // slots (-2 - i) left by ExpandTop.
  std::vector<ptrdiff_t> spliced_roots(pending.size(), -1);
  for (size_t i = 0; i < pending.size(); ++i) {
    const ptrdiff_t offset = static_cast<ptrdiff_t>(nodes_.size());
    for (const Node& node : arenas[i]) {
      Node fixed = node;
      if (fixed.left >= 0) fixed.left += offset;
      if (fixed.right >= 0) fixed.right += offset;
      nodes_.push_back(fixed);
    }
    spliced_roots[i] = subtree_roots[i] + offset;
  }
  for (Node& node : nodes_) {
    if (node.left <= -2) node.left = spliced_roots[-2 - node.left];
    if (node.right <= -2) node.right = spliced_roots[-2 - node.right];
  }
}

size_t KdTree::StorageBytes(const Matrix& points) {
  const size_t n = points.rows();
  return n * points.cols() * sizeof(double)  // point copy
         + n * sizeof(double)                // cached squared norms
         + n * sizeof(size_t)                // order permutation
         + (2 * n / kLeafSize + 2) * sizeof(Node);
}

Result<KdTree> KdTree::Create(const Matrix& points,
                              const ExecutionContext& context,
                              const std::string& scope,
                              RunDiagnostics* diagnostics, int num_threads) {
  TRANSER_RETURN_IF_ERROR(context.Check(scope, diagnostics));
  ScopedReservation reservation;
  TRANSER_RETURN_IF_ERROR(reservation.Acquire(context, scope,
                                              StorageBytes(points),
                                              diagnostics));
  KdTree tree(points, num_threads);
  tree.memory_ = std::move(reservation);
  return tree;
}

KdTree::Node KdTree::SplitRange(size_t begin, size_t end, size_t depth) {
  // Pick the dimension with the largest spread for balanced splits.
  const size_t dims = points_.cols();
  size_t best_dim = depth % dims;
  double best_spread = -1.0;
  for (size_t d = 0; d < dims; ++d) {
    double lo = points_(order_[begin], d);
    double hi = lo;
    for (size_t i = begin + 1; i < end; ++i) {
      const double v = points_(order_[i], d);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    if (hi - lo > best_spread) {
      best_spread = hi - lo;
      best_dim = d;
    }
  }

  const size_t mid = begin + (end - begin) / 2;
  std::nth_element(order_.begin() + static_cast<ptrdiff_t>(begin),
                   order_.begin() + static_cast<ptrdiff_t>(mid),
                   order_.begin() + static_cast<ptrdiff_t>(end),
                   [this, best_dim](size_t a, size_t b) {
                     return points_(a, best_dim) < points_(b, best_dim);
                   });

  Node node;
  node.split_dim = best_dim;
  node.split_value = points_(order_[mid], best_dim);
  return node;
}

ptrdiff_t KdTree::BuildInto(std::vector<Node>* arena, size_t begin,
                            size_t end, size_t depth) {
  if (end - begin <= kLeafSize) {
    Node node;
    node.is_leaf = true;
    node.begin = begin;
    node.end = end;
    arena->push_back(node);
    return static_cast<ptrdiff_t>(arena->size() - 1);
  }

  arena->push_back(SplitRange(begin, end, depth));
  const ptrdiff_t index = static_cast<ptrdiff_t>(arena->size() - 1);
  const size_t mid = begin + (end - begin) / 2;
  const ptrdiff_t left = BuildInto(arena, begin, mid, depth + 1);
  const ptrdiff_t right = BuildInto(arena, mid, end, depth + 1);
  (*arena)[static_cast<size_t>(index)].left = left;
  (*arena)[static_cast<size_t>(index)].right = right;
  return index;
}

ptrdiff_t KdTree::ExpandTop(size_t begin, size_t end, size_t depth,
                            std::vector<PendingSubtree>* pending) {
  if (end - begin <= kLeafSize) {
    return BuildInto(&nodes_, begin, end, depth);
  }
  if (depth >= kParallelStopDepth) {
    pending->push_back(PendingSubtree{begin, end, depth});
    return -2 - static_cast<ptrdiff_t>(pending->size() - 1);
  }
  // Split exactly as BuildInto would, deferring the children to the
  // parallel phase.
  nodes_.push_back(SplitRange(begin, end, depth));
  const ptrdiff_t index = static_cast<ptrdiff_t>(nodes_.size() - 1);
  const size_t mid = begin + (end - begin) / 2;
  const ptrdiff_t left = ExpandTop(begin, mid, depth + 1, pending);
  const ptrdiff_t right = ExpandTop(mid, end, depth + 1, pending);
  nodes_[static_cast<size_t>(index)].left = left;
  nodes_[static_cast<size_t>(index)].right = right;
  return index;
}

void KdTree::Search(ptrdiff_t node_index, std::span<const double> query,
                    double query_norm, size_t k, ptrdiff_t skip_index,
                    std::vector<Neighbour>* heap) const {
  const Node& node = nodes_[static_cast<size_t>(node_index)];
  if (node.is_leaf) {
    // Gather the whole leaf's squared distances with the decomposed
    // kernel (same per-pair computation as the brute-force paths), then
    // offer them to the bounded heap. Leaves hold <= kLeafSize rows, so
    // the distance buffer lives on the stack.
    double dist_sq[kLeafSize];
    const std::span<const size_t> rows(order_.data() + node.begin,
                                       node.end - node.begin);
    kernels::SquaredL2Gather(query, query_norm, points_.Row(0),
                             points_.cols(), rows, norms_.data(), dist_sq);
    for (size_t i = 0; i < rows.size(); ++i) {
      const size_t row = rows[i];
      if (static_cast<ptrdiff_t>(row) == skip_index) continue;
      PushBoundedNeighbour(heap, k, Neighbour{row, std::sqrt(dist_sq[i])});
    }
    return;
  }

  const double delta = query[node.split_dim] - node.split_value;
  const ptrdiff_t near = delta <= 0.0 ? node.left : node.right;
  const ptrdiff_t far = delta <= 0.0 ? node.right : node.left;
  Search(near, query, query_norm, k, skip_index, heap);
  // Visit the far side unless the splitting plane is strictly beyond the
  // worst kept candidate: an equidistant point may still win its index
  // tie-break, so <= rather than <.
  if (heap->size() < k || std::fabs(delta) <= heap->front().distance) {
    Search(far, query, query_norm, k, skip_index, heap);
  }
}

std::vector<Neighbour> KdTree::Query(std::span<const double> query, size_t k,
                                     ptrdiff_t skip_index) const {
  TRANSER_CHECK_EQ(query.size(), points_.cols());
  if (root_ < 0 || k == 0) return {};
  std::vector<Neighbour>& heap = tls_query_heap;
  heap.clear();
  heap.reserve(k + 1);
  Search(root_, query, kernels::SquaredNorm(query), k, skip_index, &heap);
  std::sort_heap(heap.begin(), heap.end(), NeighbourBefore);
  return std::vector<Neighbour>(heap.begin(), heap.end());
}

Result<std::vector<std::vector<Neighbour>>> KdTree::QueryBatch(
    const Matrix& queries, size_t k, const ExecutionContext& context,
    const std::string& scope, const ParallelOptions& options,
    bool skip_self) const {
  std::vector<std::vector<Neighbour>> results(queries.rows());
  ParallelOptions chunk_options = options;
  chunk_options.min_items_per_chunk =
      std::max<size_t>(chunk_options.min_items_per_chunk, 16);
  TRANSER_RETURN_IF_ERROR(ParallelFor(
      context, scope, queries.rows(),
      [&](size_t begin, size_t end, size_t /*chunk*/) -> Status {
        for (size_t i = begin; i < end; ++i) {
          results[i] = Query(
              std::span<const double>(queries.Row(i), queries.cols()), k,
              skip_self ? static_cast<ptrdiff_t>(i) : ptrdiff_t{-1});
        }
        return Status::OK();
      },
      chunk_options));
  return results;
}

}  // namespace transer
