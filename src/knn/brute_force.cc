#include "knn/brute_force.h"

#include <algorithm>
#include <cmath>

#include "linalg/kernels.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace transer {

namespace {

/// Point rows per kernel block: 256 rows of typical SEL width keep the
/// block and its distance tile L1/L2-resident.
constexpr size_t kPointBlock = 256;

/// Query rows per batch tile (each tile reuses every streamed point
/// block kQueryTile times).
constexpr size_t kQueryTile = 8;

/// Per-thread scratch reused across queries and batch tiles: one
/// distance tile plus one bounded heap per tile row.
struct ScanScratch {
  std::vector<double> dist;  ///< kQueryTile x kPointBlock tile
  std::vector<Neighbour> heaps[kQueryTile];
};
thread_local ScanScratch tls_scan;

/// Streams all point blocks past `query`, offering every row but
/// `skip_index` to the bounded heap. The per-pair distance is the
/// decomposed kernel — identical to the KD-tree leaf scan.
void ScanBlocks(const Matrix& points, const std::vector<double>& norms,
                std::span<const double> query, double query_norm,
                size_t begin, size_t end, size_t k, ptrdiff_t skip_index,
                std::vector<double>* dist, std::vector<Neighbour>* heap) {
  for (size_t block = begin; block < end; block += kPointBlock) {
    const size_t block_end = std::min(end, block + kPointBlock);
    const size_t rows = block_end - block;
    kernels::PairwiseSquaredL2(query.data(), 1, &query_norm,
                               points.Row(block), rows, norms.data() + block,
                               points.cols(), dist->data());
    for (size_t r = 0; r < rows; ++r) {
      const size_t row = block + r;
      if (static_cast<ptrdiff_t>(row) == skip_index) continue;
      PushBoundedNeighbour(heap, k,
                           Neighbour{row, std::sqrt((*dist)[r])});
    }
  }
}

std::vector<Neighbour> SortedHeap(std::vector<Neighbour>* heap) {
  std::sort_heap(heap->begin(), heap->end(), NeighbourBefore);
  return std::vector<Neighbour>(heap->begin(), heap->end());
}

}  // namespace

BruteForceKnn::BruteForceKnn(const Matrix& points) : points_(points) {
  norms_.resize(points_.rows());
  kernels::SquaredNorms(points_.rows() > 0 ? points_.Row(0) : nullptr,
                        points_.rows(), points_.cols(), norms_.data());
}

std::vector<Neighbour> BruteForceKnn::Query(std::span<const double> query,
                                            size_t k,
                                            ptrdiff_t skip_index) const {
  TRANSER_CHECK_EQ(query.size(), points_.cols());
  if (k == 0) return {};
  ScanScratch& scratch = tls_scan;
  scratch.dist.resize(kPointBlock);
  std::vector<Neighbour>& heap = scratch.heaps[0];
  heap.clear();
  heap.reserve(k + 1);
  ScanBlocks(points_, norms_, query, kernels::SquaredNorm(query), 0,
             points_.rows(), k, skip_index, &scratch.dist, &heap);
  return SortedHeap(&heap);
}

Result<BruteForceKnn> BruteForceKnn::Create(const Matrix& points,
                                            const ExecutionContext& context,
                                            const std::string& scope,
                                            RunDiagnostics* diagnostics) {
  TRANSER_RETURN_IF_ERROR(context.Check(scope, diagnostics));
  ScopedReservation reservation;
  TRANSER_RETURN_IF_ERROR(reservation.Acquire(
      context, scope,
      points.rows() * (points.cols() + 1) * sizeof(double), diagnostics));
  BruteForceKnn knn(points);
  knn.memory_ = std::move(reservation);
  return knn;
}

Result<std::vector<std::vector<Neighbour>>> BruteForceKnn::QueryBatch(
    const Matrix& queries, size_t k, const ExecutionContext& context,
    const std::string& scope, const ParallelOptions& options,
    bool skip_self) const {
  TRANSER_CHECK_EQ(queries.cols(), points_.cols());
  std::vector<std::vector<Neighbour>> results(queries.rows());
  if (k == 0) return results;
  ParallelOptions chunk_options = options;
  chunk_options.min_items_per_chunk =
      std::max<size_t>(chunk_options.min_items_per_chunk, 4);
  TRANSER_RETURN_IF_ERROR(ParallelFor(
      context, scope, queries.rows(),
      [&](size_t begin, size_t end, size_t /*chunk*/) -> Status {
        ScanScratch& scratch = tls_scan;
        scratch.dist.resize(kQueryTile * kPointBlock);
        double tile_norms[kQueryTile];
        // Sweep each query tile against every point block: the tile's
        // distance sub-matrix comes from one PairwiseSquaredL2 call, so
        // each point row is streamed once per tile instead of once per
        // query. Per-pair values are tile-independent (kernels.h), so
        // the answers match per-row Query bit for bit.
        for (size_t tile = begin; tile < end; tile += kQueryTile) {
          const size_t tile_end = std::min(end, tile + kQueryTile);
          const size_t tile_rows = tile_end - tile;
          kernels::SquaredNorms(queries.Row(tile), tile_rows, queries.cols(),
                                tile_norms);
          for (size_t q = 0; q < tile_rows; ++q) {
            scratch.heaps[q].clear();
            scratch.heaps[q].reserve(k + 1);
          }
          for (size_t block = 0; block < points_.rows();
               block += kPointBlock) {
            const size_t block_end =
                std::min(points_.rows(), block + kPointBlock);
            const size_t block_rows = block_end - block;
            kernels::PairwiseSquaredL2(
                queries.Row(tile), tile_rows, tile_norms, points_.Row(block),
                block_rows, norms_.data() + block, points_.cols(),
                scratch.dist.data());
            for (size_t q = 0; q < tile_rows; ++q) {
              const double* dist_row = scratch.dist.data() + q * block_rows;
              const ptrdiff_t skip_index =
                  skip_self ? static_cast<ptrdiff_t>(tile + q)
                            : ptrdiff_t{-1};
              std::vector<Neighbour>& heap = scratch.heaps[q];
              for (size_t r = 0; r < block_rows; ++r) {
                const size_t row = block + r;
                if (static_cast<ptrdiff_t>(row) == skip_index) continue;
                PushBoundedNeighbour(&heap, k,
                                     Neighbour{row, std::sqrt(dist_row[r])});
              }
            }
          }
          for (size_t q = 0; q < tile_rows; ++q) {
            results[tile + q] = SortedHeap(&scratch.heaps[q]);
          }
        }
        return Status::OK();
      },
      chunk_options));
  return results;
}

}  // namespace transer
