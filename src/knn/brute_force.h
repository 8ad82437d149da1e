#ifndef TRANSER_KNN_BRUTE_FORCE_H_
#define TRANSER_KNN_BRUTE_FORCE_H_

#include <span>
#include <string>
#include <vector>

#include "knn/kd_tree.h"
#include "linalg/matrix.h"
#include "util/execution_context.h"
#include "util/parallel.h"
#include "util/status.h"

namespace transer {

/// \brief O(n) linear-scan k-NN. Reference oracle for KdTree tests and a
/// sane default for tiny data sets.
///
/// Both query paths run on the tiled pairwise kernel (linalg/kernels)
/// over cached row norms with a size-k bounded max-heap — O(n log k)
/// per query, no per-query allocation — and compute every per-pair
/// distance with exactly the same kernel as the KD-tree leaf scans, so
/// the two backends return bit-identical neighbour lists.
class BruteForceKnn : public KnnBackend {
 public:
  explicit BruteForceKnn(const Matrix& points);

  /// Budgeted construction mirroring KdTree::Create: reserves the point
  /// copy (plus cached norms) against `context`'s memory budget for the
  /// index's lifetime.
  static Result<BruteForceKnn> Create(const Matrix& points,
                                      const ExecutionContext& context,
                                      const std::string& scope = "brute_knn",
                                      RunDiagnostics* diagnostics = nullptr);

  /// Same contract as KdTree::Query.
  std::vector<Neighbour> Query(std::span<const double> query, size_t k,
                               ptrdiff_t skip_index = -1) const override;

  /// Batched queries over the parallel runtime; same contract as
  /// KdTree::QueryBatch (including `skip_self`). Internally each worker
  /// sweeps query tiles against cache-sized point blocks with the tiled
  /// pairwise kernel; results are bit-identical to per-row Query at any
  /// thread count.
  Result<std::vector<std::vector<Neighbour>>> QueryBatch(
      const Matrix& queries, size_t k, const ExecutionContext& context,
      const std::string& scope = "brute_knn",
      const ParallelOptions& options = {},
      bool skip_self = false) const override;

  std::string backend_name() const override { return "brute_force"; }
  size_t size() const override { return points_.rows(); }
  size_t dimensions() const override { return points_.cols(); }

 private:
  Matrix points_;
  /// Cached kernels::SquaredNorm per stored row.
  std::vector<double> norms_;
  ScopedReservation memory_;
};

}  // namespace transer

#endif  // TRANSER_KNN_BRUTE_FORCE_H_
