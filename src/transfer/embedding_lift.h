#ifndef TRANSER_TRANSFER_EMBEDDING_LIFT_H_
#define TRANSER_TRANSFER_EMBEDDING_LIFT_H_

#include <cstdint>

#include "linalg/matrix.h"

namespace transer {

/// \brief Options for the distributed-representation lift.
struct EmbeddingLiftOptions {
  size_t dimension = 48;  ///< width of the lifted representation
  /// Per-coordinate Gaussian noise: models the imprecision of pre-trained
  /// word embeddings on short, typo-ridden, out-of-vocabulary structured
  /// values (person names, addresses) that Section 5.2.1 identifies as the
  /// reason DR/DTAL* underperform on structured data.
  double noise_stddev = 0.35;
  uint64_t seed = 0xfeedULL;
};

/// \brief Maps similarity feature vectors into a fixed random nonlinear
/// high-dimensional representation — the stand-in for the FastText /
/// deep-encoder pair representations consumed by the DR and DTAL*
/// baselines, which here operate on feature matrices rather than raw
/// records.
///
/// The projection (random ReLU features) is deterministic in the seed and
/// identical for source and target, preserving homogeneity; the additive
/// noise deterministically depends on (seed, row content), so the same
/// instance lifts identically across calls.
Matrix LiftToEmbedding(const Matrix& x, const EmbeddingLiftOptions& options);

}  // namespace transer

#endif  // TRANSER_TRANSFER_EMBEDDING_LIFT_H_
