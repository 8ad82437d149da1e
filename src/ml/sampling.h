#ifndef TRANSER_ML_SAMPLING_H_
#define TRANSER_ML_SAMPLING_H_

#include <vector>

#include "util/random.h"

namespace transer {

/// \brief Returns the indices of a class-rebalanced subset of instances:
/// all matches are kept and non-matches are randomly under-sampled so the
/// non-match:match ratio is at most `ratio` (the paper's b, default 1:3 —
/// Section 4.3). With too few non-matches, everything is kept. Order of
/// the returned indices follows the original order.
std::vector<size_t> UndersampleNonMatches(const std::vector<int>& labels,
                                          double ratio, Rng* rng);

/// \brief Random subset of `fraction` of all indices (used for the
/// label-fraction sensitivity experiment, Figure 6).
std::vector<size_t> RandomSubset(size_t n, double fraction, Rng* rng);

}  // namespace transer

#endif  // TRANSER_ML_SAMPLING_H_
