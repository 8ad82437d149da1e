#include "ml/sampling.h"

#include <algorithm>

#include "util/logging.h"

namespace transer {

std::vector<size_t> UndersampleNonMatches(const std::vector<int>& labels,
                                          double ratio, Rng* rng) {
  TRANSER_CHECK_GT(ratio, 0.0);
  std::vector<size_t> matches;
  std::vector<size_t> nonmatches;
  for (size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] == 1) {
      matches.push_back(i);
    } else {
      nonmatches.push_back(i);
    }
  }
  const size_t keep_nonmatches = std::min(
      nonmatches.size(),
      static_cast<size_t>(ratio * static_cast<double>(matches.size())));
  std::vector<size_t> kept = matches;
  if (keep_nonmatches < nonmatches.size()) {
    const std::vector<size_t> chosen =
        rng->SampleWithoutReplacement(nonmatches.size(), keep_nonmatches);
    for (size_t pick : chosen) kept.push_back(nonmatches[pick]);
  } else {
    kept.insert(kept.end(), nonmatches.begin(), nonmatches.end());
  }
  std::sort(kept.begin(), kept.end());
  return kept;
}

std::vector<size_t> RandomSubset(size_t n, double fraction, Rng* rng) {
  TRANSER_CHECK_GE(fraction, 0.0);
  TRANSER_CHECK_LE(fraction, 1.0);
  const size_t count = static_cast<size_t>(fraction * static_cast<double>(n));
  std::vector<size_t> subset = rng->SampleWithoutReplacement(n, count);
  std::sort(subset.begin(), subset.end());
  return subset;
}

}  // namespace transer
