#include "text/set_similarity.h"

#include <algorithm>

#include "text/jaro_winkler.h"
#include "text/tokenize.h"

namespace transer {

namespace {

// Intersection size of two sorted unique sequences.
template <typename T>
size_t SortedIntersectionSize(std::span<const T> a, std::span<const T> b) {
  size_t i = 0, j = 0, count = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

// Jaccard of two sorted unique sequences.
template <typename T>
double SortedJaccard(std::span<const T> a, std::span<const T> b) {
  if (a.empty() && b.empty()) return 1.0;
  const size_t inter = SortedIntersectionSize(a, b);
  const size_t uni = a.size() + b.size() - inter;
  return uni == 0 ? 0.0
                  : static_cast<double>(inter) / static_cast<double>(uni);
}

}  // namespace

double JaccardSimilarity(const std::vector<std::string>& a,
                         const std::vector<std::string>& b) {
  const auto sa = UniqueSorted(a);
  const auto sb = UniqueSorted(b);
  return SortedJaccard<std::string>(sa, sb);
}

double DiceSimilarity(const std::vector<std::string>& a,
                      const std::vector<std::string>& b) {
  const auto sa = UniqueSorted(a);
  const auto sb = UniqueSorted(b);
  if (sa.empty() && sb.empty()) return 1.0;
  if (sa.empty() || sb.empty()) return 0.0;
  const size_t inter = SortedIntersectionSize<std::string>(sa, sb);
  return 2.0 * static_cast<double>(inter) /
         static_cast<double>(sa.size() + sb.size());
}

double OverlapCoefficient(const std::vector<std::string>& a,
                          const std::vector<std::string>& b) {
  const auto sa = UniqueSorted(a);
  const auto sb = UniqueSorted(b);
  if (sa.empty() && sb.empty()) return 1.0;
  if (sa.empty() || sb.empty()) return 0.0;
  const size_t inter = SortedIntersectionSize<std::string>(sa, sb);
  return static_cast<double>(inter) /
         static_cast<double>(std::min(sa.size(), sb.size()));
}

double WordJaccardSimilarity(std::string_view a, std::string_view b) {
  std::vector<std::string_view> sa = WordViews(a);
  std::vector<std::string_view> sb = WordViews(b);
  sa.resize(SortUniqueWords(sa));
  sb.resize(SortUniqueWords(sb));
  return WordSetJaccard(sa, sb);
}

double WordSetJaccard(std::span<const std::string_view> a,
                      std::span<const std::string_view> b) {
  return SortedJaccard(a, b);
}

double QGramJaccardSimilarity(std::string_view a, std::string_view b,
                              size_t q) {
  return JaccardSimilarity(QGrams(a, q, /*padded=*/true),
                           QGrams(b, q, /*padded=*/true));
}

double QGramDiceSimilarity(std::string_view a, std::string_view b, size_t q) {
  return DiceSimilarity(QGrams(a, q, /*padded=*/true),
                        QGrams(b, q, /*padded=*/true));
}

double MongeElkanSimilarity(std::span<const std::string_view> a,
                            std::span<const std::string_view> b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  double total = 0.0;
  for (std::string_view ta : a) {
    double best = 0.0;
    for (std::string_view tb : b) {
      best = std::max(best, JaroWinklerSimilarity(ta, tb));
    }
    total += best;
  }
  return total / static_cast<double>(a.size());
}

double SymmetricMongeElkan(std::string_view a, std::string_view b) {
  return SymmetricMongeElkan(WordViews(a), WordViews(b));
}

double SymmetricMongeElkan(std::span<const std::string_view> a,
                           std::span<const std::string_view> b) {
  return std::max(MongeElkanSimilarity(a, b), MongeElkanSimilarity(b, a));
}

}  // namespace transer
