#include "text/set_similarity.h"

#include <algorithm>
#include <array>

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

double SymmetricMongeElkan(std::string_view a, std::string_view b) {
  return SymmetricMongeElkan(WordViews(a), WordViews(b));
}

double SymmetricMongeElkan(std::span<const std::string_view> a,
                           std::span<const std::string_view> b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  // Jaro-Winkler is symmetric bit for bit, so one |a| x |b| matrix serves
  // both directions. It is walked row by row, keeping b's byte sets and
  // running column maxima; row maxima sum to ME(a,b) in a's token order,
  // column maxima to ME(b,a) in b's, as two separate scans would.
  constexpr size_t kInlineTokens = 32;
  std::array<ByteSet, kInlineTokens> inline_sets;
  std::array<double, kInlineTokens> inline_best;
  std::vector<ByteSet> heap_sets;
  std::vector<double> heap_best;
  ByteSet* sets_b = inline_sets.data();
  double* column_best = inline_best.data();
  if (b.size() > kInlineTokens) {
    heap_sets.resize(b.size());
    heap_best.resize(b.size());
    sets_b = heap_sets.data();
    column_best = heap_best.data();
  }
  for (size_t j = 0; j < b.size(); ++j) {
    sets_b[j] = ByteSetOf(b[j]);
    column_best[j] = 0.0;
  }

  double total_ab = 0.0;
  for (std::string_view ta : a) {
    const ByteSet set_a = ByteSetOf(ta);
    double row_best = 0.0;
    for (size_t j = 0; j < b.size(); ++j) {
      const double similarity =
          JaroWinklerSimilarity(ta, b[j], set_a, sets_b[j]);
      row_best = std::max(row_best, similarity);
      column_best[j] = std::max(column_best[j], similarity);
    }
    total_ab += row_best;
  }
  double total_ba = 0.0;
  for (size_t j = 0; j < b.size(); ++j) total_ba += column_best[j];
  return std::max(total_ab / static_cast<double>(a.size()),
                  total_ba / static_cast<double>(b.size()));
}

}  // namespace transer
