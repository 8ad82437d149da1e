#include "text/jaro_winkler.h"

#include <algorithm>
#include <bit>
#include <vector>

#include "util/logging.h"

namespace transer {

namespace {

/// Match-flag words of strings longer than 64 bytes, reused across calls
/// on one thread. Shorter strings keep their flags in two local words.
thread_local std::vector<uint64_t> tls_flag_words;

/// Jaro similarity of two non-empty strings, with one match flag per byte
/// position in 64-bit words: word w of `matched_a` / `matched_b` (all
/// zero on entry) flags positions [64w, 64w + 64). kOneWord instantiates
/// it for strings of up to 64 bytes: every word index is then 0, so both
/// flag words stay in registers.
template <bool kOneWord>
double JaroOverFlagWords(std::string_view a, std::string_view b,
                         uint64_t* matched_a, uint64_t* matched_b) {
  const auto word = [](size_t pos) { return kOneWord ? size_t{0} : pos >> 6; };
  const size_t len_a = a.size();
  const size_t len_b = b.size();
  const size_t max_len = std::max(len_a, len_b);
  // Matching window per the Jaro definition.
  const size_t window = max_len / 2 == 0 ? 0 : max_len / 2 - 1;

  // Each byte of `a`, in order, takes the earliest unmatched equal byte
  // of `b` inside its window.
  size_t matches = 0;
  for (size_t i = 0; i < len_a; ++i) {
    const size_t lo = i > window ? i - window : 0;
    const size_t hi = std::min(len_b, i + window + 1);
    for (size_t j = lo; j < hi; ++j) {
      const uint64_t bit = uint64_t{1} << (j & 63);
      if ((matched_b[word(j)] & bit) != 0 || a[i] != b[j]) continue;
      matched_a[word(i)] |= uint64_t{1} << (i & 63);
      matched_b[word(j)] |= bit;
      ++matches;
      break;
    }
  }
  if (matches == 0) return 0.0;

  // Count transpositions: the k-th matched byte of `a` against the k-th
  // matched byte of `b` (both strings hold `matches` set flags).
  size_t transpositions = 0;
  size_t word_b = 0;
  uint64_t rest_b = matched_b[0];
  for (size_t word_a = 0; word_a <= word(len_a - 1); ++word_a) {
    for (uint64_t rest_a = matched_a[word_a]; rest_a != 0;
         rest_a &= rest_a - 1) {
      while (rest_b == 0) rest_b = matched_b[++word_b];
      const size_t i = word_a * 64 + std::countr_zero(rest_a);
      const size_t j = word_b * 64 + std::countr_zero(rest_b);
      rest_b &= rest_b - 1;
      if (a[i] != b[j]) ++transpositions;
    }
  }

  const double m = static_cast<double>(matches);
  const double t = static_cast<double>(transpositions / 2);
  return (m / static_cast<double>(len_a) + m / static_cast<double>(len_b) +
          (m - t) / m) /
         3.0;
}

/// `jaro` boosted by the common prefix of `a` and `b` (Winkler).
double WinklerBoost(double jaro, std::string_view a, std::string_view b,
                    double prefix_weight, int max_prefix) {
  size_t prefix = 0;
  const size_t limit =
      std::min({a.size(), b.size(), static_cast<size_t>(max_prefix)});
  while (prefix < limit && a[prefix] == b[prefix]) ++prefix;
  return jaro + static_cast<double>(prefix) * prefix_weight * (1.0 - jaro);
}

}  // namespace

ByteSet ByteSetOf(std::string_view s) {
  ByteSet set{};
  for (const char c : s) {
    const auto byte = static_cast<unsigned char>(c);
    set[byte >> 6] |= uint64_t{1} << (byte & 63);
  }
  return set;
}

double JaroSimilarity(std::string_view a, std::string_view b) {
  return JaroSimilarity(a, b, ByteSetOf(a), ByteSetOf(b));
}

double JaroSimilarity(std::string_view a, std::string_view b,
                      const ByteSet& set_a, const ByteSet& set_b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  // Identical strings match completely with no transpositions; the
  // general path evaluates to (1 + 1 + 1) / 3 exactly.
  if (a == b) return 1.0;
  // Disjoint byte sets mean zero matches regardless of the window —
  // exactly the general path's matches == 0 exit.
  if (((set_a[0] & set_b[0]) | (set_a[1] & set_b[1]) |
       (set_a[2] & set_b[2]) | (set_a[3] & set_b[3])) == 0) {
    return 0.0;
  }
  if (a.size() <= 64 && b.size() <= 64) {
    uint64_t flags[2] = {0, 0};
    return JaroOverFlagWords<true>(a, b, &flags[0], &flags[1]);
  }
  const size_t words_a = (a.size() + 63) / 64;
  std::vector<uint64_t>& flags = tls_flag_words;
  flags.assign(words_a + (b.size() + 63) / 64, 0);
  return JaroOverFlagWords<false>(a, b, flags.data(), flags.data() + words_a);
}

double JaroWinklerSimilarity(std::string_view a, std::string_view b,
                             double prefix_weight, int max_prefix) {
  TRANSER_CHECK_GE(prefix_weight, 0.0);
  TRANSER_CHECK_GT(max_prefix, 0);
  TRANSER_CHECK_LE(prefix_weight * max_prefix, 1.0);
  return WinklerBoost(JaroSimilarity(a, b), a, b, prefix_weight, max_prefix);
}

double JaroWinklerSimilarity(std::string_view a, std::string_view b,
                             const ByteSet& set_a, const ByteSet& set_b) {
  return WinklerBoost(JaroSimilarity(a, b, set_a, set_b), a, b,
                      /*prefix_weight=*/0.1, /*max_prefix=*/4);
}

}  // namespace transer
