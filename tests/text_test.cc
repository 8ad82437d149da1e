#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "text/edit_distance.h"
#include "text/jaro_winkler.h"
#include "text/normalize.h"
#include "text/numeric_similarity.h"
#include "text/set_similarity.h"
#include "text/similarity_registry.h"
#include "text/tokenize.h"
#include "util/random.h"

namespace transer {
namespace {

// ---------- normalize ----------

TEST(NormalizeTest, LowercasesStripsPunctuationCollapses) {
  EXPECT_EQ(NormalizeValue("  O'Brien,  J.\tP. "), "o brien j p");
}

TEST(NormalizeTest, OptionsCanBeDisabled) {
  NormalizeOptions keep;
  keep.lowercase = false;
  keep.strip_punctuation = false;
  keep.collapse_whitespace = false;
  keep.trim = false;
  EXPECT_EQ(NormalizeValue("A-B  c", keep), "A-B  c");
}

// Random byte strings over the classes normalisation distinguishes:
// letters of both cases, digits, punctuation, every whitespace byte,
// non-ASCII bytes.
std::vector<std::string> AssortedByteStrings(size_t count, uint64_t seed) {
  const std::string alphabet =
      std::string("aZq9 .,'-\t\n\v\f\r  !?\xc3\xa9\xff") + '\0';
  Rng rng(seed);
  std::vector<std::string> out = {"", " ", "\t\t", "...", "a", "A b"};
  while (out.size() < count) {
    std::string value(static_cast<size_t>(rng.NextInt(0, 12)), ' ');
    for (char& c : value) {
      c = alphabet[static_cast<size_t>(
          rng.NextInt(0, static_cast<int>(alphabet.size()) - 1))];
    }
    out.push_back(value);
  }
  return out;
}

// A random word of up to `max_len` letters from the first `alphabet`.
std::string RandomWord(Rng* rng, size_t max_len, int alphabet) {
  std::string s(rng->NextUint64Below(max_len + 1), 'a');
  for (char& c : s) {
    c = static_cast<char>('a' + rng->NextUint64Below(alphabet));
  }
  return s;
}

// The two-pass normaliser the single-pass NormalizeInto replaced.
std::string TwoPassNormalize(std::string_view value,
                             const NormalizeOptions& options) {
  std::string out;
  for (char raw : value) {
    unsigned char c = static_cast<unsigned char>(raw);
    if (options.strip_punctuation && std::ispunct(c)) {
      out.push_back(' ');
      continue;
    }
    if (options.lowercase) c = static_cast<unsigned char>(std::tolower(c));
    out.push_back(static_cast<char>(c));
  }
  if (options.collapse_whitespace) {
    std::string collapsed;
    bool prev_space = false;
    for (char c : out) {
      const bool is_space = std::isspace(static_cast<unsigned char>(c)) != 0;
      if (is_space) {
        if (!prev_space) collapsed.push_back(' ');
      } else {
        collapsed.push_back(c);
      }
      prev_space = is_space;
    }
    out = std::move(collapsed);
  }
  if (options.trim) {
    const size_t begin = out.find_first_not_of(' ');
    const size_t end = out.find_last_not_of(' ');
    out = begin == std::string::npos ? std::string()
                                     : out.substr(begin, end - begin + 1);
  }
  return out;
}

TEST(NormalizeTest, MatchesTwoPassReferenceUnderEveryOptionSet) {
  const std::vector<std::string> values = AssortedByteStrings(400, 5);
  for (int bits = 0; bits < 16; ++bits) {
    NormalizeOptions options;
    options.lowercase = (bits & 1) != 0;
    options.strip_punctuation = (bits & 2) != 0;
    options.collapse_whitespace = (bits & 4) != 0;
    options.trim = (bits & 8) != 0;
    for (const std::string& value : values) {
      const std::string expected = TwoPassNormalize(value, options);
      ASSERT_EQ(NormalizeValue(value, options), expected) << bits;
      std::string buffer(value.size(), '#');
      buffer.resize(NormalizeInto(value, options, buffer.data()));
      ASSERT_EQ(buffer, expected) << bits;
    }
  }
}

TEST(NormalizeTest, IsMissingDetectsBlankValues) {
  EXPECT_TRUE(IsMissing(""));
  EXPECT_TRUE(IsMissing("   \t"));
  EXPECT_FALSE(IsMissing(" x "));
}

// ---------- tokenize ----------

TEST(TokenizeTest, WordTokens) {
  EXPECT_EQ(WordTokens("  the  quick fox "),
            (std::vector<std::string>{"the", "quick", "fox"}));
  EXPECT_TRUE(WordTokens("   ").empty());
}

TEST(TokenizeTest, QGramsUnpadded) {
  EXPECT_EQ(QGrams("abcd", 2),
            (std::vector<std::string>{"ab", "bc", "cd"}));
  EXPECT_EQ(QGrams("a", 2), (std::vector<std::string>{"a"}));
  EXPECT_TRUE(QGrams("", 2).empty());
}

TEST(TokenizeTest, QGramsPaddedFramesString) {
  const auto grams = QGrams("ab", 2, /*padded=*/true);
  EXPECT_EQ(grams,
            (std::vector<std::string>{"#a", "ab", "b$"}));
}

TEST(TokenizeTest, UniqueSorted) {
  EXPECT_EQ(UniqueSorted({"b", "a", "b"}),
            (std::vector<std::string>{"a", "b"}));
}

// ---------- Levenshtein & friends ----------

TEST(EditDistanceTest, KnownLevenshteinValues) {
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(LevenshteinDistance("flaw", "lawn"), 2u);
  EXPECT_EQ(LevenshteinDistance("", "abc"), 3u);
  EXPECT_EQ(LevenshteinDistance("same", "same"), 0u);
}

TEST(EditDistanceTest, DamerauCountsTranspositionAsOne) {
  EXPECT_EQ(LevenshteinDistance("ca", "ac"), 2u);
  EXPECT_EQ(DamerauLevenshteinDistance("ca", "ac"), 1u);
  EXPECT_EQ(DamerauLevenshteinDistance("smith", "smiht"), 1u);
}

TEST(EditDistanceTest, SimilarityBounds) {
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "xyz"), 0.0);
}

TEST(EditDistanceTest, LongestCommonSubstring) {
  EXPECT_EQ(LongestCommonSubstring("database", "databank"), 6u);  // "databa"
  EXPECT_EQ(LongestCommonSubstring("abc", "xyz"), 0u);
  EXPECT_DOUBLE_EQ(LongestCommonSubstringSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(LongestCommonSubstringSimilarity("ab", ""), 0.0);
}

// Property sweep: triangle-like bounds of Levenshtein similarity.
class EditDistancePropertyTest
    : public ::testing::TestWithParam<std::pair<const char*, const char*>> {};

TEST_P(EditDistancePropertyTest, SymmetricAndBounded) {
  const auto [a, b] = GetParam();
  EXPECT_EQ(LevenshteinDistance(a, b), LevenshteinDistance(b, a));
  const double sim = LevenshteinSimilarity(a, b);
  EXPECT_GE(sim, 0.0);
  EXPECT_LE(sim, 1.0);
  EXPECT_LE(DamerauLevenshteinDistance(a, b), LevenshteinDistance(a, b));
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, EditDistancePropertyTest,
    ::testing::Values(std::make_pair("jellyfish", "smellyfish"),
                      std::make_pair("michael", "michelle"),
                      std::make_pair("", "nonempty"),
                      std::make_pair("aa", "aaaaaaa"),
                      std::make_pair("transposed", "transpsoed"),
                      std::make_pair("equal", "equal")));

// ---------- Jaro / Jaro-Winkler ----------

TEST(JaroTest, ClassicTextbookValues) {
  // Standard examples from the record-linkage literature.
  EXPECT_NEAR(JaroSimilarity("MARTHA", "MARHTA"), 0.944444, 1e-5);
  EXPECT_NEAR(JaroSimilarity("DIXON", "DICKSONX"), 0.766667, 1e-5);
  EXPECT_NEAR(JaroSimilarity("JELLYFISH", "SMELLYFISH"), 0.896296, 1e-5);
}

TEST(JaroWinklerTest, ClassicTextbookValues) {
  EXPECT_NEAR(JaroWinklerSimilarity("MARTHA", "MARHTA"), 0.961111, 1e-5);
  EXPECT_NEAR(JaroWinklerSimilarity("DIXON", "DICKSONX"), 0.813333, 1e-5);
}

TEST(JaroTest, EdgeCases) {
  EXPECT_DOUBLE_EQ(JaroSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("a", ""), 0.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "xyz"), 0.0);
}

TEST(JaroWinklerTest, PrefixBoostsButNeverExceedsOne) {
  const double jaro = JaroSimilarity("prefix_aaa", "prefix_bbb");
  const double jw = JaroWinklerSimilarity("prefix_aaa", "prefix_bbb");
  EXPECT_GT(jw, jaro);
  EXPECT_LE(jw, 1.0);
}

class JaroPropertyTest
    : public ::testing::TestWithParam<std::pair<const char*, const char*>> {};

TEST_P(JaroPropertyTest, SymmetricBoundedAndWinklerDominates) {
  const auto [a, b] = GetParam();
  const double ab = JaroSimilarity(a, b);
  const double ba = JaroSimilarity(b, a);
  EXPECT_EQ(std::memcmp(&ab, &ba, sizeof(double)), 0) << ab << " vs " << ba;
  EXPECT_GE(ab, 0.0);
  EXPECT_LE(ab, 1.0);
  EXPECT_GE(JaroWinklerSimilarity(a, b), ab - 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, JaroPropertyTest,
    ::testing::Values(std::make_pair("duncan", "duncna"),
                      std::make_pair("campbell", "cambell"),
                      std::make_pair("x", "y"),
                      std::make_pair("macdonald", "mcdonald"),
                      std::make_pair("isabella", "isobel")));

// ---------- set similarities ----------

TEST(SetSimilarityTest, JaccardKnownValues) {
  EXPECT_DOUBLE_EQ(JaccardSimilarity({"a", "b"}, {"b", "c"}), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity({"a"}, {}), 0.0);
  // Duplicates must not change set semantics.
  EXPECT_DOUBLE_EQ(JaccardSimilarity({"a", "a", "b"}, {"b", "c", "c"}),
                   1.0 / 3.0);
}

TEST(SetSimilarityTest, DiceAndOverlapKnownValues) {
  EXPECT_DOUBLE_EQ(DiceSimilarity({"a", "b"}, {"b", "c"}), 0.5);
  EXPECT_DOUBLE_EQ(OverlapCoefficient({"a", "b"}, {"b"}), 1.0);
  EXPECT_DOUBLE_EQ(OverlapCoefficient({"a"}, {"b"}), 0.0);
}

TEST(SetSimilarityTest, WordJaccardOnSentences) {
  EXPECT_DOUBLE_EQ(
      WordJaccardSimilarity("efficient entity resolution",
                            "entity resolution at scale"),
      2.0 / 5.0);
}

TEST(SetSimilarityTest, QGramJaccardToleratesTypos) {
  const double close = QGramJaccardSimilarity("thompson", "thomson");
  const double far = QGramJaccardSimilarity("thompson", "anderson");
  EXPECT_GT(close, far);
  EXPECT_GT(close, 0.5);
}

// Monge-Elkan over copied std::string tokens, as it was computed before
// the view-based tokens.
double StringTokenMongeElkan(const std::vector<std::string>& a,
                             const std::vector<std::string>& b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  double total = 0.0;
  for (const auto& ta : a) {
    double best = 0.0;
    for (const auto& tb : b) {
      best = std::max(best, JaroWinklerSimilarity(ta, tb));
    }
    total += best;
  }
  return total / static_cast<double>(a.size());
}

// The Jaro kernel before the bit-flag rewrite, kept verbatim as the
// oracle of today's kernel: match flags in thread-local byte vectors and
// both byte sets rebuilt on every call.
thread_local std::vector<uint8_t> tls_matched_a;
thread_local std::vector<uint8_t> tls_matched_b;

std::array<uint64_t, 4> ReferenceByteSet(std::string_view s) {
  std::array<uint64_t, 4> set{};
  for (const char c : s) {
    const auto byte = static_cast<unsigned char>(c);
    set[byte >> 6] |= uint64_t{1} << (byte & 63);
  }
  return set;
}

double ReferenceJaro(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  // Identical strings match completely with no transpositions; the
  // general path below evaluates to (1 + 1 + 1) / 3 exactly.
  if (a == b) return 1.0;
  // Disjoint byte sets mean zero matches regardless of the window —
  // exactly the matches == 0 exit below.
  const std::array<uint64_t, 4> set_a = ReferenceByteSet(a);
  const std::array<uint64_t, 4> set_b = ReferenceByteSet(b);
  if (((set_a[0] & set_b[0]) | (set_a[1] & set_b[1]) |
       (set_a[2] & set_b[2]) | (set_a[3] & set_b[3])) == 0) {
    return 0.0;
  }

  const size_t len_a = a.size();
  const size_t len_b = b.size();
  const size_t max_len = std::max(len_a, len_b);
  // Matching window per the Jaro definition.
  const size_t window = max_len / 2 == 0 ? 0 : max_len / 2 - 1;

  std::vector<uint8_t>& matched_a = tls_matched_a;
  std::vector<uint8_t>& matched_b = tls_matched_b;
  matched_a.assign(len_a, 0);
  matched_b.assign(len_b, 0);

  size_t matches = 0;
  for (size_t i = 0; i < len_a; ++i) {
    const size_t lo = i > window ? i - window : 0;
    const size_t hi = std::min(len_b, i + window + 1);
    for (size_t j = lo; j < hi; ++j) {
      if (matched_b[j] != 0 || a[i] != b[j]) continue;
      matched_a[i] = 1;
      matched_b[j] = 1;
      ++matches;
      break;
    }
  }
  if (matches == 0) return 0.0;

  // Count transpositions between the matched subsequences.
  size_t transpositions = 0;
  size_t j = 0;
  for (size_t i = 0; i < len_a; ++i) {
    if (matched_a[i] == 0) continue;
    while (matched_b[j] == 0) ++j;
    if (a[i] != b[j]) ++transpositions;
    ++j;
  }

  const double m = static_cast<double>(matches);
  const double t = static_cast<double>(transpositions / 2);
  return (m / static_cast<double>(len_a) + m / static_cast<double>(len_b) +
          (m - t) / m) /
         3.0;
}

double ReferenceJaroWinkler(std::string_view a, std::string_view b,
                            double prefix_weight = 0.1, int max_prefix = 4) {
  const double jaro = ReferenceJaro(a, b);
  size_t prefix = 0;
  const size_t limit =
      std::min({a.size(), b.size(), static_cast<size_t>(max_prefix)});
  while (prefix < limit && a[prefix] == b[prefix]) ++prefix;
  return jaro + static_cast<double>(prefix) * prefix_weight * (1.0 - jaro);
}

// The one-direction Monge-Elkan the one-matrix SymmetricMongeElkan
// replaced, verbatim over the reference kernel: every token pair is
// scored in each direction.
double ReferenceMongeElkan(std::span<const std::string_view> a,
                           std::span<const std::string_view> b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  double total = 0.0;
  for (std::string_view ta : a) {
    double best = 0.0;
    for (std::string_view tb : b) {
      best = std::max(best, ReferenceJaroWinkler(ta, tb));
    }
    total += best;
  }
  return total / static_cast<double>(a.size());
}

bool SameDouble(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Values for the oracle: the assorted byte strings, tokens at and around
// the 64-byte flag word, and bytes >= 0x80 in every position.
std::vector<std::string> OracleValues() {
  std::vector<std::string> values = AssortedByteStrings(150, 13);
  Rng rng(17);
  for (size_t length : {63u, 64u, 65u, 130u}) {
    for (int copy = 0; copy < 3; ++copy) {
      values.push_back(RandomWord(&rng, length, 3));
      values.back().resize(length, 'a');
    }
  }
  for (const char* high : {"\x80", "\xff\xfe\x80", "caf\xc3\xa9",
                           "\xc3\xa9" "caf", "na\xc3\xafve caf\xc3\xa9",
                           "\xe6\x97\xa5\xe6\x9c\xac \xff"}) {
    values.push_back(high);
  }
  return values;
}

TEST(JaroOracleTest, KernelMatchesTheThreadLocalFlagKernelBitForBit) {
  const std::vector<std::string> values = OracleValues();
  for (const std::string& a : values) {
    for (const std::string& b : values) {
      ASSERT_TRUE(SameDouble(JaroSimilarity(a, b), ReferenceJaro(a, b)))
          << "'" << a << "' vs '" << b << "'";
      ASSERT_TRUE(SameDouble(JaroWinklerSimilarity(a, b),
                             ReferenceJaroWinkler(a, b)))
          << "'" << a << "' vs '" << b << "'";
      ASSERT_TRUE(SameDouble(JaroWinklerSimilarity(a, b, 0.2, 5),
                             ReferenceJaroWinkler(a, b, 0.2, 5)))
          << "'" << a << "' vs '" << b << "'";
      ASSERT_TRUE(SameDouble(
          JaroWinklerSimilarity(a, b, ByteSetOf(a), ByteSetOf(b)),
          ReferenceJaroWinkler(a, b)))
          << "'" << a << "' vs '" << b << "'";
    }
  }
}

TEST(JaroOracleTest, OneMatrixMongeElkanMatchesTwoScansBitForBit) {
  std::vector<std::string> values = OracleValues();
  for (const char* words : {"peter christen", "christen peter",
                            "maria garcia lopez", "garcia maria lopes",
                            "a b a b c", "the the the"}) {
    values.push_back(words);
  }
  // Multi-word values whose tokens straddle the 64-byte flag word.
  Rng rng(19);
  for (int value = 0; value < 12; ++value) {
    std::string text;
    for (size_t length : {2u, 63u, 64u, 65u, 130u}) {
      if (rng.NextUint64Below(2) == 0) continue;
      if (!text.empty()) text += ' ';
      std::string token = RandomWord(&rng, length, 4);
      token.resize(length, 'b');
      text += token;
    }
    values.push_back(text);
  }
  // 40 tokens: past the inline column store.
  std::string many;
  for (int token = 0; token < 40; ++token) {
    if (token > 0) many += ' ';
    many += RandomWord(&rng, 6, 5);
    many += 'x';
  }
  values.push_back(many);
  for (const std::string& a : values) {
    const std::vector<std::string_view> ta = WordViews(a);
    for (const std::string& b : values) {
      const std::vector<std::string_view> tb = WordViews(b);
      const double expected =
          std::max(ReferenceMongeElkan(ta, tb), ReferenceMongeElkan(tb, ta));
      ASSERT_TRUE(SameDouble(SymmetricMongeElkan(ta, tb), expected))
          << "'" << a << "' vs '" << b << "'";
      ASSERT_TRUE(SameDouble(SymmetricMongeElkan(a, b), expected))
          << "'" << a << "' vs '" << b << "'";
    }
  }
}

// Every string over `alphabet` letters of length up to `max_length`.
std::vector<std::string> AllStrings(int alphabet, size_t max_length) {
  std::vector<std::string> out = {""};
  for (size_t begin = 0; out.back().size() < max_length;) {
    const size_t end = out.size();
    for (size_t s = begin; s < end; ++s) {
      for (int c = 0; c < alphabet; ++c) {
        out.push_back(out[s] + static_cast<char>('a' + c));
      }
    }
    begin = end;
  }
  return out;
}

// The one-matrix Monge-Elkan reads JW(a, b) for JW(b, a): bit-for-bit
// symmetry of the kernel is what makes it exact.
TEST(JaroSymmetryTest, SymmetricBitForBitOnEveryShortString) {
  size_t pairs = 0;
  const std::pair<int, size_t> kSpaces[] = {{2, 10}, {3, 7}, {4, 5}};
  for (const auto& [alphabet, max_length] : kSpaces) {
    const std::vector<std::string> strings = AllStrings(alphabet, max_length);
    for (size_t x = 0; x < strings.size(); ++x) {
      const std::string& a = strings[x];
      const ByteSet set_a = ByteSetOf(a);
      for (size_t y = x + 1; y < strings.size(); ++y) {
        const std::string& b = strings[y];
        const ByteSet set_b = ByteSetOf(b);
        ASSERT_TRUE(SameDouble(JaroSimilarity(a, b, set_a, set_b),
                               JaroSimilarity(b, a, set_b, set_a)))
            << "'" << a << "' vs '" << b << "'";
        ++pairs;
      }
    }
  }
  EXPECT_EQ(pairs, size_t{8'402'571});
}

TEST(JaroSymmetryTest, SymmetricBitForBitAcrossFlagWords) {
  Rng rng(23);
  const std::pair<size_t, size_t> kLengths[] = {{60, 70}, {120, 140}};
  for (const auto& [lo, hi] : kLengths) {
    for (int trial = 0; trial < 2000; ++trial) {
      const int alphabet = 2 + trial % 5;
      std::string a = RandomWord(&rng, hi, alphabet);
      std::string b = RandomWord(&rng, hi, alphabet);
      a.resize(lo + rng.NextUint64Below(hi - lo + 1), 'a');
      b.resize(lo + rng.NextUint64Below(hi - lo + 1), 'b');
      const double ab = JaroSimilarity(a, b);
      const double ba = JaroSimilarity(b, a);
      ASSERT_TRUE(SameDouble(ab, ba)) << "'" << a << "' vs '" << b << "'";
      ASSERT_TRUE(SameDouble(ab, ReferenceJaro(a, b)))
          << "'" << a << "' vs '" << b << "'";
      ASSERT_TRUE(SameDouble(JaroWinklerSimilarity(a, b),
                             JaroWinklerSimilarity(b, a)));
    }
  }
}

TEST(SetSimilarityTest, WordFunctionsMatchStringTokenReference) {
  std::vector<std::string> values = AssortedByteStrings(120, 9);
  for (const char* words : {"the the the", "peter christen", "christen peter",
                            "a b a b c", "b a", "smith smyth smith"}) {
    values.push_back(words);
  }
  for (const std::string& a : values) {
    for (const std::string& b : values) {
      const auto ta = WordTokens(a);
      const auto tb = WordTokens(b);
      const double jaccard = JaccardSimilarity(ta, tb);
      const double monge_elkan = std::max(StringTokenMongeElkan(ta, tb),
                                          StringTokenMongeElkan(tb, ta));
      const double got_jaccard = WordJaccardSimilarity(a, b);
      const double got_monge_elkan = SymmetricMongeElkan(a, b);
      ASSERT_EQ(std::memcmp(&got_jaccard, &jaccard, sizeof(double)), 0)
          << "'" << a << "' vs '" << b << "'";
      ASSERT_EQ(std::memcmp(&got_monge_elkan, &monge_elkan, sizeof(double)),
                0)
          << "'" << a << "' vs '" << b << "'";
    }
  }
}

TEST(SetSimilarityTest, MongeElkanHandlesWordReorder) {
  const double reordered =
      SymmetricMongeElkan("peter christen", "christen peter");
  EXPECT_GT(reordered, 0.95);
}

// ---------- numeric ----------

TEST(NumericSimilarityTest, AbsoluteDifference) {
  EXPECT_DOUBLE_EQ(AbsoluteDifferenceSimilarity(1970, 1971, 10), 0.9);
  EXPECT_DOUBLE_EQ(AbsoluteDifferenceSimilarity(1970, 1990, 10), 0.0);
  EXPECT_DOUBLE_EQ(AbsoluteDifferenceSimilarity(5, 5, 10), 1.0);
}

TEST(NumericSimilarityTest, StringVariantFallsBackToExact) {
  EXPECT_DOUBLE_EQ(NumericStringSimilarity("1970", "1971", 10), 0.9);
  EXPECT_DOUBLE_EQ(NumericStringSimilarity("abc", "abc", 10), 1.0);
  EXPECT_DOUBLE_EQ(NumericStringSimilarity("abc", "abd", 10), 0.0);
}

TEST(NumericSimilarityTest, ExactSimilarity) {
  EXPECT_DOUBLE_EQ(ExactSimilarity("x", "x"), 1.0);
  EXPECT_DOUBLE_EQ(ExactSimilarity("x", "y"), 0.0);
}

// ---------- registry ----------

TEST(SimilarityRegistryTest, BuiltinsAreRegistered) {
  auto& registry = SimilarityRegistry::Global();
  for (const char* name :
       {"jaro", "jaro_winkler", "levenshtein", "word_jaccard",
        "qgram_jaccard", "qgram_dice", "lcs", "monge_elkan", "exact",
        "year", "numeric_abs", "damerau_levenshtein"}) {
    EXPECT_TRUE(registry.Contains(name)) << name;
  }
}

TEST(SimilarityRegistryTest, LookupReturnsWorkingFunction) {
  auto fn = SimilarityRegistry::Global().Lookup("jaro_winkler");
  ASSERT_TRUE(fn.ok());
  EXPECT_NEAR(fn.value()("MARTHA", "MARHTA"), 0.961111, 1e-5);
}

TEST(SimilarityRegistryTest, UnknownNameIsNotFound) {
  auto fn = SimilarityRegistry::Global().Lookup("no_such_sim");
  ASSERT_FALSE(fn.ok());
  EXPECT_EQ(fn.status().code(), StatusCode::kNotFound);
}

TEST(SimilarityRegistryTest, RegisterAndReplace) {
  SimilarityRegistry& registry = SimilarityRegistry::Global();
  registry.Register("test_constant",
                    [](std::string_view, std::string_view) { return 0.25; });
  auto fn = registry.Lookup("test_constant");
  ASSERT_TRUE(fn.ok());
  EXPECT_DOUBLE_EQ(fn.value()("a", "b"), 0.25);
  registry.Register("test_constant",
                    [](std::string_view, std::string_view) { return 0.75; });
  EXPECT_DOUBLE_EQ(registry.Lookup("test_constant").value()("a", "b"), 0.75);
}

// All registered similarities stay within [0, 1] on assorted inputs.
class RegistryRangePropertyTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(RegistryRangePropertyTest, OutputWithinUnitInterval) {
  auto fn = SimilarityRegistry::Global().Lookup(GetParam());
  ASSERT_TRUE(fn.ok());
  const std::vector<std::pair<std::string, std::string>> inputs = {
      {"", ""},        {"a", ""},          {"abc", "abc"},
      {"1970", "1985"}, {"smith", "smyth"}, {"x y z", "z y x"},
  };
  for (const auto& [a, b] : inputs) {
    const double sim = fn.value()(a, b);
    EXPECT_GE(sim, 0.0) << GetParam() << "('" << a << "','" << b << "')";
    EXPECT_LE(sim, 1.0) << GetParam() << "('" << a << "','" << b << "')";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBuiltins, RegistryRangePropertyTest,
    ::testing::Values("jaro", "jaro_winkler", "levenshtein",
                      "damerau_levenshtein", "word_jaccard", "qgram_jaccard",
                      "qgram_dice", "lcs", "monge_elkan", "exact", "year",
                      "numeric_abs"));

// ---------- banded edit distance ----------

// The naive full-table DP the banded implementation must match exactly.
size_t NaiveLevenshtein(std::string_view a, std::string_view b) {
  std::vector<std::vector<size_t>> dp(a.size() + 1,
                                      std::vector<size_t>(b.size() + 1, 0));
  for (size_t i = 0; i <= a.size(); ++i) dp[i][0] = i;
  for (size_t j = 0; j <= b.size(); ++j) dp[0][j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    for (size_t j = 1; j <= b.size(); ++j) {
      dp[i][j] = std::min({dp[i - 1][j] + 1, dp[i][j - 1] + 1,
                           dp[i - 1][j - 1] +
                               (a[i - 1] == b[j - 1] ? size_t{0} : size_t{1})});
    }
  }
  return dp[a.size()][b.size()];
}

TEST(EditDistanceTest, BandedMatchesNaiveExhaustively) {
  Rng rng(101);
  for (int trial = 0; trial < 3000; ++trial) {
    // A small alphabet produces heavy prefix/suffix overlap and tight
    // bands; a larger one produces near-maximal distances.
    const int alphabet = trial % 2 == 0 ? 2 : 8;
    const std::string a = RandomWord(&rng, 14, alphabet);
    const std::string b = RandomWord(&rng, 14, alphabet);
    EXPECT_EQ(LevenshteinDistance(a, b), NaiveLevenshtein(a, b))
        << "a=\"" << a << "\" b=\"" << b << "\"";
  }
}

TEST(EditDistanceTest, BandedMatchesNaiveOnLongStrings) {
  Rng rng(102);
  for (int trial = 0; trial < 50; ++trial) {
    const std::string a = RandomWord(&rng, 120, 4);
    const std::string b = RandomWord(&rng, 120, 4);
    EXPECT_EQ(LevenshteinDistance(a, b), NaiveLevenshtein(a, b));
  }
}

TEST(EditDistanceTest, BoundedReturnsExactWithinCapAndCapPlusOneBeyond) {
  Rng rng(103);
  for (int trial = 0; trial < 500; ++trial) {
    const std::string a = RandomWord(&rng, 12, 3);
    const std::string b = RandomWord(&rng, 12, 3);
    const size_t exact = NaiveLevenshtein(a, b);
    for (size_t cap : {size_t{0}, size_t{1}, size_t{2}, size_t{5}}) {
      const size_t got = LevenshteinDistanceBounded(a, b, cap);
      if (exact <= cap) {
        EXPECT_EQ(got, exact) << "a=\"" << a << "\" b=\"" << b << "\"";
      } else {
        EXPECT_EQ(got, cap + 1) << "a=\"" << a << "\" b=\"" << b << "\"";
      }
    }
  }
}

TEST(EditDistanceTest, BoundedShortCircuitsOnLengthDifference) {
  // |len difference| > cap exits before any DP work.
  EXPECT_EQ(LevenshteinDistanceBounded("ab", "abcdefgh", 3), 4u);
  EXPECT_EQ(LevenshteinDistanceBounded("", "xyz", 2), 3u);
  EXPECT_EQ(LevenshteinDistanceBounded("same", "same", 0), 0u);
}

// ---------- jaro-winkler short circuits ----------

TEST(JaroWinklerTest, EqualStringShortCircuitIsExact) {
  for (const char* s : {"a", "martha", "0123456789abcdef"}) {
    EXPECT_EQ(JaroSimilarity(s, s), 1.0);
    EXPECT_EQ(JaroWinklerSimilarity(s, s), 1.0);
  }
}

TEST(JaroWinklerTest, DisjointCharacterSetsAreExactlyZero) {
  EXPECT_EQ(JaroSimilarity("aaaa", "bbbb"), 0.0);
  EXPECT_EQ(JaroSimilarity("abc", "xyz"), 0.0);
  EXPECT_EQ(JaroWinklerSimilarity("abc", "xyz"), 0.0);
}

TEST(JaroWinklerTest, ShortCircuitsAgreeWithGeneralPath) {
  // Values computed through the general path on pairs that do share
  // characters stay unchanged by the fast paths.
  EXPECT_NEAR(JaroSimilarity("martha", "marhta"), 0.944444444444, 1e-9);
  EXPECT_NEAR(JaroWinklerSimilarity("martha", "marhta"), 0.961111111111,
              1e-9);
  EXPECT_GT(JaroSimilarity("dwayne", "duane"), 0.8);
}

}  // namespace
}  // namespace transer
