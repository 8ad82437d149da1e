#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstring>
#include <string>
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
  EXPECT_NEAR(ab, JaroSimilarity(b, a), 1e-12);
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

std::string RandomWord(Rng* rng, size_t max_len, int alphabet) {
  std::string s(rng->NextUint64Below(max_len + 1), 'a');
  for (char& c : s) {
    c = static_cast<char>('a' + rng->NextUint64Below(alphabet));
  }
  return s;
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
