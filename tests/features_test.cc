#include <cstring>

#include <gtest/gtest.h>

#include "blocking/minhash_lsh.h"
#include "data/bibliographic_generator.h"
#include "data/demographic_generator.h"
#include "data/music_generator.h"
#include "features/ambiguity.h"
#include "features/comparator.h"
#include "features/feature_matrix.h"
#include "text/normalize.h"
#include "text/similarity_registry.h"

namespace transer {
namespace {

FeatureMatrix TwoFeatureMatrix() {
  FeatureMatrix x({"a", "b"});
  x.Append({0.1, 0.2}, kNonMatch, {0, 0});
  x.Append({0.9, 0.8}, kMatch, {1, 2});
  x.Append({0.5, 0.5}, kUnlabeled, {3, 4});
  return x;
}

// ---------- FeatureMatrix ----------

TEST(FeatureMatrixTest, AppendAndAccess) {
  const FeatureMatrix x = TwoFeatureMatrix();
  EXPECT_EQ(x.size(), 3u);
  EXPECT_EQ(x.num_features(), 2u);
  EXPECT_DOUBLE_EQ(x.Row(1)[0], 0.9);
  EXPECT_EQ(x.label(1), kMatch);
  EXPECT_EQ(x.pair(2).left_index, 3u);
  EXPECT_EQ(x.CountMatches(), 1u);
  EXPECT_EQ(x.CountNonMatches(), 1u);
  EXPECT_EQ(x.CountUnlabeled(), 1u);
}

TEST(FeatureMatrixTest, ToMatrixCopiesData) {
  const FeatureMatrix x = TwoFeatureMatrix();
  const Matrix m = x.ToMatrix();
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_DOUBLE_EQ(m(2, 1), 0.5);
}

TEST(FeatureMatrixTest, SelectKeepsLabelsAndPairs) {
  const FeatureMatrix x = TwoFeatureMatrix();
  const FeatureMatrix sub = x.Select({2, 0});
  ASSERT_EQ(sub.size(), 2u);
  EXPECT_EQ(sub.label(0), kUnlabeled);
  EXPECT_EQ(sub.pair(0).right_index, 4u);
  EXPECT_DOUBLE_EQ(sub.Row(1)[0], 0.1);
}

TEST(FeatureMatrixTest, WithoutLabelsHidesEverything) {
  const FeatureMatrix hidden = TwoFeatureMatrix().WithoutLabels();
  EXPECT_EQ(hidden.CountUnlabeled(), 3u);
}

TEST(FeatureMatrixTest, WithLabelsOverrides) {
  const FeatureMatrix relabeled =
      TwoFeatureMatrix().WithLabels({kMatch, kMatch, kNonMatch});
  EXPECT_EQ(relabeled.CountMatches(), 2u);
  EXPECT_EQ(relabeled.label(2), kNonMatch);
}

TEST(FeatureMatrixTest, CsvRoundTrip) {
  const std::string path = testing::TempDir() + "/transer_features.csv";
  ASSERT_TRUE(TwoFeatureMatrix().ToCsvFile(path).ok());
  auto loaded = FeatureMatrix::FromCsvFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().size(), 3u);
  EXPECT_EQ(loaded.value().feature_names(),
            (std::vector<std::string>{"a", "b"}));
  EXPECT_NEAR(loaded.value().Row(1)[1], 0.8, 1e-6);
  EXPECT_EQ(loaded.value().label(2), kUnlabeled);
}

// ---------- PairComparator ----------

Schema BibSchema() {
  return Schema({{"title", "word_jaccard"}, {"year", "year"}});
}

TEST(PairComparatorTest, ComputesDeclaredSimilarities) {
  auto comparator = PairComparator::Create(BibSchema(), BibSchema());
  ASSERT_TRUE(comparator.ok());
  Record a{"a", 0, {"Entity Resolution Methods", "1970"}};
  Record b{"b", 0, {"entity resolution", "1971"}};
  const auto features = comparator.value().Compare(a, b);
  ASSERT_EQ(features.size(), 2u);
  EXPECT_NEAR(features[0], 2.0 / 3.0, 1e-12);  // word jaccard after norm
  EXPECT_NEAR(features[1], 0.9, 1e-12);        // |1970-1971| / 10
}

TEST(PairComparatorTest, MissingValuesScoreZeroByDefault) {
  auto comparator = PairComparator::Create(BibSchema(), BibSchema());
  ASSERT_TRUE(comparator.ok());
  Record a{"a", 0, {"", "1970"}};
  Record b{"b", 0, {"anything", "1970"}};
  const auto features = comparator.value().Compare(a, b);
  EXPECT_DOUBLE_EQ(features[0], 0.0);
  EXPECT_DOUBLE_EQ(features[1], 1.0);
}

TEST(PairComparatorTest, RejectsIncompatibleSchemas) {
  Schema other({{"title", "jaro"}, {"year", "year"}});
  EXPECT_FALSE(PairComparator::Create(BibSchema(), other).ok());
}

TEST(PairComparatorTest, RejectsUnknownSimilarity) {
  Schema bad({{"title", "definitely_not_registered"}});
  EXPECT_FALSE(PairComparator::Create(bad, bad).ok());
}

TEST(PairComparatorTest, CompareAllLabelsFromEntityIds) {
  Dataset left("l", BibSchema());
  Dataset right("r", BibSchema());
  left.Add({"l0", 7, {"entity resolution", "1999"}});
  right.Add({"r0", 7, {"entity resolution", "1999"}});
  right.Add({"r1", 8, {"graph mining", "2001"}});
  auto comparator = PairComparator::Create(BibSchema(), BibSchema());
  ASSERT_TRUE(comparator.ok());
  auto compared = comparator.value().CompareAll(
      left, right, {{0, 0}, {0, 1}}, ExecutionContext::Unlimited(), {});
  ASSERT_TRUE(compared.ok());
  const FeatureMatrix& features = compared.value();
  ASSERT_EQ(features.size(), 2u);
  EXPECT_EQ(features.label(0), kMatch);
  EXPECT_EQ(features.label(1), kNonMatch);
  EXPECT_DOUBLE_EQ(features.Row(0)[0], 1.0);
}

// ---------- Differential: CompareAll vs the plain per-pair reference ----------

// What every comparison path must equal: normalise both values, then call
// the registry's string function (missing values score the default).
std::vector<double> ReferenceRow(const Schema& schema,
                                 const ComparatorOptions& options,
                                 const Record& left, const Record& right) {
  std::vector<double> row;
  for (size_t q = 0; q < schema.size(); ++q) {
    const std::string a = NormalizeValue(left.values[q], options.normalize);
    const std::string b = NormalizeValue(right.values[q], options.normalize);
    const SimilarityFn fn = SimilarityRegistry::Global()
                                .Lookup(schema.attributes()[q].similarity)
                                .value();
    row.push_back(a.empty() || b.empty() ? options.missing_value_similarity
                                         : fn(a, b));
  }
  return row;
}

bool SameBytes(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// CompareAll at 1, 4 and 8 lanes and Compare() are byte-for-byte the
// reference, with entity-id labels and the input pairs in order.
void ExpectMatchesReference(const LinkageProblem& problem,
                            const std::vector<PairRef>& pairs,
                            const ComparatorOptions& options = {}) {
  const Schema& schema = problem.left.schema();
  const PairComparator comparator =
      PairComparator::Create(schema, problem.right.schema(), options).value();
  for (int threads : {1, 4, 8}) {
    ParallelOptions parallel;
    parallel.num_threads = threads;
    auto compared = comparator.CompareAll(problem.left, problem.right, pairs,
                                          ExecutionContext::Unlimited(),
                                          parallel);
    ASSERT_TRUE(compared.ok()) << compared.status().ToString();
    const FeatureMatrix& features = compared.value();
    ASSERT_EQ(features.size(), pairs.size());
    for (size_t i = 0; i < pairs.size(); ++i) {
      const Record& l = problem.left.record(pairs[i].left_index);
      const Record& r = problem.right.record(pairs[i].right_index);
      const std::vector<double> expected = ReferenceRow(schema, options, l, r);
      ASSERT_TRUE(SameBytes(features.Row(i), expected))
          << "threads=" << threads << " pair " << i << " ('"
          << l.values[0] << "', '" << r.values[0] << "')";
      EXPECT_EQ(features.label(i),
                l.entity_id >= 0 && l.entity_id == r.entity_id ? kMatch
                                                               : kNonMatch);
      EXPECT_EQ(features.pair(i).left_index, pairs[i].left_index);
      EXPECT_EQ(features.pair(i).right_index, pairs[i].right_index);
      if (threads == 1) {
        ASSERT_TRUE(SameBytes(comparator.Compare(l, r), expected)) << i;
      }
    }
  }
}

// Blocked candidates plus every 7th left record against right record 0,
// so unreferenced records sit between referenced ones.
std::vector<PairRef> CandidatePairs(const LinkageProblem& problem) {
  std::vector<PairRef> pairs =
      MinHashLshBlocker()
          .Block(problem.left, problem.right, ExecutionContext::Unlimited())
          .value();
  for (size_t i = 0; i < problem.left.size(); i += 7) pairs.push_back({i, 0});
  return pairs;
}

TEST(PairComparatorDifferentialTest, SeededBibliographicProblems) {
  for (uint64_t seed : {1u, 7u}) {
    BibliographicOptions gen;
    gen.num_entities = 200;
    gen.seed = seed;
    gen.right_corruption.typo_probability = 0.4;
    gen.right_corruption.abbreviate_probability = 0.25;
    gen.right_corruption.drop_word_probability = 0.15;
    gen.right_corruption.missing_probability = 0.1;
    const LinkageProblem problem = GenerateBibliographic(gen);
    ExpectMatchesReference(problem, CandidatePairs(problem));
  }
}

TEST(PairComparatorDifferentialTest, SeededDemographicProblems) {
  for (DemographicLinkType type :
       {DemographicLinkType::kBirthParentsToDeathParents,
        DemographicLinkType::kBirthParentsToBirthParents}) {
    DemographicOptions gen;
    gen.num_families = 120;
    gen.link_type = type;
    gen.left_corruption.ocr_probability = 0.1;
    gen.right_corruption.nickname_probability = 0.2;
    const LinkageProblem problem = GenerateDemographic(gen);
    ExpectMatchesReference(problem, CandidatePairs(problem));
  }
}

TEST(PairComparatorDifferentialTest, SeededMusicProblems) {
  MusicOptions gen;
  gen.num_entities = 200;
  const LinkageProblem problem = GenerateMusic(gen);
  ExpectMatchesReference(problem, CandidatePairs(problem));
}

TEST(PairComparatorDifferentialTest, EdgeValuesUnderEveryBuiltin) {
  std::vector<AttributeSpec> attributes;
  for (const std::string& name : SimilarityRegistry::Global().Names()) {
    if (name.rfind("test_", 0) == 0) continue;  // other tests' registrations
    attributes.push_back({name, name});
  }
  const Schema schema(attributes);
  const std::vector<std::string> edge_values = {
      "",
      "   \t ",
      "?!.,;",
      "-- -- --",
      "the the the",
      "a b a b c",
      "O'Brien,  J.\tP.",
      "caf\xc3\xa9 na\xc3\xafve \xff\xfe",
      "\xe6\x97\xa5\xe6\x9c\xac",
      "19x7",
      "year 1970",
      "1970",
      "  1971 ",
      "-5",
      "1e3",
      "x",
      "Smith Smyth smith"};
  LinkageProblem problem;
  problem.left = Dataset("l", schema);
  problem.right = Dataset("r", schema);
  for (size_t i = 0; i < edge_values.size(); ++i) {
    std::vector<std::string> left_values, right_values;
    for (size_t q = 0; q < attributes.size(); ++q) {
      left_values.push_back(edge_values[(i + q) % edge_values.size()]);
      right_values.push_back(edge_values[(i * 3 + q) % edge_values.size()]);
    }
    problem.left.Add({std::to_string(i), static_cast<int64_t>(i),
                      left_values});
    problem.right.Add({std::to_string(i), static_cast<int64_t>(i % 5),
                       right_values});
  }
  std::vector<PairRef> pairs;
  for (size_t i = 0; i < problem.left.size(); ++i) {
    for (size_t j = 0; j < problem.right.size(); ++j) pairs.push_back({i, j});
  }
  ExpectMatchesReference(problem, pairs);
  ComparatorOptions missing_half;
  missing_half.missing_value_similarity = 0.5;
  ExpectMatchesReference(problem, pairs, missing_half);
}

TEST(PairComparatorDifferentialTest, CustomRegisteredSimilarityIsHonoured) {
  // Scores the raw byte lengths of the normalised values it is handed.
  SimilarityRegistry::Global().Register(
      "test_length_ratio", [](std::string_view a, std::string_view b) {
        return static_cast<double>(std::min(a.size(), b.size())) /
               static_cast<double>(std::max(a.size(), b.size()));
      });
  const Schema schema({{"title", "test_length_ratio"}, {"year", "year"}});
  LinkageProblem problem;
  problem.left = Dataset("l", schema);
  problem.right = Dataset("r", schema);
  problem.left.Add({"l0", 0, {"Entity  Resolution!", "1970"}});
  problem.left.Add({"l1", 1, {"ab", "1999"}});
  problem.right.Add({"r0", 0, {"entity resolution methods", "1971"}});
  problem.right.Add({"r1", 2, {"abcd", ""}});
  const PairComparator comparator =
      PairComparator::Create(schema, schema).value();
  // "entity resolution" (17) vs "entity resolution methods" (25).
  EXPECT_DOUBLE_EQ(comparator.Compare(problem.left.record(0),
                                      problem.right.record(0))[0],
                   17.0 / 25.0);
  EXPECT_DOUBLE_EQ(comparator.Compare(problem.left.record(1),
                                      problem.right.record(1))[0],
                   0.5);
  ExpectMatchesReference(problem, {{0, 0}, {0, 1}, {1, 0}, {1, 1}});
}

TEST(PairComparatorDifferentialTest, PreparedArenaIsReservedAgainstTheBudget) {
  BibliographicOptions gen;
  gen.num_entities = 50;
  const LinkageProblem problem = GenerateBibliographic(gen);
  const PairComparator comparator =
      PairComparator::Create(problem.left.schema(), problem.right.schema())
          .value();
  const std::vector<PairRef> pairs = CandidatePairs(problem);
  ParallelOptions parallel;
  parallel.num_threads = 4;
  RunDiagnostics diagnostics;
  parallel.diagnostics = &diagnostics;

  ExecutionContext tight({/*time=*/0.0, /*memory=*/1024});
  auto compared = comparator.CompareAll(problem.left, problem.right, pairs,
                                        tight, parallel);
  ASSERT_FALSE(compared.ok());
  EXPECT_NE(compared.status().message().find("(ME)"), std::string::npos);
  EXPECT_TRUE(diagnostics.HasKind(DegradationKind::kMemoryLimitExceeded));
  EXPECT_EQ(tight.reserved_bytes(), 0u);

  // An ample budget sees the arenas while they live, and gets them back.
  ExecutionContext ample({/*time=*/0.0, /*memory=*/64u << 20});
  ASSERT_TRUE(comparator
                  .CompareAll(problem.left, problem.right, pairs, ample,
                              parallel)
                  .ok());
  const size_t peak = ample.peak_reserved_bytes();
  EXPECT_GT(peak, 1024u);
  EXPECT_EQ(ample.reserved_bytes(), 0u);

  // Budgets up to the peak run out at every reservation step (a text
  // buffer, a word table, the second arena); each releases everything.
  size_t failures = 0;
  for (size_t budget = 1024; budget <= peak; budget += peak / 64) {
    ExecutionContext context({/*time=*/0.0, /*memory=*/budget});
    auto result = comparator.CompareAll(problem.left, problem.right, pairs,
                                        context, parallel);
    if (!result.ok()) {
      ++failures;
      EXPECT_NE(result.status().message().find("(ME)"), std::string::npos);
    }
    EXPECT_EQ(context.reserved_bytes(), 0u) << "budget " << budget;
  }
  EXPECT_GT(failures, 3u);
}

// ---------- AmbiguityAnalyzer ----------

TEST(AmbiguityTest, KeyRoundsToRequestedDecimals) {
  AmbiguityAnalyzer analyzer(2);
  const std::vector<double> row = {0.123, 0.126};
  EXPECT_EQ(analyzer.Key(std::span<const double>(row.data(), 2)),
            "0.12|0.13|");
}

TEST(AmbiguityTest, DetectsAmbiguousVectors) {
  FeatureMatrix x({"f"});
  x.Append({0.5}, kMatch);
  x.Append({0.5}, kNonMatch);  // same vector, both labels
  x.Append({0.9}, kMatch);
  x.Append({0.1}, kNonMatch);
  const AmbiguityStats stats = AmbiguityAnalyzer().Analyze(x);
  EXPECT_EQ(stats.total_instances, 4u);
  EXPECT_EQ(stats.distinct_vectors, 3u);
  EXPECT_DOUBLE_EQ(stats.ambiguous_fraction, 0.5);
  EXPECT_DOUBLE_EQ(stats.match_fraction, 0.25);
  EXPECT_DOUBLE_EQ(stats.nonmatch_fraction, 0.25);
}

TEST(AmbiguityTest, RoundingMergesCloseVectors) {
  FeatureMatrix x({"f"});
  x.Append({0.501}, kMatch);
  x.Append({0.499}, kNonMatch);  // rounds to the same 0.50
  const AmbiguityStats stats = AmbiguityAnalyzer(2).Analyze(x);
  EXPECT_EQ(stats.distinct_vectors, 1u);
  EXPECT_DOUBLE_EQ(stats.ambiguous_fraction, 1.0);
}

TEST(AmbiguityTest, CommonVectorClassification) {
  FeatureMatrix a({"f"});
  a.Append({0.9}, kMatch);     // common, same class
  a.Append({0.5}, kMatch);     // common, diff class
  a.Append({0.3}, kMatch);     // common, ambiguous in b
  a.Append({0.7}, kMatch);     // only in a
  FeatureMatrix b({"f"});
  b.Append({0.9}, kMatch);
  b.Append({0.5}, kNonMatch);
  b.Append({0.3}, kMatch);
  b.Append({0.3}, kNonMatch);
  const CommonVectorStats stats =
      AmbiguityAnalyzer().AnalyzeCommon(a, b);
  EXPECT_EQ(stats.common_distinct_vectors, 3u);
  EXPECT_NEAR(stats.same_class_fraction, 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(stats.diff_class_fraction, 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(stats.ambiguous_fraction, 1.0 / 3.0, 1e-12);
}

TEST(AmbiguityTest, EmptyMatrixProducesZeroStats) {
  FeatureMatrix x({"f"});
  const AmbiguityStats stats = AmbiguityAnalyzer().Analyze(x);
  EXPECT_EQ(stats.total_instances, 0u);
  EXPECT_DOUBLE_EQ(stats.ambiguous_fraction, 0.0);
}

}  // namespace
}  // namespace transer
