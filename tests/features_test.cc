#include <gtest/gtest.h>

#include "features/ambiguity.h"
#include "features/comparator.h"
#include "features/feature_matrix.h"

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
