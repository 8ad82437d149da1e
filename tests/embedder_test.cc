#include <cmath>

#include <gtest/gtest.h>

#include "linalg/vector_ops.h"
#include "text/char_ngram_embedder.h"

namespace transer {
namespace {

TEST(CharNgramEmbedderTest, DimensionAndDeterminism) {
  CharNgramEmbedderOptions options;
  options.dimension = 24;
  CharNgramEmbedder embedder(options);
  const auto a = embedder.Embed("kirielle");
  const auto b = embedder.Embed("kirielle");
  EXPECT_EQ(a.size(), 24u);
  EXPECT_EQ(a, b);
}

TEST(CharNgramEmbedderTest, NonEmptyStringsAreUnitNorm) {
  CharNgramEmbedder embedder;
  EXPECT_NEAR(L2Norm(embedder.Embed("christen")), 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(L2Norm(embedder.Embed("")), 0.0);
}

TEST(CharNgramEmbedderTest, SimilarSpellingsAreCloserThanUnrelated) {
  CharNgramEmbedder embedder;
  const auto base = embedder.Embed("margaret");
  const auto typo = embedder.Embed("margret");
  const auto other = embedder.Embed("xylophone");
  EXPECT_GT(Dot(base, typo), Dot(base, other));
  EXPECT_GT(Dot(base, typo), 0.5);  // subword overlap dominates
}

TEST(CharNgramEmbedderTest, SeedChangesTheSpace) {
  CharNgramEmbedderOptions a_options;
  a_options.seed = 1;
  CharNgramEmbedderOptions b_options;
  b_options.seed = 2;
  CharNgramEmbedder a(a_options), b(b_options);
  EXPECT_NE(a.Embed("smith"), b.Embed("smith"));
}

TEST(CharNgramEmbedderTest, EmbedFieldsConcatenates) {
  CharNgramEmbedderOptions options;
  options.dimension = 8;
  CharNgramEmbedder embedder(options);
  const auto out = embedder.EmbedFields({"a", "b", "c"});
  EXPECT_EQ(out.size(), 24u);
}

}  // namespace
}  // namespace transer
