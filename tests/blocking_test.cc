#include <set>

#include <gtest/gtest.h>

#include "blocking/minhash_lsh.h"
#include "data/bibliographic_generator.h"
#include "util/execution_context.h"

namespace transer {
namespace {

Schema TwoAttrSchema() {
  return Schema({{"name", "jaro_winkler"}, {"city", "jaro_winkler"}});
}

LinkageProblem SmallProblem() {
  LinkageProblem problem;
  problem.left = Dataset("l", TwoAttrSchema());
  problem.right = Dataset("r", TwoAttrSchema());
  problem.left.Add({"l0", 0, {"alice smith", "portree"}});
  problem.left.Add({"l1", 1, {"bob jones", "glasgow"}});
  problem.left.Add({"l2", 2, {"carol brown", "portree"}});
  problem.right.Add({"r0", 0, {"alice smith", "portree"}});
  problem.right.Add({"r1", 3, {"zed quux", "aberdeen"}});
  problem.right.Add({"r2", 2, {"carol browne", "portree"}});
  return problem;
}

std::set<std::pair<size_t, size_t>> ToSet(const std::vector<PairRef>& pairs) {
  std::set<std::pair<size_t, size_t>> out;
  for (const auto& pair : pairs) {
    out.insert({pair.left_index, pair.right_index});
  }
  return out;
}

// The unlimited context never interrupts, so value() cannot abort.
std::vector<PairRef> Block(const MinHashLshBlocker& blocker,
                           const LinkageProblem& problem) {
  return blocker
      .Block(problem.left, problem.right, ExecutionContext::Unlimited())
      .value();
}

// ---------- MinHash LSH ----------

TEST(MinHashLshTest, SignatureIsDeterministicAndSized) {
  MinHashLshOptions options;
  options.num_bands = 4;
  options.rows_per_band = 3;
  MinHashLshBlocker blocker(options);
  Record record{"r", 0, {"entity resolution survey", "portree"}};
  const auto sig1 = blocker.Signature(record);
  const auto sig2 = blocker.Signature(record);
  EXPECT_EQ(sig1.size(), 12u);
  EXPECT_EQ(sig1, sig2);
}

TEST(MinHashLshTest, IdenticalRecordsShareAllSignatureRows) {
  MinHashLshBlocker blocker;
  Record a{"a", 0, {"the quick brown fox", "x"}};
  Record b{"b", 1, {"the quick brown fox", "x"}};
  EXPECT_EQ(blocker.Signature(a), blocker.Signature(b));
}

TEST(MinHashLshTest, SimilarRecordsShareMoreRowsThanDissimilar) {
  MinHashLshOptions options;
  options.num_bands = 16;
  options.rows_per_band = 2;
  MinHashLshBlocker blocker(options);
  Record base{"a", 0, {"efficient entity resolution methods", "portree"}};
  Record close_record{"b", 1,
                {"efficient entity resolution method", "portree"}};
  Record far{"c", 2, {"completely different topic", "aberdeen"}};
  const auto sig_base = blocker.Signature(base);
  const auto sig_close = blocker.Signature(close_record);
  const auto sig_far = blocker.Signature(far);
  size_t close_agree = 0, far_agree = 0;
  for (size_t i = 0; i < sig_base.size(); ++i) {
    close_agree += sig_base[i] == sig_close[i] ? 1 : 0;
    far_agree += sig_base[i] == sig_far[i] ? 1 : 0;
  }
  EXPECT_GT(close_agree, far_agree);
}

TEST(MinHashLshTest, BlocksFindTrueMatchesWithHighRecall) {
  BibliographicOptions gen_options;
  gen_options.num_entities = 300;
  gen_options.right_corruption.typo_probability = 0.3;
  const LinkageProblem problem = GenerateBibliographic(gen_options);

  MinHashLshBlocker blocker;
  const auto pairs = Block(blocker, problem);
  size_t found_matches = 0;
  for (const auto& pair : pairs) {
    if (problem.left.record(pair.left_index).entity_id ==
        problem.right.record(pair.right_index).entity_id) {
      ++found_matches;
    }
  }
  const size_t total_matches = problem.CountTrueMatches();
  // LSH blocking must retain the vast majority of true matches while
  // pruning most of the |L| x |R| comparison space, and true matches
  // must not drown among the candidates (pairs quality above 5%).
  EXPECT_GT(static_cast<double>(found_matches) /
                static_cast<double>(total_matches),
            0.9);
  EXPECT_LT(pairs.size(), problem.left.size() * problem.right.size() / 4);
  EXPECT_GT(found_matches * 20, pairs.size())
      << found_matches << " true matches in " << pairs.size();
}

TEST(MinHashLshTest, PairsAreDeduplicated) {
  const LinkageProblem problem = SmallProblem();
  MinHashLshBlocker blocker;
  const auto pairs = Block(blocker, problem);
  const auto unique = ToSet(pairs);
  EXPECT_EQ(unique.size(), pairs.size());
}

TEST(MinHashLshTest, SkipsBucketsOverMaxBucketSize) {
  // Identical records share every band bucket: one bucket of 20 per side.
  Schema schema({{"k", "exact"}});
  LinkageProblem problem;
  problem.left = Dataset("l", schema);
  problem.right = Dataset("r", schema);
  for (int i = 0; i < 20; ++i) {
    problem.left.Add({"l" + std::to_string(i), i, {"same"}});
    problem.right.Add({"r" + std::to_string(i), i, {"same"}});
  }
  MinHashLshOptions options;
  options.max_bucket_size = 20;
  EXPECT_EQ(Block(MinHashLshBlocker(options), problem).size(), 400u);
  options.max_bucket_size = 19;
  EXPECT_TRUE(Block(MinHashLshBlocker(options), problem).empty());
}

TEST(MinHashLshTest, AttributeSubsetRestrictsShingles) {
  MinHashLshOptions options;
  options.attributes = {1};  // only the city attribute
  MinHashLshBlocker blocker(options);
  Record a{"a", 0, {"totally different title", "portree"}};
  Record b{"b", 1, {"another unrelated title!", "portree"}};
  EXPECT_EQ(blocker.Signature(a), blocker.Signature(b));
}

}  // namespace
}  // namespace transer
