#include <set>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include <gtest/gtest.h>

#include "blocking/minhash_lsh.h"
#include "data/bibliographic_generator.h"
#include "data/demographic_generator.h"
#include "text/normalize.h"
#include "text/tokenize.h"
#include "util/execution_context.h"
#include "util/parallel.h"
#include "util/random.h"

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


// ---------- Differential: parallel Block vs the serial reference ----------

// The serial blocker the parallel one replaced, kept as the reference: a
// string per q-gram, one std::unordered_map<uint64_t, Bucket> per band
// filled lefts-then-rights, and one `emitted` set across bands.
namespace reference {

uint64_t HashBytes(std::string_view bytes, uint64_t seed) {
  uint64_t h = 14695981039346656037ULL ^ seed;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

uint64_t MixHash(uint64_t value, uint64_t seed) {
  uint64_t h = value ^ seed;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

std::vector<uint64_t> Signature(const MinHashLshOptions& options,
                                const Record& record) {
  Rng rng(options.seed);
  std::vector<uint64_t> seeds(options.num_bands * options.rows_per_band);
  for (uint64_t& seed : seeds) seed = rng.NextUint64();
  std::vector<uint64_t> shingles;
  auto add_value = [&](const std::string& value) {
    const std::string norm = NormalizeValue(value);
    for (const auto& gram : QGrams(norm, options.shingle_q)) {
      shingles.push_back(HashBytes(gram, /*seed=*/0));
    }
  };
  if (options.attributes.empty()) {
    for (const auto& value : record.values) add_value(value);
  } else {
    for (size_t index : options.attributes) {
      if (index < record.values.size()) add_value(record.values[index]);
    }
  }
  std::vector<uint64_t> signature(seeds.size(),
                                  std::numeric_limits<uint64_t>::max());
  for (uint64_t shingle : shingles) {
    for (size_t r = 0; r < seeds.size(); ++r) {
      const uint64_t h = MixHash(shingle, seeds[r]);
      if (h < signature[r]) signature[r] = h;
    }
  }
  return signature;
}

std::vector<PairRef> Block(const MinHashLshOptions& options,
                           const Dataset& left, const Dataset& right) {
  struct Bucket {
    std::vector<size_t> lefts;
    std::vector<size_t> rights;
  };
  std::vector<std::vector<uint64_t>> left_sigs(left.size());
  std::vector<std::vector<uint64_t>> right_sigs(right.size());
  for (size_t i = 0; i < left.size(); ++i) {
    left_sigs[i] = Signature(options, left.record(i));
  }
  for (size_t j = 0; j < right.size(); ++j) {
    right_sigs[j] = Signature(options, right.record(j));
  }
  std::unordered_set<uint64_t> emitted;
  std::vector<PairRef> pairs;
  for (size_t band = 0; band < options.num_bands; ++band) {
    std::unordered_map<uint64_t, Bucket> buckets;
    auto band_key = [&](const std::vector<uint64_t>& sig) {
      uint64_t key = 0x9e3779b97f4a7c15ULL + band;
      for (size_t r = 0; r < options.rows_per_band; ++r) {
        key = MixHash(sig[band * options.rows_per_band + r], key);
      }
      return key;
    };
    for (size_t i = 0; i < left.size(); ++i) {
      buckets[band_key(left_sigs[i])].lefts.push_back(i);
    }
    for (size_t j = 0; j < right.size(); ++j) {
      buckets[band_key(right_sigs[j])].rights.push_back(j);
    }
    for (const auto& [key, bucket] : buckets) {
      if (bucket.lefts.empty() || bucket.rights.empty()) continue;
      if (bucket.lefts.size() > options.max_bucket_size ||
          bucket.rights.size() > options.max_bucket_size) {
        continue;
      }
      for (size_t li : bucket.lefts) {
        for (size_t rj : bucket.rights) {
          const uint64_t id =
              (static_cast<uint64_t>(li) << 32) | static_cast<uint64_t>(rj);
          if (emitted.insert(id).second) pairs.push_back(PairRef{li, rj});
        }
      }
    }
  }
  return pairs;
}

}  // namespace reference

std::vector<std::pair<size_t, size_t>> AsPairs(
    const std::vector<PairRef>& pairs) {
  std::vector<std::pair<size_t, size_t>> out;
  out.reserve(pairs.size());
  for (const PairRef& pair : pairs) {
    out.emplace_back(pair.left_index, pair.right_index);
  }
  return out;
}

// Block's pair vector, order included, equals the reference's at 1, 4 and
// 8 lanes, and every record's signature equals the reference signature.
void ExpectMatchesReference(const MinHashLshOptions& options,
                            const LinkageProblem& problem) {
  const MinHashLshBlocker blocker(options);
  const auto expected =
      AsPairs(reference::Block(options, problem.left, problem.right));
  for (int threads : {1, 4, 8}) {
    ParallelOptions parallel;
    parallel.num_threads = threads;
    auto pairs = blocker.Block(problem.left, problem.right,
                               ExecutionContext::Unlimited(), nullptr,
                               parallel);
    ASSERT_TRUE(pairs.ok()) << pairs.status().ToString();
    EXPECT_EQ(AsPairs(pairs.value()), expected) << "threads=" << threads;
  }
  for (const Dataset* side : {&problem.left, &problem.right}) {
    for (size_t i = 0; i < side->size(); ++i) {
      ASSERT_EQ(blocker.Signature(side->record(i)),
                reference::Signature(options, side->record(i)))
          << side->name() << " record " << i;
    }
  }
}

TEST(MinHashLshDifferentialTest, SeededBibliographicProblems) {
  for (uint64_t seed : {1u, 7u, 11u}) {
    BibliographicOptions gen;
    gen.num_entities = 250;
    gen.seed = seed;
    gen.right_corruption.typo_probability = 0.4;
    gen.right_corruption.missing_probability = 0.1;
    const LinkageProblem problem = GenerateBibliographic(gen);
    ASSERT_GT(reference::Block({}, problem.left, problem.right).size(), 0u);
    ExpectMatchesReference({}, problem);
  }
}

TEST(MinHashLshDifferentialTest, SeededDemographicProblems) {
  for (uint64_t seed : {3u, 13u}) {
    DemographicOptions gen;
    gen.num_families = 150;
    gen.seed = seed;
    const LinkageProblem problem = GenerateDemographic(gen);
    ASSERT_GT(reference::Block({}, problem.left, problem.right).size(), 0u);
    ExpectMatchesReference({}, problem);
  }
}

TEST(MinHashLshDifferentialTest, EmptyAndShortValuesAndAttributeSubset) {
  Schema schema({{"a", "exact"}, {"b", "exact"}, {"c", "exact"}});
  LinkageProblem problem;
  problem.left = Dataset("l", schema);
  problem.right = Dataset("r", schema);
  const std::vector<std::vector<std::string>> values = {
      {"", "", ""},          {"  ", "!!", "\t"},  {"a", "ab", ""},
      {"ab", "a", "x"},      {"abc", "", "abc"},   {"A.", "b", "abcd"},
      {"", "ab", "ab"},      {"abcd", "abc", "a"}, {"zz", "", "zz"},
      {"\xc3\xa9t\xc3\xa9", "", "caf\xc3\xa9"}};
  for (size_t i = 0; i < values.size(); ++i) {
    problem.left.Add({std::to_string(i), static_cast<int64_t>(i), values[i]});
    problem.right.Add({std::to_string(i), static_cast<int64_t>(i),
                       values[values.size() - 1 - i]});
  }
  ExpectMatchesReference({}, problem);
  MinHashLshOptions subset;
  subset.attributes = {2, 0, 9};  // out-of-range indices are skipped
  ExpectMatchesReference(subset, problem);
  MinHashLshOptions long_shingles;
  long_shingles.shingle_q = 5;  // most values are shorter than q
  long_shingles.num_bands = 3;
  long_shingles.rows_per_band = 1;
  ExpectMatchesReference(long_shingles, problem);
}

TEST(MinHashLshDifferentialTest, BucketsAtAndOverMaxBucketSize) {
  // Two keys: "same" fills one bucket of 12 per side; "other" one of 13.
  Schema schema({{"k", "exact"}});
  LinkageProblem problem;
  problem.left = Dataset("l", schema);
  problem.right = Dataset("r", schema);
  for (int i = 0; i < 25; ++i) {
    const std::string value = i % 2 == 0 ? "other" : "same";
    problem.left.Add({std::to_string(i), i, {value}});
    problem.right.Add({std::to_string(i), i, {value}});
  }
  for (size_t cap : {13u, 12u}) {
    MinHashLshOptions options;
    options.max_bucket_size = cap;
    ExpectMatchesReference(options, problem);
  }
  MinHashLshOptions options;
  options.max_bucket_size = 12;
  EXPECT_EQ(Block(MinHashLshBlocker(options), problem).size(), 144u);
  options.max_bucket_size = 13;
  EXPECT_EQ(Block(MinHashLshBlocker(options), problem).size(), 144u + 169u);
}

TEST(MinHashLshDifferentialTest, InterruptedRunsReleaseTheirReservation) {
  BibliographicOptions gen;
  gen.num_entities = 200;
  const LinkageProblem problem = GenerateBibliographic(gen);
  const MinHashLshBlocker blocker;
  ParallelOptions parallel;
  parallel.num_threads = 4;

  CancellationToken token;
  token.Cancel();
  ExecutionContext cancelled({}, &token);
  auto pairs = blocker.Block(problem.left, problem.right, cancelled, nullptr,
                             parallel);
  ASSERT_FALSE(pairs.ok());
  EXPECT_NE(pairs.status().message().find("cancelled"), std::string::npos);
  EXPECT_EQ(cancelled.reserved_bytes(), 0u);

  ExecutionContext deadline({/*time=*/1e-9, /*memory=*/0});
  RunDiagnostics diagnostics;
  pairs = blocker.Block(problem.left, problem.right, deadline, &diagnostics,
                        parallel);
  ASSERT_FALSE(pairs.ok());
  EXPECT_NE(pairs.status().message().find("(TE)"), std::string::npos);
  EXPECT_EQ(diagnostics.CountKind(DegradationKind::kTimeLimitExceeded), 1u);
  EXPECT_EQ(deadline.reserved_bytes(), 0u);
}

}  // namespace
}  // namespace transer
