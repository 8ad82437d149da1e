#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/csv.h"
#include "util/flags.h"
#include "util/random.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace transer {
namespace {

// ---------- Status ----------

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("k must be positive");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.ToString(), "InvalidArgument: k must be positive");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  std::set<StatusCode> codes = {
      Status::InvalidArgument("").code(), Status::NotFound("").code(),
      Status::OutOfRange("").code(),      Status::FailedPrecondition("").code(),
      Status::Internal("").code(),        Status::IoError("").code(),
  };
  EXPECT_EQ(codes.size(), 6u);
}

TEST(ResultTest, HoldsValueOnSuccess) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsStatusOnFailure) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, WorksWithoutDefaultConstructibleTypes) {
  struct NoDefault {
    explicit NoDefault(int v) : value(v) {}
    int value;
  };
  Result<NoDefault> r(NoDefault(7));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().value, 7);
}

// ---------- Rng ----------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (a.NextUint64() != b.NextUint64()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NextUint64BelowRespectsBound) {
  Rng rng(6);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextUint64Below(17), 17u);
  }
}

TEST(RngTest, NextUint64BelowMatchesPlainRejectionSampling) {
  // The plain form: reject raw draws below 2^64 mod n, then reduce. Bounds
  // above 2^63 reject about half their draws, so both paths run.
  const uint64_t bounds[] = {1,
                             17,
                             33440,
                             (uint64_t{1} << 63) + 1,
                             ~uint64_t{0} - 2,
                             ~uint64_t{0}};
  for (uint64_t n : bounds) {
    Rng rng(12);
    Rng raw(12);
    for (int i = 0; i < 2000; ++i) {
      const uint64_t threshold = (-n) % n;
      uint64_t r = raw.NextUint64();
      while (r < threshold) r = raw.NextUint64();
      ASSERT_EQ(rng.NextUint64Below(n), r % n) << "n = " << n;
    }
  }
}

TEST(RngTest, NextIntCoversRangeInclusive) {
  Rng rng(7);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextInt(3, 6));
  EXPECT_EQ(seen, (std::set<int>{3, 4, 5, 6}));
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(8);
  const int n = 50000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.NextGaussian();
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RngTest, BernoulliFrequencyMatchesP) {
  Rng rng(9);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(10);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RngTest, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(11);
  const auto sample = rng.SampleWithoutReplacement(50, 20);
  EXPECT_EQ(sample.size(), 20u);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (size_t v : sample) EXPECT_LT(v, 50u);
}

TEST(RngTest, SampleWithoutReplacementFullSet) {
  Rng rng(12);
  const auto sample = rng.SampleWithoutReplacement(10, 10);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(13);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = v;
  rng.Shuffle(&shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(14);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng rng(15);
  Rng forked = rng.Fork(1);
  // The fork should not replay the parent's sequence.
  bool any_diff = false;
  Rng parent_copy(15);
  parent_copy.NextUint64();  // consume what Fork consumed
  for (int i = 0; i < 8; ++i) {
    if (forked.NextUint64() != parent_copy.NextUint64()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

// ---------- string_util ----------

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,,b", ','),
            (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("x", ','), (std::vector<std::string>{"x"}));
}

TEST(StringUtilTest, JoinRoundTripsSplit) {
  const std::vector<std::string> parts = {"alpha", "beta", "gamma"};
  EXPECT_EQ(Split(Join(parts, "|"), '|'), parts);
}

TEST(StringUtilTest, TrimRemovesSurroundingWhitespace) {
  EXPECT_EQ(Trim("  hello world \t\n"), "hello world");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringUtilTest, CaseConversions) {
  EXPECT_EQ(ToLower("MiXeD 123"), "mixed 123");
  EXPECT_EQ(ToUpper("MiXeD 123"), "MIXED 123");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("transfer", "trans"));
  EXPECT_FALSE(StartsWith("trans", "transfer"));
  EXPECT_TRUE(EndsWith("linkage", "age"));
  EXPECT_FALSE(EndsWith("age", "linkage"));
}

TEST(StringUtilTest, ReplaceAll) {
  EXPECT_EQ(ReplaceAll("aaa", "a", "bb"), "bbbbbb");
  EXPECT_EQ(ReplaceAll("no hits", "x", "y"), "no hits");
  EXPECT_EQ(ReplaceAll("abab", "ab", "c"), "cc");
}

TEST(StringUtilTest, StrFormatFormats) {
  EXPECT_EQ(StrFormat("%d-%s-%.2f", 7, "x", 1.5), "7-x-1.50");
}

TEST(StringUtilTest, ParseDoubleAcceptsAndRejects) {
  double v = 0.0;
  EXPECT_TRUE(ParseDouble("3.25", &v));
  EXPECT_DOUBLE_EQ(v, 3.25);
  EXPECT_TRUE(ParseDouble(" -1e3 ", &v));
  EXPECT_DOUBLE_EQ(v, -1000.0);
  EXPECT_FALSE(ParseDouble("abc", &v));
  EXPECT_FALSE(ParseDouble("1.5x", &v));
  EXPECT_FALSE(ParseDouble("", &v));
}

TEST(StringUtilTest, ParseInt64AcceptsAndRejects) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("-42", &v));
  EXPECT_EQ(v, -42);
  EXPECT_FALSE(ParseInt64("4.2", &v));
  EXPECT_FALSE(ParseInt64("", &v));
}

// ---------- Flags ----------

Flags ParseFlags(std::vector<std::string> args) {
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return Flags(static_cast<int>(argv.size()), argv.data(),
               {"time-limit-s", "memory-limit-mb", "sparse", "name", "count",
                "writers", "queue", "frame-mb", "clients", "deadline-ms",
                "max-frame-mb", "segment-mb"});
}

TEST(FlagsTest, ReadsKnownFlags) {
  const Flags flags = ParseFlags(
      {"tool", "--time-limit-s=0.5", "--sparse", "--name=a=b"});
  EXPECT_EQ(flags.GetDouble("time-limit-s", 0.0), 0.5);
  EXPECT_TRUE(flags.GetBool("sparse", false));
  EXPECT_EQ(flags.GetString("name", ""), "a=b");
  EXPECT_EQ(flags.GetInt("missing", 7), 7);
}

TEST(FlagsTest, ReadsBudgets) {
  const Flags flags = ParseFlags(
      {"tool", "--time-limit-s=0.5", "--memory-limit-mb=64"});
  EXPECT_EQ(flags.GetTimeLimitSeconds("time-limit-s", 30.0), 0.5);
  EXPECT_EQ(flags.GetMemoryLimitBytes("memory-limit-mb", 0), 64u << 20);
  const Flags defaults = ParseFlags({"tool"});
  EXPECT_EQ(defaults.GetTimeLimitSeconds("time-limit-s", 0.0), 0.0);
  EXPECT_EQ(defaults.GetMemoryLimitBytes("memory-limit-mb", 64), 64u << 20);
}

TEST(FlagsTest, ReadsCounts) {
  const Flags flags = ParseFlags(
      {"tool", "--count=300", "--writers=4", "--queue=0", "--frame-mb=2"});
  EXPECT_EQ(flags.GetCount<uint64_t>("count", 64), 300u);
  EXPECT_EQ(flags.GetCount<size_t>("writers", 1, 1), 4u);
  EXPECT_EQ(flags.GetCount<size_t>("queue", 8), 0u);
  EXPECT_EQ(flags.GetCount<int>("missing", 7, 1), 7);
  EXPECT_EQ(flags.GetMemoryLimitBytes("frame-mb", 64, 1), size_t{2} << 20);
}

TEST(FlagsDeathTest, UnknownFlagsAndBadValuesExitTwo) {
  // A misspelt limit must not run unlimited.
  EXPECT_EXIT(ParseFlags({"tool", "--time-limit=0.000001"}),
              ::testing::ExitedWithCode(2), "unknown flag --time-limit");
  EXPECT_EXIT(ParseFlags({"tool", "source.csv"}),
              ::testing::ExitedWithCode(2), "unexpected argument");
  EXPECT_EXIT(ParseFlags({"tool", "--time-limit-s=soon"})
                  .GetDouble("time-limit-s", 0.0),
              ::testing::ExitedWithCode(2), "bad value for --time-limit-s");
}

TEST(FlagsDeathTest, BudgetsThatWouldRunUnlimitedExitTwo) {
  // 0 means unlimited; nothing else may.
  for (const char* seconds : {"nan", "inf", "-1"}) {
    EXPECT_EXIT(ParseFlags({"tool", std::string("--time-limit-s=") + seconds})
                    .GetTimeLimitSeconds("time-limit-s", 0.0),
                ::testing::ExitedWithCode(2), "bad value for --time-limit-s")
        << seconds;
  }
  // 0.5 MB is not whole; 1e17 MB overflows size_t in bytes.
  for (const char* megabytes : {"0.5", "1e17", "-1", "nan"}) {
    EXPECT_EXIT(
        ParseFlags({"tool", std::string("--memory-limit-mb=") + megabytes})
            .GetMemoryLimitBytes("memory-limit-mb", 0),
        ::testing::ExitedWithCode(2), "bad value for --memory-limit-mb")
        << megabytes;
  }
}

TEST(FlagsDeathTest, CountsThatWouldWrapExitTwo) {
  // A negative count must not wrap to a huge unsigned one; fractions,
  // int64 overflow and values past the destination type are refused too.
  for (const char* count : {"-1", "1.5", "1e3", "99999999999999999999"}) {
    EXPECT_EXIT(ParseFlags({"tool", std::string("--count=") + count})
                    .GetCount<uint64_t>("count", 64),
                ::testing::ExitedWithCode(2), "bad value for --count")
        << count;
  }
  EXPECT_EXIT(ParseFlags({"tool", "--clients=2147483648"})
                  .GetCount<int>("clients", 4, 1),
              ::testing::ExitedWithCode(2), "bad value for --clients");
  EXPECT_EXIT(ParseFlags({"tool", "--deadline-ms=4294967296"})
                  .GetCount<uint32_t>("deadline-ms", 0),
              ::testing::ExitedWithCode(2), "bad value for --deadline-ms");
  // Below the floor: 0 writers or slots has no meaning.
  for (const char* writers : {"0", "-1"}) {
    EXPECT_EXIT(ParseFlags({"tool", std::string("--writers=") + writers})
                    .GetCount<size_t>("writers", 1, 1),
                ::testing::ExitedWithCode(2), "bad value for --writers")
        << writers;
  }
  // Megabyte sizes keep the whole-MB rule and gain the same floor.
  for (const char* megabytes : {"0", "-1", "0.5"}) {
    EXPECT_EXIT(
        ParseFlags({"tool", std::string("--max-frame-mb=") + megabytes})
            .GetMemoryLimitBytes("max-frame-mb", 64, 1),
        ::testing::ExitedWithCode(2), "bad value for --max-frame-mb")
        << megabytes;
  }
  EXPECT_EXIT(ParseFlags({"tool", "--segment-mb=-1"})
                  .GetMemoryLimitBytes("segment-mb", 8),
              ::testing::ExitedWithCode(2), "bad value for --segment-mb");
}

// ---------- Csv ----------

TEST(CsvTest, ParsesSimpleTable) {
  auto table = Csv::Parse("a,b\n1,2\n3,4\n", /*has_header=*/true);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table.value().header, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(table.value().rows.size(), 2u);
  EXPECT_EQ(table.value().rows[1],
            (std::vector<std::string>{"3", "4"}));
}

TEST(CsvTest, HandlesQuotedFields) {
  auto table =
      Csv::Parse("\"x,y\",\"he said \"\"hi\"\"\",\"line\nbreak\"\n",
                 /*has_header=*/false);
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table.value().rows.size(), 1u);
  EXPECT_EQ(table.value().rows[0][0], "x,y");
  EXPECT_EQ(table.value().rows[0][1], "he said \"hi\"");
  EXPECT_EQ(table.value().rows[0][2], "line\nbreak");
}

TEST(CsvTest, ToleratesCrlfAndMissingTrailingNewline) {
  auto table = Csv::Parse("a,b\r\n1,2", /*has_header=*/true);
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table.value().rows.size(), 1u);
  EXPECT_EQ(table.value().rows[0], (std::vector<std::string>{"1", "2"}));
}

TEST(CsvTest, RejectsUnterminatedQuote) {
  auto table = Csv::Parse("\"open", /*has_header=*/false);
  EXPECT_FALSE(table.ok());
}

TEST(CsvTest, SerializeParseRoundTrip) {
  CsvTable table;
  table.header = {"name", "note"};
  table.rows = {{"a,b", "with \"quotes\""}, {"plain", "multi\nline"}};
  auto parsed = Csv::Parse(Csv::Serialize(table), /*has_header=*/true);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().header, table.header);
  EXPECT_EQ(parsed.value().rows, table.rows);
}

TEST(CsvTest, FileRoundTrip) {
  CsvTable table;
  table.header = {"x"};
  table.rows = {{"1"}, {"2"}};
  const std::string path = testing::TempDir() + "/transer_csv_test.csv";
  ASSERT_TRUE(Csv::WriteFile(path, table).ok());
  auto loaded = Csv::ReadFile(path, /*has_header=*/true);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().rows, table.rows);
}

TEST(CsvTest, ReadMissingFileFails) {
  auto loaded = Csv::ReadFile("/nonexistent/definitely_missing.csv", true);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

// ---------- Stopwatch ----------

TEST(StopwatchTest, ElapsedIsMonotonicNonNegative) {
  Stopwatch sw;
  const double a = sw.ElapsedSeconds();
  const double b = sw.ElapsedSeconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
  EXPECT_NEAR(sw.ElapsedMillis(), sw.ElapsedSeconds() * 1000.0, 50.0);
}

}  // namespace
}  // namespace transer
