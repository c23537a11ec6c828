#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/arg_parser.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/text_writer.hpp"
#include "util/units.hpp"

namespace pdr {
namespace {

using namespace pdr::literals;

// --- units -----------------------------------------------------------------

TEST(ParallelFor, RethrowsTheLowestIndexAfterRunningEveryIndex) {
  // Indices 3 and 5 throw; every other index still runs, and the caller
  // sees index 3's exception, whatever the thread count.
  for (const int jobs : {1, 4, 8}) {
    const std::size_t n = 16;
    const auto ran = std::make_unique<std::atomic<int>[]>(n);
    try {
      util::parallel_for(jobs, n, [&](std::size_t i) {
        ran[i].fetch_add(1);
        if (i == 3) throw Error("index 3");
        if (i == 5) throw std::logic_error("index 5");
      });
      ADD_FAILURE() << "jobs " << jobs << ": nothing was rethrown";
    } catch (const Error& e) {
      EXPECT_STREQ(e.what(), "index 3") << "jobs " << jobs;
    }
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(ran[i].load(), 1) << "jobs " << jobs << " i " << i;
  }
}

TEST(ParallelFor, RunsEveryIndexOnceWithoutThrowing) {
  for (const int jobs : {0, 1, 3, 8}) {
    std::vector<int> hits(37, 0);
    util::parallel_for(jobs, hits.size(), [&](std::size_t i) { ++hits[i]; });
    EXPECT_EQ(hits, std::vector<int>(37, 1)) << "jobs " << jobs;
  }
  util::parallel_for(4, 0, [](std::size_t) { FAIL() << "no index to run"; });
}

TEST(Units, LiteralsCompose) {
  EXPECT_EQ(1_us, 1000_ns);
  EXPECT_EQ(1_ms, 1000_us);
  EXPECT_EQ(1_s, 1000_ms);
  EXPECT_EQ(4_ms, TimeNs{4'000'000});
  EXPECT_EQ(1_KiB, Bytes{1024});
  EXPECT_EQ(1_MiB, Bytes{1024 * 1024});
}

TEST(Units, ToMsToUs) {
  EXPECT_DOUBLE_EQ(to_ms(4_ms), 4.0);
  EXPECT_DOUBLE_EQ(to_us(1500_ns), 1.5);
}

TEST(Units, TransferTimeRoundsUp) {
  // 1 byte at 1 GB/s = exactly 1 ns.
  EXPECT_EQ(transfer_time_ns(1, 1e9), 1);
  // 1 byte at 3 GB/s = 0.33 ns -> rounds up to 1.
  EXPECT_EQ(transfer_time_ns(1, 3e9), 1);
  // zero bandwidth guard.
  EXPECT_EQ(transfer_time_ns(100, 0.0), 0);
}

TEST(Units, TransferTimeScalesLinearly) {
  const TimeNs one = transfer_time_ns(1000, 1e6);
  const TimeNs two = transfer_time_ns(2000, 1e6);
  EXPECT_NEAR(static_cast<double>(two), 2.0 * static_cast<double>(one), 2.0);
}

// --- error ------------------------------------------------------------------

TEST(Error, RaiseThrowsWithContext) {
  try {
    raise("somewhere", "broke");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "somewhere: broke");
  }
}

TEST(Error, CheckMacroPassesAndFails) {
  EXPECT_NO_THROW(PDR_CHECK(1 + 1 == 2, "t", "fine"));
  EXPECT_THROW(PDR_CHECK(false, "t", "nope"), Error);
}

// --- rng ---------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_int(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, Uniform01Bounds) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  Rng rng(2024);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, ForkIsIndependent) {
  Rng a(5);
  Rng b = a.fork();
  EXPECT_NE(a(), b());
}

TEST(Rng, ChanceExtremes) {
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

// --- strings -------------------------------------------------------------------

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  abc  "), "abc");
  EXPECT_EQ(trim("abc"), "abc");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("\t x \n"), "x");
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(Strings, SplitWsDropsEmpty) {
  const auto parts = split_ws("  a \t b\nc  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, JoinRoundTrip) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("foobar", "foo"));
  EXPECT_FALSE(starts_with("fo", "foo"));
}

TEST(Strings, ToLower) { EXPECT_EQ(to_lower("XC2V2000"), "xc2v2000"); }

TEST(Strings, Strprintf) { EXPECT_EQ(strprintf("%d-%s", 42, "x"), "42-x"); }

TEST(Strings, HumanBytes) {
  EXPECT_EQ(human_bytes(512), "512 B");
  EXPECT_EQ(human_bytes(2048), "2.0 KiB");
  EXPECT_EQ(human_bytes(3 * 1024 * 1024), "3.00 MiB");
}

TEST(Strings, IdentifierSanitizes) {
  EXPECT_EQ(identifier("a-b c"), "a_b_c");
  EXPECT_EQ(identifier("2fast"), "x2fast");
  EXPECT_EQ(identifier(""), "x");
}

// TextWriter replaces strprintf in the per-item writers, so each field
// must print as the printf conversion it replaces, byte for byte.
TEST(TextWriter, FieldsMatchPrintf) {
  std::string out;
  TextWriter w(out);
  w << "a" << std::string_view("b") << 'c' << 42 << -7LL << 18446744073709551615ULL
    << static_cast<std::int64_t>(-9223372036854775807LL - 1);
  EXPECT_EQ(out, strprintf("abc42-7%llu%lld", 18446744073709551615ULL,
                           -9223372036854775807LL - 1));
  out.clear();
  w.left("ab", 5) << '|';
  w.left("abcdef", 3) << '|';
  w.left("", 2) << '|';
  EXPECT_EQ(out, strprintf("%-5s|%-3s|%-2s|", "ab", "abcdef", ""));
}

TEST(TextWriter, FixedMatchesPrintfRounding) {
  Rng rng(5);
  std::vector<double> values = {0.0, -0.0, 0.0005, 0.0015, 0.0025, 1.0005, 2.5, 3.5, -2.5,
                                1e-7, 123456.7895, 9.9995, 1e15, -1e300, 1.7976931348623157e308};
  for (int i = 0; i < 4000; ++i) {
    values.push_back(to_us(static_cast<TimeNs>(rng.uniform_int(0, 4'000'000'000'000LL))));
    values.push_back(rng.uniform(-1e6, 1e6));
  }
  for (const double v : values)
    for (const int precision : {0, 1, 3, 6})
      for (const int width : {0, 9}) {
        std::string out;
        TextWriter(out).fixed(v, precision, static_cast<std::size_t>(width));
        ASSERT_EQ(out, strprintf("%*.*f", width, precision, v)) << v;
      }
}

TEST(TextWriter, IdentifierMatchesTheSanitizer) {
  for (const char* name : {"a-b c", "2fast", "", "ok_Name9", "D.1", "-", "\xc3\xa9t\xc3\xa9"}) {
    std::string out = "pre:";
    append_identifier(out, name);
    EXPECT_EQ(out, "pre:" + identifier(name)) << name;
  }
  EXPECT_EQ(identifier("\xc3\xa9"), "__");
  EXPECT_EQ(identifier("9"), "x9");
}

// --- table ---------------------------------------------------------------------

TEST(Table, MarkdownAlignsColumns) {
  Table t({"name", "value"});
  t.row().add("alpha").add(1);
  t.row().add("b").add(12345);
  const std::string md = t.to_markdown();
  EXPECT_NE(md.find("| alpha |"), std::string::npos);
  EXPECT_NE(md.find("| 12345 |"), std::string::npos);
}

TEST(Table, CsvQuotesCommas) {
  Table t({"a"});
  t.row().add("x,y");
  EXPECT_NE(t.to_csv().find("\"x,y\""), std::string::npos);
}

TEST(Table, RejectsTooManyCells) {
  Table t({"only"});
  t.row().add("one");
  EXPECT_THROW(t.add("two"), Error);
}

TEST(Table, RejectsAddBeforeRow) {
  Table t({"c"});
  EXPECT_THROW(t.add("x"), Error);
}

TEST(Table, DoubleFormatting) {
  Table t({"v"});
  t.row().add(3.14159, 3);
  EXPECT_NE(t.to_markdown().find("3.142"), std::string::npos);
}

TEST(Table, EmptyHeaderRejected) { EXPECT_THROW(Table t({}), Error); }

// --- stats -------------------------------------------------------------------

TEST(Stats, EmptyIsZero) {
  const Stats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(Stats, EmptyStateIsExplicit) {
  // The plain accessors return 0.0 on an empty accumulator for report
  // convenience, but serializers must be able to tell "no samples" from
  // "measured 0.0" — that's what empty() and the opt_* accessors are for.
  const Stats empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_FALSE(empty.opt_mean().has_value());
  EXPECT_FALSE(empty.opt_min().has_value());
  EXPECT_FALSE(empty.opt_max().has_value());
  EXPECT_FALSE(empty.opt_stddev().has_value());

  Stats one;
  one.add(2.5);
  EXPECT_FALSE(one.empty());
  ASSERT_TRUE(one.opt_mean().has_value());
  EXPECT_DOUBLE_EQ(*one.opt_mean(), 2.5);
  ASSERT_TRUE(one.opt_min().has_value());
  EXPECT_DOUBLE_EQ(*one.opt_min(), 2.5);
  ASSERT_TRUE(one.opt_max().has_value());
  EXPECT_DOUBLE_EQ(*one.opt_max(), 2.5);
  // A standard deviation needs two samples; one sample stays nullopt
  // rather than pretending the spread was measured as zero.
  EXPECT_FALSE(one.opt_stddev().has_value());

  one.add(3.5);
  ASSERT_TRUE(one.opt_stddev().has_value());
  EXPECT_NEAR(*one.opt_stddev(), std::sqrt(0.5), 1e-12);
}

TEST(Stats, KnownValues) {
  Stats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Stats, SingleSampleHasZeroVariance) {
  Stats s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(Stats, MatchesDirectComputationOnRandomData) {
  Rng rng(12345);
  Stats s;
  std::vector<double> samples;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.normal(10.0, 3.0);
    samples.push_back(v);
    s.add(v);
  }
  double mean = 0;
  for (double v : samples) mean += v;
  mean /= static_cast<double>(samples.size());
  double var = 0;
  for (double v : samples) var += (v - mean) * (v - mean);
  var /= static_cast<double>(samples.size() - 1);
  EXPECT_NEAR(s.mean(), mean, 1e-9);
  EXPECT_NEAR(s.variance(), var, 1e-9);
}

// --- arg parser ------------------------------------------------------------

/// Builds a mutable argv from literals.
struct Argv {
  explicit Argv(std::vector<std::string> args) : storage(std::move(args)) {
    for (auto& s : storage) ptrs.push_back(s.data());
    argc = static_cast<int>(ptrs.size());
  }
  std::vector<std::string> storage;
  std::vector<char*> ptrs;
  int argc = 0;
  char** data() { return ptrs.data(); }
};

TEST(ArgParser, StrictParsesFlagsAndPositionals) {
  Argv a({"design.constraints", "--out", "dir", "--verbose"});
  const util::ArgParser args("build", a.argc, a.data(),
                             {{"--out", true}, {"--verbose", false}}, 1);
  EXPECT_EQ(args.positional_count(), 1u);
  EXPECT_EQ(args.positional(0), "design.constraints");
  EXPECT_EQ(args.string_or("--out", ""), "dir");
  EXPECT_TRUE(args.has("--verbose"));
  EXPECT_FALSE(args.has("--quiet"));
}

TEST(ArgParser, StrictRejectsUnknownFlag) {
  Argv a({"--bogus"});
  EXPECT_THROW(util::ArgParser("build", a.argc, a.data(), {{"--out", true}}, 0), Error);
}

TEST(ArgParser, StrictRejectsMissingValueAndPositionalMismatch) {
  Argv missing_value({"--out"});
  EXPECT_THROW(
      util::ArgParser("build", missing_value.argc, missing_value.data(), {{"--out", true}}, 0),
      Error);
  Argv too_few({"--out", "dir"});
  EXPECT_THROW(util::ArgParser("build", too_few.argc, too_few.data(), {{"--out", true}}, 1),
               Error);
}

TEST(ArgParser, StrictNumericParsing) {
  Argv a({"--jobs", "12abc", "--rate", "1.5"});
  const util::ArgParser args("sweep", a.argc, a.data(), {{"--jobs", true}, {"--rate", true}}, 0);
  EXPECT_THROW(args.uint_or("--jobs", 1), Error);  // "12abc" is an error, not 12
  EXPECT_DOUBLE_EQ(args.double_or("--rate", 0.0), 1.5);
  EXPECT_EQ(args.uint_or("--absent", 7), 7u);
}

TEST(ArgParser, ListOrSplitsOnCommas) {
  Argv a({"--seeds", "1,2,3"});
  const util::ArgParser args("sweep", a.argc, a.data(), {{"--seeds", true}}, 0);
  EXPECT_EQ(args.list_or("--seeds", {}), (std::vector<std::string>{"1", "2", "3"}));
  EXPECT_EQ(args.list_or("--absent", {"x"}), (std::vector<std::string>{"x"}));
}

}  // namespace
}  // namespace pdr
