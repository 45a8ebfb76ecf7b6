// Unit tests for the util module: rng, strings, cli, error helpers,
// atomic file writes, signal flags and interrupt-linked cancellation.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "util/cancel.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/file.h"
#include "util/rng.h"
#include "util/signal.h"
#include "util/strings.h"
#include "util/timer.h"

namespace fp {
namespace {

// ---------------------------------------------------------------- Rng ----

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.next() == b.next()) ? 1 : 0;
  EXPECT_LT(equal, 4);
}

TEST(Rng, UniformIntStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, UniformIntSingletonRange) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, UniformIntRejectsEmptyRange) {
  Rng rng(7);
  EXPECT_THROW((void)rng.uniform_int(2, 1), InvalidArgument);
}

TEST(Rng, UniformIntCoversAllValues) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(0, 7));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformIntIsRoughlyUniform) {
  Rng rng(13);
  std::array<int, 10> histogram{};
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) {
    ++histogram[static_cast<std::size_t>(rng.uniform_int(0, 9))];
  }
  for (const int count : histogram) {
    EXPECT_NEAR(count, draws / 10, draws / 100);
  }
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformDoubleMeanIsHalf) {
  Rng rng(5);
  double sum = 0.0;
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / draws, 0.5, 0.01);
}

TEST(Rng, IndexRejectsZero) {
  Rng rng(1);
  EXPECT_THROW((void)rng.index(0), InvalidArgument);
}

TEST(Rng, NormalHasUnitVariance) {
  Rng rng(17);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) {
    const double v = rng.normal();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / draws, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / draws, 1.0, 0.03);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> items(100);
  std::iota(items.begin(), items.end(), 0);
  rng.shuffle(items);
  std::vector<int> sorted = items;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sorted[static_cast<size_t>(i)], i);
}

TEST(Rng, ShuffleActuallyShuffles) {
  Rng rng(29);
  std::vector<int> items(100);
  std::iota(items.begin(), items.end(), 0);
  rng.shuffle(items);
  int fixed_points = 0;
  for (int i = 0; i < 100; ++i) {
    fixed_points += items[static_cast<size_t>(i)] == i ? 1 : 0;
  }
  EXPECT_LT(fixed_points, 15);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(31);
  Rng child = parent.split();
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += parent.next() == child.next() ? 1 : 0;
  EXPECT_LT(equal, 4);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(37);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

// ------------------------------------------------------------- strings ----

TEST(Strings, TrimRemovesBothEnds) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, SplitOnComma) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, SplitEmptyString) {
  const auto parts = split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(Strings, SplitWsSkipsRuns) {
  const auto parts = split_ws("  a \t b\n c  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, SplitWsEmpty) { EXPECT_TRUE(split_ws(" \t ").empty()); }

TEST(Strings, JoinRoundTrip) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"only"}, ","), "only");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("--flag", "--"));
  EXPECT_FALSE(starts_with("-f", "--"));
  EXPECT_TRUE(starts_with("abc", ""));
}

TEST(Strings, ParseIntValid) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int(" -7 "), -7);
  EXPECT_EQ(parse_int("0"), 0);
}

TEST(Strings, ParseIntMalformed) {
  EXPECT_THROW((void)parse_int("4x"), IoError);
  EXPECT_THROW((void)parse_int(""), IoError);
  EXPECT_THROW((void)parse_int("1.5"), IoError);
}

TEST(Strings, ParseDoubleValid) {
  EXPECT_DOUBLE_EQ(parse_double("1.25"), 1.25);
  EXPECT_DOUBLE_EQ(parse_double("-3e2"), -300.0);
}

TEST(Strings, ParseDoubleMalformed) {
  EXPECT_THROW((void)parse_double("abc"), IoError);
  EXPECT_THROW((void)parse_double(""), IoError);
}

TEST(Strings, FormatFixed) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(-0.5, 0), "-0");
}

TEST(Strings, FormatPercent) { EXPECT_EQ(format_percent(0.123), "12.3%"); }

// ----------------------------------------------------------------- cli ----

constexpr Flag kTestFlags[] = {
    {"count", "N", "the count"},
    {"name", "S", "a name"},
    {"flag", "", "a switch"},
    {"k", "K", "a size"},
};

TEST(Cli, ParsesNameValuePairs) {
  const char* argv[] = {"prog", "--count", "5", "--name=abc", "--flag"};
  ArgParser args(5, argv, kTestFlags);
  EXPECT_EQ(args.get_int("count", 0), 5);
  EXPECT_EQ(args.get_string("name", ""), "abc");
  EXPECT_TRUE(args.has("flag"));
  EXPECT_FALSE(args.has("k"));
}

TEST(Cli, Positional) {
  const char* argv[] = {"prog", "input.txt", "--k", "3", "more"};
  ArgParser args(5, argv, kTestFlags);
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "input.txt");
  EXPECT_EQ(args.positional()[1], "more");
}

TEST(Cli, SwitchNeverTakesTheNextToken) {
  // A switch before a positional argument leaves it positional; the
  // value form still parses (farm.json records --no-exchange=1).
  const char* argv[] = {"prog", "--flag", "input.txt", "--count", "--k=3"};
  ArgParser args(5, argv, kTestFlags);
  EXPECT_TRUE(args.has("flag"));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "input.txt");
  // A bare value flag is present but falls back to its default.
  EXPECT_TRUE(args.has("count"));
  EXPECT_EQ(args.get_int("count", 7), 7);
  EXPECT_EQ(args.get_int("k", 0), 3);
  const char* value_form[] = {"prog", "--flag=1", "input.txt"};
  EXPECT_TRUE(ArgParser(3, value_form, kTestFlags).has("flag"));
}

TEST(Cli, UnknownFlagDetected) {
  for (const char* typo : {"--typo", "--typo=1"}) {
    const char* argv[] = {"prog", typo, "1"};
    try {
      (void)ArgParser(3, argv, kTestFlags);
      FAIL() << typo << " accepted";
    } catch (const InvalidArgument& error) {
      EXPECT_NE(std::string(error.what()).find("--typo"), std::string::npos)
          << error.what();
    }
  }
}

TEST(Cli, DeclaredFlagPasses) {
  const char* argv[] = {"prog", "--count", "1"};
  EXPECT_NO_THROW((void)ArgParser(3, argv, kTestFlags));
  // flag_help renders one usage line per declared flag.
  const std::string help = flag_help(kTestFlags);
  EXPECT_NE(help.find("--count N"), std::string::npos) << help;
  EXPECT_NE(help.find("the count"), std::string::npos) << help;
  EXPECT_NE(help.find("--flag "), std::string::npos) << help;
  EXPECT_EQ(std::count(help.begin(), help.end(), '\n'), 4);
}

TEST(Cli, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  ArgParser args(1, argv, kTestFlags);
  EXPECT_EQ(args.get_int("k", 9), 9);
  EXPECT_DOUBLE_EQ(args.get_double("count", 2.5), 2.5);
  EXPECT_EQ(args.get_string("name", "dft"), "dft");
}

// --------------------------------------------------------------- error ----

TEST(Error, RequireThrowsInvalidArgument) {
  EXPECT_NO_THROW(require(true, "ok"));
  EXPECT_THROW(require(false, "bad input"), InvalidArgument);
}

TEST(Error, EnsureThrowsInternalError) {
  EXPECT_NO_THROW(ensure(true, "ok"));
  EXPECT_THROW(ensure(false, "bug"), InternalError);
}

TEST(Error, MessagePreserved) {
  try {
    require(false, "specific message");
    FAIL() << "should have thrown";
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(), "specific message");
  }
}

TEST(Error, HierarchyIsCatchableAsError) {
  EXPECT_THROW(throw IoError("io"), Error);
  EXPECT_THROW(throw InternalError("internal"), Error);
}

// --------------------------------------------------------------- timer ----

TEST(Timer, ElapsedIsNonNegativeAndMonotonic) {
  Timer t;
  const double a = t.seconds();
  const double b = t.seconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
  EXPECT_GE(t.millis(), 0.0);
}

// --------------------------------------------------------------- file ----

TEST(WriteFileAtomic, WritesTheTextAndLeavesNoPartialFile) {
  const std::string path = ::testing::TempDir() + "atomic_ok.txt";
  write_file_atomic(path, "first");
  write_file_atomic(path, "second\n");
  std::ifstream in(path, std::ios::binary);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(text, "second\n");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp-partial"));
  std::filesystem::remove(path);
}

TEST(WriteFileAtomic, FailedRenameThrowsAndRemovesThePartialFile) {
  // A directory at the target path: the write succeeds, the rename fails.
  const std::string path = ::testing::TempDir() + "atomic_dir";
  std::filesystem::create_directories(path);
  EXPECT_THROW(write_file_atomic(path, "text"), IoError);
  EXPECT_TRUE(std::filesystem::is_directory(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp-partial"));
  std::filesystem::remove(path);
}

// ------------------------------------------------------------- signal ----

/// Leaves the process-wide interrupt flag clean for whatever test runs
/// next, pass or fail.
class SignalTest : public ::testing::Test {
 protected:
  void SetUp() override { sig::reset(); }
  void TearDown() override { sig::reset(); }
};

TEST_F(SignalTest, RequestCancelRecordsSignalAndCount) {
  EXPECT_FALSE(sig::interrupted());
  EXPECT_EQ(sig::received(), 0);
  EXPECT_EQ(sig::received_count(), 0);
  sig::request_cancel(SIGINT);
  EXPECT_TRUE(sig::interrupted());
  EXPECT_EQ(sig::received(), SIGINT);
  EXPECT_EQ(sig::received_count(), 1);
  // The second Ctrl-C is what lets a drain loop escalate.
  sig::request_cancel(SIGTERM);
  EXPECT_EQ(sig::received(), SIGTERM);
  EXPECT_EQ(sig::received_count(), 2);
  sig::reset();
  EXPECT_FALSE(sig::interrupted());
  EXPECT_EQ(sig::received(), 0);
  EXPECT_EQ(sig::received_count(), 0);
}

TEST_F(SignalTest, InterruptLinkedTokenExpiresWithTheProcessFlag) {
  CancelToken token;
  token.set_interrupt_linked(true);
  CancelToken plain;
  EXPECT_FALSE(token.expired());
  sig::request_cancel(SIGINT);
  EXPECT_TRUE(token.expired());
  EXPECT_FALSE(plain.expired())
      << "only opted-in tokens may observe the interrupt";
  sig::reset();
  EXPECT_FALSE(token.expired());
}

TEST_F(SignalTest, ChildTokensInheritTheInterruptLink) {
  CancelToken token;
  token.set_interrupt_linked(true);
  const CancelToken staged = token.child(3600.0);
  EXPECT_FALSE(staged.expired());
  sig::request_cancel(SIGTERM);
  EXPECT_TRUE(staged.expired())
      << "one flag at the run token must cover every stage";
}

}  // namespace
}  // namespace fp
