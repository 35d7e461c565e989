// cli::FlagSet, the flag parser every sciera_* tool shares: typed
// bindings, positionals, and the rejection of malformed input that the
// tools turn into exit status 2.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cli.h"

namespace sciera::cli {
namespace {

// Parses `args` (argv[0] is supplied) with the given set.
bool parse(FlagSet& flags, std::vector<std::string> args) {
  args.insert(args.begin(), "tool");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return flags.parse(static_cast<int>(argv.size()), argv.data());
}

struct Bound {
  bool verbose = false;
  int mode = 0;
  std::string out;
  std::uint64_t count = 0;
  std::int64_t offset = 0;
  FlagSet flags{"tool", "usage: tool"};

  Bound() {
    flags.flag("--verbose", &verbose);
    flags.flag("--json", [this] { mode = 1; });
    flags.flag("--out", &out);
    flags.flag("--count", &count);
    flags.flag("--offset", &offset);
  }
};

TEST(FlagSet, BindsEveryTypeAndCollectsPositionals) {
  Bound b;
  ASSERT_TRUE(parse(b.flags, {"plan", "--verbose", "--json", "--out", "x.json",
                              "--count", "0x10", "--offset", "-5", "extra"}));
  EXPECT_TRUE(b.verbose);
  EXPECT_EQ(b.mode, 1);
  EXPECT_EQ(b.out, "x.json");
  EXPECT_EQ(b.count, 16u);
  EXPECT_EQ(b.offset, -5);
  EXPECT_EQ(b.flags.positionals(),
            (std::vector<std::string>{"plan", "extra"}));
}

TEST(FlagSet, AcceptsTheFullRangeOfEachIntegerType) {
  Bound b;
  ASSERT_TRUE(parse(b.flags, {"--count", "18446744073709551615", "--offset",
                              "-9223372036854775808"}));
  EXPECT_EQ(b.count, UINT64_MAX);
  EXPECT_EQ(b.offset, INT64_MIN);
}

TEST(FlagSet, RejectsUnknownFlagsAndMissingValues) {
  Bound unknown;
  EXPECT_FALSE(parse(unknown.flags, {"--nope"}));
  Bound missing;
  EXPECT_FALSE(parse(missing.flags, {"--count"}));
}

TEST(FlagSet, RejectsMalformedNumbers) {
  for (const char* bad : {"", "12abc", "abc", "1.5", "0x"}) {
    Bound b;
    EXPECT_FALSE(parse(b.flags, {"--count", bad})) << "'" << bad << "'";
    EXPECT_FALSE(parse(b.flags, {"--offset", bad})) << "'" << bad << "'";
  }
}

TEST(FlagSet, RejectsNegativeUnsignedValues) {
  // strtoull accepts "-1" and wraps it to 2^64-1.
  for (const char* bad : {"-1", "-0", " -1", "-18446744073709551615"}) {
    Bound b;
    EXPECT_FALSE(parse(b.flags, {"--count", bad})) << "'" << bad << "'";
    EXPECT_EQ(b.count, 0u);
  }
}

TEST(FlagSet, RejectsOutOfRangeValues) {
  // strtoull/strtoll saturate and report ERANGE rather than failing.
  Bound u;
  EXPECT_FALSE(parse(u.flags, {"--count", "18446744073709551616"}));
  EXPECT_EQ(u.count, 0u);
  for (const char* bad : {"99999999999999999999", "9223372036854775808",
                          "-9223372036854775809"}) {
    Bound s;
    EXPECT_FALSE(parse(s.flags, {"--offset", bad})) << bad;
    EXPECT_EQ(s.offset, 0);
  }
}

TEST(FlagSet, ParsesFromTheGivenFirstArgument) {
  Bound b;
  std::vector<std::string> args = {"tool", "--verbose", "--count", "3"};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  ASSERT_TRUE(b.flags.parse(static_cast<int>(argv.size()), argv.data(), 2));
  EXPECT_FALSE(b.verbose);
  EXPECT_EQ(b.count, 3u);
}

TEST(FlagSet, UsageReturnsTheUsageErrorStatus) {
  Bound b;
  EXPECT_EQ(b.flags.usage(), 2);
}

}  // namespace
}  // namespace sciera::cli
