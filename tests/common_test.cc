#include <gtest/gtest.h>

#include "common/buffer.h"
#include "common/isd_as.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/time.h"

namespace sciera {
namespace {

// --- ISD-AS addressing -----------------------------------------------------

TEST(IsdAs, ParsesBgpStyle) {
  auto ia = IsdAs::parse("64-559");
  ASSERT_TRUE(ia.has_value());
  EXPECT_EQ(ia->isd(), 64);
  EXPECT_EQ(ia->as().value(), 559u);
  EXPECT_EQ(ia->to_string(), "64-559");
}

TEST(IsdAs, ParsesScionStyle) {
  auto ia = IsdAs::parse("71-2:0:3b");
  ASSERT_TRUE(ia.has_value());
  EXPECT_EQ(ia->isd(), 71);
  EXPECT_EQ(ia->as().value(), (std::uint64_t{2} << 32) | 0x3b);
  EXPECT_EQ(ia->to_string(), "71-2:0:3b");
}

TEST(IsdAs, RoundTripsThroughPacked) {
  const auto ia = IsdAs::parse("71-2:0:48").value();
  EXPECT_EQ(IsdAs::from_packed(ia.packed()), ia);
}

TEST(IsdAs, RejectsMalformedInput) {
  EXPECT_FALSE(IsdAs::parse("").has_value());
  EXPECT_FALSE(IsdAs::parse("71").has_value());
  EXPECT_FALSE(IsdAs::parse("71-").has_value());
  EXPECT_FALSE(IsdAs::parse("-559").has_value());
  EXPECT_FALSE(IsdAs::parse("71-1:2").has_value());
  EXPECT_FALSE(IsdAs::parse("71-1:2:3:4").has_value());
  EXPECT_FALSE(IsdAs::parse("99999-559").has_value());
  EXPECT_FALSE(IsdAs::parse("71-10000:0:0").has_value());
  EXPECT_FALSE(IsdAs::parse("71-xyz").has_value());
}

TEST(IsdAs, HexGroupsParse) {
  auto as = As::parse("ffff:ffff:ffff");
  ASSERT_TRUE(as.has_value());
  EXPECT_EQ(as->value(), As::kMaxValue);
  EXPECT_EQ(as->to_string(), "ffff:ffff:ffff");
}

TEST(IsdAs, DecimalAboveBgpRangeRejected) {
  EXPECT_FALSE(As::parse("4294967296").has_value());
  EXPECT_TRUE(As::parse("4294967295").has_value());
}

TEST(IsdAs, GlobalIfaceIdFormatsAndCompares) {
  const auto ia = IsdAs::parse("71-225").value();
  GlobalIfaceId a{ia, 4};
  GlobalIfaceId b{ia, 5};
  EXPECT_LT(a, b);
  EXPECT_EQ(a.to_string(), "71-225#4");
}

// --- Buffers -----------------------------------------------------------------

TEST(Buffer, WriteReadRoundTrip) {
  Writer w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0102030405060708ULL);
  w.str("hello");
  Reader r{w.bytes()};
  EXPECT_EQ(r.u8().value(), 0xAB);
  EXPECT_EQ(r.u16().value(), 0x1234);
  EXPECT_EQ(r.u32().value(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64().value(), 0x0102030405060708ULL);
  EXPECT_EQ(r.str().value(), "hello");
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Buffer, ReaderDetectsUnderrun) {
  Writer w;
  w.u16(7);
  Reader r{w.bytes()};
  EXPECT_TRUE(r.u8().ok());
  EXPECT_TRUE(r.u8().ok());
  auto bad = r.u32();
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, Errc::kParseError);
}

TEST(Buffer, HexRoundTrip) {
  const Bytes data = {0x00, 0x7F, 0x80, 0xFF};
  EXPECT_EQ(to_hex(data), "007f80ff");
  auto back = from_hex("007f80ff");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), data);
}

TEST(Buffer, HexRejectsBadInput) {
  EXPECT_FALSE(from_hex("abc").ok());
  EXPECT_FALSE(from_hex("zz").ok());
}

TEST(Buffer, PatchU16) {
  Writer w;
  w.u16(0);
  w.u8(9);
  w.patch_u16(0, 0xBEEF);
  Reader r{w.bytes()};
  EXPECT_EQ(r.u16().value(), 0xBEEF);
}

// --- Result ------------------------------------------------------------------

Result<int> parse_positive(int x) {
  if (x <= 0) return Error{Errc::kInvalidArgument, "not positive"};
  return x;
}

TEST(Result, PropagatesValuesAndErrors) {
  EXPECT_TRUE(parse_positive(3).ok());
  EXPECT_EQ(parse_positive(3).value(), 3);
  const auto err = parse_positive(-1);
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.error().code, Errc::kInvalidArgument);
  EXPECT_EQ(parse_positive(-1).value_or(42), 42);
}

TEST(Result, StatusWorks) {
  Status ok;
  EXPECT_TRUE(ok.ok());
  Status bad{Errc::kTimeout, "slow"};
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, Errc::kTimeout);
}

// --- RNG ---------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a{123}, b{123};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, StreamsDiffer) {
  Rng a{123, "alpha"}, b{123, "beta"};
  bool any_diff = false;
  for (int i = 0; i < 16; ++i) any_diff |= (a.next_u64() != b.next_u64());
  EXPECT_TRUE(any_diff);
}

TEST(Rng, NextBelowIsInRange) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, UniformBounds) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, NormalHasRoughlyCorrectMoments) {
  Rng rng{99};
  double sum = 0, sumsq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 2.0);
    sum += x;
    sumsq += x * x;
  }
  const double mean = sum / n;
  const double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.2);
}

// draw_normal() takes the draw normal() would: evaluated, it is normal()'s
// value, and the generator ends in the same state, whichever call takes
// the pair's second half. A copy carries a pending half with it.
TEST(Rng, DrawNormalMatchesNormal) {
  Rng stream{41};
  const auto evaluated = [](const NormalDraw& draw, double mean,
                            double stddev) {
    return draw.value(draw.radius(), mean, stddev);
  };
  for (int i = 0; i < 3000; ++i) {
    const double mean = stream.uniform(-5.0, 5.0);
    const double stddev = stream.uniform(0.0, 3.0);
    // Start on a fresh pair, on a second half normal() evaluated, or on
    // one draw_normal() left pending.
    Rng start{stream.next_u64()};
    if (i % 3 == 1) start.normal();
    if (i % 3 == 2) start.draw_normal();
    Rng both_normal = start;
    Rng draw_first = start;
    Rng draw_both = start;
    const double first = both_normal.normal(mean, stddev);
    const double second = both_normal.normal(mean, stddev);

    const NormalDraw taken = draw_first.draw_normal();
    EXPECT_EQ(evaluated(taken, mean, stddev), first);
    Rng copy = draw_first;  // the second half is pending, not evaluated
    EXPECT_EQ(draw_first.normal(mean, stddev), second);
    EXPECT_EQ(copy.normal(mean, stddev), second);

    const NormalDraw one = draw_both.draw_normal();
    const NormalDraw two = draw_both.draw_normal();
    EXPECT_EQ(evaluated(one, mean, stddev), first);
    EXPECT_EQ(evaluated(two, mean, stddev), second);

    for (Rng* rng : {&draw_first, &copy, &draw_both}) {
      Rng expected = both_normal;
      EXPECT_EQ(rng->normal(), expected.normal());
      EXPECT_EQ(rng->next_u64(), expected.next_u64());
    }
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng{5};
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(Rng, ChanceProbability) {
  Rng rng{11};
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.25) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

// --- strings / time ----------------------------------------------------------

TEST(Strings, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
}

TEST(Strings, SplitWs) {
  const auto parts = split_ws("  alpha\tbeta  gamma ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "beta");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\t\n"), "");
}

TEST(Strings, Format) {
  EXPECT_EQ(strformat("%d-%s", 7, "x"), "7-x");
}

TEST(Time, Formatting) {
  const SimTime t = 2 * kDay + 3 * kHour + 4 * kMinute + 5 * kSecond +
                    678 * kMillisecond;
  EXPECT_EQ(format_time(t), "2d 03:04:05.678");
  EXPECT_DOUBLE_EQ(to_ms(1500 * kMicrosecond), 1.5);
  EXPECT_EQ(from_ms(2.5), 2'500'000);
}

}  // namespace
}  // namespace sciera
