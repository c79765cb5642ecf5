// Tests for the common utilities: strings, Status/Result, Rng, the
// steady-clock Deadline, and the fault layer's Retry policy.

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/fault.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/strings.h"

namespace parqo {
namespace {

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  a b \t\n"), "a b");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t "), "");
  EXPECT_EQ(StripWhitespace("x"), "x");
}

TEST(StringsTest, Split) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
  EXPECT_EQ(Split("", ',').size(), 1u);
}

TEST(StringsTest, ParsePositiveInt) {
  int n = 0;
  EXPECT_TRUE(ParsePositiveInt("1", &n));
  EXPECT_EQ(n, 1);
  EXPECT_TRUE(ParsePositiveInt("2147483647", &n));
  EXPECT_EQ(n, 2147483647);
  n = 7;
  for (const char* bad : {"", "0", "-2", "abc", "4x", " 4", "+4", "1.5",
                          "2147483648"}) {
    EXPECT_FALSE(ParsePositiveInt(bad, &n)) << bad;
  }
  EXPECT_EQ(n, 7);  // untouched on failure
}

TEST(StringsTest, ParseNonNegativeDouble) {
  double d = 0;
  EXPECT_TRUE(ParseNonNegativeDouble("0", &d));
  EXPECT_EQ(d, 0.0);
  EXPECT_TRUE(ParseNonNegativeDouble("2.5", &d));
  EXPECT_EQ(d, 2.5);
  EXPECT_TRUE(ParseNonNegativeDouble("1e-3", &d));
  EXPECT_EQ(d, 1e-3);
  d = 7;
  for (const char* bad : {"", "-1", "-0", "abc", "4x", " 4", "+4", "inf",
                          "nan", "1e999"}) {
    EXPECT_FALSE(ParseNonNegativeDouble(bad, &d)) << bad;
  }
  EXPECT_EQ(d, 7.0);  // untouched on failure
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("ar", "bar"));
  EXPECT_TRUE(StartsWith("x", ""));
}

TEST(StringsTest, WithThousandsSep) {
  EXPECT_EQ(WithThousandsSep(0), "0");
  EXPECT_EQ(WithThousandsSep(999), "999");
  EXPECT_EQ(WithThousandsSep(1000), "1,000");
  EXPECT_EQ(WithThousandsSep(75256333), "75,256,333");
}

TEST(StringsTest, FormatCostE) {
  // Matches the paper's Table VI rendering.
  EXPECT_EQ(FormatCostE(31200), "3.12E4");
  EXPECT_EQ(FormatCostE(9.79e6), "9.79E6");
  EXPECT_EQ(FormatCostE(0), "0");
  EXPECT_EQ(FormatCostE(1), "1.00E0");
}

TEST(StringsTest, FormatCostEDecadeBoundaries) {
  // Mantissa rounding must carry into the exponent: a naive
  // log10/pow normalization rendered 999999.9 as "10.00E5".
  EXPECT_EQ(FormatCostE(999999.9), "1.00E6");
  EXPECT_EQ(FormatCostE(999.999), "1.00E3");
  EXPECT_EQ(FormatCostE(9.996), "1.00E1");
  // Just below the rounding threshold stays in the lower decade.
  EXPECT_EQ(FormatCostE(9.994), "9.99E0");
  EXPECT_EQ(FormatCostE(1e6), "1.00E6");
  EXPECT_EQ(FormatCostE(0.001), "1.00E-3");
}

TEST(StringsTest, FormatCostEExtremes) {
  // Denormals: log10-based normalization drifted here; %E is exact.
  EXPECT_EQ(FormatCostE(5e-324), "4.94E-324");
  EXPECT_EQ(FormatCostE(DBL_MIN), "2.23E-308");
  EXPECT_EQ(FormatCostE(DBL_MAX), "1.80E308");
  EXPECT_EQ(FormatCostE(std::numeric_limits<double>::infinity()), "inf");
  // Negative and zero costs can't arise from the cost model, but the
  // formatter must not emit garbage for them.
  EXPECT_EQ(FormatCostE(-1.0), "0");
}

TEST(StringsTest, FormatSeconds) {
  EXPECT_EQ(FormatSeconds(0.5), "0.500s");
  EXPECT_EQ(FormatSeconds(432.429), "432s");
  EXPECT_EQ(FormatSeconds(0.0004), "0.0004s");
}

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::Ok().ok());
  Status bad = Status::InvalidArgument("nope");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.message(), "nope");
  EXPECT_EQ(Status::Ok().ToString(), "OK");
  EXPECT_EQ(bad.ToString(), "nope");
}

TEST(ResultTest, ValueAndStatusPaths) {
  Result<int> good = 42;
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 42);
  Result<int> bad = Status::NotFound("missing");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOnlyValues) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

TEST(RngTest, DeterministicAndInRange) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    std::int64_t v = r.Uniform(5, 9);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 9);
    double d = r.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    std::int64_t s = r.Skewed(100);
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 100);
  }
}

TEST(RngTest, GoldenStreamsUnchanged) {
  // Pinned streams: workload generators depend on these exact draws for
  // cross-platform reproducibility, and the rejection-sampling rewrite
  // of Uniform must not disturb them for in-range inputs (the rejection
  // threshold for small ranges is a handful of values out of 2^64).
  Rng a(2017);
  const std::int64_t kExpectedA[] = {679, 960, 684, 238, 524, 304, 302,
                                     611};
  for (std::int64_t want : kExpectedA) EXPECT_EQ(a.Uniform(0, 999), want);
  Rng b(42);
  const std::int64_t kExpectedB[] = {4, 0, -3, -4, -3, 4, 2, -3};
  for (std::int64_t want : kExpectedB) EXPECT_EQ(b.Uniform(-5, 5), want);
}

TEST(RngTest, UniformFullInt64Domain) {
  // [INT64_MIN, INT64_MAX] has range 2^64, which overflowed to 0 and
  // divided by zero before the fix. Every draw is a valid sample.
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  Rng r(1);
  bool saw_negative = false, saw_positive = false;
  for (int i = 0; i < 1000; ++i) {
    std::int64_t v = r.Uniform(kMin, kMax);
    saw_negative |= v < 0;
    saw_positive |= v > 0;
  }
  EXPECT_TRUE(saw_negative);
  EXPECT_TRUE(saw_positive);
}

TEST(RngTest, UniformHugeRanges) {
  // Ranges near (but not at) the full domain exercise the unsigned
  // wrap-around in lo + offset.
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    std::int64_t v = r.Uniform(kMin, kMax - 1);
    EXPECT_LE(v, kMax - 1);
    std::int64_t w = r.Uniform(kMin + 1, kMax);
    EXPECT_GE(w, kMin + 1);
    EXPECT_EQ(r.Uniform(kMax, kMax), kMax);
    EXPECT_EQ(r.Uniform(kMin, kMin), kMin);
  }
}

TEST(RngTest, UniformUnbiased) {
  // Property test for the rejection sampler: over a range that does NOT
  // divide 2^64 evenly, every value's frequency stays near uniform. With
  // the old `Next() % range` the bias for range 3 is immeasurably small,
  // so instead check a structural property: the sampler must reject draws
  // below threshold = 2^64 mod range and still terminate, while all
  // emitted values stay in range and all values get hit.
  Rng r(11);
  constexpr std::int64_t kRange = 1000003;  // prime, doesn't divide 2^64
  std::vector<int> low_hits(10, 0);
  for (int i = 0; i < 200000; ++i) {
    std::int64_t v = r.Uniform(0, kRange - 1);
    ASSERT_GE(v, 0);
    ASSERT_LT(v, kRange);
    if (v < 10) ++low_hits[v];
  }
  // Expected hits per bucket: 200000/1000003 = 0.2; across 10 buckets we
  // expect ~2 total, so just assert no bucket is wildly hot (a modulo
  // bug that folded the domain would concentrate mass).
  for (int h : low_hits) EXPECT_LE(h, 20);
}

TEST(RngTest, SkewFavorsSmallIndexes) {
  Rng r(9);
  int low = 0, high = 0;
  for (int i = 0; i < 10000; ++i) {
    std::int64_t v = r.Skewed(100);
    if (v < 10) ++low;
    if (v >= 90) ++high;
  }
  EXPECT_GT(low, high * 3);
}

TEST(DeadlineTest, InfiniteNeverExpires) {
  Deadline d;
  EXPECT_FALSE(d.Expired());
  EXPECT_FALSE(Deadline::Infinite().Expired());
}

TEST(DeadlineTest, ZeroBudgetExpiresImmediately) {
  Deadline d = Deadline::AfterSeconds(0);
  EXPECT_TRUE(d.Expired());
}

TEST(DeadlineTest, GenerousBudgetIsAlive) {
  Deadline d = Deadline::AfterSeconds(3600);
  EXPECT_FALSE(d.Expired());
}

TEST(RetryTest, ZeroAttemptsForbidsEvenTheFirstTry) {
  RetryPolicy policy;
  policy.max_attempts = 0;
  Retry retry(policy);
  EXPECT_FALSE(retry.ShouldRetry());
  EXPECT_EQ(retry.attempts_started(), 0);
}

TEST(RetryTest, BudgetExhaustsAfterMaxAttempts) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  Retry retry(policy);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(retry.ShouldRetry());
    EXPECT_EQ(retry.BeginAttempt(), i);
  }
  EXPECT_FALSE(retry.ShouldRetry());
  EXPECT_EQ(retry.attempts_started(), 3);
}

TEST(FaultPlanTest, CrashFiresExactlyOnce) {
  FaultPlan plan(2);
  plan.CrashNodeAtOp(0, 2);
  EXPECT_TRUE(plan.BeginNodeOp(0));   // op 0
  EXPECT_TRUE(plan.BeginNodeOp(0));   // op 1
  EXPECT_FALSE(plan.BeginNodeOp(0));  // op 2: fires
  EXPECT_TRUE(plan.BeginNodeOp(0));   // consumed; recovery not re-killed
  EXPECT_TRUE(plan.BeginNodeOp(1));   // other node untouched
  EXPECT_EQ(plan.crashes_fired(), 1u);
}

TEST(FaultPlanTest, ScopeInstallsAndRestores) {
  EXPECT_EQ(ActiveFaultPlan(), nullptr);
  FaultPlan outer(1), inner(1);
  {
    FaultScope a(&outer);
    EXPECT_EQ(ActiveFaultPlan(), &outer);
    {
      FaultScope b(&inner);
      EXPECT_EQ(ActiveFaultPlan(), &inner);
    }
    EXPECT_EQ(ActiveFaultPlan(), &outer);
  }
  EXPECT_EQ(ActiveFaultPlan(), nullptr);
}

TEST(FaultPlanTest, DropRateIsSeededAndRoughlyBernoulli) {
  FaultPlan plan(1);
  plan.DropShipments(0.3, /*seed=*/9);
  int dropped = 0;
  for (int i = 0; i < 10000; ++i) {
    if (!plan.DeliverShipment()) ++dropped;
  }
  EXPECT_EQ(plan.drops_fired(), static_cast<std::uint64_t>(dropped));
  EXPECT_GT(dropped, 2500);
  EXPECT_LT(dropped, 3500);

  FaultPlan replay(1);
  replay.DropShipments(0.3, /*seed=*/9);
  int replay_dropped = 0;
  for (int i = 0; i < 10000; ++i) {
    if (!replay.DeliverShipment()) ++replay_dropped;
  }
  EXPECT_EQ(dropped, replay_dropped);
}

}  // namespace
}  // namespace parqo
