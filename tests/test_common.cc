/** @file Unit tests for the common utilities. */

#include <gtest/gtest.h>

#include <set>

#include "common/bitutils.hh"
#include "common/env.hh"
#include "common/prob_counter.hh"
#include "common/rng.hh"
#include "common/sat_counter.hh"
#include "common/stats.hh"

namespace rsep
{
namespace
{

TEST(BitUtils, MaskBasics)
{
    EXPECT_EQ(mask(0), 0u);
    EXPECT_EQ(mask(1), 1u);
    EXPECT_EQ(mask(14), 0x3fffu);
    EXPECT_EQ(mask(64), ~u64{0});
}

TEST(BitUtils, BitsExtract)
{
    EXPECT_EQ(bits(0xdeadbeef, 15, 0), 0xbeefu);
    EXPECT_EQ(bits(0xdeadbeef, 31, 16), 0xdeadu);
    EXPECT_EQ(bits(0xff, 7, 7), 1u);
}

TEST(BitUtils, PowerOfTwoAndLogs)
{
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(4096));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(24));
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(4096), 12u);
    EXPECT_EQ(floorLog2(4097), 12u);
    EXPECT_EQ(ceilLog2(4097), 13u);
    EXPECT_EQ(ceilLog2(4096), 12u);
}

TEST(BitUtils, XorFoldPaperFormula)
{
    // The paper's 14-bit fold: Hash = val[13..0] ^ val[27..14]
    // ^ val[41..28] ^ val[55..42] ^ val[63..56].
    u64 v = 0x123456789abcdef0ull;
    u64 expect = (v & mask(14)) ^ ((v >> 14) & mask(14)) ^
                 ((v >> 28) & mask(14)) ^ ((v >> 42) & mask(14)) ^
                 ((v >> 56) & mask(14));
    EXPECT_EQ(xorFold(v, 14), expect);
}

TEST(BitUtils, XorFoldPowerOfTwoWidthCollidesZeroMinusOne)
{
    // Section IV-A: with 8/16-bit folds, 0 and -1 collide; with a
    // 14-bit fold they do not.
    EXPECT_EQ(xorFold(~u64{0}, 16), xorFold(u64{0}, 16));
    EXPECT_EQ(xorFold(~u64{0}, 8), xorFold(u64{0}, 8));
    EXPECT_NE(xorFold(~u64{0}, 14), xorFold(u64{0}, 14));
}

class XorFoldWidths : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(XorFoldWidths, StaysInRangeAndIsDeterministic)
{
    unsigned w = GetParam();
    Rng rng(99);
    for (int i = 0; i < 2000; ++i) {
        u64 v = rng.next();
        u64 h = xorFold(v, w);
        EXPECT_LE(h, mask(w));
        EXPECT_EQ(h, xorFold(v, w));
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, XorFoldWidths,
                         ::testing::Values(8u, 10u, 12u, 14u, 16u, 20u));

TEST(BitUtils, RotateLeft)
{
    EXPECT_EQ(rotateLeft(0b1, 4, 1), 0b10u);
    EXPECT_EQ(rotateLeft(0b1000, 4, 1), 0b0001u);
    EXPECT_EQ(rotateLeft(0xabcd, 16, 16), 0xabcdu);
}

TEST(Rng, DeterministicPerSeed)
{
    Rng a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i) {
        u64 va = a.next();
        EXPECT_EQ(va, b.next());
        (void)c.next();
    }
    Rng a2(42), c2(43);
    bool differ = false;
    for (int i = 0; i < 16; ++i)
        differ |= a2.next() != c2.next();
    EXPECT_TRUE(differ);
}

TEST(Rng, BelowRespectsBound)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(13), 13u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(7);
    std::set<u64> seen;
    for (int i = 0; i < 1000; ++i) {
        u64 v = rng.range(5, 8);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 8u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 4u);
}

TEST(Rng, ChanceApproximatesProbability)
{
    Rng rng(11);
    int hits = 0;
    const int n = 40000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(1, 4);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(SatCounter, SaturatesBothEnds)
{
    SatCounter c(2, 0);
    EXPECT_TRUE(c.decrement());
    c.increment();
    c.increment();
    c.increment();
    EXPECT_TRUE(c.saturated());
    EXPECT_TRUE(c.increment());
    EXPECT_EQ(c.value(), 3u);
}

TEST(SatCounter, ResetAndMax)
{
    SatCounter c(6, 0);
    EXPECT_EQ(c.max(), 63u);
    c.setMax();
    EXPECT_TRUE(c.saturated());
    c.reset(10);
    EXPECT_EQ(c.value(), 10u);
}

TEST(BimodalCounter, HysteresisBehaviour)
{
    BimodalCounter c(2, false);
    EXPECT_FALSE(c.taken());
    c.update(true);
    EXPECT_TRUE(c.taken());
    c.update(false);
    EXPECT_FALSE(c.taken());
    c.update(true);
    c.update(true);
    c.update(true);
    EXPECT_TRUE(c.taken());
    c.update(false);
    EXPECT_TRUE(c.taken()); // strong->weak taken.
}

TEST(ConfidenceCounter, DeterministicSaturatesAt255)
{
    ConfidenceCounter c(ConfidenceKind::Deterministic8);
    for (int i = 0; i < 254; ++i)
        c.onCorrect(nullptr);
    EXPECT_FALSE(c.saturated());
    c.onCorrect(nullptr);
    EXPECT_TRUE(c.saturated());
    EXPECT_EQ(c.effectiveValue(), 255u);
    c.onIncorrect();
    EXPECT_EQ(c.effectiveValue(), 0u);
    EXPECT_FALSE(c.saturated());
}

TEST(ConfidenceCounter, StorageBits)
{
    EXPECT_EQ(ConfidenceCounter(ConfidenceKind::Deterministic8)
                  .storageBits(),
              8u);
    EXPECT_EQ(ConfidenceCounter(ConfidenceKind::Fpc3).storageBits(), 3u);
}

TEST(ConfidenceCounter, FpcExpectedTrialsNear255)
{
    // Statistical: mean number of correct outcomes needed to saturate
    // a 3-bit FPC counter should be ~258.
    Rng rng(1234);
    double total = 0;
    const int runs = 300;
    for (int r = 0; r < runs; ++r) {
        ConfidenceCounter c(ConfidenceKind::Fpc3);
        int trials = 0;
        while (!c.saturated()) {
            c.onCorrect(&rng);
            ++trials;
        }
        total += trials;
    }
    EXPECT_NEAR(total / runs, 258.0, 40.0);
}

TEST(ConfidenceCounter, FpcResetsOnIncorrect)
{
    Rng rng(5);
    ConfidenceCounter c(ConfidenceKind::Fpc3);
    for (int i = 0; i < 2000; ++i)
        c.onCorrect(&rng);
    EXPECT_TRUE(c.saturated());
    c.onIncorrect();
    EXPECT_EQ(c.rawLevel(), 0u);
}

TEST(Stats, HarmonicMean)
{
    EXPECT_DOUBLE_EQ(harmonicMean({2.0, 2.0}), 2.0);
    EXPECT_NEAR(harmonicMean({1.0, 2.0}), 4.0 / 3.0, 1e-12);
    EXPECT_EQ(harmonicMean({}), 0.0);
    EXPECT_EQ(harmonicMean({1.0, 0.0}), 0.0);
}

TEST(Stats, GeometricAndArithmeticMeans)
{
    EXPECT_NEAR(geometricMean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_EQ(geometricMean({}), 0.0);
}

TEST(Stats, HistogramSamplesAndCdf)
{
    StatHistogram h(8);
    h.sample(0);
    h.sample(3);
    h.sample(3);
    h.sample(100); // clamps to last bucket.
    EXPECT_EQ(h.samples(), 4u);
    EXPECT_EQ(h.bucket(3), 2u);
    EXPECT_EQ(h.bucket(7), 1u);
}

TEST(Env, DefaultsWhenUnset)
{
    unsetenv("RSEP_TEST_ENV_X");
    EXPECT_EQ(envU64("RSEP_TEST_ENV_X", 17), 17u);
    EXPECT_DOUBLE_EQ(envDouble("RSEP_TEST_ENV_X", 2.5), 2.5);
}

TEST(Env, ParsesValues)
{
    setenv("RSEP_TEST_ENV_X", "123", 1);
    EXPECT_EQ(envU64("RSEP_TEST_ENV_X", 17), 123u);
    setenv("RSEP_TEST_ENV_X", "0.5", 1);
    EXPECT_DOUBLE_EQ(envDouble("RSEP_TEST_ENV_X", 2.5), 0.5);
    unsetenv("RSEP_TEST_ENV_X");
}

TEST(Env, MalformedValuesWarnAndFallBack)
{
    // Malformed values (including trailing garbage, which the old
    // strtoull-based parse silently truncated) use the default.
    for (const char *bad : {"abc", "12abc", "-3", " ", "0x"}) {
        setenv("RSEP_TEST_ENV_X", bad, 1);
        EXPECT_EQ(envU64("RSEP_TEST_ENV_X", 17), 17u) << bad;
    }
    setenv("RSEP_TEST_ENV_X", "1.5.2", 1);
    EXPECT_DOUBLE_EQ(envDouble("RSEP_TEST_ENV_X", 2.5), 2.5);
    unsetenv("RSEP_TEST_ENV_X");
}

TEST(Env, OutOfRangeValuesWarnAndFallBack)
{
    setenv("RSEP_TEST_ENV_X", "0", 1);
    EXPECT_EQ(envU64("RSEP_TEST_ENV_X", 17, 1, 100), 17u);
    setenv("RSEP_TEST_ENV_X", "101", 1);
    EXPECT_EQ(envU64("RSEP_TEST_ENV_X", 17, 1, 100), 17u);
    setenv("RSEP_TEST_ENV_X", "100", 1);
    EXPECT_EQ(envU64("RSEP_TEST_ENV_X", 17, 1, 100), 100u);
    unsetenv("RSEP_TEST_ENV_X");
}

TEST(Env, EnvSet)
{
    unsetenv("RSEP_TEST_ENV_X");
    EXPECT_FALSE(envSet("RSEP_TEST_ENV_X"));
    setenv("RSEP_TEST_ENV_X", "", 1);
    EXPECT_FALSE(envSet("RSEP_TEST_ENV_X"));
    setenv("RSEP_TEST_ENV_X", "1", 1);
    EXPECT_TRUE(envSet("RSEP_TEST_ENV_X"));
    unsetenv("RSEP_TEST_ENV_X");
}

TEST(Env, StrictScalarParses)
{
    u64 u = 0;
    EXPECT_TRUE(parseU64("  42 ", u));
    EXPECT_EQ(u, 42u);
    EXPECT_TRUE(parseU64("0x20", u));
    EXPECT_EQ(u, 32u);
    EXPECT_FALSE(parseU64("", u));
    EXPECT_FALSE(parseU64("-1", u));
    EXPECT_FALSE(parseU64("42z", u));
    EXPECT_FALSE(parseU64("99999999999999999999999", u)); // overflow.

    double d = 0.0;
    EXPECT_TRUE(parseDouble("0.25", d));
    EXPECT_DOUBLE_EQ(d, 0.25);
    EXPECT_FALSE(parseDouble("0.25x", d));

    bool b = false;
    EXPECT_TRUE(parseBool("TRUE", b));
    EXPECT_TRUE(b);
    EXPECT_TRUE(parseBool("off", b));
    EXPECT_FALSE(b);
    EXPECT_FALSE(parseBool("maybe", b));
}

} // namespace
} // namespace rsep
