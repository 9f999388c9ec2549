/**
 * @file
 * Unit tests for the support layer: PRNG determinism and statistics,
 * bit utilities, and the dense bitset.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <sstream>

#include "support/bitops.hh"
#include "support/bitset.hh"
#include "support/env.hh"
#include "support/random.hh"
#include "support/serialize.hh"
#include "support/stats.hh"

namespace hipstr
{
namespace
{

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowRespectsBound)
{
    Rng rng(7);
    for (uint64_t bound : { 1ull, 2ull, 3ull, 10ull, 8192ull }) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.below(bound), bound);
    }
}

TEST(Rng, RangeInclusive)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        int64_t v = rng.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= (v == -3);
        saw_hi |= (v == 3);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceEdgeCases)
{
    Rng rng(13);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng a(21);
    Rng child = a.split();
    // The child stream should not reproduce the parent stream.
    Rng b(21);
    b.split();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (child.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(5);
    std::vector<int> v = { 1, 2, 3, 4, 5, 6, 7, 8 };
    rng.shuffle(v);
    std::multiset<int> s(v.begin(), v.end());
    EXPECT_EQ(s, (std::multiset<int>{ 1, 2, 3, 4, 5, 6, 7, 8 }));
}

TEST(Bitops, PowersOfTwo)
{
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(4096));
    EXPECT_FALSE(isPowerOf2(4097));
}

TEST(Bitops, RoundUpDown)
{
    EXPECT_EQ(roundUp(13, 8), 16u);
    EXPECT_EQ(roundUp(16, 8), 16u);
    EXPECT_EQ(roundDown(13, 8), 8u);
}

TEST(Bitops, SignExtend)
{
    EXPECT_EQ(signExtend(0xff, 8), -1);
    EXPECT_EQ(signExtend(0x7f, 8), 127);
    EXPECT_EQ(signExtend(0x8000, 16), -32768);
    EXPECT_EQ(signExtend(0x1234, 16), 0x1234);
}

TEST(Bitops, FitsSigned)
{
    EXPECT_TRUE(fitsSigned(127, 8));
    EXPECT_FALSE(fitsSigned(128, 8));
    EXPECT_TRUE(fitsSigned(-128, 8));
    EXPECT_FALSE(fitsSigned(-129, 8));
    EXPECT_TRUE(fitsSigned(32767, 16));
    EXPECT_FALSE(fitsSigned(40000, 16));
}

TEST(Bitops, BitsAndInsert)
{
    EXPECT_EQ(bits(0xdeadbeef, 8, 8), 0xbeu);
    EXPECT_EQ(insertBits(0, 8, 8, 0xab), 0xab00u);
}

TEST(BitSet, BasicOps)
{
    DenseBitSet s(130);
    EXPECT_FALSE(s.any());
    s.set(0);
    s.set(64);
    s.set(129);
    EXPECT_TRUE(s.test(0));
    EXPECT_TRUE(s.test(64));
    EXPECT_TRUE(s.test(129));
    EXPECT_FALSE(s.test(1));
    EXPECT_EQ(s.count(), 3u);
    s.clear(64);
    EXPECT_FALSE(s.test(64));
    EXPECT_EQ(s.toVector(), (std::vector<uint32_t>{ 0, 129 }));
}

TEST(BitSet, UnionReportsChange)
{
    DenseBitSet a(10), b(10);
    b.set(3);
    EXPECT_TRUE(a.unionWith(b));
    EXPECT_FALSE(a.unionWith(b));
    EXPECT_TRUE(a.test(3));
}

TEST(Stats, Histogram)
{
    Histogram h("lat", 10, 5);
    h.sample(0);
    h.sample(9);
    h.sample(10);
    h.sample(1000); // overflow bin
    EXPECT_EQ(h.binCount(0), 2u);
    EXPECT_EQ(h.binCount(1), 1u);
    EXPECT_EQ(h.binCount(4), 1u);
    EXPECT_EQ(h.totalSamples(), 4u);
    EXPECT_NEAR(h.mean(), (0 + 9 + 10 + 1000) / 4.0, 1e-9);
}

TEST(Stats, HistogramEmptyMeanIsZero)
{
    // Regression: mean() on a histogram with no samples must return
    // 0.0, not divide by zero — stats dumps run mid-flight before the
    // first sample lands.
    Histogram h("empty", 10, 5);
    EXPECT_EQ(h.totalSamples(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    h.sample(7);
    h.reset();
    EXPECT_EQ(h.mean(), 0.0);
}

TEST(Stats, HistogramOverflowAbsorbedInFinalBin)
{
    // The documented overflow contract: samples at or beyond
    // bin_width * num_bins land in the final bin, and mean() still
    // uses the exact sample values.
    Histogram h("ovf", 4, 3); // bins [0,4) [4,8) [8,...)
    h.sample(8);              // exactly at the final-bin boundary
    h.sample(12);             // beyond the nominal range
    h.sample(1'000'000);      // far beyond
    EXPECT_EQ(h.binCount(0), 0u);
    EXPECT_EQ(h.binCount(1), 0u);
    EXPECT_EQ(h.binCount(2), 3u);
    EXPECT_EQ(h.totalSamples(), 3u);
    EXPECT_NEAR(h.mean(), (8.0 + 12.0 + 1'000'000.0) / 3.0, 1e-9);
}

TEST(Stats, HistogramMerge)
{
    Histogram a("m", 10, 4);
    Histogram b("m2", 10, 4);
    a.sample(5);
    a.sample(15);
    b.sample(25, 2);
    b.sample(500); // overflow
    a.merge(b);
    EXPECT_EQ(a.binCount(0), 1u);
    EXPECT_EQ(a.binCount(1), 1u);
    EXPECT_EQ(a.binCount(2), 2u);
    EXPECT_EQ(a.binCount(3), 1u);
    EXPECT_EQ(a.totalSamples(), 5u);
    EXPECT_NEAR(a.mean(), (5 + 15 + 25 + 25 + 500) / 5.0, 1e-9);
}

TEST(Stats, TextTableAlignsColumns)
{
    TextTable t({ "name", "value" });
    t.addRow({ "x", "1" });
    t.addRow({ "longer", "22" });
    std::ostringstream os;
    t.print(os);
    std::string s = os.str();
    EXPECT_NE(s.find("| name"), std::string::npos);
    EXPECT_NE(s.find("longer"), std::string::npos);
    EXPECT_EQ(t.numRows(), 2u);
}

TEST(Stats, Formatters)
{
    EXPECT_EQ(formatPercent(0.9804), "98.04%");
    EXPECT_EQ(formatDouble(1.2345, 2), "1.23");
    EXPECT_EQ(formatScientific(9.11e33, 2), "9.11e+33");
}

/** Scoped env override that restores the previous value on exit. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : _name(name)
    {
        if (const char *old = std::getenv(name)) {
            _had = true;
            _old = old;
        }
        if (value)
            setenv(name, value, 1);
        else
            unsetenv(name);
    }
    ~ScopedEnv()
    {
        if (_had)
            setenv(_name, _old.c_str(), 1);
        else
            unsetenv(_name);
    }

  private:
    const char *_name;
    bool _had = false;
    std::string _old;
};

TEST(Env, FlagAcceptsCommonSpellings)
{
    const char *kName = "HIPSTR_TEST_FLAG";
    for (const char *on : { "1", "true", "ON", "Yes" }) {
        ScopedEnv e(kName, on);
        EXPECT_TRUE(envFlag(kName, false)) << on;
    }
    for (const char *off : { "0", "false", "OFF", "no" }) {
        ScopedEnv e(kName, off);
        EXPECT_FALSE(envFlag(kName, true)) << off;
    }
    ScopedEnv unset(kName, nullptr);
    EXPECT_TRUE(envFlag(kName, true));
    EXPECT_FALSE(envFlag(kName, false));
}

TEST(EnvDeathTest, FlagRejectsGarbage)
{
    ScopedEnv e("HIPSTR_TEST_FLAG", "maybe");
    EXPECT_EXIT(envFlag("HIPSTR_TEST_FLAG", false),
                ::testing::ExitedWithCode(1), "HIPSTR_TEST_FLAG");
}

TEST(Env, UnsignedParsesAndDefaults)
{
    const char *kName = "HIPSTR_TEST_UNSIGNED";
    {
        ScopedEnv e(kName, "17");
        EXPECT_EQ(envUnsigned(kName, 3, 1, 100), 17u);
    }
    {
        ScopedEnv e(kName, nullptr);
        EXPECT_EQ(envUnsigned(kName, 3, 1, 100), 3u);
    }
    {
        ScopedEnv e(kName, "");
        EXPECT_EQ(envUnsigned(kName, 3, 1, 100), 3u);
    }
}

TEST(EnvDeathTest, UnsignedRejectsGarbageAndRange)
{
    const char *kName = "HIPSTR_TEST_UNSIGNED";
    {
        ScopedEnv e(kName, "8x");
        EXPECT_EXIT(envUnsigned(kName, 3, 1, 100),
                    ::testing::ExitedWithCode(1), kName);
    }
    {
        ScopedEnv e(kName, "101");
        EXPECT_EXIT(envUnsigned(kName, 3, 1, 100),
                    ::testing::ExitedWithCode(1), "out of range");
    }
}

TEST(Env, StringDefaultsWhenUnset)
{
    const char *kName = "HIPSTR_TEST_STRING";
    ScopedEnv e(kName, nullptr);
    EXPECT_EQ(envString(kName, "fallback"), "fallback");
    ScopedEnv e2(kName, "/tmp/x.journal");
    EXPECT_EQ(envString(kName), "/tmp/x.journal");
}

TEST(Serialize, RoundTripsScalars)
{
    ByteWriter w;
    w.u8(0xab);
    w.u16(0xcdef);
    w.u32(0xdeadbeef);
    w.u64(0x0123456789abcdefull);
    w.f64(3.14159265358979);
    w.boolean(true);
    w.str("hipstr");

    ByteReader r(w.data());
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u16(), 0xcdef);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(r.f64(), 3.14159265358979);
    EXPECT_TRUE(r.boolean());
    EXPECT_EQ(r.str(), "hipstr");
    EXPECT_TRUE(r.atEnd());
}

TEST(Serialize, TruncatedReadThrowsTyped)
{
    ByteWriter w;
    w.u32(7);
    ByteReader r(w.data());
    r.u16();
    try {
        r.u32();
        FAIL() << "expected SerializeError";
    } catch (const SerializeError &e) {
        EXPECT_EQ(e.code(), SerializeErrc::Truncated);
    }
}

TEST(Serialize, CorruptBooleanThrowsTyped)
{
    ByteWriter w;
    w.u8(7);
    ByteReader r(w.data());
    try {
        r.boolean();
        FAIL() << "expected SerializeError";
    } catch (const SerializeError &e) {
        EXPECT_EQ(e.code(), SerializeErrc::Corrupt);
    }
}

TEST(Rng, StateWordsRoundTrip)
{
    Rng a(1234);
    a.next();
    a.next();
    Rng b(999);
    b.setStateWords(a.stateWords());
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(a.next(), b.next());
}

} // namespace
} // namespace hipstr
