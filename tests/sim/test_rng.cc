/**
 * @file
 * Tests for the deterministic RNG and the Zipf generator.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "sim/rng.hh"

namespace
{

using namespace odbsim;

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, KnownAnswerSequence)
{
    // Pinned outputs for one seed: the stream every simulated result
    // depends on must not change when the generator's code moves.
    constexpr std::uint64_t seed = 0x5eed0db5ULL;
    const std::uint64_t next[16] = {
        0xe485f3beefd20ac1ULL, 0xfb9db682a0e8ac0cULL, 0x19e1b8e349f0a481ULL,
        0x75c0f0658aeab8c3ULL, 0xf63f9f255f1d4904ULL, 0x8496998c4fa55ea9ULL,
        0x7b8b9d0c4f59b29dULL, 0x8c586e1bdfa5e0b7ULL, 0xa9ea0457a0654d46ULL,
        0x0b2b931eb77fa281ULL, 0xffd1b99baeb76c0fULL, 0x87574840ecd1ad6fULL,
        0x81f99a3fc7b34705ULL, 0xc0852f3496ff18f0ULL, 0x1844534845c55f94ULL,
        0xfeea66889264d4f7ULL};
    const double uniform[16] = {
        0x1.c90be77ddfa41p-1, 0x1.f73b6d0541d15p-1, 0x1.9e1b8e349f0ap-4,
        0x1.d703c1962baaep-2, 0x1.ec7f3e4abe3a9p-1, 0x1.092d33189f4abp-1,
        0x1.ee2e74313d66cp-2, 0x1.18b0dc37bf4bcp-1, 0x1.53d408af40ca9p-1,
        0x1.657263d6eff4p-5,  0x1.ffa373375d6edp-1, 0x1.0eae9081d9a35p-1,
        0x1.03f3347f8f668p-1, 0x1.810a5e692dfe3p-1, 0x1.844534845c558p-4,
        0x1.fdd4cd1124c9ap-1};
    const bool chance[16] = {false, false, true,  false, false, false,
                             false, false, false, true,  false, false,
                             false, false, true,  false};
    const std::uint64_t below[16] = {892, 982, 101, 459, 961, 517,
                                     482, 548, 663, 43,  999, 528,
                                     507, 752, 94,  995};
    Rng a(seed), b(seed), c(seed), d(seed);
    for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(a.next(), next[i]) << "next #" << i;
        EXPECT_EQ(b.uniform(), uniform[i]) << "uniform #" << i;
        EXPECT_EQ(c.chance(0.3), chance[i]) << "chance #" << i;
        EXPECT_EQ(d.below(1000), below[i]) << "below #" << i;
    }
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(7);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = r.uniform(3.0, 5.0);
        ASSERT_GE(u, 3.0);
        ASSERT_LT(u, 5.0);
    }
}

TEST(Rng, BelowRespectsBound)
{
    Rng r(9);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(r.below(17), 17u);
}

TEST(Rng, BelowCoversDomain)
{
    Rng r(11);
    std::map<std::uint64_t, int> seen;
    for (int i = 0; i < 5000; ++i)
        ++seen[r.below(8)];
    EXPECT_EQ(seen.size(), 8u);
    for (const auto &[v, n] : seen)
        EXPECT_GT(n, 400) << "value " << v << " underrepresented";
}

TEST(Rng, RangeInclusive)
{
    Rng r(13);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        const auto v = r.range(-2, 2);
        ASSERT_GE(v, -2);
        ASSERT_LE(v, 2);
        saw_lo |= v == -2;
        saw_hi |= v == 2;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng r(17);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += r.chance(0.25);
    EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

TEST(Rng, ExponentialHasRequestedMean)
{
    Rng r(19);
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i) {
        const double v = r.exponential(4.0);
        ASSERT_GT(v, 0.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 20000.0, 4.0, 0.15);
}

TEST(Rng, NormalHasRequestedMoments)
{
    Rng r(23);
    double sum = 0.0, sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = r.normal(10.0, 2.0);
        sum += v;
        sq += v * v;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 10.0, 0.1);
    EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(Rng, NurandStaysInRange)
{
    Rng r(29);
    for (int i = 0; i < 10000; ++i) {
        const auto v = r.nurand(1023, 0, 2999);
        ASSERT_GE(v, 0);
        ASSERT_LE(v, 2999);
    }
}

TEST(Rng, NurandIsNonUniform)
{
    // The bit-OR construction concentrates mass; the most popular
    // octile should clearly beat the least popular one.
    Rng r(31);
    int bucket[8] = {};
    for (int i = 0; i < 40000; ++i)
        ++bucket[r.nurand(1023, 0, 2999) * 8 / 3000];
    int lo = bucket[0], hi = bucket[0];
    for (int b : bucket) {
        lo = std::min(lo, b);
        hi = std::max(hi, b);
    }
    EXPECT_GT(hi, lo * 3 / 2);
}

TEST(Rng, ForkProducesIndependentStream)
{
    Rng a(42);
    Rng b = a.fork();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Zipf, RankZeroMostPopular)
{
    Rng r(37);
    ZipfGenerator z(1000, 0.8);
    std::uint64_t zero = 0, mid = 0;
    for (int i = 0; i < 50000; ++i) {
        const auto v = z.sample(r);
        ASSERT_LT(v, 1000u);
        zero += v == 0;
        mid += v == 500;
    }
    EXPECT_GT(zero, 20 * std::max<std::uint64_t>(mid, 1));
}

/** Property: Zipf samples stay in range for many (n, theta) combos. */
class ZipfProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>>
{
};

TEST_P(ZipfProperty, SamplesInDomainAndSkewed)
{
    const auto [n, theta] = GetParam();
    Rng r(41);
    ZipfGenerator z(n, theta);
    EXPECT_EQ(z.domain(), n);
    std::uint64_t first_decile = 0;
    const int samples = 20000;
    for (int i = 0; i < samples; ++i) {
        const auto v = z.sample(r);
        ASSERT_LT(v, n);
        first_decile += v < (n + 9) / 10;
    }
    // Zipf concentrates well above the uniform 10% in the top decile.
    EXPECT_GT(first_decile, samples / 7);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ZipfProperty,
    ::testing::Combine(::testing::Values<std::uint64_t>(10, 100, 10000,
                                                        2000000),
                       ::testing::Values(0.5, 0.8, 0.99)));

} // namespace
