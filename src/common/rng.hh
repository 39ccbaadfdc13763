/**
 * @file
 * Deterministic pseudo-random number generation (xoroshiro128++).
 *
 * Every stochastic element of the simulator (probabilistic counters,
 * commit-group sampling, workload data) draws from an explicitly seeded
 * Rng so experiments are exactly reproducible.
 */

#ifndef RSEP_COMMON_RNG_HH
#define RSEP_COMMON_RNG_HH

#include <cassert>

#include "common/types.hh"

namespace rsep
{

/** xoroshiro128++ generator (Blackman & Vigna), small and fast. */
class Rng
{
  public:
    explicit Rng(u64 seed = 0x9e3779b97f4a7c15ull) { reseed(seed); }

    /** Re-initialize state from a 64-bit seed via splitmix64. */
    void
    reseed(u64 seed)
    {
        s0 = splitmix(seed);
        s1 = splitmix(seed);
        if (s0 == 0 && s1 == 0)
            s1 = 1;
    }

    bool operator==(const Rng &) const = default;

    /** Next raw 64-bit value. */
    u64
    next()
    {
        u64 a = s0, b = s1;
        u64 result = rotl(a + b, 17) + a;
        b ^= a;
        s0 = rotl(a, 49) ^ b ^ (b << 21);
        s1 = rotl(b, 28);
        return result;
    }

    /** Uniform integer in [0, bound). @p bound must be non-zero. */
    u64
    below(u64 bound)
    {
        assert(bound != 0);
        // Lemire-style rejection-free-enough multiply-shift.
        __uint128_t m = static_cast<__uint128_t>(next()) * bound;
        return static_cast<u64>(m >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    u64
    range(u64 lo, u64 hi)
    {
        assert(hi >= lo);
        return lo + below(hi - lo + 1);
    }

    /** Bernoulli trial with probability @p num / @p den. */
    bool
    chance(u64 num, u64 den)
    {
        assert(den != 0);
        return below(den) < num;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

  private:
    static u64
    rotl(u64 x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    u64
    splitmix(u64 &x)
    {
        x += 0x9e3779b97f4a7c15ull;
        u64 z = x;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    u64 s0;
    u64 s1;
};

} // namespace rsep

#endif // RSEP_COMMON_RNG_HH
