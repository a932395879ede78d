/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic component in the library takes an explicit seed so that
 * all experiments are exactly reproducible. The generator is xoshiro256++,
 * seeded via SplitMix64 (the construction recommended by its authors).
 */

#pragma once

#include <cstdint>

namespace coterie {

/** SplitMix64 step; used standalone for hashing and for seeding Rng. */
inline std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Mix an arbitrary 64-bit value into a well-distributed hash. */
inline std::uint64_t
hashMix(std::uint64_t value)
{
    std::uint64_t state = value;
    return splitmix64(state);
}

/** Combine two hashes (order-sensitive). */
inline std::uint64_t
hashCombine(std::uint64_t a, std::uint64_t b)
{
    // Boost-style combine lifted to 64 bits.
    return a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 12) + (a >> 4));
}

/**
 * xoshiro256++ PRNG. Small, fast, and good enough for simulation;
 * deliberately not cryptographic.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] (inclusive). */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Standard normal via Box-Muller (cached second value). */
    double normal();

    /** Normal with the given mean and standard deviation. */
    double normal(double mean, double stddev);

    /** Exponential with the given rate parameter lambda (> 0). */
    double exponential(double lambda);

    /** Bernoulli trial with success probability p. */
    bool chance(double p);

    /** Derive an independent child generator (for parallel substreams). */
    Rng fork();

  private:
    std::uint64_t s_[4];
    double cachedNormal_ = 0.0;
    bool hasCachedNormal_ = false;
};

} // namespace coterie

