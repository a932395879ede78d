#include "support/rng.hh"

#include <cmath>

#include "support/logging.hh"

namespace coterie {

namespace {

inline std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s_)
        word = splitmix64(sm);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

double
Rng::uniform()
{
    // 53 high bits -> double in [0, 1).
    return (next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    COTERIE_ASSERT(lo <= hi, "uniform bounds inverted: ", lo, " > ", hi);
    return lo + (hi - lo) * uniform();
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    COTERIE_ASSERT(lo <= hi, "uniformInt bounds inverted");
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0) // full 64-bit range
        return static_cast<std::int64_t>(next());
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = UINT64_MAX - UINT64_MAX % span;
    std::uint64_t draw;
    do {
        draw = next();
    } while (draw >= limit);
    return lo + static_cast<std::int64_t>(draw % span);
}

double
Rng::normal()
{
    if (hasCachedNormal_) {
        hasCachedNormal_ = false;
        return cachedNormal_;
    }
    double u1, u2;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    u2 = uniform();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cachedNormal_ = radius * std::sin(theta);
    hasCachedNormal_ = true;
    return radius * std::cos(theta);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

double
Rng::exponential(double lambda)
{
    COTERIE_ASSERT(lambda > 0.0, "exponential rate must be positive");
    double u;
    do {
        u = uniform();
    } while (u <= 0.0);
    return -std::log(u) / lambda;
}

bool
Rng::chance(double p)
{
    return uniform() < p;
}

Rng
Rng::fork()
{
    return Rng(next());
}

} // namespace coterie
