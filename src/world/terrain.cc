#include "world/terrain.hh"

#include <algorithm>
#include <cmath>

#include "support/rng.hh"
#include "support/simd.hh"

namespace coterie::world {

using geom::Ray;
using geom::Vec2;
using geom::Vec3;
using support::simd::U64x4;

Terrain::Terrain(const TerrainParams &params) : params_(params) {}

namespace {

/** Quintic fade for value-noise interpolation. */
double
fade(double t)
{
    return t * t * t * (t * (t * 6.0 - 15.0) + 10.0);
}

double
latticeValue(std::int64_t ix, std::int64_t iy, std::uint64_t seed,
             std::uint64_t salt)
{
    std::uint64_t h = hashCombine(seed ^ salt,
                                  hashCombine(hashMix(ix), hashMix(iy)));
    h = hashMix(h);
    return (h >> 11) * 0x1.0p-53 * 2.0 - 1.0; // [-1, 1)
}

constexpr int kLanes = support::simd::kLanes;

/**
 * The four lattice corner values for four sample cells at once — the
 * integer-hash core of `latticeValue`, lane-vectorized. Bit-exactness
 * vs the scalar path holds under every dispatch clone: the hashing is
 * exact integer arithmetic, the u64→double conversion is exact below
 * 2^53, and the final scale multiplies by powers of two (exact), so
 * even an FMA contraction of `x * 2.0 - 1.0` rounds once to the same
 * double. No other FP runs inside the cloned region.
 */
COTERIE_SIMD_CLONES void
latticeCorners4(const std::int64_t ix[kLanes], const std::int64_t iy[kLanes],
                std::uint64_t seedSalt, double v00[kLanes],
                double v10[kLanes], double v01[kLanes], double v11[kLanes])
{
    std::uint64_t ux[kLanes], ux1[kLanes], uy[kLanes], uy1[kLanes];
    for (int l = 0; l < kLanes; ++l) {
        ux[l] = static_cast<std::uint64_t>(ix[l]);
        ux1[l] = static_cast<std::uint64_t>(ix[l] + 1);
        uy[l] = static_cast<std::uint64_t>(iy[l]);
        uy1[l] = static_cast<std::uint64_t>(iy[l] + 1);
    }
    using support::simd::hashCombine4;
    using support::simd::hashMix4;
    using support::simd::toDouble;
    const U64x4 hx = hashMix4(U64x4::load(ux));
    const U64x4 hx1 = hashMix4(U64x4::load(ux1));
    const U64x4 hy = hashMix4(U64x4::load(uy));
    const U64x4 hy1 = hashMix4(U64x4::load(uy1));
    const U64x4 ss = U64x4::splat(seedSalt);
    const auto corner = [&](U64x4 cx, U64x4 cy, double out[kLanes]) {
        const U64x4 h = hashMix4(hashCombine4(ss, hashCombine4(cx, cy)));
        const support::simd::F64x4 val = toDouble(h >> 11);
        for (int l = 0; l < kLanes; ++l)
            out[l] = val[l] * 0x1.0p-53 * 2.0 - 1.0; // [-1, 1)
    };
    corner(hx, hy, v00);
    corner(hx1, hy, v10);
    corner(hx, hy1, v01);
    corner(hx1, hy1, v11);
}

/**
 * `noise2` over four sample points sharing one salt. The scalar FP
 * glue (floor, fade, lerp) is the exact expression sequence of the
 * scalar `noise2`, per lane; only the corner hashing is lane-wide.
 */
void
noise2x4(const TerrainParams &params, const double x[kLanes],
         const double y[kLanes], std::uint64_t salt, double out[kLanes])
{
    double fx[kLanes], fy[kLanes];
    std::int64_t ix[kLanes], iy[kLanes];
    for (int l = 0; l < kLanes; ++l) {
        fx[l] = std::floor(x[l]);
        fy[l] = std::floor(y[l]);
        ix[l] = static_cast<std::int64_t>(fx[l]);
        iy[l] = static_cast<std::int64_t>(fy[l]);
    }
    double v00[kLanes], v10[kLanes], v01[kLanes], v11[kLanes];
    latticeCorners4(ix, iy, params.seed ^ salt, v00, v10, v01, v11);
    for (int l = 0; l < kLanes; ++l) {
        const double tx = fade(x[l] - fx[l]);
        const double ty = fade(y[l] - fy[l]);
        const double a = v00[l] + (v10[l] - v00[l]) * tx;
        const double b = v01[l] + (v11[l] - v01[l]) * tx;
        out[l] = a + (b - a) * ty;
    }
}

/** `fractal` (and the amplitude scale of `heightAt`) over four ground
 *  points — per-lane op-for-op identical to the scalar octave loop. */
void
heightAt4(const TerrainParams &params, const double px[kLanes],
          const double pz[kLanes], double out[kLanes])
{
    double amp = 1.0;
    double freq = 1.0 / params.featureScale;
    double sum[kLanes] = {};
    double norm = 0.0;
    for (int o = 0; o < params.octaves; ++o) {
        double xs[kLanes], ys[kLanes], n[kLanes];
        for (int l = 0; l < kLanes; ++l) {
            xs[l] = px[l] * freq;
            ys[l] = pz[l] * freq;
        }
        noise2x4(params, xs, ys, 0x5eedULL + static_cast<std::uint64_t>(o),
                 n);
        for (int l = 0; l < kLanes; ++l)
            sum[l] += amp * n[l];
        norm += amp;
        amp *= 0.5;
        freq *= 2.0;
    }
    for (int l = 0; l < kLanes; ++l)
        out[l] = params.amplitude * (norm > 0.0 ? sum[l] / norm : 0.0);
}

} // namespace

double
Terrain::noise2(double x, double y, std::uint64_t salt) const
{
    const double fx = std::floor(x);
    const double fy = std::floor(y);
    const auto ix = static_cast<std::int64_t>(fx);
    const auto iy = static_cast<std::int64_t>(fy);
    const double tx = fade(x - fx);
    const double ty = fade(y - fy);
    const double v00 = latticeValue(ix, iy, params_.seed, salt);
    const double v10 = latticeValue(ix + 1, iy, params_.seed, salt);
    const double v01 = latticeValue(ix, iy + 1, params_.seed, salt);
    const double v11 = latticeValue(ix + 1, iy + 1, params_.seed, salt);
    const double a = v00 + (v10 - v00) * tx;
    const double b = v01 + (v11 - v01) * tx;
    return a + (b - a) * ty;
}

double
Terrain::fractal(Vec2 p) const
{
    double amp = 1.0;
    double freq = 1.0 / params_.featureScale;
    double sum = 0.0;
    double norm = 0.0;
    for (int o = 0; o < params_.octaves; ++o) {
        sum += amp * noise2(p.x * freq, p.y * freq,
                            0x5eedULL + static_cast<std::uint64_t>(o));
        norm += amp;
        amp *= 0.5;
        freq *= 2.0;
    }
    return norm > 0.0 ? sum / norm : 0.0;
}

double
Terrain::heightAt(Vec2 p) const
{
    if (params_.flat)
        return 0.0;
    return params_.amplitude * fractal(p);
}

Vec3
Terrain::normalAt(Vec2 p) const
{
    if (params_.flat)
        return {0.0, 1.0, 0.0};
    const double eps = 0.25;
    const double hx =
        heightAt({p.x + eps, p.y}) - heightAt({p.x - eps, p.y});
    const double hy =
        heightAt({p.x, p.y + eps}) - heightAt({p.x, p.y - eps});
    return Vec3{-hx / (2 * eps), 1.0, -hy / (2 * eps)}.normalized();
}

std::optional<double>
Terrain::intersect(const Ray &ray, double maxDist, double abortBeyond) const
{
    if (params_.flat) {
        // Plane y = 0: exact solve, nothing to march or abort.
        if (std::abs(ray.dir.y) < 1e-12)
            return std::nullopt;
        const double t = -ray.origin.y / ray.dir.y;
        if (t < ray.tMin || t > std::min(ray.tMax, maxDist))
            return std::nullopt;
        return t;
    }
    // Adaptive march (step grows with distance — angular error budget),
    // then bisection refinement; the per-sample schedule and brackets,
    // evaluated four schedule points per heightAt4 batch. A ray whose
    // clipped start is already below the surface is treated as clipped
    // out (no hit), matching depth-interval clipping semantics in the
    // renderer.
    double t_prev = ray.tMin;
    const double h_start = ray.origin.y + t_prev * ray.dir.y -
                           heightAt(ray.at(t_prev).ground());
    if (h_start <= 0.0)
        return std::nullopt;
    const double limit = std::min(ray.tMax, maxDist);
    // Early-escape threshold for climbing rays. The fractal is a
    // normalized average of [-1, 1) noise, so |height| < |amplitude|
    // everywhere: above |amplitude| a non-descending ray can never
    // cross, making escape at |amplitude| result-identical to marching
    // on. The min() with amplitude + 0.5 (the per-sample march's
    // threshold) keeps the escape no later than that march's for any
    // params.
    const double escape =
        std::min(params_.amplitude + 0.5, std::abs(params_.amplitude));
    const bool climbing = ray.dir.y >= 0.0;
    const auto bisect = [&](double lo, double hi) {
        for (int i = 0; i < 16; ++i) {
            const double mid = 0.5 * (lo + hi);
            const Vec3 mp = ray.at(mid);
            if (mp.y - heightAt(mp.ground()) <= 0.0)
                hi = mid;
            else
                lo = mid;
        }
        return hi;
    };
    double t = t_prev;
    // Scalar prologue: rays from a low eye looking down cross within
    // the first few samples, and a 4-wide batch would pay for four
    // height evaluations where one suffices. The schedule is a pure
    // function of t, so peeling samples off the front changes nothing
    // but the batching.
    for (int k = 0; k < kLanes && t < limit; ++k) {
        t = std::min(limit, t + std::max(0.35, t * 0.025));
        const Vec3 p = ray.at(t);
        if (climbing && p.y > escape)
            return std::nullopt;
        if (p.y - heightAt(p.ground()) <= 0.0)
            return bisect(t_prev, t);
        if (t > abortBeyond)
            return std::nullopt;
        t_prev = t;
    }
#ifdef COTERIE_SIMD_VECTOR_EXT
    constexpr bool batched_march = true;
#else
    // Scalar-lane fallback build: heightAt4 has no SIMD payoff, and a
    // batch always evaluates its full width — overshoot work the
    // per-sample march below avoids. Same schedule, same results.
    constexpr bool batched_march = false;
#endif
    if (!batched_march) {
        while (t < limit) {
            t = std::min(limit, t + std::max(0.35, t * 0.025));
            const Vec3 p = ray.at(t);
            if (climbing && p.y > escape)
                return std::nullopt;
            if (p.y - heightAt(p.ground()) <= 0.0)
                return bisect(t_prev, t);
            if (t > abortBeyond)
                return std::nullopt;
            t_prev = t;
        }
        return std::nullopt;
    }
    while (t < limit) {
        // Next (up to) kLanes points of the per-sample schedule; the
        // schedule is a pure function of t, so batching does not move
        // any sample.
        double ts[kLanes];
        int n = 0;
        while (n < kLanes && t < limit) {
            t = std::min(limit, t + std::max(0.35, t * 0.025));
            ts[n++] = t;
        }
        double px[kLanes], py[kLanes], pz[kLanes];
        for (int k = 0; k < n; ++k) {
            const Vec3 p = ray.at(ts[k]);
            px[k] = p.x;
            py[k] = p.y;
            pz[k] = p.z;
        }
        for (int k = n; k < kLanes; ++k) { // pad idle lanes
            px[k] = px[n - 1];
            py[k] = py[n - 1];
            pz[k] = pz[n - 1];
        }
        double height[kLanes];
        heightAt4(params_, px, pz, height);
        for (int k = 0; k < n; ++k) {
            // Early escape: climbing above any possible terrain.
            if (climbing && py[k] > escape)
                return std::nullopt;
            if (py[k] - height[k] <= 0.0)
                return bisect(t_prev, ts[k]);
            // No crossing up to this sample: a later root would
            // bisect to hi > ts[k] > abortBeyond, which the caller
            // has declared irrelevant (occluded by a closer hit).
            if (ts[k] > abortBeyond)
                return std::nullopt;
            t_prev = ts[k];
        }
    }
    return std::nullopt;
}

image::Rgb
Terrain::colorAt(Vec2 p) const
{
    if (params_.flat)
        return {96, 92, 88}; // indoor floor
    const double h = heightAt(p);
    const double moisture =
        0.5 + 0.5 * noise2(p.x / 37.0, p.y / 37.0, 0x5151ULL);
    // Grass -> dirt -> rock blend with elevation.
    const double rockiness =
        std::clamp((h / std::max(params_.amplitude, 1e-9)) * 0.5 + 0.3,
                   0.0, 1.0);
    const auto mix = [](double a, double b, double t) {
        return a + (b - a) * t;
    };
    const double r = mix(mix(70, 110, moisture), 130, rockiness);
    const double g = mix(mix(120, 100, moisture), 125, rockiness);
    const double b = mix(mix(60, 60, moisture), 120, rockiness);
    return {static_cast<std::uint8_t>(r), static_cast<std::uint8_t>(g),
            static_cast<std::uint8_t>(b)};
}

double
Terrain::trianglesWithin(Vec2 /*p*/, double radius) const
{
    return params_.trianglesPerM2 * M_PI * radius * radius;
}

} // namespace coterie::world
