#include "world/terrain.hh"

#include <algorithm>
#include <cmath>

#include "support/rng.hh"

namespace coterie::world {

using geom::Ray;
using geom::Rect;
using geom::Vec2;
using geom::Vec3;

namespace {

/** Thread-local march counters; drained by Terrain::takeThreadStats. */
thread_local Terrain::MarchStats tlsStats;

/**
 * Bound slack per metre of |amplitude| (+1 m). `heightAt` and the
 * grid's corner evaluations each round a few dozen times on values of
 * magnitude <= |amplitude|, an error near 1e-14 * |amplitude|.
 */
constexpr double kSlack = 1e-9;

/** Cell count above which no grid is built (2 MiB of bounds). */
constexpr double kMaxCells = 1 << 18;

constexpr float kInfF = std::numeric_limits<float>::infinity();

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

/** Bilinear blend of a lattice square's corners at faded weights. */
double
blend(double v00, double v10, double v01, double v11, double u, double v)
{
    const double a = v00 + (v10 - v00) * u;
    const double b = v01 + (v11 - v01) * u;
    return a + (b - a) * v;
}

/**
 * Range of one noise octave over the scaled rectangle [x0, x1] x
 * [y0, y1]. Within a lattice square the noise is bilinear in
 * (fade(tx), fade(ty)) and fade is monotone on [0, 1], so its extremes
 * over the square's clamped sub-rectangle sit at the sub-rectangle's
 * four faded corners.
 */
Terrain::HeightBounds
noiseRange(double x0, double x1, double y0, double y1, std::uint64_t seed,
           std::uint64_t salt)
{
    Terrain::HeightBounds r{std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity()};
    const auto lattice = [](double v) {
        return static_cast<std::int64_t>(std::floor(v));
    };
    for (std::int64_t iy = lattice(y0); iy <= lattice(y1); ++iy) {
        const auto fy = static_cast<double>(iy);
        const double v[2] = {fade(std::max(y0, fy) - fy),
                             fade(std::min(y1, fy + 1.0) - fy)};
        for (std::int64_t ix = lattice(x0); ix <= lattice(x1); ++ix) {
            const auto fx = static_cast<double>(ix);
            const double u[2] = {fade(std::max(x0, fx) - fx),
                                 fade(std::min(x1, fx + 1.0) - fx)};
            const double c00 = latticeValue(ix, iy, seed, salt);
            const double c10 = latticeValue(ix + 1, iy, seed, salt);
            const double c01 = latticeValue(ix, iy + 1, seed, salt);
            const double c11 = latticeValue(ix + 1, iy + 1, seed, salt);
            for (double uu : u)
                for (double vv : v) {
                    const double n = blend(c00, c10, c01, c11, uu, vv);
                    r.lo = std::min(r.lo, n);
                    r.hi = std::max(r.hi, n);
                }
        }
    }
    return r;
}

/**
 * Walk `fractal`'s octaves, calling @p fn(weight, frequency, salt) for
 * each; returns the weight sum that normalizes them.
 */
template <typename Fn>
double
forEachOctave(const TerrainParams &params, Fn &&fn)
{
    double amp = 1.0;
    double freq = 1.0 / params.featureScale;
    double norm = 0.0;
    for (int o = 0; o < params.octaves; ++o) {
        fn(amp, freq, 0x5eedULL + static_cast<std::uint64_t>(o));
        norm += amp;
        amp *= 0.5;
        freq *= 2.0;
    }
    return norm;
}

} // namespace

Terrain::Terrain(const TerrainParams &params, Rect extent) : params_(params)
{
    if (params_.flat) {
        global_ = {0.0, 0.0};
        return;
    }
    const double amp = std::abs(params_.amplitude);
    const double slack = kSlack * (amp + 1.0);
    global_ = {-(amp + slack), amp + slack};

    // Cells are half the finest lattice spacing, on an origin snapped
    // to the coarse lattice, so each cell sits inside one lattice
    // square per octave up to the edge epsilon below.
    const double fs = params_.featureScale;
    const double cell = std::ldexp(fs, -std::max(params_.octaves, 0));
    const Vec2 origin{std::floor((extent.lo.x - fs) / fs) * fs,
                      std::floor((extent.lo.y - fs) / fs) * fs};
    const double cols = std::ceil((extent.hi.x + fs - origin.x) / cell);
    const double rows = std::ceil((extent.hi.y + fs - origin.y) / cell);
    if (!(cell > 0.0 && cols >= 1.0 && rows >= 1.0 &&
          cols * rows <= kMaxCells))
        return; // degenerate or oversized: every lookup is global
    grid_ = {origin, cell, static_cast<int>(cols), static_cast<int>(rows)};
    invCell_ = 1.0 / cell;
    cellBounds_.resize(2 * static_cast<std::size_t>(cols * rows));

    // The lookup's index rounding can file a point up to ~1e-13 m
    // outside its nominal cell; bound each cell grown by far more.
    const double edge = cell * 0x1.0p-20;
    std::size_t k = 0;
    for (int j = 0; j < grid_.rows; ++j) {
        const double y0 = origin.y + j * cell - edge;
        const double y1 = origin.y + (j + 1) * cell + edge;
        for (int i = 0; i < grid_.cols; ++i) {
            const double x0 = origin.x + i * cell - edge;
            const double x1 = origin.x + (i + 1) * cell + edge;
            // `fractal`'s octave sum, per bound. Rounding is monotone,
            // so fl(x0 * f) <= fl(p.x * f) for every p.x >= x0: the
            // scaled ranges hold every noise argument in the cell.
            double lo = 0.0;
            double hi = 0.0;
            const double norm = forEachOctave(
                params_, [&](double w, double f, std::uint64_t salt) {
                    const HeightBounds n = noiseRange(
                        x0 * f, x1 * f, y0 * f, y1 * f, params_.seed, salt);
                    lo += w * n.lo;
                    hi += w * n.hi;
                });
            const double scale = norm > 0.0 ? params_.amplitude / norm : 0.0;
            lo *= scale;
            hi *= scale;
            if (lo > hi)
                std::swap(lo, hi); // negative amplitude
            // One float step outward from the nearest float is on the
            // safe side of the double bound.
            cellBounds_[k++] = std::nextafter(static_cast<float>(lo - slack),
                                              -kInfF);
            cellBounds_[k++] = std::nextafter(static_cast<float>(hi + slack),
                                              kInfF);
        }
    }
}

Terrain::HeightBounds
Terrain::heightBounds(Vec2 p) const
{
    const double cx = (p.x - grid_.origin.x) * invCell_;
    const double cy = (p.y - grid_.origin.y) * invCell_;
    // Negated so NaN coordinates fall through to the global bound, as
    // does every point of a terrain with no grid or a moved-from one.
    if (!(cx >= 0.0 && cx < grid_.cols && cy >= 0.0 && cy < grid_.rows) ||
        cellBounds_.empty())
        return global_;
    const std::size_t k =
        2 * (static_cast<std::size_t>(cy) *
                 static_cast<std::size_t>(grid_.cols) +
             static_cast<std::size_t>(cx));
    return {cellBounds_[k], cellBounds_[k + 1]};
}

Terrain::MarchStats
Terrain::takeThreadStats()
{
    const MarchStats stats = tlsStats;
    tlsStats = {};
    return stats;
}

double
Terrain::noise2(double x, double y, std::uint64_t salt) const
{
    const double fx = std::floor(x);
    const double fy = std::floor(y);
    const auto ix = static_cast<std::int64_t>(fx);
    const auto iy = static_cast<std::int64_t>(fy);
    const double tx = fade(x - fx);
    const double ty = fade(y - fy);
    return blend(latticeValue(ix, iy, params_.seed, salt),
                 latticeValue(ix + 1, iy, params_.seed, salt),
                 latticeValue(ix, iy + 1, params_.seed, salt),
                 latticeValue(ix + 1, iy + 1, params_.seed, salt), tx, ty);
}

double
Terrain::fractal(Vec2 p) const
{
    double sum = 0.0;
    const double norm = forEachOctave(
        params_, [&](double w, double f, std::uint64_t salt) {
            sum += w * noise2(p.x * f, p.y * f, salt);
        });
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
    MarchStats stats;
    // The crossing test `y - heightAt(g) <= 0.0`. For finite doubles
    // fl(y - h) <= 0 exactly when y <= h, so y above the cell's max
    // proves it false and y at or below the cell's min proves it true;
    // only the band between pays for heightAt.
    const auto below = [&](double y, Vec2 g) {
        const HeightBounds b = heightBounds(g);
        if (y > b.hi)
            return false;
        if (y <= b.lo)
            return true;
        ++stats.heightEvals;
        return y - heightAt(g) <= 0.0;
    };
    const std::optional<double> hit = [&]() -> std::optional<double> {
        // Adaptive march (step grows with distance — angular error
        // budget), then bisection refinement. A ray whose clipped start
        // is already below the surface is treated as clipped out (no
        // hit), matching depth-interval clipping semantics in the
        // renderer.
        double t_prev = ray.tMin;
        if (below(ray.origin.y + t_prev * ray.dir.y,
                  ray.at(t_prev).ground()))
            return std::nullopt;
        const double limit = std::min(ray.tMax, maxDist);
        // Early-escape threshold for climbing rays. The fractal is a
        // normalized average of [-1, 1) noise, so |height| < |amplitude|
        // everywhere: above |amplitude| a non-descending ray can never
        // cross, making escape at |amplitude| result-identical to
        // marching on. The min() with amplitude + 0.5 (the per-sample
        // march's threshold) keeps the escape no later than that
        // march's for any params.
        const double escape =
            std::min(params_.amplitude + 0.5, std::abs(params_.amplitude));
        const bool climbing = ray.dir.y >= 0.0;
        double t = t_prev;
        while (t < limit) {
            t = std::min(limit, t + std::max(0.35, t * 0.025));
            ++stats.marchSamples;
            const Vec3 p = ray.at(t);
            if (climbing && p.y > escape)
                return std::nullopt;
            if (below(p.y, p.ground())) {
                double lo = t_prev;
                double hi = t;
                for (int i = 0; i < 16; ++i) {
                    const double mid = 0.5 * (lo + hi);
                    const Vec3 mp = ray.at(mid);
                    if (below(mp.y, mp.ground()))
                        hi = mid;
                    else
                        lo = mid;
                }
                return hi;
            }
            // No crossing up to this sample: a later root would bisect
            // to hi > t > abortBeyond, which the caller has declared
            // irrelevant (occluded by a closer hit).
            if (t > abortBeyond)
                return std::nullopt;
            t_prev = t;
        }
        return std::nullopt;
    }();
    tlsStats.marchSamples += stats.marchSamples;
    tlsStats.heightEvals += stats.heightEvals;
    return hit;
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
