#include "world/terrain.hh"

#include <algorithm>
#include <bit>
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

/** A ray of a row whose sample at `hi` proved a crossing after `lo`. */
struct Crossing
{
    std::size_t ray;
    double lo;
    double hi;
};

/**
 * Per-thread scratch of `Terrain::intersectRow`: the sample schedule of
 * the last (tMin, limit) pair, `schedule[0] == tMin`, extended on
 * demand; and the crossings of the row being marched.
 */
struct MarchScratch
{
    double tMin = std::numeric_limits<double>::quiet_NaN();
    double limit = std::numeric_limits<double>::quiet_NaN();
    std::vector<double> schedule;
    std::vector<Crossing> crossings;
};
thread_local MarchScratch tlsScratch;

/** Bitwise equality: the schedule key must not merge -0.0 and +0.0. */
bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/**
 * Bound slack per metre of |amplitude| (+1 m). `heightAt` and the
 * grid's corner evaluations each round a few dozen times on values of
 * magnitude <= |amplitude|, an error near 1e-14 * |amplitude|.
 */
constexpr double kSlack = 1e-9;

/** Cell count above which no grid is built (2 MiB of bounds); also
 *  the entry count above which a layer gets no lattice table. */
constexpr double kMaxCells = 1 << 18;

/** Horizontal scale (m) of `colorAt`'s moisture noise. */
constexpr double kMoistureScale = 37.0;

/** Noise layers: `colorAt`'s moisture layer, then one per octave. */
constexpr std::size_t kMoistureLayer = 0;

/** The hash salt each noise layer has always used. */
constexpr std::uint64_t
layerSalt(std::size_t layer)
{
    return layer == kMoistureLayer ? 0x5151ULL : 0x5eedULL + (layer - 1);
}

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

std::int64_t
lattice(double v)
{
    return static_cast<std::int64_t>(std::floor(v));
}

/**
 * Range of one noise octave over the scaled rectangle [x0, x1] x
 * [y0, y1], reading each lattice square's values through
 * @p corners(ix, iy). Within a lattice square the noise is bilinear in
 * (fade(tx), fade(ty)) and fade is monotone on [0, 1], so its extremes
 * over the square's clamped sub-rectangle sit at the sub-rectangle's
 * four faded corners.
 */
template <typename CornersFn>
Terrain::HeightBounds
noiseRange(double x0, double x1, double y0, double y1, CornersFn &&corners)
{
    Terrain::HeightBounds r{std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity()};
    for (std::int64_t iy = lattice(y0); iy <= lattice(y1); ++iy) {
        const auto fy = static_cast<double>(iy);
        const double v[2] = {fade(std::max(y0, fy) - fy),
                             fade(std::min(y1, fy + 1.0) - fy)};
        for (std::int64_t ix = lattice(x0); ix <= lattice(x1); ++ix) {
            const auto fx = static_cast<double>(ix);
            const double u[2] = {fade(std::max(x0, fx) - fx),
                                 fade(std::min(x1, fx + 1.0) - fx)};
            const auto c = corners(ix, iy);
            for (double uu : u)
                for (double vv : v) {
                    const double n =
                        blend(c.v00, c.v10, c.v01, c.v11, uu, vv);
                    r.lo = std::min(r.lo, n);
                    r.hi = std::max(r.hi, n);
                }
        }
    }
    return r;
}

/**
 * Walk `fractal`'s octaves, calling @p fn(weight, frequency, layer) for
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
        fn(amp, freq, kMoistureLayer + 1 + static_cast<std::size_t>(o));
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
    octaveNorm_ = forEachOctave(
        params_, [&](double w, double f, std::size_t layer) {
            octaves_.push_back({w, f, layer});
        });
    const double amp = std::abs(params_.amplitude);
    const double slack = kSlack * (amp + 1.0);
    global_ = {-(amp + slack), amp + slack};

    // Cells are half the finest lattice spacing, on an origin snapped
    // to the coarse lattice, so each cell sits inside one lattice
    // square per octave up to the edge epsilon below.
    const double fs = params_.featureScale;
    const int octaves = std::max(params_.octaves, 0);
    const double cell = std::ldexp(fs, -octaves);
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

    // One lattice table per noise layer (frequency f), over the corners
    // the grid's extent reaches plus one corner of border, filled with
    // the values `corners` would otherwise hash. A layer whose table
    // would exceed kMaxCells entries (moisture under a very coarse
    // grid) keeps hashing.
    const Vec2 end{origin.x + cols * cell, origin.y + rows * cell};
    std::size_t entries = 0;
    const auto addTable = [&](double f) {
        LatticeTable t;
        t.ix0 = lattice(origin.x * f) - 1;
        t.iy0 = lattice(origin.y * f) - 1;
        t.cols = lattice(end.x * f) + 3 - t.ix0;
        t.rows = lattice(end.y * f) + 3 - t.iy0;
        if (static_cast<double>(t.cols) * static_cast<double>(t.rows) >
            kMaxCells)
            t = {};
        t.offset = entries;
        entries += static_cast<std::size_t>(t.cols * t.rows);
        tables_.push_back(t);
    };
    tables_.reserve(1 + static_cast<std::size_t>(octaves));
    addTable(1.0 / kMoistureScale);
    for (const Octave &o : octaves_)
        addTable(o.freq);
    lattice_.resize(entries);
    for (std::size_t layer = 0; layer < tables_.size(); ++layer) {
        const LatticeTable &t = tables_[layer];
        const std::uint64_t salt = layerSalt(layer);
        double *v = lattice_.data() + t.offset;
        for (std::int64_t j = 0; j < t.rows; ++j)
            for (std::int64_t i = 0; i < t.cols; ++i)
                *v++ = latticeValue(t.ix0 + i, t.iy0 + j, params_.seed, salt);
    }

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
            for (const Octave &o : octaves_) {
                const double f = o.freq;
                const HeightBounds n = noiseRange(
                    x0 * f, x1 * f, y0 * f, y1 * f,
                    [&](std::int64_t ix, std::int64_t iy) {
                        return corners(ix, iy, o.layer);
                    });
                lo += o.weight * n.lo;
                hi += o.weight * n.hi;
            }
            const double scale =
                octaveNorm_ > 0.0 ? params_.amplitude / octaveNorm_ : 0.0;
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

inline std::ptrdiff_t
Terrain::cellIndex(Vec2 p) const
{
    const double cx = (p.x - grid_.origin.x) * invCell_;
    const double cy = (p.y - grid_.origin.y) * invCell_;
    // Negated so NaN coordinates fall outside, as does every point of a
    // terrain with no grid or a moved-from one.
    if (!(cx >= 0.0 && cx < grid_.cols && cy >= 0.0 && cy < grid_.rows) ||
        cellBounds_.empty())
        return -1;
    return static_cast<std::ptrdiff_t>(cy) * grid_.cols +
           static_cast<std::ptrdiff_t>(cx);
}

inline Terrain::HeightBounds
Terrain::cellBounds(std::ptrdiff_t k) const
{
    if (k < 0)
        return global_;
    const auto i = static_cast<std::size_t>(2 * k);
    return {cellBounds_[i], cellBounds_[i + 1]};
}

Terrain::HeightBounds
Terrain::heightBounds(Vec2 p) const
{
    return cellBounds(cellIndex(p));
}

Terrain::MarchStats
Terrain::takeThreadStats()
{
    const MarchStats stats = tlsStats;
    tlsStats = {};
    return stats;
}

inline Terrain::Corners
Terrain::corners(std::int64_t ix, std::int64_t iy, std::size_t layer) const
{
    if (layer < tables_.size()) {
        const LatticeTable &t = tables_[layer];
        // Compare with the corner range before forming an offset, so a
        // far-away point's index never enters the arithmetic.
        if (ix >= t.ix0 && ix < t.ix0 + t.cols - 1 && iy >= t.iy0 &&
            iy < t.iy0 + t.rows - 1) {
            const double *v =
                lattice_.data() + t.offset +
                static_cast<std::size_t>((iy - t.iy0) * t.cols + ix - t.ix0);
            return {v[0], v[1], v[t.cols], v[t.cols + 1]};
        }
    }
    return hashedCorners(ix, iy, layer);
}

Terrain::Corners
Terrain::hashedCorners(std::int64_t ix, std::int64_t iy,
                       std::size_t layer) const
{
    const std::uint64_t salt = layerSalt(layer);
    return {latticeValue(ix, iy, params_.seed, salt),
            latticeValue(ix + 1, iy, params_.seed, salt),
            latticeValue(ix, iy + 1, params_.seed, salt),
            latticeValue(ix + 1, iy + 1, params_.seed, salt)};
}

inline double
Terrain::noise2(double x, double y, std::size_t layer) const
{
    const double fx = std::floor(x);
    const double fy = std::floor(y);
    const double tx = fade(x - fx);
    const double ty = fade(y - fy);
    const Corners c = corners(static_cast<std::int64_t>(fx),
                              static_cast<std::int64_t>(fy), layer);
    return blend(c.v00, c.v10, c.v01, c.v11, tx, ty);
}

inline double
Terrain::fractal(Vec2 p) const
{
    double sum = 0.0;
    for (const Octave &o : octaves_)
        sum += o.weight * noise2(p.x * o.freq, p.y * o.freq, o.layer);
    return octaveNorm_ > 0.0 ? sum / octaveNorm_ : 0.0;
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
    double hit = 0.0;
    intersectRow({ray.origin, ray.tMin, ray.tMax, 1, &ray.dir.x, &ray.dir.y,
                  &ray.dir.z, &abortBeyond},
                 maxDist, &hit);
    if (hit == std::numeric_limits<double>::infinity())
        return std::nullopt;
    return hit;
}

void
Terrain::intersectRow(const RayRow &rays, double maxDist, double *hitT) const
{
    const double inf = std::numeric_limits<double>::infinity();
    const Vec3 origin = rays.origin;
    const double limit = std::min(rays.tMax, maxDist);
    if (params_.flat) {
        // Plane y = 0: exact solve, nothing to march or abort.
        for (std::size_t i = 0; i < rays.count; ++i) {
            const double dirY = rays.dirY[i];
            hitT[i] = inf;
            if (std::abs(dirY) < 1e-12)
                continue;
            const double t = -origin.y / dirY;
            if (!(t < rays.tMin || t > limit))
                hitT[i] = t;
        }
        return;
    }
    MarchStats stats;
    // The crossing test `y - heightAt(g) <= 0.0`. For finite doubles
    // fl(y - h) <= 0 exactly when y <= h, so y above the cell's max
    // proves it false and y at or below the cell's min proves it true;
    // only the band between pays for heightAt.
    const auto below = [&](double y, Vec2 g) {
        const std::ptrdiff_t cell = cellIndex(g);
        const HeightBounds b = cellBounds(cell);
        if (y > b.hi)
            return false;
        if (y <= b.lo)
            return true;
        ++stats.heightEvals;
        if (cell < 0)
            ++stats.offGridEvals;
        return y - heightAt(g) <= 0.0;
    };
    const auto at = [&](std::size_t i, double t) { // Ray::at
        return origin + Vec3{rays.dirX[i], rays.dirY[i], rays.dirZ[i]} * t;
    };

    MarchScratch &scratch = tlsScratch;
    std::vector<double> &schedule = scratch.schedule;
    if (schedule.empty() || !sameBits(scratch.tMin, rays.tMin) ||
        !sameBits(scratch.limit, limit)) {
        scratch.tMin = rays.tMin;
        scratch.limit = limit;
        schedule.assign(1, rays.tMin);
    }
    std::vector<Crossing> &crossings = scratch.crossings;
    crossings.clear();

    // Early-escape threshold for climbing rays. The fractal is a
    // normalized average of [-1, 1) noise, so |height| < |amplitude|
    // everywhere: above |amplitude| a non-descending ray can never
    // cross, making escape at |amplitude| result-identical to marching
    // on. The min() with amplitude + 0.5 (the per-sample march's
    // threshold) keeps the escape no later than that march's for any
    // params.
    const double escape =
        std::min(params_.amplitude + 0.5, std::abs(params_.amplitude));
    for (std::size_t i = 0; i < rays.count; ++i) {
        hitT[i] = inf;
        // A ray whose clipped start is already below the surface is
        // treated as clipped out (no hit), matching depth-interval
        // clipping semantics in the renderer.
        const double dirY = rays.dirY[i];
        if (below(origin.y + rays.tMin * dirY, at(i, rays.tMin).ground()))
            continue;
        const bool climbing = dirY >= 0.0;
        const double abortBeyond = rays.abortBeyond[i];
        // Adaptive march (step grows with distance — angular error
        // budget); the crossing is bisected after the row's march.
        for (std::size_t k = 1; schedule[k - 1] < limit; ++k) {
            if (k == schedule.size()) {
                const double t = schedule.back();
                schedule.push_back(
                    std::min(limit, t + std::max(0.35, t * 0.025)));
            }
            const double t = schedule[k];
            ++stats.marchSamples;
            const Vec3 p = at(i, t);
            if (climbing && p.y > escape)
                break;
            if (below(p.y, p.ground())) {
                crossings.push_back({i, schedule[k - 1], t});
                break;
            }
            // No crossing up to this sample: a later root would bisect
            // to hi > t > abortBeyond, which the caller has declared
            // irrelevant (occluded by a closer hit).
            if (t > abortBeyond)
                break;
        }
    }

    // 16 bisection steps per crossing, over N crossings in lockstep:
    // each takes the midpoints it would take alone, and the N heightAt
    // chains are independent, so they overlap.
    const auto bisect = [&]<std::size_t N>(const Crossing *c) {
        double lo[N];
        double hi[N];
        for (std::size_t j = 0; j < N; ++j) {
            lo[j] = c[j].lo;
            hi[j] = c[j].hi;
        }
        for (int step = 0; step < 16; ++step)
            for (std::size_t j = 0; j < N; ++j) {
                const double mid = 0.5 * (lo[j] + hi[j]);
                const Vec3 mp = at(c[j].ray, mid);
                if (below(mp.y, mp.ground()))
                    hi[j] = mid;
                else
                    lo[j] = mid;
            }
        for (std::size_t j = 0; j < N; ++j)
            hitT[c[j].ray] = hi[j];
    };
    std::size_t c = 0;
    for (; c + 4 <= crossings.size(); c += 4)
        bisect.operator()<4>(&crossings[c]);
    for (; c < crossings.size(); ++c)
        bisect.operator()<1>(&crossings[c]);

    tlsStats.marchSamples += stats.marchSamples;
    tlsStats.heightEvals += stats.heightEvals;
    tlsStats.offGridEvals += stats.offGridEvals;
}

image::Rgb
Terrain::colorAt(Vec2 p) const
{
    if (params_.flat)
        return {96, 92, 88}; // indoor floor
    const double h = heightAt(p);
    const double moisture =
        0.5 + 0.5 * noise2(p.x / kMoistureScale, p.y / kMoistureScale,
                           kMoistureLayer);
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
