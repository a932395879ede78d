/**
 * @file
 * Procedural heightfield terrain.
 *
 * The paper adjusts camera height per-location with a ray-cast "foothold"
 * query against the terrain; we reproduce that with an analytic value-
 * noise heightfield that also participates in rendering (ground pixels)
 * and the triangle-density model (terrain tessellation triangles count
 * toward near-BE render cost).
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "geom/ray.hh"
#include "geom/region.hh"
#include "geom/vec.hh"
#include "image/image.hh"

namespace coterie::world {

/** Terrain configuration. */
struct TerrainParams
{
    std::uint64_t seed = 1;
    double amplitude = 3.0;      ///< peak-to-mean height variation (m)
    double featureScale = 60.0;  ///< horizontal noise wavelength (m)
    int octaves = 3;             ///< fractal octaves
    /** Triangles per square meter of the tessellated ground mesh. */
    double trianglesPerM2 = 8.0;
    /** Flat floor (indoor scenes). */
    bool flat = false;
};

/**
 * Continuous heightfield over the ground plane, built from fractal
 * value noise. Deterministic in its seed.
 *
 * Construction also builds a conservative min/max height grid over
 * @p extent grown by one `featureScale` (DESIGN §10): the ray march
 * consults it first and evaluates `heightAt` only where the bounds
 * cannot decide whether a sample is above or below the surface.
 * Beside the grid it tabulates each value-noise layer's lattice values
 * over the same extent, so `heightAt`, `normalAt` and `colorAt` read
 * their corners there instead of hashing them; the values are the
 * hashed ones, so every result is bit-identical.
 */
class Terrain
{
  public:
    Terrain(const TerrainParams &params, geom::Rect extent);

    const TerrainParams &params() const { return params_; }

    /** Ground elevation at a ground-plane point. */
    double heightAt(geom::Vec2 p) const;

    /** Outward surface normal at a ground-plane point. */
    geom::Vec3 normalAt(geom::Vec2 p) const;

    /**
     * Foothold query: the paper ray-traces downward to place the camera.
     * Returns the standing elevation (== heightAt for a heightfield).
     */
    double foothold(geom::Vec2 p) const { return heightAt(p); }

    /** Bounds with `lo <= heightAt(p) <= hi`. */
    struct HeightBounds
    {
        double lo = 0.0;
        double hi = 0.0;
    };

    /**
     * Bounds on `heightAt` over the grid cell containing @p p; outside
     * the grid (or with no grid) the global bound ±|amplitude|, widened
     * by the same rounding slack.
     */
    HeightBounds heightBounds(geom::Vec2 p) const;

    /** Placement of the min/max grid; `cols == 0` when there is none
     *  (flat terrain, degenerate params or extent). Cell (i, j) spans
     *  `origin + [i, i+1) * cell` on x and `[j, j+1) * cell` on the
     *  ground-plane y. */
    struct GridShape
    {
        geom::Vec2 origin;
        double cell = 0.0;
        int cols = 0;
        int rows = 0;
    };
    const GridShape &gridShape() const { return grid_; }

    /**
     * March one ray against the heightfield; returns the hit distance,
     * or nullopt if the ray escapes. It is a one-ray `intersectRow`
     * (the same march, schedule and counters), so everything said
     * there holds for it: every hit is bit-identical to the per-sample
     * march in tests/reference_render.hh, and a ray whose clipped start
     * is already below the surface counts as clipped out (no hit).
     *
     * @p abortBeyond lets the renderer stop marching once the sample
     * distance exceeds a known closer object hit: the march aborts only
     * at a sample with t > abortBeyond that found no surface crossing,
     * and any crossing the full march could still find would bisect to
     * a root beyond that sample — i.e. beyond @p abortBeyond — so the
     * caller's object-vs-terrain resolution is unchanged. Infinity
     * (the default) reproduces the uncapped march exactly.
     */
    std::optional<double>
    intersect(const geom::Ray &ray, double maxDist,
              double abortBeyond =
                  std::numeric_limits<double>::infinity()) const;

    /**
     * The rays of one render row: a shared origin and clip interval
     * [tMin, tMax], and per ray a direction (SoA) and the distance past
     * which its march may stop (`intersect`'s @p abortBeyond).
     */
    struct RayRow
    {
        geom::Vec3 origin;
        double tMin = 0.0;
        double tMax = 0.0;
        std::size_t count = 0;
        const double *dirX = nullptr;
        const double *dirY = nullptr;
        const double *dirZ = nullptr;
        const double *abortBeyond = nullptr;
    };

    /**
     * The terrain march, over a row of rays: writes each ray's hit
     * distance to `hitT[i]`, or +infinity when it escapes, is clipped
     * out at its start, or aborts.
     *
     * Every ray samples the adaptive schedule t <- min(limit, t +
     * max(0.35, 0.025 t)) from `tMin` to limit = min(tMax, @p maxDist),
     * which depends only on that pair, so the row shares one array of
     * it, extended only as far as its longest march reaches and kept
     * per thread for the next call with the same pair. A ray stops at
     * its first sample below the surface and records the crossing;
     * after the row's march the crossings are refined by 16 bisection
     * steps each, four rays in lockstep so their `heightAt` chains
     * overlap. Every crossing test first asks `heightBounds`; a sample
     * above the cell's max or at/below its min is decided without
     * calling `heightAt`, and the rest evaluate it exactly. For finite
     * doubles `fl(y - h) <= 0` exactly when `y <= h`, so the decisions
     * — and every hit — are bit-identical to the per-sample march in
     * tests/reference_render.hh, which tests/terrain_test.cc asserts.
     * A bisected hit lies in (t_prev, t] within [tMin, limit]. Flat
     * terrain solves its plane y = 0 exactly per ray instead.
     */
    void intersectRow(const RayRow &rays, double maxDist,
                      double *hitT) const;

    /**
     * Per-thread march counters: schedule samples taken and `heightAt`
     * calls made by `intersectRow` (and so `intersect`) on the calling
     * thread, and how many of those calls fell outside the grid, where
     * the march has only the global bound and (past one corner of
     * border) the noise hashes its corners. Each call adds its counts
     * once, at its end. Reading resets them; the renderer drains them
     * per row chunk into `terrain.march_samples` /
     * `terrain.height_evals` / `terrain.height_evals_off_grid`, like
     * `Bvh::takeThreadStats`.
     */
    struct MarchStats
    {
        std::uint64_t marchSamples = 0;
        std::uint64_t heightEvals = 0;
        std::uint64_t offGridEvals = 0;
    };
    static MarchStats takeThreadStats();

    /** Ground albedo at a point (height/moisture-tinted). */
    image::Rgb colorAt(geom::Vec2 p) const;

    /** Terrain mesh triangles inside a disc of @p radius around @p p. */
    double trianglesWithin(geom::Vec2 p, double radius) const;

  private:
    /** Values at the four corners of one lattice square. */
    struct Corners
    {
        double v00, v10, v01, v11;
    };

    /**
     * One noise layer's lattice values over a rectangle of corners:
     * entry (i, j) holds corner (ix0 + i, iy0 + j), row-major.
     */
    struct LatticeTable
    {
        std::int64_t ix0 = 0;
        std::int64_t iy0 = 0;
        std::int64_t cols = 0;
        std::int64_t rows = 0;
        std::size_t offset = 0; ///< index of entry (0, 0) in `lattice_`
    };

    /** One `fractal` octave: its weight, frequency and noise layer. */
    struct Octave
    {
        double weight = 0.0;
        double freq = 0.0;
        std::size_t layer = 0;
    };

    /** Index of the grid cell holding @p p, or -1 outside the grid. */
    inline std::ptrdiff_t cellIndex(geom::Vec2 p) const;
    /** Bounds of cell @p k (from `cellIndex`); the global bound at -1. */
    inline HeightBounds cellBounds(std::ptrdiff_t k) const;
    /**
     * Corners of lattice square (ix, iy) of noise @p layer: read from
     * the layer's table when both (ix, iy) and (ix + 1, iy + 1) lie
     * inside it, hashed (`hashedCorners`) otherwise.
     */
    inline Corners corners(std::int64_t ix, std::int64_t iy,
                           std::size_t layer) const;
    Corners hashedCorners(std::int64_t ix, std::int64_t iy,
                          std::size_t layer) const;
    /** Value noise of @p layer at the lattice-scaled point (x, y). */
    inline double noise2(double x, double y, std::size_t layer) const;
    /** The normalized octave sum over `octaves_`. */
    inline double fractal(geom::Vec2 p) const;

    TerrainParams params_;
    /** `fractal`'s octaves in order, and the weight sum normalizing
     *  them; empty on flat terrain. */
    std::vector<Octave> octaves_;
    double octaveNorm_ = 0.0;
    GridShape grid_;
    double invCell_ = 0.0;
    HeightBounds global_;
    /** Per cell, row-major: lo then hi, rounded outward to float. */
    std::vector<float> cellBounds_;
    /** Per noise layer (moisture, then each octave); empty without a
     *  grid. A layer past the end, or with `cols == 0`, hashes. */
    std::vector<LatticeTable> tables_;
    /** Every table's entries, in one allocation. */
    std::vector<double> lattice_;
};

} // namespace coterie::world

