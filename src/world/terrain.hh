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
     * March a ray against the heightfield; returns hit distance, or
     * nullopt if the ray escapes. Step-marched with refinement: the
     * adaptive sample schedule, then 16 bisection steps on the first
     * crossing. Every crossing test first asks `heightBounds`; a sample
     * above the cell's max or at/below its min is decided without
     * calling `heightAt`, and the rest evaluate it exactly. For finite
     * doubles `fl(y - h) <= 0` exactly when `y <= h`, so the decisions
     * — and every hit — are bit-identical to the per-sample march in
     * tests/reference_render.hh, which tests/terrain_test.cc asserts.
     * A ray whose clipped start is already below the surface counts
     * as clipped out (no hit).
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
     * Per-thread march counters: schedule samples taken and `heightAt`
     * calls made by `intersect` on the calling thread, and how many of
     * those calls fell outside the grid, where the march has only the
     * global bound and (past one corner of border) the noise hashes
     * its corners. Reading resets them; the renderer drains them per
     * row chunk into `terrain.march_samples` / `terrain.height_evals`
     * / `terrain.height_evals_off_grid`, like `Bvh::takeThreadStats`.
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

    /** Index of the grid cell holding @p p, or -1 outside the grid. */
    std::ptrdiff_t cellIndex(geom::Vec2 p) const;
    /**
     * Corners of lattice square (ix, iy) of noise @p layer: read from
     * the layer's table when both (ix, iy) and (ix + 1, iy + 1) lie
     * inside it, hashed otherwise.
     */
    Corners corners(std::int64_t ix, std::int64_t iy,
                    std::size_t layer) const;
    /** Value noise of @p layer at the lattice-scaled point (x, y). */
    double noise2(double x, double y, std::size_t layer) const;
    double fractal(geom::Vec2 p) const;

    TerrainParams params_;
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

