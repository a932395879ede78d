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

#include <cstdint>
#include <limits>
#include <optional>

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
 */
class Terrain
{
  public:
    explicit Terrain(const TerrainParams &params = {});

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

    /**
     * March a ray against the heightfield; returns hit distance, or
     * nullopt if the ray escapes. Step-marched with refinement; the
     * noise evaluations run four schedule points at a time through the
     * SIMD hash kernel, bit-identical to a per-sample scalar march over
     * `heightAt` (the integer hash core is exact and the FP glue stays
     * scalar — tests/terrain_test.cc asserts equality against the
     * reference march in tests/reference_render.hh).
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

    /** Ground albedo at a point (height/moisture-tinted). */
    image::Rgb colorAt(geom::Vec2 p) const;

    /** Terrain mesh triangles inside a disc of @p radius around @p p. */
    double trianglesWithin(geom::Vec2 p, double radius) const;

  private:
    double noise2(double x, double y, std::uint64_t salt) const;
    double fractal(geom::Vec2 p) const;

    TerrainParams params_;
};

} // namespace coterie::world

