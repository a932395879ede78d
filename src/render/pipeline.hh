/**
 * @file
 * Row-batched SoA render pipeline.
 *
 * renderPanorama/renderPerspective split per-pixel ray shading into
 * four stages over row-sized buffers:
 *
 *   1. direction generation — trig hoisted (a panorama frame's yaw
 *      table, one pitch pair per row; one camera basis per perspective
 *      row), unit directions written SoA;
 *   2. object raycast — 4-wide ray packets through the BVH
 *      (`Bvh::closestHitPacket`);
 *   3. terrain resolution — one march per row over the min/max height
 *      grid (`Terrain::intersectRow`), each ray aborted past its
 *      pixel's object hit (provably result-identical, see
 *      Terrain::intersect);
 *   4. shading — hit resolution, then the `opts.shading` /
 *      `opts.texture` passes with those branches hoisted out of the
 *      pixel loop, then compositing (clip key / sky).
 *
 * Every stage preserves the scalar expression sequence per pixel, so a
 * frame is byte-identical to a per-pixel ray shader over the scalar
 * `Bvh::closestHit` and the per-sample terrain march — the reference
 * renderer tests/renderer_test.cc compares against.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "geom/ray.hh"
#include "image/image.hh"
#include "obs/metrics.hh"
#include "render/camera.hh"
#include "render/renderer.hh"
#include "world/world.hh"

namespace coterie::render::detail {

/** What a pixel resolved to after the terrain stage. */
enum class PixelKind : std::uint8_t
{
    Sky,
    ClipKey,
    Object,
    Terrain,
};

/** Per-chunk scratch: one row of every inter-stage buffer, SoA. */
struct RowBuffers
{
    // Stage 1: unit ray directions.
    std::vector<double> dirX, dirY, dirZ;
    // Stage 2: closest object hit per pixel.
    std::vector<geom::Hit> objHit;
    // Stage 3: the march's abort distance per pixel (its object hit),
    // then the terrain hit distance (+inf = none in the clip interval).
    std::vector<double> abortT, terrainT;
    // Stage 4 scratch.
    std::vector<PixelKind> kind;
    std::vector<image::Rgb> base;
    std::vector<double> light;
    std::vector<geom::Vec3> point; ///< terrain hit point (valid for Terrain)

    void resize(int width);
};

/**
 * The yaw terms of `panoramaDirection` for every column of a
 * width-wide panorama: `std::cos` / `std::sin` of `u * 2.0 * M_PI` at
 * u = (x + 0.5) / width. They are the same in every row, so a frame
 * builds them once.
 */
struct PanoramaYaw
{
    std::vector<double> cosYaw, sinYaw;
};
PanoramaYaw panoramaYaw(int width);

/**
 * Stage 1, panorama: directions for row y of a frame @p height rows
 * high and `yaw.cosYaw.size()` columns wide, bit-identical to
 * `panoramaDirection` at each texel center.
 */
void panoramaRowDirs(int y, int height, const PanoramaYaw &yaw,
                     RowBuffers &rows);

/** Stage 1, perspective: directions for row y through @p camera. */
void perspectiveRowDirs(const Camera &camera, double aspect, int y,
                        int width, int height, RowBuffers &rows);

/** Stage 2: packet raycast of the row against the world BVH. */
void raycastRow(const world::VirtualWorld &world, geom::Vec3 origin,
                const RenderOptions &opts, int width, RowBuffers &rows);

/** Stage 3: one terrain march over the row, each ray capped at its
 *  pixel's object hit (`Terrain::intersectRow`). */
void terrainRow(const world::VirtualWorld &world, geom::Vec3 origin,
                const RenderOptions &opts, int width, RowBuffers &rows);

/** Stage 4a: hit resolution + light/texture passes (branch-hoisted). */
void shadeRow(const world::VirtualWorld &world, geom::Vec3 origin,
              const RenderOptions &opts, int width, RowBuffers &rows);

/**
 * Stage 4b: compositing — object/terrain color, clip key, sky. A sky
 * pixel's color depends only on its dirY, so it is computed once per
 * run of equal dirY (once per panorama row).
 */
void compositeRow(const world::VirtualWorld &world,
                  const RenderOptions &opts, int width,
                  const RowBuffers &rows, image::Rgb *out);

/** Sun direction of the diffuse shading pass. */
extern const geom::Vec3 kSunDir;

/** Clamped diffuse lighting scale. */
image::Rgb applyLight(image::Rgb base, double intensity);

/**
 * Mip-filtered procedural texture factor in [1-str, 1+str]. The sample
 * cell grows with the pixel footprint at the hit distance; blending
 * between the two nearest cell scales avoids popping.
 */
double textureFactor(geom::Vec3 point, double hitDist,
                     const RenderOptions &opts);

/**
 * Optional per-stage wall-clock attribution (`render.stage.*_ms`
 * metrics registry timers), enabled by RenderOptions::stageTimers;
 * zero work and zero branches-in-loop when disabled.
 */
struct StageTimers
{
    bool enabled = false;

    template <typename Fn>
    void
    run(const char *name, Fn &&fn) const
    {
        if (!enabled) {
            fn();
            return;
        }
        const std::uint64_t begin = obs::monotonicNowNs();
        fn();
        obs::MetricsRegistry::global().timer(name).observeNs(
            begin, obs::monotonicNowNs());
    }
};

} // namespace coterie::render::detail
