/**
 * @file
 * Per-pixel reference renderer: the oracle the production pipeline is
 * pinned against.
 *
 * `render::Renderer` shades rows in stages — 4-wide BVH ray packets,
 * one grid-assisted terrain march per row that aborts each ray past its
 * pixel's object hit, branch-hoisted shading passes
 * (render/pipeline.hh). This header shades one ray at a time with the
 * plainest formulation of the same model: the
 * scalar `Bvh::closestHit`, a per-sample terrain march with no abort,
 * and the object / terrain / clip-key / sky decision inline. Frames from
 * the two must be byte-identical; renderer_test and terrain_test assert
 * it over several worlds, depth layers, the poles and the yaw seam.
 *
 * The terrain is pinned the same way: `world::Terrain` reads its
 * value-noise corners from lattice tables built beside its min/max
 * grid, while `heightAt`, `normalAt` and `colorAt` here hash every
 * corner with `support/rng.hh`'s functions, so neither the grid nor the
 * tables reach the oracle.
 *
 * The oracle compares in-process rather than against stored frame
 * hashes: ctest runs under gcc and clang, SIMD on and off, and
 * sanitizers, and a pixel hash would pin libm and codegen rather than
 * the renderer.
 */

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>

#include "geom/ray.hh"
#include "image/image.hh"
#include "render/camera.hh"
#include "render/pipeline.hh"
#include "render/renderer.hh"
#include "support/rng.hh"
#include "world/terrain.hh"
#include "world/world.hh"

namespace coterie::render::reference {

/**
 * Hashed value noise at the lattice-scaled point (x, y): the four
 * corners of its lattice square hashed from (ix, iy, seed, salt), then
 * blended at quintic-faded weights.
 */
inline double
valueNoise(double x, double y, std::uint64_t seed, std::uint64_t salt)
{
    const auto fade = [](double t) {
        return t * t * t * (t * (t * 6.0 - 15.0) + 10.0);
    };
    const auto corner = [&](std::int64_t ix, std::int64_t iy) {
        std::uint64_t h = hashCombine(
            seed ^ salt, hashCombine(hashMix(ix), hashMix(iy)));
        h = hashMix(h);
        return (h >> 11) * 0x1.0p-53 * 2.0 - 1.0; // [-1, 1)
    };
    const double fx = std::floor(x);
    const double fy = std::floor(y);
    const auto ix = static_cast<std::int64_t>(fx);
    const auto iy = static_cast<std::int64_t>(fy);
    const double u = fade(x - fx);
    const double v = fade(y - fy);
    const double c00 = corner(ix, iy);
    const double c10 = corner(ix + 1, iy);
    const double c01 = corner(ix, iy + 1);
    const double c11 = corner(ix + 1, iy + 1);
    const double a = c00 + (c10 - c00) * u;
    const double b = c01 + (c11 - c01) * u;
    return a + (b - a) * v;
}

/** Terrain height: the amplitude-scaled, normalized octave sum. */
inline double
heightAt(const world::TerrainParams &params, geom::Vec2 p)
{
    if (params.flat)
        return 0.0;
    double sum = 0.0;
    double norm = 0.0;
    double amp = 1.0;
    double freq = 1.0 / params.featureScale;
    for (int o = 0; o < params.octaves; ++o) {
        sum += amp * valueNoise(p.x * freq, p.y * freq, params.seed,
                                0x5eedULL + static_cast<std::uint64_t>(o));
        norm += amp;
        amp *= 0.5;
        freq *= 2.0;
    }
    return params.amplitude * (norm > 0.0 ? sum / norm : 0.0);
}

/** `colorAt`'s moisture layer, in [0, 1). */
inline double
moisture(const world::TerrainParams &params, geom::Vec2 p)
{
    return 0.5 +
           0.5 * valueNoise(p.x / 37.0, p.y / 37.0, params.seed, 0x5151ULL);
}

/** Central-difference surface normal of `heightAt`. */
inline geom::Vec3
normalAt(const world::TerrainParams &params, geom::Vec2 p)
{
    if (params.flat)
        return {0.0, 1.0, 0.0};
    const double eps = 0.25;
    const double hx = heightAt(params, {p.x + eps, p.y}) -
                      heightAt(params, {p.x - eps, p.y});
    const double hy = heightAt(params, {p.x, p.y + eps}) -
                      heightAt(params, {p.x, p.y - eps});
    return geom::Vec3{-hx / (2 * eps), 1.0, -hy / (2 * eps)}.normalized();
}

/** Ground albedo: grass -> dirt -> rock with elevation, moisture-tinted. */
inline image::Rgb
colorAt(const world::TerrainParams &params, geom::Vec2 p)
{
    if (params.flat)
        return {96, 92, 88};
    const double h = heightAt(params, p);
    const double wet = moisture(params, p);
    const double rockiness = std::clamp(
        (h / std::max(params.amplitude, 1e-9)) * 0.5 + 0.3, 0.0, 1.0);
    const auto mix = [](double a, double b, double t) {
        return a + (b - a) * t;
    };
    return {static_cast<std::uint8_t>(mix(mix(70, 110, wet), 130, rockiness)),
            static_cast<std::uint8_t>(mix(mix(120, 100, wet), 125, rockiness)),
            static_cast<std::uint8_t>(mix(mix(60, 60, wet), 120, rockiness))};
}

/**
 * Per-sample terrain march: the adaptive step schedule, one hashed
 * `heightAt` per sample, 16 bisection steps on the first crossing. A
 * ray whose clipped start is already below the surface counts as
 * clipped out.
 */
inline std::optional<double>
terrainIntersect(const world::Terrain &terrain, const geom::Ray &ray,
                 double maxDist)
{
    if (terrain.params().flat) {
        // Plane y = 0.
        if (std::abs(ray.dir.y) < 1e-12)
            return std::nullopt;
        const double t = -ray.origin.y / ray.dir.y;
        if (t < ray.tMin || t > std::min(ray.tMax, maxDist))
            return std::nullopt;
        return t;
    }
    const world::TerrainParams &params = terrain.params();
    const auto below = [&](double t) {
        const geom::Vec3 p = ray.at(t);
        return p.y - heightAt(params, p.ground()) <= 0.0;
    };
    double t_prev = ray.tMin;
    if (ray.origin.y + t_prev * ray.dir.y -
            heightAt(params, ray.at(t_prev).ground()) <=
        0.0)
        return std::nullopt;
    const double limit = std::min(ray.tMax, maxDist);
    double t = t_prev;
    while (t < limit) {
        t = std::min(limit, t + std::max(0.35, t * 0.025));
        // Early escape: climbing above any possible terrain.
        if (ray.dir.y >= 0.0 && ray.at(t).y > params.amplitude + 0.5)
            return std::nullopt;
        if (below(t)) {
            double lo = t_prev, hi = t;
            for (int i = 0; i < 16; ++i) {
                const double mid = 0.5 * (lo + hi);
                if (below(mid))
                    hi = mid;
                else
                    lo = mid;
            }
            return hi;
        }
        t_prev = t;
    }
    return std::nullopt;
}

/** Shade one ray: closest object or terrain in the layer, else key/sky. */
inline image::Rgb
shadeRay(const world::VirtualWorld &world, const geom::Ray &ray,
         const RenderOptions &opts)
{
    geom::Ray clipped = ray;
    clipped.tMin = std::max(ray.tMin, opts.layer.nearClip);
    clipped.tMax = std::min(ray.tMax, opts.layer.farClip);

    geom::Hit obj_hit;
    double terrain_t = std::numeric_limits<double>::infinity();
    if (clipped.tMin < clipped.tMax) {
        obj_hit = world.bvh().closestHit(clipped);
        const auto t =
            terrainIntersect(world.terrain(), clipped, opts.terrainMaxDist);
        if (t && *t >= clipped.tMin && *t <= clipped.tMax)
            terrain_t = *t;
    }

    if (obj_hit.valid() && obj_hit.t < terrain_t) {
        double light = 1.0;
        if (opts.shading) {
            const double diffuse =
                std::max(0.0, obj_hit.normal.dot(detail::kSunDir));
            light = 0.40 + 0.60 * diffuse;
        }
        if (opts.texture)
            light *= detail::textureFactor(obj_hit.point, obj_hit.t, opts);
        return detail::applyLight(world.object(obj_hit.objectId).color,
                                  light);
    }
    if (std::isfinite(terrain_t)) {
        const geom::Vec3 p = ray.at(terrain_t);
        const world::TerrainParams &terrain = world.terrain().params();
        double light = 1.0;
        if (opts.shading) {
            const double diffuse = std::max(
                0.0, normalAt(terrain, p.ground()).dot(detail::kSunDir));
            light = 0.45 + 0.55 * diffuse;
        }
        if (opts.texture)
            light *= detail::textureFactor(p, terrain_t, opts);
        return detail::applyLight(colorAt(terrain, p.ground()), light);
    }
    // Nothing in this depth layer: a near layer (finite far clip) keys
    // the pixel out so merging shows the far layer; otherwise sky.
    if (std::isfinite(opts.layer.farClip))
        return opts.clipKey;
    const double pitch = std::asin(std::clamp(ray.dir.y, -1.0, 1.0));
    return world.skyColor(std::max(0.0, pitch));
}

/** Equirectangular panorama, one `shadeRay` per pixel. */
inline image::Image
renderPanorama(const world::VirtualWorld &world, geom::Vec3 eye, int width,
               int height, RenderOptions opts)
{
    opts.pixelAngleRad = M_PI / static_cast<double>(height);
    image::Image frame(width, height);
    for (int y = 0; y < height; ++y) {
        const double v = (y + 0.5) / height;
        for (int x = 0; x < width; ++x) {
            geom::Ray ray;
            ray.origin = eye;
            ray.dir = panoramaDirection((x + 0.5) / width, v);
            frame.at(x, y) = shadeRay(world, ray, opts);
        }
    }
    return frame;
}

/** Perspective FoV frame, one `shadeRay` per pixel. */
inline image::Image
renderPerspective(const world::VirtualWorld &world, const Camera &camera,
                  int width, int height, RenderOptions opts)
{
    opts.pixelAngleRad = camera.fovY / static_cast<double>(height);
    const double aspect =
        static_cast<double>(width) / static_cast<double>(height);
    image::Image frame(width, height);
    for (int y = 0; y < height; ++y) {
        const double sy = 1.0 - 2.0 * (y + 0.5) / height;
        for (int x = 0; x < width; ++x) {
            geom::Ray ray;
            ray.origin = camera.position;
            ray.dir = camera.rayDirection(2.0 * (x + 0.5) / width - 1.0, sy,
                                          aspect);
            frame.at(x, y) = shadeRay(world, ray, opts);
        }
    }
    return frame;
}

} // namespace coterie::render::reference
