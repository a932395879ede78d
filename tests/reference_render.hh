/**
 * @file
 * Per-pixel reference renderer: the oracle the production pipeline is
 * pinned against.
 *
 * `render::Renderer` shades rows in stages — 4-wide BVH ray packets, a
 * SIMD terrain march that aborts past the pixel's object hit, branch-
 * hoisted shading passes (render/pipeline.hh). This header shades one
 * ray at a time with the plainest formulation of the same model: the
 * scalar `Bvh::closestHit`, a per-sample terrain march with no abort,
 * and the object / terrain / clip-key / sky decision inline. Frames from
 * the two must be byte-identical; renderer_test and terrain_test assert
 * it over several worlds, depth layers, the poles and the yaw seam.
 *
 * The oracle compares in-process rather than against stored frame
 * hashes: ctest runs under gcc and clang, SIMD on and off, and
 * sanitizers, and a pixel hash would pin libm and codegen rather than
 * the renderer.
 */

#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "geom/ray.hh"
#include "image/image.hh"
#include "render/camera.hh"
#include "render/pipeline.hh"
#include "render/renderer.hh"
#include "world/terrain.hh"
#include "world/world.hh"

namespace coterie::render::reference {

/**
 * Per-sample terrain march: the adaptive step schedule, one `heightAt`
 * per sample, 16 bisection steps on the first crossing. A ray whose
 * clipped start is already below the surface counts as clipped out.
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
    const auto below = [&](double t) {
        const geom::Vec3 p = ray.at(t);
        return p.y - terrain.heightAt(p.ground()) <= 0.0;
    };
    double t_prev = ray.tMin;
    if (ray.origin.y + t_prev * ray.dir.y -
            terrain.heightAt(ray.at(t_prev).ground()) <=
        0.0)
        return std::nullopt;
    const double limit = std::min(ray.tMax, maxDist);
    double t = t_prev;
    while (t < limit) {
        t = std::min(limit, t + std::max(0.35, t * 0.025));
        // Early escape: climbing above any possible terrain.
        if (ray.dir.y >= 0.0 &&
            ray.at(t).y > terrain.params().amplitude + 0.5)
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
        const world::Terrain &terrain = world.terrain();
        double light = 1.0;
        if (opts.shading) {
            const double diffuse = std::max(
                0.0, terrain.normalAt(p.ground()).dot(detail::kSunDir));
            light = 0.45 + 0.55 * diffuse;
        }
        if (opts.texture)
            light *= detail::textureFactor(p, terrain_t, opts);
        return detail::applyLight(terrain.colorAt(p.ground()), light);
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
