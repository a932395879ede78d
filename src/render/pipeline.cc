#include "render/pipeline.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "geom/intersect.hh"
#include "support/rng.hh"
#include "world/bvh.hh"

namespace coterie::render::detail {

using geom::Hit;
using geom::Ray;
using geom::Vec3;
using image::Rgb;

const Vec3 kSunDir = Vec3{0.45, 0.8, 0.35}.normalized();

Rgb
applyLight(Rgb base, double intensity)
{
    intensity = std::clamp(intensity, 0.0, 2.0);
    const auto scale = [&](std::uint8_t c) {
        return static_cast<std::uint8_t>(
            std::clamp(c * intensity, 0.0, 255.0));
    };
    return {scale(base.r), scale(base.g), scale(base.b)};
}

double
textureFactor(Vec3 point, double hitDist, const RenderOptions &opts)
{
    const double footprint =
        std::max(opts.textureScale, hitDist * opts.pixelAngleRad * 2.0);
    // Snap cell size to power-of-two multiples of textureScale.
    const double level = std::log2(footprint / opts.textureScale);
    const double lo_cell =
        opts.textureScale * std::exp2(std::floor(level));
    const double hi_cell = lo_cell * 2.0;
    const double blend = level - std::floor(level);

    const auto sample = [&](double cell) {
        const auto qx = static_cast<std::int64_t>(
            std::floor(point.x / cell));
        const auto qy = static_cast<std::int64_t>(
            std::floor(point.y / cell));
        const auto qz = static_cast<std::int64_t>(
            std::floor(point.z / cell));
        const std::uint64_t h = hashCombine(
            hashCombine(hashMix(static_cast<std::uint64_t>(qx)),
                        hashMix(static_cast<std::uint64_t>(qy))),
            hashMix(static_cast<std::uint64_t>(qz)));
        return (h >> 11) * 0x1.0p-53; // [0, 1)
    };
    const double noise =
        sample(lo_cell) * (1.0 - blend) + sample(hi_cell) * blend;
    return 1.0 - opts.textureStrength + 2.0 * opts.textureStrength * noise;
}

void
RowBuffers::resize(int width)
{
    const auto n = static_cast<std::size_t>(width);
    dirX.resize(n);
    dirY.resize(n);
    dirZ.resize(n);
    objHit.resize(n);
    abortT.resize(n);
    terrainT.resize(n);
    kind.resize(n);
    base.resize(n);
    light.resize(n);
    point.resize(n);
}

PanoramaYaw
panoramaYaw(int width)
{
    PanoramaYaw out;
    out.cosYaw.resize(static_cast<std::size_t>(width));
    out.sinYaw.resize(static_cast<std::size_t>(width));
    for (int x = 0; x < width; ++x) {
        const double u = (x + 0.5) / width;
        const double yaw = u * 2.0 * M_PI;
        out.cosYaw[static_cast<std::size_t>(x)] = std::cos(yaw);
        out.sinYaw[static_cast<std::size_t>(x)] = std::sin(yaw);
    }
    return out;
}

void
panoramaRowDirs(int y, int height, const PanoramaYaw &yaw,
                RowBuffers &rows)
{
    const double v = (y + 0.5) / height;
    const PanoramaRowBasis basis = panoramaRowBasis(v);
    for (std::size_t x = 0; x < yaw.cosYaw.size(); ++x) {
        rows.dirX[x] = basis.cp * yaw.cosYaw[x];
        rows.dirY[x] = basis.sp;
        rows.dirZ[x] = basis.cp * yaw.sinYaw[x];
    }
}

void
perspectiveRowDirs(const Camera &camera, double aspect, int y, int width,
                   int height, RowBuffers &rows)
{
    const double sy = 1.0 - 2.0 * (y + 0.5) / height;
    const CameraRowBasis basis = camera.rowBasis(sy, aspect);
    for (int x = 0; x < width; ++x) {
        const double sx = 2.0 * (x + 0.5) / width - 1.0;
        const Vec3 dir = basis.direction(sx);
        rows.dirX[static_cast<std::size_t>(x)] = dir.x;
        rows.dirY[static_cast<std::size_t>(x)] = dir.y;
        rows.dirZ[static_cast<std::size_t>(x)] = dir.z;
    }
}

void
raycastRow(const world::VirtualWorld &world, Vec3 origin,
           const RenderOptions &opts, int width, RowBuffers &rows)
{
    // The camera rays all carry the default validity interval; clip it
    // once for the row (the same std::max/min a per-ray shader applies).
    const Ray proto;
    const double tMin = std::max(proto.tMin, opts.layer.nearClip);
    const double tMax = std::min(proto.tMax, opts.layer.farClip);
    if (!(tMin < tMax)) {
        // An empty clip interval has no object hit.
        std::fill(rows.objHit.begin(), rows.objHit.begin() + width, Hit{});
        return;
    }
    const world::Bvh &bvh = world.bvh();
    constexpr int kLanes = geom::RayPacket::kLanes;
    int x = 0;
    for (; x + kLanes <= width; x += kLanes) {
        const auto i = static_cast<std::size_t>(x);
        bvh.closestHitPacket(geom::makeRayPacket(origin, &rows.dirX[i],
                                                 &rows.dirY[i],
                                                 &rows.dirZ[i], tMin, tMax),
                             &rows.objHit[i]);
    }
    for (; x < width; ++x) {
        const auto i = static_cast<std::size_t>(x);
        Ray ray;
        ray.origin = origin;
        ray.dir = {rows.dirX[i], rows.dirY[i], rows.dirZ[i]};
        ray.tMin = tMin;
        ray.tMax = tMax;
        rows.objHit[i] = bvh.closestHit(ray);
    }
}

void
terrainRow(const world::VirtualWorld &world, Vec3 origin,
           const RenderOptions &opts, int width, RowBuffers &rows)
{
    const Ray proto;
    const double tMin = std::max(proto.tMin, opts.layer.nearClip);
    const double tMax = std::min(proto.tMax, opts.layer.farClip);
    const double inf = std::numeric_limits<double>::infinity();
    const auto n = static_cast<std::size_t>(width);
    if (!(tMin < tMax)) {
        std::fill_n(rows.terrainT.begin(), n, inf);
        return;
    }
    // Marching past a pixel's object hit cannot change the frame:
    // shading discards any terrain t >= obj.t. The abort is
    // result-identical (see Terrain::intersect). A hit the march
    // returns lies in [tMin, tMax] already.
    for (std::size_t i = 0; i < n; ++i) {
        const Hit &obj = rows.objHit[i];
        rows.abortT[i] = obj.valid() ? obj.t : inf;
    }
    world.terrain().intersectRow({origin, tMin, tMax, n, rows.dirX.data(),
                                  rows.dirY.data(), rows.dirZ.data(),
                                  rows.abortT.data()},
                                 opts.terrainMaxDist, rows.terrainT.data());
}

void
shadeRow(const world::VirtualWorld &world, Vec3 origin,
         const RenderOptions &opts, int width, RowBuffers &rows)
{
    // Pass A: resolve each pixel to object / terrain / clip-key / sky
    // and record the base color and hit point: an object wins when it
    // is strictly closer than the terrain.
    const bool clip_key_layer = std::isfinite(opts.layer.farClip);
    for (int x = 0; x < width; ++x) {
        const auto i = static_cast<std::size_t>(x);
        const Hit &obj = rows.objHit[i];
        const double terrain_t = rows.terrainT[i];
        rows.light[i] = 1.0;
        if (obj.valid() && obj.t < terrain_t) {
            rows.kind[i] = PixelKind::Object;
            rows.base[i] = world.object(obj.objectId).color;
        } else if (std::isfinite(terrain_t)) {
            rows.kind[i] = PixelKind::Terrain;
            const Vec3 dir{rows.dirX[i], rows.dirY[i], rows.dirZ[i]};
            const Vec3 p = origin + dir * terrain_t; // Ray::at
            rows.point[i] = p;
            rows.base[i] = world.terrain().colorAt(p.ground());
        } else {
            rows.kind[i] =
                clip_key_layer ? PixelKind::ClipKey : PixelKind::Sky;
        }
    }

    // Pass B: diffuse sun lighting, branch hoisted out of the loop.
    if (opts.shading) {
        for (int x = 0; x < width; ++x) {
            const auto i = static_cast<std::size_t>(x);
            if (rows.kind[i] == PixelKind::Object) {
                const double diffuse = std::max(
                    0.0, rows.objHit[i].normal.dot(kSunDir));
                rows.light[i] = 0.40 + 0.60 * diffuse;
            } else if (rows.kind[i] == PixelKind::Terrain) {
                const double diffuse = std::max(
                    0.0, world.terrain()
                             .normalAt(rows.point[i].ground())
                             .dot(kSunDir));
                rows.light[i] = 0.45 + 0.55 * diffuse;
            }
        }
    }

    // Pass C: procedural texture modulation, branch hoisted.
    if (opts.texture) {
        for (int x = 0; x < width; ++x) {
            const auto i = static_cast<std::size_t>(x);
            if (rows.kind[i] == PixelKind::Object) {
                const Hit &obj = rows.objHit[i];
                rows.light[i] *= textureFactor(obj.point, obj.t, opts);
            } else if (rows.kind[i] == PixelKind::Terrain) {
                rows.light[i] *=
                    textureFactor(rows.point[i], rows.terrainT[i], opts);
            }
        }
    }
}

void
compositeRow(const world::VirtualWorld &world, const RenderOptions &opts,
             int width, const RowBuffers &rows, Rgb *out)
{
    // The sky color of the last sky pixel's dirY. NaN matches nothing,
    // so the first sky pixel computes it; dirY values that compare
    // equal but differ in bits are only +0 and -0, whose clamped
    // pitch is +0 either way.
    double skyDirY = std::numeric_limits<double>::quiet_NaN();
    Rgb sky{};
    for (int x = 0; x < width; ++x) {
        const auto i = static_cast<std::size_t>(x);
        switch (rows.kind[i]) {
        case PixelKind::Object:
        case PixelKind::Terrain:
            out[x] = applyLight(rows.base[i], rows.light[i]);
            break;
        case PixelKind::ClipKey:
            out[x] = opts.clipKey;
            break;
        case PixelKind::Sky:
            if (!(rows.dirY[i] == skyDirY)) {
                skyDirY = rows.dirY[i];
                const double pitch =
                    std::asin(std::clamp(skyDirY, -1.0, 1.0));
                sky = world.skyColor(std::max(0.0, pitch));
            }
            out[x] = sky;
            break;
        }
    }
}

} // namespace coterie::render::detail
