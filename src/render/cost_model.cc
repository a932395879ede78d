#include "render/cost_model.hh"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hh"
#include "support/logging.hh"
#include "world/bvh.hh"

namespace coterie::render {

using geom::Vec2;

namespace {

double
lodWeight(double distance, const CostModelParams &params)
{
    const double ratio = distance / params.lodDistance;
    return 1.0 / (1.0 + ratio * ratio);
}

/**
 * Terrain triangles in the annulus with LOD falloff:
 * integral of 2*pi*r * rho * w(r) dr over [rMin, rMax]
 *   = pi * rho * lod^2 * ln((1 + (rMax/lod)^2) / (1 + (rMin/lod)^2)).
 */
/** Distance from @p eye to the farthest corner of the world bounds —
 *  terrain does not extend past the world, so neither does its cost. */
double
worldReach(const world::VirtualWorld &world, Vec2 eye)
{
    const geom::Rect &b = world.bounds();
    double reach = 0.0;
    for (const Vec2 corner : {b.lo, b.hi, Vec2{b.lo.x, b.hi.y},
                              Vec2{b.hi.x, b.lo.y}}) {
        reach = std::max(reach, eye.distance(corner));
    }
    return reach;
}

double
terrainEffectiveTriangles(const world::VirtualWorld &world, Vec2 eye,
                          double rMin, double rMax,
                          const CostModelParams &params)
{
    const double rho = world.terrain().params().trianglesPerM2;
    const double lod = params.lodDistance;
    const double hi =
        std::min({rMax, params.cullDistance, worldReach(world, eye)});
    if (hi <= rMin)
        return 0.0;
    const double a = 1.0 + (hi / lod) * (hi / lod);
    const double b = 1.0 + (rMin / lod) * (rMin / lod);
    return M_PI * rho * lod * lod * std::log(a / b);
}

} // namespace

double
effectiveTriangles(const world::VirtualWorld &world, Vec2 eye, double rMin,
                   double rMax, const CostModelParams &params)
{
    const double reach = std::min(rMax, params.cullDistance);
    double total =
        terrainEffectiveTriangles(world, eye, rMin, rMax, params);
    if (reach > rMin) {
        // Callback disc query: BVH traversal order, no id-vector
        // allocation. LocationCostCache replays the same order, which
        // is what keeps the two paths bit-identical.
        world.forEachObjectWithin(eye, reach, [&](std::uint32_t id) {
            const world::WorldObject &obj = world.object(id);
            const double d = obj.footprint().distance(eye);
            if (d < rMin)
                return; // belongs to the inner layer
            total += obj.triangles * lodWeight(d, params);
        });
    }
    // Global LOD saturation (see CostModelParams::saturationTriangles).
    if (params.saturationTriangles > 0.0)
        total = total / (1.0 + total / params.saturationTriangles);
    return total;
}

double
renderTimeMs(const world::VirtualWorld &world, Vec2 eye, double rMin,
             double rMax, const CostModelParams &params)
{
    const double tris = effectiveTriangles(world, eye, rMin, rMax, params);
    return params.baseMs + tris * params.nsPerTriangle * 1e-6;
}

LocationCostCache::LocationCostCache(const world::VirtualWorld &world,
                                     Vec2 eye, double maxRadius,
                                     const CostModelParams &params)
    : world_(world), eye_(eye), maxRadius_(maxRadius), params_(params)
{
    COTERIE_COUNT("cost.location_cache_builds");
    const double maxReach = std::min(maxRadius, params.cullDistance);
    if (maxReach <= 0.0)
        return;
    // Cached in BVH traversal order: replaying objects_ in this order
    // keeps effectiveTriangles() bit-identical to the uncached free
    // function, which sums a smaller disc's objects in the same order.
    world.bvh().queryDiscDistSq(
        eye, maxReach, [&](std::uint32_t id, double distSq) {
            const world::WorldObject &obj = world.object(id);
            const double centerDist = obj.footprint().distance(eye);
            objects_.push_back({distSq, centerDist,
                                obj.triangles *
                                    lodWeight(centerDist, params)});
        });
    blockMinDistSq_.reserve((objects_.size() + kBlock - 1) / kBlock);
    for (std::size_t i = 0; i < objects_.size(); i += kBlock) {
        const std::size_t end = std::min(objects_.size(), i + kBlock);
        double lo = objects_[i].footprintDistSq;
        for (std::size_t j = i + 1; j < end; ++j)
            lo = std::min(lo, objects_[j].footprintDistSq);
        blockMinDistSq_.push_back(lo);
    }
}

double
LocationCostCache::effectiveTriangles(double rMin, double rMax) const
{
    COTERIE_ASSERT(rMax <= maxRadius_, "probe radius ", rMax,
                   " beyond the cached ", maxRadius_);
    const double reach = std::min(rMax, params_.cullDistance);
    double total =
        terrainEffectiveTriangles(world_, eye_, rMin, rMax, params_);
    if (reach > rMin) {
        const double r2 = reach * reach;
        for (std::size_t b = 0; b < blockMinDistSq_.size(); ++b) {
            if (blockMinDistSq_[b] > r2)
                continue; // the whole block lies outside this disc
            const std::size_t end =
                std::min(objects_.size(), (b + 1) * kBlock);
            for (std::size_t i = b * kBlock; i < end; ++i) {
                const CachedObject &obj = objects_[i];
                // Outside the disc, or in the inner layer: add +0.0.
                const bool in =
                    obj.footprintDistSq <= r2 && obj.centerDist >= rMin;
                total += in ? obj.term : 0.0;
            }
        }
    }
    if (params_.saturationTriangles > 0.0)
        total = total / (1.0 + total / params_.saturationTriangles);
    return total;
}

double
LocationCostCache::renderTimeMs(double rMin, double rMax) const
{
    const double tris = effectiveTriangles(rMin, rMax);
    return params_.baseMs + tris * params_.nsPerTriangle * 1e-6;
}

} // namespace coterie::render
