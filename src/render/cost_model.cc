#include "render/cost_model.hh"

#include <algorithm>
#include <cmath>

namespace coterie::render {

using geom::Vec2;

namespace {

double
lodWeight(double distance, const CostModelParams &params)
{
    const double ratio = distance / params.lodDistance;
    return 1.0 / (1.0 + ratio * ratio);
}

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

/**
 * Terrain triangles in the annulus with LOD falloff:
 * integral of 2*pi*r * rho * w(r) dr over [rMin, rMax]
 *   = pi * rho * lod^2 * ln((1 + (rMax/lod)^2) / (1 + (rMin/lod)^2)).
 */
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
        // allocation.
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

} // namespace coterie::render
