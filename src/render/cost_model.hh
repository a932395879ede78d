/**
 * @file
 * Device render-cost model.
 *
 * The paper's Constraint 1 is an analytic statement: the mobile render
 * time of FI plus near BE, which is proportional to triangle count
 * (their ref [1]), must stay below 16.7 ms - RT_FI. We model render
 * time as base + ns/triangle * effective triangles, where effective
 * triangles apply a distance LOD falloff exactly as a production engine
 * would, and terrain tessellation contributes per covered area.
 * Constants are calibrated once against Table 1 (see device/phone.hh)
 * and reused for every experiment.
 */

#pragma once

#include <vector>

#include "world/world.hh"

namespace coterie::render {

/** Parameters of the triangle-throughput model. */
struct CostModelParams
{
    /** Nanoseconds of GPU time per effective triangle. */
    double nsPerTriangle = 50.0;
    /** Fixed per-frame cost (driver, setup, compose) in ms. */
    double baseMs = 1.0;
    /** LOD reference distance: at distance d, an object renders
     *  triangles * 1 / (1 + (d/lodDistance)^2). */
    double lodDistance = 25.0;
    /** Distance beyond which objects contribute nothing (engine cull). */
    double cullDistance = 600.0;
    /**
     * Engine LOD saturation: total effective triangles are compressed
     * as E / (1 + E / saturation) — a production engine keeps the
     * frame triangle budget roughly constant on huge scenes by
     * dropping LOD levels globally.
     */
    double saturationTriangles = 0.85e6;
};

/**
 * Effective triangle count seen from @p eye when rendering the depth
 * annulus [rMin, rMax] of the world (0, inf = whole scene).
 */
double effectiveTriangles(const world::VirtualWorld &world, geom::Vec2 eye,
                          double rMin, double rMax,
                          const CostModelParams &params = {});

/** Render time in ms for that annulus on a device with @p params. */
double renderTimeMs(const world::VirtualWorld &world, geom::Vec2 eye,
                    double rMin, double rMax,
                    const CostModelParams &params = {});

/**
 * Memoized cost queries for one eye location.
 *
 * The cutoff binary search evaluates `renderTimeMs` at the same
 * location a dozen times with different radii; the free function
 * re-runs the BVH disc query from scratch on every call. This cache
 * fetches the object set once (at the largest radius the search can
 * reach), with each object's LOD term evaluated once, and replays the
 * terms bit-identical to the uncached path for any rMax <= maxRadius:
 * - membership uses the exact footprint-distance test of
 *   `Bvh::queryDisc`, and the cache keeps its visiting order, which a
 *   smaller disc's query shares (the nesting property in bvh.hh);
 * - each term is the product the free function computes;
 * - a probe skips whole blocks of kBlock cached objects whose nearest
 *   footprint lies outside its disc, and adds +0.0 in place of every
 *   other object it leaves out, which leaves the non-negative running
 *   total unchanged bit for bit.
 *
 * Thread-compatibility contract (checked by the clang thread-safety
 * build, see support/thread_annotations.hh): all state is written in
 * the constructor and immutable afterwards, so no member needs a
 * COTERIE_GUARDED_BY — the partitioner constructs one instance per
 * pool task and never shares it across tasks. Any future mutable
 * memoization added here must bring its own annotated Mutex.
 */
class LocationCostCache
{
  public:
    LocationCostCache(const world::VirtualWorld &world, geom::Vec2 eye,
                      double maxRadius, const CostModelParams &params = {});

    /** Same value as the free `effectiveTriangles` (rMax <= maxRadius). */
    double effectiveTriangles(double rMin, double rMax) const;

    /** Same value as the free `renderTimeMs` (rMax <= maxRadius). */
    double renderTimeMs(double rMin, double rMax) const;

  private:
    /** Cached objects per skippable block (consecutive in BVH order). */
    static constexpr std::size_t kBlock = 16;

    struct CachedObject
    {
        double footprintDistSq; ///< queryDisc's AABB-footprint metric
        double centerDist;      ///< distance used by the LOD falloff
        double term;            ///< triangles * lodWeight(centerDist)
    };

    const world::VirtualWorld &world_;
    geom::Vec2 eye_;
    double maxRadius_;
    CostModelParams params_;
    std::vector<CachedObject> objects_; ///< in BVH traversal order
    /** Smallest footprintDistSq of each kBlock-object run of objects_. */
    std::vector<double> blockMinDistSq_;
};

} // namespace coterie::render

