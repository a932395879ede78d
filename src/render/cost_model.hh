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

} // namespace coterie::render

