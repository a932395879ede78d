/**
 * @file
 * Near/far BE cutoff-radius computation (paper §4.3).
 *
 * Constraint 1: RT_FI + RT_nearBE < 16.7 ms. For a given location the
 * maximal cutoff radius is the largest radius whose near-BE render time
 * on the target device still meets the constraint; render time is
 * monotone in the radius, so a bracketed binary search suffices.
 */

#pragma once

#include "device/phone.hh"
#include "world/world.hh"

namespace coterie::core {

/** Constraint-1 budget parameters. */
struct CutoffConstraint
{
    double frameBudgetMs = 1000.0 / 60.0; ///< 16.7 ms for 60 FPS
    /**
     * Measured upper bound on FI render time for the app on the target
     * device (paper: well below 4 ms on Pixel 2 for the study apps).
     */
    double rtFiMs = 4.0;
    /** Smallest cutoff ever returned (a degenerate near BE). */
    double minRadius = 0.5;
    /** Search ceiling; clamped further by the world diagonal. */
    double maxRadius = 180.0;

    /**
     * Fraction of the remaining budget the offline tool actually
     * targets. A production deployment leaves headroom for render-time
     * jitter (the paper's measured Coterie GPU load of 39-58% implies
     * the same margin).
     */
    double utilizationTarget = 0.65;

    /** Near-BE render budget: (16.7 - RT_FI) * margin (Equation 1). */
    double
    nearBudgetMs() const
    {
        return (frameBudgetMs - rtFiMs) * utilizationTarget;
    }
};

/** Near-BE render time at @p location with @p cutoff (Constraint 1 LHS). */
double nearBeRenderTimeMs(const world::VirtualWorld &world,
                          geom::Vec2 location, double cutoff,
                          const device::PhoneProfile &profile);

/**
 * Largest cutoff radius at @p location satisfying Constraint 1 on
 * @p profile; binary search to within @p tolerance meters. A radius
 * ladder ahead of the search answers probes above its certified rung
 * without a sum, and the result is bit-identical to summing every
 * probe. Panics unless 0 < minRadius <= min(maxRadius, world diagonal).
 */
double maxCutoffRadius(const world::VirtualWorld &world, geom::Vec2 location,
                       const device::PhoneProfile &profile,
                       const CutoffConstraint &constraint = {},
                       double tolerance = 0.25);

} // namespace coterie::core

