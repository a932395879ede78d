#include "core/cutoff.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.hh"
#include "render/cost_model.hh"
#include "support/logging.hh"

namespace coterie::core {

namespace {

/**
 * Relative margin by which a ladder rung's near-BE time must clear the
 * budget before every probe above the rung is answered "violates"
 * without a sum. The skip is exact, with no assumption that the summed
 * time is monotone in floating point. Write B for the budget, T^(r) for
 * the double `nearBeRenderTimeMs(.., r, ..)` returns and T(r) for the
 * same formula in exact arithmetic, over the same per-object double
 * terms and the same membership test (footprint distance² <= r², with
 * r² rounded monotonically).
 * - T never decreases in r: membership only grows, each term
 *   `triangles * lodWeight(d)` is >= 0, the terrain integral grows with
 *   min(r, cull, reach), and the saturation E / (1 + E/S) and the
 *   affine time map are increasing.
 * - T^ is within a relative error k of T. Recursive summation of n
 *   non-negative terms contributes at most n·2^-53; the terrain log,
 *   the saturation and the time map add a few roundings more. With
 *   fewer than 2^20 objects (asserted below), k < 2e-10.
 * - So T^(R) >= B·(1 + kMargin) gives, for every r >= R,
 *   T^(r) >= T(r)·(1 - k) >= T(R)·(1 - k) >= T^(R)·(1 - k)/(1 + k) > B,
 *   and the full search would also have answered "violates" at r.
 * A rung inside [B, B·(1 + kMargin)) certifies nothing: the ladder
 * climbs on. Sums are never compared with each other, only with the
 * budget, through a margin some 5000 times the worst rounding error.
 */
constexpr double kLadderMargin = 1e-6;

} // namespace

double
nearBeRenderTimeMs(const world::VirtualWorld &world, geom::Vec2 location,
                   double cutoff, const device::PhoneProfile &profile)
{
    return render::renderTimeMs(world, location, 0.0, cutoff, profile.cost);
}

double
maxCutoffRadius(const world::VirtualWorld &world, geom::Vec2 location,
                const device::PhoneProfile &profile,
                const CutoffConstraint &constraint, double tolerance)
{
    const double budget = constraint.nearBudgetMs();
    COTERIE_ASSERT(budget > 0.0, "FI render time exceeds frame budget");
    COTERIE_ASSERT(world.objects().size() < (1u << 20),
                   "the ladder's rounding bound needs under 2^20 objects");

    const double diag = std::hypot(world.bounds().width(),
                                   world.bounds().height());
    const double hi_limit = std::min(constraint.maxRadius, diag);
    COTERIE_ASSERT(constraint.minRadius > 0.0 &&
                       constraint.minRadius <= hi_limit,
                   "cutoff floor ", constraint.minRadius,
                   " must be positive and within the search ceiling ",
                   hi_limit);

    // Render-time sums of this search, added to the counter once: the
    // pool's tasks would contend on it a dozen times a search.
    int sums = 0;
    const auto sumAt = [&](double cutoff) {
        ++sums;
        return nearBeRenderTimeMs(world, location, cutoff, profile);
    };
    const auto done = [&](double radius) {
        COTERIE_COUNT_N("cutoff.radius_sums", sums);
        return radius;
    };

    // The floor is the search's first probe and the ladder's first rung.
    const double floor_ms = sumAt(constraint.minRadius);
    if (floor_ms >= budget)
        return done(constraint.minRadius);

    // Climb minRadius, 2·minRadius, ... (capped at hi_limit) to the
    // first rung that clears the budget by kLadderMargin; every probe
    // above it violates (see kLadderMargin).
    const double certify = budget * (1.0 + kLadderMargin);
    double rung = constraint.minRadius;
    double rung_ms = floor_ms;
    while (rung_ms < certify && rung < hi_limit) {
        rung = std::min(2.0 * rung, hi_limit);
        rung_ms = sumAt(rung);
    }
    const double skip_above = rung_ms >= certify
                                  ? rung
                                  : std::numeric_limits<double>::infinity();
    const auto timeAtMs = [&](double cutoff) {
        if (cutoff > skip_above)
            return std::numeric_limits<double>::infinity();
        return cutoff == rung ? rung_ms : sumAt(cutoff);
    };

    if (timeAtMs(hi_limit) < budget)
        return done(hi_limit);

    double lo = constraint.minRadius; // satisfies the constraint
    double hi = hi_limit;             // violates the constraint
    while (hi - lo > tolerance) {
        const double mid = 0.5 * (lo + hi);
        if (timeAtMs(mid) < budget)
            lo = mid;
        else
            hi = mid;
    }
    return done(lo);
}

} // namespace coterie::core
