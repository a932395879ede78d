#include "core/cutoff.hh"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hh"
#include "render/cost_model.hh"
#include "support/logging.hh"

namespace coterie::core {

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

    const double diag = std::hypot(world.bounds().width(),
                                   world.bounds().height());
    const double hi_limit = std::min(constraint.maxRadius, diag);

    // Fetch the object set once for the whole search: every probe below
    // replays the cached per-object terms instead of re-running the BVH
    // disc query (the dominant cost of a probe), bit-identical to the
    // uncached nearBeRenderTimeMs.
    const render::LocationCostCache cost(world, location, hi_limit,
                                         profile.cost);
    int probes = 0;
    const auto timeAtMs = [&](double cutoff) {
        ++probes;
        return cost.renderTimeMs(0.0, cutoff);
    };
    // One counter update per search, not per probe: the pool's tasks
    // would contend on the shared counter a dozen times a search.
    const auto countProbes = [&] {
        COTERIE_COUNT_N("cost.location_cache_queries", probes);
    };

    if (timeAtMs(constraint.minRadius) >= budget) {
        countProbes();
        return constraint.minRadius;
    }
    if (timeAtMs(hi_limit) < budget) {
        countProbes();
        return hi_limit;
    }

    double lo = constraint.minRadius; // satisfies the constraint
    double hi = hi_limit;             // violates the constraint
    int iterations = 0;
    while (hi - lo > tolerance) {
        const double mid = 0.5 * (lo + hi);
        if (timeAtMs(mid) < budget)
            lo = mid;
        else
            hi = mid;
        ++iterations;
    }
    countProbes();
    COTERIE_COUNT("cutoff.searches");
    COTERIE_OBSERVE("cutoff.search_iterations", iterations);
    return lo;
}

} // namespace coterie::core
