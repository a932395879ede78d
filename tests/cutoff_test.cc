/**
 * @file
 * Tests for Constraint 1 and the per-location maximal cutoff search:
 * the returned radius satisfies the budget, is maximal up to the search
 * tolerance, shrinks with object density, and respects bounds.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/cutoff.hh"
#include "support/rng.hh"
#include "world/gen/track.hh"
#include "world/gen/generators.hh"

namespace coterie::core {
namespace {

using geom::Vec2;
using world::gen::GameId;
using world::gen::makeWorld;

TEST(CutoffConstraint, BudgetArithmetic)
{
    CutoffConstraint c;
    c.frameBudgetMs = 16.7;
    c.rtFiMs = 4.0;
    c.utilizationTarget = 1.0;
    EXPECT_NEAR(c.nearBudgetMs(), 12.7, 1e-9);
    c.utilizationTarget = 0.5;
    EXPECT_NEAR(c.nearBudgetMs(), 6.35, 1e-9);
}

TEST(Cutoff, ReturnedRadiusSatisfiesConstraint)
{
    const auto world = makeWorld(GameId::Viking, 42);
    const auto &profile = device::pixel2();
    const CutoffConstraint constraint;
    for (const Vec2 eye :
         {world.bounds().center(), world.bounds().center() + Vec2{30, 15},
          Vec2{10.0, 10.0}}) {
        const double radius =
            maxCutoffRadius(world, eye, profile, constraint);
        EXPECT_LT(nearBeRenderTimeMs(world, eye, radius, profile),
                  constraint.nearBudgetMs());
    }
}

TEST(Cutoff, RadiusIsMaximalUpToTolerance)
{
    const auto world = makeWorld(GameId::Viking, 42);
    const auto &profile = device::pixel2();
    const CutoffConstraint constraint;
    const Vec2 eye = world.bounds().center() + Vec2{12.0, 7.0};
    const double radius =
        maxCutoffRadius(world, eye, profile, constraint, 0.1);
    if (radius < constraint.maxRadius - 1.0) {
        // One tolerance step further must violate (or be borderline).
        EXPECT_GE(nearBeRenderTimeMs(world, eye, radius + 0.3, profile),
                  constraint.nearBudgetMs() * 0.97);
    }
}

TEST(Cutoff, DenseMarketSmallerThanOutskirts)
{
    const auto world = makeWorld(GameId::Viking, 42);
    const auto &profile = device::pixel2();
    const double market =
        maxCutoffRadius(world, world.bounds().center(), profile);
    const double outskirts =
        maxCutoffRadius(world, Vec2{8.0, 8.0}, profile);
    EXPECT_LT(market, outskirts);
    // Figure 8: the market square anchors the ~2 m bins.
    EXPECT_LT(market, 8.0);
}

TEST(Cutoff, SparseTrackWorldReachesLargeRadii)
{
    const auto world = makeWorld(GameId::Racing, 42);
    const auto &profile = device::pixel2();
    // Sample along the track (the reachable corridor): stretches far
    // from the forest and the mountains allow very large radii.
    world::gen::Track track(world.bounds(),
                            world.terrain().params().seed);
    double best = 0.0;
    for (double s = 0.0; s < track.length(); s += track.length() / 24) {
        best = std::max(
            best, maxCutoffRadius(world, track.pointAt(s), profile));
    }
    // Figure 7: Racing Mountain cutoffs spread up to ~180 m; in our
    // world the off-track mountain field caps the corridor maximum
    // slightly lower (see EXPERIMENTS.md).
    EXPECT_GT(best, 75.0);
}

TEST(Cutoff, RespectsMaxRadiusCeiling)
{
    const auto world = makeWorld(GameId::Racing, 42);
    const auto &profile = device::pixel2();
    CutoffConstraint constraint;
    constraint.maxRadius = 25.0;
    for (double x = 100; x < 900; x += 200) {
        EXPECT_LE(maxCutoffRadius(world, Vec2{x, 500.0}, profile,
                                  constraint),
                  25.0 + 1e-9);
    }
}

TEST(Cutoff, MinRadiusFloorInImpossiblyDenseSpot)
{
    const auto world = makeWorld(GameId::Viking, 42);
    const auto &profile = device::pixel2();
    CutoffConstraint constraint;
    // Make the budget absurdly small: even the minimum radius violates,
    // and the floor is returned.
    constraint.rtFiMs = 16.0;
    constraint.utilizationTarget = 0.2;
    const double radius = maxCutoffRadius(
        world, world.bounds().center(), profile, constraint);
    EXPECT_DOUBLE_EQ(radius, constraint.minRadius);
}

TEST(Cutoff, TighterBudgetShrinksRadius)
{
    const auto world = makeWorld(GameId::CTS, 42);
    const auto &profile = device::pixel2();
    CutoffConstraint generous;
    CutoffConstraint tight;
    tight.rtFiMs = 10.0;
    const Vec2 eye = world.bounds().center();
    EXPECT_LE(maxCutoffRadius(world, eye, profile, tight),
              maxCutoffRadius(world, eye, profile, generous));
}

/**
 * The binary search with every probe summed by nearBeRenderTimeMs: the
 * same probe sequence, tolerance and return value as maxCutoffRadius,
 * without its radius ladder.
 */
double
fullSearch(const world::VirtualWorld &world, Vec2 eye,
           const device::PhoneProfile &profile,
           const CutoffConstraint &constraint, double tolerance)
{
    const double budget = constraint.nearBudgetMs();
    const double hi_limit =
        std::min(constraint.maxRadius, std::hypot(world.bounds().width(),
                                                  world.bounds().height()));
    const auto timeAtMs = [&](double cutoff) {
        return nearBeRenderTimeMs(world, eye, cutoff, profile);
    };
    if (timeAtMs(constraint.minRadius) >= budget)
        return constraint.minRadius;
    if (timeAtMs(hi_limit) < budget)
        return hi_limit;
    double lo = constraint.minRadius;
    double hi = hi_limit;
    while (hi - lo > tolerance) {
        const double mid = 0.5 * (lo + hi);
        if (timeAtMs(mid) < budget)
            lo = mid;
        else
            hi = mid;
    }
    return lo;
}

/**
 * maxCutoffRadius against the full search, bit for bit, on every game:
 * eyes over each world and up to 5 m beyond it, a grid of constraints,
 * and budgets placed on the ladder's rungs, at and around the certifying
 * margin's edges (budget = T(rung) / (1 + x)).
 */
TEST(Cutoff, LadderMatchesFullSearch)
{
    constexpr int kEyesPerGame = 36;
    const auto &profile = device::pixel2();
    const double kTolerances[] = {0.1, 0.25, 1.0};
    const double kMaxRadii[] = {40.0, 180.0, 1000.0};
    for (const world::gen::GameInfo &info : world::gen::allGames()) {
        const auto world = makeWorld(info.id, 42);
        const geom::Rect &b = world.bounds();
        const double diag = std::hypot(b.width(), b.height());
        Rng rng(0x1add + static_cast<std::uint64_t>(info.id));
        for (int e = 0; e < kEyesPerGame; ++e) {
            const Vec2 eye{rng.uniform(b.lo.x - 5.0, b.hi.x + 5.0),
                           rng.uniform(b.lo.y - 5.0, b.hi.y + 5.0)};
            const auto same = [&](const CutoffConstraint &c,
                                  double tolerance)
                -> ::testing::AssertionResult {
                const double got =
                    maxCutoffRadius(world, eye, profile, c, tolerance);
                const double want =
                    fullSearch(world, eye, profile, c, tolerance);
                if (got == want)
                    return ::testing::AssertionSuccess();
                return ::testing::AssertionFailure()
                       << world.name() << " eye " << eye.x << "," << eye.y
                       << " budget " << c.nearBudgetMs() << " maxRadius "
                       << c.maxRadius << " tolerance " << tolerance
                       << ": ladder " << got << ", full search " << want;
            };
            for (const double util : {0.3, 0.65, 0.9, 1.0}) {
                for (const double maxRadius : kMaxRadii) {
                    for (const double rtFi : {2.0, 4.0, 9.0}) {
                        for (const double tolerance : kTolerances) {
                            CutoffConstraint c;
                            c.utilizationTarget = util;
                            c.maxRadius = maxRadius;
                            c.rtFiMs = rtFi;
                            ASSERT_TRUE(same(c, tolerance));
                        }
                    }
                }
            }
            // With rtFiMs 0 and utilization 1 the budget is exactly
            // frameBudgetMs.
            const double tolerance = kTolerances[e % 3];
            for (const double maxRadius : kMaxRadii) {
                const double ceiling = std::min(maxRadius, diag);
                std::vector<double> rungs;
                for (double r = 0.5; r < ceiling; r *= 2.0)
                    rungs.push_back(r);
                rungs.push_back(ceiling);
                for (const double r : rungs) {
                    const double t =
                        nearBeRenderTimeMs(world, eye, r, profile);
                    for (const double x :
                         {-1e-6, -1e-9, 0.0, 1e-9, 5e-7, 1e-6, 2e-6}) {
                        CutoffConstraint c;
                        c.rtFiMs = 0.0;
                        c.utilizationTarget = 1.0;
                        c.maxRadius = maxRadius;
                        c.frameBudgetMs = t / (1.0 + x);
                        ASSERT_TRUE(same(c, tolerance));
                    }
                }
            }
        }
    }
}

TEST(CutoffDeath, ImpossibleBudgetPanics)
{
    const auto world = makeWorld(GameId::Pool, 42);
    CutoffConstraint constraint;
    constraint.rtFiMs = 20.0; // exceeds the whole frame budget
    EXPECT_DEATH(maxCutoffRadius(world, world.bounds().center(),
                                 device::pixel2(), constraint),
                 "budget");
}

TEST(CutoffDeath, CeilingBelowFloorPanics)
{
    const auto world = makeWorld(GameId::Pool, 42);
    CutoffConstraint constraint;
    constraint.maxRadius = 0.3; // below the 0.5 m floor
    EXPECT_DEATH(maxCutoffRadius(world, world.bounds().center(),
                                 device::pixel2(), constraint),
                 "0\\.5.*0\\.3");
}

} // namespace
} // namespace coterie::core
