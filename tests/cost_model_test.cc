/**
 * @file
 * Tests for the render-cost model: monotonicity in the depth annulus,
 * LOD falloff, saturation behaviour, world-bounded terrain reach, and
 * the near/far layer split adding up.
 */

#include <gtest/gtest.h>

#include "render/cost_model.hh"
#include "world/gen/generators.hh"

namespace coterie::render {
namespace {

using geom::Vec2;
using world::gen::GameId;
using world::gen::makeWorld;

TEST(CostModel, MonotoneInOuterRadius)
{
    const auto world = makeWorld(GameId::Viking, 42);
    const Vec2 eye = world.bounds().center();
    double prev = 0.0;
    for (double r : {1.0, 4.0, 16.0, 64.0, 200.0}) {
        const double tris = effectiveTriangles(world, eye, 0.0, r);
        EXPECT_GE(tris, prev) << "r=" << r;
        prev = tris;
    }
}

TEST(CostModel, RenderTimeIncludesBaseCost)
{
    const auto world = makeWorld(GameId::Pool, 42);
    CostModelParams params;
    const double rt =
        renderTimeMs(world, world.bounds().center(), 0.0, 0.01, params);
    EXPECT_GE(rt, params.baseMs);
}

TEST(CostModel, DenseLocationCostsMoreThanSparse)
{
    const auto world = makeWorld(GameId::Viking, 42);
    // Market square (center) vs a corner.
    const double dense = effectiveTriangles(
        world, world.bounds().center(), 0.0, 10.0);
    const double sparse = effectiveTriangles(
        world, world.bounds().lo + Vec2{3.0, 3.0}, 0.0, 10.0);
    EXPECT_GT(dense, sparse * 1.5);
}

TEST(CostModel, LodReducesDistantContribution)
{
    const auto world = makeWorld(GameId::CTS, 42);
    const Vec2 eye = world.bounds().center();
    CostModelParams strong;
    strong.lodDistance = 10.0;
    strong.saturationTriangles = 0.0; // isolate LOD
    CostModelParams weak;
    weak.lodDistance = 100.0;
    weak.saturationTriangles = 0.0;
    EXPECT_LT(effectiveTriangles(world, eye, 0.0, 400.0, strong),
              effectiveTriangles(world, eye, 0.0, 400.0, weak));
}

TEST(CostModel, SaturationCompressesHugeScenes)
{
    const auto world = makeWorld(GameId::CTS, 42);
    const Vec2 eye = world.bounds().center();
    CostModelParams unsat;
    unsat.saturationTriangles = 0.0;
    CostModelParams sat;
    const double raw = effectiveTriangles(world, eye, 0.0, 600.0, unsat);
    const double compressed =
        effectiveTriangles(world, eye, 0.0, 600.0, sat);
    EXPECT_LT(compressed, raw);
    EXPECT_LT(compressed, sat.saturationTriangles);
}

TEST(CostModel, AnnulusSplitApproximatelyAdditiveBeforeSaturation)
{
    const auto world = makeWorld(GameId::Viking, 42);
    const Vec2 eye = world.bounds().center() + Vec2{20.0, 10.0};
    CostModelParams params;
    params.saturationTriangles = 0.0; // additivity holds pre-saturation
    const double cutoff = 8.0;
    const double near_tris =
        effectiveTriangles(world, eye, 0.0, cutoff, params);
    const double far_tris =
        effectiveTriangles(world, eye, cutoff, 600.0, params);
    const double whole =
        effectiveTriangles(world, eye, 0.0, 600.0, params);
    // Objects are binned by footprint distance, so the two layers
    // partition the whole (terrain integral is exactly additive).
    EXPECT_NEAR(near_tris + far_tris, whole, whole * 0.02);
}

TEST(CostModel, TerrainReachClampedByWorldBounds)
{
    // A small world's terrain cannot contribute as if it were endless:
    // cost from the world center must exceed cost from a corner-facing
    // view of... rather: the same params on a tiny world yield less
    // terrain cost than on a huge world.
    const auto small = makeWorld(GameId::Pool, 42);     // 10x13
    const auto big = makeWorld(GameId::Bowling, 42);    // 34x41
    CostModelParams params;
    params.saturationTriangles = 0.0;
    // Compare pure-terrain annuli well beyond both worlds' objects: use
    // the far band where only terrain remains.
    const double small_far = effectiveTriangles(
        small, small.bounds().center(), 60.0, 600.0, params);
    const double big_far = effectiveTriangles(
        big, big.bounds().center(), 60.0, 600.0, params);
    EXPECT_DOUBLE_EQ(small_far, 0.0); // nothing beyond a 10x13 room
    EXPECT_DOUBLE_EQ(big_far, 0.0);
    const double small_mid = effectiveTriangles(
        small, small.bounds().center(), 0.0, 600.0, params);
    const double big_mid = effectiveTriangles(
        big, big.bounds().center(), 0.0, 600.0, params);
    EXPECT_GT(big_mid, small_mid);
}

TEST(CostModel, MobileWholeSceneInPaperRegime)
{
    // Table 1 Mobile rows: the three evaluation games render their
    // whole scene in ~30-55 ms on the device (21-27 FPS), far above
    // the 16.7 ms budget.
    for (GameId id :
         {GameId::Viking, GameId::CTS, GameId::Racing}) {
        const auto world = makeWorld(id, 42);
        const Vec2 eye = world.bounds().center() +
                         Vec2{world.bounds().width() * 0.1, 0.0};
        const double rt = renderTimeMs(world, eye, 0.0, 600.0, {});
        EXPECT_GT(rt, 16.7) << world.name();
        EXPECT_LT(rt, 80.0) << world.name();
    }
}

} // namespace
} // namespace coterie::render
