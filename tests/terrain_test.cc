/**
 * @file
 * Tests for the procedural terrain: determinism, continuity, flat
 * floors, ray-march/heightfield consistency, and the foothold query
 * used to place the player camera.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "reference_render.hh"
#include "support/rng.hh"
#include "world/terrain.hh"

namespace coterie::world {
namespace {

using geom::Ray;
using geom::Vec2;
using geom::Vec3;

TEST(Terrain, DeterministicInSeed)
{
    TerrainParams p;
    p.seed = 77;
    Terrain a(p), b(p);
    for (double x = 0; x < 50; x += 7.3)
        EXPECT_DOUBLE_EQ(a.heightAt({x, x * 2}), b.heightAt({x, x * 2}));
    p.seed = 78;
    Terrain c(p);
    bool differs = false;
    for (double x = 0; x < 50; x += 7.3)
        differs |= a.heightAt({x, x}) != c.heightAt({x, x});
    EXPECT_TRUE(differs);
}

TEST(Terrain, HeightBoundedByAmplitude)
{
    TerrainParams p;
    p.amplitude = 3.0;
    Terrain t(p);
    for (double x = -100; x < 100; x += 3.7)
        for (double y = -100; y < 100; y += 11.1)
            EXPECT_LE(std::abs(t.heightAt({x, y})), p.amplitude + 1e-9);
}

TEST(Terrain, Continuity)
{
    Terrain t{TerrainParams{}};
    const double h0 = t.heightAt({10.0, 10.0});
    const double h1 = t.heightAt({10.001, 10.0});
    EXPECT_NEAR(h0, h1, 0.01);
}

TEST(Terrain, FlatFloorIsZero)
{
    TerrainParams p;
    p.flat = true;
    Terrain t(p);
    EXPECT_DOUBLE_EQ(t.heightAt({12.3, -4.5}), 0.0);
    EXPECT_EQ(t.normalAt({1, 1}), Vec3(0.0, 1.0, 0.0));
}

TEST(Terrain, FootholdEqualsHeight)
{
    Terrain t{TerrainParams{}};
    const Vec2 p{31.0, 8.0};
    EXPECT_DOUBLE_EQ(t.foothold(p), t.heightAt(p));
}

TEST(Terrain, NormalIsUnitAndUpish)
{
    Terrain t{TerrainParams{}};
    for (double x = 0; x < 60; x += 13.7) {
        const Vec3 n = t.normalAt({x, 2 * x});
        EXPECT_NEAR(n.length(), 1.0, 1e-9);
        EXPECT_GT(n.y, 0.5); // gentle terrain: mostly up
    }
}

TEST(Terrain, DownwardRayHitsSurfaceAtHeight)
{
    Terrain t{TerrainParams{}};
    const Vec2 ground{25.0, 40.0};
    Ray ray;
    ray.origin = geom::lift(ground, 50.0);
    ray.dir = {0.0, -1.0, 0.0};
    const auto hit = t.intersect(ray, 1000.0);
    ASSERT_TRUE(hit.has_value());
    const Vec3 p = ray.at(*hit);
    EXPECT_NEAR(p.y, t.heightAt(p.ground()), 0.05);
}

TEST(Terrain, UpwardRayEscapes)
{
    Terrain t{TerrainParams{}};
    Ray ray;
    ray.origin = {10.0, 10.0, 10.0};
    ray.dir = Vec3{0.1, 1.0, 0.1}.normalized();
    EXPECT_FALSE(t.intersect(ray, 1000.0).has_value());
}

TEST(Terrain, RayStartingBelowSurfaceIsClippedOut)
{
    Terrain t{TerrainParams{}};
    Ray ray;
    // Start well below any terrain and look horizontally: the clipped
    // start is below ground, which the renderer treats as "clipped".
    ray.origin = {10.0, -50.0, 10.0};
    ray.dir = {1.0, 0.0, 0.0};
    EXPECT_FALSE(t.intersect(ray, 200.0).has_value());
}

TEST(Terrain, FlatFloorRayIntersection)
{
    TerrainParams p;
    p.flat = true;
    Terrain t(p);
    Ray ray;
    ray.origin = {0.0, 2.0, 0.0};
    ray.dir = Vec3{1.0, -1.0, 0.0}.normalized();
    const auto hit = t.intersect(ray, 100.0);
    ASSERT_TRUE(hit.has_value());
    EXPECT_NEAR(ray.at(*hit).y, 0.0, 1e-9);
}

TEST(Terrain, MarchMatchesReferenceOverRaySweep)
{
    // The SIMD-batched march (scalar prologue + 4-wide sample batches)
    // must be bit-identical to the per-sample reference march: same
    // hit/miss decision and the exact same distance.
    TerrainParams p;
    p.seed = 9;
    p.amplitude = 4.0;
    Terrain t(p);
    int hits = 0, misses = 0;
    for (double ox = -40; ox <= 40; ox += 16.0) {
        for (double oy : {1.5, 6.0, 30.0}) {
            for (double pitch : {-0.8, -0.2, -0.02, 0.0, 0.15}) {
                for (double yaw = 0.0; yaw < 6.0; yaw += 0.9) {
                    Ray ray;
                    ray.origin = {ox, oy, -ox * 0.5};
                    ray.dir = Vec3{std::cos(yaw) * std::cos(pitch),
                                   std::sin(pitch),
                                   std::sin(yaw) * std::cos(pitch)}
                                  .normalized();
                    const auto fast = t.intersect(ray, 300.0);
                    const auto ref =
                        render::reference::terrainIntersect(t, ray, 300.0);
                    ASSERT_EQ(fast.has_value(), ref.has_value());
                    if (ref) {
                        EXPECT_EQ(*fast, *ref);
                        ++hits;
                    } else {
                        ++misses;
                    }
                }
            }
        }
    }
    // The sweep must exercise both outcomes to mean anything.
    EXPECT_GT(hits, 100);
    EXPECT_GT(misses, 100);
}

TEST(Terrain, AbortBeyondPreservesAcceptedHits)
{
    // Contract used by the renderer: capping the march at a known
    // object hit may only change outcomes *beyond* the cap. If the
    // capped march reports a hit, it is the uncapped hit; and any
    // uncapped hit at or before the cap survives capping.
    TerrainParams p;
    p.seed = 5;
    Terrain t(p);
    Rng rng(31);
    for (int i = 0; i < 400; ++i) {
        Ray ray;
        ray.origin = {rng.uniform(-50, 50), rng.uniform(0.5, 25),
                      rng.uniform(-50, 50)};
        ray.dir = Vec3{rng.normal(), rng.normal() * 0.4, rng.normal()}
                      .normalized();
        const auto full = t.intersect(ray, 200.0);
        const double cap = rng.uniform(0.5, 150.0);
        const auto capped = t.intersect(ray, 200.0, cap);
        if (capped) {
            ASSERT_TRUE(full.has_value());
            EXPECT_EQ(*capped, *full);
        }
        if (full && *full <= cap) {
            ASSERT_TRUE(capped.has_value());
            EXPECT_EQ(*capped, *full);
        }
    }
    // An infinite cap is exactly the uncapped march.
    Ray ray;
    ray.origin = {3.0, 8.0, -2.0};
    ray.dir = Vec3{0.6, -0.25, 0.4}.normalized();
    const auto inf_cap = t.intersect(
        ray, 200.0, std::numeric_limits<double>::infinity());
    const auto plain = t.intersect(ray, 200.0);
    ASSERT_EQ(inf_cap.has_value(), plain.has_value());
    if (plain)
        EXPECT_EQ(*inf_cap, *plain);
}

TEST(Terrain, TrianglesWithinScalesWithArea)
{
    TerrainParams p;
    p.trianglesPerM2 = 10.0;
    Terrain t(p);
    const double t1 = t.trianglesWithin({0, 0}, 10.0);
    const double t2 = t.trianglesWithin({0, 0}, 20.0);
    EXPECT_NEAR(t2 / t1, 4.0, 1e-9);
    EXPECT_NEAR(t1, 10.0 * M_PI * 100.0, 1e-6);
}

TEST(Terrain, ColorVariesAcrossTerrain)
{
    Terrain t{TerrainParams{}};
    const auto c1 = t.colorAt({0, 0});
    bool varies = false;
    for (double x = 5; x < 200 && !varies; x += 17)
        varies = !(t.colorAt({x, x}) == c1);
    EXPECT_TRUE(varies);
}

} // namespace
} // namespace coterie::world
