/**
 * @file
 * Tests for WorldObject geometry and the VirtualWorld spatial queries:
 * objectsWithin, near-set signatures (stability and angular-size
 * filtering), triangle counts, eye placement, and moves.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "world/world.hh"

namespace coterie::world {
namespace {

using geom::Rect;
using geom::Vec2;
using geom::Vec3;

WorldObject
boxAt(Vec2 at, double size, std::uint32_t triangles)
{
    WorldObject obj;
    obj.shape = Shape::Box;
    obj.position = geom::lift(at, size / 2);
    obj.dims = Vec3{size, size, size};
    obj.triangles = triangles;
    return obj;
}

VirtualWorld
smallWorld()
{
    TerrainParams terrain;
    terrain.flat = true;
    terrain.trianglesPerM2 = 2.0;
    VirtualWorld world("test", Rect{{0, 0}, {100, 100}}, terrain,
                       SceneType::Outdoor);
    world.addObject(boxAt({10, 10}, 2.0, 1000));
    world.addObject(boxAt({50, 50}, 4.0, 2000));
    world.addObject(boxAt({52, 50}, 1.0, 500));
    world.addObject(boxAt({90, 90}, 2.0, 800));
    world.finalize();
    return world;
}

TEST(WorldObject, BoundsPerShape)
{
    WorldObject sphere;
    sphere.shape = Shape::Sphere;
    sphere.position = {0, 0, 0};
    sphere.dims = {2.0, 0, 0};
    EXPECT_EQ(sphere.bounds().lo, Vec3(-2, -2, -2));
    EXPECT_EQ(sphere.bounds().hi, Vec3(2, 2, 2));
    EXPECT_DOUBLE_EQ(sphere.maxDimension(), 4.0);

    WorldObject cyl;
    cyl.shape = Shape::CylinderY;
    cyl.position = {1, 0, 1};
    cyl.dims = {0.5, 3.0, 0};
    EXPECT_EQ(cyl.bounds().lo, Vec3(0.5, 0.0, 0.5));
    EXPECT_EQ(cyl.bounds().hi, Vec3(1.5, 3.0, 1.5));
    EXPECT_DOUBLE_EQ(cyl.maxDimension(), 3.0);

    WorldObject box = boxAt({5, 5}, 2.0, 1);
    EXPECT_EQ(box.bounds().lo, Vec3(4.0, 0.0, 4.0));
    EXPECT_EQ(box.bounds().hi, Vec3(6.0, 2.0, 6.0));
}

TEST(World, AddAssignsSequentialIds)
{
    VirtualWorld world = smallWorld();
    EXPECT_EQ(world.objects().size(), 4u);
    for (std::uint32_t i = 0; i < 4; ++i)
        EXPECT_EQ(world.object(i).id, i);
}

TEST(WorldDeath, AddAfterFinalizePanics)
{
    VirtualWorld world = smallWorld();
    EXPECT_DEATH(world.addObject(boxAt({1, 1}, 1.0, 1)), "finalize");
}

TEST(World, ObjectsWithinFindsByRadius)
{
    VirtualWorld world = smallWorld();
    auto near = world.objectsWithin({50, 50}, 5.0);
    EXPECT_EQ(near.size(), 2u); // the 4m box and its 1m neighbour
    near = world.objectsWithin({50, 50}, 80.0);
    EXPECT_EQ(near.size(), 4u);
    near = world.objectsWithin({0, 0}, 1.0);
    EXPECT_TRUE(near.empty());
}

TEST(World, NearSetSignatureStableAndOrderFree)
{
    VirtualWorld world = smallWorld();
    const auto sig1 = world.nearSetSignature({50, 50}, 10.0);
    const auto sig2 = world.nearSetSignature({50, 50}, 10.0);
    EXPECT_EQ(sig1, sig2);
}

TEST(World, NearSetSignatureChangesWhenLargeObjectLeaves)
{
    VirtualWorld world = smallWorld();
    // At radius 6 both central objects are in range; at radius 1 none.
    const auto sig_wide = world.nearSetSignature({50, 50}, 6.0);
    const auto sig_narrow = world.nearSetSignature({50, 50}, 0.5);
    EXPECT_NE(sig_wide, sig_narrow);
}

TEST(World, NearSetSignatureIgnoresAngularlySmallObjects)
{
    VirtualWorld world = smallWorld();
    // The 1m box at (52,50) seen from 30m away subtends ~0.03 rad:
    // excluded at the default threshold, so the signature equals one
    // computed without it in range.
    const auto with_small = world.nearSetSignature({80, 50}, 29.0);
    const auto without = world.nearSetSignature({80, 50}, 25.0);
    // Both exclude everything except (possibly) the small box; the
    // angular filter makes them equal.
    EXPECT_EQ(with_small, without);
}

TEST(World, TrianglesWithinIncludesTerrainAndObjects)
{
    VirtualWorld world = smallWorld();
    const double tris = world.trianglesWithin({50, 50}, 5.0);
    // Terrain: 2 tri/m^2 * pi * 25 ~ 157; objects: 2000 + 500.
    EXPECT_NEAR(tris, 157.0 + 2500.0, 5.0);
}

TEST(World, TriangleDensityExcludesTerrain)
{
    VirtualWorld world = smallWorld();
    const double density = world.triangleDensity({50, 50}, 5.0);
    EXPECT_NEAR(density, 2500.0 / (M_PI * 25.0), 1.0);
    EXPECT_DOUBLE_EQ(world.triangleDensity({5, 90}, 2.0), 0.0);
}

TEST(World, EyePositionUsesFootholdPlusEyeHeight)
{
    VirtualWorld world = smallWorld();
    world.setEyeHeight(1.6);
    const Vec3 eye = world.eyePosition({20, 20});
    EXPECT_DOUBLE_EQ(eye.y, 1.6); // flat floor
    EXPECT_EQ(eye.ground(), Vec2(20.0, 20.0));
}

TEST(World, SkyColorDiffersIndoorsAndOutdoors)
{
    VirtualWorld outdoor = smallWorld();
    TerrainParams terrain;
    terrain.flat = true;
    VirtualWorld indoor("in", Rect{{0, 0}, {10, 10}}, terrain,
                        SceneType::Indoor);
    EXPECT_FALSE(outdoor.skyColor(0.2) == indoor.skyColor(0.2));
    // Outdoor sky gradient: zenith darker blue than horizon.
    EXPECT_NE(outdoor.skyColor(0.0).r, outdoor.skyColor(1.4).r);
}

TEST(World, MoveSemantics)
{
    VirtualWorld world = smallWorld();
    const std::size_t n = world.objects().size();
    VirtualWorld moved = std::move(world);
    EXPECT_EQ(moved.objects().size(), n);
    EXPECT_TRUE(moved.finalized());
    EXPECT_EQ(moved.objectsWithin({50, 50}, 5.0).size(), 2u);
}

TEST(World, MoveKeepsTerrainQueries)
{
    // The terrain (and its min/max grid) moves with the world: heights
    // and ray hits answer exactly as before the move, by move
    // construction and by move assignment.
    TerrainParams terrain;
    terrain.seed = 3;
    terrain.amplitude = 5.0;
    VirtualWorld world("hills", Rect{{0, 0}, {120, 80}}, terrain);
    world.finalize();
    std::vector<double> heights;
    std::vector<std::optional<double>> hits;
    const auto probe = [&](const VirtualWorld &w) {
        heights.clear();
        hits.clear();
        for (double x = -10; x < 130; x += 6.7) {
            const Vec2 at{x, 0.6 * x};
            heights.push_back(w.terrain().heightAt(at));
            geom::Ray ray;
            ray.origin = w.eyePosition(at);
            ray.dir = Vec3{0.8, -0.15, 0.3}.normalized();
            ray.tMin = 5.0;
            hits.push_back(w.terrain().intersect(ray, 300.0));
        }
    };
    probe(world);
    const std::vector<double> heights0 = heights;
    const std::vector<std::optional<double>> hits0 = hits;
    ASSERT_GT(std::count_if(hits0.begin(), hits0.end(),
                            [](const auto &h) { return h.has_value(); }),
              0);

    VirtualWorld moved = std::move(world);
    probe(moved);
    EXPECT_EQ(heights, heights0);
    EXPECT_EQ(hits, hits0);

    VirtualWorld assigned("other", Rect{{0, 0}, {10, 10}}, TerrainParams{});
    assigned = std::move(moved);
    probe(assigned);
    EXPECT_EQ(heights, heights0);
    EXPECT_EQ(hits, hits0);
}

} // namespace
} // namespace coterie::world
