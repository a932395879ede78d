/**
 * @file
 * Tests for vectors, bounding boxes, rectangles/quadrants, and the
 * ray-primitive intersection routines (including property sweeps).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "geom/aabb.hh"
#include "geom/intersect.hh"
#include "geom/region.hh"
#include "geom/vec.hh"
#include "support/rng.hh"

namespace coterie::geom {
namespace {

TEST(Vec2, Arithmetic)
{
    const Vec2 a{1.0, 2.0}, b{3.0, -1.0};
    EXPECT_EQ(a + b, Vec2(4.0, 1.0));
    EXPECT_EQ(a - b, Vec2(-2.0, 3.0));
    EXPECT_EQ(a * 2.0, Vec2(2.0, 4.0));
    EXPECT_DOUBLE_EQ(a.dot(b), 1.0);
    EXPECT_DOUBLE_EQ(Vec2(3.0, 4.0).length(), 5.0);
    EXPECT_DOUBLE_EQ(a.distance(b), std::sqrt(4.0 + 9.0));
}

TEST(Vec2, PerpIsOrthogonal)
{
    const Vec2 v{2.5, -1.5};
    EXPECT_DOUBLE_EQ(v.dot(v.perp()), 0.0);
}

TEST(Vec2, AngleRoundTrip)
{
    for (double theta : {0.0, 0.5, 1.5, 3.0, -2.0}) {
        const Vec2 v = Vec2::fromAngle(theta);
        EXPECT_NEAR(std::cos(v.angle()), std::cos(theta), 1e-12);
        EXPECT_NEAR(std::sin(v.angle()), std::sin(theta), 1e-12);
    }
}

TEST(Vec3, CrossProduct)
{
    const Vec3 x{1, 0, 0}, y{0, 1, 0}, z{0, 0, 1};
    EXPECT_EQ(x.cross(y), z);
    EXPECT_EQ(y.cross(z), x);
    EXPECT_EQ(z.cross(x), y);
}

TEST(Vec3, NormalizedHasUnitLength)
{
    const Vec3 v = Vec3{3.0, -4.0, 12.0}.normalized();
    EXPECT_NEAR(v.length(), 1.0, 1e-12);
    EXPECT_EQ(Vec3{}.normalized(), Vec3{});
}

TEST(Vec3, GroundProjectionAndLift)
{
    const Vec3 p{2.0, 7.0, -3.0};
    EXPECT_EQ(p.ground(), Vec2(2.0, -3.0));
    EXPECT_EQ(lift(Vec2{2.0, -3.0}, 7.0), p);
}

TEST(Aabb, ExtendAndContain)
{
    Aabb box;
    EXPECT_FALSE(box.valid());
    box.extend(Vec3{0, 0, 0});
    box.extend(Vec3{2, 3, 4});
    EXPECT_TRUE(box.valid());
    EXPECT_TRUE(box.contains(Vec3{1, 1, 1}));
    EXPECT_FALSE(box.contains(Vec3{3, 1, 1}));
    EXPECT_EQ(box.center(), Vec3(1.0, 1.5, 2.0));
    EXPECT_DOUBLE_EQ(box.surfaceArea(), 2.0 * (6 + 12 + 8));
}

TEST(Aabb, OverlapsAndDistance)
{
    const Aabb a{{0, 0, 0}, {1, 1, 1}};
    const Aabb b{{0.5, 0.5, 0.5}, {2, 2, 2}};
    const Aabb c{{3, 3, 3}, {4, 4, 4}};
    EXPECT_TRUE(a.overlaps(b));
    EXPECT_FALSE(a.overlaps(c));
    EXPECT_DOUBLE_EQ(a.distanceSq(Vec3{0.5, 0.5, 0.5}), 0.0);
    EXPECT_DOUBLE_EQ(a.distanceSq(Vec3{2.0, 1.0, 1.0}), 1.0);
}

TEST(Rect, QuadrantsTileTheRect)
{
    const Rect r{{0, 0}, {8, 4}};
    const auto quads = r.quadrants();
    double area = 0.0;
    for (const Rect &q : quads)
        area += q.area();
    EXPECT_DOUBLE_EQ(area, r.area());
    // Every point of the parent is in exactly one (half-open) quadrant.
    Rng rng(3);
    for (int i = 0; i < 200; ++i) {
        const Vec2 p{rng.uniform(0.0, 8.0), rng.uniform(0.0, 4.0)};
        int owners = 0;
        for (const Rect &q : quads)
            owners += q.contains(p);
        EXPECT_EQ(owners, 1) << p.x << "," << p.y;
    }
}

TEST(Rect, ClampIntoBounds)
{
    const Rect r{{0, 0}, {10, 10}};
    EXPECT_EQ(r.clamp(Vec2{-5, 20}), Vec2(0.0, 10.0));
    EXPECT_EQ(r.clamp(Vec2{5, 5}), Vec2(5.0, 5.0));
}

TEST(Intersect, RaySphereFrontHit)
{
    Ray ray;
    ray.origin = {0, 0, 0};
    ray.dir = {1, 0, 0};
    const auto t = intersectSphere(ray, Vec3{5, 0, 0}, 1.0);
    ASSERT_TRUE(t.has_value());
    EXPECT_NEAR(*t, 4.0, 1e-9);
}

TEST(Intersect, RaySphereInsideHitsExit)
{
    Ray ray;
    ray.origin = {5, 0, 0};
    ray.dir = {1, 0, 0};
    const auto t = intersectSphere(ray, Vec3{5, 0, 0}, 1.0);
    ASSERT_TRUE(t.has_value());
    EXPECT_NEAR(*t, 1.0, 1e-9);
}

TEST(Intersect, RaySphereMiss)
{
    Ray ray;
    ray.origin = {0, 0, 0};
    ray.dir = {1, 0, 0};
    EXPECT_FALSE(intersectSphere(ray, Vec3{5, 3, 0}, 1.0).has_value());
    // Behind the origin.
    EXPECT_FALSE(intersectSphere(ray, Vec3{-5, 0, 0}, 1.0).has_value());
}

TEST(Intersect, RayBoxWithNormal)
{
    Ray ray;
    ray.origin = {-5, 0.5, 0.5};
    ray.dir = {1, 0, 0};
    Vec3 normal;
    const Aabb box{{0, 0, 0}, {1, 1, 1}};
    const auto t = intersectBox(ray, box, &normal);
    ASSERT_TRUE(t.has_value());
    EXPECT_NEAR(*t, 5.0, 1e-9);
    EXPECT_EQ(normal, Vec3(-1.0, 0.0, 0.0));
}

TEST(Intersect, RayBoxRespectsInterval)
{
    Ray ray;
    ray.origin = {-5, 0.5, 0.5};
    ray.dir = {1, 0, 0};
    ray.tMax = 3.0; // box starts at t=5
    EXPECT_FALSE(
        intersectBox(ray, Aabb{{0, 0, 0}, {1, 1, 1}}).has_value());
    ray.tMax = 1e9;
    ray.tMin = 7.0; // past the box
    EXPECT_FALSE(
        intersectBox(ray, Aabb{{0, 0, 0}, {1, 1, 1}}).has_value());
}

TEST(Intersect, RayGround)
{
    Ray ray;
    ray.origin = {0, 10, 0};
    ray.dir = Vec3{0, -1, 0};
    const auto t = intersectGround(ray, 2.0);
    ASSERT_TRUE(t.has_value());
    EXPECT_NEAR(*t, 8.0, 1e-9);
    ray.dir = {1, 0, 0};
    EXPECT_FALSE(intersectGround(ray, 2.0).has_value());
}

TEST(Intersect, RayCylinderSideAndCaps)
{
    Ray side;
    side.origin = {-5, 1.0, 0};
    side.dir = {1, 0, 0};
    Vec3 n;
    auto t = intersectCylinderY(side, Vec3{0, 0, 0}, 1.0, 2.0, &n);
    ASSERT_TRUE(t.has_value());
    EXPECT_NEAR(*t, 4.0, 1e-9);
    EXPECT_NEAR(n.x, -1.0, 1e-9);

    Ray top;
    top.origin = {0, 10, 0};
    top.dir = {0, -1, 0};
    t = intersectCylinderY(top, Vec3{0, 0, 0}, 1.0, 2.0, &n);
    ASSERT_TRUE(t.has_value());
    EXPECT_NEAR(*t, 8.0, 1e-9);
    EXPECT_NEAR(n.y, 1.0, 1e-9);

    Ray miss;
    miss.origin = {-5, 5.0, 0};
    miss.dir = {1, 0, 0}; // passes above the cylinder
    EXPECT_FALSE(
        intersectCylinderY(miss, Vec3{0, 0, 0}, 1.0, 2.0).has_value());
}

/** Property: box slab predicate agrees with the full intersection. */
TEST(IntersectProperty, SlabTestConsistentWithBoxIntersect)
{
    Rng rng(99);
    for (int i = 0; i < 2000; ++i) {
        Ray ray;
        ray.origin = {rng.uniform(-10, 10), rng.uniform(-10, 10),
                      rng.uniform(-10, 10)};
        ray.dir = Vec3{rng.normal(), rng.normal(), rng.normal()}
                      .normalized();
        if (ray.dir.lengthSq() < 0.5)
            continue;
        const Vec3 lo{rng.uniform(-5, 0), rng.uniform(-5, 0),
                      rng.uniform(-5, 0)};
        const Aabb box{lo, lo + Vec3{rng.uniform(0.5, 5),
                                     rng.uniform(0.5, 5),
                                     rng.uniform(0.5, 5)}};
        const auto full = intersectBox(ray, box);
        const SlabRay slab = makeSlabRay(ray);
        // The traversal's slab test may be a superset (it has no
        // normal/interval subtleties), but must never miss a real hit —
        // not even when the limit is exactly the hit distance, which is
        // how closest-hit pruning calls it with the best t so far.
        if (full) {
            EXPECT_TRUE(slabRayHitsAabb(slab, box, ray.tMax));
            EXPECT_TRUE(slabRayHitsAabb(slab, box, *full));
        }
    }
}

/** Property: sphere hit points actually lie on the sphere. */
TEST(IntersectProperty, SphereHitOnSurface)
{
    Rng rng(123);
    for (int i = 0; i < 2000; ++i) {
        Ray ray;
        ray.origin = {rng.uniform(-20, 20), rng.uniform(-20, 20),
                      rng.uniform(-20, 20)};
        ray.dir = Vec3{rng.normal(), rng.normal(), rng.normal()}
                      .normalized();
        const Vec3 center{rng.uniform(-10, 10), rng.uniform(-10, 10),
                          rng.uniform(-10, 10)};
        const double radius = rng.uniform(0.5, 4.0);
        const auto t = intersectSphere(ray, center, radius);
        if (t.has_value()) {
            const double dist = ray.at(*t).distance(center);
            EXPECT_NEAR(dist, radius, 1e-6);
        }
    }
}

} // namespace
} // namespace coterie::geom
