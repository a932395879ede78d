/**
 * @file
 * Property tests for the BVH: closest-hit and disc queries must agree
 * exactly with brute force over randomized worlds and rays.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "geom/intersect.hh"
#include "render/camera.hh"
#include "support/rng.hh"
#include "world/bvh.hh"

namespace coterie::world {
namespace {

using geom::Aabb;
using geom::Hit;
using geom::Ray;
using geom::Vec2;
using geom::Vec3;

std::vector<WorldObject>
randomObjects(int n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<WorldObject> objects;
    for (int i = 0; i < n; ++i) {
        WorldObject obj;
        obj.id = static_cast<std::uint32_t>(i);
        const int kind = static_cast<int>(rng.uniformInt(0, 2));
        obj.position = {rng.uniform(-50, 50), rng.uniform(0, 10),
                        rng.uniform(-50, 50)};
        if (kind == 0) {
            obj.shape = Shape::Sphere;
            obj.dims = {rng.uniform(0.5, 3.0), 0, 0};
        } else if (kind == 1) {
            obj.shape = Shape::Box;
            obj.dims = {rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0),
                        rng.uniform(0.5, 4.0)};
        } else {
            obj.shape = Shape::CylinderY;
            obj.dims = {rng.uniform(0.3, 2.0), rng.uniform(1.0, 6.0), 0};
        }
        objects.push_back(obj);
    }
    return objects;
}

/** Brute-force closest hit for cross-checking. */
std::optional<std::pair<double, std::uint32_t>>
bruteClosest(const std::vector<WorldObject> &objects, const Ray &ray)
{
    std::optional<std::pair<double, std::uint32_t>> best;
    for (const WorldObject &obj : objects) {
        std::optional<double> t;
        switch (obj.shape) {
          case Shape::Sphere:
            t = geom::intersectSphere(ray, obj.position, obj.dims.x);
            break;
          case Shape::Box:
            t = geom::intersectBox(
                ray, Aabb{obj.position - obj.dims * 0.5,
                          obj.position + obj.dims * 0.5});
            break;
          case Shape::CylinderY:
            t = geom::intersectCylinderY(ray, obj.position, obj.dims.x,
                                         obj.dims.y);
            break;
        }
        if (t && (!best || *t < best->first))
            best = {{*t, obj.id}};
    }
    return best;
}

class BvhProperty : public testing::TestWithParam<std::uint64_t>
{
};

TEST_P(BvhProperty, ClosestHitMatchesBruteForce)
{
    const auto objects = randomObjects(60, GetParam());
    const Bvh bvh(objects);
    Rng rng(GetParam() ^ 0xabc);
    for (int i = 0; i < 500; ++i) {
        Ray ray;
        ray.origin = {rng.uniform(-60, 60), rng.uniform(-5, 20),
                      rng.uniform(-60, 60)};
        ray.dir = Vec3{rng.normal(), rng.normal() * 0.3, rng.normal()}
                      .normalized();
        const Hit hit = bvh.closestHit(ray);
        const auto brute = bruteClosest(objects, ray);
        if (brute) {
            ASSERT_TRUE(hit.valid());
            EXPECT_NEAR(hit.t, brute->first, 1e-9);
            EXPECT_EQ(hit.objectId, brute->second);
        } else {
            EXPECT_FALSE(hit.valid());
        }
    }
}

TEST_P(BvhProperty, DiscQueryMatchesBruteForce)
{
    const auto objects = randomObjects(80, GetParam());
    const Bvh bvh(objects);
    Rng rng(GetParam() ^ 0xdef);
    for (int i = 0; i < 200; ++i) {
        const Vec2 center{rng.uniform(-60, 60), rng.uniform(-60, 60)};
        const double radius = rng.uniform(1.0, 30.0);
        auto got = bvh.queryDisc(center, radius);
        std::sort(got.begin(), got.end());

        std::vector<std::uint32_t> expected;
        const double r2 = radius * radius;
        for (const WorldObject &obj : objects) {
            const Aabb b = obj.bounds();
            const double dx = std::max(
                {b.lo.x - center.x, 0.0, center.x - b.hi.x});
            const double dz = std::max(
                {b.lo.z - center.y, 0.0, center.y - b.hi.z});
            if (dx * dx + dz * dz <= r2)
                expected.push_back(obj.id);
        }
        EXPECT_EQ(got, expected);
    }
}

/** queryDisc's membership metric, recomputed from the object. */
double
footprintDistSq(const WorldObject &obj, Vec2 center)
{
    const Aabb b = obj.bounds();
    const double dx = std::max({b.lo.x - center.x, 0.0, center.x - b.hi.x});
    const double dz = std::max({b.lo.z - center.y, 0.0, center.y - b.hi.z});
    return dx * dx + dz * dz;
}

/**
 * The order property the cost model's per-location cache relies on:
 * a smaller disc visits exactly the larger disc's objects that pass
 * its own footprint test, in the same relative order.
 */
TEST_P(BvhProperty, DiscQueryOrderNestsAcrossRadii)
{
    const auto objects = randomObjects(120, GetParam());
    const Bvh bvh(objects);
    Rng rng(GetParam() ^ 0x5ca1e);
    for (int i = 0; i < 100; ++i) {
        const Vec2 center{rng.uniform(-70, 70), rng.uniform(-70, 70)};
        const double big = rng.uniform(5.0, 120.0);
        const auto outer = bvh.queryDisc(center, big);
        std::vector<double> radii = {0.0, rng.uniform(0.0, big)};
        // Each object's own footprint distance: the inclusion boundary.
        for (const std::uint32_t id : outer)
            radii.push_back(std::sqrt(footprintDistSq(objects[id], center)));
        for (const double r : radii) {
            if (r > big)
                continue;
            std::vector<std::uint32_t> expected;
            for (const std::uint32_t id : outer) {
                if (footprintDistSq(objects[id], center) <= r * r)
                    expected.push_back(id);
            }
            EXPECT_EQ(bvh.queryDisc(center, r), expected)
                << "r=" << r << " R=" << big;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BvhProperty,
                         testing::Values(1, 2, 3, 4, 5));

/** SAH binning degenerates to median when every centroid coincides. */
TEST(Bvh, SahHandlesCoincidentCenters)
{
    std::vector<WorldObject> objects;
    for (int i = 0; i < 37; ++i) {
        WorldObject obj;
        obj.id = static_cast<std::uint32_t>(i);
        obj.shape = Shape::Sphere;
        obj.position = {3.0, 1.0, -2.0}; // all identical
        obj.dims = {0.5 + 0.01 * i, 0, 0};
        objects.push_back(obj);
    }
    const Bvh bvh(objects);
    Ray ray;
    ray.origin = {-20, 1, -2};
    ray.dir = {1, 0, 0};
    const Hit hit = bvh.closestHit(ray);
    ASSERT_TRUE(hit.valid());
    // Largest sphere's surface is nearest; ties impossible here.
    EXPECT_EQ(hit.objectId, 36u);
    EXPECT_EQ(bvh.queryDisc({3.0, -2.0}, 1.0).size(), objects.size());
}

TEST(Bvh, SahSingleObjectAndEmpty)
{
    const Bvh empty({});
    Ray ray;
    ray.origin = {0, 1, 0};
    ray.dir = {1, 0, 0};
    EXPECT_FALSE(empty.closestHit(ray).valid());

    std::vector<WorldObject> one;
    WorldObject obj;
    obj.shape = Shape::Sphere;
    obj.position = {6, 1, 0};
    obj.dims = {1.0, 0, 0};
    one.push_back(obj);
    const Bvh bvh(one);
    const Hit hit = bvh.closestHit(ray);
    ASSERT_TRUE(hit.valid());
    EXPECT_NEAR(hit.t, 5.0, 1e-12);
}

/**
 * Overlapping identical shapes: the tie-break must pick the smallest
 * object id whatever the insertion order, and so whatever tree shape
 * the build produces.
 */
TEST(Bvh, TieBreaksOnObjectIdAcrossPolicies)
{
    std::vector<WorldObject> objects;
    for (int i = 0; i < 6; ++i) {
        WorldObject obj;
        obj.id = static_cast<std::uint32_t>(i);
        obj.shape = Shape::Box;
        obj.position = {10, 1, 0};
        obj.dims = {2, 2, 2};
        objects.push_back(obj);
    }
    Ray ray;
    ray.origin = {0, 1, 0};
    ray.dir = {1, 0, 0};
    for (int order = 0; order < 2; ++order) {
        // The second pass reverses the vector (ids stay attached to
        // the objects), so the lowest id sits in the last leaf slot.
        if (order == 1)
            std::reverse(objects.begin(), objects.end());
        const Bvh bvh(objects);
        const Hit hit = bvh.closestHit(ray);
        ASSERT_TRUE(hit.valid());
        EXPECT_EQ(hit.objectId, 0u);
    }
}

/** The callback overload yields exactly the vector overload's order. */
TEST(Bvh, QueryDiscCallbackMatchesVector)
{
    const auto objects = randomObjects(90, 77);
    const Bvh bvh(objects);
    Rng rng(78);
    for (int i = 0; i < 100; ++i) {
        const Vec2 center{rng.uniform(-60, 60), rng.uniform(-60, 60)};
        const double radius = rng.uniform(1.0, 40.0);
        const auto vec = bvh.queryDisc(center, radius);
        std::vector<std::uint32_t> cb;
        bvh.queryDisc(center, radius,
                      [&](std::uint32_t id) { cb.push_back(id); });
        EXPECT_EQ(cb, vec);
    }
}

TEST(Bvh, EmptyWorld)
{
    const std::vector<WorldObject> none;
    const Bvh bvh(none);
    Ray ray;
    ray.origin = {0, 0, 0};
    ray.dir = {1, 0, 0};
    EXPECT_FALSE(bvh.closestHit(ray).valid());
    EXPECT_TRUE(bvh.queryDisc({0, 0}, 100.0).empty());
}

/** Every lane of @p pack equals closestHit on that lane's ray. */
void
expectPacketMatchesScalar(const Bvh &bvh, const geom::RayPacket &pack)
{
    Hit packet[geom::RayPacket::kLanes];
    bvh.closestHitPacket(pack, packet);
    for (int l = 0; l < geom::RayPacket::kLanes; ++l) {
        const Hit scalar = bvh.closestHit(pack.lane(l));
        EXPECT_EQ(packet[l].valid(), scalar.valid());
        EXPECT_EQ(packet[l].objectId, scalar.objectId);
        EXPECT_EQ(packet[l].t, scalar.t);
        if (scalar.valid()) {
            EXPECT_EQ(packet[l].point, scalar.point);
            EXPECT_EQ(packet[l].normal, scalar.normal);
        }
    }
}

TEST_P(BvhProperty, PacketLanesMatchScalarClosestHit)
{
    // The packet traversal must be bit-identical per lane to the
    // scalar traversal on that lane's ray — same t, id, point, and
    // normal — including lanes that miss and packets whose lanes point
    // into different octants (which defeats lane-0's ordered descent
    // for the other lanes; the per-lane prune + tie-break rule keeps
    // the result traversal-order independent).
    const auto objects = randomObjects(60, GetParam());
    const Bvh bvh(objects);
    Rng rng(GetParam() ^ 0x9a7);
    for (int i = 0; i < 200; ++i) {
        const Vec3 origin{rng.uniform(-60, 60), rng.uniform(-5, 20),
                          rng.uniform(-60, 60)};
        double dx[geom::RayPacket::kLanes], dy[geom::RayPacket::kLanes],
            dz[geom::RayPacket::kLanes];
        const bool mixed = i % 3 == 0;
        for (int l = 0; l < geom::RayPacket::kLanes; ++l) {
            Vec3 dir{rng.normal(), rng.normal() * 0.3, rng.normal()};
            // Every third packet scatters its lanes across octants
            // instead of the coherent row-batch shape.
            if (mixed && l % 2 == 1)
                dir = dir * -1.0;
            dir = dir.normalized();
            dx[l] = dir.x;
            dy[l] = dir.y;
            dz[l] = dir.z;
        }
        // Alternate the whole-scene interval with a depth-layer-style
        // narrow clip window.
        const double t_min = i % 4 == 0 ? 5.0 : 1e-4;
        const double t_max = i % 4 == 0 ? 40.0 : 1e30;
        expectPacketMatchesScalar(
            bvh, geom::makeRayPacket(origin, dx, dy, dz, t_min, t_max));
    }
    // The renderer's far-BE shape: four adjacent texels of one row of a
    // 512x256 panorama from an eye inside the scene, clipped to
    // [cutoff, +inf) as raycastRow clips DepthLayer::farBe.
    constexpr int kW = 512;
    constexpr int kH = 256;
    for (int i = 0; i < 200; ++i) {
        const Vec3 eye{rng.uniform(-40, 40), rng.uniform(0.5, 3.0),
                       rng.uniform(-40, 40)};
        const auto y = static_cast<int>(rng.uniformInt(0, kH - 1));
        const auto x0 =
            4 * static_cast<int>(rng.uniformInt(0, kW / 4 - 1));
        double dx[geom::RayPacket::kLanes], dy[geom::RayPacket::kLanes],
            dz[geom::RayPacket::kLanes];
        for (int l = 0; l < geom::RayPacket::kLanes; ++l) {
            const Vec3 dir = render::panoramaDirection(
                (x0 + l + 0.5) / kW, (y + 0.5) / kH);
            dx[l] = dir.x;
            dy[l] = dir.y;
            dz[l] = dir.z;
        }
        const double cutoff = rng.uniform(2.0, 30.0);
        const double inf = std::numeric_limits<double>::infinity();
        expectPacketMatchesScalar(
            bvh, geom::makeRayPacket(eye, dx, dy, dz, cutoff, inf));
    }
}

TEST(Bvh, PacketOnEmptyWorldMissesAllLanes)
{
    const Bvh bvh(std::vector<WorldObject>{});
    double dx[geom::RayPacket::kLanes] = {1, 0, 0, -1};
    double dy[geom::RayPacket::kLanes] = {0, 1, 0, 0};
    double dz[geom::RayPacket::kLanes] = {0, 0, 1, 0};
    const geom::RayPacket pack =
        geom::makeRayPacket({0, 0, 0}, dx, dy, dz, 1e-4, 1e30);
    Hit out[geom::RayPacket::kLanes];
    bvh.closestHitPacket(pack, out);
    for (int l = 0; l < geom::RayPacket::kLanes; ++l) {
        EXPECT_FALSE(out[l].valid());
        EXPECT_EQ(out[l].t, pack.tMax);
    }
}

TEST(Bvh, RespectsRayInterval)
{
    std::vector<WorldObject> objects;
    WorldObject obj;
    obj.shape = Shape::Sphere;
    obj.position = {10, 0, 0};
    obj.dims = {1.0, 0, 0};
    objects.push_back(obj);
    const Bvh bvh(objects);
    Ray ray;
    ray.origin = {0, 0, 0};
    ray.dir = {1, 0, 0};
    ray.tMax = 5.0; // sphere is at t=9
    EXPECT_FALSE(bvh.closestHit(ray).valid());
    ray.tMax = 1e30;
    ray.tMin = 12.0; // past the sphere
    EXPECT_FALSE(bvh.closestHit(ray).valid());
    ray.tMin = 1e-4;
    EXPECT_TRUE(bvh.closestHit(ray).valid());
}

} // namespace
} // namespace coterie::world
