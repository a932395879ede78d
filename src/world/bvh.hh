/**
 * @file
 * Bounding-volume hierarchy over world objects, used by the renderer
 * (closest-hit ray casts) and by radius queries.
 *
 * One build — binned surface-area-heuristic splits, minimizing expected
 * traversal cost — behind a flattened node layout. Nodes are emitted
 * in depth-first order, so a node's left child is always the next
 * array slot and only the right-child index is stored;
 * traversal descends the near child first using the split axis and the
 * ray-direction sign (front-to-back), pruning with a precomputed
 * inverse-direction slab test against the best hit so far. Closest-hit
 * results are *tree-shape independent*: acceptance breaks equal-t ties
 * by lower object id, so the hit is a property of the object set alone
 * (tests/bvh_test.cc checks it against brute force).
 */

#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "geom/intersect.hh"
#include "geom/ray.hh"
#include "geom/region.hh"
#include "world/object.hh"

namespace coterie::world {

/**
 * Static BVH. Leaves hold small runs of object indices; inner nodes are
 * laid out in a flat depth-first array (left child implicit at +1),
 * friendly to iterative traversal.
 */
class Bvh
{
  public:
    /** Build over the given objects (indices refer into this vector). */
    explicit Bvh(const std::vector<WorldObject> &objects);

    /**
     * Closest intersection along the ray within [ray.tMin, ray.tMax],
     * respecting per-ray interval clipping (this is how near/far BE
     * separation by cutoff radius is implemented). Equal-t ties resolve
     * to the lower object id, making the result independent of tree
     * shape and traversal order.
     */
    geom::Hit closestHit(const geom::Ray &ray) const;

    /**
     * Closest hit for a 4-lane ray packet (shared origin + clip
     * interval, SoA directions): one traversal walks the tree for all
     * lanes, testing each node's slabs across lanes in one vector op
     * and pruning per lane against that lane's best hit. Leaf
     * primitives are tested per active lane with the exact scalar
     * accept rule (equal-t ties to the lower object id), so every
     * lane's Hit is bit-identical to `closestHit` on that lane's ray
     * (asserted by tests/bvh_test.cc). The traversal runs on the
     * AVX2 / x86-64-v4 clones (`traversePacket`); the winners' point
     * and normal are filled in uncloned code.
     */
    void closestHitPacket(const geom::RayPacket &pack,
                          geom::Hit out[geom::RayPacket::kLanes]) const;

    /**
     * Visit ids of objects whose AABB intersects the XZ disc
     * (cylinder), in deterministic depth-first traversal order. The
     * allocation-free path for hot callers (cost model, partitioner).
     *
     * That order is leaf-slot order, the build's left-first emission
     * order, restricted to the objects that pass the test. So a
     * smaller disc around the same center visits the larger disc's
     * objects that pass its own test, in the same relative order
     * (tests/bvh_test.cc, DiscQueryOrderNestsAcrossRadii).
     */
    template <typename Fn>
    void queryDisc(geom::Vec2 center, double radius, Fn &&fn) const;

    /** Ids of objects whose AABB intersects the XZ disc (cylinder). */
    std::vector<std::uint32_t> queryDisc(geom::Vec2 center,
                                         double radius) const;

    std::size_t nodeCount() const { return nodes_.size(); }

    /**
     * Per-thread traversal counters (nodes visited / leaf primitive
     * tests by the closest-hit traversals on the calling thread). Reading
     * resets the thread's counters; the renderer drains them per row
     * chunk into `bvh.nodes_visited` / `bvh.leaf_tests`. Plain
     * thread-local accumulation — no atomics on the traversal path, no
     * obs dependency in world/.
     */
    struct TraversalStats
    {
        std::uint64_t nodesVisited = 0;
        std::uint64_t leafTests = 0;
    };
    static TraversalStats takeThreadStats();

    /**
     * The flattened layout both traversals read. It is public only so
     * that bvh.cc's cloned packet kernel, a free function like the
     * other `COTERIE_SIMD_CLONES` kernels, can name it.
     */
    struct Node
    {
        geom::Aabb box;
        std::int32_t rightOrFirst = -1; ///< inner: right child; leaf: first item
        std::int32_t count = 0;         ///< leaf: item count; inner: 0
        std::uint8_t axis = 0;          ///< inner: split axis (orders children)
    };
    /**
     * A leaf primitive, stored per leaf slot in traversal order (the
     * same order as `items_`). Spheres and cylinders keep their
     * position and dims; boxes keep their lo/hi corners, computed once
     * at build with `intersectObject`'s expression, so the leaf test
     * does no arithmetic before calling geom::. Both traversals read
     * these records instead of gathering whole WorldObjects by id.
     */
    struct LeafPrim
    {
        geom::Vec3 a; ///< position, or a box's lo corner
        geom::Vec3 b; ///< dims, or a box's hi corner
        Shape shape = Shape::Sphere;
    };

  private:
    /** A box's footprint in the ground plane: its (x, z) extent. */
    static geom::Rect
    footprintOf(const geom::Aabb &box)
    {
        return {{box.lo.x, box.lo.z}, {box.hi.x, box.hi.z}};
    }

    /** Per-object build scratch: bounds + center, computed once. */
    struct BuildItem
    {
        geom::Aabb box;
        geom::Vec3 center;
        std::uint32_t id = 0;
    };

    std::int32_t build(std::vector<BuildItem> &items, std::size_t begin,
                       std::size_t end, int depth);
    std::int32_t emitLeaf(const std::vector<BuildItem> &items,
                          std::size_t begin, std::size_t end,
                          const geom::Aabb &box);
    bool intersectObject(const geom::Ray &ray, const WorldObject &obj,
                         double &t, geom::Vec3 &normal) const;

    const std::vector<WorldObject> &objects_;
    std::vector<Node> nodes_;
    std::vector<std::uint32_t> items_;
    std::vector<LeafPrim> leaf_;
    /** Each slot's object footprint, in items_ order (queryDisc's test). */
    std::vector<geom::Rect> footprint_;
};

template <typename Fn>
void
Bvh::queryDisc(geom::Vec2 center, double radius, Fn &&fn) const
{
    if (nodes_.empty())
        return;
    const double r2 = radius * radius;
    std::array<std::int32_t, 128> stack;
    int sp = 0;
    std::int32_t idx = 0;
    for (;;) {
        const Node &node = nodes_[idx];
        if (footprintOf(node.box).distanceSq(center) <= r2) {
            if (node.count > 0) {
                for (std::int32_t i = 0; i < node.count; ++i) {
                    const auto slot =
                        static_cast<std::size_t>(node.rightOrFirst + i);
                    if (footprint_[slot].distanceSq(center) <= r2)
                        fn(items_[slot]);
                }
            } else {
                stack[static_cast<std::size_t>(sp++)] = node.rightOrFirst;
                idx = idx + 1; // left child is adjacent in DFS order
                continue;
            }
        }
        if (sp == 0)
            break;
        idx = stack[static_cast<std::size_t>(--sp)];
    }
}

} // namespace coterie::world
