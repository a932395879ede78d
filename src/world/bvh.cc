#include "world/bvh.hh"

#include <cmath>
#include <limits>

#include "support/logging.hh"
#include "support/simd.hh"

namespace coterie::world {

using geom::Aabb;
using geom::Hit;
using geom::Ray;
using geom::SlabRay;
using geom::Vec2;
using geom::Vec3;

namespace {

constexpr std::size_t kLeafSize = 4;
/** SAH bin count: 16 bins recover nearly all of exact-sweep quality. */
constexpr int kSahBins = 16;
/**
 * Builder depth cap. Degenerate inputs (many coincident centers) can
 * drive lopsided splits; past this depth the node becomes a leaf, which
 * also bounds the traversal stacks (one pushed frame per level).
 */
constexpr int kMaxDepth = 40;

/** Thread-local traversal counters; drained by Bvh::takeThreadStats. */
thread_local Bvh::TraversalStats tlsStats;

double
axisOf(const Vec3 &v, int axis)
{
    if (axis == 0)
        return v.x;
    if (axis == 1)
        return v.y;
    return v.z;
}

int
widestAxis(const Vec3 &extent)
{
    int axis = 0;
    if (extent.y > extent.x)
        axis = 1;
    if (extent.z > (axis == 0 ? extent.x : extent.y))
        axis = 2;
    return axis;
}

} // namespace

Bvh::Bvh(const std::vector<WorldObject> &objects) : objects_(objects)
{
    if (objects.empty())
        return;
    std::vector<BuildItem> items(objects.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
        items[i].box = objects[i].bounds();
        items[i].center = items[i].box.center();
        items[i].id = static_cast<std::uint32_t>(i);
    }
    nodes_.reserve(2 * items.size());
    items_.reserve(items.size());
    build(items, 0, items.size(), 0);
    // Leaf primitives and footprints in items_ order, so a leaf's
    // [rightOrFirst, rightOrFirst + count) range indexes all three.
    leaf_.reserve(items_.size());
    footprint_.reserve(items_.size());
    for (const std::uint32_t obj_id : items_) {
        const WorldObject &obj = objects_[obj_id];
        footprint_.push_back(footprintOf(obj.bounds()));
        LeafPrim &prim = leaf_.emplace_back();
        prim.shape = obj.shape;
        if (obj.shape == Shape::Box) {
            // intersectObject's corners, evaluated here in uncloned
            // code, so the packet kernel's clones contain no
            // contractible multiply-add.
            prim.a = obj.position - obj.dims * 0.5;
            prim.b = obj.position + obj.dims * 0.5;
        } else {
            prim.a = obj.position;
            prim.b = obj.dims;
        }
    }
}

std::int32_t
Bvh::emitLeaf(const std::vector<BuildItem> &items, std::size_t begin,
              std::size_t end, const Aabb &box)
{
    const auto node_index = static_cast<std::int32_t>(nodes_.size());
    nodes_.emplace_back();
    Node &leaf = nodes_.back();
    leaf.box = box;
    leaf.rightOrFirst = static_cast<std::int32_t>(items_.size());
    leaf.count = static_cast<std::int32_t>(end - begin);
    for (std::size_t i = begin; i < end; ++i)
        items_.push_back(items[i].id);
    return node_index;
}

std::int32_t
Bvh::build(std::vector<BuildItem> &items, std::size_t begin,
           std::size_t end, int depth)
{
    Aabb box;
    for (std::size_t i = begin; i < end; ++i)
        box.extend(items[i].box);

    const std::size_t n = end - begin;
    if (n <= kLeafSize || depth >= kMaxDepth)
        return emitLeaf(items, begin, end, box);

    // Split selection produces (axis, mid); fall through to a leaf only
    // when no plane separates anything (all centers coincident).
    Aabb centroidBox;
    for (std::size_t i = begin; i < end; ++i)
        centroidBox.extend(items[i].center);
    const Vec3 cext = centroidBox.extent();

    int axis;
    std::size_t mid = begin;
    if (cext.x <= 0.0 && cext.y <= 0.0 && cext.z <= 0.0) {
        // Fully degenerate: every center identical. Split down the
        // middle by current order so the tree stays balanced.
        axis = 0;
        mid = begin + n / 2;
    } else {
        // Binned SAH over the widest *centroid* axis (width > 0 here:
        // the fully-degenerate case was handled above).
        axis = widestAxis(cext);
        const double lo = axisOf(centroidBox.lo, axis);
        const double invWidth = kSahBins / axisOf(cext, axis);
        const auto binOf = [&](const BuildItem &item) {
            const auto bin = static_cast<int>(
                (axisOf(item.center, axis) - lo) * invWidth);
            return std::clamp(bin, 0, kSahBins - 1);
        };
        int counts[kSahBins] = {};
        Aabb bounds[kSahBins];
        for (std::size_t i = begin; i < end; ++i) {
            const int b = binOf(items[i]);
            ++counts[b];
            bounds[b].extend(items[i].box);
        }
        // Suffix sweep: cost of everything right of each plane. Empty
        // bins are skipped — extending with an invalid Aabb would
        // poison the accumulator with its infinite corners.
        double rightArea[kSahBins] = {};
        int rightCount[kSahBins] = {};
        {
            Aabb acc;
            int cnt = 0;
            for (int b = kSahBins - 1; b >= 1; --b) {
                if (counts[b] > 0)
                    acc.extend(bounds[b]);
                cnt += counts[b];
                rightArea[b] = acc.surfaceArea();
                rightCount[b] = cnt;
            }
        }
        // Prefix sweep: pick the plane minimizing
        // N_L * SA_L + N_R * SA_R.
        double bestCost = std::numeric_limits<double>::infinity();
        int bestPlane = -1;
        {
            Aabb acc;
            int cnt = 0;
            for (int b = 0; b < kSahBins - 1; ++b) {
                if (counts[b] > 0)
                    acc.extend(bounds[b]);
                cnt += counts[b];
                if (cnt == 0 || rightCount[b + 1] == 0)
                    continue;
                const double cost = cnt * acc.surfaceArea() +
                                    rightCount[b + 1] * rightArea[b + 1];
                if (cost < bestCost) {
                    bestCost = cost;
                    bestPlane = b;
                }
            }
        }
        if (bestPlane < 0) {
            // All occupied bins collapse to one: median fallback.
            mid = begin + n / 2;
            std::nth_element(
                items.begin() + static_cast<std::ptrdiff_t>(begin),
                items.begin() + static_cast<std::ptrdiff_t>(mid),
                items.begin() + static_cast<std::ptrdiff_t>(end),
                [axis](const BuildItem &a, const BuildItem &b) {
                    return axisOf(a.center, axis) <
                           axisOf(b.center, axis);
                });
        } else {
            const auto split = std::partition(
                items.begin() + static_cast<std::ptrdiff_t>(begin),
                items.begin() + static_cast<std::ptrdiff_t>(end),
                [&](const BuildItem &item) {
                    return binOf(item) <= bestPlane;
                });
            mid = static_cast<std::size_t>(split - items.begin());
        }
    }
    if (mid <= begin || mid >= end)
        mid = begin + n / 2; // never recurse on an empty side

    const auto node_index = static_cast<std::int32_t>(nodes_.size());
    nodes_.emplace_back();
    build(items, begin, mid, depth + 1); // left child lands at +1
    const std::int32_t right = build(items, mid, end, depth + 1);
    Node &node = nodes_[static_cast<std::size_t>(node_index)];
    node.box = box;
    node.rightOrFirst = right;
    node.count = 0;
    node.axis = static_cast<std::uint8_t>(axis);
    return node_index;
}

bool
Bvh::intersectObject(const Ray &ray, const WorldObject &obj, double &t,
                     Vec3 &normal) const
{
    std::optional<double> hit;
    Vec3 n{0.0, 1.0, 0.0};
    switch (obj.shape) {
      case Shape::Sphere:
        hit = geom::intersectSphere(ray, obj.position, obj.dims.x);
        if (hit)
            n = (ray.at(*hit) - obj.position).normalized();
        break;
      case Shape::Box:
        hit = geom::intersectBox(
            ray, Aabb{obj.position - obj.dims * 0.5,
                      obj.position + obj.dims * 0.5}, &n);
        break;
      case Shape::CylinderY:
        hit = geom::intersectCylinderY(ray, obj.position, obj.dims.x,
                                       obj.dims.y, &n);
        break;
    }
    if (!hit)
        return false;
    t = *hit;
    normal = n;
    return true;
}

namespace {

/**
 * Distance-only leaf test: the geom:: calls of Bvh::intersectObject on
 * the same doubles, minus all normal work (the sphere's normalize()
 * sqrt in particular). The winner's normal is recomputed once after
 * traversal — intersection is a pure function of (ray, object), so
 * the recomputed t is bit-identical to this one.
 */
bool
leafHitT(const Ray &ray, const Bvh::LeafPrim &prim, double &t)
{
    std::optional<double> hit;
    switch (prim.shape) {
      case Shape::Sphere:
        hit = geom::intersectSphere(ray, prim.a, prim.b.x);
        break;
      case Shape::Box:
        hit = geom::intersectBox(ray, Aabb{prim.a, prim.b});
        break;
      case Shape::CylinderY:
        hit = geom::intersectCylinderY(ray, prim.a, prim.b.x, prim.b.y);
        break;
    }
    if (!hit)
        return false;
    t = *hit;
    return true;
}

} // namespace

Hit
Bvh::closestHit(const Ray &ray) const
{
    Hit best;
    best.t = ray.tMax;
    if (nodes_.empty())
        return best;

    const SlabRay slab = geom::makeSlabRay(ray);
    std::uint64_t visited = 0;
    std::uint64_t leafTests = 0;
    std::array<std::int32_t, 128> stack;
    int sp = 0;
    std::int32_t idx = 0;
    for (;;) {
        const Node &node = nodes_[static_cast<std::size_t>(idx)];
        ++visited;
        // Strict prune (> not >=): a box entered exactly at best.t may
        // still hold an equal-t lower-id winner.
        if (geom::slabRayHitsAabb(slab, node.box, best.t)) {
            if (node.count > 0) {
                for (std::int32_t i = 0; i < node.count; ++i) {
                    const auto slot =
                        static_cast<std::size_t>(node.rightOrFirst + i);
                    const std::uint32_t obj_id = items_[slot];
                    ++leafTests;
                    double t;
                    if (!leafHitT(ray, leaf_[slot], t))
                        continue;
                    // Deterministic tie-break: equal t resolves to the
                    // lower object id. best.valid() keeps the legacy
                    // edge semantics — a hit exactly at ray.tMax (the
                    // initial best.t) is still rejected.
                    if (t < best.t ||
                        (t == best.t && best.valid() &&
                         obj_id < best.objectId)) {
                        best.t = t;
                        best.objectId = obj_id;
                    }
                }
            } else {
                std::int32_t near = idx + 1;
                std::int32_t far = node.rightOrFirst;
                if (slab.neg[node.axis])
                    std::swap(near, far);
                COTERIE_ASSERT(sp < static_cast<int>(stack.size()),
                               "BVH traversal stack overflow");
                stack[static_cast<std::size_t>(sp++)] = far;
                idx = near;
                continue;
            }
        }
        if (sp == 0)
            break;
        idx = stack[static_cast<std::size_t>(--sp)];
    }
    tlsStats.nodesVisited += visited;
    tlsStats.leafTests += leafTests;
    if (best.valid()) {
        // One full intersection for the winner fills point + normal;
        // candidates above paid only for distance.
        double t;
        Vec3 normal;
        const bool ok =
            intersectObject(ray, objects_[best.objectId], t, normal);
        COTERIE_ASSERT(ok && t == best.t,
                       "winner re-intersection diverged");
        best.point = ray.at(t);
        best.normal = normal;
    }
    return best;
}

namespace {

using support::simd::F64x4;

/** Per-node packet slab state: shared origin splatted, lane inverses. */
struct PacketSlab
{
    F64x4 ox, oy, oz;
    F64x4 invX, invY, invZ;
    F64x4 tMin;
};

/**
 * The branchless slab test of geom::slabRayHitsAabb across all packet
 * lanes at once; @p limit carries each lane's current best hit t.
 * Returns the lane mask (bit l set when lane l's slab interval is
 * non-empty — same strict `<=` as the scalar test).
 */
COTERIE_SIMD_INLINE int
packetSlabMask(const PacketSlab &s, const geom::Aabb &box, F64x4 limit)
{
    using support::simd::lanesLessEqual;
    using support::simd::vmax;
    using support::simd::vmin;
    const F64x4 tx0 = (F64x4::splat(box.lo.x) - s.ox) * s.invX;
    const F64x4 tx1 = (F64x4::splat(box.hi.x) - s.ox) * s.invX;
    const F64x4 ty0 = (F64x4::splat(box.lo.y) - s.oy) * s.invY;
    const F64x4 ty1 = (F64x4::splat(box.hi.y) - s.oy) * s.invY;
    const F64x4 tz0 = (F64x4::splat(box.lo.z) - s.oz) * s.invZ;
    const F64x4 tz1 = (F64x4::splat(box.hi.z) - s.oz) * s.invZ;
    const F64x4 tEnter = vmax(vmax(vmin(tx0, tx1), vmin(ty0, ty1)),
                              vmax(vmin(tz0, tz1), s.tMin));
    const F64x4 tExit = vmin(vmin(vmax(tx0, tx1), vmax(ty0, ty1)),
                             vmin(vmax(tz0, tz1), limit));
    return lanesLessEqual(tEnter, tExit);
}

constexpr int kPacketLanes = geom::RayPacket::kLanes;

/** What the packet kernel reads and writes; built by closestHitPacket. */
struct PacketTraversal
{
    // In: the tree and the packet.
    const Bvh::Node *nodes = nullptr;
    const std::uint32_t *items = nullptr;
    const Bvh::LeafPrim *leaf = nullptr;
    PacketSlab slab;
    Ray laneRays[kPacketLanes];
    bool neg0[3] = {}; ///< lane-0 direction signs (orders child descent)
    // In/out: each lane's best hit so far.
    double bestT[kPacketLanes] = {};
    std::uint32_t bestId[kPacketLanes] = {};
    // Out: traversal counters.
    std::uint64_t visited = 0;
    std::uint64_t leafTests = 0;
};

/**
 * The cloned half of Bvh::closestHitPacket: slab masks, leaf tests and
 * the per-lane accept rule, writing each lane's best t and object id
 * and the traversal counters. Its only arithmetic is the slab test's
 * (lo - origin) * inv, which has no multiply-add to fuse, so every
 * clone computes what the baseline code does; the winner refinement,
 * whose Ray::at would contract, stays in the uncloned caller.
 */
COTERIE_SIMD_CLONES void
traversePacket(PacketTraversal &st)
{
    std::array<std::int32_t, 128> stack;
    int sp = 0;
    std::int32_t idx = 0;
    for (;;) {
        const Bvh::Node &node = st.nodes[idx];
        ++st.visited;
        // Per-lane strict prune against each lane's own best: the node
        // is entered when any lane still needs it, and the lane mask
        // gates the leaf tests below.
        const int mask =
            packetSlabMask(st.slab, node.box, F64x4::load(st.bestT));
        if (mask != 0) {
            if (node.count > 0) {
                for (std::int32_t i = 0; i < node.count; ++i) {
                    const std::int32_t slot = node.rightOrFirst + i;
                    const std::uint32_t obj_id = st.items[slot];
                    for (int l = 0; l < kPacketLanes; ++l) {
                        if (!(mask & (1 << l)))
                            continue;
                        ++st.leafTests;
                        double t;
                        if (!leafHitT(st.laneRays[l], st.leaf[slot], t))
                            continue;
                        // Scalar accept rule per lane: equal-t ties to
                        // the lower object id; a hit exactly at
                        // pack.tMax (the initial best) stays rejected.
                        if (t < st.bestT[l] ||
                            (t == st.bestT[l] &&
                             st.bestId[l] != UINT32_MAX &&
                             obj_id < st.bestId[l])) {
                            st.bestT[l] = t;
                            st.bestId[l] = obj_id;
                        }
                    }
                }
            } else {
                // Front-to-back by lane 0's direction sign; descent
                // order only affects node visits, never results (the
                // accept rule is traversal-order independent).
                std::int32_t near = idx + 1;
                std::int32_t far = node.rightOrFirst;
                if (st.neg0[node.axis])
                    std::swap(near, far);
                COTERIE_ASSERT(sp < static_cast<int>(stack.size()),
                               "BVH traversal stack overflow");
                stack[static_cast<std::size_t>(sp++)] = far;
                idx = near;
                continue;
            }
        }
        if (sp == 0)
            break;
        idx = stack[static_cast<std::size_t>(--sp)];
    }
}

} // namespace

void
Bvh::closestHitPacket(const geom::RayPacket &pack,
                      Hit out[geom::RayPacket::kLanes]) const
{
    for (int l = 0; l < kPacketLanes; ++l) {
        out[l] = Hit{}; // same defaults as the scalar miss result
        out[l].t = pack.tMax;
    }
    if (nodes_.empty())
        return;

    PacketTraversal st;
    st.nodes = nodes_.data();
    st.items = items_.data();
    st.leaf = leaf_.data();
    st.slab.ox = F64x4::splat(pack.origin.x);
    st.slab.oy = F64x4::splat(pack.origin.y);
    st.slab.oz = F64x4::splat(pack.origin.z);
    st.slab.invX = F64x4::load(pack.invX);
    st.slab.invY = F64x4::load(pack.invY);
    st.slab.invZ = F64x4::load(pack.invZ);
    st.slab.tMin = F64x4::splat(pack.tMin);
    for (int a = 0; a < 3; ++a)
        st.neg0[a] = pack.neg0[a];
    for (int l = 0; l < kPacketLanes; ++l) {
        st.laneRays[l] = pack.lane(l);
        st.bestT[l] = pack.tMax;
        st.bestId[l] = UINT32_MAX;
    }
    traversePacket(st);
    tlsStats.nodesVisited += st.visited;
    tlsStats.leafTests += st.leafTests;

    for (int l = 0; l < kPacketLanes; ++l) {
        out[l].t = st.bestT[l];
        out[l].objectId = st.bestId[l];
        if (st.bestId[l] == UINT32_MAX)
            continue;
        // One full intersection per winning lane fills point + normal.
        double t;
        Vec3 normal;
        const bool ok = intersectObject(st.laneRays[l],
                                        objects_[st.bestId[l]], t, normal);
        COTERIE_ASSERT(ok && t == st.bestT[l],
                       "packet winner re-intersection diverged");
        out[l].point = st.laneRays[l].at(t);
        out[l].normal = normal;
    }
}

std::vector<std::uint32_t>
Bvh::queryDisc(Vec2 center, double radius) const
{
    std::vector<std::uint32_t> out;
    queryDisc(center, radius,
              [&](std::uint32_t obj_id) { out.push_back(obj_id); });
    return out;
}

Bvh::TraversalStats
Bvh::takeThreadStats()
{
    const TraversalStats stats = tlsStats;
    tlsStats = {};
    return stats;
}

} // namespace coterie::world
