#include "world/world.hh"

#include <algorithm>
#include <cmath>

#include "support/logging.hh"
#include "support/rng.hh"
#include "world/bvh.hh"

namespace coterie::world {

using geom::Rect;
using geom::Vec2;
using geom::Vec3;

VirtualWorld::VirtualWorld(std::string name, Rect bounds,
                           TerrainParams terrain, SceneType type)
    : name_(std::move(name)), bounds_(bounds), terrain_(terrain, bounds),
      type_(type)
{
    COTERIE_ASSERT(bounds.width() > 0 && bounds.height() > 0,
                   "degenerate world bounds");
}

VirtualWorld::~VirtualWorld() = default;

VirtualWorld::VirtualWorld(VirtualWorld &&other) noexcept
    : name_(std::move(other.name_)), bounds_(other.bounds_),
      terrain_(std::move(other.terrain_)), type_(other.type_),
      eyeHeight_(other.eyeHeight_), objects_(std::move(other.objects_))
{
    if (other.bvh_) {
        bvh_ = std::make_unique<Bvh>(objects_);
        other.bvh_.reset();
    }
}

VirtualWorld &
VirtualWorld::operator=(VirtualWorld &&other) noexcept
{
    if (this != &other) {
        name_ = std::move(other.name_);
        bounds_ = other.bounds_;
        terrain_ = std::move(other.terrain_);
        type_ = other.type_;
        eyeHeight_ = other.eyeHeight_;
        objects_ = std::move(other.objects_);
        bvh_.reset();
        if (other.bvh_) {
            bvh_ = std::make_unique<Bvh>(objects_);
            other.bvh_.reset();
        }
    }
    return *this;
}

std::uint32_t
VirtualWorld::addObject(WorldObject obj)
{
    COTERIE_ASSERT(!finalized(), "addObject after finalize");
    obj.id = static_cast<std::uint32_t>(objects_.size());
    objects_.push_back(obj);
    return obj.id;
}

void
VirtualWorld::finalize()
{
    COTERIE_ASSERT(!finalized(), "double finalize");
    bvh_ = std::make_unique<Bvh>(objects_);
}

const WorldObject &
VirtualWorld::object(std::uint32_t id) const
{
    COTERIE_ASSERT(id < objects_.size(), "bad object id ", id);
    return objects_[id];
}

const Bvh &
VirtualWorld::bvh() const
{
    COTERIE_ASSERT(finalized(), "world not finalized");
    return *bvh_;
}

image::Rgb
VirtualWorld::skyColor(double pitch) const
{
    if (type_ == SceneType::Indoor) {
        // Flat interior ceiling/ambient.
        return {58, 56, 60};
    }
    // Horizon-to-zenith gradient.
    const double t = std::clamp(pitch / (M_PI / 2.0), 0.0, 1.0);
    const auto mix = [](int a, int b, double f) {
        return static_cast<std::uint8_t>(a + (b - a) * f);
    };
    return {mix(190, 90, t), mix(210, 140, t), mix(235, 220, t)};
}

std::vector<std::uint32_t>
VirtualWorld::objectsWithin(Vec2 center, double radius) const
{
    return bvh().queryDisc(center, radius);
}

std::uint64_t
VirtualWorld::nearSetSignature(Vec2 center, double radius,
                               double minAngularSize) const
{
    auto ids = objectsWithin(center, radius);
    std::sort(ids.begin(), ids.end());
    std::uint64_t sig = 0x5eed;
    for (std::uint32_t id : ids) {
        const WorldObject &obj = objects_[id];
        const double dist = std::max(obj.footprint().distance(center), 1.0);
        if (obj.maxDimension() / dist < minAngularSize)
            continue;
        sig = hashCombine(sig, hashMix(id));
    }
    return sig;
}

double
VirtualWorld::trianglesWithin(Vec2 center, double radius) const
{
    // Callback query: no id-vector allocation, summed in traversal
    // order (the shared order contract of forEachObjectWithin).
    double total = terrain_.trianglesWithin(center, radius);
    forEachObjectWithin(center, radius, [&](std::uint32_t id) {
        total += objects_[id].triangles;
    });
    return total;
}

double
VirtualWorld::triangleDensity(Vec2 center, double radius) const
{
    const double area = M_PI * radius * radius;
    double object_tris = 0.0;
    forEachObjectWithin(center, radius, [&](std::uint32_t id) {
        object_tris += objects_[id].triangles;
    });
    return area > 0.0 ? object_tris / area : 0.0;
}

Vec3
VirtualWorld::eyePosition(Vec2 ground) const
{
    return geom::lift(ground, terrain_.foothold(ground) + eyeHeight_);
}

} // namespace coterie::world
