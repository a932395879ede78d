/**
 * @file
 * The virtual game world: static objects + terrain + bounds, with the
 * spatial queries the Coterie pipeline needs (objects / triangles within
 * a radius, near-BE object-set signatures, density sampling).
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "geom/region.hh"
#include "image/image.hh"
#include "world/bvh.hh"
#include "world/object.hh"
#include "world/terrain.hh"

namespace coterie::world {

/** Indoor worlds render a ceiling-colored "sky" and flat floors. */
enum class SceneType { Outdoor, Indoor };

/**
 * An immutable static scene. Build with addObject() then finalize();
 * spatial queries and rendering require a finalized world.
 */
class VirtualWorld
{
  public:
    VirtualWorld(std::string name, geom::Rect bounds, TerrainParams terrain,
                 SceneType type = SceneType::Outdoor);
    ~VirtualWorld();

    /** Moves rebuild the spatial index: the BVH refers to the moved
     *  objects vector, so it cannot be transplanted wholesale. */
    VirtualWorld(VirtualWorld &&other) noexcept;
    VirtualWorld &operator=(VirtualWorld &&other) noexcept;
    VirtualWorld(const VirtualWorld &) = delete;
    VirtualWorld &operator=(const VirtualWorld &) = delete;

    const std::string &name() const { return name_; }
    const geom::Rect &bounds() const { return bounds_; }
    SceneType sceneType() const { return type_; }
    const Terrain &terrain() const { return terrain_; }

    /** Add an object (before finalize); assigns and returns its id. */
    std::uint32_t addObject(WorldObject obj);

    /** Build the spatial index; no more objects may be added after. */
    void finalize();
    bool finalized() const { return bvh_ != nullptr; }

    const std::vector<WorldObject> &objects() const { return objects_; }
    const WorldObject &object(std::uint32_t id) const;
    const Bvh &bvh() const;

    /** Sky / ceiling color for a view direction pitch in [-pi/2, pi/2]. */
    image::Rgb skyColor(double pitch) const;

    /**
     * Ids of objects whose bounds intersect the vertical cylinder of
     * @p radius around @p center — the paper's "near BE object set".
     */
    std::vector<std::uint32_t> objectsWithin(geom::Vec2 center,
                                             double radius) const;

    /**
     * Allocation-free variant: visit the ids in deterministic BVH
     * traversal order. Floating-point reductions over the visited set
     * (cost model, density sums) must all use this order so their
     * results stay mutually bit-identical.
     */
    template <typename Fn>
    void
    forEachObjectWithin(geom::Vec2 center, double radius, Fn &&fn) const
    {
        bvh().queryDisc(center, radius, std::forward<Fn>(fn));
    }

    /**
     * Order-independent signature of the *visually significant* near-BE
     * object set (frame-cache lookup criterion 3). Objects whose
     * angular size from the viewpoint is below a small threshold are
     * excluded: a clip-plane sliver of a distant barrel cannot leave a
     * visible hole after the merge, and including such objects would
     * churn the signature on every sub-centimeter move.
     */
    std::uint64_t nearSetSignature(geom::Vec2 center, double radius,
                                   double minAngularSize = 0.25) const;

    /**
     * Total triangle count within @p radius of @p center: full triangle
     * counts of intersecting objects plus tessellated terrain triangles.
     * This is the paper's object-density measure (triangles are the
     * render-cost currency).
     */
    double trianglesWithin(geom::Vec2 center, double radius) const;

    /** Object triangle density (triangles per m^2) around a point. */
    double triangleDensity(geom::Vec2 center, double radius) const;

    /** Camera eye height above the terrain foothold (meters). */
    double eyeHeight() const { return eyeHeight_; }
    void setEyeHeight(double h) { eyeHeight_ = h; }

    /** Eye position (3D) for a player standing at @p ground. */
    geom::Vec3 eyePosition(geom::Vec2 ground) const;

  private:
    std::string name_;
    geom::Rect bounds_;
    Terrain terrain_;
    SceneType type_;
    double eyeHeight_ = 1.7;
    std::vector<WorldObject> objects_;
    std::unique_ptr<Bvh> bvh_;
};

} // namespace coterie::world

