/**
 * @file
 * Ray-primitive intersection routines (sphere, box, ground plane,
 * cylinder) plus the slab test used by the BVH traversal.
 */

#pragma once

#include <algorithm>
#include <optional>

#include "geom/aabb.hh"
#include "geom/ray.hh"

namespace coterie::geom {

/** Ray vs sphere; returns hit distance t within [ray.tMin, ray.tMax]. */
std::optional<double> intersectSphere(const Ray &ray, Vec3 center,
                                      double radius);

/**
 * Ray vs axis-aligned box; returns the entry distance (or the exit
 * distance when the ray starts inside), with the outward surface normal
 * written to @p normal when non-null.
 */
std::optional<double> intersectBox(const Ray &ray, const Aabb &box,
                                   Vec3 *normal = nullptr);

/** Ray vs horizontal plane y = height. */
std::optional<double> intersectGround(const Ray &ray, double height);

/**
 * Ray vs vertical (y-axis-aligned) finite cylinder centered at
 * (center.x, *, center.z), spanning [center.y, center.y + height].
 */
std::optional<double> intersectCylinderY(const Ray &ray, Vec3 base,
                                         double radius, double height,
                                         Vec3 *normal = nullptr);

/**
 * Per-ray precomputation for repeated slab tests: the inverse direction
 * and per-axis sign, computed once per ray instead of per BVH node.
 *
 * Zero (or denormal-tiny) direction components get a huge *finite*
 * signed inverse instead of the IEEE infinity `1.0 / 0.0` would give:
 * with an infinite inverse, an origin sitting exactly on a slab plane
 * evaluates `0 * inf = NaN` and poisons the interval comparisons. A
 * finite 1e300 keeps every product NaN-free and errs on the side of
 * visiting the box — conservative, so no true hit is ever culled.
 */
struct SlabRay
{
    Vec3 origin;
    double invDir[3];
    bool neg[3]; ///< direction component is negative (orders the slabs)
    double tMin = 0.0;
    double tMax = 0.0;
};

SlabRay makeSlabRay(const Ray &ray);

/**
 * A bundle of `kLanes` rays sharing one origin and clip interval (one
 * row-batch of camera rays), stored structure-of-arrays so the BVH
 * packet traversal can run the slab test across all lanes with one
 * vector op per plane. Inverse directions follow the same
 * finite-huge-inverse rules as `makeSlabRay`, so per-lane slab results
 * are bit-identical to the scalar test.
 */
struct RayPacket
{
    static constexpr int kLanes = 4;
    Vec3 origin;
    double dirX[kLanes], dirY[kLanes], dirZ[kLanes];
    double invX[kLanes], invY[kLanes], invZ[kLanes];
    bool neg0[3]; ///< lane-0 direction signs (orders child descent)
    double tMin = 0.0;
    double tMax = 0.0;

    /** Lane @p l as a standalone ray (leaf tests, winner refinement). */
    Ray
    lane(int l) const
    {
        Ray ray;
        ray.origin = origin;
        ray.dir = {dirX[l], dirY[l], dirZ[l]};
        ray.tMin = tMin;
        ray.tMax = tMax;
        return ray;
    }
};

/** Build a packet from SoA unit directions (shared origin/interval). */
RayPacket makeRayPacket(Vec3 origin, const double *dirX,
                        const double *dirY, const double *dirZ,
                        double tMin, double tMax);

/**
 * Slab overlap test against a precomputed ray. @p tLimit caps the exit
 * distance (traversal passes min(ray.tMax, best hit t)); the test stays
 * *strict* — a box whose entry distance equals the limit is still
 * reported hit — so equal-t tie-breaking in the caller sees every
 * candidate.
 */
inline bool
slabRayHitsAabb(const SlabRay &ray, const Aabb &box, double tLimit)
{
    // Branchless min/max form: both plane distances per axis, no
    // sign selects — compiles to minsd/maxsd with no data-dependent
    // branches (the per-node `neg[]` select mispredicts badly on
    // incoherent panorama rays).
    const double tx0 = (box.lo.x - ray.origin.x) * ray.invDir[0];
    const double tx1 = (box.hi.x - ray.origin.x) * ray.invDir[0];
    const double ty0 = (box.lo.y - ray.origin.y) * ray.invDir[1];
    const double ty1 = (box.hi.y - ray.origin.y) * ray.invDir[1];
    const double tz0 = (box.lo.z - ray.origin.z) * ray.invDir[2];
    const double tz1 = (box.hi.z - ray.origin.z) * ray.invDir[2];
    const double tEnter = std::max({std::min(tx0, tx1),
                                    std::min(ty0, ty1),
                                    std::min(tz0, tz1), ray.tMin});
    const double tExit = std::min({std::max(tx0, tx1),
                                   std::max(ty0, ty1),
                                   std::max(tz0, tz1), tLimit});
    return tEnter <= tExit;
}

} // namespace coterie::geom

