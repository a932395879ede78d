#include "geom/intersect.hh"

#include <algorithm>
#include <cmath>

namespace coterie::geom {

std::optional<double>
intersectSphere(const Ray &ray, Vec3 center, double radius)
{
    const Vec3 oc = ray.origin - center;
    const double a = ray.dir.dot(ray.dir);
    const double half_b = oc.dot(ray.dir);
    const double c = oc.dot(oc) - radius * radius;
    const double disc = half_b * half_b - a * c;
    if (disc < 0.0)
        return std::nullopt;
    const double sqrt_disc = std::sqrt(disc);
    double t = (-half_b - sqrt_disc) / a;
    if (t < ray.tMin) {
        t = (-half_b + sqrt_disc) / a;
        if (t < ray.tMin)
            return std::nullopt;
    }
    if (t > ray.tMax)
        return std::nullopt;
    return t;
}

std::optional<double>
intersectBox(const Ray &ray, const Aabb &box, Vec3 *normal)
{
    double t_enter = ray.tMin;
    double t_exit = ray.tMax;
    int enter_axis = -1;
    double enter_sign = 0.0;

    const double o[3] = {ray.origin.x, ray.origin.y, ray.origin.z};
    const double d[3] = {ray.dir.x, ray.dir.y, ray.dir.z};
    const double lo[3] = {box.lo.x, box.lo.y, box.lo.z};
    const double hi[3] = {box.hi.x, box.hi.y, box.hi.z};

    for (int axis = 0; axis < 3; ++axis) {
        if (std::abs(d[axis]) < 1e-12) {
            if (o[axis] < lo[axis] || o[axis] > hi[axis])
                return std::nullopt;
            continue;
        }
        const double inv = 1.0 / d[axis];
        double t0 = (lo[axis] - o[axis]) * inv;
        double t1 = (hi[axis] - o[axis]) * inv;
        double sign = -1.0;
        if (t0 > t1) {
            std::swap(t0, t1);
            sign = 1.0;
        }
        if (t0 > t_enter) {
            t_enter = t0;
            enter_axis = axis;
            enter_sign = sign;
        }
        t_exit = std::min(t_exit, t1);
        if (t_enter > t_exit)
            return std::nullopt;
    }

    double t = t_enter;
    if (enter_axis < 0) {
        // Ray origin is inside the box; report the exit point.
        t = t_exit;
        if (t < ray.tMin || t > ray.tMax)
            return std::nullopt;
        if (normal)
            *normal = ray.dir * -1.0;
        return t;
    }
    if (normal) {
        Vec3 n{0.0, 0.0, 0.0};
        if (enter_axis == 0)
            n.x = enter_sign;
        else if (enter_axis == 1)
            n.y = enter_sign;
        else
            n.z = enter_sign;
        *normal = n;
    }
    return t;
}

std::optional<double>
intersectGround(const Ray &ray, double height)
{
    if (std::abs(ray.dir.y) < 1e-12)
        return std::nullopt;
    const double t = (height - ray.origin.y) / ray.dir.y;
    if (t < ray.tMin || t > ray.tMax)
        return std::nullopt;
    return t;
}

std::optional<double>
intersectCylinderY(const Ray &ray, Vec3 base, double radius, double height,
                   Vec3 *normal)
{
    // Solve in the (x, z) plane.
    const double ox = ray.origin.x - base.x;
    const double oz = ray.origin.z - base.z;
    const double dx = ray.dir.x;
    const double dz = ray.dir.z;
    const double a = dx * dx + dz * dz;
    const double y0 = base.y;
    const double y1 = base.y + height;

    auto side_hit = [&](double t) -> bool {
        const double y = ray.origin.y + t * ray.dir.y;
        return y >= y0 && y <= y1 && t >= ray.tMin && t <= ray.tMax;
    };

    double best = std::numeric_limits<double>::infinity();
    Vec3 best_normal;

    if (a > 1e-12) {
        const double half_b = ox * dx + oz * dz;
        const double c = ox * ox + oz * oz - radius * radius;
        const double disc = half_b * half_b - a * c;
        if (disc >= 0.0) {
            const double sq = std::sqrt(disc);
            for (double t : {(-half_b - sq) / a, (-half_b + sq) / a}) {
                if (t < best && side_hit(t)) {
                    best = t;
                    const Vec3 p = ray.at(t);
                    best_normal =
                        Vec3{p.x - base.x, 0.0, p.z - base.z}.normalized();
                    break;
                }
            }
        }
    }

    // End caps.
    for (double y_cap : {y0, y1}) {
        if (std::abs(ray.dir.y) < 1e-12)
            continue;
        const double t = (y_cap - ray.origin.y) / ray.dir.y;
        if (t < ray.tMin || t > ray.tMax || t >= best)
            continue;
        const double px = ox + t * dx;
        const double pz = oz + t * dz;
        if (px * px + pz * pz <= radius * radius) {
            best = t;
            best_normal = Vec3{0.0, y_cap == y0 ? -1.0 : 1.0, 0.0};
        }
    }

    if (!std::isfinite(best))
        return std::nullopt;
    if (normal)
        *normal = best_normal;
    return best;
}

SlabRay
makeSlabRay(const Ray &ray)
{
    SlabRay slab;
    slab.origin = ray.origin;
    slab.tMin = ray.tMin;
    slab.tMax = ray.tMax;
    const double d[3] = {ray.dir.x, ray.dir.y, ray.dir.z};
    for (int axis = 0; axis < 3; ++axis) {
        if (d[axis] == 0.0) {
            // Positive huge inverse regardless of the zero's sign: the
            // slab order must match neg[] (false), and -0.0 would flip
            // the interval if copysign were used.
            slab.invDir[axis] = 1e300;
            slab.neg[axis] = false;
            continue;
        }
        double inv = 1.0 / d[axis];
        if (!std::isfinite(inv)) // denormal direction component
            inv = std::copysign(1e300, d[axis]);
        slab.invDir[axis] = inv;
        slab.neg[axis] = d[axis] < 0.0;
    }
    return slab;
}

RayPacket
makeRayPacket(Vec3 origin, const double *dirX, const double *dirY,
              const double *dirZ, double tMin, double tMax)
{
    RayPacket pack;
    pack.origin = origin;
    pack.tMin = tMin;
    pack.tMax = tMax;
    // Same zero/denormal handling as makeSlabRay, per lane.
    const auto safeInv = [](double d) {
        if (d == 0.0)
            return 1e300;
        const double inv = 1.0 / d;
        return std::isfinite(inv) ? inv : std::copysign(1e300, d);
    };
    for (int l = 0; l < RayPacket::kLanes; ++l) {
        pack.dirX[l] = dirX[l];
        pack.dirY[l] = dirY[l];
        pack.dirZ[l] = dirZ[l];
        pack.invX[l] = safeInv(dirX[l]);
        pack.invY[l] = safeInv(dirY[l]);
        pack.invZ[l] = safeInv(dirZ[l]);
    }
    pack.neg0[0] = dirX[0] < 0.0;
    pack.neg0[1] = dirY[0] < 0.0;
    pack.neg0[2] = dirZ[0] < 0.0;
    return pack;
}

} // namespace coterie::geom
