/**
 * @file
 * 2D rectangular regions on the virtual-world ground plane, plus the
 * quadtree-subdivision math used by the adaptive cutoff partitioner.
 */

#pragma once

#include <algorithm>
#include <array>

#include "geom/vec.hh"

namespace coterie::geom {

/** Axis-aligned rectangle on the ground plane (meters). */
struct Rect
{
    Vec2 lo;
    Vec2 hi;

    constexpr Rect() = default;
    constexpr Rect(Vec2 lo_, Vec2 hi_) : lo(lo_), hi(hi_) {}

    double width() const { return hi.x - lo.x; }
    double height() const { return hi.y - lo.y; }
    double area() const { return width() * height(); }
    Vec2 center() const { return (lo + hi) * 0.5; }

    bool
    contains(Vec2 p) const
    {
        return p.x >= lo.x && p.x < hi.x && p.y >= lo.y && p.y < hi.y;
    }

    /** Containment including the top/right edges (for world bounds). */
    bool
    containsClosed(Vec2 p) const
    {
        return p.x >= lo.x && p.x <= hi.x && p.y >= lo.y && p.y <= hi.y;
    }

    bool
    overlaps(const Rect &r) const
    {
        return lo.x < r.hi.x && hi.x > r.lo.x && lo.y < r.hi.y &&
               hi.y > r.lo.y;
    }

    /**
     * Squared distance from @p p to the closest point of the
     * rectangle. Rounded subtraction, squaring and addition are
     * monotone, so it never exceeds p.distanceSq(q) for a q inside.
     */
    double
    distanceSq(Vec2 p) const
    {
        const double dx = std::max({lo.x - p.x, 0.0, p.x - hi.x});
        const double dy = std::max({lo.y - p.y, 0.0, p.y - hi.y});
        return dx * dx + dy * dy;
    }

    /** Clamp a point into the rectangle. */
    Vec2 clamp(Vec2 p) const;

    /** Split into 4 equal quadrants: [SW, SE, NW, NE]. */
    std::array<Rect, 4> quadrants() const;
};

} // namespace coterie::geom

