/**
 * @file
 * Closed-loop race track geometry shared by the racing-game world
 * generators and the track-following trajectory model.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "geom/region.hh"

namespace coterie::world::gen {

/**
 * A smooth closed loop inside a rectangle: an ellipse with seeded radial
 * wobble, arc-length parameterised for constant-speed traversal.
 */
class Track
{
  public:
    /**
     * Build a loop fitted into @p bounds with margins; @p wobble in
     * [0, 0.3] controls how non-elliptical the loop is.
     */
    Track(geom::Rect bounds, std::uint64_t seed, double wobble = 0.15);

    /** Total loop length in meters. */
    double length() const { return totalLength_; }

    /** Point at arc length @p s (wraps around). */
    geom::Vec2 pointAt(double s) const;

    /** Unit tangent at arc length @p s. */
    geom::Vec2 tangentAt(double s) const;

    /**
     * Shortest distance from @p p to the polyline's points. Scans the
     * nearest chunk first, then only the chunks whose bounding box is
     * nearer than the best point so far; the result equals the minimum
     * over every point bit for bit (rounded subtraction, squaring and
     * addition are monotone, so no point beats its chunk's box).
     */
    double distanceTo(geom::Vec2 p) const;

    /** The start/finish location (arc length 0). */
    geom::Vec2 start() const { return pointAt(0.0); }

    /** Polyline sampling of the loop (for placement along the track). */
    const std::vector<geom::Vec2> &samples() const { return points_; }

  private:
    /** Consecutive polyline points per distanceTo chunk. */
    static constexpr std::size_t kChunk = 32;

    std::vector<geom::Vec2> points_;    // dense polyline
    std::vector<double> cumLength_;     // prefix arc lengths
    double totalLength_ = 0.0;
    std::vector<geom::Rect> chunkBox_;  // bounds of each kChunk run
};

} // namespace coterie::world::gen

