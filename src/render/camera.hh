/**
 * @file
 * Camera poses and projection descriptions for the two render modes:
 * perspective FoV frames (what the player sees) and equirectangular
 * panoramas (what the server pre-renders per grid point, croppable to
 * any head orientation at no cost — the Furion/Coterie trick).
 */

#pragma once

#include "geom/vec.hh"

namespace coterie::render {

struct CameraRowBasis;

/** A positioned, oriented perspective camera. */
struct Camera
{
    geom::Vec3 position;
    double yaw = 0.0;    ///< radians, 0 = +x, counter-clockwise
    double pitch = 0.0;  ///< radians, positive looks up
    double fovY = 1.815; ///< ~104 degrees vertical (Daydream-like)

    /** World-space ray direction through normalized screen coords
     *  (sx, sy) in [-1, 1] with aspect ratio @p aspect. */
    geom::Vec3 rayDirection(double sx, double sy, double aspect) const;

    /**
     * Hoist the per-frame and per-row terms of `rayDirection` for a
     * fixed screen row sy: the FoV tangent, the camera basis vectors,
     * and the pitched y/z components, leaving only the sx-dependent
     * work per pixel. `basis.direction(sx)` reproduces
     * `rayDirection(sx, sy, aspect)` bit-for-bit.
     */
    CameraRowBasis rowBasis(double sy, double aspect) const;
};

/** See Camera::rowBasis. */
struct CameraRowBasis
{
    geom::Vec3 right, up, forward;
    double tanHalf = 0.0;
    double aspect = 1.0;
    double pitchedY = 0.0; ///< camera-space y after pitch rotation
    double pitchedZ = 0.0; ///< camera-space z after pitch rotation

    geom::Vec3
    direction(double sx) const
    {
        // Same evaluation order as rayDirection: pitched.x is
        // sx * tan_half * aspect, summed right/up/forward.
        return (right * (sx * tanHalf * aspect) + up * pitchedY +
                forward * pitchedZ)
            .normalized();
    }
};

/** Direction for an equirectangular panorama texel. u,v in [0,1). */
geom::Vec3 panoramaDirection(double u, double v);

/**
 * Per-row constants of `panoramaDirection` for a fixed v: one pitch
 * sin/cos pair serves a whole texel row. With the yaw's cos/sin,
 * `{cp * cos(yaw), sp, cp * sin(yaw)}` reproduces
 * `panoramaDirection(u, v)` bit-for-bit.
 */
struct PanoramaRowBasis
{
    double cp = 1.0; ///< cos(pitch)
    double sp = 0.0; ///< sin(pitch)
};

/** See PanoramaRowBasis. */
PanoramaRowBasis panoramaRowBasis(double v);

/** Inverse mapping: direction -> (u, v) in the panorama. */
void directionToPanoramaUv(geom::Vec3 dir, double &u, double &v);

} // namespace coterie::render

