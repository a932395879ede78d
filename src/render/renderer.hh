/**
 * @file
 * Software ray-casting renderer.
 *
 * Produces real RGB frames from a VirtualWorld in two projections:
 * perspective FoV frames and equirectangular panoramas. Depth-interval
 * clipping implements the paper's near/far BE decoupling: near BE is the
 * scene with the far clip plane at the cutoff radius; far BE is the
 * scene from the cutoff radius outward. The "near-object" effect — the
 * core observation of the paper — emerges from perspective projection.
 */

#pragma once

#include <limits>

#include "image/image.hh"
#include "render/camera.hh"
#include "world/world.hh"

namespace coterie::render {

/** Which depth layer of the scene to render. */
struct DepthLayer
{
    double nearClip = 0.05;
    double farClip = std::numeric_limits<double>::infinity();

    /** The whole scene (whole-BE rendering, Furion-style). */
    static DepthLayer whole() { return {}; }

    /** Near BE: everything closer than the cutoff radius. */
    static DepthLayer
    nearBe(double cutoffRadius)
    {
        return {0.05, cutoffRadius};
    }

    /** Far BE: everything from the cutoff radius outward. */
    static DepthLayer
    farBe(double cutoffRadius)
    {
        return {cutoffRadius, std::numeric_limits<double>::infinity()};
    }
};

/** Rendering options. */
struct RenderOptions
{
    DepthLayer layer = DepthLayer::whole();
    /** Pixels whose nearest hit is clipped out become transparent-key
     *  color (used when merging near over far). */
    image::Rgb clipKey{255, 0, 255};
    /** Maximum terrain ray-march distance. */
    double terrainMaxDist = 2000.0;
    /** Enable sun shading (outdoor) / headroom ambient (indoor). */
    bool shading = true;
    /**
     * Procedural surface texture. Real game content carries
     * high-frequency texture; without it, SSIM between shifted frames
     * stays unrealistically high and the near-object effect vanishes.
     * Texture is sampled mip-filtered: the sample cell grows with the
     * pixel's world-space footprint (distance * pixelAngle), exactly
     * like trilinear mip-mapping, so distant surfaces stay stable
     * under small camera moves while near surfaces decorrelate.
     */
    bool texture = true;
    double textureScale = 0.02;   ///< finest texel size (m)
    double textureStrength = 0.5; ///< amplitude of the modulation
    /**
     * Angular size of one pixel (radians); set by renderPanorama /
     * renderPerspective from the output resolution.
     */
    double pixelAngleRad = 0.01;
    /**
     * Threading: 0 = the shared `support::ThreadPool` (sized by
     * `COTERIE_THREADS`, else hardware concurrency), 1 = serial on the
     * calling thread. Frames are byte-identical either way.
     */
    int threads = 0;
    /**
     * Record per-stage wall-clock into the `render.stage.*_ms` metrics
     * registry timers (bench_render --stages).
     */
    bool stageTimers = false;
};

/** Renderer over a finalized world. */
class Renderer
{
  public:
    explicit Renderer(const world::VirtualWorld &world) : world_(world) {}

    /** Render a perspective FoV frame. */
    image::Image renderPerspective(const Camera &camera, int width,
                                   int height,
                                   const RenderOptions &opts = {}) const;

    /**
     * Render an equirectangular panorama from an eye position (the
     * server's pre-rendered frame format).
     */
    image::Image renderPanorama(geom::Vec3 eye, int width, int height,
                                const RenderOptions &opts = {}) const;

    /**
     * Composite a near-BE frame over a far-BE frame: near pixels that
     * are not the clip key win (the client's per-frame "merge" task).
     */
    static image::Image merge(const image::Image &nearLayer,
                              const image::Image &farLayer,
                              image::Rgb clipKey = {255, 0, 255});

  private:
    const world::VirtualWorld &world_;
};

/**
 * Crop a FoV view out of a panorama by resampling (the client-side
 * "crop far BE from SphereTexture" step).
 */
image::Image cropPanoramaToView(const image::Image &panorama,
                                const Camera &camera, int width, int height);

} // namespace coterie::render

