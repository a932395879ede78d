#include "render/renderer.hh"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "render/pipeline.hh"
#include "support/logging.hh"
#include "support/parallel.hh"
#include "world/bvh.hh"
#include "world/terrain.hh"

namespace coterie::render {

using geom::Vec3;
using image::Image;
using image::Rgb;

namespace {

/**
 * Run @p fn(row) over [0, rows) on the shared thread pool. Rows write
 * disjoint pixels, so any chunking is deterministic.
 */
template <typename Fn>
void
parallelRows(int rows, Fn &&fn)
{
    support::parallelFor(0, rows, 4, [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t y = b; y < e; ++y)
            fn(static_cast<int>(y));
    });
}

/**
 * The frame body of renderPanorama and renderPerspective: chunked rows
 * through the staged pipeline with per-chunk scratch buffers. Each
 * chunk discards BVH and terrain-march counts a previous (non-render)
 * caller left on its thread, then drains what its rays accumulated
 * into `bvh.*` and `terrain.*` — one registry add per chunk, nothing
 * per ray. @p dirFn runs stage 1 (projection-specific direction
 * generation) for a row.
 */
template <typename DirFn>
void
batchedFrame(const world::VirtualWorld &world, Vec3 origin,
             const RenderOptions &opts, int width, int height,
             Image &frame, DirFn &&dirFn)
{
    support::parallelFor(
        0, height, 4,
        [&](std::int64_t b, std::int64_t e) {
            COTERIE_SPAN("render.rows", "render");
            COTERIE_COUNT_N("render.rows", e - b);
            world::Bvh::takeThreadStats();
            world::Terrain::takeThreadStats();
            detail::RowBuffers rows;
            rows.resize(width);
            const detail::StageTimers timers{opts.stageTimers};
            for (std::int64_t row = b; row < e; ++row) {
                const int y = static_cast<int>(row);
                timers.run("render.stage.dirs_ms",
                           [&] { dirFn(y, rows); });
                timers.run("render.stage.raycast_ms", [&] {
                    detail::raycastRow(world, origin, opts, width, rows);
                });
                timers.run("render.stage.terrain_ms", [&] {
                    detail::terrainRow(world, origin, opts, width, rows);
                });
                timers.run("render.stage.shade_ms", [&] {
                    detail::shadeRow(world, origin, opts, width, rows);
                });
                timers.run("render.stage.sky_ms", [&] {
                    detail::compositeRow(world, opts, width, rows,
                                         &frame.at(0, y));
                });
            }
            const world::Bvh::TraversalStats stats =
                world::Bvh::takeThreadStats();
            COTERIE_COUNT_N("bvh.nodes_visited", stats.nodesVisited);
            COTERIE_COUNT_N("bvh.leaf_tests", stats.leafTests);
            const world::Terrain::MarchStats march =
                world::Terrain::takeThreadStats();
            COTERIE_COUNT_N("terrain.march_samples", march.marchSamples);
            COTERIE_COUNT_N("terrain.height_evals", march.heightEvals);
            COTERIE_COUNT_N("terrain.height_evals_off_grid",
                            march.offGridEvals);
        },
        opts.threads);
}

/**
 * Emit cumulative `bvh.*` and `terrain.*` counter tracks after a frame
 * so traces carry the traversal-cost trajectory (trace_report folds
 * them into its render section). Cheap no-op unless a trace is
 * recording.
 */
void
traceRenderCounters()
{
    obs::TraceRecorder &recorder = obs::TraceRecorder::global();
    if (!recorder.enabled())
        return;
    obs::MetricsRegistry &registry = obs::MetricsRegistry::global();
    for (const char *name : {"bvh.nodes_visited", "bvh.leaf_tests",
                             "terrain.march_samples",
                             "terrain.height_evals",
                             "terrain.height_evals_off_grid"})
        recorder.counter(name,
                         static_cast<double>(registry.counter(name).value()));
}

} // namespace

Image
Renderer::renderPerspective(const Camera &camera, int width, int height,
                            const RenderOptions &opts) const
{
    COTERIE_SPAN("render.perspective", "render");
    COTERIE_TIMER_SCOPE("render.perspective_ms");
    COTERIE_COUNT("render.perspective_frames");
    Image frame(width, height);
    const double aspect =
        static_cast<double>(width) / static_cast<double>(height);
    RenderOptions local = opts;
    local.pixelAngleRad = camera.fovY / static_cast<double>(height);
    batchedFrame(world_, camera.position, local, width, height, frame,
                 [&](int y, detail::RowBuffers &rows) {
                     detail::perspectiveRowDirs(camera, aspect, y, width,
                                                height, rows);
                 });
    traceRenderCounters();
    return frame;
}

Image
Renderer::renderPanorama(Vec3 eye, int width, int height,
                         const RenderOptions &opts) const
{
    COTERIE_SPAN("render.panorama", "render");
    COTERIE_TIMER_SCOPE("render.panorama_ms");
    COTERIE_COUNT("render.panorama_frames");
    Image frame(width, height);
    RenderOptions local = opts;
    local.pixelAngleRad = M_PI / static_cast<double>(height);
    const detail::PanoramaYaw yaw = detail::panoramaYaw(width);
    batchedFrame(world_, eye, local, width, height, frame,
                 [&](int y, detail::RowBuffers &rows) {
                     detail::panoramaRowDirs(y, height, yaw, rows);
                 });
    traceRenderCounters();
    return frame;
}

Image
Renderer::merge(const Image &nearLayer, const Image &farLayer, Rgb clipKey)
{
    COTERIE_ASSERT(nearLayer.width() == farLayer.width() &&
                   nearLayer.height() == farLayer.height(),
                   "merge size mismatch");
    Image out = farLayer;
    // Rows write disjoint pixels and read immutable inputs, so pool
    // chunking keeps the result byte-identical to the serial loop.
    parallelRows(out.height(), [&](int y) {
        for (int x = 0; x < out.width(); ++x) {
            const Rgb p = nearLayer.at(x, y);
            if (!(p == clipKey))
                out.at(x, y) = p;
        }
    });
    return out;
}

Image
cropPanoramaToView(const Image &panorama, const Camera &camera, int width,
                   int height)
{
    Image out(width, height);
    const double aspect =
        static_cast<double>(width) / static_cast<double>(height);
    // Bilinear texture sampling (what the GPU's SphereTexture lookup
    // does); yaw wraps around, pitch clamps at the poles.
    const int pw = panorama.width();
    const int ph = panorama.height();
    auto sample = [&](double u, double v) {
        const double fx = u * pw - 0.5;
        const double fy = v * ph - 0.5;
        const auto x0 = static_cast<int>(std::floor(fx));
        const auto y0 = static_cast<int>(std::floor(fy));
        const double tx = fx - x0;
        const double ty = fy - y0;
        auto texel = [&](int x, int y) -> const Rgb & {
            const int xw = ((x % pw) + pw) % pw;
            const int yc = std::clamp(y, 0, ph - 1);
            return panorama.at(xw, yc);
        };
        const Rgb &c00 = texel(x0, y0);
        const Rgb &c10 = texel(x0 + 1, y0);
        const Rgb &c01 = texel(x0, y0 + 1);
        const Rgb &c11 = texel(x0 + 1, y0 + 1);
        auto mix = [&](std::uint8_t a, std::uint8_t b, std::uint8_t c,
                       std::uint8_t d) {
            const double top = a * (1.0 - tx) + b * tx;
            const double bot = c * (1.0 - tx) + d * tx;
            return static_cast<std::uint8_t>(
                std::clamp(top * (1.0 - ty) + bot * ty, 0.0, 255.0));
        };
        return Rgb{mix(c00.r, c10.r, c01.r, c11.r),
                   mix(c00.g, c10.g, c01.g, c11.g),
                   mix(c00.b, c10.b, c01.b, c11.b)};
    };
    // Per-pixel work is pure resampling; rows are independent, so the
    // pool-chunked result is byte-identical to the serial loop.
    parallelRows(height, [&](int y) {
        const double sy = 1.0 - 2.0 * (y + 0.5) / height;
        for (int x = 0; x < width; ++x) {
            const double sx = 2.0 * (x + 0.5) / width - 1.0;
            const Vec3 dir = camera.rayDirection(sx, sy, aspect);
            double u, v;
            directionToPanoramaUv(dir, u, v);
            out.at(x, y) = sample(u, v);
        }
    });
    return out;
}

} // namespace coterie::render
