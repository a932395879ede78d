/**
 * @file
 * Render hot-path benchmark: whole-frame panorama and perspective time
 * per world, the codec's encode and decode times for that panorama, the
 * packet BVH raycast alone, a per-stage panorama breakdown (direction
 * gen / raycast / terrain / shade / composite) from the pipeline's stage
 * timers, the terrain march's schedule samples and `heightAt` calls per
 * ray and the encoded size of one fixed 160x80 far-BE panorama
 * (deterministic counts, identical with and without --smoke), the
 * `heightAt` calls per ray that fall outside the min/max grid on the
 * whole-frame panorama (recorded, not gated), and the coterie-wide
 * far-BE render de-dup scenario (8 clients, pano-cache hit ratio and
 * renders per frame).
 *
 * Byte equality with the per-pixel reference renderer is pinned by
 * renderer_test and terrain_test, not here. The seed-path and median-
 * tree columns in results/BENCH_render.json are history from before
 * those implementations were deleted.
 *
 * Flags:
 *   --smoke   tiny resolutions / single rep (CI perf-smoke job)
 *   --check   exit non-zero if the pano-cache scenario stops sharing
 *             renders (a deterministic count)
 *   --stages  re-run the stage breakdown with full reps and print a
 *             per-world table
 *
 * Writes results/BENCH_render.json (and ./BENCH_render.json).
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "core/partitioner.hh"
#include "core/server.hh"
#include "image/codec.hh"
#include "obs/metrics.hh"
#include "render/pipeline.hh"
#include "render/renderer.hh"
#include "support/stats.hh"
#include "world/gen/generators.hh"

namespace {

using namespace coterie;
using world::gen::GameId;

double
seconds(const std::function<void()> &fn)
{
    const auto start = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

struct FrameTimes
{
    double panoMs = 0.0; ///< per panorama frame
    double perspMs = 0.0; ///< per perspective frame
    double encodeMs = 0.0; ///< image::encode of the panorama, median
    double decodeMs = 0.0; ///< image::decode of its stream, median
    double panoRaysPerSec = 0.0;
    /** Terrain `heightAt` calls per panorama ray at points outside the
     *  min/max grid (read from `terrain.height_evals_off_grid`). */
    double offGridEvalsPerRay = 0.0;
};

/** Median wall ms of @p reps calls of @p fn, after one untimed call. */
double
medianMs(int reps, const std::function<void()> &fn)
{
    SampleSet ms;
    for (int i = -1; i < reps; ++i) { // i = -1 warms up, untimed
        const double t = 1000.0 * seconds(fn);
        if (i >= 0)
            ms.add(t);
    }
    return ms.median();
}

/** Time panorama + perspective frames from the world's center over
 *  @p reps frames, and the encode of the panorama (the server's
 *  prerender step) and the decode of its stream (the client's) as
 *  medians of @p codecReps calls: each call takes only a few ms. */
FrameTimes
timeRenders(const world::VirtualWorld &world, int panoW, int panoH,
            int perspW, int perspH, int reps, int codecReps)
{
    const render::Renderer renderer(world);
    const geom::Vec2 center = world.bounds().center();
    const geom::Vec3 eye = world.eyePosition(center);
    render::Camera camera;
    camera.position = eye;
    const render::RenderOptions opts;

    // Warm the pool and touch the tree once before timing.
    volatile std::uint8_t sink =
        renderer.renderPanorama(eye, 64, 32, opts).pixels()[0].r;
    (void)sink;

    FrameTimes out;
    obs::Counter &off_grid = obs::MetricsRegistry::global().counter(
        "terrain.height_evals_off_grid");
    const std::uint64_t off_grid_before = off_grid.value();
    image::Image pano;
    const double pano_s = seconds([&] {
        for (int i = 0; i < reps; ++i) {
            pano = renderer.renderPanorama(eye, panoW, panoH, opts);
            if (pano.empty())
                std::abort(); // keep the optimizer honest
        }
    });
    out.encodeMs = medianMs(codecReps, [&] {
        if (image::encode(pano).bytes.empty())
            std::abort();
    });
    const image::EncodedFrame encoded = image::encode(pano);
    out.decodeMs = medianMs(codecReps, [&] {
        if (image::decode(encoded).empty())
            std::abort();
    });
    const double persp_s = seconds([&] {
        for (int i = 0; i < reps; ++i) {
            const auto frame =
                renderer.renderPerspective(camera, perspW, perspH, opts);
            if (frame.empty())
                std::abort();
        }
    });
    out.panoMs = pano_s * 1000.0 / reps;
    out.perspMs = persp_s * 1000.0 / reps;
    out.panoRaysPerSec =
        static_cast<double>(panoW) * panoH * reps / pano_s;
    out.offGridEvalsPerRay =
        static_cast<double>(off_grid.value() - off_grid_before) /
        (static_cast<double>(panoW) * panoH * reps);
    return out;
}

/** Stage timer metric names, in pipeline order. */
constexpr const char *kStageNames[] = {
    "render.stage.dirs_ms", "render.stage.raycast_ms",
    "render.stage.terrain_ms", "render.stage.shade_ms",
    "render.stage.sky_ms"};
constexpr const char *kStageLabels[] = {"dirs", "raycast", "terrain",
                                        "shade", "composite"};
constexpr int kStageCount = 5;

/**
 * Per-stage panorama cost (ms/frame) via the batched pipeline's stage
 * timers: render @p reps frames with timers on, diff the registry
 * timer sums. The instrumentation is two clock reads per row per
 * stage — well under timing noise at bench resolutions.
 */
void
stageBreakdown(const world::VirtualWorld &world, int panoW, int panoH,
               int reps, double out[kStageCount])
{
    const render::Renderer renderer(world);
    const geom::Vec3 eye = world.eyePosition(world.bounds().center());
    render::RenderOptions opts;
    opts.stageTimers = true;
    obs::MetricsRegistry &registry = obs::MetricsRegistry::global();
    double before[kStageCount];
    for (int i = 0; i < kStageCount; ++i)
        before[i] = registry.timer(kStageNames[i]).snapshot().stats.sum();
    for (int r = 0; r < reps; ++r) {
        const auto frame = renderer.renderPanorama(eye, panoW, panoH, opts);
        if (frame.empty())
            std::abort();
    }
    for (int i = 0; i < kStageCount; ++i)
        out[i] = (registry.timer(kStageNames[i]).snapshot().stats.sum() -
                  before[i]) /
                 reps;
}

/** Deterministic work and size counts of the fixed far-BE panorama. */
struct FarBeCounts
{
    double marchSamplesPerRay = 0.0;
    double heightEvalsPerRay = 0.0;
    std::size_t encodedBytes = 0;
};

/**
 * One fixed 160x80 far-BE panorama (20 m cutoff, the server's
 * prerender shape) from the world's center: the terrain march's
 * schedule samples and `heightAt` calls per ray, read from the
 * renderer's `terrain.march_samples` and `terrain.height_evals`
 * counters, and the panorama's encoded size at the default codec
 * parameters. The ray set does not depend on the bench mode, so the
 * counts are deterministic and comparable between smoke and full runs.
 */
FarBeCounts
farBeCounts(const world::VirtualWorld &world)
{
    constexpr int kW = 160;
    constexpr int kH = 80;
    const render::Renderer renderer(world);
    const geom::Vec3 eye = world.eyePosition(world.bounds().center());
    render::RenderOptions opts;
    opts.layer = render::DepthLayer::farBe(20.0);
    obs::MetricsRegistry &registry = obs::MetricsRegistry::global();
    obs::Counter &samples = registry.counter("terrain.march_samples");
    obs::Counter &evals = registry.counter("terrain.height_evals");
    const std::uint64_t samples_before = samples.value();
    const std::uint64_t evals_before = evals.value();
    const image::Image pano = renderer.renderPanorama(eye, kW, kH, opts);
    if (pano.empty())
        std::abort();
    FarBeCounts out;
    out.marchSamplesPerRay =
        static_cast<double>(samples.value() - samples_before) / (kW * kH);
    out.heightEvalsPerRay =
        static_cast<double>(evals.value() - evals_before) / (kW * kH);
    out.encodedBytes = image::encode(pano).sizeBytes();
    return out;
}

/**
 * Cast the full panorama ray set through the BVH alone, serial and at
 * full depth: each row's directions from `panoramaRowDirs`, then the
 * 4-ray packets of `raycastRow`, the path frames take. Only the
 * `raycastRow` calls are timed. Isolates the object-raycast layer.
 */
double
raycastSeconds(const world::VirtualWorld &world, geom::Vec3 eye, int w,
               int h, int reps)
{
    const render::RenderOptions opts;
    const render::detail::PanoramaYaw yaw = render::detail::panoramaYaw(w);
    render::detail::RowBuffers rows;
    rows.resize(w);
    double sink = 0.0;
    double s = 0.0;
    for (int r = 0; r < reps; ++r) {
        for (int y = 0; y < h; ++y) {
            render::detail::panoramaRowDirs(y, h, yaw, rows);
            s += seconds([&] {
                render::detail::raycastRow(world, eye, opts, w, rows);
            });
            for (int x = 0; x < w; ++x) {
                const geom::Hit &hit = rows.objHit[static_cast<std::size_t>(x)];
                if (hit.valid())
                    sink += hit.t;
            }
        }
    }
    if (sink < 0.0)
        std::abort(); // keep the optimizer honest
    return s;
}

/**
 * 8-client far-BE scenario: four position pairs, each pair inside one
 * quantization cell, sent to the pano cache as one batch — measures
 * how many actual renders it performs (fanned out over the pool) and
 * its hit ratio.
 */
obs::Json
panoCacheScenario(const world::VirtualWorld &world, int width, int height)
{
    const world::GridMap grid =
        world::gen::makeGrid(world::gen::gameInfo(GameId::Viking));
    const auto partition = core::partitionWorld(world, device::pixel2(), {});
    const core::RegionIndex regions(world.bounds(), partition.leaves);
    const core::FrameStore frames(world, grid, regions);
    core::PanoramaRenderCache cache(256ull << 20);

    const double thresh = 8.0;
    const double pitch = std::max(thresh, grid.spacing());
    const geom::Rect &b = world.bounds();
    std::vector<geom::Vec2> clients;
    for (int pair = 0; pair < 4; ++pair) {
        const double cx = b.lo.x + (2.0 * pair + 2.25) * pitch;
        const double cy = b.lo.y + 2.25 * pitch;
        clients.push_back({cx, cy});
        clients.push_back({cx + 0.4 * pitch, cy + 0.4 * pitch});
    }

    std::vector<core::FrameStore::FarBeLookup> lookups;
    std::vector<core::PanoRequest> requests;
    for (const geom::Vec2 &pos : clients) {
        lookups.push_back(frames.farBeLookup(pos, thresh, width, height));
        requests.push_back({lookups.back().key});
    }
    const double wall_s = seconds([&] {
        cache.serveBatch(requests, [&](std::size_t i) {
            return frames.renderFarBe(lookups[i], /*threads=*/1);
        });
    });

    const core::PanoCacheStats stats = cache.stats();
    const double served = static_cast<double>(stats.hits + stats.misses);
    obs::Json out = obs::Json::object();
    out.set("clients",
            obs::Json(static_cast<std::uint64_t>(clients.size())));
    out.set("renders", obs::Json(stats.misses));
    out.set("hits", obs::Json(stats.hits));
    out.set("hit_ratio",
            obs::Json(served > 0.0
                          ? (served - stats.misses) / served
                          : 0.0));
    out.set("renders_per_frame",
            obs::Json(static_cast<double>(stats.misses) /
                      static_cast<double>(clients.size())));
    out.set("wall_s", obs::Json(wall_s));
    std::printf("  pano-cache: %zu clients -> %llu renders "
                "(%.0f%% cache-served), %.2f renders/frame\n",
                clients.size(),
                static_cast<unsigned long long>(stats.misses),
                100.0 * (served - stats.misses) / served,
                static_cast<double>(stats.misses) / clients.size());
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    bool check = false;
    bool stages_mode = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "--check") == 0)
            check = true;
        else if (std::strcmp(argv[i], "--stages") == 0)
            stages_mode = true;
    }

    bench::banner("Render hot path: frame times, stage breakdown + "
                  "far-BE de-dup",
                  "the renderer behind Tables 6-8");

    const int pano_w = smoke ? 160 : 512;
    const int pano_h = smoke ? 80 : 256;
    const int persp_w = smoke ? 128 : 320;
    const int persp_h = smoke ? 96 : 240;
    const int reps = smoke ? 1 : 3;
    const int codec_reps = smoke ? 1 : 25;

    const struct
    {
        GameId id;
        const char *name;
    } games[] = {{GameId::Racing, "racing"},
                 {GameId::CTS, "cts"},
                 {GameId::Viking, "viking"}};

    obs::Json worlds = obs::Json::object();
    double total_pano_ms = 0.0;
    for (const auto &game : games) {
        const world::VirtualWorld world = world::gen::makeWorld(game.id, 42);
        std::printf("\n  %s (%zu objects)\n", game.name,
                    world.objects().size());

        const geom::Vec3 eye = world.eyePosition(world.bounds().center());
        const FrameTimes frame =
            timeRenders(world, pano_w, pano_h, persp_w, persp_h, reps,
                        codec_reps);
        const double ray_s = raycastSeconds(world, eye, pano_w, pano_h, reps);
        double stage_ms[kStageCount];
        stageBreakdown(world, pano_w, pano_h, stages_mode ? reps : 1,
                       stage_ms);
        const FarBeCounts far_be = farBeCounts(world);

        std::printf("    pano   %7.2f ms  persp %7.2f ms  rays/s %.2fM\n",
                    frame.panoMs, frame.perspMs,
                    frame.panoRaysPerSec / 1e6);
        std::printf("    pano encode %7.2f ms, decode %7.2f ms; far-BE "
                    "160x80 encodes to %zu bytes\n",
                    frame.encodeMs, frame.decodeMs, far_be.encodedBytes);
        std::printf("    pano raycast (packets) %7.2f ms\n",
                    ray_s * 1000.0 / reps);
        std::printf("    stages ");
        for (int i = 0; i < kStageCount; ++i)
            std::printf(" %s %.1f ms%s", kStageLabels[i], stage_ms[i],
                        i + 1 < kStageCount ? "," : "\n");
        std::printf("    terrain march samples/ray %.4f, heightAt calls/ray "
                    "%.4f (far-BE), %.4f off the grid (full depth)\n",
                    far_be.marchSamplesPerRay, far_be.heightEvalsPerRay,
                    frame.offGridEvalsPerRay);

        // Key names continue the tracked record's columns for the same
        // measurements (the packet pipeline on the SAH tree).
        obs::Json w = obs::Json::object();
        w.set("objects", obs::Json(static_cast<std::uint64_t>(
                             world.objects().size())));
        w.set("pano_ms_packet", obs::Json(frame.panoMs));
        w.set("persp_ms_sah", obs::Json(frame.perspMs));
        w.set("pano_rays_per_s_sah", obs::Json(frame.panoRaysPerSec));
        w.set("pano_raycast_ms_packet", obs::Json(ray_s * 1000.0 / reps));
        w.set("encode_ms", obs::Json(frame.encodeMs));
        w.set("decode_ms", obs::Json(frame.decodeMs));
        w.set("encoded_bytes", obs::Json(static_cast<std::uint64_t>(
                                   far_be.encodedBytes)));
        obs::Json stages = obs::Json::object();
        for (int i = 0; i < kStageCount; ++i)
            stages.set(kStageLabels[i], obs::Json(stage_ms[i]));
        w.set("pano_stage_ms", std::move(stages));
#if COTERIE_TELEMETRY_ENABLED // the count is drained through telemetry
        w.set("terrain_march_samples_per_ray",
              obs::Json(far_be.marchSamplesPerRay));
        w.set("terrain_height_evals_per_ray",
              obs::Json(far_be.heightEvalsPerRay));
        w.set("terrain_off_grid_evals_per_ray",
              obs::Json(frame.offGridEvalsPerRay));
#endif
        worlds.set(game.name, std::move(w));
        total_pano_ms += frame.panoMs;
    }

    std::printf("\n  8-client far-BE de-dup (viking)\n");
    const world::VirtualWorld viking =
        world::gen::makeWorld(GameId::Viking, 42);
    obs::Json cache = panoCacheScenario(viking, smoke ? 64 : 192,
                                        smoke ? 32 : 96);
    const double hit_ratio = cache.at("hit_ratio").asNumber();

    obs::Json doc = obs::Json::object();
    doc.set("smoke", obs::Json(smoke));
    doc.set("hardware_concurrency",
            obs::Json(static_cast<std::uint64_t>(
                std::thread::hardware_concurrency())));
    doc.set("pano_w", obs::Json(static_cast<std::uint64_t>(pano_w)));
    doc.set("pano_h", obs::Json(static_cast<std::uint64_t>(pano_h)));
    doc.set("reps", obs::Json(static_cast<std::uint64_t>(reps)));
    doc.set("codec_reps",
            obs::Json(static_cast<std::uint64_t>(codec_reps)));
    doc.set("worlds", std::move(worlds));
    doc.set("pano_cache", std::move(cache));
    doc.set("total_pano_ms_packet", obs::Json(total_pano_ms));
    bench::writeBenchJson("render", doc);

    std::printf("\n  total pano: %.2f ms\n", total_pano_ms);

    // The de-dup scenario is deterministic: four pairs of clients, each
    // pair inside one quantization cell, so exactly half the frames are
    // served from the cache.
    if (check && hit_ratio < 0.5) {
        std::printf("  CHECK FAILED: pano-cache hit ratio %.3f < 0.5\n",
                    hit_ratio);
        return 1;
    }
    return 0;
}
