/**
 * @file
 * Render hot-path benchmark: whole-frame panorama and perspective time
 * per world, the BVH raycast alone, a per-stage panorama breakdown
 * (direction gen / raycast / terrain / shade / composite) from the
 * pipeline's stage timers, the terrain march's `heightAt` calls per ray
 * on one fixed 160x80 far-BE panorama (a deterministic count, identical
 * with and without --smoke), and the coterie-wide far-BE render de-dup
 * scenario (8 clients, pano-cache hit ratio and renders per frame).
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
#include "obs/metrics.hh"
#include "render/renderer.hh"
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
    double panoRaysPerSec = 0.0;
};

/** Time panorama + perspective frames from the world's center. */
FrameTimes
timeRenders(const world::VirtualWorld &world, int panoW, int panoH,
            int perspW, int perspH, int reps)
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
    const double pano_s = seconds([&] {
        for (int i = 0; i < reps; ++i) {
            const auto frame =
                renderer.renderPanorama(eye, panoW, panoH, opts);
            if (frame.empty())
                std::abort(); // keep the optimizer honest
        }
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

/**
 * Terrain `heightAt` calls per ray on one fixed 160x80 far-BE panorama
 * (20 m cutoff, the server's prerender shape) from the world's center,
 * read from the renderer's `terrain.height_evals` counter. The ray set
 * does not depend on the bench mode, so the count is deterministic and
 * comparable between smoke and full runs.
 */
double
heightEvalsPerRay(const world::VirtualWorld &world)
{
    constexpr int kW = 160;
    constexpr int kH = 80;
    const render::Renderer renderer(world);
    const geom::Vec3 eye = world.eyePosition(world.bounds().center());
    render::RenderOptions opts;
    opts.layer = render::DepthLayer::farBe(20.0);
    obs::Counter &evals =
        obs::MetricsRegistry::global().counter("terrain.height_evals");
    const std::uint64_t before = evals.value();
    if (renderer.renderPanorama(eye, kW, kH, opts).empty())
        std::abort();
    return static_cast<double>(evals.value() - before) / (kW * kH);
}

/**
 * Cast the full panorama ray set through the BVH alone (no shading, no
 * terrain, serial): isolates the object-raycast layer.
 */
double
raycastSeconds(const world::VirtualWorld &world, geom::Vec3 eye, int w,
               int h, int reps)
{
    const world::Bvh &bvh = world.bvh();
    double sink = 0.0;
    const double s = seconds([&] {
        for (int r = 0; r < reps; ++r) {
            for (int y = 0; y < h; ++y) {
                const double v = (y + 0.5) / h;
                for (int x = 0; x < w; ++x) {
                    const double u = (x + 0.5) / w;
                    geom::Ray ray;
                    ray.origin = eye;
                    ray.dir = render::panoramaDirection(u, v);
                    const geom::Hit hit = bvh.closestHit(ray);
                    if (hit.valid())
                        sink += hit.t;
                }
            }
        }
    });
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
            timeRenders(world, pano_w, pano_h, persp_w, persp_h, reps);
        const double ray_s = raycastSeconds(world, eye, pano_w, pano_h, reps);
        double stage_ms[kStageCount];
        stageBreakdown(world, pano_w, pano_h, stages_mode ? reps : 1,
                       stage_ms);
        const double evals_per_ray = heightEvalsPerRay(world);

        std::printf("    pano   %7.2f ms  persp %7.2f ms  rays/s %.2fM\n",
                    frame.panoMs, frame.perspMs,
                    frame.panoRaysPerSec / 1e6);
        std::printf("    pano raycast %7.2f ms\n", ray_s * 1000.0 / reps);
        std::printf("    stages ");
        for (int i = 0; i < kStageCount; ++i)
            std::printf(" %s %.1f ms%s", kStageLabels[i], stage_ms[i],
                        i + 1 < kStageCount ? "," : "\n");
        std::printf("    terrain heightAt calls/ray %.4f\n", evals_per_ray);

        // Key names continue the tracked record's columns for the same
        // measurements (the packet pipeline on the SAH tree).
        obs::Json w = obs::Json::object();
        w.set("objects", obs::Json(static_cast<std::uint64_t>(
                             world.objects().size())));
        w.set("pano_ms_packet", obs::Json(frame.panoMs));
        w.set("persp_ms_sah", obs::Json(frame.perspMs));
        w.set("pano_rays_per_s_sah", obs::Json(frame.panoRaysPerSec));
        w.set("pano_raycast_ms_new", obs::Json(ray_s * 1000.0 / reps));
        obs::Json stages = obs::Json::object();
        for (int i = 0; i < kStageCount; ++i)
            stages.set(kStageLabels[i], obs::Json(stage_ms[i]));
        w.set("pano_stage_ms", std::move(stages));
#if COTERIE_TELEMETRY_ENABLED // the count is drained through telemetry
        w.set("terrain_height_evals_per_ray", obs::Json(evals_per_ray));
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
