/**
 * @file
 * Serial-vs-pooled wall-clock baseline for the parallel frame pipeline
 * and the parallel discrete-event engine.
 *
 * Runs the two workloads the perf trajectory is tracked on — a Viking
 * adaptive-cutoff partition and a 64-frame panorama trace sweep
 * (render + encode-path SSIM between consecutive frames) — once with
 * every stage forced serial and once through the shared thread pool,
 * plus the SSIM kernel old-vs-new microcomparison, plus a sim-engine
 * thread sweep: the bench_fleet 32x4 leg through the lane engine at
 * COTERIE_THREADS=1/2/4/8 (DESIGN.md §12), reporting events/sec and
 * wall seconds per simulated second. Every thread count must match the
 * 1-thread run exactly on events, deliveries and renders. The pool is
 * sized once at process start, so each sweep point re-executes this
 * binary with COTERIE_THREADS pinned (--sim-child).
 * Everything lands in results/BENCH_parallel.json.
 *
 * `--check` turns the degenerate-pool condition into a hard failure:
 * on a hardware_concurrency == 1 machine every "pooled" and "lane"
 * number is serial by construction, and recording such a run as a
 * multi-core trajectory would poison the history.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "core/fleet.hh"
#include "core/partitioner.hh"
#include "image/ssim.hh"
#include "render/renderer.hh"
#include "support/parallel.hh"
#include "support/rng.hh"
#include "world/gen/generators.hh"

namespace {

using namespace coterie;

double
seconds(const std::function<void()> &fn)
{
    const auto start = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

/** Viking adaptive-cutoff partition (threads: 1 = serial, 0 = pool). */
double
partitionSeconds(const world::VirtualWorld &world, int threads)
{
    core::PartitionParams params;
    params.threads = threads;
    return seconds([&] {
        const auto result =
            core::partitionWorld(world, device::pixel2(), params);
        if (result.leaves.empty())
            std::abort(); // keep the optimizer honest
    });
}

/**
 * 64-frame trace sweep: walk a straight line through the world,
 * rendering a far-BE-style panorama per step and scoring SSIM between
 * consecutive frames — the hot loop of every similarity experiment.
 */
double
traceSweepSeconds(const world::VirtualWorld &world, int threads)
{
    constexpr int kFrames = 64;
    constexpr int kWidth = 256, kHeight = 128;
    const render::Renderer renderer(world);
    render::RenderOptions opts;
    opts.threads = threads;
    image::SsimParams ssimParams;
    ssimParams.threads = threads;
    const geom::Rect &b = world.bounds();
    return seconds([&] {
        image::Image prev;
        double acc = 0.0;
        for (int i = 0; i < kFrames; ++i) {
            const double t = (i + 0.5) / kFrames;
            const geom::Vec2 p{b.lo.x + t * b.width(),
                               b.lo.y + 0.5 * b.height()};
            image::Image frame = renderer.renderPanorama(
                world.eyePosition(p), kWidth, kHeight, opts);
            if (i > 0)
                acc += image::ssim(prev, frame, ssimParams);
            prev = std::move(frame);
        }
        if (acc < 0.0)
            std::abort();
    });
}

image::Image
noiseImage(int w, int h, std::uint64_t seed)
{
    image::Image img(w, h);
    Rng rng(seed);
    for (auto &p : img.pixels())
        p = {static_cast<std::uint8_t>(rng.uniformInt(0, 255)),
             static_cast<std::uint8_t>(rng.uniformInt(0, 255)),
             static_cast<std::uint8_t>(rng.uniformInt(0, 255))};
    return img;
}

// --- Sim-engine thread sweep ----------------------------------------

/** One sweep-point measurement, parsed back from a --sim-child run. */
struct SimRun
{
    bool ok = false;
    std::uint64_t events = 0;
    std::uint64_t deliveries = 0;
    std::uint64_t renders = 0;
    double wallS = 0.0;
    double horizonMs = 0.0;

    double eventsPerSec() const
    {
        return wallS > 0.0 ? static_cast<double>(events) / wallS : 0.0;
    }
    double wallPerSimS() const
    {
        return horizonMs > 0.0 ? wallS / (horizonMs / 1000.0) : 0.0;
    }
};

/**
 * The measured workload: the bench_fleet sweep leg (sessions x players
 * over one shared world + pano cache, renderOnFetch so barriers carry
 * real render batches).
 */
SimRun
runSimLeg(int sessions, int players, double durationS, int renderW,
          int renderH)
{
    using namespace coterie::core;
    FleetCapacity cap;
    cap.maxSessions = sessions;
    cap.maxClients = sessions * players;
    SessionManager mgr(cap);

    SessionParams sp;
    sp.players = players;
    sp.durationS = durationS;
    sp.seed = 42;
    sp.calibrateSimilarity = false;
    const auto base = Session::create(world::gen::GameId::Viking, sp);

    const int routes = (sessions + 1) / 2;
    for (int i = 0; i < sessions; ++i) {
        FleetSessionSpec spec;
        spec.base = base.get();
        spec.traceSeed = 1000 + static_cast<std::uint64_t>(i % routes);
        spec.renderOnFetch = true;
        spec.renderWidth = renderW;
        spec.renderHeight = renderH;
        mgr.submit(spec);
    }

    SimRun run;
    const auto t0 = std::chrono::steady_clock::now();
    const FleetResult fleet = mgr.run();
    const auto t1 = std::chrono::steady_clock::now();
    run.ok = true;
    run.wallS = std::chrono::duration<double>(t1 - t0).count();
    run.events = mgr.queue().executedEvents();
    run.horizonMs = fleet.horizonMs;
    for (const auto &s : fleet.sessions) {
        run.renders += s.fleetRenders;
        for (const auto &p : s.result.players)
            run.deliveries += p.framesFetched;
    }
    if (std::getenv("COTERIE_SIM_DUMP") != nullptr) {
        for (const auto &s : fleet.sessions) {
            std::uint64_t fetched = 0, displayed = 0, retries = 0,
                          timeouts = 0;
            for (const auto &p : s.result.players) {
                fetched += p.framesFetched;
                displayed += p.framesDisplayed;
                retries += p.netRetries;
                timeouts += p.netTimeouts;
            }
            std::fprintf(stderr,
                         "SIMDUMP id=%u phase=%d renders=%llu "
                         "fetched=%llu displayed=%llu retries=%llu "
                         "timeouts=%llu finished=%.6f\n",
                         s.id, static_cast<int>(s.phase),
                         static_cast<unsigned long long>(s.fleetRenders),
                         static_cast<unsigned long long>(fetched),
                         static_cast<unsigned long long>(displayed),
                         static_cast<unsigned long long>(retries),
                         static_cast<unsigned long long>(timeouts),
                         s.finishedAtMs);
        }
    }
    return run;
}

/** Child mode: run one leg and print a machine-readable result line. */
int
simChildMain(int argc, char **argv)
{
    if (argc != 7) {
        std::fprintf(stderr, "usage: --sim-child S P DUR W H\n");
        return 2;
    }
    const int sessions = std::atoi(argv[2]);
    const int players = std::atoi(argv[3]);
    const double durationS = std::atof(argv[4]);
    const int renderW = std::atoi(argv[5]);
    const int renderH = std::atoi(argv[6]);
    const SimRun run =
        runSimLeg(sessions, players, durationS, renderW, renderH);
    std::printf("SIMCHILD events=%llu deliveries=%llu renders=%llu "
                "wall_s=%.9f horizon_ms=%.6f\n",
                static_cast<unsigned long long>(run.events),
                static_cast<unsigned long long>(run.deliveries),
                static_cast<unsigned long long>(run.renders), run.wallS,
                run.horizonMs);
    return 0;
}

/** Re-exec this binary with COTERIE_THREADS pinned and parse back. */
SimRun
runSimChild(const char *self, int threads, int sessions, int players,
            double durationS, int renderW, int renderH)
{
    char cmd[512];
    std::snprintf(cmd, sizeof cmd,
                  "COTERIE_THREADS=%d '%s' --sim-child %d %d %.3f %d %d",
                  threads, self, sessions, players, durationS, renderW,
                  renderH);
    SimRun run;
    std::FILE *pipe = popen(cmd, "r");
    if (!pipe) {
        std::fprintf(stderr, "  sim sweep: cannot spawn '%s'\n", cmd);
        return run;
    }
    char line[256];
    while (std::fgets(line, sizeof line, pipe)) {
        unsigned long long events = 0, deliveries = 0, renders = 0;
        double wallS = 0.0, horizonMs = 0.0;
        if (std::sscanf(line,
                        "SIMCHILD events=%llu deliveries=%llu "
                        "renders=%llu wall_s=%lf horizon_ms=%lf",
                        &events, &deliveries, &renders, &wallS,
                        &horizonMs) == 5) {
            run.ok = true;
            run.events = events;
            run.deliveries = deliveries;
            run.renders = renders;
            run.wallS = wallS;
            run.horizonMs = horizonMs;
        }
    }
    if (pclose(pipe) != 0)
        run.ok = false;
    return run;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "--sim-child") == 0)
        return simChildMain(argc, argv);

    bool smoke = false;
    bool check = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "--check") == 0)
            check = true;
    }

    const auto world = world::gen::makeWorld(world::gen::GameId::Viking, 42);

    bool ok = true;
    const unsigned hardware = std::thread::hardware_concurrency();
    std::printf("BENCH_parallel: serial vs pooled wall-clock "
                "(pool lanes: %d, hardware_concurrency: %u)\n",
                support::ThreadPool::instance().concurrency(),
                hardware);
    if (hardware <= 1) {
        std::printf("  *** %s: hardware_concurrency=%u — pooled "
                    "numbers degenerate to serial on this machine; "
                    "speedups recorded here are NOT comparable "
                    "against multi-core baselines ***\n",
                    check ? "CHECK FAILED" : "WARNING", hardware);
        ok = false;
    }

    const double partSerial = partitionSeconds(world, 1);
    const double partPooled = partitionSeconds(world, 0);
    std::printf("  viking_partition   serial %.3fs  pooled %.3fs  "
                "speedup %.2fx\n",
                partSerial, partPooled, partSerial / partPooled);

    const double sweepSerial = traceSweepSeconds(world, 1);
    const double sweepPooled = traceSweepSeconds(world, 0);
    std::printf("  trace_sweep_64f    serial %.3fs  pooled %.3fs  "
                "speedup %.2fx\n",
                sweepSerial, sweepPooled, sweepSerial / sweepPooled);

    // SSIM kernel, old (naive windows) vs new (fast), 512x256 luma.
    const image::Image a = noiseImage(512, 256, 1);
    const image::Image b = noiseImage(512, 256, 2);
    const auto la = a.lumaPlane();
    const auto lb = b.lumaPlane();
    constexpr int kSsimReps = 20;
    const double ssimNaive = seconds([&] {
        for (int i = 0; i < kSsimReps; ++i)
            image::ssimLumaReference(la, lb, 512, 256);
    });
    const double ssimFast = seconds([&] {
        for (int i = 0; i < kSsimReps; ++i)
            image::ssimLuma(la, lb, 512, 256);
    });
    std::printf("  ssim_512x256 (x%d) naive %.3fs  fast %.3fs  "
                "speedup %.2fx\n",
                kSsimReps, ssimNaive, ssimFast,
                ssimNaive / ssimFast);

    // Sim-engine thread sweep: the bench_fleet leg through the lane
    // engine with the pool pinned at 1/2/4/8 threads. Results are
    // bit-identical by the determinism contract; only the wall clock
    // moves.
    const int simSessions = smoke ? 8 : 32;
    const int simPlayers = smoke ? 2 : 4;
    const double simDurationS = smoke ? 5.0 : 8.0;
    const int simW = smoke ? 48 : 64;
    const int simH = smoke ? 24 : 32;
    std::printf("  sim engine (fleet %dx%d, %.0fs sim):\n", simSessions,
                simPlayers, simDurationS);
    obs::Json simEngine = obs::Json::object();
    char simLeg[32];
    std::snprintf(simLeg, sizeof simLeg, "s%d_p%d", simSessions,
                  simPlayers);
    simEngine.set("leg", obs::Json(std::string(simLeg)));
    SimRun oneThread;
    for (const int threads : {1, 2, 4, 8}) {
        const SimRun laneRun = runSimChild(argv[0], threads, simSessions,
                                           simPlayers, simDurationS, simW,
                                           simH);
        if (!laneRun.ok) {
            ok = false;
            continue;
        }
        if (threads == 1)
            oneThread = laneRun;
        const double speedup = oneThread.ok && laneRun.wallS > 0.0
                                   ? oneThread.wallS / laneRun.wallS
                                   : 0.0;
        std::printf("    lane engine t=%d    %7.3fs  %9.0f events/s  "
                    "%.3f wall-s per sim-s  speedup %.2fx vs t=1\n",
                    threads, laneRun.wallS, laneRun.eventsPerSec(),
                    laneRun.wallPerSimS(), speedup);
        if (!oneThread.ok || laneRun.events != oneThread.events ||
            laneRun.deliveries != oneThread.deliveries ||
            laneRun.renders != oneThread.renders) {
            std::printf("  CHECK FAILED: lane engine at t=%d diverged "
                        "from t=1 (events %llu vs %llu, deliveries %llu "
                        "vs %llu, renders %llu vs %llu)\n",
                        threads,
                        static_cast<unsigned long long>(laneRun.events),
                        static_cast<unsigned long long>(oneThread.events),
                        static_cast<unsigned long long>(
                            laneRun.deliveries),
                        static_cast<unsigned long long>(
                            oneThread.deliveries),
                        static_cast<unsigned long long>(laneRun.renders),
                        static_cast<unsigned long long>(
                            oneThread.renders));
            ok = false;
        }
        obs::Json row = obs::Json::object();
        row.set("wall_s", obs::Json(laneRun.wallS));
        row.set("events", obs::Json(laneRun.events));
        row.set("deliveries", obs::Json(laneRun.deliveries));
        row.set("events_per_s", obs::Json(laneRun.eventsPerSec()));
        row.set("wall_per_sim_s", obs::Json(laneRun.wallPerSimS()));
        row.set("speedup_vs_t1", obs::Json(speedup));
        simEngine.set("lane_engine_t" + std::to_string(threads),
                      std::move(row));
    }

    const auto workload = [](double baselineS, const char *baselineKey,
                             double fastS, const char *fastKey) {
        obs::Json w = obs::Json::object();
        w.set(baselineKey, obs::Json(baselineS));
        w.set(fastKey, obs::Json(fastS));
        w.set("speedup", obs::Json(baselineS / fastS));
        return w;
    };
    obs::Json workloads = obs::Json::object();
    workloads.set("viking_partition",
                  workload(partSerial, "serial_s", partPooled, "pooled_s"));
    workloads.set("trace_sweep_64_frames",
                  workload(sweepSerial, "serial_s", sweepPooled,
                           "pooled_s"));
    workloads.set("ssim_512x256_x" + std::to_string(kSsimReps),
                  workload(ssimNaive, "naive_s", ssimFast, "fast_s"));
    obs::Json doc = obs::Json::object();
    doc.set("pool_lanes",
            obs::Json(support::ThreadPool::instance().concurrency()));
    doc.set("hardware_concurrency",
            obs::Json(static_cast<std::uint64_t>(
                std::thread::hardware_concurrency())));
    doc.set("smoke", obs::Json(smoke));
    doc.set("workloads", std::move(workloads));
    doc.set("sim_engine", std::move(simEngine));
    bench::writeBenchJson("parallel", doc);

    if (check && !ok)
        return 1;
    std::printf("\n  parallel checks: %s\n", ok ? "ok" : "FAILED");
    return 0;
}
