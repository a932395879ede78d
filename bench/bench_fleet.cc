/**
 * @file
 * Fleet bench: N independent Coterie sessions multiplexed over one
 * SessionManager (shared DES, shared thread pool, shared world-keyed
 * panorama render cache).
 *
 * Two legs:
 *
 *  - **Sweep** sessions x players: per point it reports megaframe
 *    deliveries, actual panorama renders (cache misses),
 *    renders/frame, shared-cache hit ratio, p99 frame latency, and
 *    the wall time of the whole fleet run. Sessions play distinct
 *    trajectories over one world, so the hit ratio is the honest
 *    cross-session sharing win, not self-similarity.
 *
 *  - **Overload**: a mixed fleet (healthy sessions + hopeless ones on
 *    a collapsed cacheless link) under the load governor, showing the
 *    degradation ladder is monotone — shed and degrade transitions
 *    strictly precede every eviction, healthy sessions are untouched.
 *
 * `--smoke` shrinks the sweep for CI; `--check` exits non-zero if a
 * robustness invariant breaks (sharing absent, ladder out of order, a
 * healthy session harmed). bench_history gates the hit-ratio
 * trajectory against results/BENCH_fleet.json.
 */

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "core/fleet.hh"
#include "support/parallel.hh"

using namespace coterie;
using namespace coterie::bench;
using namespace coterie::core;

namespace {

struct SweepPoint
{
    int sessions = 0;
    int players = 0;
    std::uint64_t deliveries = 0;
    std::uint64_t renders = 0; // shared-cache misses
    double hitRatio = 0.0;
    double rendersPerFrame = 0.0;
    double p99LatencyMs = 0.0;
    double avgFps = 0.0;
    double wallS = 0.0;
    std::uint64_t faults = 0;
    std::uint64_t evictions = 0;      // governor session evictions
    std::uint64_t cacheEvictions = 0; // shared-cache LRU evictions
    // Sim-engine throughput (DESIGN.md §12): executed DES events, the
    // rate they retire at, and wall seconds per simulated second.
    std::uint64_t events = 0;
    double eventsPerSec = 0.0;
    double wallPerSimS = 0.0;
};

/** One fleet run: N sessions with distinct trajectories, one world. */
SweepPoint
runSweepPoint(int sessions, int players, double durationS, int renderW,
              int renderH)
{
    FleetCapacity cap;
    cap.maxSessions = sessions;
    cap.maxClients = sessions * players;
    SessionManager mgr(cap);

    // One preprocessed base per point; every session renders through
    // the manager's shared cache — the multi-tenant deployment shape.
    // Similarity calibration is skipped: the fleet path under test
    // never reads the thresholds it would tune.
    SessionParams sp;
    sp.players = players;
    sp.durationS = durationS;
    sp.seed = 42;
    sp.calibrateSimilarity = false;
    const auto base = Session::create(world::gen::GameId::Viking, sp);

    // Popular-route model: each trajectory seed is played by (up to)
    // two sessions, so half the fleet revisits content another session
    // also renders — the cross-session analogue of the paper's
    // frame-similarity premise. A single session gets a unique seed.
    const int routes = (sessions + 1) / 2;
    for (int i = 0; i < sessions; ++i) {
        FleetSessionSpec spec;
        spec.base = base.get();
        spec.traceSeed = 1000 + static_cast<std::uint64_t>(i % routes);
        spec.recordFrameLog = true;
        spec.renderOnFetch = true;
        spec.renderWidth = renderW;
        spec.renderHeight = renderH;
        mgr.submit(spec);
    }

    const auto t0 = std::chrono::steady_clock::now();
    const FleetResult fleet = mgr.run();
    const auto t1 = std::chrono::steady_clock::now();

    SweepPoint point;
    point.sessions = sessions;
    point.players = players;
    point.wallS = std::chrono::duration<double>(t1 - t0).count();
    point.faults = fleet.faults;
    point.evictions = fleet.evictions;
    point.cacheEvictions = fleet.panoCache.evictions;
    point.events = mgr.queue().executedEvents();
    point.eventsPerSec = point.wallS > 0.0
                             ? static_cast<double>(point.events) /
                                   point.wallS
                             : 0.0;
    point.wallPerSimS = fleet.horizonMs > 0.0
                            ? point.wallS / (fleet.horizonMs / 1000.0)
                            : 0.0;

    SampleSet latencies;
    double fps = 0.0;
    for (const FleetSessionReport &s : fleet.sessions) {
        point.deliveries += s.fleetRenders;
        fps += s.result.avgFps();
        for (const auto &log : s.result.frameLogs)
            for (const FrameLogEntry &e : log)
                latencies.add(e.latencyMs);
    }
    point.avgFps = fps / static_cast<double>(fleet.sessions.size());
    point.p99LatencyMs = latencies.empty() ? 0.0 : latencies.percentile(99);
    point.renders = fleet.panoCache.misses;
    const double served =
        static_cast<double>(fleet.panoCache.hits + fleet.panoCache.misses);
    point.hitRatio =
        served > 0.0 ? (served - static_cast<double>(fleet.panoCache.misses)) /
                           served
                     : 0.0;
    point.rendersPerFrame =
        point.deliveries > 0
            ? static_cast<double>(point.renders) /
                  static_cast<double>(point.deliveries)
            : 0.0;
    return point;
}

obs::Json
toJson(const SweepPoint &p)
{
    obs::Json row = obs::Json::object();
    row.set("sessions", obs::Json(static_cast<std::uint64_t>(p.sessions)));
    row.set("players", obs::Json(static_cast<std::uint64_t>(p.players)));
    row.set("deliveries", obs::Json(p.deliveries));
    row.set("renders", obs::Json(p.renders));
    row.set("cache_evictions", obs::Json(p.cacheEvictions));
    row.set("hit_ratio", obs::Json(p.hitRatio));
    row.set("renders_per_frame", obs::Json(p.rendersPerFrame));
    row.set("p99_frame_latency_ms", obs::Json(p.p99LatencyMs));
    row.set("avg_fps", obs::Json(p.avgFps));
    row.set("wall_s", obs::Json(p.wallS));
    row.set("faults", obs::Json(p.faults));
    row.set("evictions", obs::Json(p.evictions));
    row.set("events", obs::Json(p.events));
    row.set("events_per_s", obs::Json(p.eventsPerSec));
    row.set("wall_per_sim_s", obs::Json(p.wallPerSimS));
    return row;
}

/** The governed overload fleet: healthy + hopeless sessions. */
struct OverloadOutcome
{
    std::uint64_t shed = 0;
    std::uint64_t degrade = 0;
    std::uint64_t evictions = 0;
    int healthy = 0;
    int healthyCompleted = 0;
    int hopeless = 0;
    double firstEvictionMs = -1.0;
};

OverloadOutcome
runOverload(double durationS)
{
    GovernorParams gov;
    gov.enabled = true;
    gov.tickMs = 250.0;
    gov.shedMissRate = 0.05;
    gov.degradeMissRate = 0.15;
    gov.evictMissRate = 0.50;
    gov.evictStrikes = 3;
    gov.recoverMissRate = 0.01;
    SessionManager mgr({}, gov);

    SessionParams sp;
    sp.players = 2;
    sp.durationS = durationS;
    sp.seed = 42;
    sp.calibrateSimilarity = false;
    const auto base = Session::create(world::gen::GameId::Viking, sp);

    OverloadOutcome out;
    out.healthy = 4;
    out.hopeless = 2;
    for (int i = 0; i < out.healthy; ++i) {
        FleetSessionSpec spec;
        spec.base = base.get();
        spec.traceSeed = 2000 + static_cast<std::uint64_t>(i);
        mgr.submit(spec);
    }
    for (int i = 0; i < out.hopeless; ++i) {
        FleetSessionSpec spec;
        spec.base = base.get();
        spec.traceSeed = 3000 + static_cast<std::uint64_t>(i);
        spec.withCache = false;
        spec.faults.bandwidthCollapse(1000.0, durationS * 1000.0, 0.01);
        mgr.submit(spec);
    }

    const FleetResult fleet = mgr.run();
    out.shed = fleet.shedTransitions;
    out.degrade = fleet.degradeTransitions;
    out.evictions = fleet.evictions;
    for (int i = 0; i < out.healthy; ++i)
        if (fleet.sessions[static_cast<std::size_t>(i)].phase ==
            SessionPhase::Completed)
            ++out.healthyCompleted;
    for (const FleetSessionReport &s : fleet.sessions)
        if (s.phase == SessionPhase::Evicted &&
            (out.firstEvictionMs < 0.0 ||
             s.finishedAtMs < out.firstEvictionMs))
            out.firstEvictionMs = s.finishedAtMs;
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    bool check = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "--check") == 0)
            check = true;
    }

    banner("Fleet — N coteries on one manager: sharing, overload, "
           "isolation", "multi-session robustness; DESIGN.md §11");

    const std::vector<int> sessionCounts =
        smoke ? std::vector<int>{1, 8} : std::vector<int>{1, 8, 32, 128};
    const std::vector<int> playerCounts =
        smoke ? std::vector<int>{2} : std::vector<int>{2, 4};
    const double durationS = smoke ? 5.0 : 8.0;
    const int renderW = smoke ? 48 : 64;
    const int renderH = smoke ? 24 : 32;

    std::printf("\n  %8s %7s | %10s %8s %9s %8s %10s %8s %7s\n",
                "sessions", "players", "deliveries", "renders",
                "rend/frm", "hit", "p99_lat_ms", "fps", "wall_s");

    bool ok = true;
    obs::Json points = obs::Json::object();
    for (const int players : playerCounts) {
        for (const int sessions : sessionCounts) {
            const SweepPoint p = runSweepPoint(sessions, players,
                                               durationS, renderW,
                                               renderH);
            std::printf("  %8d %7d | %10llu %8llu %9.3f %7.1f%% %10.2f "
                        "%8.2f %7.2f\n",
                        p.sessions, p.players,
                        static_cast<unsigned long long>(p.deliveries),
                        static_cast<unsigned long long>(p.renders),
                        p.rendersPerFrame, 100.0 * p.hitRatio,
                        p.p99LatencyMs, p.avgFps, p.wallS);
            std::fflush(stdout);

            char key[32];
            std::snprintf(key, sizeof key, "s%d_p%d", sessions, players);
            obs::Json row = toJson(p);

            points.set(key, std::move(row));

            // Ungoverned fleets never evict or fault, deliveries flow,
            // and sibling trajectories over one world must share: past
            // one session the cache serves a real fraction of renders.
            if (p.faults != 0 || p.evictions != 0) {
                std::printf("  CHECK FAILED: %s saw %llu faults / %llu "
                            "evictions in an ungoverned fleet\n",
                            key,
                            static_cast<unsigned long long>(p.faults),
                            static_cast<unsigned long long>(p.evictions));
                ok = false;
            }
            if (p.deliveries == 0 || p.p99LatencyMs <= 0.0) {
                std::printf("  CHECK FAILED: %s made no progress\n", key);
                ok = false;
            }
            if (sessions > 1 &&
                (p.hitRatio <= 0.0 || p.rendersPerFrame >= 1.0)) {
                std::printf("  CHECK FAILED: %s shows no cross-session "
                            "sharing (hit %.3f, renders/frame %.3f)\n",
                            key, p.hitRatio, p.rendersPerFrame);
                ok = false;
            }
        }
    }

    std::printf("\n  overload: 4 healthy + 2 hopeless sessions, "
                "governor on\n");
    const OverloadOutcome over = runOverload(durationS);
    std::printf("    shed %llu -> degrade %llu -> evict %llu "
                "(first at %.0f ms); healthy completed %d/%d\n",
                static_cast<unsigned long long>(over.shed),
                static_cast<unsigned long long>(over.degrade),
                static_cast<unsigned long long>(over.evictions),
                over.firstEvictionMs, over.healthyCompleted,
                over.healthy);

    // Monotone ladder: every evicted session entered shed and degrade
    // first (entries into levels >= 1 / >= 2 are counted per session),
    // both hopeless sessions go, and no healthy session is harmed.
    if (over.evictions != static_cast<std::uint64_t>(over.hopeless)) {
        std::printf("  CHECK FAILED: expected %d evictions, saw %llu\n",
                    over.hopeless,
                    static_cast<unsigned long long>(over.evictions));
        ok = false;
    }
    if (over.shed < over.evictions || over.degrade < over.evictions) {
        std::printf("  CHECK FAILED: eviction without preceding "
                    "shed/degrade (shed %llu, degrade %llu)\n",
                    static_cast<unsigned long long>(over.shed),
                    static_cast<unsigned long long>(over.degrade));
        ok = false;
    }
    if (over.healthyCompleted != over.healthy) {
        std::printf("  CHECK FAILED: only %d/%d healthy sessions "
                    "completed under overload\n",
                    over.healthyCompleted, over.healthy);
        ok = false;
    }

    obs::Json overload = obs::Json::object();
    overload.set("healthy", obs::Json(static_cast<std::uint64_t>(
                                over.healthy)));
    overload.set("hopeless", obs::Json(static_cast<std::uint64_t>(
                                 over.hopeless)));
    overload.set("shed_transitions", obs::Json(over.shed));
    overload.set("degrade_transitions", obs::Json(over.degrade));
    overload.set("evictions", obs::Json(over.evictions));
    overload.set("first_eviction_ms", obs::Json(over.firstEvictionMs));
    overload.set("healthy_completed",
                 obs::Json(static_cast<std::uint64_t>(
                     over.healthyCompleted)));

    obs::Json doc = obs::Json::object();
    doc.set("game", obs::Json(std::string("viking")));
    doc.set("duration_s", obs::Json(durationS));
    doc.set("smoke", obs::Json(smoke));
    doc.set("pool_lanes",
            obs::Json(support::ThreadPool::instance().concurrency()));
    doc.set("hardware_concurrency",
            obs::Json(static_cast<std::uint64_t>(
                std::thread::hardware_concurrency())));
    doc.set("points", std::move(points));
    doc.set("overload", std::move(overload));
    writeBenchJson("fleet", doc);

    if (check && !ok)
        return 1;
    std::printf("\n  fleet checks: %s\n", ok ? "ok" : "FAILED");
    return 0;
}
