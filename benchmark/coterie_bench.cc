/**
 * @file
 * The Coterie benchmark: four closed-loop workloads behind one binary.
 *
 *  - prerender     The server's far-BE pre-render path. One caller
 *                  resolves, renders (512x256) and encodes one
 *                  panorama at a time at seeded play positions,
 *                  round-robin over Racing, CTS and Viking. All time is
 *                  in render/world/image; none in sim/net/pano_cache.
 *  - fleet_shared  16 Viking sessions x 4 players, 8 s of play each,
 *                  popular routes (two sessions per trace seed),
 *                  renderOnFetch at 64x32 through the shared 256 MiB
 *                  panorama cache: the multi-tenant deployment shape.
 *  - fleet_des     64 sessions x 4 players, 15 s, unique routes, no
 *                  rendering: the lane engine, the 60 Hz client frame
 *                  loops and the channel model alone.
 *  - fleet_chaos   8 sessions x 4 players, 8 s, unique routes, scripted
 *                  loss / latency / bandwidth faults, resilience and the
 *                  governor on, renderOnFetch through a 4 MiB cache that
 *                  is far smaller than the working set.
 *
 * Usage:
 *   coterie_bench --workload <name|all> [--seed N] [--seconds S]
 *                 [--trace 0|1] [--smoke] [--out-dir DIR]
 *
 * `--seed` drives the prerender positions and, for the fleets, which
 * session plays which route and when each starts. The worlds (seed 42)
 * and the fleets' route pool are fixed: they are the dataset.
 * Each workload sets up, then runs timed reps for about `--seconds`
 * (at least 24 prerender frames or 3 fleet reps; the default 0 runs just
 * those). The end-to-end metrics are the median set-up time, frames per
 * second over all timed work, and the peak RSS. With
 * `--trace 1` it then runs one more rep with the benchmark's spans
 * recording, plus per-layer probes, and reports per-layer metrics.
 * The last stdout line is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * `--out-dir` additionally writes `<workload>.trace<0|1>.json` (every
 * sample, the output digest and the sim-time results) and, when
 * tracing, `trace.<workload>.json` (Chrome trace_event, readable by
 * tools/trace_report). Output checks run in every invocation; any
 * failure makes the exit code 1.
 */

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/fleet.hh"
#include "core/session.hh"
#include "image/codec.hh"
#include "image/ssim.hh"
#include "obs/clock.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "render/camera.hh"
#include "render/renderer.hh"
#include "support/parallel.hh"
#include "support/rng.hh"
#include "support/stats.hh"
#include "world/gen/generators.hh"

namespace {

using namespace coterie;
using world::gen::GameId;

// --- Fixed workload parameters ----------------------------------------

constexpr std::uint64_t kWorldSeed = 42;

struct WorldSpec
{
    GameId id;
    const char *name;
};
constexpr WorldSpec kWorlds[] = {{GameId::Racing, "racing"},
                                 {GameId::CTS, "cts"},
                                 {GameId::Viking, "viking"}};
constexpr int kWorldCount = 3;

/** Prerender panorama size: the resolution BENCH_render.json tracks. */
constexpr int kPanoW = 512;
constexpr int kPanoH = 256;
/**
 * Lowest SSIM an encode -> decode round trip of a prerender frame may
 * reach. Over every frame of 20 s runs at seeds 1-10 and 42 (about 580
 * frames each) the lowest was 0.911; the floor leaves 0.03 for content
 * those seeds did not reach.
 */
constexpr double kSsimFloor = 0.88;
/** Frames every prerender run renders first; they feed the digest. */
constexpr int kDigestFrames = 24;

constexpr const char *kStageTimers[] = {
    "render.stage.dirs_ms", "render.stage.raycast_ms",
    "render.stage.terrain_ms", "render.stage.shade_ms",
    "render.stage.sky_ms"};
constexpr const char *kStageNames[] = {"dirs", "raycast", "terrain",
                                       "shade", "composite"};
constexpr int kStageCount = 5;

struct FleetShape
{
    int sessions = 0;
    int players = 0;
    double durationS = 0.0;
    /** Two sessions per trace seed (else one seed per session). */
    bool popularRoutes = false;
    bool renderOnFetch = false;
    std::size_t cacheBytes = 256ull << 20;
    /** Per-session fault plan, resilience and the governor. */
    bool chaos = false;
};

FleetShape
fleetShape(const std::string &workload, bool smoke)
{
    FleetShape s;
    if (workload == "fleet_shared") {
        s = {16, 4, 8.0, true, true, 256ull << 20, false};
    } else if (workload == "fleet_des") {
        s = {64, 4, 15.0, false, false, 256ull << 20, false};
    } else {
        s = {8, 4, 8.0, false, true, 4ull << 20, true};
    }
    if (smoke) {
        s.sessions = 4;
        s.players = 2;
        // Long enough for the chaos plan's first two episodes.
        s.durationS = s.chaos ? 4.0 : 2.0;
    }
    return s;
}

// --- Options -----------------------------------------------------------

const char *const kWorkloads[] = {"prerender", "fleet_shared", "fleet_des",
                                  "fleet_chaos"};

struct Options
{
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 0.0; ///< 0: the minimum reps only
    bool trace = false;
    bool smoke = false;
    std::string outDir;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "coterie_bench: %s\n"
                 "usage: coterie_bench --workload <prerender|fleet_shared|"
                 "fleet_des|fleet_chaos|all>\n"
                 "                     [--seed N] [--seconds S] "
                 "[--trace 0|1] [--smoke] [--out-dir DIR]\n",
                 why);
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--workload") {
            o.workload = value();
        } else if (arg == "--seed") {
            const std::string v = value();
            char *end = nullptr;
            o.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0' || v[0] == '-')
                usage("--seed takes a non-negative integer");
        } else if (arg == "--seconds") {
            const std::string v = value();
            char *end = nullptr;
            o.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !std::isfinite(o.seconds) ||
                o.seconds < 0.0 || o.seconds > 3600.0)
                usage("--seconds takes a number in [0, 3600]");
        } else if (arg == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            o.trace = v == "1";
        } else if (arg == "--smoke") {
            o.smoke = true;
        } else if (arg == "--out-dir") {
            o.outDir = value();
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    const bool known =
        o.workload == "all" ||
        std::find_if(std::begin(kWorkloads), std::end(kWorkloads),
                     [&](const char *w) { return o.workload == w; }) !=
            std::end(kWorkloads);
    if (!known)
        usage("--workload names one of the four workloads or all");
    return o;
}

// --- Timing, spans and process counters --------------------------------

double
secondsSince(std::uint64_t beginNs)
{
    return obs::secondsBetweenNs(beginNs, obs::monotonicNowNs());
}

/**
 * The benchmark's own span recorder. It is separate from the global
 * recorder that src/ feeds, so a traced rep holds exactly the spans
 * this file opens around its calls into each layer (a fleet's frame
 * tracer would otherwise export every frame of every session).
 */
obs::TraceRecorder &
spans()
{
    static obs::TraceRecorder recorder;
    return recorder;
}

/** RAII span named after the layer metric it attributes time to. */
class Span
{
  public:
    Span(const char *name, const char *layer)
        : name_(name), layer_(layer), beginNs_(obs::monotonicNowNs())
    {
    }
    ~Span()
    {
        spans().complete(name_, layer_, beginNs_, obs::monotonicNowNs());
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    const char *name_;
    const char *layer_;
    std::uint64_t beginNs_;
};

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
timerSum(const char *name)
{
    return obs::MetricsRegistry::global().timer(name).snapshot().stats.sum();
}

std::uint64_t
counterValue(const char *name)
{
    return obs::MetricsRegistry::global().counter(name).value();
}

int
poolThreads()
{
    return support::ThreadPool::instance().concurrency();
}

/** FNV-1a, for output digests two commits can diff. */
struct Digest
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    void bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ull;
        }
    }
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
    std::string hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(h));
        return buf;
    }
};

// --- Results -----------------------------------------------------------

struct Outcome
{
    std::string workload;
    /** End-to-end metrics (untraced reps). */
    std::map<std::string, double> endToEnd;
    /** Per-layer metrics (traced rep and probes); empty untraced. */
    std::map<std::string, double> layers;
    /** Deterministic sim-time results: equal on every commit that does
     *  not change the model. */
    std::map<std::string, double> sim;
    std::string digest;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    obs::Json samples = obs::Json::object();

    void check(bool ok, const std::string &what)
    {
        if (ok)
            return;
        failures.push_back(what);
        std::fprintf(stderr, "  CHECK FAILED [%s]: %s\n", workload.c_str(),
                     what.c_str());
    }
};

struct MetricSpec
{
    std::string name;
    const char *unit;
};

const std::vector<MetricSpec> &
endToEndSpecs()
{
    static const std::vector<MetricSpec> specs = {
        {"setup_s", "s"},
        {"frames_per_s", "1/s"},
        {"peak_rss_mib", "MiB"},
    };
    return specs;
}

/** Every per-layer metric; a workload a layer does not serve reports 0. */
const std::vector<MetricSpec> &
layerSpecs()
{
    static const std::vector<MetricSpec> specs = [] {
        std::vector<MetricSpec> s;
        for (const WorldSpec &w : kWorlds) {
            const std::string n = w.name;
            s.push_back({"render.far_be_ms_p50." + n, "ms"});
            s.push_back({"render.far_be_ms_p95." + n, "ms"});
            s.push_back({"render.pano_ms_p50." + n, "ms"});
            for (const char *stage : kStageNames)
                s.push_back({"render.stage." + std::string(stage) +
                                 "_ms." + n,
                             "ms"});
            s.push_back({"render.unattributed_frac." + n, "fraction"});
            s.push_back({"world.terrain.intersect_ns_per_ray." + n, "ns"});
            s.push_back({"world.bvh.closest_hit_ns_per_ray." + n, "ns"});
            s.push_back({"world.terrain.hit_frac." + n, "fraction"});
        }
        const std::vector<MetricSpec> rest = {
            {"image.codec.encode_ms_p50", "ms"},
            {"image.codec.decode_ms_p50", "ms"},
            {"image.codec.ssim_min", "ssim"},
            {"image.ssim_ms", "ms"},
            {"setup.world_gen_s", "s"},
            {"setup.partition_s", "s"},
            {"sim.events", "count"},
            {"sim.events_per_wall_s", "1/s"},
            {"fleet.wall_per_sim_s", "s/s"},
            {"fleet.render_core_s", "s"},
            {"fleet.render_share", "fraction"},
            {"fleet.non_render_wall_s", "s"},
            {"pano_cache.hit_ratio", "fraction"},
            {"pano_cache.misses", "count"},
            {"pano_cache.inflight_joins", "count"},
            {"pano_cache.evictions", "count"},
            {"pano_cache.renders_per_frame", "ratio"},
            {"net.transfers", "count"},
            {"net.mb_delivered", "MB"},
            {"net.retries", "count"},
            {"net.timeouts", "count"},
            {"net.fetch_giveups", "count"},
            {"net.be_mbps_per_player", "Mb/sim_s"},
            {"client.frames_displayed", "count"},
            {"client.frames_fetched", "count"},
            {"client.cache_hit_ratio", "fraction"},
            {"client.stalls", "count"},
            {"client.degraded_frac", "fraction"},
            {"client.frame_latency_p50_ms", "sim_ms"},
            {"client.frame_latency_p99_ms", "sim_ms"},
            {"client.deadline_miss_rate", "fraction"},
            {"client.fps", "1/sim_s"},
            {"governor.shed_transitions", "count"},
            {"governor.degrade_transitions", "count"},
            {"governor.evictions", "count"},
            {"pool.threads", "count"},
            {"pool.cpu_util", "fraction"},
            {"obs.trace_overhead_frac", "fraction"},
        };
        s.insert(s.end(), rest.begin(), rest.end());
        return s;
    }();
    return specs;
}

obs::Json
metricsJson(const std::vector<MetricSpec> &specs,
            const std::map<std::string, double> &values)
{
    obs::Json out = obs::Json::object();
    for (const MetricSpec &spec : specs) {
        const auto it = values.find(spec.name);
        obs::Json m = obs::Json::object();
        m.set("value", obs::Json(it == values.end() ? 0.0 : it->second));
        m.set("unit", obs::Json(spec.unit));
        out.set(spec.name, std::move(m));
    }
    return out;
}

obs::Json
samplesJson(const SampleSet &set)
{
    obs::Json out = obs::Json::array();
    for (const double v : set.samples())
        out.push(obs::Json(v));
    return out;
}

/**
 * The end-to-end metrics, which every workload reports: the median
 * set-up time, the frame throughput, and the peak RSS read after set-up
 * and the first rep (later reps reuse freed memory in
 * thread-timing-dependent ways).
 */
void
setEndToEnd(Outcome &out, const SampleSet &setupS, double framesPerS,
            double firstRepRssMib)
{
    out.endToEnd["setup_s"] = setupS.median();
    out.endToEnd["frames_per_s"] = framesPerS;
    out.endToEnd["peak_rss_mib"] = firstRepRssMib;
    out.samples.set("setup_s", samplesJson(setupS));
}

void
setPoolLayers(Outcome &out, double cpuS, double wallS)
{
    const int threads = poolThreads();
    out.layers["pool.threads"] = threads;
    out.layers["pool.cpu_util"] =
        wallS > 0.0 ? cpuS / (wallS * threads) : 0.0;
}

// --- prerender ---------------------------------------------------------

using Sessions = std::vector<std::unique_ptr<core::Session>>;

/** One set-up: Session::create (calibration on) for every world. */
Sessions
createWorldSessions()
{
    core::SessionParams sp;
    sp.players = 4;
    sp.durationS = 60.0;
    sp.seed = kWorldSeed;
    Sessions sessions;
    for (const WorldSpec &w : kWorlds) {
        Span span("setup.session", "setup");
        sessions.push_back(core::Session::create(w.id, sp));
    }
    return sessions;
}

/**
 * Seeded play positions over a world's recorded player traces: a
 * golden-ratio (Weyl) sequence over every trace point, rotated by a
 * seeded offset. Every prefix covers the play area evenly, so runs at
 * different seeds render different positions with the same mix of cost.
 */
class PositionStream
{
  public:
    PositionStream(const core::Session &session, std::uint64_t seed,
                   int world)
    {
        for (const trace::PlayerTrace &player : session.traces().players)
            for (const trace::TracePoint &p : player.points)
                points_.push_back(p.position);
        Rng rng(hashCombine(seed, static_cast<std::uint64_t>(world) + 1));
        u_ = rng.uniform();
    }

    geom::Vec2 next()
    {
        u_ += 0.6180339887498949;
        u_ -= std::floor(u_);
        const auto i = static_cast<std::size_t>(
            u_ * static_cast<double>(points_.size()));
        return points_[std::min(i, points_.size() - 1)];
    }

  private:
    std::vector<geom::Vec2> points_;
    double u_ = 0.0;
};

struct PrerenderFrame
{
    int world = 0;
    core::FrameStore::FarBeLookup lookup;
    image::Image image;
    image::EncodedFrame encoded;
    double renderMs = 0.0; ///< lookup + render
    double encodeMs = 0.0;
};

/** The timed unit of work: resolve, render and encode one panorama. */
PrerenderFrame
renderAndEncode(const core::Session &session, int world, geom::Vec2 pos,
                int width, int height)
{
    PrerenderFrame f;
    f.world = world;
    const std::uint64_t t0 = obs::monotonicNowNs();
    {
        Span span("pano_cache.lookup", "pano_cache");
        f.lookup = session.frames().farBeLookup(pos, 0.0, width, height);
    }
    {
        Span span("render.far_be", "render");
        f.image = session.frames().renderFarBe(f.lookup);
    }
    const std::uint64_t t1 = obs::monotonicNowNs();
    {
        Span span("image.codec.encode", "image");
        f.encoded = image::encode(f.image);
    }
    const std::uint64_t t2 = obs::monotonicNowNs();
    f.renderMs = obs::millisBetweenNs(t0, t1);
    f.encodeMs = obs::millisBetweenNs(t1, t2);
    return f;
}

struct RoundTrip
{
    bool ok = false;
    double decodeMs = 0.0;
    double ssim = 0.0;
};

/** Decode the frame and check its size and SSIM against the original. */
RoundTrip
checkRoundTrip(const PrerenderFrame &f, Outcome &out)
{
    RoundTrip r;
    const std::uint64_t t0 = obs::monotonicNowNs();
    image::Image decoded;
    {
        Span span("image.codec.decode", "image");
        decoded = image::decode(f.encoded);
    }
    r.decodeMs = obs::millisBetweenNs(t0, obs::monotonicNowNs());
    if (decoded.width() != f.image.width() ||
        decoded.height() != f.image.height()) {
        out.check(false, "decoded frame is " +
                             std::to_string(decoded.width()) + "x" +
                             std::to_string(decoded.height()));
        return r;
    }
    {
        Span span("image.ssim", "image");
        r.ssim = image::ssim(f.image, decoded);
    }
    r.ok = r.ssim >= kSsimFloor;
    out.check(r.ok, std::string("codec round trip SSIM ") +
                        std::to_string(r.ssim) + " below floor at " +
                        kWorlds[f.world].name);
    return r;
}

struct StageRender
{
    double panoMs = 0.0;
    double stageMs[kStageCount] = {};
};

/**
 * Render the frame again through Renderer::renderPanorama with
 * renderFarBe's options plus serial per-stage timers, and check the
 * bytes match: the stage ledger must describe the frame users get.
 */
StageRender
stageRender(const core::Session &session, const PrerenderFrame &f,
            Outcome &out)
{
    render::RenderOptions opts;
    opts.layer = render::DepthLayer::farBe(f.lookup.cutoff);
    opts.threads = 1;
    opts.stageTimers = true;
    const render::Renderer renderer(session.world());
    double before[kStageCount];
    for (int i = 0; i < kStageCount; ++i)
        before[i] = timerSum(kStageTimers[i]);
    StageRender r;
    const std::uint64_t t0 = obs::monotonicNowNs();
    image::Image img;
    {
        Span span("render.panorama", "render");
        img = renderer.renderPanorama(
            session.world().eyePosition(f.lookup.rep), f.lookup.key.width,
            f.lookup.key.height, opts);
    }
    r.panoMs = obs::millisBetweenNs(t0, obs::monotonicNowNs());
    for (int i = 0; i < kStageCount; ++i)
        r.stageMs[i] = timerSum(kStageTimers[i]) - before[i];
    out.check(img.width() == f.image.width() &&
                  img.height() == f.image.height() &&
                  img.pixels() == f.image.pixels(),
              std::string("stage-timed renderPanorama differs from "
                          "renderFarBe at ") +
                  kWorlds[f.world].name);
    return r;
}

struct RaySweep
{
    double terrainNsPerRay = 0.0;
    double bvhNsPerRay = 0.0;
    double terrainHitFrac = 0.0;
};

/** Serial Terrain::intersect and Bvh::closestHit over a panorama's rays. */
RaySweep
sweepRays(const world::VirtualWorld &world, geom::Vec3 eye, int width,
          int height)
{
    std::vector<geom::Ray> rays;
    rays.reserve(static_cast<std::size_t>(width) * height);
    for (int y = 0; y < height; ++y)
        for (int x = 0; x < width; ++x) {
            geom::Ray ray;
            ray.origin = eye;
            ray.dir = render::panoramaDirection((x + 0.5) / width,
                                                (y + 0.5) / height);
            rays.push_back(ray);
        }
    const double maxDist = render::RenderOptions{}.terrainMaxDist;
    RaySweep r;
    std::size_t hits = 0;
    std::uint64_t t0 = obs::monotonicNowNs();
    {
        Span span("world.terrain", "world");
        for (const geom::Ray &ray : rays)
            hits += world.terrain().intersect(ray, maxDist).has_value();
    }
    const double n = static_cast<double>(rays.size());
    r.terrainNsPerRay =
        static_cast<double>(obs::monotonicNowNs() - t0) / n;
    r.terrainHitFrac = static_cast<double>(hits) / n;
    double sink = 0.0;
    t0 = obs::monotonicNowNs();
    {
        Span span("world.bvh", "world");
        for (const geom::Ray &ray : rays) {
            const geom::Hit hit = world.bvh().closestHit(ray);
            if (hit.valid())
                sink += hit.t;
        }
    }
    r.bvhNsPerRay = static_cast<double>(obs::monotonicNowNs() - t0) / n;
    if (!std::isfinite(sink))
        std::abort(); // keeps the sweep's result live
    return r;
}

/** makeWorld and partitionWorld timed on their own, summed over worlds. */
void
setSetupLayers(Outcome &out, const std::vector<GameId> &games)
{
    double genS = 0.0;
    double partS = 0.0;
    for (const GameId game : games) {
        std::uint64_t t0 = obs::monotonicNowNs();
        world::VirtualWorld world = [&] {
            Span span("setup.world_gen", "setup");
            return world::gen::makeWorld(game, kWorldSeed);
        }();
        genS += secondsSince(t0);
        t0 = obs::monotonicNowNs();
        {
            Span span("setup.partition", "setup");
            core::PartitionParams part;
            part.reachable = world::gen::makeReachability(
                world::gen::gameInfo(game), world);
            const core::PartitionResult partition =
                core::partitionWorld(world, device::pixel2(), part);
            if (partition.leaves.empty())
                out.check(false, "partition produced no leaves");
        }
        partS += secondsSince(t0);
    }
    out.layers["setup.world_gen_s"] = genS;
    out.layers["setup.partition_s"] = partS;
}

Outcome
runPrerender(const Options &opt)
{
    Outcome out;
    out.workload = "prerender";
    const int setups = opt.smoke ? 1 : 3;
    // Smoke renders at a quarter of the pixels; the checks are the same.
    const int width = opt.smoke ? kPanoW / 2 : kPanoW;
    const int height = opt.smoke ? kPanoH / 2 : kPanoH;

    SampleSet setupS;
    Sessions sessions;
    double ssimSetupMs = 0.0;
    for (int i = 0; i < setups; ++i) {
        sessions.clear();
        const double ssimBefore = timerSum("image.ssim_ms");
        const std::uint64_t t0 = obs::monotonicNowNs();
        sessions = createWorldSessions();
        setupS.add(secondsSince(t0));
        if (i == 0)
            ssimSetupMs = timerSum("image.ssim_ms") - ssimBefore;
    }

    std::vector<PositionStream> streams;
    for (int w = 0; w < kWorldCount; ++w)
        streams.emplace_back(*sessions[static_cast<std::size_t>(w)],
                             opt.seed, w);

    // Timed closed loop: round-robin over the worlds, one frame at a
    // time, until the run's seconds are spent.
    SampleSet farBeMs[kWorldCount];
    SampleSet encodeMs;
    SampleSet decodeMs;
    double ssimMin = 1.0;
    std::vector<geom::Vec2> positions;
    std::vector<double> frameMsInOrder; // SampleSet sorts in place
    Digest digest;
    double timedS = 0.0;
    double firstRepRssMib = 0.0;
    const double cpu0 = cpuSeconds();
    const std::uint64_t loop0 = obs::monotonicNowNs();
    for (int i = 0; i < kDigestFrames || secondsSince(loop0) < opt.seconds;
         ++i) {
        const int w = i % kWorldCount;
        const core::Session &session = *sessions[static_cast<std::size_t>(w)];
        const geom::Vec2 pos = streams[static_cast<std::size_t>(w)].next();
        positions.push_back(pos);
        const PrerenderFrame f = renderAndEncode(session, w, pos, width,
                                                 height);
        frameMsInOrder.push_back(f.renderMs + f.encodeMs);
        farBeMs[w].add(f.renderMs);
        encodeMs.add(f.encodeMs);
        timedS += (f.renderMs + f.encodeMs) / 1000.0;
        ++out.attempted;
        if (i < kDigestFrames)
            digest.bytes(f.encoded.bytes.data(), f.encoded.bytes.size());
        if (i + 1 == kDigestFrames)
            firstRepRssMib = peakRssMib();
        const RoundTrip rt = checkRoundTrip(f, out);
        out.failed += rt.ok ? 0 : 1;
        decodeMs.add(rt.decodeMs);
        ssimMin = std::min(ssimMin, rt.ssim);
        if (i < kWorldCount)
            stageRender(session, f, out);
    }
    const double loopS = secondsSince(loop0);
    const double loopCpuS = cpuSeconds() - cpu0;

    // Every frame is different work, so the throughput is over all of them.
    setEndToEnd(out, setupS,
                static_cast<double>(frameMsInOrder.size()) / timedS,
                firstRepRssMib);
    obs::Json inOrder = obs::Json::array();
    for (const double ms : frameMsInOrder)
        inOrder.push(obs::Json(ms));
    out.samples.set("frame_ms", std::move(inOrder));
    out.digest = digest.hex();

    if (!opt.trace)
        return out;

    // Traced rep: replay the first frames with spans recording, and
    // stage-time every 10th of them (gcd(10, 3) = 1 cycles the worlds);
    // then the per-layer probes, still recording.
    const std::size_t replay = std::min<std::size_t>(
        positions.size(), opt.smoke ? positions.size() : 90);
    SampleSet panoMs[kWorldCount];
    double stageMs[kWorldCount][kStageCount] = {};
    double untracedMs = 0.0;
    double tracedMs = 0.0;
    spans().start();
    for (std::size_t i = 0; i < replay; ++i) {
        const int w = static_cast<int>(i % kWorldCount);
        const core::Session &session = *sessions[static_cast<std::size_t>(w)];
        const PrerenderFrame f =
            renderAndEncode(session, w, positions[i], width, height);
        tracedMs += f.renderMs + f.encodeMs;
        untracedMs += frameMsInOrder[i];
        checkRoundTrip(f, out);
        if (i % 10 == 0) {
            const StageRender r = stageRender(session, f, out);
            panoMs[w].add(r.panoMs);
            for (int s = 0; s < kStageCount; ++s)
                stageMs[w][s] += r.stageMs[s];
        }
    }

    for (int w = 0; w < kWorldCount; ++w) {
        const std::string n = kWorlds[w].name;
        const double frames = static_cast<double>(panoMs[w].count());
        if (frames == 0.0)
            continue;
        double attributed = 0.0;
        for (int s = 0; s < kStageCount; ++s) {
            const double ms = stageMs[w][s] / frames;
            out.layers["render.stage." + std::string(kStageNames[s]) +
                       "_ms." + n] = ms;
            attributed += ms;
        }
        out.layers["render.far_be_ms_p50." + n] = farBeMs[w].median();
        out.layers["render.far_be_ms_p95." + n] = farBeMs[w].percentile(95.0);
        out.layers["render.pano_ms_p50." + n] = panoMs[w].median();
        out.layers["render.unattributed_frac." + n] =
            1.0 - attributed / panoMs[w].mean();

        // Ray sweeps at the world's first two positions.
        RaySweep sum;
        int swept = 0;
        for (std::size_t i = static_cast<std::size_t>(w);
             i < positions.size() && swept < 2; i += kWorldCount, ++swept) {
            const core::Session &session =
                *sessions[static_cast<std::size_t>(w)];
            const RaySweep r = sweepRays(
                session.world(), session.world().eyePosition(positions[i]),
                width, height);
            sum.terrainNsPerRay += r.terrainNsPerRay;
            sum.bvhNsPerRay += r.bvhNsPerRay;
            sum.terrainHitFrac += r.terrainHitFrac;
        }
        out.layers["world.terrain.intersect_ns_per_ray." + n] =
            sum.terrainNsPerRay / swept;
        out.layers["world.bvh.closest_hit_ns_per_ray." + n] =
            sum.bvhNsPerRay / swept;
        out.layers["world.terrain.hit_frac." + n] = sum.terrainHitFrac / swept;
    }
    out.layers["image.codec.encode_ms_p50"] = encodeMs.median();
    out.layers["image.codec.decode_ms_p50"] = decodeMs.median();
    out.layers["image.codec.ssim_min"] = ssimMin;
    out.layers["image.ssim_ms"] = ssimSetupMs;
    setSetupLayers(out, {GameId::Racing, GameId::CTS, GameId::Viking});
    spans().stop();
    setPoolLayers(out, loopCpuS, loopS);
    out.layers["obs.trace_overhead_frac"] = tracedMs / untracedMs - 1.0;
    return out;
}

// --- fleets ------------------------------------------------------------

/** One fleet rep's results, reduced as soon as the fleet returns. */
struct FleetRep
{
    double setupS = 0.0;
    double wallS = 0.0;
    std::uint64_t events = 0;
    std::uint64_t frames = 0;
    std::uint64_t sessionsRun = 0;
    std::uint64_t sessionsFailed = 0;
    std::uint64_t deliveries = 0; ///< renderOnFetch renders issued
    std::uint64_t degraded = 0;
    double renderCoreS = 0.0; ///< render.panorama_ms timer delta
    std::uint64_t transfers = 0;
    std::uint64_t bytesDelivered = 0;
    core::FleetResult fleet; ///< frame logs dropped after reduction
    std::map<std::string, double> sim;
    std::string digest;
};

/** Sim-time outputs and the digest over every frame-log entry. */
void
reduceFleet(FleetRep &rep)
{
    core::FleetResult &fleet = rep.fleet;
    SampleSet latency;
    Digest digest;
    std::uint64_t misses = 0;
    double fpsSum = 0.0;
    double beMbps = 0.0;
    double hitRatio = 0.0;
    std::uint64_t players = 0;
    std::uint64_t fetched = 0, stalls = 0, retries = 0, timeouts = 0,
                  giveups = 0;
    for (core::FleetSessionReport &s : fleet.sessions) {
        ++rep.sessionsRun;
        if (s.phase != core::SessionPhase::Completed)
            ++rep.sessionsFailed;
        rep.deliveries += s.fleetRenders;
        digest.u64(static_cast<std::uint64_t>(s.phase));
        digest.u64(s.fleetRenders);
        fpsSum += s.result.avgFps();
        hitRatio += s.result.avgCacheHitRatio();
        for (const core::PlayerMetrics &p : s.result.players) {
            ++players;
            rep.frames += p.framesDisplayed;
            rep.degraded += p.framesDegraded;
            beMbps += p.beMbps;
            fetched += p.framesFetched;
            stalls += p.stalls;
            retries += p.netRetries;
            timeouts += p.netTimeouts;
            giveups += p.fetchGiveups;
        }
        for (const auto &log : s.result.frameLogs) {
            digest.u64(log.size());
            for (const core::FrameLogEntry &e : log) {
                latency.add(e.latencyMs);
                if (e.latencyMs > 1000.0 / 60.0 || e.degraded)
                    ++misses;
                digest.f64(e.displayMs);
                digest.f64(e.latencyMs);
                digest.f64(e.renderMs);
                digest.u64(e.bytesFetched);
                digest.u64(e.degraded);
            }
        }
        s.result.frameLogs.clear();
    }
    const core::PanoCacheStats &pc = fleet.panoCache;
    for (const std::uint64_t v :
         {pc.hits, pc.misses, pc.inflightJoins, pc.evictions,
          fleet.shedTransitions, fleet.degradeTransitions, fleet.evictions,
          fleet.faults, rep.events})
        digest.u64(v);
    digest.f64(fleet.horizonMs);
    rep.digest = digest.hex();

    const double sessions = static_cast<double>(fleet.sessions.size());
    const double served =
        static_cast<double>(pc.hits + pc.misses + pc.inflightJoins);
    const double frames = static_cast<double>(latency.count());
    auto &sim = rep.sim;
    sim["client.frame_latency_p50_ms"] =
        latency.empty() ? 0.0 : latency.median();
    sim["client.frame_latency_p99_ms"] =
        latency.empty() ? 0.0 : latency.percentile(99.0);
    sim["client.deadline_miss_rate"] =
        frames > 0.0 ? static_cast<double>(misses) / frames : 0.0;
    sim["client.fps"] = sessions > 0.0 ? fpsSum / sessions : 0.0;
    sim["client.cache_hit_ratio"] = sessions > 0.0 ? hitRatio / sessions : 0.0;
    sim["client.frames_displayed"] = static_cast<double>(rep.frames);
    sim["client.frames_fetched"] = static_cast<double>(fetched);
    sim["client.stalls"] = static_cast<double>(stalls);
    sim["client.degraded_frac"] =
        rep.frames > 0 ? static_cast<double>(rep.degraded) /
                             static_cast<double>(rep.frames)
                       : 0.0;
    sim["net.be_mbps_per_player"] =
        players > 0 ? beMbps / static_cast<double>(players) : 0.0;
    sim["net.retries"] = static_cast<double>(retries);
    sim["net.timeouts"] = static_cast<double>(timeouts);
    sim["net.fetch_giveups"] = static_cast<double>(giveups);
    sim["pano_cache.hit_ratio"] =
        served > 0.0 ? (served - static_cast<double>(pc.misses)) / served
                     : 0.0;
    sim["pano_cache.misses"] = static_cast<double>(pc.misses);
    sim["pano_cache.inflight_joins"] = static_cast<double>(pc.inflightJoins);
    sim["pano_cache.evictions"] = static_cast<double>(pc.evictions);
    sim["pano_cache.renders_per_frame"] =
        rep.deliveries > 0 ? static_cast<double>(pc.misses) /
                                 static_cast<double>(rep.deliveries)
                           : 0.0;
    sim["governor.shed_transitions"] =
        static_cast<double>(fleet.shedTransitions);
    sim["governor.degrade_transitions"] =
        static_cast<double>(fleet.degradeTransitions);
    sim["governor.evictions"] = static_cast<double>(fleet.evictions);
    sim["sim.events"] = static_cast<double>(rep.events);
}

struct SessionSlot
{
    int route = 0;
    std::uint64_t traceSeed = 0;
    double startMs = 0.0;
};

/**
 * Which route each session plays and when it starts. Routes are a fixed
 * pool, like the worlds: trajectories from different trace seeds differ
 * so much in render cost that seeding them made fleet throughput vary
 * 2.3-2.7x between seeds. The seed deals the routes to the sessions and
 * staggers the session starts instead.
 */
std::vector<SessionSlot>
dealRoutes(const FleetShape &shape, std::uint64_t seed)
{
    const int routes =
        shape.popularRoutes ? (shape.sessions + 1) / 2 : shape.sessions;
    std::vector<int> route(static_cast<std::size_t>(shape.sessions));
    for (int i = 0; i < shape.sessions; ++i)
        route[static_cast<std::size_t>(i)] = i % routes;
    Rng rng(hashCombine(seed, 0xf1ee7));
    for (std::int64_t i = shape.sessions - 1; i > 0; --i)
        std::swap(route[static_cast<std::size_t>(i)],
                  route[static_cast<std::size_t>(rng.uniformInt(0, i))]);
    std::vector<SessionSlot> slots;
    for (const int r : route)
        slots.push_back(
            {r, hashCombine(kWorldSeed, static_cast<std::uint64_t>(r) + 1) | 1,
             rng.uniform(0.0, 250.0)});
    return slots;
}

/**
 * The chaos script of one session, on its own clock and tied to its
 * route, so every seed faults the same trajectories at the same points:
 * a loss burst, a latency spike and a bandwidth collapse, shifted by
 * 0.5 s per route mod 4 so they overlap across the fleet.
 */
sim::FaultPlan
chaosPlan(const SessionSlot &slot)
{
    const double t = slot.startMs + 500.0 * (slot.route % 4);
    sim::FaultPlan plan;
    plan.lossBurst(t + 1000.0, t + 2500.0, 0.3)
        .latencySpike(t + 3000.0, t + 4000.0, 40.0)
        .bandwidthCollapse(t + 5000.0, t + 6000.0, 0.2);
    return plan;
}

/** Set up a fresh fleet (empty caches, as a new deployment's) and run it. */
FleetRep
runFleetRep(const FleetShape &shape, std::uint64_t seed, Outcome &out)
{
    FleetRep rep;
    const std::uint64_t t0 = obs::monotonicNowNs();
    core::FleetCapacity cap;
    cap.maxSessions = shape.sessions;
    cap.maxClients = shape.sessions * shape.players;
    core::GovernorParams governor;
    governor.enabled = shape.chaos;
    core::SessionManager mgr(cap, governor, shape.cacheBytes);
    core::SessionParams sp;
    sp.players = shape.players;
    sp.durationS = shape.durationS;
    sp.seed = kWorldSeed;
    // The fleet path never reads the thresholds calibration tunes.
    sp.calibrateSimilarity = false;
    sp.frameStore.sharedPanoCache = mgr.panoCache();
    std::unique_ptr<core::Session> base;
    {
        Span span("setup.session", "setup");
        base = core::Session::create(GameId::Viking, sp);
    }
    {
        Span span("fleet.submit", "fleet");
        const std::vector<SessionSlot> slots = dealRoutes(shape, seed);
        for (int i = 0; i < shape.sessions; ++i) {
            core::FleetSessionSpec spec;
            spec.base = base.get();
            const SessionSlot &slot = slots[static_cast<std::size_t>(i)];
            spec.traceSeed = slot.traceSeed;
            spec.startMs = slot.startMs;
            spec.recordFrameLog = true;
            spec.renderOnFetch = shape.renderOnFetch;
            spec.renderWidth = 64;
            spec.renderHeight = 32;
            if (shape.chaos) {
                spec.faults = chaosPlan(slot);
                spec.resilience.enabled = true;
            }
            const core::AdmissionDecision d = mgr.submit(std::move(spec));
            out.check(d.verdict == core::AdmissionVerdict::Admitted,
                      std::string("session not admitted: ") + d.reason);
        }
    }
    rep.setupS = secondsSince(t0);

    const double renderBefore = timerSum("render.panorama_ms");
    const std::uint64_t transfersBefore = counterValue("net.transfers");
    const std::uint64_t bytesBefore = counterValue("net.bytes_delivered");
    const std::uint64_t t1 = obs::monotonicNowNs();
    {
        Span span("fleet.run", "fleet");
        rep.fleet = mgr.run();
    }
    rep.wallS = secondsSince(t1);
    rep.renderCoreS = (timerSum("render.panorama_ms") - renderBefore) / 1000.0;
    rep.transfers = counterValue("net.transfers") - transfersBefore;
    rep.bytesDelivered = counterValue("net.bytes_delivered") - bytesBefore;
    rep.events = mgr.queue().executedEvents();
    reduceFleet(rep);
    return rep;
}

void
checkFleet(const std::string &workload, const FleetShape &shape,
           const FleetRep &rep, Outcome &out)
{
    out.check(rep.frames > 0, "no frames displayed");
    out.check(rep.fleet.horizonMs > 0.0, "fleet did not advance sim time");
    out.check(rep.fleet.faults == 0,
              std::to_string(rep.fleet.faults) + " session faults");
    if (shape.renderOnFetch)
        out.check(rep.deliveries > 0, "no renderOnFetch deliveries");
    if (!shape.chaos) {
        out.check(rep.fleet.evictions == 0,
                  std::to_string(rep.fleet.evictions) +
                      " governor evictions without a governor");
        out.check(rep.degraded == 0, std::to_string(rep.degraded) +
                                         " degraded frames without faults");
    }
    if (workload == "fleet_shared")
        out.check(rep.sim.at("pano_cache.hit_ratio") > 0.3,
                  "shared-cache hit ratio " +
                      std::to_string(rep.sim.at("pano_cache.hit_ratio")) +
                      " not above 0.3");
}

Outcome
runFleet(const std::string &workload, const Options &opt)
{
    Outcome out;
    out.workload = workload;
    const FleetShape shape = fleetShape(workload, opt.smoke);
    const std::size_t minReps = opt.smoke ? 1 : 3;

    std::vector<FleetRep> reps;
    SampleSet setupS;
    SampleSet wallS;
    double firstRepRssMib = 0.0;
    const double cpu0 = cpuSeconds();
    const std::uint64_t loop0 = obs::monotonicNowNs();
    // Start another rep only while it is expected to end in time.
    while (reps.size() < minReps ||
           secondsSince(loop0) * (1.0 + 1.0 / static_cast<double>(
                                            reps.size())) <= opt.seconds) {
        FleetRep rep = runFleetRep(shape, opt.seed, out);
        checkFleet(workload, shape, rep, out);
        out.check(reps.empty() || rep.digest == reps.front().digest,
                  "rep " + std::to_string(reps.size()) +
                      " output digest differs from rep 0");
        setupS.add(rep.setupS);
        wallS.add(rep.wallS);
        if (reps.empty())
            firstRepRssMib = peakRssMib();
        out.attempted += rep.sessionsRun;
        out.failed += rep.sessionsFailed;
        rep.fleet.sessions.clear();
        reps.push_back(std::move(rep));
    }
    const double loopS = secondsSince(loop0);
    const double loopCpuS = cpuSeconds() - cpu0;

    // Every rep is the same work (the digest check above), and the host's
    // other tenants only ever slow a rep down, so the fastest rep is the
    // run's closest estimate of the program's own speed. Whole runs drift
    // by up to 50% on a shared host; the fastest rep drifts the least.
    const FleetRep &first = reps.front();
    setEndToEnd(out, setupS, static_cast<double>(first.frames) / wallS.min(),
                firstRepRssMib);
    out.samples.set("wall_s", samplesJson(wallS));
    out.sim = first.sim;
    out.digest = first.digest;

    if (!opt.trace)
        return out;

    spans().start();
    FleetRep traced = runFleetRep(shape, opt.seed, out);
    setSetupLayers(out, {GameId::Viking});
    spans().stop();
    checkFleet(workload, shape, traced, out);
    out.check(traced.digest == first.digest,
              "traced rep output digest differs from the timed reps");

    out.layers = traced.sim;
    const double simS = traced.fleet.horizonMs / 1000.0;
    const int threads = poolThreads();
    out.layers["sim.events_per_wall_s"] =
        static_cast<double>(traced.events) / traced.wallS;
    out.layers["fleet.wall_per_sim_s"] = traced.wallS / simS;
    out.layers["fleet.render_core_s"] = traced.renderCoreS;
    out.layers["fleet.render_share"] =
        traced.renderCoreS / (traced.wallS * threads);
    out.layers["fleet.non_render_wall_s"] =
        traced.wallS - traced.renderCoreS / threads;
    out.layers["net.transfers"] = static_cast<double>(traced.transfers);
    out.layers["net.mb_delivered"] =
        static_cast<double>(traced.bytesDelivered) / 1e6;
    setPoolLayers(out, loopCpuS, loopS);
    out.layers["obs.trace_overhead_frac"] =
        traced.wallS / wallS.median() - 1.0;
    return out;
}

// --- Output ------------------------------------------------------------

bool
writeFile(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    return std::fclose(f) == 0 && ok;
}

obs::Json
mapJson(const std::map<std::string, double> &values)
{
    obs::Json out = obs::Json::object();
    for (const auto &[name, value] : values)
        out.set(name, obs::Json(value));
    return out;
}

/** Check, write and print one workload's result; true when correct. */
bool
report(const Options &opt, Outcome &out)
{
    const std::vector<MetricSpec> &specs =
        opt.trace ? layerSpecs() : endToEndSpecs();
    const std::map<std::string, double> &values =
        opt.trace ? out.layers : out.endToEnd;
    for (const auto &[name, value] : values) {
        const bool listed =
            std::any_of(specs.begin(), specs.end(),
                        [&](const MetricSpec &s) { return s.name == name; });
        out.check(listed, "unlisted metric " + name);
        out.check(std::isfinite(value), name + " is not finite");
    }
    if (!opt.trace)
        for (const MetricSpec &spec : specs)
            out.check(values.count(spec.name) && values.at(spec.name) > 0.0,
                      spec.name + " was not measured");

    obs::Json metrics = metricsJson(specs, values);
    if (!opt.outDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(opt.outDir, ec);
        const std::string stem = opt.outDir + "/" + out.workload;
        obs::Json detail = obs::Json::object();
        detail.set("workload", obs::Json(out.workload));
        detail.set("seed", obs::Json(opt.seed));
        detail.set("seconds", obs::Json(opt.seconds));
        detail.set("trace", obs::Json(opt.trace));
        detail.set("smoke", obs::Json(opt.smoke));
        detail.set("pool_threads", obs::Json(poolThreads()));
        detail.set("digest", obs::Json(out.digest));
        detail.set("sim", mapJson(out.sim));
        detail.set("metrics", metrics);
        detail.set("samples", out.samples);
        obs::Json failures = obs::Json::array();
        for (const std::string &f : out.failures)
            failures.push(obs::Json(f));
        detail.set("failures", std::move(failures));
        out.check(writeFile(stem + ".trace" + (opt.trace ? "1" : "0") +
                                ".json",
                            detail.dump(1) + "\n"),
                  "cannot write the run file under " + opt.outDir);
        if (opt.trace)
            out.check(spans().exportToFile(opt.outDir + "/trace." +
                                           out.workload + ".json"),
                      "cannot write the trace under " + opt.outDir);
    }

    for (const MetricSpec &spec : specs) {
        const auto it = values.find(spec.name);
        std::fprintf(stderr, "  %-40s %14.6g %s\n", spec.name.c_str(),
                     it == values.end() ? 0.0 : it->second, spec.unit);
    }
    std::fprintf(stderr, "  digest %s, %zu failed checks\n",
                 out.digest.c_str(), out.failures.size());

    const bool correct = out.failures.empty();
    obs::Json line = obs::Json::object();
    line.set("correct", obs::Json(correct));
    line.set("attempted", obs::Json(out.attempted));
    line.set("failed", obs::Json(out.failed));
    line.set("metrics", std::move(metrics));
    std::printf("%s\n", line.dump().c_str());
    std::fflush(stdout);
    return correct;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseOptions(argc, argv);
    std::vector<std::string> workloads;
    if (opt.workload == "all")
        workloads.assign(std::begin(kWorkloads), std::end(kWorkloads));
    else
        workloads.push_back(opt.workload);

    bool ok = true;
    for (const std::string &workload : workloads) {
        std::fprintf(stderr,
                     "coterie_bench: %s, seed %llu, %g s, trace %d%s, %d "
                     "pool threads\n",
                     workload.c_str(),
                     static_cast<unsigned long long>(opt.seed), opt.seconds,
                     opt.trace ? 1 : 0, opt.smoke ? ", smoke" : "",
                     poolThreads());
        try {
            Outcome out = workload == "prerender" ? runPrerender(opt)
                                                  : runFleet(workload, opt);
            ok = report(opt, out) && ok;
        } catch (const std::exception &e) {
            std::fprintf(stderr, "coterie_bench: %s failed: %s\n",
                         workload.c_str(), e.what());
            return 1;
        }
    }
    return ok ? 0 : 1;
}
