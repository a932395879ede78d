#include "core/client.hh"

#include "sim/event_queue.hh"

#include <algorithm>
#include <cmath>
#include <deque>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "net/endpoints.hh"
#include "net/resilience.hh"
#include "obs/flight.hh"
#include "obs/frame_trace.hh"
#include "obs/metrics.hh"
#include "obs/slo.hh"
#include "obs/trace.hh"
#include "render/cost_model.hh"
#include "support/logging.hh"

namespace coterie::core {

using geom::Vec2;
using sim::TimeMs;
using world::GridPoint;

namespace {

/** Causal identity of one outstanding fetch plus when it was queued
 *  on the client pipe (for the PipeWait hop). */
struct FetchTrace
{
    obs::FrameTraceContext ctx;
    TimeMs enqueuedAt = 0.0;
};

/** Runtime state of one split-rendering client. */
struct ClientState
{
    int playerId = 0;
    const trace::PlayerTrace *trace = nullptr;
    std::unique_ptr<FrameCache> cache;        // similar/exact match store
    /**
     * Per-client request pipe: one transfer on the wire at a time (a
     * single TCP stream to the server), later requests queue FIFO.
     * This is what bounds channel concurrency to the player count and
     * produces the paper's N-fold transfer-latency scaling.
     * Capped at 6 entries — request_frame drops the most speculative
     * tail beyond that.
     */
    std::deque<FrameCache::Key> pipe;
    std::unordered_set<std::uint64_t> requested; // queued or in flight
    bool wireBusy = false;
    std::unordered_map<std::uint64_t, TimeMs> arrived; // no-cache store
    GridPoint lastGrid{-1, -1};
    geom::Vec2 lastPos;
    bool hasLastPos = false;
    bool stalled = false;
    TimeMs stallStart = 0.0;
    std::uint64_t deliveries = 0;      // total frames delivered
    std::uint64_t stallBaseline = 0;   // deliveries when stall began

    // Causal tracing: live fetch contexts by grid key, and the context
    // of the most recent completed delivery (what a stalled frame
    // links to when any fresh arrival unblocks it).
    std::unordered_map<std::uint64_t, FetchTrace> fetchTraces;
    obs::FrameTraceContext lastFetchDone;

    // Resilience / chaos state (inert on a clean run: fetcher null,
    // connected always true, every counter stays zero).
    std::unique_ptr<net::ResilientFetcher> fetcher;
    bool connected = true;
    std::uint64_t stallCount = 0;
    double stallMs = 0.0; // total frozen time across stalls
    std::uint64_t framesDegraded = 0;
    TimeMs lastDegradeAt = -1e18; // streak: consecutive degraded ticks
    std::uint64_t disconnects = 0;
    std::uint64_t rejoins = 0;
    TimeMs rejoinAt = -1.0;        // last rejoin instant (-1 = never)
    std::uint64_t probeFrames = 0; // displays inside the probe window
    std::uint64_t probeHits = 0;   // of those, clean (no stall/degrade)

    /** One record per displayed frame, in display order; the frame
     *  loop's only latency sink. */
    std::vector<FrameLogEntry> frames;
    /** Records the governor has sampled (sampleSlo's window start). */
    std::size_t sloSampled = 0;

    // Accumulators.
    RunningStats transferLatency;
    RunningStats fetchedKb;
    std::uint64_t framesFetched = 0;
    std::uint64_t gridTransitions = 0;
    std::uint64_t bytesFetched = 0;
};

/** Trace pose at an absolute sim time. */
const trace::TracePoint &
poseAt(const trace::PlayerTrace &trace, TimeMs now, double tickMs)
{
    const auto idx = static_cast<std::size_t>(std::max(0.0, now / tickMs));
    return trace.points[std::min(idx, trace.points.size() - 1)];
}

} // namespace

/**
 * All session state that used to live as locals of runSplitSystem.
 * Construction order (channel -> server -> fault driver -> fi-sync ->
 * prefetcher -> tracer -> clients) matches the original function so
 * every seeded substream draws identically.
 */
struct SplitSystemRun::Impl
{
    Impl(sim::EventQueue &q, const SystemConfig &cfg,
         const SplitVariant &var, const std::vector<double> &thresholds,
         const char *name, FleetHooks *h, std::uint32_t fleetId);

    // --- The event-loop bodies (formerly local lambdas).
    double threshFor(std::uint32_t leafId) const;
    bool frameAvailable(ClientState &c, const FrameCache::Key &key);
    void pump(ClientState &c);
    void onDelivered(ClientState &c, const FrameCache::Key &key,
                     TimeMs issued, std::uint64_t deliveredKey, TimeMs at);
    void onFailed(ClientState &c, std::uint64_t failedKey, TimeMs at);
    void requestFrame(ClientState &c, const FrameCache::Key &key,
                      bool urgent = false);
    void display(int pid, double frameTime, double latency, double render,
                 bool hit, obs::FrameTraceContext fctx, double readyAt);
    void scheduleFrame(int pid);

    void start();
    SystemResult finish();
    void publishRecords();
    void quarantineAt(TimeMs now);
    void confineFault(const char *what);

    /**
     * Error boundary for event thunks: with hooks armed, an exception
     * escaping @p fn quarantines this session and notifies the
     * manager instead of unwinding the shared event loop. Without
     * hooks the thunk is passed through untouched (solo behaviour:
     * exceptions propagate to the caller).
     */
    template <typename Fn>
    sim::EventFn
    guard(Fn fn)
    {
        if (hooks == nullptr)
            return fn;
        return [this, fn = std::move(fn)]() mutable {
            try {
                fn();
            } catch (const std::exception &e) {
                confineFault(e.what());
            } catch (...) {
                confineFault("non-standard exception");
            }
        };
    }

    /** As guard(), for (key, time) delivery/failure callbacks. */
    template <typename Fn>
    std::function<void(std::uint64_t, TimeMs)>
    guardCb(Fn fn)
    {
        return [this, fn = std::move(fn)](std::uint64_t k,
                                          TimeMs at) mutable {
            if (hooks == nullptr) {
                fn(k, at);
                return;
            }
            try {
                fn(k, at);
            } catch (const std::exception &e) {
                confineFault(e.what());
            } catch (...) {
                confineFault("non-standard exception");
            }
        };
    }

    // --- Immutable run inputs.
    SystemConfig config;
    SplitVariant variant;
    std::vector<double> distThresholds;
    const char *systemName;
    FleetHooks *hooks;
    std::uint32_t fleetSession;

    sim::EventQueue &queue;
    const world::VirtualWorld &world;
    const world::GridMap &grid;
    const RegionIndex &regions;
    const FrameStore &frames;
    const trace::SessionTrace &traces;
    int players;
    double duration;
    const sim::FaultPlan *faults;

    // --- Session actors, in original construction order.
    net::SharedChannel channel;
    net::FrameServer server;
    std::optional<sim::FaultDriver> faultDriver;
    net::FiSync fiSync;
    Prefetcher prefetcher;
    /** Shed-mode prefetcher: single predicted next point only. */
    Prefetcher conservativePrefetcher;
    obs::FrameTracer tracer;
    double decodeMs;
    std::vector<ClientState> clients;

    // --- Run lifecycle / fleet state (all inert on a solo run).
    /** Shared-clock time when start() ran: the session's time origin.
     *  Trace sampling and the run horizon are relative to it, so a
     *  session admitted from the fleet wait queue mid-simulation plays
     *  its trace from the beginning. Zero on a solo run. */
    TimeMs startAt = 0.0;
    std::uint64_t degradedTotal = 0;
    bool stopped = false;       ///< no further session activity
    bool isQuarantined = false; ///< stopped via quarantine()
    bool isFaulted = false;     ///< stopped via the error boundary
    std::string faultReason;
    bool recordsPublished = false;
    bool finished = false;
    bool throttled = false;     ///< shed level 1: conservative prefetch
    bool forceDegrade = false;  ///< shed level 2: immediate stale subst.
    LiveSlo slo;                ///< as of the last sampleSlo()
};

SplitSystemRun::Impl::Impl(sim::EventQueue &q, const SystemConfig &cfg,
                           const SplitVariant &var,
                           const std::vector<double> &thresholds,
                           const char *name, FleetHooks *h,
                           std::uint32_t fleetId)
    : config(cfg), variant(var), distThresholds(thresholds),
      systemName(name), hooks(h), fleetSession(fleetId), queue(q),
      world(*cfg.world), grid(*cfg.grid), regions(*cfg.regions),
      frames(*cfg.frames), traces(*cfg.traces),
      players(traces.playerCount()), duration(traces.durationMs()),
      // A null or empty fault plan collapses every chaos hook to the
      // pre-chaos code path (the strict no-op contract).
      faults((cfg.faults != nullptr && !cfg.faults->empty()) ? cfg.faults
                                                             : nullptr),
      channel(queue, config.channel, faults),
      server(
          queue, channel,
          [this](std::uint64_t key) {
              const GridPoint g{
                  static_cast<std::int64_t>(
                      key % static_cast<std::uint64_t>(grid.cols())),
                  static_cast<std::int64_t>(
                      key / static_cast<std::uint64_t>(grid.cols()))};
              return variant.farBeMode ? frames.farBeBytes(g)
                                       : frames.wholeBeBytes(g);
          },
          config.serverNet, faults),
      fiSync(config.fiSync, 11),
      prefetcher(world, grid, regions, variant.prefetch),
      conservativePrefetcher(world, grid, regions,
                             variant.prefetch.conservative()),
      // Causal frame tracer: one per run, always on (observe-only;
      // every exported value is sim-derived so determinism is
      // unaffected). The label keys the SLO summary published at
      // finish(). Chaos runs get their own label so a clean run and a
      // fault run of the same session never merge their frame records
      // (frame numbers repeat across runs) in the SLO registry or
      // trace_report.
      tracer((config.sessionTag.empty() ? std::string("session")
                                        : config.sessionTag) +
             "/" + std::to_string(players) + "p/" + systemName +
             (config.faults != nullptr ? "+chaos" : "")),
      decodeMs(device::decodeMs(config.profile, frames.params().panoWidth,
                                frames.params().panoHeight)),
      clients(static_cast<std::size_t>(players))
{
    if (faults) {
        faultDriver.emplace(queue, *faults, config.sessionTag);
        faultDriver->arm();
    }
    for (int p = 0; p < players; ++p) {
        clients[p].playerId = p;
        clients[p].trace = &traces.players[p];
        if (variant.useCache) {
            FrameCacheParams cp;
            cp.capacityBytes = config.profile.cacheBudgetBytes;
            cp.policy = variant.policy;
            cp.mode = variant.matchMode;
            // Bucket edge ~ the largest reuse distance in force.
            double max_thresh = 0.5;
            for (double t : distThresholds)
                max_thresh = std::max(max_thresh, t);
            cp.bucketEdge = std::max(1.0, max_thresh);
            clients[p].cache = std::make_unique<FrameCache>(cp);
        }
        if (config.resilience.enabled) {
            net::ResilienceParams rp = config.resilience;
            // Independent jitter substream per client.
            rp.seed = hashCombine(config.resilience.seed,
                                  static_cast<std::uint64_t>(p) + 1);
            clients[p].fetcher = std::make_unique<net::ResilientFetcher>(
                queue, server, rp);
        }
    }
}

double
SplitSystemRun::Impl::threshFor(std::uint32_t leafId) const
{
    return leafId < distThresholds.size() ? distThresholds[leafId] : 0.0;
}

// Is the BE frame for grid point g usable right now?
bool
SplitSystemRun::Impl::frameAvailable(ClientState &c,
                                     const FrameCache::Key &key)
{
    if (c.cache)
        return c.cache->lookup(key, threshFor(key.leafRegionId))
            .has_value();
    return c.arrived.count(key.gridKey) > 0;
}

void
SplitSystemRun::Impl::onDelivered(ClientState &c,
                                  const FrameCache::Key &key,
                                  TimeMs issued,
                                  std::uint64_t delivered_key, TimeMs at)
{
    if (stopped)
        return;
    c.requested.erase(delivered_key);
    c.wireBusy = false;
    const GridPoint g{
        static_cast<std::int64_t>(
            delivered_key % static_cast<std::uint64_t>(grid.cols())),
        static_cast<std::int64_t>(
            delivered_key / static_cast<std::uint64_t>(grid.cols()))};
    const std::uint64_t bytes = variant.farBeMode ? frames.farBeBytes(g)
                                                  : frames.wholeBeBytes(g);
    c.transferLatency.add(at - issued);
    c.fetchedKb.add(static_cast<double>(bytes) / 1024.0);
    c.bytesFetched += bytes;
    ++c.framesFetched;
    ++c.deliveries;
    if (auto ft = c.fetchTraces.find(delivered_key);
        ft != c.fetchTraces.end()) {
        tracer.complete(ft->second.ctx, at, at - ft->second.enqueuedAt);
        c.lastFetchDone = ft->second.ctx;
        c.fetchTraces.erase(ft);
    }
    if (c.cache) {
        c.cache->insert(key, static_cast<std::uint32_t>(bytes));
    } else {
        c.arrived.emplace(delivered_key, at);
    }
    if (variant.overhear) {
        // Promiscuous mode: every station receives the frame.
        for (ClientState &other : clients) {
            if (&other != &c && other.cache) {
                other.cache->insert(key,
                                    static_cast<std::uint32_t>(bytes));
            }
        }
    }
    if (hooks)
        hooks->onFrameFetched(fleetSession, delivered_key, c.playerId,
                              bytes);
    pump(c);
}

void
SplitSystemRun::Impl::onFailed(ClientState &c, std::uint64_t failed_key,
                               TimeMs at)
{
    if (stopped)
        return;
    // Give-up after maxAttempts: free the request pipe and move on —
    // the stall path degrades to the newest stale panorama and
    // re-requests later.
    c.requested.erase(failed_key);
    c.wireBusy = false;
    if (auto ft = c.fetchTraces.find(failed_key);
        ft != c.fetchTraces.end()) {
        tracer.abort(ft->second.ctx, at);
        c.fetchTraces.erase(ft);
    }
    COTERIE_COUNT("client.fetch_giveups");
    pump(c);
}

// Put the next queued request of client c on the wire.
void
SplitSystemRun::Impl::pump(ClientState &c)
{
    if (stopped || c.wireBusy || c.pipe.empty() || !c.connected)
        return;
    const FrameCache::Key key = c.pipe.front();
    c.pipe.pop_front();
    c.wireBusy = true;
    const TimeMs issued = queue.now();
    // Time spent queued behind earlier requests on this client's
    // single TCP stream is a causal hop of its own.
    obs::FrameTraceContext fctx;
    if (auto ft = c.fetchTraces.find(key.gridKey);
        ft != c.fetchTraces.end()) {
        fctx = ft->second.ctx;
        if (issued > ft->second.enqueuedAt)
            fctx.hop(obs::Hop::PipeWait, ft->second.enqueuedAt, issued);
    }
    auto on_delivered = guardCb(
        [this, &c, key, issued](std::uint64_t delivered_key, TimeMs at) {
            onDelivered(c, key, issued, delivered_key, at);
        });
    if (c.fetcher) {
        c.fetcher->fetch(key.gridKey, fctx, std::move(on_delivered),
                         guardCb([this, &c](std::uint64_t failed_key,
                                            TimeMs at) {
                             onFailed(c, failed_key, at);
                         }));
    } else {
        net::RequestOptions ropts;
        ropts.trace = fctx;
        server.request(key.gridKey, std::move(on_delivered),
                       std::move(ropts));
    }
}

// Enqueue a frame request; @p urgent puts it at the head of the
// pipe (a stalled display needs it before speculative prefetches).
void
SplitSystemRun::Impl::requestFrame(ClientState &c,
                                   const FrameCache::Key &key, bool urgent)
{
    if (c.requested.count(key.gridKey))
        return;
    c.requested.insert(key.gridKey);
    const TimeMs now = queue.now();
    // Mint the fetch's causal record at the moment of request; the
    // origin hop says why it exists (urgent on-demand request vs
    // speculative cover-set prefetch).
    obs::FrameTraceContext ctx = tracer.mint(
        obs::FrameTracer::Kind::Fetch,
        static_cast<std::uint16_t>(c.playerId), key.gridKey, now);
    ctx.hop(urgent ? obs::Hop::Request : obs::Hop::Prefetch, now, now);
    c.fetchTraces[key.gridKey] = FetchTrace{ctx, now};
    if (urgent)
        c.pipe.push_front(key);
    else
        c.pipe.push_back(key);
    // Bound speculative backlog: drop the most speculative tail.
    while (c.pipe.size() > 6) {
        const std::uint64_t dropped = c.pipe.back().gridKey;
        c.requested.erase(dropped);
        if (auto ft = c.fetchTraces.find(dropped);
            ft != c.fetchTraces.end()) {
            tracer.abort(ft->second.ctx, now);
            c.fetchTraces.erase(ft);
        }
        c.pipe.pop_back();
    }
    pump(c);
}

// Shared display epilogue: commit a frame after @p frame_time,
// append its one record, fold rejoin-probe accounting (@p hit = the
// frame was served without stall or degradation), then loop.
void
SplitSystemRun::Impl::display(int pid, double frame_time, double latency,
                              double render, bool hit,
                              obs::FrameTraceContext fctx, double readyAt)
{
    // The wake revalidates via `stopped` (set at quarantine/shutdown;
    // the Impl outlives the queue run by contract).
    queue.scheduleIn( // lint:allow(epoch-guarded-schedule)
        frame_time,
        guard([this, pid, latency, render, hit, fctx, readyAt]() mutable {
            if (stopped)
                return;
            ClientState &cc = clients[pid];
            const TimeMs done = queue.now();
            // Stamp any vsync padding as the Display hop, then
            // complete the causal record at content-ready time with
            // the frame's Equation-2 latency, so the trace and the
            // frame record carry the same value.
            if (done > readyAt)
                tracer.hop(fctx, obs::Hop::Display, readyAt, done);
            cc.frames.push_back(FrameLogEntry{
                .displayMs = done,
                .latencyMs = latency,
                .renderMs = render,
                .bytesFetched = cc.bytesFetched,
                .degraded = !hit,
                .criticalPath = tracer.complete(fctx, readyAt, latency)});
            COTERIE_COUNT("client.frames_displayed");
            if (cc.rejoinAt >= 0.0) {
                const double lo =
                    cc.rejoinAt + config.resilience.rejoinSettleMs;
                if (done >= lo &&
                    done < lo + config.resilience.rejoinProbeMs) {
                    ++cc.probeFrames;
                    if (hit)
                        ++cc.probeHits;
                }
            }
            scheduleFrame(pid);
        }));
}

void
SplitSystemRun::Impl::scheduleFrame(int pid)
{
    if (stopped)
        return;
    ClientState &c = clients[pid];
    const TimeMs now = queue.now();
    // Session-relative time: trace playback and the run horizon are
    // measured from start() so queued fleet admissions replay their
    // trace from the beginning. Identical to `now` on a solo run.
    const TimeMs t = now - startAt;
    if (t >= duration)
        return;
    if (config.injectFaultAtMs >= 0.0 && t >= config.injectFaultAtMs) {
        // Fleet error-boundary test hook (SystemConfig docs): confined
        // by guard() under a manager, propagates on a solo run.
        throw std::runtime_error("injected session fault");
    }

    if (faults != nullptr && faults->disconnected(pid, now)) {
        if (c.connected) {
            // Scripted WLAN drop: the association resets — every
            // in-flight fetch aborts, the request pipe clears, a
            // stall in progress is abandoned.
            c.connected = false;
            ++c.disconnects;
            COTERIE_COUNT("client.disconnects");
            if (c.fetcher)
                c.fetcher->cancelAll();
            // Cancelled fetches never call back: close out their
            // causal records as aborted at the drop instant.
            for (auto &[fk, ft] : c.fetchTraces)
                tracer.abort(ft.ctx, now);
            c.fetchTraces.clear();
            c.pipe.clear();
            c.requested.clear();
            c.wireBusy = false;
            if (c.stalled) {
                // The abandoned stall's frozen time still counts.
                c.stallMs += now - c.stallStart;
                c.stalled = false;
            }
        }
        const TimeMs rejoin = faults->reconnectsAt(pid, now);
        // scheduleFrame revalidates via `stopped` on wake.
        if (rejoin < startAt + duration)
            queue.scheduleAt(rejoin, // lint:allow(epoch-guarded-schedule)
                             guard([this, pid] { scheduleFrame(pid); }));
        return;
    }

    const trace::TracePoint &pose = poseAt(*c.trace, t, traces.tickMs);
    const GridPoint g = grid.snap(pose.position);
    const FrameCache::Key key = prefetcher.keyFor(g);
    if (c.cache)
        c.cache->setPlayerPosition(pose.position);

    if (!c.connected) {
        // Back on the WLAN: before resuming the frame loop,
        // re-sync the cover set through the prefetcher (the
        // movement heading went stale while offline, so cover all
        // directions in one burst).
        c.connected = true;
        ++c.rejoins;
        c.rejoinAt = now;
        COTERIE_COUNT("client.rejoins");
        obs::TraceRecorder::global().instant("client.rejoin", "fault",
                                             now);
        c.lastGrid = GridPoint{-1, -1};
        for (const PrefetchTarget &t : prefetcher.resyncTargets(
                 g, pose.position, c.cache.get(), distThresholds)) {
            requestFrame(c, prefetcher.keyFor(t.point));
        }
    }

    // New grid point: issue prefetches for the upcoming cover set.
    // The prefetch direction follows the player's *movement* (which
    // Furion observes to be predictable), not the noisy gaze yaw.
    double heading = pose.yaw;
    if (c.hasLastPos) {
        const geom::Vec2 delta = pose.position - c.lastPos;
        if (delta.lengthSq() > 1e-12)
            heading = delta.angle();
    }
    c.lastPos = pose.position;
    c.hasLastPos = true;
    if (!(g == c.lastGrid)) {
        ++c.gridTransitions;
        c.lastGrid = g;
        // Shed level 1 swaps in the conservative cover set (next
        // predicted point only) — fewer speculative fetches while the
        // fleet is overloaded.
        const Prefetcher &pf =
            throttled ? conservativePrefetcher : prefetcher;
        const auto targets = pf.misses(g, pose.position, heading,
                                       c.cache.get(), distThresholds);
        for (const PrefetchTarget &t : targets) {
            if (!c.cache && c.arrived.count(t.gridKey))
                continue; // already fetched earlier
            requestFrame(c, prefetcher.keyFor(t.point));
        }
    }

    // Compute this frame's latency (Equation 2).
    const double cutoff = regions.cutoffAt(pose.position);
    const double render =
        variant.farBeMode
            ? config.rtFiMs + render::renderTimeMs(world, pose.position,
                                                   0.0, cutoff,
                                                   config.profile.cost)
            : config.rtFiMs;
    // FI sync rides the same WLAN: scripted loss bursts hit it too,
    // and an outage (bandwidth factor 0) loses every tick. With no
    // faults the 0-loss overload draws the identical rng stream.
    const double fi_loss =
        faults != nullptr
            ? (faults->bandwidthFactor(now) <= 0.0
                   ? 1.0
                   : std::min(1.0, faults->extraLossProbability(now)))
            : 0.0;
    const double sync =
        players > 1 ? fiSync.syncLatencyMs(players, fi_loss) : 0.0;
    const double core = std::max({render, decodeMs, sync});

    // A stalled frame unblocks either when the exact BE arrives or
    // when any fresh delivery lands: the client then displays with
    // the newest (possibly one-grid-point stale) panorama, exactly
    // what lets the real Multi-Furion degrade to ~45 FPS instead of
    // freezing. The slight BE staleness is why its measured SSIM
    // trails Coterie's (Table 7).
    const bool was_stalled = c.stalled;
    const bool unblocked = c.stalled && c.deliveries > c.stallBaseline;
    if (unblocked || frameAvailable(c, key)) {
        // A frame that stalled waiting for the network already ran
        // its parallel tasks during the wait; only the merge
        // remains (decode streams during the transfer). Fresh
        // frames pay the full Equation-2 pipeline, padded to the
        // display refresh interval.
        double frame_time, latency, ready_at;
        obs::FrameTraceContext fctx;
        if (c.stalled) {
            // Pad to the display refresh: a short stall still
            // cannot beat vsync.
            const double waited = now - c.stallStart;
            c.stallMs += waited;
            frame_time = std::max(config.mergeMs, config.tickMs - waited);
            latency = waited + config.mergeMs;
            c.stalled = false;
            // The frame's causal story began when the stall did;
            // link it to the delivery that unblocked it so the
            // critical path can descend into the fetch.
            fctx = tracer.mint(obs::FrameTracer::Kind::Frame,
                               static_cast<std::uint16_t>(pid),
                               c.frames.size(), c.stallStart);
            fctx.hop(obs::Hop::StallWait, c.stallStart, now);
            if (c.lastFetchDone.active())
                tracer.link(fctx, c.lastFetchDone);
            fctx.hop(obs::Hop::Merge, now, now + config.mergeMs);
            ready_at = now + config.mergeMs;
        } else {
            const double pipeline = core + config.mergeMs;
            frame_time = std::max(config.tickMs, pipeline);
            latency = pipeline;
            // Fresh frame: the Equation-2 parallel tasks (FI/far
            // render, BE decode, FI sync) then the serial merge.
            fctx = tracer.mint(obs::FrameTracer::Kind::Frame,
                               static_cast<std::uint16_t>(pid),
                               c.frames.size(), now);
            fctx.hop(obs::Hop::Render, now, now + render);
            fctx.hop(obs::Hop::Decode, now, now + decodeMs);
            if (sync > 0.0)
                fctx.hop(obs::Hop::Sync, now, now + sync);
            fctx.hop(obs::Hop::Merge, now + core, now + pipeline);
            ready_at = now + pipeline;
        }
        display(pid, frame_time, latency, render, !was_stalled, fctx,
                ready_at);
    } else {
        // Stall: the needed frame is missing. Ensure it is on the
        // wire, then poll for its arrival (cheap 1 ms poll).
        if (!c.stalled) {
            c.stalled = true;
            c.stallStart = now;
            c.stallBaseline = c.deliveries;
            ++c.stallCount;
            COTERIE_COUNT("client.stalls");
        }
        const double waited = now - c.stallStart;
        // Reprojection-style streak: the degradeAfterMs threshold
        // is paid once per miss, not per frame — while the urgent
        // fetch stays outstanding, subsequent ticks keep re-showing
        // the stale panorama at display cadence instead of
        // re-freezing for another threshold.
        const bool degrade_streak =
            now - c.lastDegradeAt <= config.tickMs * 1.5;
        // Shed level 2 (forceDegrade) is the same degradation path
        // with a zero stall threshold, available even without a
        // resilient fetcher: under fleet overload a stale panorama
        // now beats a fresh one later.
        const bool can_degrade =
            (c.fetcher != nullptr || forceDegrade) && c.cache != nullptr;
        const double degrade_after =
            forceDegrade ? 0.0 : config.resilience.degradeAfterMs;
        if (can_degrade && (waited >= degrade_after || degrade_streak) &&
            c.cache->entryCount() > 0) {
            // Graceful degradation: rather than freezing on the
            // missing megaframe, re-display the newest cached
            // panorama (frame similarity makes the stale far BE
            // perceptually close) and account a *degraded* frame.
            // The urgent fetch stays in flight and repairs the
            // cache when it lands.
            ++c.framesDegraded;
            ++degradedTotal;
            c.stallMs += waited;
            c.lastDegradeAt = now;
            COTERIE_COUNT("qoe.degraded_frames");
            obs::TraceRecorder::global().counter(
                "qoe.degraded_frames",
                static_cast<double>(degradedTotal));
            c.stalled = false;
            const double frame_time =
                std::max(config.mergeMs, config.tickMs - waited);
            const double latency = waited + config.mergeMs;
            // Degraded frame: waited, then merged a stale panorama
            // (no unblocking delivery to link — the urgent repair
            // fetch is still in flight).
            obs::FrameTraceContext fctx = tracer.mint(
                obs::FrameTracer::Kind::Frame,
                static_cast<std::uint16_t>(pid), c.frames.size(),
                c.stallStart);
            fctx.hop(obs::Hop::StallWait, c.stallStart, now);
            fctx.hop(obs::Hop::Merge, now, now + config.mergeMs);
            requestFrame(c, key, /*urgent=*/true);
            display(pid, frame_time, latency, render,
                    /*hit=*/false, fctx, now + config.mergeMs);
            return;
        }
        requestFrame(c, key, /*urgent=*/true);
        // scheduleFrame revalidates via `stopped` on wake.
        queue.scheduleIn( // lint:allow(epoch-guarded-schedule)
            1.0, guard([this, pid] { scheduleFrame(pid); }));
    }
}

void
SplitSystemRun::Impl::start()
{
    startAt = queue.now();
    for (int p = 0; p < players; ++p) {
        // Stagger starts by a fraction of a tick like real headsets.
        // scheduleFrame revalidates via `stopped` on wake.
        queue.scheduleIn(p * 2.1, // lint:allow(epoch-guarded-schedule)
                         guard([this, p] { scheduleFrame(p); }));
    }
}

void
SplitSystemRun::Impl::quarantineAt(TimeMs now)
{
    if (isQuarantined)
        return;
    isQuarantined = true;
    stopped = true;
    for (ClientState &c : clients) {
        if (c.fetcher)
            c.fetcher->cancelAll();
        for (auto &[fk, ft] : c.fetchTraces)
            tracer.abort(ft.ctx, now);
        c.fetchTraces.clear();
        c.pipe.clear();
        c.requested.clear();
        c.wireBusy = false;
        if (c.stalled) {
            c.stallMs += now - c.stallStart;
            c.stalled = false;
        }
    }
    // Freeze the SLO label: publish the summary as of the quarantine
    // instant — later events in sibling sessions can no longer move it.
    publishRecords();
    COTERIE_COUNT("fleet.session_quarantined");
    obs::flight::recordInstant("fleet.session_quarantined", "fleet", now);
}

void
SplitSystemRun::Impl::confineFault(const char *what)
{
    isFaulted = true;
    faultReason = what != nullptr ? what : "";
    quarantineAt(queue.now());
    COTERIE_COUNT("fleet.session_faulted");
    if (hooks)
        hooks->onSessionFault(fleetSession, faultReason.c_str());
}

// Export the causal records (sim-timeline trace events when
// recording) and publish the SLO summary of the frame records under
// the session label, once: a quarantine freezes both at its instant.
void
SplitSystemRun::Impl::publishRecords()
{
    if (recordsPublished)
        return;
    recordsPublished = true;
    tracer.finish();
    obs::DeadlineTracker summary;
    for (const ClientState &c : clients)
        for (const FrameLogEntry &e : c.frames)
            summary.record(static_cast<std::uint16_t>(c.playerId),
                           e.latencyMs,
                           obs::criticalPathName(e.criticalPath));
    obs::SloRegistry::global().publish(tracer.label(), summary.toJson());
}

SystemResult
SplitSystemRun::Impl::finish()
{
    COTERIE_ASSERT(!finished, "SplitSystemRun::finish called twice");
    finished = true;
    publishRecords();

    SystemResult result;
    result.systemName = systemName;
    result.durationMs = duration;
    // Mean utilised throughput over this session's own run window. The
    // channel's queue-clock variant would read the *fleet* clock here,
    // which differs from the solo clock by the finalize nudge and by
    // any admission delay before the session started.
    const double elapsedMs = duration + SplitSystemRun::settleMs();
    result.channelUtilMbps =
        elapsedMs > 0.0 ? static_cast<double>(channel.bytesDelivered()) *
                              8.0 / 1e3 / elapsedMs
                        : 0.0;
    for (ClientState &c : clients) {
        // QoE means fold the frame records in display order; the first
        // inter-frame interval runs from the session's start.
        RunningStats interFrame, responsiveness, renderMs;
        TimeMs prevDisplayMs = startAt;
        for (const FrameLogEntry &e : c.frames) {
            interFrame.add(e.displayMs - prevDisplayMs);
            responsiveness.add(config.sensorMs + e.latencyMs);
            renderMs.add(e.renderMs);
            prevDisplayMs = e.displayMs;
        }
        PlayerMetrics m;
        m.playerId = c.playerId;
        m.framesDisplayed = c.frames.size();
        m.framesFetched = c.framesFetched;
        m.gridTransitions = c.gridTransitions;
        m.fps = duration > 0.0
                    ? static_cast<double>(m.framesDisplayed) /
                          (duration / 1000.0)
                    : 0.0;
        m.interFrameMs = interFrame.mean();
        m.responsivenessMs = responsiveness.mean();
        m.netDelayMs = c.transferLatency.mean();
        m.frameKb = c.fetchedKb.mean();
        m.renderMsPerFrame = renderMs.mean();
        m.beMbps = duration > 0.0
                       ? static_cast<double>(c.bytesFetched) * 8.0 /
                             (duration / 1000.0) / 1e6
                       : 0.0;
        m.fiKbps =
            fiSync.bandwidthKbps(players) / std::max(1, players);
        m.cacheHitRatio =
            c.gridTransitions
                ? std::max(0.0,
                           1.0 - static_cast<double>(c.framesFetched) /
                                     static_cast<double>(
                                         c.gridTransitions))
                : 0.0;
        if (c.cache)
            m.cacheStats = c.cache->stats();
        m.stalls = c.stallCount;
        m.stallMs = c.stallMs;
        m.framesDegraded = c.framesDegraded;
        m.disconnects = c.disconnects;
        m.rejoins = c.rejoins;
        if (c.fetcher) {
            m.netRetries = c.fetcher->stats().retries;
            m.netTimeouts = c.fetcher->stats().timeouts;
            m.fetchGiveups = c.fetcher->stats().failures;
        }
        m.rejoinHitRatio =
            c.probeFrames > 0
                ? static_cast<double>(c.probeHits) /
                      static_cast<double>(c.probeFrames)
                : -1.0;
        m.gpuPct = device::gpuLoadPct(config.profile, m.renderMsPerFrame,
                                      std::min(m.fps, 60.0));
        device::CpuLoadInputs cpu_in;
        cpu_in.networkMbps = m.beMbps;
        cpu_in.decodeFps = std::min(m.fps, 60.0);
        cpu_in.syncHz = players > 1 ? 60.0 : 0.0;
        cpu_in.rendering = true;
        m.cpuPct = device::cpuLoadPct(config.profile, cpu_in);
        // Split-rendering pipeline CPU work the generic model does not
        // carry: texture upload + merge (both modes), plus cache and
        // near-BE draw submission for Coterie (calibrated to Table 8).
        m.cpuPct += variant.farBeMode ? 13.0 : 4.0;
        result.players.push_back(m);
        if (config.recordFrameLog)
            result.frameLogs.push_back(std::move(c.frames));
    }
    return result;
}

SplitSystemRun::SplitSystemRun(sim::EventQueue &queue,
                               const SystemConfig &config,
                               const SplitVariant &variant,
                               const std::vector<double> &distThresholds,
                               const char *systemName, FleetHooks *hooks,
                               std::uint32_t fleetSession)
{
    COTERIE_ASSERT(config.world && config.grid && config.regions &&
                   config.frames && config.traces,
                   "incomplete system config");
    impl_ = std::make_unique<Impl>(queue, config, variant, distThresholds,
                                   systemName, hooks, fleetSession);
}

SplitSystemRun::~SplitSystemRun() = default;

void
SplitSystemRun::start()
{
    impl_->start();
}

double
SplitSystemRun::durationMs() const
{
    return impl_->duration;
}

SystemResult
SplitSystemRun::finish()
{
    return impl_->finish();
}

void
SplitSystemRun::throttlePrefetch(bool on)
{
    impl_->throttled = on;
}

void
SplitSystemRun::forceDegrade(bool on)
{
    impl_->forceDegrade = on;
}

void
SplitSystemRun::quarantine()
{
    impl_->quarantineAt(impl_->queue.now());
}

void
SplitSystemRun::shutdown()
{
    impl_->stopped = true;
}

bool
SplitSystemRun::quarantined() const
{
    return impl_->isQuarantined;
}

bool
SplitSystemRun::faulted() const
{
    return impl_->isFaulted;
}

const std::string &
SplitSystemRun::faultReason() const
{
    return impl_->faultReason;
}

LiveSlo
SplitSystemRun::sampleSlo()
{
    // The window is every frame record appended since the previous
    // sample; the cumulative totals fold each window in once.
    LiveSlo &slo = impl_->slo;
    slo.windowFrames = 0;
    slo.windowMisses = 0;
    for (ClientState &c : impl_->clients) {
        for (; c.sloSampled < c.frames.size(); ++c.sloSampled) {
            ++slo.windowFrames;
            if (obs::missesDeadline(c.frames[c.sloSampled].latencyMs))
                ++slo.windowMisses;
        }
    }
    slo.frames += slo.windowFrames;
    slo.misses += slo.windowMisses;
    return slo;
}

const std::string &
SplitSystemRun::label() const
{
    return impl_->tracer.label();
}

SystemResult
runSplitSystem(const SystemConfig &config, const SplitVariant &variant,
               const std::vector<double> &distThresholds,
               const char *systemName)
{
    COTERIE_NAMED_SPAN(runSpan, "client.run_split_system", "core");
    sim::EventQueue queue;
    SplitSystemRun run(queue, config, variant, distThresholds, systemName);
    run.start();
    queue.runUntil(run.durationMs() + SplitSystemRun::settleMs());
    SystemResult result = run.finish();
    runSpan.simTimeMs(run.durationMs());
    return result;
}

} // namespace coterie::core
