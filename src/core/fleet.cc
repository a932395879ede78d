#include "core/fleet.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "trace/trajectory.hh"

namespace coterie::core {

const char *
admissionVerdictName(AdmissionVerdict v)
{
    switch (v) {
      case AdmissionVerdict::Admitted: return "admitted";
      case AdmissionVerdict::Queued: return "queued";
      case AdmissionVerdict::Rejected: return "rejected";
    }
    return "unknown";
}

const char *
sessionPhaseName(SessionPhase p)
{
    switch (p) {
      case SessionPhase::Queued: return "queued";
      case SessionPhase::Running: return "running";
      case SessionPhase::Completed: return "completed";
      case SessionPhase::Evicted: return "evicted";
      case SessionPhase::Faulted: return "faulted";
    }
    return "unknown";
}

/** Everything the manager tracks for one adopted session. */
struct SessionManager::SessionState
{
    std::uint32_t id = 0;
    FleetSessionSpec spec; ///< stable storage for config.faults
    SessionPhase phase = SessionPhase::Queued;
    SystemConfig config;
    /** Regenerated traces when the spec overrides the base's. */
    std::optional<trace::SessionTrace> ownTraces;
    std::unique_ptr<SplitSystemRun> run;
    SystemResult result; ///< assembled at finalize
    int players = 0;
    double loadMsPerS = 0.0;
    int level = 0;   ///< governor shed level (0..2)
    int strikes = 0; ///< consecutive ticks above evictMissRate
    LiveSlo slo;     ///< last sample (cumulative fields authoritative)
    std::uint64_t fleetRenders = 0;
    std::string faultReason;
    double startedAtMs = -1.0;
    double finishedAtMs = -1.0;
    bool finalized = false;
    /** DES lane this session's events run in (0 until started). */
    std::uint32_t lane = 0;
    /** renderOnFetch grid keys deferred to the round barrier. Written
     *  only by this session's lane, drained (and cleared) at every
     *  barrier, so growth is bounded by one round's deliveries. */
    std::vector<std::uint64_t> pendingRenders;
};

SessionManager::SessionManager(FleetCapacity capacity,
                               GovernorParams governor,
                               std::size_t panoCacheBytes)
    : capacity_(capacity), governor_(governor),
      panoCache_(std::make_shared<PanoramaRenderCache>(panoCacheBytes))
{
    queue_.setBarrierHook([this] { drainRenderBatch(); });
    COTERIE_ASSERT(governor_.recoverMissRate <= governor_.shedMissRate &&
                       governor_.shedMissRate <=
                           governor_.degradeMissRate &&
                       governor_.degradeMissRate <=
                           governor_.evictMissRate,
                   "governor thresholds must be ordered "
                   "recover <= shed <= degrade <= evict");
}

SessionManager::~SessionManager() = default;

std::shared_ptr<PanoramaRenderCache>
SessionManager::panoCache() const
{
    return panoCache_;
}

const sim::ParallelEventQueue &
SessionManager::queue() const
{
    return queue_;
}

double
SessionManager::estimatedLoadMsPerS(const FleetSessionSpec &spec) const
{
    const int players =
        spec.players > 0 ? spec.players : spec.base->params().players;
    const SystemConfig probe = spec.base->systemConfig();
    // Steady-state device render cost: one FI render per display tick
    // per player. This is the admission-time estimate; the governor
    // corrects for reality from live deadline misses.
    return players * probe.rtFiMs * (1000.0 / probe.tickMs);
}

bool
SessionManager::fits(const FleetSessionSpec &spec, const char **why) const
{
    const int players =
        spec.players > 0 ? spec.players : spec.base->params().players;
    if (runningSessions_ + 1 > capacity_.maxSessions) {
        *why = "session slots exhausted";
        return false;
    }
    if (runningClients_ + players > capacity_.maxClients) {
        *why = "client capacity exhausted";
        return false;
    }
    if (runningLoadMsPerS_ + estimatedLoadMsPerS(spec) >
        capacity_.maxRenderLoadMsPerS) {
        *why = "render load ceiling exceeded";
        return false;
    }
    *why = "fits";
    return true;
}

std::uint32_t
SessionManager::adopt(FleetSessionSpec spec, bool viaQueue)
{
    auto state = std::make_unique<SessionState>();
    SessionState &s = *state;
    s.id = static_cast<std::uint32_t>(sessions_.size()) + 1;
    s.spec = std::move(spec);
    s.players = s.spec.players > 0 ? s.spec.players
                                   : s.spec.base->params().players;
    s.loadMsPerS = estimatedLoadMsPerS(s.spec);

    s.config = s.spec.base->systemConfig();
    if (!s.spec.label.empty())
        s.config.sessionTag = s.spec.label;
    // The session id makes trace and SLO labels unique within the
    // fleet (`Viking#3/4p/Coterie`). Ids restart with every manager,
    // so re-running a fleet republishes the same labels.
    s.config.sessionTag += "#" + std::to_string(s.id);
    // Empty plans collapse to a null pointer inside the run (strict
    // no-op contract); non-empty plans point into the spec copy above,
    // which lives exactly as long as the manager.
    s.config.faults = s.spec.faults.empty() ? nullptr : &s.spec.faults;
    s.config.resilience = s.spec.resilience;
    s.config.serverNet = s.spec.serverNet;
    s.config.recordFrameLog = s.spec.recordFrameLog;
    s.config.injectFaultAtMs = s.spec.injectFaultAtMs;
    if (s.spec.players > 0 || s.spec.durationS > 0.0 ||
        s.spec.traceSeed != 0) {
        // The spec departs from the base's trace set: regenerate with
        // the same derivation session-setup uses, so traceSeed == 0
        // stays in the base's seed family.
        trace::TrajectoryParams tp;
        tp.players = s.players;
        tp.durationS = s.spec.durationS > 0.0
                           ? s.spec.durationS
                           : s.spec.base->params().durationS;
        tp.seed = s.spec.traceSeed != 0
                      ? s.spec.traceSeed
                      : hashCombine(s.spec.base->params().seed, 0x77ace);
        s.ownTraces = trace::generateTrace(s.spec.base->info(),
                                           s.spec.base->world(), tp);
        s.config.traces = &*s.ownTraces;
    }
    s.phase = viaQueue ? SessionPhase::Queued : SessionPhase::Running;
    sessions_.push_back(std::move(state));
    return sessions_.back()->id;
}

AdmissionDecision
SessionManager::submit(FleetSessionSpec spec)
{
    COTERIE_ASSERT(spec.base != nullptr,
                   "fleet session needs a base Session");
    COTERIE_ASSERT(!ran_, "submit() after run() is not supported");
    const int players =
        spec.players > 0 ? spec.players : spec.base->params().players;

    // Sessions that could never fit an empty fleet are rejected
    // outright rather than parked in the queue forever.
    const bool never_fits =
        capacity_.maxSessions < 1 || players > capacity_.maxClients ||
        estimatedLoadMsPerS(spec) > capacity_.maxRenderLoadMsPerS;
    const char *why = "";
    if (!never_fits && fits(spec, &why)) {
        const double start_at =
            std::max(queue_.now(), spec.startMs);
        const std::uint32_t id = adopt(std::move(spec), false);
        // Capacity is reserved at admission, not start, so a burst of
        // future-start submissions cannot over-commit the fleet.
        ++runningSessions_;
        runningClients_ += sessions_[id - 1]->players;
        runningLoadMsPerS_ += sessions_[id - 1]->loadMsPerS;
        ++admitted_;
        COTERIE_COUNT("fleet.admission.admitted");
        // The manager outlives the queue run; session ids are never
        // reused, so the wake needs no revalidation.
        queue_.scheduleAt( // lint:allow(epoch-guarded-schedule)
            start_at, [this, id] { startSession(*sessions_[id - 1]); });
        return {AdmissionVerdict::Admitted, id, "admitted"};
    }
    if (!never_fits &&
        admissionQueue_.size() <
            static_cast<std::size_t>(
                std::max(0, capacity_.admissionQueueLimit))) {
        const std::uint32_t id = adopt(std::move(spec), true);
        admissionQueue_.push_back(id);
        COTERIE_COUNT("fleet.admission.queued");
        return {AdmissionVerdict::Queued, id, why};
    }
    ++rejected_;
    COTERIE_COUNT("fleet.admission.rejected");
    return {AdmissionVerdict::Rejected, 0,
            never_fits ? "exceeds fleet capacity outright"
                       : "admission queue full"};
}

void
SessionManager::startSession(SessionState &s)
{
    s.phase = SessionPhase::Running;
    s.startedAtMs = queue_.now();
    // The session's whole object graph is built over its own lane's
    // queue: ctor-time scheduling (fault-driver arming, client frame
    // staggering) and every event the session ever schedules land in
    // the lane. The lane clock starts at the control clock, so the
    // session schedules relative to its admission.
    s.lane = queue_.createLane();
    s.run = std::make_unique<SplitSystemRun>(
        queue_.lane(s.lane), s.config,
        SplitVariant::coterie(s.spec.withCache),
        s.spec.base->distThresholds(), "Coterie", this, s.id);
    s.run->start();
    COTERIE_COUNT("fleet.session_started");
    obs::instant("fleet.session_started", "fleet", queue_.now());
    // Finalize at the same trailing-delivery cutoff the solo wrapper
    // drains to — but strictly *after* every event at the horizon
    // instant (runUntil includes events at `when == horizon`; the
    // next representable double is the earliest time past all of
    // them), so fleet results match solo results bit for bit.
    const double horizon =
        queue_.now() + s.run->durationMs() + SplitSystemRun::settleMs();
    const std::uint32_t id = s.id;
    queue_.scheduleAt( // lint:allow(epoch-guarded-schedule)
        std::nextafter(horizon, std::numeric_limits<double>::infinity()),
        [this, id] {
            SessionState &state = *sessions_[id - 1];
            if (!state.finalized)
                finalizeSession(state, SessionPhase::Completed,
                                queue_.now());
        });
    armGovernor();
}

void
SessionManager::finalizeSession(SessionState &s, SessionPhase phase,
                                double finishedAt)
{
    if (s.finalized)
        return;
    s.finalized = true;
    s.phase = phase;
    s.run->shutdown(); // no-op when already quarantined
    s.slo = s.run->sampleSlo();
    s.result = s.run->finish();
    // For a confined fault this is the faulting lane's sim time, not
    // the barrier the confinement was deferred to — the report's
    // timeline reads the same as a solo run's.
    s.finishedAtMs = finishedAt;
    --runningSessions_;
    runningClients_ -= s.players;
    runningLoadMsPerS_ -= s.loadMsPerS;
    COTERIE_COUNT("fleet.session_finished");
    drainAdmissionQueue();
}

void
SessionManager::drainAdmissionQueue()
{
    // FIFO with head-of-line blocking: admission order is a fairness
    // promise, so a large queued session is not overtaken by smaller
    // later ones.
    const char *why = "";
    while (!admissionQueue_.empty()) {
        SessionState &s = *sessions_[admissionQueue_.front() - 1];
        if (!fits(s.spec, &why))
            break;
        admissionQueue_.pop_front();
        ++runningSessions_;
        runningClients_ += s.players;
        runningLoadMsPerS_ += s.loadMsPerS;
        ++queuedAdmissions_;
        COTERIE_COUNT("fleet.admission.dequeued");
        startSession(s);
    }
}

void
SessionManager::armGovernor()
{
    if (!governor_.enabled || governorArmed_)
        return;
    governorArmed_ = true;
    // The manager outlives the run; governorTick re-checks the
    // running set itself.
    queue_.scheduleIn( // lint:allow(epoch-guarded-schedule)
        governor_.tickMs, [this] { governorTick(); });
}

void
SessionManager::governorTick()
{
    // Deterministic overload signal: the DES backlog (a pure function
    // of simulation state) stands in for pool queue depth; under
    // pressure the ladder reacts at half the usual miss rates.
    const bool pressured =
        governor_.pressureEvents > 0 &&
        queue_.pending() > governor_.pressureEvents;
    const double scale = pressured ? 0.5 : 1.0;

    SessionState *worst = nullptr;
    double worst_miss = 0.0;
    for (const auto &sp : sessions_) { // id order => deterministic
        SessionState &s = *sp;
        if (s.phase != SessionPhase::Running || s.finalized || !s.run)
            continue;
        s.slo = s.run->sampleSlo();
        double miss = s.slo.windowMissRate();
        if (s.slo.windowFrames == 0) {
            if (queue_.now() < s.startedAtMs + s.run->durationMs()) {
                // Mid-run with zero committed frames: the session is
                // fully stalled, which is strictly worse than any
                // nonzero miss rate. Treat the empty window as 100%
                // missing so the ladder can still reach it.
                miss = 1.0;
            } else {
                // Settle tail past the horizon: no signal, no strikes.
                s.strikes = 0;
                continue;
            }
        }
        int level = s.level;
        if (miss >= governor_.degradeMissRate * scale)
            level = 2;
        else if (miss >= governor_.shedMissRate * scale)
            level = std::max(level, 1);
        else if (miss <= governor_.recoverMissRate)
            level = std::max(0, level - 1); // hysteresis: one step down
        if (level != s.level) {
            if (s.level < 1 && level >= 1) {
                ++shedTransitions_;
                COTERIE_COUNT("fleet.governor.shed");
            }
            if (s.level < 2 && level >= 2) {
                ++degradeTransitions_;
                COTERIE_COUNT("fleet.governor.degrade");
            }
            s.level = level;
            s.run->throttlePrefetch(level >= 1);
            s.run->forceDegrade(level >= 2);
            obs::instant("fleet.governor.level_change", "fleet",
                         queue_.now());
        }
        if (miss >= governor_.evictMissRate * scale)
            ++s.strikes;
        else
            s.strikes = 0;
        // Worst-SLO candidate; strict > keeps the lowest id on ties.
        if (s.strikes >= governor_.evictStrikes &&
            (worst == nullptr || miss > worst_miss)) {
            worst = &s;
            worst_miss = miss;
        }
    }
    // At most one eviction per tick: overload relief is gradual (shed
    // and degrade always precede eviction because the entry
    // thresholds are ordered and strikes take evictStrikes ticks).
    if (worst != nullptr) {
        worst->run->quarantine();
        ++evictions_;
        COTERIE_COUNT("fleet.session_evicted");
        obs::instant("fleet.session_evicted", "fleet", queue_.now());
        finalizeSession(*worst, SessionPhase::Evicted, queue_.now());
    }

    bool any_running = false;
    for (const auto &sp : sessions_)
        if (sp->phase == SessionPhase::Running && !sp->finalized)
            any_running = true;
    if (any_running) {
        queue_.scheduleIn( // lint:allow(epoch-guarded-schedule)
            governor_.tickMs, [this] { governorTick(); });
    } else {
        governorArmed_ = false; // re-armed by the next startSession
    }
}

void
SessionManager::onFrameFetched(std::uint32_t session,
                               std::uint64_t gridKey, int playerId,
                               std::uint64_t bytes)
{
    (void)playerId;
    (void)bytes;
    SessionState &s = *sessions_[session - 1];
    if (!s.spec.renderOnFetch)
        return;
    ++s.fleetRenders;
    // The shared cache's hit/miss accounting must not depend on how
    // lanes interleave on the pool, so the render is deferred to the
    // round barrier, where drainRenderBatch makes every cache decision
    // serially in (lane, delivery) order. SessionState is lane-owned
    // between barriers, so this buffer needs no lock.
    s.pendingRenders.push_back(gridKey);
}

void
SessionManager::drainRenderBatch()
{
    // One cache batch in (lane id, delivery order): the deterministic
    // merge order. The cache decides hits and misses serially in that
    // order, fans only the actual renders out over the pool (the
    // fleet's dominant compute), and publishes them in the same order.
    struct Lookup
    {
        const Session *base;
        FrameStore::FarBeLookup lookup;
    };
    std::vector<Lookup> lookups;
    std::vector<PanoRequest> requests;
    for (const auto &sp : sessions_) {
        SessionState &s = *sp;
        const world::GridMap &grid = s.spec.base->grid();
        const auto cols = static_cast<std::uint64_t>(grid.cols());
        for (const std::uint64_t gridKey : s.pendingRenders) {
            const world::GridPoint g{
                static_cast<std::int64_t>(gridKey % cols),
                static_cast<std::int64_t>(gridKey / cols)};
            const FrameStore::FarBeLookup lookup =
                s.spec.base->frames().farBeLookup(
                    grid.position(g), /*distThresh=*/0.0,
                    s.spec.renderWidth, s.spec.renderHeight);
            lookups.push_back(Lookup{s.spec.base, lookup});
            requests.push_back(PanoRequest{lookup.key, s.id});
        }
        s.pendingRenders.clear();
    }
    panoCache_->serveBatch(requests, [&](std::size_t i) {
        return lookups[i].base->frames().renderFarBe(lookups[i].lookup,
                                                     /*threads=*/1);
    });
}

void
SessionManager::onSessionFault(std::uint32_t session, const char *what)
{
    SessionState &s = *sessions_[session - 1];
    s.faultReason = what != nullptr ? what : "unknown";
    // Every guarded session event runs in the session's lane. The
    // confinement's manager half (fault counters, capacity release,
    // admission-queue drain) mutates control-plane state, so it is
    // deferred to the round barrier; the faulting lane's sim time rides
    // along so the report reads identically to a solo run's.
    const double faultAt = queue_.lane(s.lane).now();
    queue_.postControl(s.lane, [this, session, faultAt] {
        confirmSessionFault(session, faultAt);
    });
}

void
SessionManager::confirmSessionFault(std::uint32_t session, double faultAt)
{
    SessionState &s = *sessions_[session - 1];
    if (s.finalized)
        return;
    ++faults_;
    COTERIE_COUNT("fleet.session_fault_confined");
    obs::instant("fleet.session_fault_confined", "fleet", faultAt);
    // The run already quarantined itself (fetches cancelled, SLO label
    // frozen); the manager's half is the capacity release.
    finalizeSession(s, SessionPhase::Faulted, faultAt);
}

FleetResult
SessionManager::run()
{
    COTERIE_ASSERT(!ran_, "SessionManager::run() may be called once");
    ran_ = true;
    COTERIE_NAMED_SPAN(fleetSpan, "fleet.run", "core");
    queue_.runToCompletion();

    FleetResult out;
    out.admitted = admitted_;
    out.queuedAdmissions = queuedAdmissions_;
    out.rejected = rejected_;
    out.shedTransitions = shedTransitions_;
    out.degradeTransitions = degradeTransitions_;
    out.evictions = evictions_;
    out.faults = faults_;
    out.horizonMs = queue_.now();
    fleetSpan.simTimeMs(queue_.now());
    for (const auto &sp : sessions_) {
        FleetSessionReport r;
        r.id = sp->id;
        r.label = sp->run != nullptr ? sp->run->label()
                                     : sp->config.sessionTag;
        r.phase = sp->phase;
        r.result = std::move(sp->result);
        r.slo = sp->slo;
        r.shedLevel = sp->level;
        r.fleetRenders = sp->fleetRenders;
        r.faultReason = sp->faultReason;
        r.startedAtMs = sp->startedAtMs;
        r.finishedAtMs = sp->finishedAtMs;
        out.sessions.push_back(std::move(r));
    }
    out.panoCache = panoCache_->stats();
    return out;
}

} // namespace coterie::core
