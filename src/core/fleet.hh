/**
 * @file
 * Multi-session fleet orchestration: a `SessionManager` multiplexes N
 * independent Coterie sessions ("coteries") over one shared
 * discrete-event queue, the shared thread pool, and one world-keyed
 * panorama render cache.
 *
 * Three robustness pillars (DESIGN.md §11):
 *
 *  - **Admission control.** A capacity model (session slots, total
 *    clients, estimated device render load) yields an explicit
 *    Admitted / Queued / Rejected verdict per submitted session;
 *    queued sessions wait in a bounded FIFO and start the instant
 *    capacity frees.
 *
 *  - **Overload detection + shedding.** A sim-time load governor
 *    samples each running session's deadline-miss rate (`LiveSlo`)
 *    and the DES backlog, and walks an escalating degradation ladder:
 *    conservative prefetch → stale-panorama substitution → quarantine
 *    of the worst-SLO session (at most one eviction per tick, after a
 *    strike count — shed always precedes evict). All inputs are
 *    simulation-time quantities, so governor decisions are
 *    bit-identical at any `COTERIE_THREADS`.
 *
 *  - **Fault isolation.** Each session runs behind the per-session
 *    error boundary (`FleetHooks`): an exception escaping its event
 *    code quarantines that session — fetches cancelled, SLO label
 *    frozen — without perturbing sibling frame output (fleet_test
 *    asserts siblings byte-identical to solo runs).
 *
 * The empty fleet is a strict no-op: one submitted session with the
 * governor disabled produces frame output bit-identical to
 * `Session::runCoterieSystem()`.
 */

#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/client.hh"
#include "core/session.hh"
#include "sim/lane_queue.hh"

namespace coterie::core {

/** Outcome of submitting a session to the manager. */
enum class AdmissionVerdict : std::uint8_t
{
    Admitted, ///< starts at its requested start time
    Queued,   ///< waits in the bounded admission queue for capacity
    Rejected, ///< queue full or the session can never fit
};

/** Lifecycle of a fleet session. */
enum class SessionPhase : std::uint8_t
{
    Queued,    ///< admitted to the wait queue, not yet started
    Running,   ///< frame loops live on the shared queue
    Completed, ///< ran to its horizon
    Evicted,   ///< quarantined by the load governor
    Faulted,   ///< quarantined by the error boundary
};

const char *admissionVerdictName(AdmissionVerdict v);
const char *sessionPhaseName(SessionPhase p);

/**
 * The capacity model admission control evaluates. Render load is
 * estimated as `players * rtFiMs * ticksPerSecond` — the steady-state
 * device render milliseconds one session adds per simulated second —
 * so a fleet of cheap sessions admits more coteries than a fleet of
 * expensive ones.
 */
struct FleetCapacity
{
    int maxSessions = 32;  ///< concurrent running sessions
    int maxClients = 128;  ///< concurrent players across sessions
    /** Estimated render load ceiling (ms of device render per
     *  simulated second, summed over running sessions). */
    double maxRenderLoadMsPerS = std::numeric_limits<double>::infinity();
    /** Bound on the admission wait queue; beyond it, Rejected. */
    int admissionQueueLimit = 8;
};

/**
 * Load-governor knobs. Disabled (the default) the governor never
 * runs — required for the strict no-op contract. Thresholds compare
 * against each session's `LiveSlo::windowMissRate()` over the
 * preceding tick; they must be ordered
 * `recover < shed < degrade < evict` for the ladder to be monotone.
 */
struct GovernorParams
{
    bool enabled = false;
    double tickMs = 500.0; ///< sampling cadence (sim time)
    /** Level 1 (throttlePrefetch) entry threshold. */
    double shedMissRate = 0.10;
    /** Level 2 (forceDegrade) entry threshold. */
    double degradeMissRate = 0.30;
    /** Eviction candidacy threshold (needs evictStrikes in a row). */
    double evictMissRate = 0.60;
    int evictStrikes = 3;
    /** Hysteresis: below this the session steps down one level. */
    double recoverMissRate = 0.02;
    /**
     * DES backlog pressure: when the pending-event count exceeds this,
     * shed/degrade thresholds are halved (the fleet reacts earlier
     * under global load). 0 disables the pressure signal. Pending
     * events are a deterministic sim-state quantity, unlike wall-clock
     * pool depth.
     */
    std::size_t pressureEvents = 0;
};

/** One session submission: a preprocessed base plus per-run overrides. */
struct FleetSessionSpec
{
    /** Preprocessed world/grid/catalogue; must outlive the manager.
     *  Sessions over the same world share renders through the
     *  manager's pano cache. */
    const Session *base = nullptr;
    /** 0 = reuse the base's players and traces verbatim. */
    int players = 0;
    /** 0 = the base's trace duration. */
    double durationS = 0.0;
    /** Regenerate traces with this seed (0 = base traces verbatim;
     *  requires players/durationS defaults too). */
    std::uint64_t traceSeed = 0;
    /** Earliest start (absolute sim time on the shared clock). */
    double startMs = 0.0;
    /** Session tag for trace/SLO labels (empty = the base game
     *  name); the manager appends `#<session id>`. */
    std::string label;
    /** Scripted chaos for this session (absolute sim times). Empty =
     *  clean run, collapsed to the pre-chaos code path. */
    sim::FaultPlan faults;
    net::ResilienceParams resilience{};
    net::FrameServerParams serverNet{};
    bool withCache = true;
    /** Record per-frame output logs (isolation assertions). */
    bool recordFrameLog = false;
    /** Error-boundary test hook (see SystemConfig::injectFaultAtMs). */
    double injectFaultAtMs = -1.0;
    /**
     * Bench mode: render a low-resolution far-BE panorama through the
     * shared world-keyed cache for every megaframe delivery, charged
     * to this session. Observe-only (pure compute outside the DES) —
     * it is how bench_fleet measures cross-session render sharing.
     */
    bool renderOnFetch = false;
    int renderWidth = 96;
    int renderHeight = 48;
};

/** Verdict handed back by SessionManager::submit. */
struct AdmissionDecision
{
    AdmissionVerdict verdict = AdmissionVerdict::Rejected;
    /** Session id (stable handle into FleetResult); 0 on rejection. */
    std::uint32_t id = 0;
    const char *reason = ""; ///< human-readable verdict cause
};

/** Per-session outcome in the fleet report. */
struct FleetSessionReport
{
    std::uint32_t id = 0;
    std::string label;
    SessionPhase phase = SessionPhase::Queued;
    /** Valid for Completed / Evicted / Faulted (partial results). */
    SystemResult result;
    LiveSlo slo;          ///< cumulative deadline accounting
    int shedLevel = 0;    ///< governor level at finish
    std::uint64_t fleetRenders = 0; ///< renderOnFetch renders issued
    std::string faultReason;        ///< Faulted only
    double startedAtMs = -1.0;
    double finishedAtMs = -1.0;
};

/** Whole-fleet outcome of SessionManager::run. */
struct FleetResult
{
    std::vector<FleetSessionReport> sessions; ///< in session-id order
    std::uint64_t admitted = 0;
    std::uint64_t queuedAdmissions = 0; ///< admitted via the wait queue
    std::uint64_t rejected = 0;
    std::uint64_t shedTransitions = 0;    ///< entries into level >= 1
    std::uint64_t degradeTransitions = 0; ///< entries into level >= 2
    std::uint64_t evictions = 0;
    std::uint64_t faults = 0;
    PanoCacheStats panoCache; ///< shared-cache counters at the end
    double horizonMs = 0.0;   ///< sim time when the queue drained
};

/**
 * Owns the shared event queue, the shared world-keyed panorama render
 * cache, and every fleet session's lifecycle. Usage:
 *
 *   SessionManager mgr(capacity, governor);
 *   auto base = Session::create(game, SessionParams{});
 *   mgr.submit({.base = base.get()});
 *   FleetResult fleet = mgr.run();
 *
 * Not thread-safe: submit/run from one thread. Internally run() drives
 * the parallel discrete-event engine (`sim::ParallelEventQueue`,
 * DESIGN.md §12): each session's events live in their own lane and
 * lanes advance concurrently on the shared pool between control-plane
 * barriers (admission wakes, governor ticks, finalize horizons), so a
 * fleet simulates on every core while staying bit-identical at any
 * `COTERIE_THREADS`.
 */
class SessionManager : public FleetHooks
{
  public:
    explicit SessionManager(FleetCapacity capacity = {},
                            GovernorParams governor = {},
                            std::size_t panoCacheBytes = 256ull << 20);
    ~SessionManager() override;

    SessionManager(const SessionManager &) = delete;
    SessionManager &operator=(const SessionManager &) = delete;

    /** The shared render cache every renderOnFetch delivery goes
     *  through (one batch per round barrier). */
    std::shared_ptr<PanoramaRenderCache> panoCache() const;

    /** The shared event queue (tests may inspect `now()`). */
    sim::EventQueue &queue();

    /**
     * Evaluate the capacity model and either schedule the session
     * (Admitted), park it in the bounded wait queue (Queued), or turn
     * it away (Rejected). Call before run(); admission of queued
     * sessions happens automatically as capacity frees.
     */
    AdmissionDecision submit(FleetSessionSpec spec);

    /**
     * Drain the shared queue to completion and assemble the fleet
     * report. Call once. Sessions still queued when every running
     * session has finished are started then (capacity permitting).
     */
    FleetResult run();

    // --- FleetHooks (invoked by sessions; observe-only).
    void onFrameFetched(std::uint32_t session, std::uint64_t gridKey,
                        int playerId, std::uint64_t bytes) override;
    void onSessionFault(std::uint32_t session, const char *what) override;

  private:
    struct SessionState;

    /** Capacity check against the currently running set. */
    bool fits(const FleetSessionSpec &spec, const char **why) const;
    double estimatedLoadMsPerS(const FleetSessionSpec &spec) const;
    std::uint32_t adopt(FleetSessionSpec spec, bool viaQueue);
    void startSession(SessionState &s);
    void finalizeSession(SessionState &s, SessionPhase phase,
                         double finishedAt);
    /** Control-plane half of a fault confinement (may run deferred at
     *  a round barrier; @p faultAt is the faulting lane's sim time). */
    void confirmSessionFault(std::uint32_t session, double faultAt);
    /** Round-barrier hook: the deferred renderOnFetch batch (serial
     *  deterministic cache decisions, parallel renders). */
    void drainRenderBatch();
    void drainAdmissionQueue();
    void armGovernor();
    void governorTick();

    FleetCapacity capacity_;
    GovernorParams governor_;
    std::shared_ptr<PanoramaRenderCache> panoCache_;
    sim::ParallelEventQueue queue_;

    /** All adopted sessions, id order (id = index + 1; 0 is the
     *  solo/unattributed pano-cache owner). */
    std::vector<std::unique_ptr<SessionState>> sessions_;
    /** Admission wait queue. Bounded by
     *  `capacity_.admissionQueueLimit` (checked in submit). */
    std::deque<std::uint32_t> admissionQueue_;

    int runningSessions_ = 0;
    int runningClients_ = 0;
    double runningLoadMsPerS_ = 0.0;
    bool governorArmed_ = false;
    bool ran_ = false;

    // Fleet-level counters for the report.
    std::uint64_t admitted_ = 0;
    std::uint64_t queuedAdmissions_ = 0;
    std::uint64_t rejected_ = 0;
    std::uint64_t shedTransitions_ = 0;
    std::uint64_t degradeTransitions_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t faults_ = 0;
};

} // namespace coterie::core
