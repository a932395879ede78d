/**
 * @file
 * The split-rendering client pipeline simulation shared by Multi-Furion
 * and Coterie (paper §5.1, Equation 2).
 *
 * Each display interval the client runs four tasks in parallel — FI
 * (+ near BE) rendering, decoding the prefetched BE, prefetching
 * upcoming BE frames, and FI synchronisation — then merges:
 *
 *   T = max(T_render, T_decode, T_prefetch, T_sync) + T_merge
 *
 * The prefetch term only gates the frame when the needed BE frame has
 * not arrived by consumption time; then the frame stalls until arrival.
 * Multi-Furion prefetches whole-BE panoramas every grid transition;
 * Coterie prefetches far-BE panoramas only on frame-cache misses.
 */

#pragma once

#include <memory>

#include "core/prefetcher.hh"
#include "core/systems/common.hh"

namespace coterie::core {

/** Variant switches distinguishing the split-rendering systems. */
struct SplitVariant
{
    /** true: Coterie (near/far decoupling, far-BE frames); false:
     *  Multi-Furion (whole-BE frames, FI-only local rendering). */
    bool farBeMode = true;
    /** Frame cache enabled? */
    bool useCache = true;
    /** Exact-only matching reproduces "Multi-Furion + frame cache". */
    MatchMode matchMode = MatchMode::Similar;
    /**
     * Wireless overhearing (cache Version 5, §4.6): every delivered
     * frame is inserted into every player's cache, emulating
     * promiscuous-mode reception. The paper found it adds little on
     * top of intra-player reuse and dropped it; we keep it as an
     * option for the Table 4/5 style studies.
     */
    bool overhear = false;
    ReplacementPolicy policy = ReplacementPolicy::Lru;
    PrefetcherParams prefetch{};

    static SplitVariant
    multiFurion(bool withExactCache = false)
    {
        SplitVariant v;
        v.farBeMode = false;
        v.useCache = withExactCache;
        v.matchMode = MatchMode::ExactOnly;
        v.prefetch.lookaheadSteps = 1;
        v.prefetch.lateralSpread = 0;
        return v;
    }

    static SplitVariant
    coterie(bool withCache = true)
    {
        SplitVariant v;
        v.farBeMode = true;
        v.useCache = withCache;
        v.matchMode = MatchMode::Similar;
        if (!withCache) {
            // Without a cache there is nothing to absorb neighbour
            // coverage: fetch only the predicted next grid point, as
            // Multi-Furion does (the Figure 11 "w/o cache" variant).
            v.prefetch.lookaheadSteps = 1;
            v.prefetch.lateralSpread = 0;
        }
        return v;
    }
};

/**
 * Fleet integration callbacks, implemented by `SessionManager`. All
 * hooks are observe-only from the session's point of view: they must
 * never mutate the session's simulation state, so a run with inert
 * hooks is bit-identical to a run with none (the fleet no-op
 * contract). A null hooks pointer also disables the per-session error
 * boundary — exceptions then propagate to the caller exactly as the
 * pre-fleet code did.
 */
struct FleetHooks
{
    virtual ~FleetHooks() = default;
    /** A far-BE megaframe delivery landed at @p playerId. */
    virtual void
    onFrameFetched(std::uint32_t session, std::uint64_t gridKey,
                   int playerId, std::uint64_t bytes)
    {
        (void)session;
        (void)gridKey;
        (void)playerId;
        (void)bytes;
    }
    /** An exception escaped the session's event code and was confined
     *  by the error boundary (the session is already quarantined). */
    virtual void
    onSessionFault(std::uint32_t session, const char *what)
    {
        (void)session;
        (void)what;
    }
};

/**
 * Deadline accounting sampled by the fleet load governor: cumulative
 * totals plus a window since the previous sample, counted over the
 * session's frame records. All values derive from sim-time latencies,
 * so governor decisions made from them are deterministic at any
 * `COTERIE_THREADS`.
 */
struct LiveSlo
{
    std::uint64_t frames = 0;       ///< frames committed so far
    std::uint64_t misses = 0;       ///< of those, over 16.7 ms budget
    std::uint64_t windowFrames = 0; ///< since the previous sample
    std::uint64_t windowMisses = 0;

    double
    windowMissRate() const
    {
        return windowFrames > 0 ? static_cast<double>(windowMisses) /
                                      static_cast<double>(windowFrames)
                                : 0.0;
    }
};

/**
 * One split-rendering session as a resumable object over an
 * externally owned event queue — the unit a `SessionManager`
 * multiplexes. `runSplitSystem` below is the solo wrapper: it owns a
 * private queue, start()s, drains to the horizon, and finish()es;
 * constructing the run on a shared queue instead interleaves any
 * number of sessions deterministically (each session owns its
 * channel, server, and clients, so sibling event interleaving cannot
 * perturb its outputs).
 *
 * The fleet control surface (throttlePrefetch / forceDegrade /
 * quarantine) is sim-time driven and inert until invoked; a run on
 * which none of it is exercised is bit-identical to the pre-fleet
 * code path.
 */
class SplitSystemRun
{
  public:
    /**
     * Binds the run to @p queue and builds all session state (channel,
     * server, clients, tracer). @p config/@p variant/@p distThresholds
     * are copied; the pointers inside @p config (world, grid, frames,
     * traces, faults) must outlive the run. @p systemName must be a
     * static literal. @p hooks (optional) arms the fleet callbacks and
     * the per-session error boundary; @p fleetSession is the owning
     * manager's session id (0 for solo runs).
     */
    SplitSystemRun(sim::EventQueue &queue, const SystemConfig &config,
                   const SplitVariant &variant,
                   const std::vector<double> &distThresholds,
                   const char *systemName, FleetHooks *hooks = nullptr,
                   std::uint32_t fleetSession = 0);
    ~SplitSystemRun();

    SplitSystemRun(const SplitSystemRun &) = delete;
    SplitSystemRun &operator=(const SplitSystemRun &) = delete;

    /** Schedule the per-client frame loops, staggered from now(). */
    void start();

    /**
     * The sim-time settle margin after the trace ends that the solo
     * wrapper drains before assembling results; a manager finalizes a
     * session at start + durationMs() + settleMs() for the same
     * trailing-delivery cutoff the solo horizon applies.
     */
    double durationMs() const;
    static constexpr double settleMs() { return 1000.0; }

    /**
     * Derive the per-player metrics from the frame records (and hand
     * the records out when `recordFrameLog` is set), publishing the
     * SLO summary if the label is not already frozen. Call once,
     * after the horizon (solo) or at the session's completion instant
     * (fleet).
     */
    SystemResult finish();

    // --- Fleet control surface (deterministic, call from sim events).

    /** Shed level 1: restrict speculative prefetch to the single
     *  predicted next grid point (PrefetcherParams::conservative). */
    void throttlePrefetch(bool on);

    /** Shed level 2: substitute the newest stale cached panorama
     *  immediately on a miss (the PR 4 degradation path with a zero
     *  stall threshold) instead of stalling for it. */
    void forceDegrade(bool on);

    /**
     * Quarantine the session at the current sim time: cancel every
     * outstanding fetch (`ResilientFetcher::cancelAll`), abort live
     * causal records, stop the frame loops, and freeze the SLO label
     * by publishing the summary of the frames so far. Idempotent. The
     * caller (manager) releases the session's fleet capacity.
     */
    void quarantine();

    /** Quiet stop at end of horizon: no further state changes, no
     *  fault accounting. finish() remains valid. */
    void shutdown();

    bool quarantined() const;
    /** True when the error boundary confined an escaped exception. */
    bool faulted() const;
    const std::string &faultReason() const;

    /** Governor sampling: cumulative + since-last-sample deadline
     *  accounting over the frame records (starts a new window). */
    LiveSlo sampleSlo();

    /** The frame-trace / SLO label (`<tag>/<N>p/<system>[+chaos]`). */
    const std::string &label() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * Runs the event-driven multi-client split-rendering session over the
 * shared channel and returns per-player metrics.
 *
 * @p distThresholds one reuse distance per leaf region (ignored when
 * the variant does exact matching).
 */
SystemResult runSplitSystem(const SystemConfig &config,
                            const SplitVariant &variant,
                            const std::vector<double> &distThresholds,
                            const char *systemName);

} // namespace coterie::core

