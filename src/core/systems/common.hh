/**
 * @file
 * Shared configuration and result types for the four end-to-end system
 * models (Mobile, Thin-client, Multi-Furion, Coterie).
 */

#pragma once

#include <string>
#include <vector>

#include "core/frame_cache.hh"
#include "core/server.hh"
#include "device/phone.hh"
#include "net/channel.hh"
#include "net/endpoints.hh"
#include "net/fi_sync.hh"
#include "net/resilience.hh"
#include "obs/frame_trace.hh"
#include "sim/faults.hh"
#include "trace/trace.hh"

namespace coterie::core {

/** Everything a system simulation needs. */
struct SystemConfig
{
    const world::VirtualWorld *world = nullptr;
    const world::GridMap *grid = nullptr;
    const RegionIndex *regions = nullptr;
    const FrameStore *frames = nullptr;
    const trace::SessionTrace *traces = nullptr;
    device::PhoneProfile profile{};
    net::ChannelParams channel{};
    net::FiSyncParams fiSync{};

    /**
     * Human-readable session identity (the game name) prefixed onto
     * the frame-trace / SLO label: `<tag>/<N>p/<system>`. Empty tags
     * fall back to "session".
     */
    std::string sessionTag;

    /** Per-frame FI render time on the device (paper: < 4 ms,
     *  measured ~2.5 ms typical). */
    double rtFiMs = 2.5;
    /** Frame merge + projection cost after all inputs are ready. */
    double mergeMs = 4.5;
    /** Sensor sampling latency folded into responsiveness. */
    double sensorMs = 1.0;
    /** Display refresh budget (60 Hz). */
    double tickMs = 1000.0 / 60.0;

    /**
     * Optional scripted fault plan (chaos harness, sim/faults.hh).
     * Null or empty = the clean pre-chaos run, bit for bit.
     */
    const sim::FaultPlan *faults = nullptr;
    /** Client-side resilience policy; disabled = pre-chaos client. */
    net::ResilienceParams resilience{};
    /** Server fan-out guard; default (unbounded) = pre-chaos server. */
    net::FrameServerParams serverNet{};

    /**
     * Hand the per-player frame records out in
     * `SystemResult::frameLogs`. Every run keeps them (QoE, SLO and
     * the governor are derived from them); the flag only decides
     * whether finish() returns them, so fleet isolation tests can
     * assert a session's frame output is byte-identical with and
     * without siblings.
     */
    bool recordFrameLog = false;

    /**
     * Testing hook for the fleet error boundary: when >= 0, the first
     * frame-loop tick at or after this sim time throws. Under a
     * `SessionManager` the exception is confined to the owning
     * session (quarantined, phase = Faulted); in a solo run it
     * propagates to the caller. -1 (default) disables the hook.
     */
    double injectFaultAtMs = -1.0;
};

/**
 * The one record of a displayed frame: exactly the values the display
 * path derives from simulation state. A split-rendering run appends
 * one per frame and derives everything else from them — the QoE
 * means in `PlayerMetrics`, the governor's `LiveSlo` window, the SLO
 * summary and `SystemResult::frameLogs`. Two runs whose entries
 * compare equal produced bit-identical frame streams (times and
 * latencies are compared at full double precision, not rounded).
 */
struct FrameLogEntry
{
    double displayMs = 0.0;  ///< sim time the frame was committed
    double latencyMs = 0.0;  ///< Equation-2 latency of the frame
    double renderMs = 0.0;   ///< FI (+ far-BE) render term
    /** Cumulative bytes fetched by the player at commit time. */
    std::uint64_t bytesFetched = 0;
    bool degraded = false;   ///< served via stall or stale panorama
    obs::CriticalPath criticalPath; ///< dominant hop(s) of the frame
    bool operator==(const FrameLogEntry &) const = default;
};
// The critical path rides in the padding after `degraded`: every run
// keeps one record per displayed frame, so the record must not grow.
static_assert(sizeof(FrameLogEntry) == 40);

/** Per-player outcome of a run. */
struct PlayerMetrics
{
    int playerId = 0;
    double fps = 0.0;
    double interFrameMs = 0.0;
    double responsivenessMs = 0.0;
    double cpuPct = 0.0;
    double gpuPct = 0.0;
    double frameKb = 0.0;       ///< mean fetched frame size
    double netDelayMs = 0.0;    ///< mean per-transfer latency
    double beMbps = 0.0;        ///< BE prefetch bandwidth
    double fiKbps = 0.0;        ///< FI sync bandwidth share
    double renderMsPerFrame = 0.0;
    std::uint64_t framesDisplayed = 0;
    std::uint64_t framesFetched = 0;
    std::uint64_t gridTransitions = 0;
    double cacheHitRatio = 0.0; ///< 1 - fetches/transitions (see docs)
    CacheStats cacheStats{};

    // Resilience / chaos accounting (all zero on a clean run).
    std::uint64_t stalls = 0;         ///< display stalls entered
    double stallMs = 0.0;             ///< total frozen time across stalls
    std::uint64_t framesDegraded = 0; ///< stale-panorama substitutions
    std::uint64_t netRetries = 0;     ///< fetch attempts after a timeout
    std::uint64_t netTimeouts = 0;    ///< per-attempt deadline misses
    std::uint64_t fetchGiveups = 0;   ///< fetches failed after maxAttempts
    std::uint64_t disconnects = 0;    ///< scripted WLAN drops entered
    std::uint64_t rejoins = 0;        ///< reconnects completed
    /**
     * Frame-level hit ratio inside the post-rejoin probe window: the
     * fraction of displayed frames (after the settle period) served
     * without a stall or degradation. -1 when no window was observed.
     */
    double rejoinHitRatio = -1.0;
};

/** Whole-session outcome. */
struct SystemResult
{
    std::string systemName;
    std::vector<PlayerMetrics> players;
    double durationMs = 0.0;
    double channelUtilMbps = 0.0;
    /** Per-player frame records, one vector per player, populated
     *  only when `SystemConfig::recordFrameLog` was set. */
    std::vector<std::vector<FrameLogEntry>> frameLogs;

    /** Averages across players. */
    double avgFps() const;
    double avgInterFrameMs() const;
    double avgNetDelayMs() const;
    double avgCacheHitRatio() const;
};

} // namespace coterie::core

