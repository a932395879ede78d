/**
 * @file
 * Deadline SLO engine: the 16.7 ms QoE budget, the one predicate that
 * decides a deadline miss, and the per-session SLO summaries.
 *
 * A session's displayed frames each have one record
 * (`core::FrameLogEntry`). When the session finishes or is
 * quarantined, its records are folded through a `DeadlineTracker`
 * (exact `SampleSet` percentiles, so p50/p99/p99.9 here match any
 * other consumer of the same latency list bit-for-bit, plus per-client
 * breakdowns and a per-hop miss-attribution table) and the summary is
 * published to `SloRegistry::global()` under the session label and
 * exported in the metrics JSON snapshot's top-level `"slo"` section.
 *
 * Everything here is simulated-time only — no wall-clock values enter
 * the JSON — so snapshots diff bit-identical across `COTERIE_THREADS`
 * settings (the determinism contract the chaos harness checks).
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "obs/json.hh"
#include "support/stats.hh"
#include "support/thread_annotations.hh"

namespace coterie::obs {

/** The paper's per-frame QoE deadline (60 Hz refresh), in sim ms. */
inline constexpr double kFrameBudgetMs = 16.7;

/** The one deadline predicate: a frame of @p latencyMs misses. */
inline bool
missesDeadline(double latencyMs)
{
    return latencyMs > kFrameBudgetMs;
}

/**
 * One session's deadline summary, built from its frame records when
 * the summary is published. Not internally synchronized.
 */
class DeadlineTracker
{
  public:
    /**
     * Score one displayed frame: @p latencyMs against the budget,
     * with @p criticalPath naming the dominant hop ("render",
     * "stall_wait/transfer", ...) for miss attribution.
     */
    void record(std::uint16_t client, double latencyMs,
                const char *criticalPath);

    /**
     * Summary as JSON (sim-time derived only): frame/miss counts,
     * p50/p99/p999 latency, per-client percentiles, and the per-hop
     * miss attribution table, keys sorted for stable diffs.
     */
    Json toJson() const;

  private:
    std::map<std::uint16_t, SampleSet> byClient_;
    std::map<std::uint16_t, std::uint64_t> missesByClient_;
    std::map<std::string, std::uint64_t> missesByHop_;
};

/**
 * Process-wide label -> session SLO summary store, last-write-wins
 * (re-running a config replaces its summary). The metrics snapshot
 * embeds it as the `"slo"` section.
 */
class SloRegistry
{
  public:
    SloRegistry() = default;
    SloRegistry(const SloRegistry &) = delete;
    SloRegistry &operator=(const SloRegistry &) = delete;

    static SloRegistry &global();

    /** Publish @p summary under @p label, replacing any previous. */
    void publish(const std::string &label, Json summary);

    /** All published summaries, keys sorted (std::map order). */
    Json snapshotJson() const;

    /** Drop all published summaries (tests). */
    void clear();

    std::size_t size() const;

  private:
    mutable support::Mutex mutex_{"SloRegistry::mutex_"};
    std::map<std::string, Json> sessions_ COTERIE_GUARDED_BY(mutex_);
};

} // namespace coterie::obs
