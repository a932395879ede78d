/**
 * @file
 * coterie-scope metrics: counters, gauges, and timer-histograms.
 *
 * The paper's headline claims are quantitative (>= 95% frame-cache hit
 * ratio, per-frame latency under the 16.7 ms QoE bound, 4.2x bandwidth
 * reduction); this registry makes the running system report them
 * instead of leaving them to post-hoc bench math.
 *
 * Design:
 *  - `MetricsRegistry` is lock-striped: the name -> metric lookup
 *    hashes into independent stripes so concurrent first-touch from
 *    pool workers does not serialize. Metric objects have stable
 *    addresses, and the `COTERIE_*` macros cache the resolved handle
 *    in a function-local static, so the steady-state cost is one
 *    atomic op (counters/gauges) or one shard lock (timers).
 *  - `Timer` shards its accumulators by thread slot and folds them on
 *    snapshot via `RunningStats::merge` + `Histogram::merge`, so pool
 *    workers never contend on one mutex.
 *  - Everything is observe-only. Telemetry must never feed back into
 *    simulation state: `determinism_test` runs bit-identical with
 *    telemetry on at any `COTERIE_THREADS`.
 *  - Compiled out: configuring with `-DCOTERIE_TELEMETRY=OFF` leaves
 *    the library functional (tests and tools still link) but expands
 *    every instrumentation macro to nothing, so the frame pipeline
 *    carries zero telemetry cost.
 *
 * Naming scheme (see DESIGN.md §8): `<layer>.<thing>[_<unit>]`, e.g.
 * `render.panorama_ms`, `client.stalls`, `net.transfer_sim_ms`. The
 * `_sim_ms` suffix marks simulated-time observations; `_ms` marks wall
 * time (always read through obs/clock).
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/clock.hh"
#include "obs/json.hh"
#include "support/stats.hh"
#include "support/thread_annotations.hh"

namespace coterie::obs {

/**
 * Stable, dense id for the calling thread (0 = first thread that asked).
 * Used for timer sharding and trace-event `tid` attribution.
 */
int threadSlot();

/** Monotonically increasing event count. */
class Counter
{
  public:
    void add(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Last-write-wins instantaneous value. */
class Gauge
{
  public:
    void set(double v) { value_.store(v, std::memory_order_relaxed); }

    double value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Distribution of observations (durations in ms, or unit-free values
 * like binary-search iteration counts). Keeps running moments plus a
 * log10 histogram; sharded by thread slot so concurrent observers do
 * not contend.
 */
class Timer
{
  public:
    /**
     * Histogram spec: log10(value) over [1e-4, 1e4) in 256 bins, i.e.
     * 32 bins per decade. Quantile estimates interpolate within a bin,
     * so the worst-case relative error is one bin width:
     * 10^(8/256) - 1 ~= 7.5%. Bins merge by addition, which makes the
     * estimate shard-order-insensitive (see Histogram::quantile).
     */
    static constexpr double kLogLo = -4.0;
    static constexpr double kLogHi = 4.0;
    static constexpr std::size_t kLogBins = 256;

    Timer();

    /** Record one observation (clamped to a positive finite value). */
    void observe(double value);

    /** Record a wall-clock duration taken between two clock readings. */
    void observeNs(std::uint64_t beginNs, std::uint64_t endNs)
    {
        observe(millisBetweenNs(beginNs, endNs));
    }

    /** Merged view across all shards. */
    struct Snapshot
    {
        RunningStats stats;
        Histogram hist{kLogLo, kLogHi, kLogBins};
    };
    Snapshot snapshot() const;

  private:
    static constexpr int kShards = 8;
    struct Shard
    {
        mutable support::Mutex shardMutex{"Timer::Shard::shardMutex"};
        RunningStats stats COTERIE_GUARDED_BY(shardMutex);
        Histogram hist COTERIE_GUARDED_BY(shardMutex){kLogLo, kLogHi,
                                                 kLogBins};
    };
    Shard shards_[kShards];
};

/** RAII wall-clock scope feeding a Timer (reads obs/clock only). */
class ScopedTimer
{
  public:
    explicit ScopedTimer(Timer &timer)
        : timer_(timer), begin_(monotonicNowNs())
    {
    }
    ~ScopedTimer() { timer_.observeNs(begin_, monotonicNowNs()); }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    Timer &timer_;
    std::uint64_t begin_;
};

/**
 * Thread-safe name -> metric registry with JSON/CSV snapshot export.
 * Returned references stay valid for the registry's lifetime (and for
 * `global()`, the process lifetime), so call sites may cache them.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** The process-wide registry all instrumentation macros feed. */
    static MetricsRegistry &global();

    Counter &counter(std::string_view name);
    Gauge &gauge(std::string_view name);
    Timer &timer(std::string_view name);

    /**
     * Snapshot as JSON: `{"counters": {...}, "gauges": {...},
     * "timers": {name: {count, mean, min, max, stddev, sum, p50, p99,
     * p999}}, "slo": {label: {...}}}`, keys sorted for stable diffs.
     * Timer percentiles are mergeable histogram estimates (see
     * `Timer::kLogBins`); the `slo` section re-exports
     * `SloRegistry::global()` — per-session deadline scoreboards with
     * *exact* percentiles over the frame latency samples.
     */
    Json snapshotJson() const;

    /** Snapshot as CSV rows: `kind,name,count,value,mean,min,max`. */
    std::string snapshotCsv() const;

    /** Write the JSON snapshot to a file; false on I/O failure. */
    bool writeJson(const std::string &path) const;

    /** Number of registered metrics (all kinds). */
    std::size_t size() const;

  private:
    /** One lock stripe of the name lookup. */
    struct Stripe
    {
        mutable support::Mutex stripeMutex{
            "MetricsRegistry::Stripe::stripeMutex"};
        std::vector<std::pair<std::string, std::unique_ptr<Counter>>>
            counters COTERIE_GUARDED_BY(stripeMutex);
        std::vector<std::pair<std::string, std::unique_ptr<Gauge>>>
            gauges COTERIE_GUARDED_BY(stripeMutex);
        std::vector<std::pair<std::string, std::unique_ptr<Timer>>>
            timers COTERIE_GUARDED_BY(stripeMutex);
    };
    static constexpr std::size_t kStripes = 16;

    Stripe &stripeFor(std::string_view name);

    Stripe stripes_[kStripes];
};

} // namespace coterie::obs

// --- Instrumentation macros -------------------------------------------
//
// These are the only telemetry entry points the pipeline uses; with
// `-DCOTERIE_TELEMETRY=OFF` they all compile to nothing.

#define COTERIE_OBS_CAT2(a, b) a##b
#define COTERIE_OBS_CAT(a, b) COTERIE_OBS_CAT2(a, b)

#if COTERIE_TELEMETRY_ENABLED

/** Increment the named counter by @p n. */
#define COTERIE_COUNT_N(name, n)                                             \
    do {                                                                     \
        static ::coterie::obs::Counter &coterieObsCounter =                  \
            ::coterie::obs::MetricsRegistry::global().counter(name);         \
        coterieObsCounter.add(                                               \
            static_cast<std::uint64_t>(n));                                  \
    } while (0)

/** Set the named gauge to @p v. */
#define COTERIE_GAUGE_SET(name, v)                                           \
    do {                                                                     \
        static ::coterie::obs::Gauge &coterieObsGauge =                      \
            ::coterie::obs::MetricsRegistry::global().gauge(name);           \
        coterieObsGauge.set(static_cast<double>(v));                         \
    } while (0)

/** Record one observation into the named timer-histogram. */
#define COTERIE_OBSERVE(name, v)                                             \
    do {                                                                     \
        static ::coterie::obs::Timer &coterieObsTimer =                      \
            ::coterie::obs::MetricsRegistry::global().timer(name);           \
        coterieObsTimer.observe(static_cast<double>(v));                     \
    } while (0)

/** Time the enclosing scope (wall clock) into the named timer. */
#define COTERIE_TIMER_SCOPE(name)                                            \
    static ::coterie::obs::Timer &COTERIE_OBS_CAT(coterieObsTimer_,          \
                                                  __LINE__) =                \
        ::coterie::obs::MetricsRegistry::global().timer(name);               \
    ::coterie::obs::ScopedTimer COTERIE_OBS_CAT(                             \
        coterieObsTimerScope_,                                               \
        __LINE__)(COTERIE_OBS_CAT(coterieObsTimer_, __LINE__))

#else // telemetry compiled out

#define COTERIE_COUNT_N(name, n)                                             \
    do {                                                                     \
    } while (0)
#define COTERIE_GAUGE_SET(name, v)                                           \
    do {                                                                     \
    } while (0)
#define COTERIE_OBSERVE(name, v)                                             \
    do {                                                                     \
    } while (0)
#define COTERIE_TIMER_SCOPE(name) static_assert(true)

#endif // COTERIE_TELEMETRY_ENABLED

/** Increment the named counter by one. */
#define COTERIE_COUNT(name) COTERIE_COUNT_N(name, 1)
