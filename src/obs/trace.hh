/**
 * @file
 * coterie-scope tracing: the opt-in `TraceRecorder` and the emit calls
 * that feed it and the flight recorder with one `TraceEvent` record
 * (obs/trace_event.hh), exported as Chrome `trace_event` JSON loadable
 * in Perfetto / chrome://tracing.
 *
 * `COTERIE_SPAN("render.panorama", "render")` opens an RAII span that
 * records a complete ("ph":"X") event with wall-clock begin/duration
 * (read only through obs/clock), the recording thread's slot as `tid`,
 * and — when the call site attaches it — the simulation time as a
 * `sim_ms` arg, so wall-time spans can be correlated with sim-time
 * behaviour. `obs::instant` marks a point event, and `obs::emit` takes
 * any prepared record (the frame tracer's hops and `frame.done`); each
 * writes the calling thread's flight ring and, while the global
 * recorder is recording, the recorder too. `TraceRecorder::counter`
 * emits recorder-only "ph":"C" counter tracks; the pool telemetry
 * hooks (installed by `installPoolTelemetry`) use them for
 * thread-pool queue depth and worker utilisation.
 *
 * Recording is opt-in: the recorder drops events (two relaxed atomic
 * loads) until `TraceRecorder::global().start()`. With
 * `-DCOTERIE_TELEMETRY=OFF` the span macros compile away entirely;
 * the recorder API itself stays linkable so tools and tests build in
 * both configurations.
 *
 * Span taxonomy (see DESIGN.md §8): span names reuse the metric naming
 * scheme minus the unit suffix (`render.panorama`, `codec.encode`);
 * the category is the owning layer (`render`, `image`, `core`, `net`,
 * `support`). Every name is a static literal or `intern()`-ed.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/clock.hh"
#include "obs/flight.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/trace_event.hh"
#include "support/thread_annotations.hh"

namespace coterie::obs {

/** Collects trace events and exports Chrome trace_event JSON. */
class TraceRecorder
{
  public:
    TraceRecorder() = default;
    TraceRecorder(const TraceRecorder &) = delete;
    TraceRecorder &operator=(const TraceRecorder &) = delete;

    /** The process-wide recorder the span macros feed. */
    static TraceRecorder &global();

    /** Clear any previous events and begin recording. */
    void start();
    /** Stop recording (events are kept for export). */
    void stop();
    /** Drop all recorded events. */
    void clear();

    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Record @p e, tagged with the calling thread's slot, while
     *  recording. Every string in @p e must be a static literal or
     *  `intern()`-ed. */
    void record(const TraceEvent &e);

    /**
     * Record a complete span. @p simMs attaches simulated time as an
     * arg when non-negative (wall and sim time share no epoch; the
     * arg is attribution, not an axis).
     */
    void complete(const char *name, const char *category,
                  std::uint64_t beginNs, std::uint64_t endNs,
                  double simMs = -1.0);

    /** Record a counter-track sample ("ph":"C"). */
    void counter(const char *name, double value);

    /** Record an instant event ("ph":"i", thread scope) in this
     *  recorder only; `obs::instant` also marks the flight ring. */
    void instant(const char *name, const char *category,
                 double simMs = -1.0);

    std::size_t eventCount() const;

    /**
     * Export everything recorded so far through `traceDocument`. Wall
     * timestamps are microseconds relative to the last `start()`.
     */
    Json toJson() const;
    std::string exportJson() const { return toJson().dump(1); }
    bool exportToFile(const std::string &path) const;

  private:
    std::atomic<bool> enabled_{false};
    mutable support::Mutex mutex_{"TraceRecorder::mutex_"};
    std::vector<SlottedEvent> events_ COTERIE_GUARDED_BY(mutex_);
    std::uint64_t epochNs_ COTERIE_GUARDED_BY(mutex_) = 0;
};

/**
 * Install the thread-pool telemetry bridge (queue-depth and
 * worker-utilisation counter tracks + `pool.*` metrics). Idempotent;
 * called automatically by `TraceRecorder::start()`.
 */
void installPoolTelemetry();

/**
 * Emit @p e into both sinks: the calling thread's flight ring and,
 * while the global recorder is recording, the recorder.
 */
void emit(const TraceEvent &e);

/** Emit an instant event ("ph":"i") stamped now. @p simMs attaches
 *  simulated time as an arg when non-negative. */
void instant(const char *name, const char *category, double simMs = -1.0);

/** ScopedSpan's exit: the span record into the flight ring and, when
 *  @p recorderArmed, into the global recorder. */
void emitSpan(const char *name, const char *category,
              std::uint64_t beginNs, std::uint64_t endNs, double simMs,
              bool recorderArmed);

#if COTERIE_TELEMETRY_ENABLED

/**
 * RAII span. Both sinks get the same record:
 *  - `TraceRecorder` iff recording was on at entry and still is at
 *    exit (spans straddling the recording window are dropped);
 *  - the flight recorder (obs/flight.hh) every span, unconditionally,
 *    into the calling thread's ring.
 * With the flight recorder compiled out this collapses back to the
 * recorder-only behaviour, including skipping the clock reads when
 * recording is off.
 */
class ScopedSpan
{
  public:
    ScopedSpan(const char *name, const char *category)
        : name_(name), category_(category),
          recorderArmed_(TraceRecorder::global().enabled())
    {
        if (recorderArmed_ || flight::kCompiledIn)
            beginNs_ = monotonicNowNs();
    }

    ~ScopedSpan()
    {
        if (!recorderArmed_ && !flight::kCompiledIn)
            return;
        emitSpan(name_, category_, beginNs_, monotonicNowNs(), simMs_,
                 recorderArmed_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** Attach simulated-time attribution to this span. */
    void simTimeMs(double ms) { simMs_ = ms; }

  private:
    const char *name_;
    const char *category_;
    const bool recorderArmed_;
    std::uint64_t beginNs_ = 0;
    double simMs_ = -1.0;
};

#else // telemetry compiled out: spans are empty objects

class ScopedSpan
{
  public:
    ScopedSpan(const char *, const char *) {}
    void simTimeMs(double) {}
};

#endif // COTERIE_TELEMETRY_ENABLED

/** Anonymous span covering the enclosing scope. */
#define COTERIE_SPAN(name, category)                                         \
    [[maybe_unused]] ::coterie::obs::ScopedSpan COTERIE_OBS_CAT(             \
        coterieObsSpan_, __LINE__)(name, category)

/** Named span, for call sites that attach simTimeMs() or end early. */
#define COTERIE_NAMED_SPAN(var, name, category)                              \
    ::coterie::obs::ScopedSpan var(name, category)

} // namespace coterie::obs
