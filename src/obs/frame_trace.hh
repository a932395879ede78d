/**
 * @file
 * Frame-lifecycle causal tracing: every frame a client displays (and
 * every fetch that feeds one) yields one causal record tracing the
 * request end to end through the pipeline.
 *
 * A `FrameTraceContext` is minted at the client's frame request and
 * travels by value with the work: `Prefetcher` cover-set misses,
 * `net::Channel` transfers, `FrameServer` fan-out and backlog,
 * delivery, decode, and merge/display. Each stage stamps a `Hop` — a
 * sim-time interval plus a wall-clock timestamp — into the record via
 * `FrameTracer::hop()`. When the frame completes with the latency its
 * caller computed, the tracer computes the critical path (the hop
 * family with the largest total sim-time; a frame dominated by
 * `StallWait` descends into its linked fetch record, yielding paths
 * like `"stall_wait/transfer"`), returns it for the caller's frame
 * record, and emits the flight-recorder events live.
 *
 * `finish()` (end of a session run) exports the records as sim-
 * timeline events into `TraceRecorder` (pid 2, one track per client —
 * `trace_report --frames` consumes these from a live trace or a
 * flight dump interchangeably).
 *
 * Determinism: the tracer is observe-only and all exported values are
 * sim-time derived. Records are created and mutated exclusively from
 * the serial event loop; the mutex exists so concurrent readers
 * (snapshots) are safe, not to order writers.
 */

#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "support/thread_annotations.hh"

namespace coterie::obs {

/** One causal stage of a frame's lifecycle. */
enum class Hop : std::uint8_t {
    Request,     ///< client issues an on-demand frame request
    Prefetch,    ///< prefetcher issues a cover-set miss fetch
    PipeWait,    ///< queued behind earlier requests on the client pipe
    Backlog,     ///< queued in the server fan-out backlog
    Transfer,    ///< on the wire (one hop per retry attempt)
    Render,      ///< on-device FI render (Equation 2)
    Decode,      ///< decode on the client
    Sync,        ///< frame-interval sync wait
    StallWait,   ///< client stalled waiting for a delivery
    Merge,       ///< merge near/far layers for display
    Display,     ///< display scan-out
    None,        ///< no hop: critical path of a record without sim time
};

/** Number of stampable Hop enumerators (array sizing; excludes None). */
inline constexpr std::size_t kHopCount =
    static_cast<std::size_t>(Hop::Display) + 1;

/** Lower-case hop name: "request", "stall_wait", ... */
const char *hopName(Hop hop);

/** Trace-event name: "frame.request", "frame.stall_wait", ... (static
 *  literals, safe to store in flight-recorder events). */
const char *hopEventName(Hop hop);

/**
 * A record's critical path in two bytes: the hop family with the
 * largest total sim time and, when that is StallWait, the dominant
 * family of the linked fetch the stall waited on (`via`; None when
 * there is nothing to descend into).
 */
struct CriticalPath
{
    Hop hop = Hop::None;
    Hop via = Hop::None;
    bool operator==(const CriticalPath &) const = default;
};

/** "render", "stall_wait", "stall_wait/transfer", ... (static). */
const char *criticalPathName(CriticalPath path);

class FrameTracer;

/**
 * The causal identity that travels with a frame's work: which tracer
 * owns the record, which session/client/frame it is, and how many
 * hops have been stamped so far. Cheap to copy; a default-constructed
 * (or tracer-less) context is inert and every operation on it is a
 * no-op, so un-traced call paths need no branches.
 */
struct FrameTraceContext
{
    FrameTracer *tracer = nullptr;
    std::uint32_t session = 0;
    std::uint16_t client = 0;
    std::uint64_t frame = 0;   ///< frame number (or fetch sequence)
    std::uint32_t recordId = 0;
    std::uint8_t hops = 0;     ///< hop counter (stamped so far)

    bool active() const { return tracer != nullptr; }

    /** Stamp a hop spanning [beginMs, endMs] sim-time. */
    void hop(Hop h, double beginMs, double endMs);
};

/**
 * Per-session-run collector of causal frame records. One instance per
 * `runSplitSystem` invocation; `label` names the session in exported
 * events and keys its SLO summary (`<game>/<N>p/<system>`).
 */
class FrameTracer
{
  public:
    /** What a record traces. */
    enum class Kind : std::uint8_t {
        Fetch, ///< one frame fetch: request -> delivery
        Frame, ///< one displayed frame: schedule -> display
    };

    struct HopRecord
    {
        Hop hop;
        double simBeginMs;
        double simDurMs;
        std::uint64_t wallNs; ///< wall clock at the stamp
    };

    struct FrameRecord
    {
        Kind kind;
        std::uint16_t client;
        std::uint64_t frame;
        double mintedMs;
        double doneMs = -1.0;
        double latencyMs = 0.0;
        bool completed = false;
        bool aborted = false;
        std::uint32_t link = 0; ///< 1 + linked fetch recordId; 0 none
        CriticalPath criticalPath;
        std::vector<HopRecord> hops;
    };

    explicit FrameTracer(std::string label);

    FrameTracer(const FrameTracer &) = delete;
    FrameTracer &operator=(const FrameTracer &) = delete;

    const std::string &label() const { return label_; }

    /** Mint a new causal record; the returned context travels with
     *  the work. @p nowMs is the sim time of the originating event. */
    FrameTraceContext mint(Kind kind, std::uint16_t client,
                           std::uint64_t frame, double nowMs);

    /** Stamp a hop into @p ctx's record (sim interval + wall stamp);
     *  increments the context's hop counter. No-op when inert. */
    void hop(FrameTraceContext &ctx, Hop h, double beginMs,
             double endMs);

    /** Link a displayed frame to the fetch whose delivery unblocked
     *  it, so critical paths can descend through the stall. */
    void link(const FrameTraceContext &frameCtx,
              const FrameTraceContext &fetchCtx);

    /**
     * Complete the record at sim time @p doneMs with the caller's
     * @p latencyMs (for a displayed frame, its Equation-2 latency):
     * computes the critical path, emits the flight-recorder event for
     * Frame records, and returns the path. An inert context returns
     * the empty path.
     */
    CriticalPath complete(FrameTraceContext &ctx, double doneMs,
                          double latencyMs);

    /** Mark the record abandoned (expired fetch, disconnect). */
    void abort(FrameTraceContext &ctx, double nowMs);

    /**
     * End of run: export all records as sim-timeline frame events
     * into `TraceRecorder::global()` (when recording).
     */
    void finish();

    /** Completed-record lookup for tests; nullptr when absent. */
    const FrameRecord *find(Kind kind, std::uint16_t client,
                            std::uint64_t frame) const;

    std::size_t recordCount() const;

  private:
    const FrameRecord *findLocked(Kind kind, std::uint16_t client,
                                  std::uint64_t frame) const
        COTERIE_REQUIRES(mutex_);
    CriticalPath criticalPathLocked(const FrameRecord &rec) const
        COTERIE_REQUIRES(mutex_);

    std::string label_;
    const char *flightLabel_; ///< intern()-ed copy for ring events
    std::uint32_t sessionId_;

    mutable support::Mutex mutex_{"FrameTracer::mutex_"};
    // deque: records must not move — contexts hold indices and
    // completion touches linked records. Grows one record per causal
    // hop for the whole session (exported+cleared at finish), which is
    // the tracer's job, not a leak.
    std::deque<FrameRecord> records_ // lint:allow(unbounded-queue)
        COTERIE_GUARDED_BY(mutex_);
};

} // namespace coterie::obs
