/**
 * @file
 * Frame-lifecycle causal tracing: every frame a client displays (and
 * every fetch that feeds one) is traced end to end through the
 * pipeline while it is in flight.
 *
 * A `FrameTraceContext` is minted at the client's frame request and
 * travels by value with the work: `Prefetcher` cover-set misses,
 * `net::Channel` transfers, `FrameServer` fan-out and backlog,
 * delivery, decode, and merge/display. Each stage stamps a `Hop` (a
 * sim-time interval) via `FrameTracer::hop()`, which emits it and adds
 * its duration to the record's per-family total. When the frame
 * completes with the latency its caller computed, the tracer computes
 * the critical path (the hop family with the largest total sim time; a
 * frame dominated by `StallWait` descends into the dominant family of
 * the fetch it was linked to, yielding paths like
 * `"stall_wait/transfer"`), returns it for the caller's frame record,
 * and forgets the record: nothing of it outlives `complete()` or
 * `abort()`.
 *
 * Every hop and every displayed frame's `frame.done` is emitted as it
 * happens (`obs::emit`): into the flight ring always, and into the
 * live trace while the global recorder is recording, the same window
 * spans follow. Both carry them as sim-timeline events under pid 2,
 * one track per client, which `trace_report --frames` reads from
 * either.
 *
 * Determinism: the tracer is observe-only and all exported values are
 * sim-time derived. Records are created and mutated only from the
 * owning session's serial event loop, so the mutex that guards the
 * in-flight map is never contended; it keeps the tracer safe to call
 * from any thread.
 */

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>

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
 *  literals, safe to store in trace events). */
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
 * owns the record and which session/client/frame it is. Cheap to
 * copy; a default-constructed (or tracer-less) context is inert and
 * every operation on it is a no-op, so un-traced call paths need no
 * branches.
 */
struct FrameTraceContext
{
    FrameTracer *tracer = nullptr;
    std::uint32_t session = 0;
    std::uint16_t client = 0;
    std::uint64_t frame = 0;   ///< frame number (or fetch sequence)
    std::uint32_t recordId = 0;

    bool active() const { return tracer != nullptr; }

    /** Stamp a hop spanning [beginMs, endMs] sim-time. */
    void hop(Hop h, double beginMs, double endMs) const;
};

/**
 * Per-session-run tracer of causal frame records. One instance per
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

    explicit FrameTracer(std::string label);

    FrameTracer(const FrameTracer &) = delete;
    FrameTracer &operator=(const FrameTracer &) = delete;

    const std::string &label() const { return label_; }

    /** Mint a new causal record; the returned context travels with
     *  the work. */
    FrameTraceContext mint(Kind kind, std::uint16_t client,
                           std::uint64_t frame);

    /** Emit a hop of @p ctx's record (sim interval + wall stamp) and
     *  add its duration to the record's totals. A hop that lands after
     *  the record was released is still emitted but adds to nothing. */
    void hop(const FrameTraceContext &ctx, Hop h, double beginMs,
             double endMs);

    /** Link a displayed frame to the fetch whose delivery unblocked
     *  it: @p fetchHop is the dominant hop that fetch's complete()
     *  returned, which a stall-dominated frame's path descends into. */
    void link(const FrameTraceContext &frameCtx, Hop fetchHop);

    /**
     * Complete the record at sim time @p doneMs with the caller's
     * @p latencyMs (for a displayed frame, its Equation-2 latency):
     * computes the critical path, emits `frame.done` for Frame
     * records, releases the record, and returns the path. An inert
     * context returns the empty path.
     */
    CriticalPath complete(const FrameTraceContext &ctx, double doneMs,
                          double latencyMs);

    /** Release the record unscored (expired fetch, disconnect). */
    void abort(const FrameTraceContext &ctx);

  private:
    /** What the tracer keeps of a record while it is in flight. */
    struct InFlight
    {
        std::array<double, kHopCount> totalMs{}; ///< sim ms per family
        Kind kind = Kind::Fetch;
        Hop via = Hop::None; ///< linked fetch's dominant hop
    };

    std::string label_;
    const char *eventLabel_; ///< intern()-ed copy for trace events
    std::uint32_t sessionId_;

    support::Mutex mutex_{"FrameTracer::mutex_"};
    std::uint32_t nextRecordId_ COTERIE_GUARDED_BY(mutex_) = 0;
    // Minted, not yet completed or aborted. The client loop bounds it:
    // per client, at most 7 queued and in-flight fetches (6 on the
    // request pipe, 1 on the wire) plus 1 frame waiting for display.
    std::unordered_map<std::uint32_t, InFlight> inFlight_
        COTERIE_GUARDED_BY(mutex_);
};

} // namespace coterie::obs
