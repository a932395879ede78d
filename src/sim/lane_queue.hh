/**
 * @file
 * Parallel discrete-event engine: per-session lanes with conservative
 * lookahead (DESIGN.md §12).
 *
 * The serial `sim::EventQueue` drives the whole fleet on one core. The
 * engine here shards events into **lanes** — one serial `LaneQueue`
 * per fleet session plus a lane-0 *control plane* (the manager's
 * admission wakes, governor ticks, and finalize horizons). Rounds
 * alternate:
 *
 *   1. every lane advances independently (on the shared thread pool)
 *      up to the round horizon — the next control-event time, further
 *      capped at `min(laneNow) + lookahead` when cross-lane traffic is
 *      enabled (the conservative-PDES null-message bound; the channel
 *      latency floor registered via noteLookaheadFloor);
 *   2. cross-lane sends buffered during the round merge into their
 *      target lanes in **(source lane id, timestamp, sequence)** order;
 *   3. the barrier hook runs (the fleet drains its deferred
 *      shared-cache render batch here);
 *   4. lane-posted control actions drain in the same (lane id, posted
 *      time, sequence) order;
 *   5. control events at or before the horizon run serially.
 *
 * Determinism argument: within a lane, events run in exactly the
 * serial engine's (time, FIFO-sequence) order on one thread at a time.
 * Across lanes, every interaction is funneled through steps 2–5, whose
 * order is a pure function of simulation state — never of wall-clock
 * interleaving — so results are bit-identical at any COTERIE_THREADS.
 *
 * Routing is implicit: code running inside a lane (its events, or a
 * `runInLane` body) sees `now()` as the lane clock and `scheduleAt`
 * lands in the lane's own heap, so `SharedChannel`, `FrameServer`,
 * `FaultDriver` and the whole per-session stack work unchanged against
 * their existing `sim::EventQueue&` reference.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "sim/event_queue.hh"

namespace coterie::sim {

/**
 * One serial event lane. Exactly the serial `EventQueue` contract
 * (same-time FIFO, relative scheduling, run-until-horizon), plus an
 * identity and a creation-time clock: a lane born at control time T
 * starts with `now() == T`, so a session started mid-run schedules
 * relative to its admission instant just as it would on the shared
 * serial queue.
 */
class LaneQueue final : public EventQueue
{
  public:
    LaneQueue(std::uint32_t id, TimeMs startClock) : id_(id)
    {
        now_ = startClock;
    }

    std::uint32_t id() const { return id_; }

  private:
    const std::uint32_t id_;
};

/**
 * The parallel engine. A drop-in `EventQueue`: with no lanes created
 * it behaves exactly like the serial queue (one control heap, global
 * FIFO sequence). tests/lane_oracle_test.cc checks random multi-lane
 * programs against a single-queue reference model of the merge rules.
 */
class ParallelEventQueue final : public EventQueue
{
  public:
    ParallelEventQueue() = default;
    ~ParallelEventQueue() override;

    // --- Lane management -------------------------------------------

    /** Create a lane whose clock starts at the control clock. Returns
     *  its id (>= 1). Call from the control plane, never from inside a
     *  lane. */
    std::uint32_t createLane();

    /** Lanes created so far (excluding the control plane). */
    std::size_t laneCount() const { return lanes_.size(); }

    /** Lane-local clock (asserts the lane exists). */
    TimeMs laneNow(std::uint32_t lane) const;

    /** Pending events in one lane. */
    std::size_t lanePending(std::uint32_t lane) const;

    /**
     * The lane the calling thread is executing in: 0 for the control
     * plane / outside the engine, otherwise the lane id. Lane context
     * is established by the round executor around lane events and by
     * runInLane.
     */
    std::uint32_t currentLane() const;

    /**
     * Run @p fn with lane context established: `now()` reads the lane
     * clock and `scheduleAt`/`scheduleIn` land in the lane's heap.
     * This is how a session's object graph is constructed *into* its
     * lane — ctor-time scheduling (fault-driver arming, client frame
     * staggering) lands in-lane without any signature changes.
     */
    void runInLane(std::uint32_t lane, const std::function<void()> &fn);

    // --- Barrier-deferred cross-lane interaction -------------------

    /**
     * Defer @p fn to the next round barrier, to run on the control
     * plane after all lanes have joined. Posts drain in (lane id,
     * posted lane time, sequence) order — the deterministic merge
     * order — before any control event at the horizon runs. This is
     * the only legal way for lane code to reach state owned by the
     * control plane or by another lane.
     */
    void postControl(EventFn fn);

    /** Control-plane callback invoked at every round barrier (after
     *  lanes join and cross-lane merges apply, before posted actions
     *  and control events). The fleet drains its deferred render
     *  batch here. */
    void setBarrierHook(std::function<void()> hook);

    // --- Conservative cross-lane scheduling ------------------------

    /** Record the minimum declared cross-lane interaction delay. */
    void noteLookaheadFloor(TimeMs floorMs) override;

    /** The recorded lookahead floor (infinity until declared). */
    TimeMs lookaheadFloorMs() const { return lookahead_; }

    /**
     * Enable conservative cross-lane scheduling: every round horizon
     * is additionally capped at `min(laneNow) + lookaheadFloorMs()`,
     * so no lane can outrun the earliest event another lane could
     * still send it. Requires a declared (finite, positive) lookahead
     * floor. Call before running; fleets of isolated sessions never
     * need it (their mutual lookahead is infinite).
     */
    void enableCrossLane();

    /**
     * Schedule @p fn into another lane from inside a lane. The
     * conservative contract: @p when must be at least the sender's
     * `now()` plus the lookahead floor — the channel's per-transfer
     * latency floor guarantees any real cross-session interaction
     * satisfies this. The event is buffered in the sender's outbox and
     * merged into the target lane at the round barrier in (source lane
     * id, timestamp, sequence) order.
     */
    void scheduleCross(std::uint32_t targetLane, TimeMs when, EventFn fn);

    // --- EventQueue interface --------------------------------------

    TimeMs now() const override;
    void scheduleAt(TimeMs when, EventFn fn) override;
    std::size_t pending() const override;
    TimeMs nextEventAt() const override;
    bool step() override;
    void runUntil(TimeMs horizon) override;
    void runToCompletion() override;
    void reset() override;
    std::uint64_t executedEvents() const override;

  private:
    struct Posted
    {
        TimeMs at;         ///< sender's lane clock at post time
        std::uint64_t seq; ///< per-lane post sequence
        EventFn fn;
    };
    struct CrossEvent
    {
        std::uint32_t target;
        TimeMs when;
        std::uint64_t seq; ///< per-sender-lane send sequence
        EventFn fn;
    };
    /** Per-lane state beyond the heap itself. The deferred buffers are
     *  written only by the lane's own (single) executing thread during
     *  a round and drained only at barriers, so they need no locks.
     *  Growth is bounded by the events of one round: every barrier
     *  empties them. */
    struct Lane
    {
        std::unique_ptr<LaneQueue> q;
        std::vector<Posted> posted;     // bounded: drained every barrier
        std::vector<CrossEvent> outbox; // bounded: drained every barrier
        std::uint64_t postSeq = 0;
        std::uint64_t sendSeq = 0;
    };

    bool anyLaneWork() const;
    bool anyPosted() const;
    TimeMs minLaneNow() const;
    /** One round up to @p cap (cap = +inf for runToCompletion). */
    void round(TimeMs cap);

    bool crossLane_ = false;
    TimeMs lookahead_ = kNoLookahead;
    std::vector<std::unique_ptr<Lane>> lanes_;
    /** Control-plane posts (lane id 0 in the merge order). Bounded:
     *  drained every barrier. */
    std::vector<Posted> controlPosted_;
    std::uint64_t controlPostSeq_ = 0;
    std::function<void()> barrierHook_;
    bool running_ = false;

    static constexpr TimeMs kNoLookahead =
        std::numeric_limits<TimeMs>::infinity();
};

} // namespace coterie::sim
