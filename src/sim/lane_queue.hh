/**
 * @file
 * Parallel discrete-event engine: per-session lanes advanced in rounds
 * (DESIGN.md §12).
 *
 * The engine owns one control-plane queue (the fleet manager's
 * admission wakes, governor ticks and finalize horizons) and one plain
 * serial `EventQueue` per lane. Each fleet session is built directly
 * over its lane's queue, so every event it ever schedules stays in that
 * lane. Rounds run:
 *
 *   1. every lane advances independently (on the shared thread pool)
 *      up to the next control event;
 *   2. the control clock moves to that barrier instant;
 *   3. the barrier hook runs (the fleet drains its deferred
 *      shared-cache render batch here);
 *   4. lane-posted control actions drain in (lane id, posted time,
 *      sequence) order;
 *   5. control events at or before the barrier run serially.
 *
 * Determinism argument: within a lane, events run in the serial queue's
 * (time, FIFO-sequence) order on one thread at a time. Lanes never
 * reach each other's queues; lane code reaches the control plane only
 * through `postControl`, and steps 2–5 run serially in an order that is
 * a pure function of simulation state, never of wall-clock
 * interleaving. Results are therefore bit-identical at any
 * COTERIE_THREADS.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/event_queue.hh"

namespace coterie::sim {

/**
 * The lane engine. tests/lane_oracle_test.cc checks random multi-lane
 * programs against a single-queue reference model of the round rules.
 */
class ParallelEventQueue : private EventQueue
{
  public:
    // --- Control plane ----------------------------------------------

    using EventQueue::now;
    using EventQueue::scheduleAt;
    using EventQueue::scheduleIn;

    /** Pending events over the control plane and every lane.
     *  Meaningful at barriers (the governor's pressure signal). */
    std::size_t pending() const;

    /** Events executed over the control plane and every lane. */
    std::uint64_t executedEvents() const;

    /** Run rounds until the control plane and every lane drain. */
    void runToCompletion();

    // --- Lanes ------------------------------------------------------

    /** Create a lane whose clock starts at the control clock. Returns
     *  its id (>= 1). Call from the control plane. */
    std::uint32_t createLane();

    /** The lane's serial queue: a session built over it schedules and
     *  reads the clock there. */
    EventQueue &lane(std::uint32_t id);

    /**
     * Defer @p fn, posted by code running in lane @p lane, to the next
     * round barrier, where it runs on the control plane after all lanes
     * have joined. Posts drain in (lane id, posted time, sequence)
     * order before any control event at the barrier runs. This is the
     * only legal way for lane code to reach control-plane state.
     */
    void postControl(std::uint32_t lane, EventFn fn);

    /** Control-plane callback invoked at every round barrier (after
     *  lanes join, before posted actions and control events). The
     *  fleet drains its deferred render batch here. */
    void setBarrierHook(std::function<void()> hook);

  private:
    /** One lane: its queue and the control actions it posted this
     *  round. The post buffer is written only by the lane's own
     *  (single) executing thread during a round and drained at every
     *  barrier, so it needs no lock and is bounded by one round's
     *  posts. */
    struct Lane
    {
        explicit Lane(TimeMs startClock) : q(startClock) {}
        EventQueue q;
        std::vector<EventFn> posted; // bounded: drained every barrier
    };

    Lane &laneAt(std::uint32_t id);
    void round();

    std::vector<std::unique_ptr<Lane>> lanes_;
    std::function<void()> barrierHook_;
};

} // namespace coterie::sim
