/**
 * @file
 * Discrete-event simulation core.
 *
 * The network model (shared 802.11ac channel, flows, clients) and the
 * end-to-end system benches run on this queue. Time is kept in double
 * milliseconds, matching the paper's reporting unit.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <vector>

namespace coterie::sim {

/** Simulation time in milliseconds. */
using TimeMs = double;

/** Callback invoked when an event fires. */
using EventFn = std::function<void()>;

/**
 * A priority-ordered serial event queue with stable FIFO ordering
 * among events scheduled for the same instant.
 *
 * Every simulated component holds the `EventQueue&` it was built over.
 * A solo run owns one; in a fleet the lane engine
 * (`sim::ParallelEventQueue`, lane_queue.hh) owns one per session lane
 * plus one for its control plane, and each session is built directly
 * over its lane's queue.
 */
class EventQueue
{
  public:
    EventQueue() = default;

    /** A queue whose clock starts at @p startClock instead of zero. */
    explicit EventQueue(TimeMs startClock) : now_(startClock) {}

    /** Current simulation time. */
    TimeMs now() const { return now_; }

    /** Schedule @p fn to run at absolute time @p when (>= now). */
    void scheduleAt(TimeMs when, EventFn fn);

    /** Schedule @p fn to run @p delay ms from now. */
    void scheduleIn(TimeMs delay, EventFn fn);

    /** Number of pending events. */
    std::size_t pending() const { return heap_.size(); }

    /** Time of the earliest pending event (+inf when empty). */
    TimeMs
    nextEventAt() const
    {
        return heap_.empty()
                   ? std::numeric_limits<TimeMs>::infinity()
                   : heap_.top().when;
    }

    /** Run a single event; returns false when the queue is empty. */
    bool step();

    /** Run until the queue drains or time would exceed @p horizon. */
    void runUntil(TimeMs horizon);

    /** Run until the queue drains completely. */
    void runToCompletion();

    /** Drop all pending events and reset the clock to zero. */
    void reset();

    /** Events executed since construction (throughput reporting). */
    std::uint64_t executedEvents() const { return executed_; }

  protected:
    struct Event
    {
        TimeMs when;
        std::uint64_t seq;
        EventFn fn;
    };
    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    TimeMs now_ = 0.0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    std::priority_queue<Event, std::vector<Event>, Later> heap_;
};

} // namespace coterie::sim
