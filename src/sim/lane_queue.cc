#include "sim/lane_queue.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "support/logging.hh"
#include "support/parallel.hh"

namespace coterie::sim {

std::size_t
ParallelEventQueue::pending() const
{
    std::size_t n = EventQueue::pending();
    for (const auto &ln : lanes_)
        n += ln->q.pending();
    return n;
}

std::uint64_t
ParallelEventQueue::executedEvents() const
{
    std::uint64_t n = EventQueue::executedEvents();
    for (const auto &ln : lanes_)
        n += ln->q.executedEvents();
    return n;
}

std::uint32_t
ParallelEventQueue::createLane()
{
    lanes_.push_back(std::make_unique<Lane>(now_));
    return static_cast<std::uint32_t>(lanes_.size());
}

ParallelEventQueue::Lane &
ParallelEventQueue::laneAt(std::uint32_t id)
{
    COTERIE_ASSERT(id >= 1 && id <= lanes_.size(), "no such lane ", id);
    return *lanes_[id - 1];
}

EventQueue &
ParallelEventQueue::lane(std::uint32_t id)
{
    return laneAt(id).q;
}

void
ParallelEventQueue::postControl(std::uint32_t lane, EventFn fn)
{
    laneAt(lane).posted.push_back(std::move(fn));
}

void
ParallelEventQueue::setBarrierHook(std::function<void()> hook)
{
    barrierHook_ = std::move(hook);
}

void
ParallelEventQueue::round()
{
    // 1. Advance every lane to the next control event (nothing a lane
    //    cannot see can happen before it) in parallel. Chunk grain 1 =
    //    one lane per chunk; chunk boundaries (and therefore what each
    //    lane executes) are thread-count independent, and each lane
    //    runs on exactly one thread per round.
    const TimeMs horizon = nextEventAt();
    support::parallelFor(
        0, static_cast<std::int64_t>(lanes_.size()), 1,
        [&](std::int64_t b, std::int64_t e) {
            for (std::int64_t i = b; i < e; ++i) {
                EventQueue &q = lanes_[static_cast<std::size_t>(i)]->q;
                if (std::isinf(horizon))
                    q.runToCompletion();
                else
                    q.runUntil(horizon);
            }
        });

    // 2. Move the control clock to the barrier instant before any
    //    control-plane code runs: the horizon itself, or with lanes
    //    fully drained the farthest lane clock (both pure functions of
    //    simulation state).
    if (std::isinf(horizon)) {
        for (const auto &ln : lanes_)
            now_ = std::max(now_, ln->q.now());
    } else {
        now_ = std::max(now_, horizon);
    }

    // 3. Barrier hook (the fleet's deferred shared-cache render batch).
    if (barrierHook_)
        barrierHook_();

    // 4. Lane-posted control actions in (lane id, posted time,
    //    sequence) order: lane buffers append in monotone (time,
    //    sequence) order, so lane id order is the whole sort. All are
    //    collected before any runs; a post made while draining waits
    //    for the next barrier.
    std::vector<EventFn> posted;
    for (auto &ln : lanes_) {
        for (EventFn &fn : ln->posted)
            posted.push_back(std::move(fn));
        ln->posted.clear();
    }
    for (EventFn &fn : posted)
        fn();

    // 5. Control events up to the barrier, serially. These may admit
    //    new sessions (creating lanes) or schedule further control
    //    events inside the round.
    while (!heap_.empty() && heap_.top().when <= horizon)
        step();
}

void
ParallelEventQueue::runToCompletion()
{
    const auto laneWork = [&] {
        for (const auto &ln : lanes_)
            if (ln->q.pending() != 0 || !ln->posted.empty())
                return true;
        return false;
    };
    while (!heap_.empty() || laneWork())
        round();
}

} // namespace coterie::sim
