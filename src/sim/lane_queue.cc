#include "sim/lane_queue.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "support/logging.hh"
#include "support/parallel.hh"

namespace coterie::sim {

namespace {

/**
 * Which lane the calling thread is currently executing in. The round
 * executor (and runInLane) stamps this around lane code so the
 * existing `queue.scheduleAt/scheduleIn/now` calls inside a session's
 * object graph route to the session's own lane with no signature
 * changes. Owner-tagged so nested engines (a solo run inside a fleet
 * barrier, tests with several queues) never cross-route.
 */
struct LaneCtx
{
    ParallelEventQueue *owner = nullptr;
    std::uint32_t lane = 0;
};

thread_local LaneCtx tlsLaneCtx;

/** RAII lane-context scope (restores the previous context, so nested
 *  runInLane bodies and barrier-time solo work compose). */
class LaneScope
{
  public:
    LaneScope(ParallelEventQueue *owner, std::uint32_t lane)
        : saved_(tlsLaneCtx)
    {
        tlsLaneCtx = LaneCtx{owner, lane};
    }
    ~LaneScope() { tlsLaneCtx = saved_; }
    LaneScope(const LaneScope &) = delete;
    LaneScope &operator=(const LaneScope &) = delete;

  private:
    LaneCtx saved_;
};

} // namespace

ParallelEventQueue::~ParallelEventQueue() = default;

std::uint32_t
ParallelEventQueue::createLane()
{
    COTERIE_ASSERT(currentLane() == 0,
                   "createLane must be called from the control plane");
    auto lane = std::make_unique<Lane>();
    const auto id = static_cast<std::uint32_t>(lanes_.size()) + 1;
    lane->q = std::make_unique<LaneQueue>(id, now_);
    lanes_.push_back(std::move(lane));
    return id;
}

TimeMs
ParallelEventQueue::laneNow(std::uint32_t lane) const
{
    COTERIE_ASSERT(lane >= 1 && lane <= lanes_.size(),
                   "laneNow: no such lane ", lane);
    return lanes_[lane - 1]->q->now();
}

std::size_t
ParallelEventQueue::lanePending(std::uint32_t lane) const
{
    COTERIE_ASSERT(lane >= 1 && lane <= lanes_.size(),
                   "lanePending: no such lane ", lane);
    return lanes_[lane - 1]->q->pending();
}

std::uint32_t
ParallelEventQueue::currentLane() const
{
    return tlsLaneCtx.owner == this ? tlsLaneCtx.lane : 0;
}

void
ParallelEventQueue::runInLane(std::uint32_t lane,
                              const std::function<void()> &fn)
{
    COTERIE_ASSERT(lane >= 1 && lane <= lanes_.size(),
                   "runInLane: no such lane ", lane);
    LaneScope scope(this, lane);
    fn();
}

void
ParallelEventQueue::postControl(EventFn fn)
{
    const std::uint32_t lane = currentLane();
    if (lane == 0) {
        controlPosted_.push_back(
            Posted{now_, controlPostSeq_++, std::move(fn)});
        return;
    }
    Lane &ln = *lanes_[lane - 1];
    ln.posted.push_back(Posted{ln.q->now(), ln.postSeq++, std::move(fn)});
}

void
ParallelEventQueue::setBarrierHook(std::function<void()> hook)
{
    barrierHook_ = std::move(hook);
}

void
ParallelEventQueue::noteLookaheadFloor(TimeMs floorMs)
{
    COTERIE_ASSERT(floorMs > 0.0,
                   "lookahead floor must be positive: ", floorMs);
    lookahead_ = std::min(lookahead_, floorMs);
}

void
ParallelEventQueue::enableCrossLane()
{
    COTERIE_ASSERT(lookahead_ > 0.0 && std::isfinite(lookahead_),
                   "enableCrossLane needs a declared finite lookahead "
                   "floor (noteLookaheadFloor)");
    crossLane_ = true;
}

void
ParallelEventQueue::scheduleCross(std::uint32_t targetLane, TimeMs when,
                                  EventFn fn)
{
    const std::uint32_t from = currentLane();
    COTERIE_ASSERT(from != 0,
                   "scheduleCross is lane-to-lane; the control plane "
                   "schedules into lanes via runInLane");
    COTERIE_ASSERT(crossLane_, "scheduleCross without enableCrossLane");
    COTERIE_ASSERT(targetLane >= 1 && targetLane <= lanes_.size(),
                   "scheduleCross: no such lane ", targetLane);
    Lane &ln = *lanes_[from - 1];
    COTERIE_ASSERT(when >= ln.q->now() + lookahead_,
                   "scheduleCross violates the conservative lookahead "
                   "contract: ",
                   when, " < ", ln.q->now(), " + ", lookahead_);
    ln.outbox.push_back(
        CrossEvent{targetLane, when, ln.sendSeq++, std::move(fn)});
}

TimeMs
ParallelEventQueue::now() const
{
    const std::uint32_t lane = currentLane();
    return lane == 0 ? now_ : lanes_[lane - 1]->q->now();
}

void
ParallelEventQueue::scheduleAt(TimeMs when, EventFn fn)
{
    const std::uint32_t lane = currentLane();
    if (lane == 0) {
        EventQueue::scheduleAt(when, std::move(fn));
        return;
    }
    lanes_[lane - 1]->q->scheduleAt(when, std::move(fn));
}

std::size_t
ParallelEventQueue::pending()
    const
{
    // Control backlog plus every lane's. Meaningful at barriers (the
    // governor's pressure signal); unspecified mid-round.
    std::size_t n = heap_.size();
    for (const auto &ln : lanes_)
        n += ln->q->pending();
    return n;
}

bool
ParallelEventQueue::step()
{
    COTERIE_ASSERT(lanes_.empty(),
                   "single-step needs a queue with no lanes; lanes "
                   "advance in rounds (runUntil/runToCompletion)");
    return EventQueue::step();
}

TimeMs
ParallelEventQueue::nextEventAt() const
{
    TimeMs t = EventQueue::nextEventAt();
    for (const auto &ln : lanes_)
        t = std::min(t, ln->q->nextEventAt());
    return t;
}

std::uint64_t
ParallelEventQueue::executedEvents() const
{
    std::uint64_t n = executed_;
    for (const auto &ln : lanes_)
        n += ln->q->executedEvents();
    return n;
}

bool
ParallelEventQueue::anyLaneWork() const
{
    for (const auto &ln : lanes_)
        if (ln->q->pending() != 0)
            return true;
    return false;
}

bool
ParallelEventQueue::anyPosted() const
{
    if (!controlPosted_.empty())
        return true;
    for (const auto &ln : lanes_)
        if (!ln->posted.empty() || !ln->outbox.empty())
            return true;
    return false;
}

TimeMs
ParallelEventQueue::minLaneNow() const
{
    TimeMs t = std::numeric_limits<TimeMs>::infinity();
    for (const auto &ln : lanes_)
        t = std::min(t, ln->q->now());
    return t;
}

void
ParallelEventQueue::round(TimeMs cap)
{
    // 1. The round horizon: the next control event (nothing a lane
    //    cannot yet see can happen before it), capped by the caller's
    //    horizon and — when cross-lane traffic is enabled — by the
    //    conservative lookahead bound: no lane may outrun the earliest
    //    event the slowest lane could still send it.
    TimeMs horizon = cap;
    if (!heap_.empty())
        horizon = std::min(horizon, heap_.top().when);
    if (crossLane_ && !lanes_.empty())
        horizon = std::min(horizon, minLaneNow() + lookahead_);

    // 2. Advance every lane to the horizon in parallel. Chunk grain 1
    //    = one lane per chunk; chunk boundaries (and therefore what
    //    each lane executes) are thread-count independent, and each
    //    lane runs on exactly one thread per round, so intra-lane
    //    order is the serial engine's order exactly.
    if (!lanes_.empty()) {
        support::parallelFor(
            0, static_cast<std::int64_t>(lanes_.size()), 1,
            [&](std::int64_t b, std::int64_t e) {
                for (std::int64_t i = b; i < e; ++i) {
                    Lane &ln = *lanes_[static_cast<std::size_t>(i)];
                    LaneScope scope(this,
                                    static_cast<std::uint32_t>(i) + 1);
                    if (std::isinf(horizon))
                        ln.q->runToCompletion();
                    else
                        ln.q->runUntil(horizon);
                }
            });
    }

    // 3. Merge cross-lane sends in (source lane id, timestamp,
    //    sequence) order. The lookahead contract guarantees every
    //    `when` is at or past the horizon the target just reached, so
    //    insertion never violates the target's clock.
    for (auto &lnp : lanes_) {
        Lane &ln = *lnp;
        if (ln.outbox.empty())
            continue;
        std::stable_sort(ln.outbox.begin(), ln.outbox.end(),
                         [](const CrossEvent &a, const CrossEvent &b) {
                             if (a.when != b.when)
                                 return a.when < b.when;
                             return a.seq < b.seq;
                         });
        for (CrossEvent &ev : ln.outbox)
            lanes_[ev.target - 1]->q->scheduleAt(ev.when,
                                                 std::move(ev.fn));
        ln.outbox.clear();
    }

    // 4. Advance the control clock to the barrier instant before any
    //    control-plane code runs: with a finite horizon that is the
    //    horizon itself; with lanes fully drained it is the farthest
    //    lane clock (both pure functions of simulation state).
    if (std::isinf(horizon)) {
        for (const auto &ln : lanes_)
            now_ = std::max(now_, ln->q->now());
    } else {
        now_ = std::max(now_, horizon);
    }

    // 5. Barrier hook (the fleet's deferred shared-cache render
    //    batch), then lane-posted control actions in (lane id, posted
    //    time, sequence) order — already sorted by construction: the
    //    control buffer is lane 0, lane buffers append in monotone
    //    (time, sequence) order.
    if (barrierHook_)
        barrierHook_();
    std::vector<Posted> posted;
    posted.swap(controlPosted_);
    for (auto &lnp : lanes_) {
        for (Posted &p : lnp->posted)
            posted.push_back(std::move(p));
        lnp->posted.clear();
    }
    for (Posted &p : posted)
        p.fn();

    // 6. Control events up to the horizon, serially. These may admit
    //    new sessions (creating lanes) or schedule further control
    //    events inside the round; the loop keeps the control plane
    //    exactly as serial as the old engine.
    while (!heap_.empty() && heap_.top().when <= horizon)
        EventQueue::step();
}

void
ParallelEventQueue::runToCompletion()
{
    COTERIE_ASSERT(!running_, "re-entrant run on ParallelEventQueue");
    running_ = true;
    while (!heap_.empty() || anyLaneWork() || anyPosted())
        round(std::numeric_limits<TimeMs>::infinity());
    running_ = false;
}

void
ParallelEventQueue::runUntil(TimeMs horizon)
{
    COTERIE_ASSERT(!running_, "re-entrant run on ParallelEventQueue");
    running_ = true;
    auto workDue = [&] {
        if (!heap_.empty() && heap_.top().when <= horizon)
            return true;
        for (const auto &ln : lanes_)
            if (ln->q->nextEventAt() <= horizon)
                return true;
        return anyPosted();
    };
    while (workDue())
        round(horizon);
    now_ = std::max(now_, horizon);
    for (auto &ln : lanes_)
        ln->q->runUntil(horizon); // no events left <= horizon: clock bump
    running_ = false;
}

void
ParallelEventQueue::reset()
{
    COTERIE_ASSERT(!running_, "reset during run");
    EventQueue::reset();
    lanes_.clear();
    controlPosted_.clear();
    controlPostSeq_ = 0;
    crossLane_ = false;
    lookahead_ = kNoLookahead;
}

} // namespace coterie::sim
