#include "sim/event_queue.hh"

#include <utility>

#include "support/logging.hh"

namespace coterie::sim {

void
EventQueue::scheduleAt(TimeMs when, EventFn fn)
{
    COTERIE_ASSERT(when >= now_, "event scheduled in the past: ", when,
                   " < ", now_);
    heap_.push(Event{when, nextSeq_++, std::move(fn)});
}

void
EventQueue::scheduleIn(TimeMs delay, EventFn fn)
{
    COTERIE_ASSERT(delay >= 0.0, "negative delay: ", delay);
    scheduleAt(now_ + delay, std::move(fn));
}

bool
EventQueue::step()
{
    if (heap_.empty())
        return false;
    Event ev = heap_.top();
    heap_.pop();
    now_ = ev.when;
    ++executed_;
    ev.fn();
    return true;
}

void
EventQueue::runUntil(TimeMs horizon)
{
    while (!heap_.empty() && heap_.top().when <= horizon) {
        if (!step())
            break;
    }
    now_ = std::max(now_, horizon);
}

void
EventQueue::runToCompletion()
{
    while (step()) {
    }
}

void
EventQueue::reset()
{
    now_ = 0.0;
    nextSeq_ = 0;
    executed_ = 0;
    heap_ = {};
}

} // namespace coterie::sim
