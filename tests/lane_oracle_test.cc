/**
 * @file
 * Engine oracle: seeded random multi-lane programs run on the parallel
 * discrete-event engine (`sim::ParallelEventQueue`) must reproduce, event
 * for event, a small single-threaded reference model of the round rules
 * documented in sim/lane_queue.hh.
 *
 * A program mixes in-lane schedules (zero delays included, so same-time
 * FIFO order matters), `postControl` actions, and control events that
 * create lanes and seed work into them. What every event does is a pure
 * function of the program seed and the event's id, so the engine and the
 * model generate the same program without sharing any state.
 *
 * ctest registers this binary once per pool size (COTERIE_THREADS = 1,
 * 2, 4, 8): the executed `(time, id)` log of every lane and of the
 * control plane must match the model at each of them.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <ostream>
#include <set>
#include <tuple>
#include <vector>

#include "sim/lane_queue.hh"
#include "support/parallel.hh"
#include "support/rng.hh"

namespace coterie::sim {
namespace {

/** One executed event or posted action. */
struct Entry
{
    TimeMs t = 0.0;
    std::uint64_t id = 0;
    bool operator==(const Entry &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const Entry &e)
{
    return os << "(" << e.t << ", " << e.id << ")";
}

/** What a run produced. */
struct Trace
{
    std::vector<std::vector<Entry>> lanes; ///< index = lane id - 1
    std::vector<Entry> control;            ///< control events + posts
    std::uint64_t executed = 0;
    TimeMs end = 0.0;
};

struct Program
{
    std::uint64_t seed = 0;
    int initialLanes = 1;
    int maxLanes = 1;
};

Program
makeProgram(std::uint64_t seed)
{
    Rng rng(seed);
    Program p;
    p.seed = seed;
    p.initialLanes = static_cast<int>(rng.uniformInt(1, 4));
    p.maxLanes = p.initialLanes + static_cast<int>(rng.uniformInt(0, 3));
    return p;
}

/** Every chain of events (lane, posted or control) stops at this depth. */
constexpr int kMaxDepth = 6;

enum class Role
{
    Lane,
    Posted,
    Control,
};

/** A scheduled child: lane selector, delay, id, depth. */
struct Child
{
    std::uint64_t laneSel = 0;
    TimeMs delay = 0.0;
    std::uint64_t id = 0;
    int depth = 0;
};

/** What one event does. */
struct Script
{
    std::vector<Child> local;   ///< lane: same-lane schedules
    std::vector<Child> posts;   ///< lane: postControl actions
    bool createLane = false;    ///< control
    std::vector<Child> seeds;   ///< control: schedules into a lane
    std::vector<Child> control; ///< control + posted: control schedules
};

Script
scriptFor(const Program &p, Role role, std::uint64_t id, int depth)
{
    Rng rng(hashCombine(p.seed, id));
    std::uint64_t slot = 0;
    const auto delay = [&] {
        static constexpr TimeMs kDelays[] = {0.0, 0.0, 0.5, 1.0, 1.5, 3.0};
        return kDelays[rng.uniformInt(0, 5)];
    };
    const auto child = [&](TimeMs d) {
        return Child{rng.next(), d, hashCombine(id, ++slot), depth + 1};
    };
    Script s;
    if (depth >= kMaxDepth)
        return s;
    if (role == Role::Lane) {
        for (auto k = rng.uniformInt(0, 2); k > 0; --k)
            s.local.push_back(child(delay()));
        if (rng.chance(0.25))
            s.posts.push_back(child(0.0));
        return s;
    }
    if (role == Role::Control) {
        s.createLane = rng.chance(0.3);
        for (auto k = rng.uniformInt(0, 2); k > 0; --k)
            s.seeds.push_back(child(delay()));
    }
    if (rng.chance(0.5))
        s.control.push_back(child(delay()));
    return s;
}

/** The program's initial work: per-lane roots, then control roots. */
struct Root
{
    std::uint32_t lane = 0; ///< 0 = control plane
    TimeMs at = 0.0;
    std::uint64_t id = 0;
};

std::vector<Root>
rootsOf(const Program &p)
{
    Rng rng(hashCombine(p.seed, 0x7007));
    std::vector<Root> roots;
    std::uint64_t id = 0;
    for (int lane = 0; lane <= p.initialLanes; ++lane)
        for (auto k = rng.uniformInt(1, 3); k > 0; --k)
            roots.push_back({static_cast<std::uint32_t>(lane),
                             0.5 * static_cast<double>(rng.uniformInt(0, 12)),
                             hashCombine(p.seed, ++id)});
    return roots;
}

std::uint32_t
pickLane(std::uint64_t sel, std::size_t laneCount)
{
    return static_cast<std::uint32_t>(sel % laneCount) + 1;
}

/** The program on the real engine. */
class EngineRun
{
  public:
    explicit EngineRun(const Program &p) : p_(p) {}

    Trace
    run()
    {
        for (int l = 0; l < p_.initialLanes; ++l)
            addLane();
        for (const Root &r : rootsOf(p_)) {
            const Child c{0, r.at, r.id, 0};
            if (r.lane == 0)
                scheduleControl(c);
            else
                scheduleLane(r.lane, c);
        }
        q_.runToCompletion();
        out_.executed = q_.executedEvents();
        out_.end = q_.now();
        return std::move(out_);
    }

  private:
    void
    addLane()
    {
        q_.createLane();
        out_.lanes.emplace_back();
    }

    void
    scheduleLane(std::uint32_t lane, const Child &c)
    {
        q_.lane(lane).scheduleIn(
            c.delay, [this, lane, c] { laneEvent(lane, c.id, c.depth); });
    }

    void
    scheduleControl(const Child &c)
    {
        q_.scheduleIn(c.delay, [this, c] { controlEvent(c.id, c.depth); });
    }

    void
    laneEvent(std::uint32_t lane, std::uint64_t id, int depth)
    {
        out_.lanes[lane - 1].push_back({q_.lane(lane).now(), id});
        const Script s = scriptFor(p_, Role::Lane, id, depth);
        for (const Child &c : s.local)
            scheduleLane(lane, c);
        for (const Child &c : s.posts)
            q_.postControl(lane, [this, c] { posted(c.id, c.depth); });
    }

    void
    posted(std::uint64_t id, int depth)
    {
        out_.control.push_back({q_.now(), id});
        for (const Child &c : scriptFor(p_, Role::Posted, id, depth).control)
            scheduleControl(c);
    }

    void
    controlEvent(std::uint64_t id, int depth)
    {
        out_.control.push_back({q_.now(), id});
        const Script s = scriptFor(p_, Role::Control, id, depth);
        if (s.createLane &&
            out_.lanes.size() < static_cast<std::size_t>(p_.maxLanes))
            addLane();
        for (const Child &c : s.seeds)
            scheduleLane(pickLane(c.laneSel, out_.lanes.size()), c);
        for (const Child &c : s.control)
            scheduleControl(c);
    }

    const Program &p_;
    ParallelEventQueue q_;
    Trace out_;
};

/**
 * The reference model: one ordered queue of every pending event keyed
 * by (time, lane, insertion sequence), lane 0 being the control plane,
 * run single-threaded in rounds that apply the documented round rules.
 */
class Model
{
  public:
    explicit Model(const Program &p) : p_(p) {}

    Trace
    run()
    {
        for (int l = 0; l < p_.initialLanes; ++l)
            addLane();
        for (const Root &r : rootsOf(p_))
            push(r.lane, (r.lane == 0 ? now_ : laneNow_[r.lane - 1]) + r.at,
                 r.id, 0);
        while (!queue_.empty() || !posted_.empty())
            round();
        out_.end = now_;
        return std::move(out_);
    }

  private:
    struct Ev
    {
        TimeMs when;
        std::uint32_t lane; ///< 0 = control plane
        std::uint64_t seq;  ///< global insertion order
        std::uint64_t id;
        int depth;
        bool
        operator<(const Ev &o) const
        {
            return std::tie(when, lane, seq) < std::tie(o.when, o.lane, o.seq);
        }
    };

    void
    addLane()
    {
        laneNow_.push_back(now_); // a lane starts at the control clock
        out_.lanes.emplace_back();
    }

    void
    push(std::uint32_t lane, TimeMs when, std::uint64_t id, int depth)
    {
        queue_.insert(Ev{when, lane, seq_++, id, depth});
    }

    /** Earliest pending event on the control plane (lane 0) or a lane. */
    std::set<Ev>::iterator
    first(bool control)
    {
        return std::find_if(queue_.begin(), queue_.end(), [&](const Ev &e) {
            return (e.lane == 0) == control;
        });
    }

    void
    round()
    {
        // The horizon: the next control event.
        TimeMs horizon = std::numeric_limits<TimeMs>::infinity();
        if (auto it = first(true); it != queue_.end())
            horizon = it->when;
        // 1. Every lane event up to the horizon. Lanes never touch each
        //    other, so (time, lane, seq) order is each lane's own
        //    (time, seq) order.
        for (auto it = first(false); it != queue_.end() && it->when <= horizon;
             it = first(false)) {
            const Ev ev = *it;
            queue_.erase(it);
            laneNow_[ev.lane - 1] = ev.when;
            laneEvent(ev);
        }
        if (std::isfinite(horizon))
            for (TimeMs &t : laneNow_)
                t = std::max(t, horizon);
        // 2. The control clock moves to the barrier.
        now_ = std::max(now_, std::isfinite(horizon)
                                  ? horizon
                                  : *std::max_element(laneNow_.begin(),
                                                      laneNow_.end()));
        // 3. The engine runs with no barrier hook. 4. Posted actions by
        //    (lane, post order).
        std::vector<Post> posts;
        posts.swap(posted_);
        std::stable_sort(posts.begin(), posts.end(),
                         [](const Post &a, const Post &b) {
                             return a.from < b.from;
                         });
        for (const Post &s : posts) {
            out_.control.push_back({now_, s.id});
            for (const Child &c :
                 scriptFor(p_, Role::Posted, s.id, s.depth).control)
                push(0, now_ + c.delay, c.id, c.depth);
        }
        // 5. Control events up to the horizon, serially.
        for (auto it = first(true); it != queue_.end() && it->when <= horizon;
             it = first(true)) {
            const Ev ev = *it;
            queue_.erase(it);
            now_ = ev.when;
            controlEvent(ev);
        }
    }

    void
    laneEvent(const Ev &ev)
    {
        ++out_.executed;
        out_.lanes[ev.lane - 1].push_back({ev.when, ev.id});
        const Script s = scriptFor(p_, Role::Lane, ev.id, ev.depth);
        for (const Child &c : s.local)
            push(ev.lane, ev.when + c.delay, c.id, c.depth);
        for (const Child &c : s.posts)
            posted_.push_back({ev.lane, c.id, c.depth});
    }

    void
    controlEvent(const Ev &ev)
    {
        ++out_.executed;
        out_.control.push_back({ev.when, ev.id});
        const Script s = scriptFor(p_, Role::Control, ev.id, ev.depth);
        if (s.createLane &&
            laneNow_.size() < static_cast<std::size_t>(p_.maxLanes))
            addLane();
        for (const Child &c : s.seeds) {
            const std::uint32_t lane = pickLane(c.laneSel, laneNow_.size());
            push(lane, laneNow_[lane - 1] + c.delay, c.id, c.depth);
        }
        for (const Child &c : s.control)
            push(0, now_ + c.delay, c.id, c.depth);
    }

    /** A posted action, buffered until the barrier. */
    struct Post
    {
        std::uint32_t from;
        std::uint64_t id;
        int depth;
    };

    const Program &p_;
    std::set<Ev> queue_;
    std::vector<TimeMs> laneNow_;
    TimeMs now_ = 0.0;
    std::uint64_t seq_ = 0;
    std::vector<Post> posted_;
    Trace out_;
};

TEST(LaneEngineOracle, RandomProgramsMatchReferenceModel)
{
    // The pool really has the size ctest asked for.
    if (const char *env = std::getenv("COTERIE_THREADS")) {
        ASSERT_EQ(support::ThreadPool::instance().concurrency(),
                  std::atoi(env));
    }
    std::uint64_t events = 0;
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        const Program p = makeProgram(seed);
        SCOPED_TRACE(testing::Message() << "program seed " << seed);
        const Trace want = Model(p).run();
        const Trace got = EngineRun(p).run();
        ASSERT_EQ(got.lanes.size(), want.lanes.size());
        for (std::size_t l = 0; l < want.lanes.size(); ++l)
            ASSERT_EQ(got.lanes[l], want.lanes[l]) << "lane " << l + 1;
        ASSERT_EQ(got.control, want.control);
        ASSERT_EQ(got.executed, want.executed);
        ASSERT_EQ(got.end, want.end);
        events += want.executed;
    }
    // The programs must actually exercise the engine.
    EXPECT_GT(events, 20000u);
}

} // namespace
} // namespace coterie::sim
