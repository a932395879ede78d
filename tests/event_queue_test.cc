/**
 * @file
 * Tests for the discrete-event simulation queues.
 *
 * The ordering contract of the serial `EventQueue` (temporal order,
 * same-timestamp FIFO stability, relative scheduling from inside
 * handlers, drain-to-empty vs run-until-horizon, reentrancy) is checked
 * first. The lane engine's own behaviour (lane clocks, barrier-deferred
 * posts and their drain order) is covered below; lane_oracle_test
 * checks random multi-lane programs against a reference model at
 * several pool sizes.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/lane_queue.hh"

namespace coterie::sim {
namespace {

template <typename Q> class EventQueueContract : public ::testing::Test
{
  protected:
    Q q;
};

using Queues = ::testing::Types<EventQueue>;
TYPED_TEST_SUITE(EventQueueContract, Queues);

TYPED_TEST(EventQueueContract, RunsEventsInTimeOrder)
{
    auto &q = this->q;
    std::vector<int> order;
    q.scheduleAt(5.0, [&] { order.push_back(2); });
    q.scheduleAt(1.0, [&] { order.push_back(1); });
    q.scheduleAt(9.0, [&] { order.push_back(3); });
    q.runToCompletion();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(q.now(), 9.0);
}

TYPED_TEST(EventQueueContract, SameTimeIsFifo)
{
    auto &q = this->q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.scheduleAt(3.0, [&, i] { order.push_back(i); });
    q.runToCompletion();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TYPED_TEST(EventQueueContract, ScheduleInFromInsideAHandlerIsRelative)
{
    auto &q = this->q;
    double fired_at = -1.0;
    q.scheduleAt(10.0, [&] {
        q.scheduleIn(5.0, [&] { fired_at = q.now(); });
    });
    q.runToCompletion();
    EXPECT_DOUBLE_EQ(fired_at, 15.0);
}

TYPED_TEST(EventQueueContract, RunUntilStopsAtHorizon)
{
    auto &q = this->q;
    int fired = 0;
    q.scheduleAt(1.0, [&] { ++fired; });
    q.scheduleAt(100.0, [&] { ++fired; });
    q.runUntil(50.0);
    EXPECT_EQ(fired, 1);
    EXPECT_DOUBLE_EQ(q.now(), 50.0);
    EXPECT_EQ(q.pending(), 1u);
    q.runUntil(200.0);
    EXPECT_EQ(fired, 2);
}

TYPED_TEST(EventQueueContract, EventsMayScheduleMoreEvents)
{
    auto &q = this->q;
    int count = 0;
    std::function<void()> chain = [&] {
        if (++count < 100)
            q.scheduleIn(1.0, chain);
    };
    q.scheduleIn(1.0, chain);
    q.runToCompletion();
    EXPECT_EQ(count, 100);
    EXPECT_DOUBLE_EQ(q.now(), 100.0);
    EXPECT_EQ(q.executedEvents(), 100u);
}

TYPED_TEST(EventQueueContract, ResetClearsEverything)
{
    auto &q = this->q;
    q.scheduleAt(5.0, [] {});
    q.runUntil(2.0);
    q.reset();
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_DOUBLE_EQ(q.now(), 0.0);
    EXPECT_FALSE(q.step());
}

TYPED_TEST(EventQueueContract, StepReturnsFalseWhenEmpty)
{
    auto &q = this->q;
    EXPECT_FALSE(q.step());
    q.scheduleAt(1.0, [] {});
    EXPECT_TRUE(q.step());
    EXPECT_FALSE(q.step());
}

TEST(EventQueueDeath, PastSchedulingPanics)
{
    EventQueue q;
    q.scheduleAt(10.0, [] {});
    q.runToCompletion();
    EXPECT_DEATH(q.scheduleAt(5.0, [] {}), "past");
}

// --- Lane-engine specifics ------------------------------------------

TEST(LaneQueue, LaneClockStartsAtCreationTime)
{
    ParallelEventQueue q;
    q.scheduleAt(7.0, [&] {
        const std::uint32_t id = q.createLane();
        EXPECT_DOUBLE_EQ(q.lane(id).now(), 7.0);
        // Relative scheduling in the lane is lane-relative.
        q.lane(id).scheduleIn(
            3.0, [&, id] { EXPECT_DOUBLE_EQ(q.lane(id).now(), 10.0); });
    });
    q.runToCompletion();
    EXPECT_EQ(q.executedEvents(), 2u);
}

TEST(LaneQueue, LaneEventsRouteThroughTheSchedulingLane)
{
    ParallelEventQueue q;
    const std::uint32_t a = q.createLane();
    const std::uint32_t b = q.createLane();
    std::vector<std::string> log; // mutated only via postControl
    for (const std::uint32_t id : {a, b}) {
        const std::string tag = id == a ? "a" : "b";
        q.lane(id).scheduleIn(1.0, [&, id, tag] {
            q.lane(id).scheduleIn(1.0, [&, id, tag] {
                q.postControl(id, [&, tag] { log.push_back(tag + "2"); });
            });
            q.postControl(id, [&, tag] { log.push_back(tag + "1"); });
        });
    }
    q.runToCompletion();
    EXPECT_EQ(q.lane(a).pending(), 0u);
    EXPECT_EQ(q.lane(b).pending(), 0u);
    EXPECT_EQ(q.lane(a).executedEvents(), 2u);
    EXPECT_EQ(q.lane(b).executedEvents(), 2u);
    // With no control events both lanes drain fully in one round; at
    // the barrier posts drain in (lane id, posted time, sequence) order
    // — all of lane a's before any of lane b's.
    EXPECT_EQ(log,
              (std::vector<std::string>{"a1", "a2", "b1", "b2"}));
}

TEST(LaneQueue, PostedActionsDrainBeforeControlEventsAtTheBarrier)
{
    ParallelEventQueue q;
    const std::uint32_t id = q.createLane();
    std::vector<std::string> order;
    q.scheduleAt(10.0, [&] { order.push_back("control@10"); });
    q.lane(id).scheduleAt(4.0, [&] {
        q.postControl(id, [&] { order.push_back("posted@4"); });
    });
    q.runToCompletion();
    EXPECT_EQ(order,
              (std::vector<std::string>{"posted@4", "control@10"}));
    // The control clock at the barrier had already advanced to the
    // round horizon, and ends at the last control event.
    EXPECT_DOUBLE_EQ(q.now(), 10.0);
}

} // namespace
} // namespace coterie::sim
