/**
 * @file
 * Tests for the discrete-event simulation queues.
 *
 * The ordering contract (temporal order, same-timestamp FIFO
 * stability, relative scheduling from inside handlers, drain-to-empty
 * vs run-until-horizon, reentrancy) is typed-parameterized over the
 * serial `EventQueue` and the lane-based `ParallelEventQueue` — the
 * parallel merge must preserve exactly what the serial queue promises.
 * Lane-specific behaviour (lane clocks, barrier-deferred posts,
 * deterministic merge order, the conservative lookahead contract) is
 * covered separately below; lane_oracle_test checks random multi-lane
 * programs against a reference model at several pool sizes.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/lane_queue.hh"

namespace coterie::sim {
namespace {

/**
 * The ordering-contract suite runs against both engines. The parallel
 * engine with no lanes created degenerates to a single control heap,
 * which must be indistinguishable from the serial queue.
 */
template <typename Q> class EventQueueContract : public ::testing::Test
{
  protected:
    Q q;
};

using Engines = ::testing::Types<EventQueue, ParallelEventQueue>;
TYPED_TEST_SUITE(EventQueueContract, Engines);

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
        const std::uint32_t lane = q.createLane();
        EXPECT_DOUBLE_EQ(q.laneNow(lane), 7.0);
        q.runInLane(lane, [&] {
            EXPECT_EQ(q.currentLane(), lane);
            EXPECT_DOUBLE_EQ(q.now(), 7.0);
            // Relative scheduling inside the lane is lane-relative.
            q.scheduleIn(3.0, [&] { EXPECT_DOUBLE_EQ(q.now(), 10.0); });
        });
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
    for (const auto &[lane, tag] :
         {std::pair{a, "a"}, std::pair{b, "b"}}) {
        q.runInLane(lane, [&, tag = std::string(tag)] {
            q.scheduleIn(1.0, [&, tag] {
                q.scheduleIn(1.0, [&, tag] {
                    q.postControl([&, tag] { log.push_back(tag + "2"); });
                });
                q.postControl([&, tag] { log.push_back(tag + "1"); });
            });
        });
    }
    q.runToCompletion();
    EXPECT_EQ(q.lanePending(a), 0u);
    EXPECT_EQ(q.lanePending(b), 0u);
    // With no control events and no cross-lane traffic both lanes
    // drain fully in one round; at the barrier posts drain in (lane
    // id, posted time, sequence) order — all of lane a's before any of
    // lane b's.
    EXPECT_EQ(log,
              (std::vector<std::string>{"a1", "a2", "b1", "b2"}));
}

TEST(LaneQueue, PostedActionsDrainBeforeControlEventsAtTheBarrier)
{
    ParallelEventQueue q;
    const std::uint32_t lane = q.createLane();
    std::vector<std::string> order;
    q.scheduleAt(10.0, [&] { order.push_back("control@10"); });
    q.runInLane(lane, [&] {
        q.scheduleAt(4.0, [&] {
            q.postControl([&] { order.push_back("posted@4"); });
        });
    });
    q.runToCompletion();
    EXPECT_EQ(order,
              (std::vector<std::string>{"posted@4", "control@10"}));
    // The control clock at the barrier had already advanced to the
    // round horizon, and ends at the last control event.
    EXPECT_DOUBLE_EQ(q.now(), 10.0);
}

TEST(LaneQueue, MergeOrderIsLaneThenTimestampThenSequence)
{
    // Two sender lanes cross-schedule into a third; deliveries must
    // interleave by timestamp with lane id breaking ties, regardless
    // of which lane's events happened to run first.
    ParallelEventQueue q;
    q.noteLookaheadFloor(5.0);
    q.enableCrossLane();
    const std::uint32_t a = q.createLane();
    const std::uint32_t b = q.createLane();
    const std::uint32_t sink = q.createLane();
    std::vector<std::string> deliveries;
    auto deliver = [&](std::string tag) {
        return [&, tag = std::move(tag)] {
            q.postControl(
                [&, tag] { deliveries.push_back(tag); });
        };
    };
    q.runInLane(a, [&] {
        q.scheduleAt(1.0, [&, deliver] {
            q.scheduleCross(sink, 8.0, deliver("a@8"));
            q.scheduleCross(sink, 6.0, deliver("a@6"));
        });
    });
    q.runInLane(b, [&] {
        q.scheduleAt(1.0, [&, deliver] {
            q.scheduleCross(sink, 6.0, deliver("b@6"));
        });
    });
    q.runToCompletion();
    EXPECT_EQ(deliveries,
              (std::vector<std::string>{"a@6", "b@6", "a@8"}));
}

TEST(LaneQueue, CrossLaneRespectsTheLookaheadCap)
{
    // With cross-lane traffic enabled no lane may advance more than
    // the lookahead floor past the slowest lane in one round, so a
    // send issued at t can still land at t + lookahead.
    ParallelEventQueue q;
    q.noteLookaheadFloor(2.0);
    q.enableCrossLane();
    const std::uint32_t fast = q.createLane();
    const std::uint32_t slow = q.createLane();
    double deliveredAt = -1.0;
    q.runInLane(slow, [&] {
        q.scheduleAt(9.0, [&] {
            q.scheduleCross(fast, 11.0,
                            [&] { deliveredAt = q.now(); });
        });
    });
    q.runInLane(fast, [&] {
        // Busy events well past the sender's send time.
        for (double t = 1.0; t <= 20.0; t += 1.0)
            q.scheduleAt(t, [] {});
    });
    q.runToCompletion();
    EXPECT_DOUBLE_EQ(deliveredAt, 11.0);
}

TEST(LaneQueueDeath, CrossLaneBelowLookaheadPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            ParallelEventQueue q;
            q.noteLookaheadFloor(5.0);
            q.enableCrossLane();
            const std::uint32_t a = q.createLane();
            const std::uint32_t b = q.createLane();
            (void)b;
            q.runInLane(a, [&] {
                q.scheduleAt(1.0, [&] {
                    q.scheduleCross(b, 2.0, [] {}); // floor is 5
                });
            });
            q.runToCompletion();
        },
        "lookahead");
}

TEST(LaneQueueDeath, CrossLaneWithoutEnablementPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            ParallelEventQueue q;
            const std::uint32_t a = q.createLane();
            q.runInLane(a, [&] {
                q.scheduleAt(1.0,
                             [&] { q.scheduleCross(a, 100.0, [] {}); });
            });
            q.runToCompletion();
        },
        "enableCrossLane");
}

} // namespace
} // namespace coterie::sim
