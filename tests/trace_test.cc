/**
 * @file
 * Tests for trace containers: grid-path extraction, path length and the
 * multiplayer separation metric.
 */

#include <gtest/gtest.h>

#include "trace/trace.hh"

namespace coterie::trace {
namespace {

using geom::Rect;
using geom::Vec2;

PlayerTrace
lineTrace(int id, Vec2 from, Vec2 step, int n)
{
    PlayerTrace tr;
    tr.playerId = id;
    for (int i = 0; i < n; ++i) {
        TracePoint tp;
        tp.timeMs = i * 16.67;
        tp.position = from + step * static_cast<double>(i);
        tp.yaw = step.angle();
        tr.points.push_back(tp);
    }
    return tr;
}

TEST(PlayerTrace, PathLength)
{
    const PlayerTrace tr = lineTrace(0, {0, 0}, {1, 0}, 11);
    EXPECT_NEAR(tr.pathLength(), 10.0, 1e-9);
    EXPECT_DOUBLE_EQ(PlayerTrace{}.pathLength(), 0.0);
}

TEST(PlayerTrace, GridPathRemovesConsecutiveDuplicates)
{
    const world::GridMap grid(Rect{{0, 0}, {100, 100}}, 1.0);
    // Steps of 0.3 m on a 1 m grid: several ticks per grid point.
    const PlayerTrace tr = lineTrace(0, {10, 10}, {0.3, 0.0}, 20);
    const auto path = tr.gridPath(grid);
    EXPECT_LT(path.size(), tr.points.size());
    for (std::size_t i = 1; i < path.size(); ++i)
        EXPECT_FALSE(path[i] == path[i - 1]);
}

TEST(SessionTrace, DurationIsMaxOverPlayers)
{
    SessionTrace session;
    session.players.push_back(lineTrace(0, {0, 0}, {1, 0}, 10));
    session.players.push_back(lineTrace(1, {0, 0}, {1, 0}, 20));
    EXPECT_NEAR(session.durationMs(), 19 * 16.67, 1e-6);
}

TEST(MeanPlayerSeparation, ParallelLinesKeepDistance)
{
    SessionTrace session;
    session.players.push_back(lineTrace(0, {0, 0}, {1, 0}, 50));
    session.players.push_back(lineTrace(1, {0, 3}, {1, 0}, 50));
    EXPECT_NEAR(meanPlayerSeparation(session), 3.0, 1e-9);
}

TEST(MeanPlayerSeparation, SinglePlayerIsZero)
{
    SessionTrace session;
    session.players.push_back(lineTrace(0, {0, 0}, {1, 0}, 10));
    EXPECT_DOUBLE_EQ(meanPlayerSeparation(session), 0.0);
}

} // namespace
} // namespace coterie::trace
