/**
 * @file
 * Tests for the virtual-world grid discretisation, including the
 * Table 3 grid-point counts of all nine study games.
 */

#include <gtest/gtest.h>

#include <ostream>

#include "world/gen/generators.hh"
#include "world/grid.hh"

namespace coterie::world {
namespace {

using geom::Rect;
using geom::Vec2;

TEST(GridMap, BasicDimensions)
{
    GridMap grid(Rect{{0, 0}, {10, 5}}, 1.0);
    EXPECT_EQ(grid.cols(), 10);
    EXPECT_EQ(grid.rows(), 5);
    EXPECT_EQ(grid.pointCount(), 50u);
}

TEST(GridMap, SnapRoundTrip)
{
    GridMap grid(Rect{{0, 0}, {100, 100}}, 0.5);
    const GridPoint g = grid.snap({10.26, 20.74});
    const Vec2 p = grid.position(g);
    EXPECT_NEAR(p.x, 10.5, 1e-9);
    EXPECT_NEAR(p.y, 20.5, 1e-9);
    // Snapping a grid-point position returns the same point.
    EXPECT_EQ(grid.snap(p), g);
}

TEST(GridMap, SnapClampsOutOfBounds)
{
    GridMap grid(Rect{{0, 0}, {10, 10}}, 1.0);
    const GridPoint g = grid.snap({-5.0, 50.0});
    EXPECT_EQ(g.ix, 0);
    EXPECT_EQ(g.iy, grid.rows() - 1);
}

TEST(GridMap, IndexIsDenseRowMajor)
{
    GridMap grid(Rect{{0, 0}, {10, 10}}, 1.0);
    EXPECT_EQ(grid.index({0, 0}), 0u);
    EXPECT_EQ(grid.index({1, 0}), 1u);
    EXPECT_EQ(grid.index({0, 1}),
              static_cast<std::uint64_t>(grid.cols()));
    EXPECT_LT(grid.index({grid.cols() - 1, grid.rows() - 1}),
              grid.pointCount());
}

TEST(GridMap, DistanceInMeters)
{
    GridMap grid(Rect{{0, 0}, {100, 100}}, 0.25);
    EXPECT_DOUBLE_EQ(grid.distance({0, 0}, {4, 0}), 1.0);
    EXPECT_DOUBLE_EQ(grid.distance({0, 0}, {3, 4}), 0.25 * 5.0);
}

/** Table 3: grid point counts in millions, per game. */
struct GridCountCase
{
    world::gen::GameId game;
    double paperMillions;
};

/** Prints the game and the paper's count: gtest's default prints the
 *  raw bytes, padding included, into the ctest name. */
void
PrintTo(const GridCountCase &c, std::ostream *os)
{
    *os << world::gen::gameInfo(c.game).name << " paper "
        << c.paperMillions << "M";
}

class Table3GridCounts : public testing::TestWithParam<GridCountCase>
{
};

TEST_P(Table3GridCounts, MatchesPaperWithin5Percent)
{
    const auto &info = world::gen::gameInfo(GetParam().game);
    const GridMap grid = world::gen::makeGrid(info);
    const double millions = static_cast<double>(grid.pointCount()) / 1e6;
    EXPECT_NEAR(millions, GetParam().paperMillions,
                GetParam().paperMillions * 0.05)
        << info.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllGames, Table3GridCounts,
    testing::Values(
        GridCountCase{world::gen::GameId::Viking, 24.90},
        GridCountCase{world::gen::GameId::CTS, 268.40},
        GridCountCase{world::gen::GameId::Racing, 7.70},
        GridCountCase{world::gen::GameId::DS, 3.00},
        GridCountCase{world::gen::GameId::FPS, 5.09},
        GridCountCase{world::gen::GameId::Soccer, 14.90},
        GridCountCase{world::gen::GameId::Pool, 0.13},
        GridCountCase{world::gen::GameId::Bowling, 1.43},
        GridCountCase{world::gen::GameId::Corridor, 1.54}),
    [](const testing::TestParamInfo<GridCountCase> &info) {
        return world::gen::gameInfo(info.param.game).name;
    });

} // namespace
} // namespace coterie::world
