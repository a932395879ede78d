/**
 * @file
 * Tests for the prefetcher: cover-set geometry (lookahead along the
 * movement heading plus lateral spread), cache-aware miss filtering,
 * and the anchored near-set signatures in cache keys (memoized per
 * anchor cell and cutoff, checked against direct evaluation).
 */

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/prefetcher.hh"
#include "world/gen/generators.hh"

namespace coterie::core {
namespace {

using geom::Vec2;
using world::GridPoint;
using world::gen::GameId;

struct PrefetcherFixture : testing::Test
{
    PrefetcherFixture()
        : world(world::gen::makeWorld(GameId::Viking, 42)),
          grid(world::gen::makeGrid(
              world::gen::gameInfo(GameId::Viking))),
          partition(partitionWorld(world, device::pixel2(), {})),
          regions(world.bounds(), partition.leaves)
    {
    }

    world::VirtualWorld world;
    world::GridMap grid;
    PartitionResult partition;
    RegionIndex regions;
};

TEST_F(PrefetcherFixture, CoverSetLiesAhead)
{
    Prefetcher prefetcher(world, grid, regions, {});
    const Vec2 pos{60.0, 60.0};
    const GridPoint at = grid.snap(pos);
    const double heading = 0.0; // +x
    const auto cover = prefetcher.coverSet(at, pos, heading);
    EXPECT_FALSE(cover.empty());
    for (const GridPoint g : cover) {
        const Vec2 p = grid.position(g);
        EXPECT_GE(p.x, pos.x - grid.spacing() * 1.5) << "behind player";
        EXPECT_FALSE(g == at);
    }
}

TEST_F(PrefetcherFixture, CoverSetSizeBoundedByParams)
{
    PrefetcherParams params;
    params.lookaheadSteps = 3;
    params.lateralSpread = 2;
    Prefetcher prefetcher(world, grid, regions, params);
    const Vec2 pos{60.0, 60.0};
    const auto cover = prefetcher.coverSet(grid.snap(pos), pos, 0.4);
    EXPECT_LE(cover.size(), 15u); // 3 * 5 max, minus dedup
    EXPECT_GE(cover.size(), 3u);
}

TEST_F(PrefetcherFixture, CoverSetUnique)
{
    Prefetcher prefetcher(world, grid, regions, {});
    const Vec2 pos{60.0, 60.0};
    const auto cover = prefetcher.coverSet(grid.snap(pos), pos, 1.1);
    for (std::size_t i = 0; i < cover.size(); ++i)
        for (std::size_t j = i + 1; j < cover.size(); ++j)
            EXPECT_FALSE(cover[i] == cover[j]);
}

TEST_F(PrefetcherFixture, MissesWithoutCacheReturnsFullCoverSet)
{
    Prefetcher prefetcher(world, grid, regions, {});
    const Vec2 pos{60.0, 60.0};
    const GridPoint at = grid.snap(pos);
    const auto cover = prefetcher.coverSet(at, pos, 0.0);
    const auto misses =
        prefetcher.misses(at, pos, 0.0, nullptr, {});
    EXPECT_EQ(misses.size(), cover.size());
}

TEST_F(PrefetcherFixture, MissesShrinkAsCacheFills)
{
    Prefetcher prefetcher(world, grid, regions, {});
    FrameCache cache;
    const Vec2 pos{60.0, 60.0};
    const GridPoint at = grid.snap(pos);
    std::vector<double> thresholds(partition.leaves.size(), 0.5);

    const auto first =
        prefetcher.misses(at, pos, 0.0, &cache, thresholds);
    for (const PrefetchTarget &t : first)
        cache.insert(prefetcher.keyFor(t.point), 1000);
    const auto second =
        prefetcher.misses(at, pos, 0.0, &cache, thresholds);
    EXPECT_TRUE(second.empty());
}

TEST_F(PrefetcherFixture, KeyCarriesRegionAndAnchoredSignature)
{
    Prefetcher prefetcher(world, grid, regions, {});
    const Vec2 pos{60.0, 60.0};
    const GridPoint g = grid.snap(pos);
    const FrameCache::Key key = prefetcher.keyFor(g);
    EXPECT_EQ(key.gridKey, grid.key(g));
    EXPECT_EQ(key.leafRegionId, regions.leafAt(pos).id);

    // Anchoring: a neighbouring grid point (3.1 cm away, same anchor
    // cell) carries the same signature.
    const GridPoint neighbour{g.ix + 1, g.iy};
    const FrameCache::Key key2 = prefetcher.keyFor(neighbour);
    EXPECT_EQ(key.nearSetSignature, key2.nearSetSignature);
}

TEST_F(PrefetcherFixture, SignatureChangesAcrossTheMap)
{
    Prefetcher prefetcher(world, grid, regions, {});
    const FrameCache::Key a = prefetcher.keyFor(grid.snap({60, 60}));
    const FrameCache::Key b = prefetcher.keyFor(grid.snap({120, 90}));
    EXPECT_NE(a.nearSetSignature, b.nearSetSignature);
}

/** keyFor() against a direct, unmemoized evaluation of the key. */
void
expectDirectKey(Prefetcher &prefetcher, const world::VirtualWorld &world,
                const world::GridMap &grid, const RegionIndex &regions,
                double cell, GridPoint g)
{
    const FrameCache::Key key = prefetcher.keyFor(g);
    const Vec2 pos = grid.position(g);
    const LeafRegion &leaf = regions.leafAt(pos);
    const Vec2 anchor{(std::floor(pos.x / cell) + 0.5) * cell,
                      (std::floor(pos.y / cell) + 0.5) * cell};
    EXPECT_EQ(key.gridKey, grid.key(g));
    EXPECT_EQ(key.position, pos);
    EXPECT_EQ(key.leafRegionId, leaf.id);
    EXPECT_EQ(key.nearSetSignature,
              world.nearSetSignature(anchor, leaf.cutoffRadius))
        << "at (" << pos.x << ", " << pos.y << ")";
}

TEST_F(PrefetcherFixture, KeyForMatchesUnmemoizedSignature)
{
    Prefetcher prefetcher(world, grid, regions, {});
    const double cell = PrefetcherParams{}.signatureCellM;
    const auto expectDirect = [&](GridPoint g) {
        expectDirectKey(prefetcher, world, grid, regions, cell, g);
    };

    // A route across the village in 0.4 m steps: over a hundred anchor
    // cells, so by pigeonhole many share one of the table's slots.
    std::vector<GridPoint> route;
    for (int i = 0; i <= 300; ++i)
        route.push_back(grid.snap({20.0 + 0.4 * i, 25.0 + 0.25 * i}));
    for (const GridPoint g : route)
        expectDirect(g);
    // A far jump, then the route revisited backwards, after its early
    // cells' slots were taken by later ones.
    expectDirect(grid.snap({5.0, 120.0}));
    for (auto it = route.rbegin(); it != route.rend(); ++it)
        expectDirect(*it);

    // Two cutoffs on one anchor cell: grid points either side of a leaf
    // edge that cuts through a cell, queried alternately.
    bool found = false;
    for (const LeafRegion &leaf : regions.leaves()) {
        const double x = leaf.rect.lo.x;
        const double y = leaf.rect.center().y;
        const GridPoint a = grid.snap({x - 2.0 * grid.spacing(), y});
        const GridPoint b = grid.snap({x + 2.0 * grid.spacing(), y});
        const Vec2 pa = grid.position(a);
        const Vec2 pb = grid.position(b);
        if (std::floor(pa.x / cell) != std::floor(pb.x / cell) ||
            regions.leafAt(pa).cutoffRadius ==
                regions.leafAt(pb).cutoffRadius)
            continue;
        found = true;
        for (int i = 0; i < 3; ++i) {
            expectDirect(a);
            expectDirect(b);
        }
        break;
    }
    EXPECT_TRUE(found) << "no anchor cell straddles two cutoffs";

    // Keys that differ in one input only, more of them than the table
    // has slots, so some share a slot. A column and a row of anchor
    // cells under one cutoff:
    const geom::Rect bounds = world.bounds();
    const RegionIndex uniform(bounds, {LeafRegion{0, bounds, 0, 20.0}});
    Prefetcher single(world, grid, uniform, {});
    for (double y = bounds.lo.y + 0.1; y < bounds.hi.y; y += cell)
        expectDirectKey(single, world, grid, uniform, cell,
                        grid.snap({bounds.center().x, y}));
    for (double x = bounds.lo.x + 0.1; x < bounds.hi.x; x += cell)
        expectDirectKey(single, world, grid, uniform, cell,
                        grid.snap({x, bounds.center().y}));
    // and one anchor cell (as wide as the world) under 256 cutoffs,
    // one per strip-shaped leaf.
    std::vector<LeafRegion> strips;
    const int kStrips = 256;
    for (int i = 0; i < kStrips; ++i) {
        const double x0 = bounds.lo.x + bounds.width() * i / kStrips;
        const double x1 = bounds.lo.x + bounds.width() * (i + 1) / kStrips;
        strips.push_back(LeafRegion{static_cast<std::uint32_t>(i),
                                    {{x0, bounds.lo.y}, {x1, bounds.hi.y}},
                                    0,
                                    4.0 + 0.125 * i});
    }
    const RegionIndex striped(bounds, strips);
    PrefetcherParams wide;
    wide.signatureCellM = bounds.width();
    Prefetcher widePrefetcher(world, grid, striped, wide);
    for (int pass = 0; pass < 2; ++pass)
        for (const LeafRegion &strip : strips)
            expectDirectKey(widePrefetcher, world, grid, striped,
                            wide.signatureCellM,
                            grid.snap(strip.rect.center()));
}

} // namespace
} // namespace coterie::core
