/**
 * @file
 * Panorama render cache: the batch entry point's hit/miss accounting,
 * in-batch de-dup, owner-charged LRU eviction under a byte budget, and
 * the FrameStore catalogue that feeds it (cell quantization, and the
 * frame a lookup renders is the exact frame the renderer would have
 * produced for the cell representative).
 *
 * Batch renders fan out on the shared pool; ctest runs this binary at
 * COTERIE_THREADS=1 and 4.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <vector>

#include "core/pano_cache.hh"
#include "core/server.hh"
#include "world/gen/generators.hh"

namespace coterie::core {
namespace {

using geom::Vec2;
using image::Image;
using world::gen::GameId;

PanoKey
testKey(std::int64_t qx, std::int64_t qy)
{
    PanoKey key;
    key.worldTag = 0x7e57;
    key.qx = qx;
    key.qy = qy;
    key.width = 4;
    key.height = 4;
    return key;
}

Image
solidImage(int w, int h, std::uint8_t v)
{
    Image img(w, h);
    for (auto &px : img.pixels())
        px = {v, v, v};
    return img;
}

/**
 * Serve @p requests as one batch of 4x4 frames (48 bytes each) and
 * return how often the render callback ran for each request index.
 */
std::vector<int>
serve(PanoramaRenderCache &cache, const std::vector<PanoRequest> &requests)
{
    // One slot per request index: the pool never renders an index
    // twice, so the slots need no synchronization.
    std::vector<int> renders(requests.size(), 0);
    cache.serveBatch(requests, [&](std::size_t i) {
        ++renders[i];
        return solidImage(4, 4, 9);
    });
    return renders;
}

/** Total renders a serve() call performed. */
int
total(const std::vector<int> &renders)
{
    int sum = 0;
    for (const int n : renders)
        sum += n;
    return sum;
}

TEST(PanoCache, HitMissAndStats)
{
    // A repeat of a key within one batch is a hit and never renders
    // twice; only the first request of each missing key renders.
    PanoramaRenderCache cache(1 << 20);
    const PanoKey a = testKey(0, 0);
    const PanoKey b = testKey(1, 0);
    EXPECT_EQ(serve(cache, {{a}, {b}, {a}, {a}}),
              (std::vector<int>{1, 1, 0, 0}));

    PanoCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 2u);
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.inflightJoins, 0u);
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_EQ(stats.bytes, 2u * 4 * 4 * 3);
    EXPECT_EQ(stats.evictions, 0u);

    // Both are resident now: a later batch is all hits.
    EXPECT_EQ(total(serve(cache, {{b}, {a}})), 0);
    stats = cache.stats();
    EXPECT_EQ(stats.hits, 4u);
    EXPECT_EQ(stats.misses, 2u);
}

TEST(PanoCache, LruEvictionUnderByteBudget)
{
    // Budget fits exactly two 4x4 frames. A resident hit refreshes the
    // entry's LRU stamp before the same batch's publications evict, so
    // C pushes out B, not the older but just-touched A.
    PanoramaRenderCache cache(96);
    const PanoKey a = testKey(0, 0);
    const PanoKey b = testKey(1, 0);
    const PanoKey c = testKey(2, 0);
    EXPECT_EQ(total(serve(cache, {{a}, {b}})), 2);
    EXPECT_EQ(serve(cache, {{a}, {c}}), (std::vector<int>{0, 1}));

    PanoCacheStats stats = cache.stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.evictedBytes, 48u);
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_LE(stats.bytes, 96u);

    EXPECT_EQ(total(serve(cache, {{a}, {c}})), 0); // still resident
    EXPECT_EQ(total(serve(cache, {{b}})), 1);       // was evicted
}

TEST(PanoCache, EarlierPublicationNeverEvictsLaterMiss)
{
    // Budget of two frames, one batch of three misses. Publication in
    // request order evicts A when C lands; B and C (the batch's later
    // misses) stay, and each key rendered exactly once.
    PanoramaRenderCache cache(96);
    const PanoKey a = testKey(0, 0);
    const PanoKey b = testKey(1, 0);
    const PanoKey c = testKey(2, 0);
    EXPECT_EQ(serve(cache, {{a}, {b}, {c}}), (std::vector<int>{1, 1, 1}));

    const PanoCacheStats stats = cache.stats();
    EXPECT_EQ(stats.misses, 3u);
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_EQ(stats.bytes, 96u);

    EXPECT_EQ(total(serve(cache, {{b}, {c}})), 0);
    EXPECT_EQ(total(serve(cache, {{a}})), 1);
}

TEST(PanoCache, WorldTagsNeverCollide)
{
    // Identical quantized coordinates and dimensions under different
    // world tags are different panoramas — a fleet sharing one cache
    // across worlds must never serve one world's sky to another.
    PanoramaRenderCache cache(1 << 20);
    const PanoKey viking = testKey(3, 3);
    PanoKey fps = testKey(3, 3);
    fps.worldTag = 0x0f95;
    EXPECT_EQ(total(serve(cache, {{viking}, {fps}})), 2);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(PanoCache, CrossOwnerHitsLeaveChargeWithRenderer)
{
    // Publication charges the owner of the request that rendered;
    // sibling sessions hit each other's entries for free, in the same
    // batch or a later one.
    PanoramaRenderCache cache(1 << 20);
    const PanoKey a = testKey(0, 0);
    serve(cache, {{a, /*owner=*/1}, {a, /*owner=*/2}});
    serve(cache, {{a, /*owner=*/2}});
    EXPECT_EQ(cache.stats().hits, 2u);
    EXPECT_EQ(cache.ownerBytes(1), 48u);
    EXPECT_EQ(cache.ownerBytes(2), 0u);
}

TEST(PanoCache, EvictionChargesHeaviestOwnerFirst)
{
    // Budget fits two 4x4 frames. Session 1 renders A and B; session 2
    // hits A (refreshing its LRU stamp, not its charge), then renders
    // C, which forces an eviction. The victim comes from the
    // heaviest-charged owner (session 1), LRU within it (B), not from
    // the newcomer — one hot session cannot starve a sibling.
    PanoramaRenderCache cache(96);
    const PanoKey a = testKey(0, 0);
    const PanoKey b = testKey(1, 0);
    const PanoKey c = testKey(2, 0);
    EXPECT_EQ(total(serve(cache, {{a, 1}, {b, 1}})), 2);
    EXPECT_EQ(total(serve(cache, {{a, 2}, {c, 2}})), 1);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.ownerBytes(1), 48u);
    EXPECT_EQ(cache.ownerBytes(2), 48u);

    EXPECT_EQ(total(serve(cache, {{a, 1}, {c, 2}})), 0); // resident
    EXPECT_EQ(total(serve(cache, {{b, 1}})), 1);         // was evicted
}

/** FrameStore integration over a real world + partition. */
struct PanoCacheFixture : testing::Test
{
    PanoCacheFixture()
        : world(world::gen::makeWorld(GameId::Viking, 42)),
          grid(world::gen::makeGrid(
              world::gen::gameInfo(GameId::Viking))),
          partition(partitionWorld(world, device::pixel2(), {})),
          regions(world.bounds(), partition.leaves),
          frames(world, grid, regions)
    {
    }

    /** One batch of far-BE lookups rendered through @p cache; each
     *  request is charged to the matching entry of @p owners (0 when
     *  absent). */
    static void
    serveLookups(PanoramaRenderCache &cache,
                 const std::vector<const FrameStore *> &stores,
                 const std::vector<FrameStore::FarBeLookup> &lookups,
                 const std::vector<std::uint32_t> &owners = {})
    {
        std::vector<PanoRequest> requests;
        for (std::size_t i = 0; i < lookups.size(); ++i)
            requests.push_back(
                {lookups[i].key, i < owners.size() ? owners[i] : 0});
        cache.serveBatch(requests, [&](std::size_t i) {
            return stores[i]->renderFarBe(lookups[i], /*threads=*/1);
        });
    }

    world::VirtualWorld world;
    world::GridMap grid;
    PartitionResult partition;
    RegionIndex regions;
    FrameStore frames;
};

TEST_F(PanoCacheFixture, SameCellSharesOneRender)
{
    const double thresh = 8.0;
    const double pitch = std::max(thresh, grid.spacing());
    const geom::Rect &b = world.bounds();
    // Two distinct positions inside the same quantization cell, and a
    // third in the neighboring cell.
    const Vec2 p1{b.lo.x + 2.25 * pitch, b.lo.y + 2.25 * pitch};
    const Vec2 p2{b.lo.x + 2.75 * pitch, b.lo.y + 2.75 * pitch};
    const Vec2 p3{b.lo.x + 3.25 * pitch, b.lo.y + 2.25 * pitch};
    const auto l1 = frames.farBeLookup(p1, thresh, 48, 24);
    const auto l2 = frames.farBeLookup(p2, thresh, 48, 24);
    const auto l3 = frames.farBeLookup(p3, thresh, 48, 24);
    EXPECT_EQ(l1.key, l2.key);
    EXPECT_EQ(l1.rep, l2.rep);
    EXPECT_NE(l1.key, l3.key);

    PanoramaRenderCache cache(64ull << 20);
    serveLookups(cache, {&frames, &frames, &frames}, {l1, l2, l3});
    const PanoCacheStats stats = cache.stats();
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.hits, 1u);
}

TEST_F(PanoCacheFixture, CachedPanoramaMatchesDirectRender)
{
    // The frame the cache publishes for a lookup is
    // renderFarBe(farBeLookup(pos)); it must be exactly the render of
    // the cell representative.
    const double thresh = 8.0;
    const double pitch = std::max(thresh, grid.spacing());
    const geom::Rect &b = world.bounds();
    const Vec2 pos{b.lo.x + 5.6 * pitch, b.lo.y + 4.4 * pitch};
    const Image cached =
        frames.renderFarBe(frames.farBeLookup(pos, thresh, 48, 24));

    const auto qx = static_cast<std::int64_t>(
        std::floor((pos.x - b.lo.x) / pitch));
    const auto qy = static_cast<std::int64_t>(
        std::floor((pos.y - b.lo.y) / pitch));
    const Vec2 rep{
        std::clamp(b.lo.x + (qx + 0.5) * pitch, b.lo.x, b.hi.x),
        std::clamp(b.lo.y + (qy + 0.5) * pitch, b.lo.y, b.hi.y)};
    const render::Renderer renderer(world);
    render::RenderOptions opts;
    opts.layer = render::DepthLayer::farBe(regions.cutoffAt(rep));
    const Image direct =
        renderer.renderPanorama(world.eyePosition(rep), 48, 24, opts);
    EXPECT_TRUE(cached.pixels() == direct.pixels());
}

TEST_F(PanoCacheFixture, EightClientsRenderOncePerDistinctCell)
{
    // Four position pairs, each pair within one quantization cell:
    // eight clients in one batch cost exactly four renders.
    const double thresh = 8.0;
    const double pitch = std::max(thresh, grid.spacing());
    const geom::Rect &b = world.bounds();
    std::vector<FrameStore::FarBeLookup> lookups;
    for (int pair = 0; pair < 4; ++pair) {
        const double cx = b.lo.x + (2.0 * pair + 2.25) * pitch;
        const double cy = b.lo.y + 2.25 * pitch;
        lookups.push_back(frames.farBeLookup({cx, cy}, thresh, 32, 16));
        lookups.push_back(frames.farBeLookup(
            {cx + 0.4 * pitch, cy + 0.4 * pitch}, thresh, 32, 16));
    }
    PanoramaRenderCache cache(64ull << 20);
    serveLookups(cache,
                 std::vector<const FrameStore *>(lookups.size(), &frames),
                 lookups);
    const PanoCacheStats stats = cache.stats();
    EXPECT_EQ(stats.misses, 4u);
    EXPECT_EQ(stats.hits, 4u);
}

TEST_F(PanoCacheFixture, SerialAndPooledRendersAreBitIdentical)
{
    // The frame must not depend on how the render fans out (the
    // determinism invariant the cache relies on to share frames
    // across clients).
    const auto lookup =
        frames.farBeLookup(world.bounds().center(), 8.0, 64, 32);
    const Image pooled = frames.renderFarBe(lookup, 0);
    const Image single = frames.renderFarBe(lookup, 1);
    EXPECT_TRUE(pooled.pixels() == single.pixels());
}

TEST_F(PanoCacheFixture, SameWorldStoresShareOneCacheAcrossSessions)
{
    // The fleet deployment shape: two sessions (FrameStores) over the
    // same world feeding one cache. Session 2's request for the cell
    // session 1 asked for is a hit, and the residency charge stays
    // with session 1.
    FrameStore store1(world, grid, regions);
    FrameStore store2(world, grid, regions);
    ASSERT_EQ(store1.worldTag(), store2.worldTag());

    const Vec2 pos = world.bounds().center();
    const auto first = store1.farBeLookup(pos, 8.0, 48, 24);
    const auto second = store2.farBeLookup(pos, 8.0, 48, 24);
    EXPECT_EQ(first.key, second.key);

    PanoramaRenderCache cache(64ull << 20);
    serveLookups(cache, {&store1, &store2}, {first, second}, {1, 2});
    const PanoCacheStats stats = cache.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(cache.ownerBytes(1), stats.bytes);
    EXPECT_EQ(cache.ownerBytes(2), 0u);
}

TEST_F(PanoCacheFixture, DifferentWorldsNeverShareRenders)
{
    // Two sessions over *different* worlds on one cache: the world tag
    // in every key keeps their panoramas apart even at identical
    // positions and resolutions.
    world::VirtualWorld other = world::gen::makeWorld(GameId::FPS, 42);
    world::GridMap otherGrid =
        world::gen::makeGrid(world::gen::gameInfo(GameId::FPS));
    PartitionResult otherPartition =
        partitionWorld(other, device::pixel2(), {});
    RegionIndex otherRegions(other.bounds(), otherPartition.leaves);
    FrameStore fps(other, otherGrid, otherRegions);
    ASSERT_NE(frames.worldTag(), fps.worldTag());

    const Vec2 pos = world.bounds().center();
    PanoramaRenderCache cache(64ull << 20);
    serveLookups(cache, {&frames, &fps},
                 {frames.farBeLookup(pos, 8.0, 48, 24),
                  fps.farBeLookup(pos, 8.0, 48, 24)},
                 {1, 2});
    const PanoCacheStats stats = cache.stats();
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.entries, 2u);
}

} // namespace
} // namespace coterie::core
