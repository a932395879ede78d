/**
 * @file
 * Tests for the frame cache: the three lookup criteria, closest-wins
 * tie breaking, exact-only mode (cache Versions 1/2), replacement
 * policies (LRU vs FLF vs Random), capacity enforcement, and stats;
 * and lookups under eviction against a brute-force scan.
 */

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/frame_cache.hh"
#include "support/rng.hh"

namespace coterie::core {
namespace {

FrameCache::Key
keyAt(double x, double y, std::uint32_t region = 1,
      std::uint64_t sig = 0xAA)
{
    FrameCache::Key key;
    key.gridKey =
        static_cast<std::uint64_t>(x * 1000) * 100000 +
        static_cast<std::uint64_t>(y * 1000);
    key.position = {x, y};
    key.leafRegionId = region;
    key.nearSetSignature = sig;
    return key;
}

TEST(FrameCache, ExactHitAlwaysMatches)
{
    FrameCache cache;
    const auto key = keyAt(5.0, 5.0);
    cache.insert(key, 1000);
    const auto hit = cache.lookup(key, 0.0);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, key.gridKey);
    EXPECT_EQ(cache.stats().exactHits, 1u);
}

TEST(FrameCache, SimilarHitWithinThreshold)
{
    FrameCache cache;
    cache.insert(keyAt(5.0, 5.0), 1000);
    EXPECT_TRUE(cache.lookup(keyAt(5.3, 5.0), 0.5).has_value());
    EXPECT_FALSE(cache.lookup(keyAt(6.0, 5.0), 0.5).has_value());
}

TEST(FrameCache, Criterion2DifferentRegionRejected)
{
    FrameCache cache;
    cache.insert(keyAt(5.0, 5.0, /*region=*/1), 1000);
    EXPECT_FALSE(
        cache.lookup(keyAt(5.1, 5.0, /*region=*/2), 1.0).has_value());
    EXPECT_GT(cache.stats().rejectedRegion, 0u);
}

TEST(FrameCache, Criterion3DifferentNearSetRejected)
{
    FrameCache cache;
    cache.insert(keyAt(5.0, 5.0, 1, /*sig=*/0xAA), 1000);
    EXPECT_FALSE(
        cache.lookup(keyAt(5.1, 5.0, 1, /*sig=*/0xBB), 1.0).has_value());
    EXPECT_GT(cache.stats().rejectedSignature, 0u);
}

TEST(FrameCache, ClosestCandidateWins)
{
    FrameCache cache;
    const auto far_key = keyAt(5.0, 5.0);
    const auto near_key = keyAt(5.4, 5.0);
    cache.insert(far_key, 1000);
    cache.insert(near_key, 1000);
    const auto hit = cache.lookup(keyAt(5.5, 5.0), 1.0);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, near_key.gridKey);
}

TEST(FrameCache, ExactOnlyModeIgnoresSimilarFrames)
{
    FrameCacheParams params;
    params.mode = MatchMode::ExactOnly;
    FrameCache cache(params);
    cache.insert(keyAt(5.0, 5.0), 1000);
    EXPECT_FALSE(cache.lookup(keyAt(5.01, 5.0), 10.0).has_value());
    EXPECT_TRUE(cache.lookup(keyAt(5.0, 5.0), 0.0).has_value());
}

TEST(FrameCache, LargeThresholdWidensBucketScan)
{
    FrameCacheParams params;
    params.bucketEdge = 1.0;
    FrameCache cache(params);
    cache.insert(keyAt(0.0, 0.0), 1000);
    // Candidate 5 buckets away must still be found with a threshold
    // larger than the bucket edge.
    EXPECT_TRUE(cache.lookup(keyAt(5.0, 0.0), 6.0).has_value());
}

TEST(FrameCache, CapacityEnforced)
{
    FrameCacheParams params;
    params.capacityBytes = 10000;
    FrameCache cache(params);
    for (int i = 0; i < 20; ++i)
        cache.insert(keyAt(i, 0.0), 1000);
    EXPECT_LE(cache.bytesUsed(), params.capacityBytes);
    EXPECT_LE(cache.entryCount(), 10u);
    EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(FrameCache, LruEvictsLeastRecentlyUsed)
{
    FrameCacheParams params;
    params.capacityBytes = 3000;
    params.policy = ReplacementPolicy::Lru;
    FrameCache cache(params);
    const auto a = keyAt(1.0, 0.0);
    const auto b = keyAt(2.0, 0.0);
    const auto c = keyAt(3.0, 0.0);
    cache.insert(a, 1000);
    cache.insert(b, 1000);
    cache.insert(c, 1000);
    // Touch a and c; inserting d must evict b.
    cache.lookup(a, 0.0);
    cache.lookup(c, 0.0);
    cache.insert(keyAt(4.0, 0.0), 1000);
    EXPECT_TRUE(cache.containsExact(a.gridKey));
    EXPECT_FALSE(cache.containsExact(b.gridKey));
    EXPECT_TRUE(cache.containsExact(c.gridKey));
}

TEST(FrameCache, FlfEvictsFurthestFromPlayer)
{
    FrameCacheParams params;
    params.capacityBytes = 3000;
    params.policy = ReplacementPolicy::Flf;
    FrameCache cache(params);
    const auto near_key = keyAt(1.0, 1.0);
    const auto far_key = keyAt(90.0, 90.0);
    const auto mid_key = keyAt(10.0, 10.0);
    cache.insert(near_key, 1000);
    cache.insert(far_key, 1000);
    cache.insert(mid_key, 1000);
    cache.setPlayerPosition({0.0, 0.0});
    cache.insert(keyAt(2.0, 2.0), 1000); // evicts the furthest
    EXPECT_TRUE(cache.containsExact(near_key.gridKey));
    EXPECT_FALSE(cache.containsExact(far_key.gridKey));
}

TEST(FrameCache, RandomPolicyStillBoundsMemory)
{
    FrameCacheParams params;
    params.capacityBytes = 5000;
    params.policy = ReplacementPolicy::Random;
    FrameCache cache(params);
    for (int i = 0; i < 50; ++i)
        cache.insert(keyAt(i, i), 1000);
    EXPECT_LE(cache.bytesUsed(), params.capacityBytes);
}

TEST(FrameCache, DuplicateInsertIgnored)
{
    FrameCache cache;
    const auto key = keyAt(5.0, 5.0);
    cache.insert(key, 1000);
    cache.insert(key, 1000);
    EXPECT_EQ(cache.entryCount(), 1u);
    EXPECT_EQ(cache.bytesUsed(), 1000u);
}

TEST(FrameCache, PeekHasNoSideEffects)
{
    FrameCache cache;
    cache.insert(keyAt(5.0, 5.0), 1000);
    const auto before = cache.stats().lookups;
    EXPECT_TRUE(cache.peek(keyAt(5.1, 5.0), 0.5).has_value());
    EXPECT_EQ(cache.stats().lookups, before);
}

TEST(FrameCache, HitRatioAccounting)
{
    FrameCache cache;
    cache.insert(keyAt(5.0, 5.0), 1000);
    cache.lookup(keyAt(5.0, 5.0), 0.0);  // hit
    cache.lookup(keyAt(50.0, 50.0), 0.1); // miss
    EXPECT_EQ(cache.stats().lookups, 2u);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_DOUBLE_EQ(cache.stats().hitRatio(), 0.5);
    cache.resetStats();
    EXPECT_EQ(cache.stats().lookups, 0u);
}

TEST(FrameCache, NegativeCoordinatesSupported)
{
    FrameCache cache;
    FrameCache::Key key;
    key.gridKey = 424242;
    key.position = {-15.3, -7.8};
    key.leafRegionId = 3;
    key.nearSetSignature = 0xCC;
    cache.insert(key, 500);
    FrameCache::Key probe = key;
    probe.gridKey = 424243;
    probe.position = {-15.2, -7.8};
    EXPECT_TRUE(cache.lookup(probe, 0.5).has_value());
}

/**
 * Test-local model of the similar-frame lookup: the resident frames in
 * insertion order, scanned bucket by bucket in the cache's order (rows
 * of the (2 reach + 1)^2 neighbourhood, then insertion order within a
 * bucket), closest strictly-nearer candidate winning. It learns
 * evictions from the cache itself, so it checks lookups, ties and
 * rejection counts, not the replacement policies.
 */
struct BruteForceCache
{
    struct Frame
    {
        FrameCache::Key key;
        std::uint32_t size;
    };
    double bucketEdge;
    std::vector<Frame> frames; // resident, in insertion order
    CacheStats stats;

    std::int64_t
    cell(double v) const
    {
        return static_cast<std::int64_t>(std::floor(v / bucketEdge));
    }

    const Frame *
    find(std::uint64_t gridKey) const
    {
        for (const Frame &f : frames)
            if (f.key.gridKey == gridKey)
                return &f;
        return nullptr;
    }

    std::optional<std::uint64_t>
    lookup(const FrameCache::Key &key, double thresh)
    {
        ++stats.lookups;
        if (find(key.gridKey)) {
            ++stats.hits;
            ++stats.exactHits;
            return key.gridKey;
        }
        const int reach = std::max(
            1, static_cast<int>(std::ceil(thresh / bucketEdge)));
        const Frame *best = nullptr;
        double best_dist = std::numeric_limits<double>::infinity();
        for (std::int64_t dy = -reach; dy <= reach; ++dy) {
            for (std::int64_t dx = -reach; dx <= reach; ++dx) {
                for (const Frame &f : frames) {
                    if (cell(f.key.position.x) !=
                            cell(key.position.x) + dx ||
                        cell(f.key.position.y) != cell(key.position.y) + dy)
                        continue;
                    if (f.key.leafRegionId != key.leafRegionId) {
                        ++stats.rejectedRegion;
                        continue;
                    }
                    if (f.key.nearSetSignature != key.nearSetSignature) {
                        ++stats.rejectedSignature;
                        continue;
                    }
                    const double d = f.key.position.distance(key.position);
                    if (d > thresh) {
                        ++stats.rejectedDistance;
                        continue;
                    }
                    if (d < best_dist) {
                        best_dist = d;
                        best = &f;
                    }
                }
            }
        }
        if (!best)
            return std::nullopt;
        ++stats.hits;
        return best->key.gridKey;
    }
};

void
expectSameStats(const CacheStats &a, const CacheStats &b)
{
    EXPECT_EQ(a.lookups, b.lookups);
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.exactHits, b.exactHits);
    EXPECT_EQ(a.insertions, b.insertions);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.rejectedRegion, b.rejectedRegion);
    EXPECT_EQ(a.rejectedSignature, b.rejectedSignature);
    EXPECT_EQ(a.rejectedDistance, b.rejectedDistance);
}

TEST(FrameCache, LookupMatchesBruteForceScan)
{
    for (const ReplacementPolicy policy :
         {ReplacementPolicy::Lru, ReplacementPolicy::Flf,
          ReplacementPolicy::Random}) {
        SCOPED_TRACE(static_cast<int>(policy));
        FrameCacheParams params;
        params.capacityBytes = 40000; // about a dozen frames
        params.policy = policy;
        params.bucketEdge = 1.0;
        FrameCache cache(params);
        BruteForceCache model{params.bucketEdge, {}, {}};
        Rng rng(31 + static_cast<std::uint64_t>(policy));

        // Frames on a 0.5 m lattice straddling the origin; a grid key
        // always names the same position, region and near set, as the
        // prefetcher's keys do. Equidistant candidates are common.
        const auto randomKey = [&] {
            const std::int64_t ix = rng.uniformInt(-12, 11);
            const std::int64_t iy = rng.uniformInt(-12, 11);
            FrameCache::Key key;
            key.gridKey = static_cast<std::uint64_t>((iy + 12) * 24 +
                                                     (ix + 12));
            key.position = {ix * 0.5, iy * 0.5};
            key.leafRegionId = static_cast<std::uint32_t>(ix >= 4);
            key.nearSetSignature = hashMix(key.gridKey) % 3 == 0 ? 7 : 5;
            return key;
        };
        for (int op = 0; op < 4000; ++op) {
            const FrameCache::Key key = randomKey();
            if (rng.uniformInt(0, 2) == 0) {
                const auto size =
                    static_cast<std::uint32_t>(rng.uniformInt(1000, 4999));
                cache.setPlayerPosition(
                    {rng.uniform(-6.0, 6.0), rng.uniform(-6.0, 6.0)});
                cache.insert(key, size);
                if (!model.find(key.gridKey)) {
                    ++model.stats.insertions;
                    model.frames.push_back({key, size});
                }
                // Mirror the cache's evictions.
                std::erase_if(model.frames, [&](const auto &f) {
                    if (cache.containsExact(f.key.gridKey))
                        return false;
                    ++model.stats.evictions;
                    return true;
                });
                std::size_t bytes = 0;
                for (const auto &f : model.frames)
                    bytes += f.size;
                ASSERT_EQ(cache.bytesUsed(), bytes);
                ASSERT_EQ(cache.entryCount(), model.frames.size());
            } else {
                const double thresh = rng.uniform(0.2, 2.6);
                const auto peeked = cache.peek(key, thresh);
                const auto want = model.lookup(key, thresh);
                const auto got = cache.lookup(key, thresh);
                ASSERT_EQ(got, want) << "op " << op;
                ASSERT_EQ(peeked, want) << "op " << op;
            }
            expectSameStats(cache.stats(), model.stats);
        }
        EXPECT_GT(model.stats.evictions, 100u);
        EXPECT_GT(model.stats.hits, model.stats.exactHits + 100);
        EXPECT_GT(model.stats.rejectedDistance, 0u);
        EXPECT_GT(model.stats.rejectedRegion, 0u);
        EXPECT_GT(model.stats.rejectedSignature, 0u);
    }
}

} // namespace
} // namespace coterie::core
