#include "core/frame_cache.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/logging.hh"
#include "support/rng.hh"

namespace coterie::core {

using geom::Vec2;

FrameCache::FrameCache(FrameCacheParams params)
    : params_(params), rngState_(params.seed)
{
    COTERIE_ASSERT(params_.bucketEdge > 0.0, "bad bucket edge");
}

std::int64_t
FrameCache::bucketOf(Vec2 p) const
{
    const auto bx =
        static_cast<std::int64_t>(std::floor(p.x / params_.bucketEdge));
    const auto by =
        static_cast<std::int64_t>(std::floor(p.y / params_.bucketEdge));
    // Interleave into one key; ranges are far below 2^31.
    return (bx << 32) ^ (by & 0xffffffffll);
}

const CachedFrame *
FrameCache::findBest(const Key &key, double distThresh,
                     CacheStats *stats) const
{
    if (params_.mode == MatchMode::ExactOnly) {
        const auto it = entries_.find(key.gridKey);
        return it != entries_.end() ? &it->second : nullptr;
    }

    // Exact hit short-circuits.
    if (const auto it = entries_.find(key.gridKey); it != entries_.end())
        return &it->second;

    const CachedFrame *best = nullptr;
    double best_dist = std::numeric_limits<double>::infinity();
    // Scan the 3x3 bucket neighbourhood around the query (distThresh is
    // expected to be <= bucketEdge; larger thresholds widen the scan).
    const int reach = std::max(
        1, static_cast<int>(std::ceil(distThresh / params_.bucketEdge)));
    const auto bx =
        static_cast<std::int64_t>(std::floor(key.position.x /
                                             params_.bucketEdge));
    const auto by =
        static_cast<std::int64_t>(std::floor(key.position.y /
                                             params_.bucketEdge));
    for (std::int64_t dy = -reach; dy <= reach; ++dy) {
        for (std::int64_t dx = -reach; dx <= reach; ++dx) {
            const std::int64_t bucket =
                ((bx + dx) << 32) ^ ((by + dy) & 0xffffffffll);
            const auto bit = buckets_.find(bucket);
            if (bit == buckets_.end())
                continue;
            for (const CachedFrame *candidate : bit->second) {
                const CachedFrame &frame = *candidate;
                // Criterion 2: same leaf region.
                if (frame.leafRegionId != key.leafRegionId) {
                    if (stats)
                        ++stats->rejectedRegion;
                    continue;
                }
                // Criterion 3: identical near-BE object set.
                if (frame.nearSetSignature != key.nearSetSignature) {
                    if (stats)
                        ++stats->rejectedSignature;
                    continue;
                }
                // Criterion 1: within the distance threshold.
                const double d = frame.position.distance(key.position);
                if (d > distThresh) {
                    if (stats)
                        ++stats->rejectedDistance;
                    continue;
                }
                if (d < best_dist) {
                    best_dist = d;
                    best = &frame;
                }
            }
        }
    }
    return best;
}

std::optional<std::uint64_t>
FrameCache::lookup(const Key &key, double distThresh)
{
    support::MutexLock lock(mutex_);
    ++clock_;
    ++stats_.lookups;
    const CachedFrame *best = findBest(key, distThresh, &stats_);
    if (!best)
        return std::nullopt;
    ++stats_.hits;
    if (best->gridKey == key.gridKey)
        ++stats_.exactHits;
    // Touch for LRU.
    entries_[best->gridKey].lastUseTick = clock_;
    return best->gridKey;
}

std::optional<std::uint64_t>
FrameCache::peek(const Key &key, double distThresh) const
{
    support::MutexLock lock(mutex_);
    const CachedFrame *best = findBest(key, distThresh, nullptr);
    if (!best)
        return std::nullopt;
    return best->gridKey;
}

bool
FrameCache::containsExact(std::uint64_t gridKey) const
{
    support::MutexLock lock(mutex_);
    return entries_.count(gridKey) > 0;
}

void
FrameCache::insert(const Key &key, std::uint32_t sizeBytes)
{
    support::MutexLock lock(mutex_);
    ++clock_;
    if (entries_.count(key.gridKey))
        return; // already resident
    while (bytesUsed_ + sizeBytes > params_.capacityBytes &&
           !entries_.empty()) {
        evictOne();
    }
    CachedFrame frame;
    frame.gridKey = key.gridKey;
    frame.position = key.position;
    frame.leafRegionId = key.leafRegionId;
    frame.nearSetSignature = key.nearSetSignature;
    frame.sizeBytes = sizeBytes;
    frame.lastUseTick = clock_;
    frame.insertTick = clock_;
    const auto it = entries_.emplace(key.gridKey, frame).first;
    buckets_[bucketOf(key.position)].push_back(&it->second);
    bytesUsed_ += sizeBytes;
    ++stats_.insertions;
}

void
FrameCache::evictOne()
{
    COTERIE_ASSERT(!entries_.empty(), "evict from empty cache");
    std::uint64_t victim = 0;
    switch (params_.policy) {
      case ReplacementPolicy::Lru: {
        std::uint64_t oldest = UINT64_MAX;
        for (const auto &[key, frame] : entries_) {
            if (frame.lastUseTick < oldest) {
                oldest = frame.lastUseTick;
                victim = key;
            }
        }
        break;
      }
      case ReplacementPolicy::Flf: {
        double furthest = -1.0;
        for (const auto &[key, frame] : entries_) {
            const double d = frame.position.distance(playerPos_);
            if (d > furthest) {
                furthest = d;
                victim = key;
            }
        }
        break;
      }
      case ReplacementPolicy::Random: {
        const std::uint64_t pick =
            splitmix64(rngState_) % entries_.size();
        auto it = entries_.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(pick));
        victim = it->first;
        break;
      }
    }

    const auto it = entries_.find(victim);
    COTERIE_ASSERT(it != entries_.end(), "victim vanished");
    auto &bucket = buckets_[bucketOf(it->second.position)];
    bucket.erase(std::remove(bucket.begin(), bucket.end(), &it->second),
                 bucket.end());
    bytesUsed_ -= it->second.sizeBytes;
    entries_.erase(it);
    ++stats_.evictions;
}

} // namespace coterie::core
