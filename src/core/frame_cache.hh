/**
 * @file
 * Client-side far-BE frame cache (paper §5.3).
 *
 * Lookup returns a cached frame for grid point k when (1) its grid
 * point lies within the leaf region's distance threshold of k, (2) it
 * belongs to the same leaf region (regions have different cutoffs, so
 * crossing regions would open a near/far gap), and (3) its near-BE
 * object set equals k's (no missing geometry after the merge). Among
 * all qualifying frames the closest wins.
 *
 * Replacement: LRU (temporal locality) or FLF — furthest location
 * first — (spatial locality), plus Random as an ablation baseline.
 * An ExactOnly mode reproduces "Multi-Furion with frame cache"
 * (Figure 11) and cache Versions 1/2 (Table 4).
 */

#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "geom/vec.hh"
#include "support/thread_annotations.hh"

namespace coterie::core {

/** Cache replacement policy. */
enum class ReplacementPolicy { Lru, Flf, Random };

/** Match mode for lookups. */
enum class MatchMode
{
    ExactOnly, ///< only the identical grid point hits (Versions 1/2)
    Similar,   ///< paper's three-criteria similar-frame match
};

/** Metadata of one cached far-BE frame. */
struct CachedFrame
{
    std::uint64_t gridKey = 0;      ///< dense grid index (identity)
    geom::Vec2 position;            ///< world position of the grid point
    std::uint32_t leafRegionId = 0;
    std::uint64_t nearSetSignature = 0;
    std::uint32_t sizeBytes = 0;
    std::uint64_t lastUseTick = 0;
    std::uint64_t insertTick = 0;
};

/** Cache configuration. */
struct FrameCacheParams
{
    std::size_t capacityBytes = 1200ull * 1024 * 1024;
    ReplacementPolicy policy = ReplacementPolicy::Lru;
    MatchMode mode = MatchMode::Similar;
    /** Spatial-hash bucket edge (m); ~ the largest dist threshold. */
    double bucketEdge = 4.0;
    std::uint64_t seed = 23; ///< for Random replacement
};

/** Hit/miss counters. */
struct CacheStats
{
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t exactHits = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    /** Diagnostic: candidate rejections by lookup criterion. */
    std::uint64_t rejectedRegion = 0;
    std::uint64_t rejectedSignature = 0;
    std::uint64_t rejectedDistance = 0;

    double hitRatio() const
    {
        return lookups ? static_cast<double>(hits) /
                             static_cast<double>(lookups)
                       : 0.0;
    }
};

/**
 * The frame cache. Stores metadata only — actual frame bytes live in
 * the decoder path; all cache decisions depend on metadata alone (the
 * paper makes the same observation for its caching study, §4.6).
 *
 * Thread-safe: every public method locks the internal mutex, so a
 * shared cache (the Table 5 overheard-frame versions run one cache per
 * coterie) can be queried from pool tasks. Determinism is preserved
 * because callers in `src/` only drive it from the single simulation
 * thread or behind an ordered reduction.
 */
class FrameCache
{
  public:
    explicit FrameCache(FrameCacheParams params = {});

    /** Query descriptor for a lookup or insertion. */
    struct Key
    {
        std::uint64_t gridKey = 0;
        geom::Vec2 position;
        std::uint32_t leafRegionId = 0;
        std::uint64_t nearSetSignature = 0;
    };

    /**
     * Look up a frame usable at @p key given the region's
     * @p distThresh; advances the clock and updates stats/LRU.
     * Returns the matched frame's grid key.
     */
    std::optional<std::uint64_t> lookup(const Key &key, double distThresh);

    /** Lookup without stats/LRU side effects. */
    std::optional<std::uint64_t> peek(const Key &key,
                                      double distThresh) const;

    /** Insert a fetched frame; evicts per policy when over capacity. */
    void insert(const Key &key, std::uint32_t sizeBytes);

    /** Whether the exact grid point is resident. */
    bool containsExact(std::uint64_t gridKey) const;

    /** Player position feed (FLF evicts furthest from here). */
    void setPlayerPosition(geom::Vec2 p)
    {
        support::MutexLock lock(mutex_);
        playerPos_ = p;
    }

    /** Snapshot of the counters (by value: stats_ is lock-guarded). */
    CacheStats stats() const
    {
        support::MutexLock lock(mutex_);
        return stats_;
    }

    void resetStats()
    {
        support::MutexLock lock(mutex_);
        stats_ = {};
    }

    std::size_t entryCount() const
    {
        support::MutexLock lock(mutex_);
        return entries_.size();
    }

    std::size_t bytesUsed() const
    {
        support::MutexLock lock(mutex_);
        return bytesUsed_;
    }

    const FrameCacheParams &params() const { return params_; }

  private:
    std::int64_t bucketOf(geom::Vec2 p) const;
    const CachedFrame *findBest(const Key &key, double distThresh,
                                CacheStats *stats) const
        COTERIE_REQUIRES(mutex_);
    void evictOne() COTERIE_REQUIRES(mutex_);

    FrameCacheParams params_; ///< immutable after the constructor
    mutable support::Mutex mutex_{"FrameCache::mutex_"};
    /** Entries by gridKey. */
    std::unordered_map<std::uint64_t, CachedFrame>
        entries_ COTERIE_GUARDED_BY(mutex_);
    /**
     * Spatial hash: bucket id -> the bucket's entries in insertion
     * order, which is the order lookups break distance ties in. The
     * pointers are into entries_ (unordered_map nodes keep their
     * address across a rehash); an eviction removes its pointer before
     * it erases the entry.
     */
    std::unordered_map<std::int64_t, std::vector<const CachedFrame *>>
        buckets_ COTERIE_GUARDED_BY(mutex_);
    std::size_t bytesUsed_ COTERIE_GUARDED_BY(mutex_) = 0;
    std::uint64_t clock_ COTERIE_GUARDED_BY(mutex_) = 0;
    geom::Vec2 playerPos_ COTERIE_GUARDED_BY(mutex_);
    CacheStats stats_ COTERIE_GUARDED_BY(mutex_);
    std::uint64_t rngState_ COTERIE_GUARDED_BY(mutex_);
};

} // namespace coterie::core

