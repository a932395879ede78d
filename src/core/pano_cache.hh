/**
 * @file
 * Server-side panorama render de-duplication.
 *
 * The Coterie server renders one far-BE panorama per distinct
 * (world, quantized location, cutoff, resolution) — every client whose
 * FI location quantizes to the same cell shares the same frame (the
 * paper's frame-similarity premise applied server-side). This cache
 * makes that sharing explicit. Its one way in is `serveBatch`: a batch
 * of requests is classified in request order, the distinct misses are
 * rendered once each on the shared pool, and the results are published
 * in the same order, so every counter is a pure function of the batch
 * whatever the thread count.
 *
 * Memory is bounded by a byte budget with owner-fair LRU eviction.
 * Everything is observable: `server.pano_cache.{hit,miss,evicted_bytes}`
 * counters, a `server.pano_cache.bytes` gauge, and cumulative
 * `server.pano_cache.{hits,misses}` trace counter tracks.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "image/image.hh"
#include "support/rng.hh"
#include "support/thread_annotations.hh"

namespace coterie::core {

/**
 * Identity of one cached panorama: the world, the quantization cell
 * (`qx`/`qy` at the pitch whose bit pattern is `pitchBits`) and the
 * resolution. `cutoffBits` carries the far-BE cutoff radius bit pattern
 * so a partition change can never alias a stale frame.
 */
struct PanoKey
{
    std::uint64_t worldTag = 0;   ///< world identity (name + object count)
    std::int64_t qx = 0;          ///< quantized x (cell index)
    std::int64_t qy = 0;          ///< quantized y (cell index)
    std::uint64_t cutoffBits = 0; ///< bit pattern of the cutoff radius
    std::uint64_t pitchBits = 0;  ///< bit pattern of the cell pitch
    int width = 0;                ///< panorama resolution
    int height = 0;

    bool operator==(const PanoKey &) const = default;
};

struct PanoKeyHash
{
    std::size_t
    operator()(const PanoKey &k) const
    {
        std::uint64_t h = hashMix(k.worldTag);
        h = hashCombine(h, hashMix(static_cast<std::uint64_t>(k.qx)));
        h = hashCombine(h, hashMix(static_cast<std::uint64_t>(k.qy)));
        h = hashCombine(h, hashMix(k.cutoffBits));
        h = hashCombine(h, hashMix(k.pitchBits));
        h = hashCombine(h, hashMix(static_cast<std::uint64_t>(k.width)));
        h = hashCombine(h, hashMix(static_cast<std::uint64_t>(k.height)));
        return static_cast<std::size_t>(h);
    }
};

/** Snapshot of cache effectiveness (all cumulative except bytes/entries). */
struct PanoCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0; ///< renders actually performed
    /** Always 0: no request waits on another's render since the batch
     *  is the only way in. Kept so recorded digests and baselines that
     *  fold it in stay comparable. */
    std::uint64_t inflightJoins = 0;
    std::uint64_t evictions = 0;
    std::uint64_t evictedBytes = 0;
    std::uint64_t bytes = 0;   ///< resident pixel bytes right now
    std::uint64_t entries = 0; ///< resident panoramas right now
};

/** One batch request: a panorama and the session its render is charged
 *  to (0 = the solo/unattributed owner). */
struct PanoRequest
{
    PanoKey key;
    std::uint32_t owner = 0;
};

/** Byte-budgeted panorama cache. Thread-safe. */
class PanoramaRenderCache
{
  public:
    explicit PanoramaRenderCache(std::size_t budgetBytes)
        : budgetBytes_(budgetBytes)
    {
    }

    PanoramaRenderCache(const PanoramaRenderCache &) = delete;
    PanoramaRenderCache &operator=(const PanoramaRenderCache &) = delete;

    /**
     * Serve @p requests in order, as if each render completed before
     * the next request arrived:
     *
     *  - A request whose key is resident is a hit and refreshes the
     *    entry's LRU stamp. A repeat of a key missed earlier in the
     *    batch is also a hit (its render is already under way).
     *  - The first request of any other key is a miss: @p render is
     *    called with that request's index, once per distinct missing
     *    key. The renders run on the shared pool, outside the lock.
     *  - Each rendered panorama is then published in request order,
     *    charged to its request's owner, and evicted down to budget
     *    right after it lands.
     *
     * The charge stays with the entry: sibling sessions hit each
     * other's entries for free, but the session that caused a render
     * pays for its residency, so one hot session cannot starve the
     * others' budget (eviction takes victims from the heaviest-charged
     * owner first). Concurrent batches are safe; if two miss the same
     * key, both render it and the first publication wins.
     */
    void serveBatch(const std::vector<PanoRequest> &requests,
                    const std::function<image::Image(std::size_t)> &render);

    /** Resident bytes currently charged to @p owner. */
    std::uint64_t ownerBytes(std::uint32_t owner) const;

    PanoCacheStats stats() const;

    std::size_t budgetBytes() const { return budgetBytes_; }

  private:
    struct Entry
    {
        image::Image image;
        std::uint64_t lastUse = 0;
        std::size_t bytes = 0;
        /** Session charged for this entry's residency. */
        std::uint32_t owner = 0;
    };

    /** Evict entries until within budget: LRU within the
     *  heaviest-charged owner (single owner == plain global LRU). */
    void evictLocked() COTERIE_REQUIRES(mutex_);

    const std::size_t budgetBytes_;
    mutable support::Mutex mutex_{"PanoramaRenderCache::mutex_"};
    std::unordered_map<PanoKey, Entry, PanoKeyHash>
        entries_ COTERIE_GUARDED_BY(mutex_);
    /** Resident bytes charged per owner (absent == 0). */
    std::unordered_map<std::uint32_t, std::uint64_t>
        ownerBytes_ COTERIE_GUARDED_BY(mutex_);
    std::uint64_t useClock_ COTERIE_GUARDED_BY(mutex_) = 0;
    std::uint64_t bytes_ COTERIE_GUARDED_BY(mutex_) = 0;
    PanoCacheStats stats_ COTERIE_GUARDED_BY(mutex_);
};

} // namespace coterie::core
