/**
 * @file
 * Server-side panorama render de-duplication.
 *
 * The Coterie server renders one far-BE panorama per distinct
 * (world, quantized location, cutoff, resolution) — every client whose
 * FI location quantizes to the same cell shares the same frame (the
 * paper's frame-similarity premise applied server-side). This cache
 * makes that sharing explicit: `getOrRender` returns the cached frame
 * on a hit, and *single-flights* concurrent misses so N clients asking
 * for the same panorama at once trigger exactly one render while the
 * other N-1 block until it lands.
 *
 * Memory is bounded by a byte budget with LRU eviction (in-flight
 * entries are never evicted). Everything is observable:
 * `server.pano_cache.{hit,miss,inflight_join,evicted_bytes}` counters,
 * a `server.pano_cache.bytes` gauge, and a `server.pano_cache.render`
 * trace span around each actual render.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>

#include "image/image.hh"
#include "obs/frame_trace.hh"
#include "support/rng.hh"
#include "support/thread_annotations.hh"

namespace coterie::core {

/**
 * Identity of one cached panorama. Two key schemes share the map and
 * must not collide:
 *  - grid-point keys (offline prerender): `pitchBits == 0` sentinel,
 *    `qx`/`qy` are grid indices;
 *  - quantized-location keys (online far-BE lookup): `pitchBits` holds
 *    the quantization pitch's bit pattern (never zero), `qx`/`qy` are
 *    cell indices at that pitch.
 * `cutoffBits` carries the far-BE cutoff radius bit pattern so a
 * partition change can never alias a stale frame.
 */
struct PanoKey
{
    std::uint64_t worldTag = 0;   ///< world identity (name + object count)
    std::int64_t qx = 0;          ///< quantized x (cell or grid index)
    std::int64_t qy = 0;          ///< quantized y (cell or grid index)
    std::uint64_t cutoffBits = 0; ///< bit pattern of the cutoff radius
    std::uint64_t pitchBits = 0;  ///< bit pattern of the pitch (0 = grid)
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
    std::uint64_t misses = 0;       ///< renders actually performed
    std::uint64_t inflightJoins = 0; ///< waits on someone else's render
    std::uint64_t evictions = 0;
    std::uint64_t evictedBytes = 0;
    std::uint64_t bytes = 0;   ///< resident pixel bytes right now
    std::uint64_t entries = 0; ///< resident panoramas right now
    /** In-flight claims dropped by releaseClaims (session teardown). */
    std::uint64_t claimsReleased = 0;
    /** Renders whose claim was released mid-flight: the image was
     *  returned to the caller but never published or charged. */
    std::uint64_t orphanRenders = 0;
};

/**
 * Byte-budgeted, single-flight panorama cache. Thread-safe; the render
 * callback runs outside the lock (and may itself fan out on the shared
 * pool — waiters block on a condition variable, not on pool slots, so
 * there is no pool-starvation cycle).
 */
class PanoramaRenderCache
{
  public:
    using RenderFn = std::function<image::Image()>;

    explicit PanoramaRenderCache(std::size_t budgetBytes)
        : budgetBytes_(budgetBytes)
    {
    }

    PanoramaRenderCache(const PanoramaRenderCache &) = delete;
    PanoramaRenderCache &operator=(const PanoramaRenderCache &) = delete;

    /**
     * Return the panorama for @p key, rendering it via @p render on a
     * miss. Concurrent misses on the same key share one render
     * (single-flight). If @p render throws, the in-flight claim is
     * withdrawn, one waiter takes over the render, and the exception
     * propagates to the original caller.
     *
     * When @p trace carries an active causal context, the outcome is
     * stamped as a wall-interval hop: CacheLookup on a hit, CacheJoin
     * for a single-flight wait, Render around an actual render.
     *
     * @p owner charges the entry to a fleet session for eviction
     * accounting (0 = the solo/unattributed owner, the pre-fleet
     * behaviour). The charge is attributed at render time and stays
     * with the entry: sibling sessions *hit* each other's entries for
     * free, but the session that caused a render pays for its
     * residency, so one hot session cannot starve the others' budget
     * (evictLocked takes victims from the heaviest-charged owner
     * first). If the owner's claims are released while the render is
     * in flight (session teardown), the finished image is handed back
     * uncached — never published, never charged.
     */
    std::shared_ptr<const image::Image>
    getOrRender(const PanoKey &key, const RenderFn &render,
                obs::FrameTraceContext *trace = nullptr,
                std::uint32_t owner = 0);

    /**
     * Deterministic two-phase batch interface, for callers that defer
     * lookups to a synchronization barrier (the parallel fleet engine)
     * and must keep hit/miss counters independent of thread count:
     *
     *  - Phase A (serial, in a deterministic request order):
     *    `batchLookupOrClaim` classifies each request. It returns no
     *    token when the key is already resident *or* was claimed
     *    earlier in the same batch — both count as hits, as if each
     *    render completed synchronously before the next request
     *    arrived — and otherwise records the
     *    miss, claims the render for @p owner, and returns the claim
     *    token.
     *  - Phase B (parallel, outside the cache): render the claimed
     *    keys.
     *  - Phase C (serial, same order): `publishClaimed` installs each
     *    image under its token. Charging, LRU bookkeeping, and
     *    eviction all happen here, serially, so they are pure
     *    functions of the batch order. A token invalidated in between
     *    (releaseClaims on session teardown) counts as an orphan
     *    render, exactly like getOrRender's publish path.
     */
    std::optional<std::uint64_t>
    batchLookupOrClaim(const PanoKey &key, std::uint32_t owner);
    void publishClaimed(const PanoKey &key, std::uint64_t claimToken,
                        image::Image image);

    /**
     * Session teardown: withdraw every in-flight claim charged to
     * @p owner and wake the waiters (one of them re-claims and
     * renders). Completed entries stay resident — they are shareable
     * world-keyed data, not session state. Returns how many claims
     * were dropped. This is the fix for the claim leak when a session
     * is destroyed mid-render: without it, waiters on the orphaned
     * claim would block forever and the entry could never complete
     * nor be evicted.
     */
    std::size_t releaseClaims(std::uint32_t owner);

    /** Resident completed bytes currently charged to @p owner. */
    std::uint64_t ownerBytes(std::uint32_t owner) const;

    PanoCacheStats stats() const;

    /** Drop every completed entry (in-flight renders are unaffected). */
    void clear();

    std::size_t budgetBytes() const { return budgetBytes_; }

  private:
    struct Entry
    {
        /** Null while the owning render is in flight. */
        std::shared_ptr<const image::Image> image;
        std::uint64_t lastUse = 0;
        std::size_t bytes = 0;
        /** Session charged for this entry's residency. */
        std::uint32_t owner = 0;
        /** Claim generation: a publish is valid only if the claim it
         *  took is still the one in the map (guards releaseClaims). */
        std::uint64_t claim = 0;
    };

    /** Evict completed entries until within budget: LRU within the
     *  heaviest-charged owner (single owner == plain global LRU). */
    void evictLocked() COTERIE_REQUIRES(mutex_);

    const std::size_t budgetBytes_;
    mutable support::Mutex mutex_{"PanoramaRenderCache::mutex_"};
    support::CondVar readyCv_;
    std::unordered_map<PanoKey, Entry, PanoKeyHash>
        entries_ COTERIE_GUARDED_BY(mutex_);
    /** Resident completed bytes charged per owner (absent == 0). */
    std::unordered_map<std::uint32_t, std::uint64_t>
        ownerBytes_ COTERIE_GUARDED_BY(mutex_);
    std::uint64_t useClock_ COTERIE_GUARDED_BY(mutex_) = 0;
    std::uint64_t claimClock_ COTERIE_GUARDED_BY(mutex_) = 0;
    std::uint64_t bytes_ COTERIE_GUARDED_BY(mutex_) = 0;
    PanoCacheStats stats_ COTERIE_GUARDED_BY(mutex_);
};

} // namespace coterie::core
