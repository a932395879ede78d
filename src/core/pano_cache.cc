#include "core/pano_cache.hh"

#include <utility>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "support/logging.hh"

namespace coterie::core {

namespace {

/**
 * Emit cumulative hit/miss counter tracks when a trace is recording so
 * trace_report can chart the hit ratio over a run. Values are read
 * under the cache lock by the caller.
 */
void
tracePanoCounters(std::uint64_t hits, std::uint64_t misses)
{
    obs::TraceRecorder &recorder = obs::TraceRecorder::global();
    if (!recorder.enabled())
        return;
    recorder.counter("server.pano_cache.hits", static_cast<double>(hits));
    recorder.counter("server.pano_cache.misses",
                     static_cast<double>(misses));
}

} // namespace

std::shared_ptr<const image::Image>
PanoramaRenderCache::getOrRender(const PanoKey &key, const RenderFn &render,
                                 obs::FrameTraceContext *trace,
                                 std::uint32_t owner)
{
    const bool traced = trace != nullptr && trace->active();
    const std::uint64_t enteredNs = traced ? obs::monotonicNowNs() : 0;
    bool joined = false;
    std::uint64_t myClaim = 0;
    {
        support::MutexLock lock(mutex_);
        while (true) {
            auto it = entries_.find(key);
            if (it == entries_.end())
                break; // our miss: claim the render below
            if (it->second.image) {
                it->second.lastUse = ++useClock_;
                if (joined) {
                    // Already accounted as an inflight_join; the
                    // completed render we waited for is not a second
                    // cache event.
                } else {
                    ++stats_.hits;
                    COTERIE_COUNT("server.pano_cache.hit");
                }
                tracePanoCounters(stats_.hits, stats_.misses);
                if (traced) {
                    trace->hopWall(joined ? obs::Hop::CacheJoin
                                          : obs::Hop::CacheLookup,
                                   enteredNs, obs::monotonicNowNs());
                }
                return it->second.image;
            }
            // Someone else is rendering this key: join their flight.
            if (!joined) {
                joined = true;
                ++stats_.inflightJoins;
                COTERIE_COUNT("server.pano_cache.inflight_join");
            }
            readyCv_.wait(lock);
            // Re-check from scratch: the render may have completed,
            // failed (entry erased — we take over), or completed and
            // already been evicted.
        }
        Entry claim;
        claim.owner = owner;
        claim.claim = ++claimClock_;
        myClaim = claim.claim;
        entries_.emplace(key, claim);
        ++stats_.misses;
        COTERIE_COUNT("server.pano_cache.miss");
    }

    std::shared_ptr<const image::Image> image;
    const std::uint64_t renderBeginNs =
        traced ? obs::monotonicNowNs() : 0;
    try {
        COTERIE_SPAN("server.pano_cache.render", "core");
        image = std::make_shared<const image::Image>(render());
    } catch (...) {
        // Withdraw the claim so a waiter can take over the render —
        // unless releaseClaims already withdrew it (or a successor
        // re-claimed the key) while we were rendering.
        {
            support::MutexLock lock(mutex_);
            const auto it = entries_.find(key);
            if (it != entries_.end() && it->second.claim == myClaim)
                entries_.erase(it);
        }
        readyCv_.notifyAll();
        throw;
    }

    if (traced) {
        trace->hopWall(obs::Hop::Render, renderBeginNs,
                       obs::monotonicNowNs());
    }
    const std::size_t image_bytes =
        image->pixelCount() * sizeof(image::Rgb);
    {
        support::MutexLock lock(mutex_);
        const auto it = entries_.find(key);
        if (it == entries_.end() || it->second.claim != myClaim) {
            // Our claim was released (session teardown) or the key was
            // re-claimed by a successor: hand the image back uncached,
            // charging nobody, and leave the map to its new state.
            ++stats_.orphanRenders;
            COTERIE_COUNT("server.pano_cache.orphan_render");
            return image;
        }
        Entry &entry = it->second;
        COTERIE_ASSERT(!entry.image, "pano cache double render");
        entry.image = image;
        entry.lastUse = ++useClock_;
        entry.bytes = image_bytes;
        bytes_ += image_bytes;
        ownerBytes_[entry.owner] += image_bytes;
        evictLocked();
        stats_.bytes = bytes_;
        stats_.entries = entries_.size();
        COTERIE_GAUGE_SET("server.pano_cache.bytes", bytes_);
        tracePanoCounters(stats_.hits, stats_.misses);
    }
    readyCv_.notifyAll();
    return image;
}

std::optional<std::uint64_t>
PanoramaRenderCache::batchLookupOrClaim(const PanoKey &key,
                                        std::uint32_t owner)
{
    support::MutexLock lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
        // Resident, or claimed earlier in this batch (image still
        // null): a hit either way — rendered synchronously, the
        // earlier request's render would already have completed.
        if (it->second.image)
            it->second.lastUse = ++useClock_;
        ++stats_.hits;
        COTERIE_COUNT("server.pano_cache.hit");
        tracePanoCounters(stats_.hits, stats_.misses);
        return std::nullopt;
    }
    Entry claim;
    claim.owner = owner;
    claim.claim = ++claimClock_;
    entries_.emplace(key, claim);
    ++stats_.misses;
    COTERIE_COUNT("server.pano_cache.miss");
    return claim.claim;
}

void
PanoramaRenderCache::publishClaimed(const PanoKey &key,
                                    std::uint64_t claimToken,
                                    image::Image image)
{
    const auto shared =
        std::make_shared<const image::Image>(std::move(image));
    const std::size_t image_bytes =
        shared->pixelCount() * sizeof(image::Rgb);
    {
        support::MutexLock lock(mutex_);
        const auto it = entries_.find(key);
        if (it == entries_.end() || it->second.claim != claimToken) {
            // The claim was withdrawn (session teardown) between the
            // decision pass and this publish: drop the image uncached,
            // matching getOrRender's orphan path.
            ++stats_.orphanRenders;
            COTERIE_COUNT("server.pano_cache.orphan_render");
            return;
        }
        Entry &entry = it->second;
        COTERIE_ASSERT(!entry.image, "pano cache double publish");
        entry.image = shared;
        entry.lastUse = ++useClock_;
        entry.bytes = image_bytes;
        bytes_ += image_bytes;
        ownerBytes_[entry.owner] += image_bytes;
        evictLocked();
        stats_.bytes = bytes_;
        stats_.entries = entries_.size();
        COTERIE_GAUGE_SET("server.pano_cache.bytes", bytes_);
        tracePanoCounters(stats_.hits, stats_.misses);
    }
    readyCv_.notifyAll();
}

void
PanoramaRenderCache::evictLocked()
{
    while (bytes_ > budgetBytes_) {
        // Per-session fairness: pick the victim *owner* first — the
        // one with the largest resident charge (ties break toward the
        // lower owner id for determinism) — then evict that owner's
        // LRU completed entry. With a single owner this degenerates to
        // the original global LRU policy exactly.
        std::uint32_t victimOwner = 0;
        std::uint64_t victimCharge = 0;
        bool haveOwner = false;
        for (const auto &[ownerId, charge] : ownerBytes_) {
            if (charge == 0)
                continue;
            if (!haveOwner || charge > victimCharge ||
                (charge == victimCharge && ownerId < victimOwner)) {
                haveOwner = true;
                victimOwner = ownerId;
                victimCharge = charge;
            }
        }
        auto victim = entries_.end();
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            if (!it->second.image)
                continue; // never evict an in-flight render
            if (haveOwner && it->second.owner != victimOwner)
                continue;
            if (victim == entries_.end() ||
                it->second.lastUse < victim->second.lastUse)
                victim = it;
        }
        if (victim == entries_.end())
            return; // only in-flight entries remain
        bytes_ -= victim->second.bytes;
        auto charged = ownerBytes_.find(victim->second.owner);
        if (charged != ownerBytes_.end()) {
            charged->second -= victim->second.bytes;
            if (charged->second == 0)
                ownerBytes_.erase(charged);
        }
        ++stats_.evictions;
        stats_.evictedBytes += victim->second.bytes;
        COTERIE_COUNT_N("server.pano_cache.evicted_bytes",
                        victim->second.bytes);
        entries_.erase(victim);
    }
}

std::size_t
PanoramaRenderCache::releaseClaims(std::uint32_t owner)
{
    std::size_t released = 0;
    {
        support::MutexLock lock(mutex_);
        for (auto it = entries_.begin(); it != entries_.end();) {
            if (!it->second.image && it->second.owner == owner) {
                it = entries_.erase(it);
                ++released;
            } else {
                ++it;
            }
        }
        stats_.claimsReleased += released;
        stats_.entries = entries_.size();
    }
    if (released > 0) {
        // Wake single-flight waiters parked on the withdrawn claims;
        // they re-check, find the key absent, and take over cleanly.
        readyCv_.notifyAll();
        COTERIE_COUNT_N("server.pano_cache.claims_released", released);
    }
    return released;
}

std::uint64_t
PanoramaRenderCache::ownerBytes(std::uint32_t owner) const
{
    support::MutexLock lock(mutex_);
    const auto it = ownerBytes_.find(owner);
    return it != ownerBytes_.end() ? it->second : 0;
}

PanoCacheStats
PanoramaRenderCache::stats() const
{
    support::MutexLock lock(mutex_);
    PanoCacheStats out = stats_;
    out.bytes = bytes_;
    out.entries = entries_.size();
    return out;
}

void
PanoramaRenderCache::clear()
{
    support::MutexLock lock(mutex_);
    for (auto it = entries_.begin(); it != entries_.end();) {
        if (it->second.image) {
            bytes_ -= it->second.bytes;
            auto charged = ownerBytes_.find(it->second.owner);
            if (charged != ownerBytes_.end()) {
                charged->second -= it->second.bytes;
                if (charged->second == 0)
                    ownerBytes_.erase(charged);
            }
            it = entries_.erase(it);
        } else {
            ++it;
        }
    }
    stats_.bytes = bytes_;
    stats_.entries = entries_.size();
    COTERIE_GAUGE_SET("server.pano_cache.bytes", bytes_);
}

} // namespace coterie::core
