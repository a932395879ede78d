#include "core/pano_cache.hh"

#include <unordered_set>
#include <utility>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "support/parallel.hh"

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

void
PanoramaRenderCache::serveBatch(
    const std::vector<PanoRequest> &requests,
    const std::function<image::Image(std::size_t)> &render)
{
    if (requests.empty())
        return;
    // Classify in request order. The map only ever holds published
    // images; keys missed earlier in this batch live in `missed`.
    std::vector<std::size_t> misses;
    {
        support::MutexLock lock(mutex_);
        std::unordered_set<PanoKey, PanoKeyHash> missed;
        for (std::size_t i = 0; i < requests.size(); ++i) {
            const PanoKey &key = requests[i].key;
            const auto it = entries_.find(key);
            if (it != entries_.end()) {
                it->second.lastUse = ++useClock_;
                ++stats_.hits;
                COTERIE_COUNT("server.pano_cache.hit");
            } else if (!missed.insert(key).second) {
                ++stats_.hits;
                COTERIE_COUNT("server.pano_cache.hit");
            } else {
                misses.push_back(i);
                ++stats_.misses;
                COTERIE_COUNT("server.pano_cache.miss");
            }
        }
        tracePanoCounters(stats_.hits, stats_.misses);
    }
    if (misses.empty())
        return;

    auto images = support::parallelMap<image::Image>(
        static_cast<std::int64_t>(misses.size()), 1, [&](std::int64_t m) {
            return render(misses[static_cast<std::size_t>(m)]);
        });

    // Publish in request order: charging, LRU stamps and eviction are
    // pure functions of the batch.
    support::MutexLock lock(mutex_);
    for (std::size_t m = 0; m < misses.size(); ++m) {
        const PanoRequest &request = requests[misses[m]];
        const auto [it, inserted] = entries_.try_emplace(request.key);
        if (!inserted)
            continue; // a concurrent batch published it first
        Entry &entry = it->second;
        entry.bytes = images[m].pixelCount() * sizeof(image::Rgb);
        entry.image = std::move(images[m]);
        entry.lastUse = ++useClock_;
        entry.owner = request.owner;
        bytes_ += entry.bytes;
        ownerBytes_[entry.owner] += entry.bytes;
        evictLocked();
    }
    stats_.bytes = bytes_;
    stats_.entries = entries_.size();
    COTERIE_GAUGE_SET("server.pano_cache.bytes", bytes_);
}

void
PanoramaRenderCache::evictLocked()
{
    while (bytes_ > budgetBytes_) {
        // Per-session fairness: pick the victim *owner* first — the
        // one with the largest resident charge (ties break toward the
        // lower owner id for determinism) — then evict that owner's
        // LRU entry. With a single owner this degenerates to the
        // original global LRU policy exactly.
        std::uint32_t victimOwner = 0;
        std::uint64_t victimCharge = 0;
        for (const auto &[ownerId, charge] : ownerBytes_) {
            if (charge > victimCharge ||
                (charge == victimCharge && ownerId < victimOwner)) {
                victimOwner = ownerId;
                victimCharge = charge;
            }
        }
        auto victim = entries_.end();
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            if (it->second.owner != victimOwner)
                continue;
            if (victim == entries_.end() ||
                it->second.lastUse < victim->second.lastUse)
                victim = it;
        }
        bytes_ -= victim->second.bytes;
        auto charged = ownerBytes_.find(victimOwner);
        charged->second -= victim->second.bytes;
        if (charged->second == 0)
            ownerBytes_.erase(charged);
        ++stats_.evictions;
        stats_.evictedBytes += victim->second.bytes;
        COTERIE_COUNT_N("server.pano_cache.evicted_bytes",
                        victim->second.bytes);
        entries_.erase(victim);
    }
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

} // namespace coterie::core
