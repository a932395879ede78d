#include "core/prefetcher.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "obs/trace.hh"
#include "support/rng.hh"

namespace coterie::core {

using geom::Vec2;
using world::GridPoint;

Prefetcher::Prefetcher(const world::VirtualWorld &world,
                       const world::GridMap &grid,
                       const RegionIndex &regions, PrefetcherParams params)
    : world_(world), grid_(grid), regions_(regions), params_(params)
{
}

std::vector<GridPoint>
Prefetcher::coverSet(GridPoint at, Vec2 exactPos, double dirRadians) const
{
    std::vector<GridPoint> out;
    const Vec2 dir = Vec2::fromAngle(dirRadians);
    const Vec2 lat = dir.perp();
    const double spacing = grid_.spacing();
    const Vec2 base = exactPos;
    for (int step = 1; step <= params_.lookaheadSteps; ++step) {
        for (int side = -params_.lateralSpread;
             side <= params_.lateralSpread; ++side) {
            const Vec2 p = base + dir * (spacing * step) +
                           lat * (spacing * side);
            const GridPoint g = grid_.snap(p);
            if (std::find_if(out.begin(), out.end(), [&](GridPoint q) {
                    return q == g;
                }) == out.end() &&
                !(g == at)) {
                out.push_back(g);
            }
        }
    }
    return out;
}

FrameCache::Key
Prefetcher::keyFor(GridPoint g)
{
    FrameCache::Key key;
    key.gridKey = grid_.key(g);
    key.position = grid_.position(g);
    const LeafRegion &leaf = regions_.leafAt(key.position);
    key.leafRegionId = leaf.id;
    // Anchored signature: quantize the evaluation point so nearby grid
    // points agree on the (visually significant) near-BE object set.
    const double cell = params_.signatureCellM;
    const double fx = std::floor(key.position.x / cell);
    const double fy = std::floor(key.position.y / cell);
    const auto ix = static_cast<std::int64_t>(fx);
    const auto iy = static_cast<std::int64_t>(fy);
    const double cutoff = leaf.cutoffRadius;
    SignatureSlot &slot =
        signatures_[hashMix(hashCombine(
                        hashCombine(static_cast<std::uint64_t>(ix),
                                    static_cast<std::uint64_t>(iy)),
                        std::bit_cast<std::uint64_t>(cutoff))) %
                    kSignatureSlots];
    if (slot.ix != ix || slot.iy != iy || slot.cutoff != cutoff) {
        const geom::Vec2 anchor{(fx + 0.5) * cell, (fy + 0.5) * cell};
        slot = {ix, iy, cutoff, world_.nearSetSignature(anchor, cutoff)};
    }
    key.nearSetSignature = slot.signature;
    return key;
}

std::vector<PrefetchTarget>
Prefetcher::resyncTargets(GridPoint at, Vec2 exactPos, FrameCache *cache,
                          const std::vector<double> &thresholds)
{
    std::vector<GridPoint> pts;
    pts.push_back(at); // the current frame is the most urgent
    constexpr double kPi = 3.14159265358979323846;
    for (int k = 0; k < 8; ++k) {
        for (const GridPoint g :
             coverSet(at, exactPos, k * (kPi / 4.0))) {
            if (std::find_if(pts.begin(), pts.end(), [&](GridPoint q) {
                    return q == g;
                }) == pts.end()) {
                pts.push_back(g);
            }
        }
    }
    std::vector<PrefetchTarget> out;
    for (const GridPoint g : pts) {
        const FrameCache::Key key = keyFor(g);
        if (cache) {
            const double thresh =
                key.leafRegionId < thresholds.size()
                    ? thresholds[key.leafRegionId]
                    : 0.0;
            if (cache->lookup(key, thresh))
                continue;
        }
        out.push_back(PrefetchTarget{g, key});
    }
    return out;
}

std::vector<PrefetchTarget>
Prefetcher::misses(GridPoint at, Vec2 exactPos, double dirRadians,
                   FrameCache *cache, const std::vector<double> &thresholds)
{
    COTERIE_SPAN("client.prefetch_misses", "core");
    std::vector<PrefetchTarget> out;
    for (const GridPoint g : coverSet(at, exactPos, dirRadians)) {
        const FrameCache::Key key = keyFor(g);
        if (cache) {
            const double thresh =
                key.leafRegionId < thresholds.size()
                    ? thresholds[key.leafRegionId]
                    : 0.0;
            if (cache->lookup(key, thresh))
                continue;
        }
        out.push_back(PrefetchTarget{g, key});
    }
    return out;
}

} // namespace coterie::core
