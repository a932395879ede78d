/**
 * @file
 * Far-BE prefetcher (paper §5.2).
 *
 * When the player arrives at a new grid point moving in some direction,
 * the prefetcher computes the set of upcoming grid points whose frames
 * must be available (the next point along the heading plus its lateral
 * neighbours, covering head-turn/strafe uncertainty) and asks the frame
 * cache which of them still need fetching. Cache reuse both reduces
 * fetch frequency and widens the fetch deadline window.
 */

#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/frame_cache.hh"
#include "core/partitioner.hh"
#include "world/grid.hh"
#include "world/world.hh"

namespace coterie::core {

/** Prefetcher tuning. */
struct PrefetcherParams
{
    /** How many grid steps ahead along the heading to cover. */
    int lookaheadSteps = 2;
    /** Lateral neighbour spread (grid steps) around the predicted
     *  path, covering direction changes. */
    int lateralSpread = 1;
    /**
     * Near-BE set signatures are evaluated from a quantized anchor
     * cell of this edge length rather than per grid point. A 3 cm
     * move cannot make a visually significant object wholly vanish
     * from the merged frame (boundary-straddling objects render
     * partially in both layers — paper footnote 2), so per-point
     * signatures would churn without correctness benefit.
     */
    double signatureCellM = 1.5;

    /**
     * The minimal-speculation shape of these params: cover only the
     * single predicted next grid point (lookahead 1, no lateral
     * spread). This is both the cache-less fetch policy (the Figure 11
     * "w/o cache" variant, Multi-Furion's shape) and what the fleet
     * load governor switches a session to when shedding load — fewer
     * speculative far-BE fetches, at the cost of less head-turn cover.
     */
    PrefetcherParams
    conservative() const
    {
        PrefetcherParams p = *this;
        p.lookaheadSteps = 1;
        p.lateralSpread = 0;
        return p;
    }
};

/** A frame the prefetcher wants fetched, with the cache key it was
 *  checked under. */
struct PrefetchTarget
{
    world::GridPoint point;
    FrameCache::Key key;
};

/**
 * Computes prefetch sets and consults the cache; owned by each
 * session. A session's frame loop is its only user: keyFor() keeps a
 * small table of near-set signatures, so one instance must not be
 * shared across threads.
 */
class Prefetcher
{
  public:
    Prefetcher(const world::VirtualWorld &world, const world::GridMap &grid,
               const RegionIndex &regions, PrefetcherParams params = {});

    /**
     * The set of grid points that must be covered when the player is
     * at @p exactPos (snapped to @p at) heading along @p dirRadians.
     */
    std::vector<world::GridPoint> coverSet(world::GridPoint at,
                                           geom::Vec2 exactPos,
                                           double dirRadians) const;

    /**
     * Of the cover set, the targets the cache cannot serve (these get
     * requested from the server). @p thresholds maps leaf id -> dist
     * threshold. Pass nullptr cache to disable caching (fetch all).
     */
    std::vector<PrefetchTarget> misses(world::GridPoint at,
                                       geom::Vec2 exactPos,
                                       double dirRadians, FrameCache *cache,
                                       const std::vector<double> &thresholds);

    /**
     * Rejoin re-sync set: after a disconnect the movement heading is
     * stale, so cover *all* directions — the union of cover sets over
     * eight headings around @p at (the current point first), filtered
     * by what the cache can still serve. This is what restores a
     * rejoining client's frame-cache cover set in one burst.
     */
    std::vector<PrefetchTarget> resyncTargets(
        world::GridPoint at, geom::Vec2 exactPos, FrameCache *cache,
        const std::vector<double> &thresholds);

    /**
     * Build a cache key for a grid point (near-set signature etc). The
     * signature is a function of the point's anchor cell and its leaf's
     * cutoff alone; it is computed on a table miss and reused after.
     */
    FrameCache::Key keyFor(world::GridPoint g);

  private:
    /** One direct-mapped signature slot, keyed by exactly the inputs of
     *  the signature: the anchor cell and the cutoff radius. An empty
     *  slot's NaN cutoff matches no key. */
    struct SignatureSlot
    {
        std::int64_t ix = 0;
        std::int64_t iy = 0;
        double cutoff = std::numeric_limits<double>::quiet_NaN();
        std::uint64_t signature = 0;
    };
    static constexpr std::size_t kSignatureSlots = 64;

    const world::VirtualWorld &world_;
    const world::GridMap &grid_;
    const RegionIndex &regions_;
    PrefetcherParams params_;
    std::array<SignatureSlot, kSignatureSlots> signatures_{};
};

} // namespace coterie::core

