/**
 * @file
 * Coterie server: the far-BE frame catalogue.
 *
 * The real server pre-renders and x264-encodes a panoramic far-BE frame
 * for every reachable grid point. At simulation scale we expose the two
 * things the online system consumes: encoded frame *sizes* (from the
 * calibrated H.264 size model, with per-region content complexity) and
 * on-demand *actual frames* (from the software renderer) for the
 * visual-quality experiments. Sharing renders across clients is the
 * job of PanoramaRenderCache, which callers feed with `farBeLookup`
 * keys and `renderFarBe` renders.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "core/pano_cache.hh"
#include "core/partitioner.hh"
#include "render/renderer.hh"
#include "support/thread_annotations.hh"
#include "world/grid.hh"

namespace coterie::core {

/** Frame catalogue configuration. */
struct FrameStoreParams
{
    int panoWidth = 3840;  ///< the paper's 4K panoramas
    int panoHeight = 2160;
    /** Density (tri/m^2) that saturates content complexity at 1.0. */
    double complexitySaturationDensity = 2500.0;
    /**
     * Not read: a fleet's renders go through its SessionManager's own
     * cache. Kept only because benchmark/coterie_bench.cc still
     * assigns it; remove it together with that assignment.
     */
    std::shared_ptr<PanoramaRenderCache> sharedPanoCache;
};

/**
 * Pre-rendered frame catalogue over one world + grid + partition.
 * Sizes are deterministic per grid point.
 */
class FrameStore
{
  public:
    FrameStore(const world::VirtualWorld &world, const world::GridMap &grid,
               const RegionIndex &regions, FrameStoreParams params = {});

    /**
     * A fully-resolved online far-BE lookup: the cache key plus the
     * render inputs it maps to. Splitting resolution from rendering
     * lets batched callers (the parallel fleet's barrier render pass)
     * make all cache decisions serially in a deterministic order and
     * run only the actual renders in parallel.
     */
    struct FarBeLookup
    {
        PanoKey key;
        geom::Vec2 rep;     ///< cell representative eye position
        double cutoff = 0.0; ///< far-BE cutoff radius at rep
    };

    /**
     * Resolve the far-BE panorama a client standing at @p pos
     * receives: positions within the same quantization cell (pitch =
     * max(@p distThresh, grid spacing) — the paper's FI-location
     * similarity radius) share one key and render from the cell's
     * representative point.
     */
    FarBeLookup farBeLookup(geom::Vec2 pos, double distThresh, int width,
                            int height) const;

    /** Render the panorama a resolved lookup describes (cache-free;
     *  the caller owns publication). @p threads: 0 = shared pool,
     *  1 = serial. */
    image::Image renderFarBe(const FarBeLookup &lookup,
                             int threads = 0) const;

    /** World identity folded into every render-cache key. */
    std::uint64_t worldTag() const { return worldTag_; }

    /** Encoded far-BE frame size at a grid point (bytes). */
    std::uint64_t farBeBytes(world::GridPoint g) const;

    /** Encoded whole-BE frame size (Furion-style) at a grid point. */
    std::uint64_t wholeBeBytes(world::GridPoint g) const;

    /** Encoded per-eye FoV frame size (Thin-client). */
    std::uint64_t fovFrameBytes(world::GridPoint g) const;

    /** Mean sizes over sampled grid points (for reporting). */
    double meanFarBeKb(int samples = 256, std::uint64_t seed = 3) const;
    double meanWholeBeKb(int samples = 256, std::uint64_t seed = 3) const;

    const world::GridMap &grid() const { return grid_; }
    const RegionIndex &regions() const { return regions_; }
    const world::VirtualWorld &world() const { return world_; }
    const FrameStoreParams &params() const { return params_; }

  private:
    /** Content complexity in [0,1] for the far / whole layer at g. */
    double farComplexity(geom::Vec2 p) const;
    double wholeComplexity(geom::Vec2 p) const;

    const world::VirtualWorld &world_;
    const world::GridMap &grid_;
    const RegionIndex &regions_;
    FrameStoreParams params_;
    /** World identity folded into every cache key. */
    std::uint64_t worldTag_;
    /**
     * Complexity cached per leaf region (cheap, stable, deterministic —
     * the cached value never depends on which thread computed it).
     * Guarded so size queries may run from pool tasks.
     */
    mutable support::Mutex cplxMutex_{"FrameStore::cplxMutex_"};
    mutable std::unordered_map<std::uint32_t, double>
        farCplx_ COTERIE_GUARDED_BY(cplxMutex_);
    mutable std::unordered_map<std::uint32_t, double>
        wholeCplx_ COTERIE_GUARDED_BY(cplxMutex_);
};

} // namespace coterie::core

