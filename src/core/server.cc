#include "core/server.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "image/size_model.hh"
#include "support/rng.hh"

namespace coterie::core {

using geom::Vec2;
using image::FrameContent;
using image::FrameSizeSpec;

namespace {

/** Stable identity of a world for panorama cache keys. */
std::uint64_t
worldTagOf(const world::VirtualWorld &world)
{
    std::uint64_t tag = hashMix(world.objects().size());
    for (const char c : world.name())
        tag = hashCombine(tag, hashMix(static_cast<std::uint64_t>(
                                   static_cast<unsigned char>(c))));
    return tag;
}

} // namespace

FrameStore::FrameStore(const world::VirtualWorld &world,
                       const world::GridMap &grid,
                       const RegionIndex &regions, FrameStoreParams params)
    : world_(world), grid_(grid), regions_(regions), params_(params),
      worldTag_(worldTagOf(world))
{
}

double
FrameStore::wholeComplexity(Vec2 p) const
{
    const LeafRegion &leaf = regions_.leafAt(p);
    {
        support::MutexLock lock(cplxMutex_);
        const auto it = wholeCplx_.find(leaf.id);
        if (it != wholeCplx_.end())
            return it->second;
    }
    // Whole-BE complexity: content density near the viewer dominates
    // the frame (perspective projection).
    // Object density plus terrain ruggedness (mountainous worlds carry
    // high-frequency texture everywhere, and encode large).
    // Sampled at the leaf's canonical point, never the query point:
    // the cache is keyed per leaf and first-writer-wins, so a value
    // derived from the query would make every later lookup depend on
    // which session (and on the parallel engine, which lane
    // interleaving) asked first.
    const double density = world_.triangleDensity(leaf.rect.center(), 40.0);
    const double rugged = world_.terrain().params().amplitude;
    const double cplx = std::clamp(
        0.14 + 0.6 * density / params_.complexitySaturationDensity +
            0.012 * rugged,
        0.05, 1.0);
    support::MutexLock lock(cplxMutex_);
    wholeCplx_.emplace(leaf.id, cplx);
    return cplx;
}

double
FrameStore::farComplexity(Vec2 p) const
{
    const LeafRegion &leaf = regions_.leafAt(p);
    {
        support::MutexLock lock(cplxMutex_);
        const auto it = farCplx_.find(leaf.id);
        if (it != farCplx_.end())
            return it->second;
    }
    // Far-BE complexity: only content beyond the cutoff contributes,
    // and it projects smaller — flatter, more compressible frames.
    // Canonical-point sampling for the same reason as wholeComplexity:
    // the per-leaf cache must hold a pure function of the leaf.
    const double cutoff = leaf.cutoffRadius;
    const double far_density = world_.triangleDensity(
        leaf.rect.center(), std::max(cutoff * 4.0, 120.0));
    const double cplx = std::clamp(
        0.25 + 0.9 * far_density / params_.complexitySaturationDensity,
        0.05, 1.0);
    support::MutexLock lock(cplxMutex_);
    farCplx_.emplace(leaf.id, cplx);
    return cplx;
}

std::uint64_t
FrameStore::farBeBytes(world::GridPoint g) const
{
    const Vec2 p = grid_.position(g);
    FrameSizeSpec spec;
    spec.width = params_.panoWidth;
    spec.height = params_.panoHeight;
    spec.content = FrameContent::FarBE;
    spec.complexity = farComplexity(p);
    return image::modelFrameBytes(spec);
}

std::uint64_t
FrameStore::wholeBeBytes(world::GridPoint g) const
{
    const Vec2 p = grid_.position(g);
    FrameSizeSpec spec;
    spec.width = params_.panoWidth;
    spec.height = params_.panoHeight;
    spec.content = FrameContent::WholeBE;
    spec.complexity = wholeComplexity(p);
    return image::modelFrameBytes(spec);
}

std::uint64_t
FrameStore::fovFrameBytes(world::GridPoint g) const
{
    const Vec2 p = grid_.position(g);
    FrameSizeSpec spec;
    // Thin-client streams display-resolution frames (1920x1080).
    spec.width = 1920;
    spec.height = 1080;
    spec.content = FrameContent::FovFrame;
    spec.complexity = wholeComplexity(p);
    return image::modelFrameBytes(spec);
}

FrameStore::FarBeLookup
FrameStore::farBeLookup(Vec2 pos, double distThresh, int width,
                        int height) const
{
    // Quantize the FI location: positions within `pitch` of each other
    // are "similar enough" to share a far-BE frame (the background
    // changes imperceptibly below the distance threshold). Grid spacing
    // is the floor so cells are never finer than the frame grid.
    const geom::Rect &b = world_.bounds();
    const double pitch = std::max(distThresh, grid_.spacing());
    const auto qx =
        static_cast<std::int64_t>(std::floor((pos.x - b.lo.x) / pitch));
    const auto qy =
        static_cast<std::int64_t>(std::floor((pos.y - b.lo.y) / pitch));
    // Every position in the cell renders from the cell's representative
    // point, clamped into bounds (edge cells overhang the world).
    const Vec2 rep{std::clamp(b.lo.x + (qx + 0.5) * pitch, b.lo.x, b.hi.x),
                   std::clamp(b.lo.y + (qy + 0.5) * pitch, b.lo.y, b.hi.y)};
    const double cutoff = regions_.cutoffAt(rep);

    FarBeLookup lookup;
    lookup.rep = rep;
    lookup.cutoff = cutoff;
    lookup.key.worldTag = worldTag_;
    lookup.key.qx = qx;
    lookup.key.qy = qy;
    lookup.key.cutoffBits = std::bit_cast<std::uint64_t>(cutoff);
    lookup.key.pitchBits = std::bit_cast<std::uint64_t>(pitch);
    lookup.key.width = width;
    lookup.key.height = height;
    return lookup;
}

image::Image
FrameStore::renderFarBe(const FarBeLookup &lookup, int threads) const
{
    const render::Renderer renderer(world_);
    render::RenderOptions opts;
    opts.layer = render::DepthLayer::farBe(lookup.cutoff);
    opts.threads = threads;
    return renderer.renderPanorama(world_.eyePosition(lookup.rep),
                                   lookup.key.width, lookup.key.height,
                                   opts);
}

double
FrameStore::meanFarBeKb(int samples, std::uint64_t seed) const
{
    Rng rng(seed);
    double acc = 0.0;
    for (int i = 0; i < samples; ++i) {
        const world::GridPoint g{rng.uniformInt(0, grid_.cols() - 1),
                                 rng.uniformInt(0, grid_.rows() - 1)};
        acc += static_cast<double>(farBeBytes(g));
    }
    return acc / samples / 1024.0;
}

double
FrameStore::meanWholeBeKb(int samples, std::uint64_t seed) const
{
    Rng rng(seed);
    double acc = 0.0;
    for (int i = 0; i < samples; ++i) {
        const world::GridPoint g{rng.uniformInt(0, grid_.cols() - 1),
                                 rng.uniformInt(0, grid_.rows() - 1)};
        acc += static_cast<double>(wholeBeBytes(g));
    }
    return acc / samples / 1024.0;
}

} // namespace coterie::core
