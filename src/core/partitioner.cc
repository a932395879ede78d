#include "core/partitioner.hh"

#include <algorithm>
#include <cmath>

#include "obs/clock.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "support/logging.hh"
#include "support/parallel.hh"
#include "support/rng.hh"

namespace coterie::core {

using geom::Rect;
using geom::Vec2;

namespace {

/** Modeled seconds per sampled cutoff on the paper's testbed: each
 *  sample binary-searches the radius with a handful of trial renders
 *  and render-time measurements on the device. */
constexpr double kModeledSecondsPerSample = 3.0;

struct BuildContext
{
    const world::VirtualWorld &world;
    const device::PhoneProfile &profile;
    const PartitionParams &params;
    Rng rng;
    std::vector<LeafRegion> leaves;
    std::uint64_t calculations = 0;
};

void
partitionRecursive(BuildContext &ctx, const Rect &rect, int depth)
{
    const PartitionParams &params = ctx.params;

    std::vector<double> radii;
    radii.reserve(params.samplesPerRegion);
    double density_acc = 0.0;
    bool reachable = true;
    // Rejection-sample reachable locations; if the region contains
    // none (e.g. off-track wilderness), fall back to unrestricted
    // samples and mark the leaf unreachable.
    std::vector<Vec2> samples;
    if (params.reachable) {
        const int budget = params.samplesPerRegion * 60;
        for (int tries = 0;
             tries < budget &&
             samples.size() <
                 static_cast<std::size_t>(params.samplesPerRegion);
             ++tries) {
            const Vec2 p{ctx.rng.uniform(rect.lo.x, rect.hi.x),
                         ctx.rng.uniform(rect.lo.y, rect.hi.y)};
            if (params.reachable(p))
                samples.push_back(p);
        }
        reachable = !samples.empty();
    }
    if (samples.empty()) {
        for (int i = 0; i < params.samplesPerRegion; ++i) {
            samples.push_back(Vec2{ctx.rng.uniform(rect.lo.x, rect.hi.x),
                                   ctx.rng.uniform(rect.lo.y, rect.hi.y)});
        }
    }
    // The K sampled cutoff searches are independent pure queries; fan
    // them out over the shared pool. Only the RNG draws above stay on
    // the caller thread, so leaf output is seed-for-seed identical at
    // any thread count (results are reduced in sample order).
    struct SampleEval
    {
        double radius = 0.0;
        double density = 0.0;
    };
    const auto evals = support::parallelMap<SampleEval>(
        static_cast<std::int64_t>(samples.size()), 1,
        [&](std::int64_t i) -> SampleEval {
            const Vec2 p = samples[static_cast<std::size_t>(i)];
            return {maxCutoffRadius(ctx.world, p, ctx.profile,
                                    params.constraint),
                    ctx.world.triangleDensity(p, 12.0)};
        },
        params.threads);
    for (const SampleEval &eval : evals) {
        radii.push_back(eval.radius);
        density_acc += eval.density;
        ++ctx.calculations;
    }
    const auto [min_it, max_it] =
        std::minmax_element(radii.begin(), radii.end());
    const double min_r = *min_it;
    const double max_r = *max_it;

    const bool uniform =
        depth >= params.minDepth &&
        (max_r - min_r) <=
            std::max(params.absoluteSlack, params.relativeSlack * max_r);
    const bool can_split =
        depth < params.maxDepth &&
        std::min(rect.width(), rect.height()) / 2.0 >= params.minRegionEdge;

    if (uniform || !can_split || !reachable) {
        LeafRegion leaf;
        leaf.id = static_cast<std::uint32_t>(ctx.leaves.size());
        leaf.rect = rect;
        leaf.depth = depth;
        // Conservative region-wide cutoff: sampled minimum with a
        // safety margin for unsampled denser spots.
        leaf.cutoffRadius =
            std::max(params.constraint.minRadius,
                     min_r * params.cutoffSafetyFactor);
        leaf.triangleDensity =
            density_acc / static_cast<double>(samples.size());
        leaf.reachable = reachable;
        ctx.leaves.push_back(leaf);
        return;
    }

    for (const Rect &quadrant : rect.quadrants())
        partitionRecursive(ctx, quadrant, depth + 1);
}

} // namespace

PartitionResult
partitionWorld(const world::VirtualWorld &world,
               const device::PhoneProfile &profile,
               const PartitionParams &params)
{
    COTERIE_SPAN("core.partition", "core");
    const obs::Stopwatch watch;
    PartitionParams effective = params;
    if (effective.minRegionEdge <= 0.0) {
        effective.minRegionEdge =
            std::min(world.bounds().width(), world.bounds().height()) /
            std::exp2(effective.maxDepth);
    }
    BuildContext ctx{world, profile, effective, Rng(params.seed), {}, 0};
    partitionRecursive(ctx, world.bounds(), 0);

    PartitionResult result;
    result.leaves = std::move(ctx.leaves);
    result.cutoffCalculations = ctx.calculations;
    double depth_acc = 0.0;
    for (const LeafRegion &leaf : result.leaves) {
        depth_acc += leaf.depth;
        result.maxLeafDepth = std::max(result.maxLeafDepth, leaf.depth);
    }
    result.avgLeafDepth =
        result.leaves.empty()
            ? 0.0
            : depth_acc / static_cast<double>(result.leaves.size());
    result.wallClockSeconds = watch.elapsedSeconds();
    result.modeledHours = static_cast<double>(result.cutoffCalculations) *
                          kModeledSecondsPerSample / 3600.0;
    COTERIE_COUNT_N("core.partition_leaves", result.leaves.size());
    COTERIE_OBSERVE("core.partition_ms", watch.elapsedMillis());
    return result;
}

RegionIndex::RegionIndex(Rect bounds, std::vector<LeafRegion> leaves)
    : bounds_(bounds), leaves_(std::move(leaves))
{
    COTERIE_ASSERT(!leaves_.empty(), "RegionIndex needs leaves");
    // Resolution: the finest leaf edge, bounded for memory.
    double finest = std::min(bounds.width(), bounds.height());
    for (const LeafRegion &leaf : leaves_)
        finest = std::min(finest,
                          std::min(leaf.rect.width(), leaf.rect.height()));
    const int max_cells = 1024;
    gridCols_ = std::clamp(
        static_cast<int>(std::ceil(bounds.width() / finest)), 1, max_cells);
    gridRows_ = std::clamp(
        static_cast<int>(std::ceil(bounds.height() / finest)), 1, max_cells);
    lookup_.assign(static_cast<std::size_t>(gridCols_) * gridRows_, 0);
    for (const LeafRegion &leaf : leaves_) {
        const auto x0 = static_cast<int>(
            (leaf.rect.lo.x - bounds.lo.x) / bounds.width() * gridCols_);
        const auto x1 = static_cast<int>(std::ceil(
            (leaf.rect.hi.x - bounds.lo.x) / bounds.width() * gridCols_));
        const auto y0 = static_cast<int>(
            (leaf.rect.lo.y - bounds.lo.y) / bounds.height() * gridRows_);
        const auto y1 = static_cast<int>(std::ceil(
            (leaf.rect.hi.y - bounds.lo.y) / bounds.height() * gridRows_));
        for (int y = std::max(0, y0); y < std::min(gridRows_, y1); ++y) {
            for (int x = std::max(0, x0); x < std::min(gridCols_, x1); ++x) {
                // Cells fully inside one leaf (quadtree cells align);
                // boundary cells resolve by center containment below.
                lookup_[static_cast<std::size_t>(y) * gridCols_ + x] =
                    leaf.id;
            }
        }
    }

    // Fallback candidates. A point q in a leaf's closed rect has
    // lo <= q <= hi per axis, and the cell mapping is monotone, so q's
    // cell lies in the block its corners map to. Appending each leaf to
    // its block's cells in leaf order keeps every list in that order.
    const std::size_t cells = lookup_.size();
    candidateStart_.assign(cells + 1, 0);
    const auto forEachCell = [&](const LeafRegion &leaf, auto &&fn) {
        const int x1 = cellX(leaf.rect.hi.x);
        const int y1 = cellY(leaf.rect.hi.y);
        for (int y = cellY(leaf.rect.lo.y); y <= y1; ++y)
            for (int x = cellX(leaf.rect.lo.x); x <= x1; ++x)
                fn(static_cast<std::size_t>(y) * gridCols_ + x);
    };
    for (const LeafRegion &leaf : leaves_)
        forEachCell(leaf, [&](std::size_t c) { ++candidateStart_[c + 1]; });
    for (std::size_t c = 0; c < cells; ++c)
        candidateStart_[c + 1] += candidateStart_[c];
    candidates_.resize(candidateStart_[cells]);
    std::vector<std::uint32_t> fill(candidateStart_.begin(),
                                    candidateStart_.end() - 1);
    for (std::uint32_t i = 0; i < leaves_.size(); ++i)
        forEachCell(leaves_[i],
                    [&](std::size_t c) { candidates_[fill[c]++] = i; });
}

int
RegionIndex::cellX(double x) const
{
    return std::clamp(static_cast<int>((x - bounds_.lo.x) /
                                       bounds_.width() * gridCols_),
                      0, gridCols_ - 1);
}

int
RegionIndex::cellY(double y) const
{
    return std::clamp(static_cast<int>((y - bounds_.lo.y) /
                                       bounds_.height() * gridRows_),
                      0, gridRows_ - 1);
}

const LeafRegion &
RegionIndex::leafAt(Vec2 p) const
{
    const Vec2 q = bounds_.clamp(p);
    const std::size_t cell =
        static_cast<std::size_t>(cellY(q.y)) * gridCols_ + cellX(q.x);
    const LeafRegion &guess = leaves_[lookup_[cell]];
    if (guess.rect.containsClosed(q))
        return guess;
    // Boundary cell: the first candidate in leaf order that holds q.
    for (std::uint32_t i = candidateStart_[cell];
         i < candidateStart_[cell + 1]; ++i) {
        const LeafRegion &leaf = leaves_[candidates_[i]];
        if (leaf.rect.containsClosed(q))
            return leaf;
    }
    return guess;
}

double
constraintViolationRate(const world::VirtualWorld &world,
                        const device::PhoneProfile &profile,
                        const RegionIndex &index,
                        const std::vector<Vec2> &locations,
                        const CutoffConstraint &constraint)
{
    if (locations.empty())
        return 0.0;
    std::size_t violations = 0;
    for (const Vec2 &p : locations) {
        const double cutoff = index.cutoffAt(p);
        if (nearBeRenderTimeMs(world, p, cutoff, profile) >=
            constraint.nearBudgetMs()) {
            ++violations;
        }
    }
    return static_cast<double>(violations) /
           static_cast<double>(locations.size());
}

} // namespace coterie::core
