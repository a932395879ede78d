/**
 * @file
 * Adaptive cutoff scheme (paper §4.3): recursively quadtree-partition
 * the virtual world until the per-location maximal cutoff radiuses
 * within each subregion are roughly uniform; each leaf region gets the
 * minimum of its sampled radiuses. This reduces cutoff calculations
 * from hundreds of millions of grid points to a few hundred leaf
 * regions (Table 3).
 */

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/cutoff.hh"
#include "geom/region.hh"

namespace coterie::core {

/** Partitioning knobs. */
struct PartitionParams
{
    /** Samples per region (paper's K; K = 10 keeps Constraint-1
     *  violations under 0.25%, Figure 6). */
    int samplesPerRegion = 10;
    /**
     * Radius-uniformity test: a region splits when
     * (max - min) > max(absoluteSlack, relativeSlack * max).
     */
    double relativeSlack = 0.35;
    double absoluteSlack = 1.2;
    /**
     * Safety shrink applied to each leaf's minimal sampled radius: the
     * K samples can miss the densest spot of a region, so the recorded
     * cutoff keeps headroom (this is what pushes the Figure 6
     * violation rate toward zero at K = 10).
     */
    double cutoffSafetyFactor = 0.85;
    /** The world is always split at least this deep (the paper's
     *  shallowest quadtree is the complete depth-2 Bowling tree). */
    int minDepth = 2;
    /** Depth cap and minimum region edge stop the recursion. The
     *  offline tool never splits below 1/64 of the world edge (the
     *  deepest quadtree the paper reports is depth 6). A value of 0
     *  means "derive from the world bounds". */
    int maxDepth = 6;
    double minRegionEdge = 0.0;
    /**
     * Reachability predicate: the offline tool only processes grid
     * points the player can reach (e.g. the track corridor in racing
     * games). Sampling is restricted to reachable locations; regions
     * with no reachable locations become single unreachable leaves.
     * Null means everywhere is reachable.
     */
    std::function<bool(geom::Vec2)> reachable;
    std::uint64_t seed = 99;
    CutoffConstraint constraint{};
    /**
     * Threading for the per-region cutoff searches: 0 = shared pool,
     * 1 = serial. Leaf output is identical either way (sample
     * locations are always drawn on the caller thread).
     */
    int threads = 0;
};

/** One undivided ("leaf") region of the quadtree. */
struct LeafRegion
{
    std::uint32_t id = 0;
    geom::Rect rect;
    int depth = 0;
    /** Minimal sampled maximal cutoff radius: safe everywhere within. */
    double cutoffRadius = 0.0;
    /** Mean object-triangle density over the samples (tri/m^2). */
    double triangleDensity = 0.0;
    /** False when no reachable location was found in the region. */
    bool reachable = true;
};

/** Result of the adaptive partitioning. */
struct PartitionResult
{
    std::vector<LeafRegion> leaves;
    std::uint64_t cutoffCalculations = 0; ///< total sampled locations
    double avgLeafDepth = 0.0;
    int maxLeafDepth = 0;
    double wallClockSeconds = 0.0; ///< our actual compute time
    /**
     * Modeled offline processing time (hours) had each sampled cutoff
     * been measured with real pre-renders on the testbed, for
     * comparison against Table 3's "Proc. Time".
     */
    double modeledHours = 0.0;
};

/**
 * Spatial index over the leaves: maps a world position to its leaf
 * region (the frame-cache lookup's "same leaf region" criterion).
 *
 * A uniform guess grid at the finest leaf edge answers most points in
 * one rect test. Its cells need not line up with the leaves (Viking's
 * 2.01 m columns straddle its 2.92 m-wide finest leaves), so a point
 * the guess does not hold falls back to the first leaf in `leaves()`
 * order that holds it. That fallback scans only the cell's candidate
 * list: every leaf whose closed rect maps into the cell, in `leaves()`
 * order, so it returns the same leaf a scan of all leaves would. Points
 * on shared leaf edges are common on the FI grid, and the answer order
 * decides them.
 */
class RegionIndex
{
  public:
    RegionIndex(geom::Rect bounds, std::vector<LeafRegion> leaves);

    /** Leaf containing @p p (bounds-clamped): the guess cell's leaf if
     *  it holds the point, else the first leaf in order that does, else
     *  the guess. */
    const LeafRegion &leafAt(geom::Vec2 p) const;

    const std::vector<LeafRegion> &leaves() const { return leaves_; }

    /** Cutoff radius in force at @p p. */
    double cutoffAt(geom::Vec2 p) const { return leafAt(p).cutoffRadius; }

  private:
    /** Guess-grid cell of a bounds-clamped point, clamped to the grid.
     *  Monotone in each coordinate, which is what lets the constructor
     *  build complete candidate lists from leaf corners alone. */
    int cellX(double x) const;
    int cellY(double y) const;

    geom::Rect bounds_;
    std::vector<LeafRegion> leaves_;
    // Uniform lookup grid of leaf ids for O(1) point location.
    int gridCols_ = 0;
    int gridRows_ = 0;
    std::vector<std::uint32_t> lookup_;
    /** Per-cell fallback candidates in CSR form: cell c's leaf indices
     *  are candidates_[candidateStart_[c] .. candidateStart_[c + 1]). */
    std::vector<std::uint32_t> candidateStart_;
    std::vector<std::uint32_t> candidates_;
};

/** Run the adaptive cutoff scheme over a world for a device. */
PartitionResult partitionWorld(const world::VirtualWorld &world,
                               const device::PhoneProfile &profile,
                               const PartitionParams &params = {});

/**
 * Fraction of trace locations whose region cutoff violates Constraint 1
 * (the Figure 6 metric), evaluated over @p locations.
 */
double constraintViolationRate(const world::VirtualWorld &world,
                               const device::PhoneProfile &profile,
                               const RegionIndex &index,
                               const std::vector<geom::Vec2> &locations,
                               const CutoffConstraint &constraint = {});

} // namespace coterie::core

