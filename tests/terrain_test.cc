/**
 * @file
 * Tests for the procedural terrain: determinism, continuity, flat
 * floors, ray-march/heightfield consistency, the soundness of the
 * min/max height grid, exact agreement of the table-read noise with
 * hashed value noise, and the foothold query used to place the player
 * camera.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "reference_render.hh"
#include "support/rng.hh"
#include "world/gen/generators.hh"
#include "world/terrain.hh"
#include "world/world.hh"

namespace coterie::world {
namespace {

using geom::Ray;
using geom::Rect;
using geom::Vec2;
using geom::Vec3;

/** Extent for the standalone terrains: covers every test ray. */
const Rect kExtent{{-100.0, -100.0}, {100.0, 100.0}};

TEST(Terrain, DeterministicInSeed)
{
    TerrainParams p;
    p.seed = 77;
    Terrain a(p, kExtent), b(p, kExtent);
    for (double x = 0; x < 50; x += 7.3)
        EXPECT_DOUBLE_EQ(a.heightAt({x, x * 2}), b.heightAt({x, x * 2}));
    p.seed = 78;
    Terrain c(p, kExtent);
    bool differs = false;
    for (double x = 0; x < 50; x += 7.3)
        differs |= a.heightAt({x, x}) != c.heightAt({x, x});
    EXPECT_TRUE(differs);
}

TEST(Terrain, HeightBoundedByAmplitude)
{
    TerrainParams p;
    p.amplitude = 3.0;
    Terrain t(p, kExtent);
    for (double x = -100; x < 100; x += 3.7)
        for (double y = -100; y < 100; y += 11.1)
            EXPECT_LE(std::abs(t.heightAt({x, y})), p.amplitude + 1e-9);
}

TEST(Terrain, Continuity)
{
    const Terrain t(TerrainParams{}, kExtent);
    const double h0 = t.heightAt({10.0, 10.0});
    const double h1 = t.heightAt({10.001, 10.0});
    EXPECT_NEAR(h0, h1, 0.01);
}

TEST(Terrain, FlatFloorIsZero)
{
    TerrainParams p;
    p.flat = true;
    Terrain t(p, kExtent);
    EXPECT_DOUBLE_EQ(t.heightAt({12.3, -4.5}), 0.0);
    EXPECT_EQ(t.normalAt({1, 1}), Vec3(0.0, 1.0, 0.0));
}

TEST(Terrain, FootholdEqualsHeight)
{
    const Terrain t(TerrainParams{}, kExtent);
    const Vec2 p{31.0, 8.0};
    EXPECT_DOUBLE_EQ(t.foothold(p), t.heightAt(p));
}

TEST(Terrain, NormalIsUnitAndUpish)
{
    const Terrain t(TerrainParams{}, kExtent);
    for (double x = 0; x < 60; x += 13.7) {
        const Vec3 n = t.normalAt({x, 2 * x});
        EXPECT_NEAR(n.length(), 1.0, 1e-9);
        EXPECT_GT(n.y, 0.5); // gentle terrain: mostly up
    }
}

TEST(Terrain, DownwardRayHitsSurfaceAtHeight)
{
    const Terrain t(TerrainParams{}, kExtent);
    const Vec2 ground{25.0, 40.0};
    Ray ray;
    ray.origin = geom::lift(ground, 50.0);
    ray.dir = {0.0, -1.0, 0.0};
    const auto hit = t.intersect(ray, 1000.0);
    ASSERT_TRUE(hit.has_value());
    const Vec3 p = ray.at(*hit);
    EXPECT_NEAR(p.y, t.heightAt(p.ground()), 0.05);
}

TEST(Terrain, UpwardRayEscapes)
{
    const Terrain t(TerrainParams{}, kExtent);
    Ray ray;
    ray.origin = {10.0, 10.0, 10.0};
    ray.dir = Vec3{0.1, 1.0, 0.1}.normalized();
    EXPECT_FALSE(t.intersect(ray, 1000.0).has_value());
}

TEST(Terrain, RayStartingBelowSurfaceIsClippedOut)
{
    const Terrain t(TerrainParams{}, kExtent);
    Ray ray;
    // Start well below any terrain and look horizontally: the clipped
    // start is below ground, which the renderer treats as "clipped".
    ray.origin = {10.0, -50.0, 10.0};
    ray.dir = {1.0, 0.0, 0.0};
    EXPECT_FALSE(t.intersect(ray, 200.0).has_value());
}

TEST(Terrain, FlatFloorRayIntersection)
{
    TerrainParams p;
    p.flat = true;
    Terrain t(p, kExtent);
    Ray ray;
    ray.origin = {0.0, 2.0, 0.0};
    ray.dir = Vec3{1.0, -1.0, 0.0}.normalized();
    const auto hit = t.intersect(ray, 100.0);
    ASSERT_TRUE(hit.has_value());
    EXPECT_NEAR(ray.at(*hit).y, 0.0, 1e-9);
}

/** How the min/max grid settles one crossing test of the march. */
enum GridOutcome { Above, AtOrBelow, Undecided, OutOfGrid, kOutcomes };

/**
 * Classify the test `y - heightAt(g) <= 0` the way `intersect` meets
 * it, and check that every decision the bounds make agrees with the
 * exact test.
 */
GridOutcome
gridOutcome(const Terrain &t, double y, Vec2 g)
{
    const Terrain::GridShape &s = t.gridShape();
    if (!(g.x >= s.origin.x && g.x < s.origin.x + s.cols * s.cell &&
          g.y >= s.origin.y && g.y < s.origin.y + s.rows * s.cell))
        return OutOfGrid;
    const Terrain::HeightBounds b = t.heightBounds(g);
    const bool below = y - t.heightAt(g) <= 0.0;
    if (y > b.hi) {
        EXPECT_FALSE(below);
        return Above;
    }
    if (y <= b.lo) {
        EXPECT_TRUE(below);
        return AtOrBelow;
    }
    return Undecided;
}

TEST(Terrain, MarchMatchesReferenceOverRaySweep)
{
    // The grid-assisted march must be bit-identical to the per-sample
    // reference march: same hit/miss decision and the exact same
    // distance.
    TerrainParams p;
    p.seed = 9;
    p.amplitude = 4.0;
    const double maxDist = 300.0;
    const Terrain t(p, Rect{{-340.0, -340.0}, {340.0, 340.0}});
    int hits = 0, misses = 0;
    const auto expectMatch = [&](const Ray &ray) {
        const auto fast = t.intersect(ray, maxDist);
        const auto ref = render::reference::terrainIntersect(t, ray, maxDist);
        ASSERT_EQ(fast.has_value(), ref.has_value());
        if (ref) {
            EXPECT_EQ(*fast, *ref);
            ++hits;
        } else {
            ++misses;
        }
    };
    const auto direction = [](double yaw, double pitch) {
        return Vec3{std::cos(yaw) * std::cos(pitch), std::sin(pitch),
                    std::sin(yaw) * std::cos(pitch)}
            .normalized();
    };
    for (double ox = -40; ox <= 40; ox += 16.0) {
        for (double oy : {1.5, 6.0, 30.0}) {
            for (double pitch : {-0.8, -0.2, -0.02, 0.0, 0.15}) {
                for (double yaw = 0.0; yaw < 6.0; yaw += 0.9) {
                    Ray ray;
                    ray.origin = {ox, oy, -ox * 0.5};
                    ray.dir = direction(yaw, pitch);
                    expectMatch(ray);
                }
            }
        }
    }
    // The sweep must exercise both outcomes to mean anything.
    EXPECT_GT(hits, 100);
    EXPECT_GT(misses, 100);

    // Far-BE-shaped rays: the eye 1.7 m above the foothold and the
    // march starting at a cutoff, from feet inside the grid, on its
    // edges and outside it. The schedule walk below mirrors the
    // reference march to classify each sample it tests.
    const Terrain::GridShape &s = t.gridShape();
    const double gridEnd = s.origin.x + s.cols * s.cell;
    int start[kOutcomes] = {};
    int sample[kOutcomes] = {};
    for (double fx : {0.0, s.origin.x, gridEnd, gridEnd + 40.0}) {
        const Vec2 foot{fx, 0.3 * fx};
        for (double cutoff : {5.0, 15.0, 30.0, 60.0}) {
            for (double pitch : {-0.5, -0.15, -0.05, 0.0, 0.1}) {
                for (double yaw = 0.0; yaw < 6.0; yaw += 0.7) {
                    Ray ray;
                    ray.origin = geom::lift(foot, t.heightAt(foot) + 1.7);
                    ray.dir = direction(yaw, pitch);
                    ray.tMin = cutoff;
                    expectMatch(ray);
                    const Vec3 s0 = ray.at(cutoff);
                    const double y0 = ray.origin.y + cutoff * ray.dir.y;
                    ++start[gridOutcome(t, y0, s0.ground())];
                    if (y0 - t.heightAt(s0.ground()) <= 0.0)
                        continue; // clipped out at the start
                    for (double tt = cutoff; tt < maxDist;) {
                        tt = std::min(maxDist, tt + std::max(0.35, tt * 0.025));
                        const Vec3 q = ray.at(tt);
                        if (ray.dir.y >= 0.0 && q.y > p.amplitude + 0.5)
                            break;
                        ++sample[gridOutcome(t, q.y, q.ground())];
                        if (q.y - t.heightAt(q.ground()) <= 0.0)
                            break;
                    }
                }
            }
        }
    }
    // No grid branch is tested vacuously.
    for (int o = 0; o < kOutcomes; ++o) {
        EXPECT_GT(start[o], 0) << "start outcome " << o;
        EXPECT_GT(sample[o], 0) << "sample outcome " << o;
    }
}

/** What the row-march oracle saw over every row it checked. */
struct RowCoverage
{
    int hits = 0;
    int misses = 0;
    int finiteAborts = 0;
    /** Rows whose crossings fill a four-wide group and leave a
     *  remainder. */
    int groupedWithRemainder = 0;
    /** Rows in which a later ray marched past every earlier ray. */
    int laterRayMarchedFarther = 0;
};

/**
 * Send one row through `intersectRow` and check each ray against its
 * oracle: the per-sample reference march where its abort is infinite,
 * the one-ray `intersect` with the same abort where it is finite. The
 * row's counters must be the sum of the one-ray calls'.
 */
void
expectRowMatches(const Terrain &t, Vec3 origin, double tMin, double tMax,
                 double maxDist, const std::vector<Vec3> &dirs,
                 const std::vector<double> &aborts, RowCoverage &seen)
{
    const std::size_t n = dirs.size();
    std::vector<double> dx(n), dy(n), dz(n);
    for (std::size_t i = 0; i < n; ++i) {
        dx[i] = dirs[i].x;
        dy[i] = dirs[i].y;
        dz[i] = dirs[i].z;
    }
    const double inf = std::numeric_limits<double>::infinity();
    Terrain::takeThreadStats();
    std::vector<double> hit(n, std::numeric_limits<double>::quiet_NaN());
    t.intersectRow({origin, tMin, tMax, n, dx.data(), dy.data(), dz.data(),
                    aborts.data()},
                   maxDist, hit.data());
    const Terrain::MarchStats row = Terrain::takeThreadStats();

    Terrain::MarchStats sum;
    std::uint64_t farthest = 0;
    bool later_farther = false;
    int hits = 0;
    for (std::size_t i = 0; i < n; ++i) {
        SCOPED_TRACE(::testing::Message() << "ray " << i << " of " << n);
        Ray ray;
        ray.origin = origin;
        ray.dir = dirs[i];
        ray.tMin = tMin;
        ray.tMax = tMax;
        const auto one = t.intersect(ray, maxDist, aborts[i]);
        const Terrain::MarchStats s = Terrain::takeThreadStats();
        sum.marchSamples += s.marchSamples;
        sum.heightEvals += s.heightEvals;
        sum.offGridEvals += s.offGridEvals;
        later_farther |= i > 0 && s.marchSamples > farthest;
        farthest = std::max(farthest, s.marchSamples);
        EXPECT_EQ(hit[i], one ? *one : inf);
        if (std::isinf(aborts[i])) {
            const auto ref =
                render::reference::terrainIntersect(t, ray, maxDist);
            EXPECT_EQ(hit[i], ref ? *ref : inf);
        } else {
            ++seen.finiteAborts;
        }
        if (std::isfinite(hit[i]))
            ++hits;
    }
    EXPECT_EQ(row.marchSamples, sum.marchSamples);
    EXPECT_EQ(row.heightEvals, sum.heightEvals);
    EXPECT_EQ(row.offGridEvals, sum.offGridEvals);
    seen.hits += hits;
    seen.misses += static_cast<int>(n) - hits;
    seen.groupedWithRemainder += hits > 4 && hits % 4 != 0;
    seen.laterRayMarchedFarther += later_farther;
}

TEST(Terrain, RowMarchMatchesReference)
{
    TerrainParams p;
    p.seed = 9;
    p.amplitude = 4.0;
    const double maxDist = 300.0;
    const double inf = std::numeric_limits<double>::infinity();
    const Terrain t(p, Rect{{-340.0, -340.0}, {340.0, 340.0}});
    const Terrain::GridShape &s = t.gridShape();
    const double gridEnd = s.origin.x + s.cols * s.cell;
    Rng rng(23);
    RowCoverage seen;
    // Each row pair gets its own cutoff, so its first row's march
    // starts from an empty schedule and a later, longer ray extends it
    // mid-row; the second row reuses that schedule, or, with another
    // far clip, must not.
    double cutoff = 1.0;
    const auto nextCutoff = [&] { return cutoff += 0.01; };
    // Alternate infinite and finite aborts, or keep them all infinite.
    const auto abortsFor = [&](std::size_t n, bool mixed) {
        std::vector<double> a(n, inf);
        for (std::size_t i = 1; mixed && i < n; i += 2)
            a[i] = rng.uniform(0.5, 150.0);
        return a;
    };
    for (const std::size_t n : {1, 3, 4, 5, 64, 513}) {
        SCOPED_TRACE(::testing::Message() << n << " rays");
        for (const double fx : {0.0, gridEnd + 40.0}) {
            const Vec2 foot{fx, 0.3 * fx};
            const double ground = t.heightAt(foot);
            // Panorama rows: every ray of a row shares its dirY; rows
            // climb, graze the horizon and descend.
            for (const double v : {0.35, 0.49, 0.51, 0.56, 0.7, 0.9}) {
                std::vector<Vec3> dirs;
                for (std::size_t x = 0; x < n; ++x)
                    dirs.push_back(render::panoramaDirection(
                        (static_cast<double>(x) + 0.5) / n, v));
                const double tMin = nextCutoff();
                for (const bool mixed : {false, true})
                    expectRowMatches(t, geom::lift(foot, ground + 1.7),
                                     tMin, inf, maxDist, dirs,
                                     abortsFor(n, mixed), seen);
            }
            // Perspective rows: a pitched camera gives each pixel its
            // own dirY; a finite far clip caps the march below maxDist.
            render::Camera camera;
            camera.position = geom::lift(foot, ground + 6.0);
            camera.yaw = 0.4;
            camera.pitch = -0.35;
            for (const double sy : {0.8, 0.1, -0.6}) {
                std::vector<Vec3> dirs;
                for (std::size_t x = 0; x < n; ++x)
                    dirs.push_back(camera.rayDirection(
                        2.0 * (static_cast<double>(x) + 0.5) / n - 1.0, sy,
                        1.5));
                const double tMin = nextCutoff();
                for (const double tMax : {inf, 60.0})
                    expectRowMatches(t, camera.position, tMin, tMax,
                                     maxDist, dirs, abortsFor(n, true),
                                     seen);
            }
            // Scattered rays from just above the ground with a cutoff
            // past it: descending rays start below the surface, the
            // rest climb or descend from above it.
            std::vector<Vec3> dirs;
            for (std::size_t x = 0; x < n; ++x)
                dirs.push_back(Vec3{rng.normal(), rng.normal() * 0.3,
                                    rng.normal()}
                                   .normalized());
            expectRowMatches(t, geom::lift(foot, ground + 0.2),
                             4.0 + nextCutoff(), inf, maxDist, dirs,
                             abortsFor(n, true), seen);
        }
    }
    // Every outcome is reached, and so are rows whose crossings fill a
    // four-wide group and leave a remainder, and rows in which a later
    // ray marches past every earlier ray (on a first row of a pair,
    // past the end of the schedule).
    EXPECT_GT(seen.hits, 4000);
    EXPECT_GT(seen.misses, 4000);
    EXPECT_GT(seen.finiteAborts, 4000);
    EXPECT_GT(seen.groupedWithRemainder, 10);
    EXPECT_GT(seen.laterRayMarchedFarther, 10);

    // Flat terrain: the exact plane solve per ray, inside and outside
    // the clip interval, and level rays that never meet it.
    TerrainParams flat;
    flat.flat = true;
    const Terrain flatFloor(flat, kExtent);
    std::vector<Vec3> dirs;
    for (const double dy : {-0.9, -0.3, -0.005, 0.0, 1e-13, 0.2})
        dirs.push_back(Vec3{0.7, dy, 0.2}.normalized());
    RowCoverage flat_seen;
    expectRowMatches(flatFloor, {1.0, 2.0, -3.0}, 0.5, 150.0, maxDist, dirs,
                     abortsFor(dirs.size(), true), flat_seen);
    EXPECT_EQ(flat_seen.hits, 2);
}

TEST(Terrain, CountsOffGridHeightEvals)
{
    TerrainParams p;
    p.amplitude = 4.0;
    const Terrain t(p, kExtent);
    const Terrain::GridShape &s = t.gridShape();
    Terrain::takeThreadStats(); // drop what earlier tests left
    // A level ray at mid-height, from past the grid's end and leading
    // away from it: the global bound decides none of its tests, so
    // every heightAt call it makes is off the grid.
    Ray out;
    out.origin = {s.origin.x + s.cols * s.cell + 10.0, 0.0, 0.0};
    out.dir = {1.0, 0.0, 0.0};
    t.intersect(out, 50.0);
    const Terrain::MarchStats off = Terrain::takeThreadStats();
    EXPECT_GT(off.offGridEvals, 0u);
    EXPECT_EQ(off.offGridEvals, off.heightEvals);
    // A ray dropping onto the grid's middle never leaves it.
    Ray in;
    in.origin = {0.0, 20.0, 0.0};
    in.dir = {0.0, -1.0, 0.0};
    EXPECT_TRUE(t.intersect(in, 100.0).has_value());
    const Terrain::MarchStats on = Terrain::takeThreadStats();
    EXPECT_GT(on.heightEvals, 0u);
    EXPECT_EQ(on.offGridEvals, 0u);
}

TEST(Terrain, AbortBeyondPreservesAcceptedHits)
{
    // Contract used by the renderer: capping the march at a known
    // object hit may only change outcomes *beyond* the cap. If the
    // capped march reports a hit, it is the uncapped hit; and any
    // uncapped hit at or before the cap survives capping.
    TerrainParams p;
    p.seed = 5;
    // Origins within ±50 m, rays up to 200 m.
    Terrain t(p, Rect{{-250.0, -250.0}, {250.0, 250.0}});
    Rng rng(31);
    for (int i = 0; i < 400; ++i) {
        Ray ray;
        ray.origin = {rng.uniform(-50, 50), rng.uniform(0.5, 25),
                      rng.uniform(-50, 50)};
        ray.dir = Vec3{rng.normal(), rng.normal() * 0.4, rng.normal()}
                      .normalized();
        const auto full = t.intersect(ray, 200.0);
        const double cap = rng.uniform(0.5, 150.0);
        const auto capped = t.intersect(ray, 200.0, cap);
        if (capped) {
            ASSERT_TRUE(full.has_value());
            EXPECT_EQ(*capped, *full);
        }
        if (full && *full <= cap) {
            ASSERT_TRUE(capped.has_value());
            EXPECT_EQ(*capped, *full);
        }
    }
    // An infinite cap is exactly the uncapped march.
    Ray ray;
    ray.origin = {3.0, 8.0, -2.0};
    ray.dir = Vec3{0.6, -0.25, 0.4}.normalized();
    const auto inf_cap = t.intersect(
        ray, 200.0, std::numeric_limits<double>::infinity());
    const auto plain = t.intersect(ray, 200.0);
    ASSERT_EQ(inf_cap.has_value(), plain.has_value());
    if (plain) {
        EXPECT_EQ(*inf_cap, *plain);
    }
}

/**
 * Assert `lo <= heightAt(p) <= hi` over @p t's grid: @p dense interior
 * points per cell and axis, every cell edge and corner, and the
 * nextafter neighbours on both sides of each; then at points outside
 * the grid, where the global ±|amplitude| bound applies. Returns the
 * mean bound width inside the grid.
 */
double
expectBoundsHold(const Terrain &t, int dense)
{
    const Terrain::GridShape &s = t.gridShape();
    EXPECT_GT(s.cols, 0);
    EXPECT_GT(s.rows, 0);
    const double inf = std::numeric_limits<double>::infinity();
    const auto axis = [&](double origin, int cells) {
        std::vector<double> v;
        for (int i = 0; i <= cells; ++i) {
            const double edge = origin + i * s.cell;
            v.push_back(std::nextafter(edge, -inf));
            v.push_back(edge);
            v.push_back(std::nextafter(edge, inf));
            for (int k = 0; k < dense && i < cells; ++k)
                v.push_back(edge + (k + 0.5) / dense * s.cell);
        }
        return v;
    };
    int failures = 0;
    const auto check = [&](Vec2 at) {
        const Terrain::HeightBounds b = t.heightBounds(at);
        const double h = t.heightAt(at);
        if (!(b.lo <= h && h <= b.hi) && ++failures <= 5) {
            ADD_FAILURE() << "height " << h << " outside [" << b.lo << ", "
                          << b.hi << "] at (" << at.x << ", " << at.y
                          << ")";
        }
        return b;
    };
    double width = 0.0;
    int points = 0;
    for (double y : axis(s.origin.y, s.rows))
        for (double x : axis(s.origin.x, s.cols)) {
            const Terrain::HeightBounds b = check({x, y});
            width += b.hi - b.lo;
            ++points;
        }
    const double amp = std::abs(t.params().amplitude);
    const Vec2 end{s.origin.x + s.cols * s.cell,
                   s.origin.y + s.rows * s.cell};
    for (const Vec2 out :
         {Vec2{s.origin.x - 0.5 * s.cell, s.origin.y + 0.5 * s.cell},
          Vec2{end.x, s.origin.y}, Vec2{s.origin.x, end.y},
          Vec2{end.x + 3.0 * s.cell, end.y + 1.0}, Vec2{-1.0e5, 2.5e5}}) {
        const Terrain::HeightBounds b = check(out);
        EXPECT_LE(b.lo, -amp);
        EXPECT_GE(b.hi, amp);
    }
    EXPECT_EQ(failures, 0);
    return width / points;
}

TEST(Terrain, HeightBoundsHoldOverGameTerrains)
{
    for (const gen::GameId id :
         {gen::GameId::Racing, gen::GameId::CTS, gen::GameId::Viking}) {
        const VirtualWorld world = gen::makeWorld(id, 42);
        SCOPED_TRACE(world.name());
        const double width = expectBoundsHold(world.terrain(), 3);
        // Tight enough to decide most samples: well under the global
        // bound's 2|amplitude|.
        EXPECT_LT(width, 0.5 * world.terrain().params().amplitude);
    }
}

/** Extent for the edge-parameter terrains: straddles x = 0. */
const Rect kEdgeExtent{{-13.3, 7.1}, {41.0, 52.5}};

/** -1/0/1/5 octaves, negative amplitude and `featureScale` 7. */
std::vector<TerrainParams>
edgeParamSets()
{
    std::vector<TerrainParams> sets;
    for (int octaves : {-1, 0, 1, 5}) {
        TerrainParams p;
        p.seed = 11;
        p.octaves = octaves;
        sets.push_back(p);
    }
    TerrainParams negative;
    negative.amplitude = -3.0;
    sets.push_back(negative);
    TerrainParams fine;
    fine.featureScale = 7.0;
    sets.push_back(fine);
    return sets;
}

::testing::Message
describe(const TerrainParams &p)
{
    return ::testing::Message() << "octaves " << p.octaves << " amplitude "
                                << p.amplitude << " featureScale "
                                << p.featureScale;
}

TEST(Terrain, HeightBoundsHoldForEdgeParams)
{
    for (const TerrainParams &p : edgeParamSets()) {
        SCOPED_TRACE(describe(p));
        expectBoundsHold(Terrain(p, kEdgeExtent), 3);
    }
}

/**
 * Require `heightAt`, `normalAt` and `colorAt` to equal the hashed
 * reference exactly over each noise layer's lattice table (moisture,
 * then every octave): @p dense points per axis in every table square,
 * the table's border corners and their nextafter neighbours, points
 * half a square off the table, and points ±1e5 m away. A table spans
 * the corners the grid's extent reaches plus one of border (DESIGN
 * §10); the axes rebuild that span from `gridShape()`.
 */
void
expectMatchesHashedReference(const Terrain &t, int dense)
{
    const Terrain::GridShape &s = t.gridShape();
    ASSERT_GT(s.cols, 0);
    const TerrainParams &p = t.params();
    std::vector<double> freqs{1.0 / 37.0};
    double freq = 1.0 / p.featureScale;
    for (int o = 0; o < p.octaves; ++o, freq *= 2.0)
        freqs.push_back(freq);
    const double inf = std::numeric_limits<double>::infinity();
    const auto axis = [&](double origin, int cells, double f) {
        const double c0 = std::floor(origin * f) - 1.0;
        const double c1 = std::floor((origin + cells * s.cell) * f) + 2.0;
        std::vector<double> v;
        for (double c = c0; c < c1; ++c)
            for (int k = 0; k < dense; ++k)
                v.push_back((c + (k + 0.5) / dense) / f);
        for (double c : {c0, c1}) {
            v.push_back(std::nextafter(c / f, -inf));
            v.push_back(c / f);
            v.push_back(std::nextafter(c / f, inf));
        }
        for (double off : {(c0 - 0.5) / f, (c1 + 0.5) / f, -1.0e5, 1.0e5})
            v.push_back(off);
        return v;
    };
    int failures = 0;
    for (double f : freqs) {
        const std::vector<double> xs = axis(s.origin.x, s.cols, f);
        const std::vector<double> ys = axis(s.origin.y, s.rows, f);
        for (double y : ys)
            for (double x : xs) {
                const Vec2 at{x, y};
                const double h = t.heightAt(at);
                const Vec3 n = t.normalAt(at);
                const image::Rgb c = t.colorAt(at);
                const double refH = render::reference::heightAt(p, at);
                const Vec3 refN = render::reference::normalAt(p, at);
                const image::Rgb refC = render::reference::colorAt(p, at);
                if ((h == refH && n == refN && c == refC) || ++failures > 3)
                    continue;
                SCOPED_TRACE(::testing::Message()
                             << "at (" << x << ", " << y
                             << "), lattice scale " << 1.0 / f);
                EXPECT_EQ(h, refH);
                EXPECT_EQ(n, refN);
                EXPECT_EQ(c, refC);
            }
    }
    EXPECT_EQ(failures, 0);
}

TEST(Terrain, HeightMatchesHashedReference)
{
    for (const gen::GameId id :
         {gen::GameId::Racing, gen::GameId::CTS, gen::GameId::Viking}) {
        const VirtualWorld world = gen::makeWorld(id, 42);
        SCOPED_TRACE(world.name());
        expectMatchesHashedReference(world.terrain(), 2);
    }
    for (const TerrainParams &p : edgeParamSets()) {
        SCOPED_TRACE(describe(p));
        expectMatchesHashedReference(Terrain(p, kEdgeExtent), 3);
    }
}

TEST(Terrain, FlatTerrainHasNoGrid)
{
    TerrainParams p;
    p.flat = true;
    const Terrain t(p, kExtent);
    EXPECT_EQ(t.gridShape().cols, 0);
    const Terrain::HeightBounds b = t.heightBounds({3.0, -7.0});
    EXPECT_EQ(b.lo, 0.0);
    EXPECT_EQ(b.hi, 0.0);
}

TEST(Terrain, TrianglesWithinScalesWithArea)
{
    TerrainParams p;
    p.trianglesPerM2 = 10.0;
    Terrain t(p, kExtent);
    const double t1 = t.trianglesWithin({0, 0}, 10.0);
    const double t2 = t.trianglesWithin({0, 0}, 20.0);
    EXPECT_NEAR(t2 / t1, 4.0, 1e-9);
    EXPECT_NEAR(t1, 10.0 * M_PI * 100.0, 1e-6);
}

TEST(Terrain, ColorVariesAcrossTerrain)
{
    const Terrain t(TerrainParams{}, kExtent);
    const auto c1 = t.colorAt({0, 0});
    bool varies = false;
    for (double x = 5; x < 200 && !varies; x += 17)
        varies = !(t.colorAt({x, x}) == c1);
    EXPECT_TRUE(varies);
}

} // namespace
} // namespace coterie::world
