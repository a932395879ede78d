/**
 * @file
 * Tests for the closed-loop race track: closure, arc-length
 * parameterisation, tangents, containment, and distance queries.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "world/gen/track.hh"

namespace coterie::world::gen {
namespace {

using geom::Rect;
using geom::Vec2;

const Rect kBounds{{0, 0}, {1000, 800}};

TEST(Track, LoopCloses)
{
    Track track(kBounds, 42);
    const Vec2 start = track.pointAt(0.0);
    const Vec2 wrapped = track.pointAt(track.length());
    EXPECT_NEAR(start.distance(wrapped), 0.0, 1e-6);
}

TEST(Track, ArcLengthParameterisation)
{
    Track track(kBounds, 42);
    // Moving ds along the track moves ~ds in space (within polyline
    // discretisation error).
    const double ds = 5.0;
    for (double s = 0.0; s < track.length(); s += track.length() / 13) {
        const double step =
            track.pointAt(s).distance(track.pointAt(s + ds));
        EXPECT_NEAR(step, ds, 0.5) << "at s=" << s;
    }
}

TEST(Track, StaysInsideBounds)
{
    Track track(kBounds, 7);
    for (double s = 0.0; s < track.length(); s += 3.0)
        EXPECT_TRUE(kBounds.containsClosed(track.pointAt(s)));
}

TEST(Track, NegativeArcLengthWraps)
{
    Track track(kBounds, 42);
    const Vec2 a = track.pointAt(-10.0);
    const Vec2 b = track.pointAt(track.length() - 10.0);
    EXPECT_NEAR(a.distance(b), 0.0, 1e-6);
}

TEST(Track, TangentIsUnitAndForward)
{
    Track track(kBounds, 42);
    for (double s = 0.0; s < track.length(); s += track.length() / 17) {
        const Vec2 t = track.tangentAt(s);
        EXPECT_NEAR(t.length(), 1.0, 1e-9);
        // Tangent points toward the next position.
        const Vec2 ahead = track.pointAt(s + 2.0) - track.pointAt(s);
        EXPECT_GT(t.dot(ahead.normalized()), 0.9);
    }
}

TEST(Track, DistanceToCenterlineZeroOnTrack)
{
    Track track(kBounds, 42);
    EXPECT_LT(track.distanceTo(track.pointAt(123.0)), 1.5);
    // Center of the loop is far from the ring.
    EXPECT_GT(track.distanceTo(kBounds.center()), 50.0);
}

/**
 * The pruned distance query against a plain minimum over every polyline
 * point, bit for bit: a grid across the bounds and 100 m beyond them,
 * every sample point, and every segment midpoint.
 */
TEST(Track, DistanceToMatchesLinearScan)
{
    const auto linear = [](const Track &track, Vec2 p) {
        double best = std::numeric_limits<double>::infinity();
        for (const Vec2 &q : track.samples())
            best = std::min(best, p.distanceSq(q));
        return std::sqrt(best);
    };
    const Rect racingSized{{-545.0, -548.0}, {545.0, 548.0}};
    for (const auto &[bounds, seed] :
         {std::pair{kBounds, std::uint64_t{42}},
          std::pair{kBounds, std::uint64_t{7}},
          std::pair{racingSized, std::uint64_t{1042}}}) {
        const Track track(bounds, seed, 0.3);
        std::vector<Vec2> probes;
        constexpr double kBeyond = 100.0;
        constexpr int kSteps = 97;
        for (int i = 0; i <= kSteps; ++i) {
            for (int j = 0; j <= kSteps; ++j) {
                probes.push_back(
                    {bounds.lo.x - kBeyond +
                         (bounds.width() + 2 * kBeyond) * i / kSteps,
                     bounds.lo.y - kBeyond +
                         (bounds.height() + 2 * kBeyond) * j / kSteps});
            }
        }
        const std::vector<Vec2> &pts = track.samples();
        for (std::size_t i = 0; i < pts.size(); ++i) {
            probes.push_back(pts[i]);
            probes.push_back((pts[i] + pts[(i + 1) % pts.size()]) * 0.5);
        }
        for (const Vec2 p : probes)
            ASSERT_EQ(track.distanceTo(p), linear(track, p))
                << "at " << p.x << "," << p.y;
    }
}

TEST(Track, DeterministicInSeed)
{
    Track a(kBounds, 5), b(kBounds, 5), c(kBounds, 6);
    EXPECT_NEAR(a.pointAt(100).distance(b.pointAt(100)), 0.0, 1e-12);
    EXPECT_GT(a.pointAt(100).distance(c.pointAt(100)), 0.1);
}

TEST(Track, LengthIsPlausibleForBounds)
{
    Track track(kBounds, 42);
    // An ellipse with radii ~0.38 * dims has circumference well over
    // the world's half-perimeter and below its full perimeter.
    EXPECT_GT(track.length(), 1500.0);
    EXPECT_LT(track.length(), 3600.0);
}

} // namespace
} // namespace coterie::world::gen
