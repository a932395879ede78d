#include "world/gen/track.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/logging.hh"
#include "support/rng.hh"

namespace coterie::world::gen {

using geom::Rect;
using geom::Vec2;

Track::Track(Rect bounds, std::uint64_t seed, double wobble)
{
    const Vec2 center = bounds.center();
    const double rx = bounds.width() * 0.38;
    const double ry = bounds.height() * 0.38;

    // Low-order Fourier wobble keeps the loop smooth and closed.
    Rng rng(seed);
    const int harmonics = 3;
    std::vector<double> amp(harmonics), phase(harmonics);
    for (int h = 0; h < harmonics; ++h) {
        amp[h] = rng.uniform(0.0, wobble / (h + 1));
        phase[h] = rng.uniform(0.0, 2.0 * M_PI);
    }

    const int n = 2048;
    points_.reserve(n);
    for (int i = 0; i < n; ++i) {
        const double theta = 2.0 * M_PI * i / n;
        double radial = 1.0;
        for (int h = 0; h < harmonics; ++h)
            radial += amp[h] * std::sin((h + 2) * theta + phase[h]);
        points_.push_back(center + Vec2{rx * radial * std::cos(theta),
                                        ry * radial * std::sin(theta)});
    }

    cumLength_.resize(points_.size() + 1);
    cumLength_[0] = 0.0;
    for (std::size_t i = 0; i < points_.size(); ++i) {
        const Vec2 &a = points_[i];
        const Vec2 &b = points_[(i + 1) % points_.size()];
        cumLength_[i + 1] = cumLength_[i] + a.distance(b);
    }
    totalLength_ = cumLength_.back();
    COTERIE_ASSERT(totalLength_ > 0.0, "degenerate track");

    for (std::size_t i = 0; i < points_.size(); i += kChunk) {
        const std::size_t end = std::min(points_.size(), i + kChunk);
        Rect box{points_[i], points_[i]};
        for (std::size_t j = i + 1; j < end; ++j) {
            box.lo = {std::min(box.lo.x, points_[j].x),
                      std::min(box.lo.y, points_[j].y)};
            box.hi = {std::max(box.hi.x, points_[j].x),
                      std::max(box.hi.y, points_[j].y)};
        }
        chunkBox_.push_back(box);
    }
}

Vec2
Track::pointAt(double s) const
{
    s = std::fmod(s, totalLength_);
    if (s < 0.0)
        s += totalLength_;
    const auto it =
        std::upper_bound(cumLength_.begin(), cumLength_.end(), s);
    const auto seg = static_cast<std::size_t>(
        std::max<std::ptrdiff_t>(0, it - cumLength_.begin() - 1));
    const double seg_start = cumLength_[seg];
    const double seg_len = cumLength_[seg + 1] - seg_start;
    const double t = seg_len > 0.0 ? (s - seg_start) / seg_len : 0.0;
    const Vec2 &a = points_[seg % points_.size()];
    const Vec2 &b = points_[(seg + 1) % points_.size()];
    return a + (b - a) * t;
}

Vec2
Track::tangentAt(double s) const
{
    const double eps = totalLength_ / static_cast<double>(points_.size());
    return (pointAt(s + eps) - pointAt(s)).normalized();
}

double
Track::distanceTo(Vec2 p) const
{
    double best = std::numeric_limits<double>::infinity();
    const auto scan = [&](std::size_t chunk) {
        const std::size_t end =
            std::min(points_.size(), (chunk + 1) * kChunk);
        for (std::size_t i = chunk * kChunk; i < end; ++i)
            best = std::min(best, p.distanceSq(points_[i]));
    };
    std::size_t nearest = 0;
    double nearestDistSq = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < chunkBox_.size(); ++c) {
        const double d2 = chunkBox_[c].distanceSq(p);
        if (d2 < nearestDistSq) {
            nearestDistSq = d2;
            nearest = c;
        }
    }
    scan(nearest);
    for (std::size_t c = 0; c < chunkBox_.size(); ++c) {
        // A box no nearer than the best point holds no nearer point.
        if (c != nearest && chunkBox_[c].distanceSq(p) < best)
            scan(c);
    }
    return std::sqrt(best);
}

} // namespace coterie::world::gen
