#include "trace/trace.hh"

#include <algorithm>
#include <cmath>

#include "support/logging.hh"

namespace coterie::trace {

double
PlayerTrace::pathLength() const
{
    double total = 0.0;
    for (std::size_t i = 1; i < points.size(); ++i)
        total += points[i].position.distance(points[i - 1].position);
    return total;
}

std::vector<world::GridPoint>
PlayerTrace::gridPath(const world::GridMap &grid) const
{
    std::vector<world::GridPoint> path;
    for (const TracePoint &tp : points) {
        const world::GridPoint g = grid.snap(tp.position);
        if (path.empty() || !(path.back() == g))
            path.push_back(g);
    }
    return path;
}

double
SessionTrace::durationMs() const
{
    double latest = 0.0;
    for (const PlayerTrace &p : players)
        if (!p.points.empty())
            latest = std::max(latest, p.points.back().timeMs);
    return latest;
}

TraceCursor::TraceCursor(const PlayerTrace &trace, double tickMs)
    : trace_(trace), tickMs_(tickMs)
{
    COTERIE_ASSERT(tickMs > 0.0, "cursor needs a positive tick");
    COTERIE_ASSERT(!trace.points.empty(), "cursor over empty trace");
}

double
TraceCursor::durationMs() const
{
    return static_cast<double>(trace_.points.size() - 1) * tickMs_;
}

TracePoint
TraceCursor::at(double timeMs) const
{
    const double ticks = std::clamp(
        timeMs / tickMs_, 0.0,
        static_cast<double>(trace_.points.size() - 1));
    const auto lo = static_cast<std::size_t>(ticks);
    const double frac = ticks - static_cast<double>(lo);
    const TracePoint &a = trace_.points[lo];
    if (frac <= 0.0 || lo + 1 >= trace_.points.size())
        return a;
    const TracePoint &b = trace_.points[lo + 1];
    TracePoint out;
    out.timeMs = timeMs;
    out.position = a.position + (b.position - a.position) * frac;
    // Interpolate yaw along the shorter arc.
    double dyaw = b.yaw - a.yaw;
    while (dyaw > M_PI)
        dyaw -= 2.0 * M_PI;
    while (dyaw < -M_PI)
        dyaw += 2.0 * M_PI;
    out.yaw = a.yaw + dyaw * frac;
    return out;
}

double
TraceCursor::speedAt(double timeMs) const
{
    const double h = tickMs_ / 2.0;
    const TracePoint before = at(std::max(0.0, timeMs - h));
    const TracePoint after = at(std::min(durationMs(), timeMs + h));
    const double dt_s = (after.timeMs - before.timeMs) / 1000.0;
    if (dt_s <= 0.0)
        return 0.0;
    return before.position.distance(after.position) / dt_s;
}

double
meanPlayerSeparation(const SessionTrace &trace)
{
    if (trace.players.size() < 2)
        return 0.0;
    double acc = 0.0;
    std::size_t n = 0;
    std::size_t ticks = SIZE_MAX;
    for (const PlayerTrace &p : trace.players)
        ticks = std::min(ticks, p.points.size());
    for (std::size_t t = 0; t < ticks; ++t) {
        for (std::size_t a = 0; a < trace.players.size(); ++a) {
            for (std::size_t b = a + 1; b < trace.players.size(); ++b) {
                acc += trace.players[a].points[t].position.distance(
                    trace.players[b].points[t].position);
                ++n;
            }
        }
    }
    return n ? acc / static_cast<double>(n) : 0.0;
}

} // namespace coterie::trace
