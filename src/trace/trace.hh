/**
 * @file
 * Player movement traces: the per-frame (60 Hz) positions and headings
 * of each player in the virtual world. The similarity and caching
 * experiments replay these traces, exactly as the paper replays the
 * trajectories it recorded on the testbed.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "geom/vec.hh"
#include "world/grid.hh"

namespace coterie::trace {

/** One sampled pose of one player. */
struct TracePoint
{
    double timeMs = 0.0;
    geom::Vec2 position;
    double yaw = 0.0; ///< heading, radians
};

/** A single player's trajectory. */
struct PlayerTrace
{
    int playerId = 0;
    std::vector<TracePoint> points;

    std::size_t size() const { return points.size(); }

    /** Total path length in meters. */
    double pathLength() const;

    /**
     * Collapse to the sequence of distinct grid points visited, in
     * order (consecutive duplicates removed). This is the granularity
     * at which BE frames are prefetched.
     */
    std::vector<world::GridPoint> gridPath(const world::GridMap &grid) const;
};

/** A multi-player session trace. */
struct SessionTrace
{
    std::string game;
    double tickMs = 1000.0 / 60.0;
    std::vector<PlayerTrace> players;

    int playerCount() const { return static_cast<int>(players.size()); }
    double durationMs() const;
};

/**
 * Random-access cursor over a player trace with linear interpolation
 * between ticks: consumers sample poses at arbitrary timestamps (the
 * DES system models run at non-tick-aligned event times).
 */
class TraceCursor
{
  public:
    explicit TraceCursor(const PlayerTrace &trace, double tickMs);

    /** Interpolated pose at absolute time @p timeMs (clamped). */
    TracePoint at(double timeMs) const;

    /** Instantaneous speed (m/s) at @p timeMs (finite difference). */
    double speedAt(double timeMs) const;

    double durationMs() const;

  private:
    const PlayerTrace &trace_;
    double tickMs_;
};

/**
 * Mean pairwise distance between players over time — the paper's
 * "multiplayer movement proximity" notion.
 */
double meanPlayerSeparation(const SessionTrace &trace);

} // namespace coterie::trace

