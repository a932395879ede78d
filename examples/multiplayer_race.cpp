/**
 * @file
 * Scenario example: a four-car race on Racing Mountain.
 *
 * Demonstrates the trace machinery (track-following trajectories with
 * chase proximity) and how Coterie's QoE holds up as the grid spacing
 * and player speed change by an order of magnitude compared to the
 * walking games.
 *
 *   $ ./multiplayer_race
 */

#include <cstdio>

#include "core/session.hh"
#include "trace/trace.hh"

using namespace coterie;
using namespace coterie::core;

int
main()
{
    std::printf("Coterie multiplayer race: Racing Mountain, 4 cars\n\n");

    SessionParams params;
    params.players = 4;
    params.durationS = 45.0;
    auto session = Session::create(world::gen::GameId::Racing, params);

    // The cars chase each other around the loop; show their proximity.
    const double separation =
        trace::meanPlayerSeparation(session->traces());
    std::printf("track world  : %.0f x %.0f m, grid pitch %.3f m\n",
                session->info().width, session->info().height,
                session->info().gridSpacing);
    std::printf("car speed    : %.1f m/s (~%.0f km/h), mean pairwise "
                "separation %.1f m\n",
                session->info().playerSpeed,
                session->info().playerSpeed * 3.6, separation);

    // Race under Coterie and under the replicated prior art.
    const SystemResult coterie = session->runCoterieSystem();
    const SystemResult furion = session->runMultiFurionSystem();

    std::printf("\nper-car results under Coterie:\n");
    for (const PlayerMetrics &m : coterie.players) {
        std::printf("  car %d: %5.1f FPS, %5.2f ms responsiveness, "
                    "%5.1f Mbps, hit %4.1f%%\n",
                    m.playerId + 1, m.fps, m.responsivenessMs, m.beMbps,
                    100.0 * m.cacheHitRatio);
    }
    std::printf("\nMulti-Furion with 4 cars: %.1f FPS "
                "(channel-saturated); Coterie: %.1f FPS.\n",
                furion.avgFps(), coterie.avgFps());
    return 0;
}
