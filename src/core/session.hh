/**
 * @file
 * Session orchestration: the one-stop setup a bench or application
 * needs — build the game world, run the offline preprocessing
 * (adaptive cutoff partitioning + distance thresholds), generate
 * multi-player traces, and run any of the four systems on it.
 */

#pragma once

#include <memory>

#include "core/dist_thresh.hh"
#include "core/offline_io.hh"
#include "core/systems/systems.hh"
#include "trace/trajectory.hh"
#include "world/gen/generators.hh"

namespace coterie::core {

/** Session setup knobs. */
struct SessionParams
{
    int players = 2;
    double durationS = 60.0; ///< benches use shorter runs than 10 min
    std::uint64_t seed = 42;
    device::PhoneProfile profile = device::pixel2();
    net::ChannelParams channel{};
    PartitionParams partition{};
    DistThreshParams distThresh{};
    AnalyticSimilarityParams similarity{};
    /** Fit the analytic similarity model against rendered SSIM for
     *  this world (a few dozen low-resolution panorama renders). */
    bool calibrateSimilarity = true;
    /** Frame-catalogue knobs (panorama size, complexity model). */
    FrameStoreParams frameStore{};
};

/**
 * A fully preprocessed game session: world, grid, partition, distance
 * thresholds, frame catalogue, traces. Immovable once built (internal
 * cross-references); heap-allocate via Session::create.
 */
class Session
{
  public:
    static std::unique_ptr<Session> create(world::gen::GameId game,
                                           const SessionParams &params);

    /**
     * Build a session from previously saved offline artifacts (see
     * tools/coterie_offline): the world and traces are regenerated
     * from the seed, but the expensive preprocessing — partitioning,
     * similarity calibration, reuse distances — is loaded instead of
     * recomputed. The artifacts must belong to the same game.
     */
    static std::unique_ptr<Session>
    createFromArtifacts(world::gen::GameId game,
                        const OfflineArtifacts &artifacts,
                        const SessionParams &params);

    const world::gen::GameInfo &info() const { return info_; }
    const world::VirtualWorld &world() const { return world_; }
    const world::GridMap &grid() const { return grid_; }
    const RegionIndex &regions() const { return *regions_; }
    const PartitionResult &partition() const { return partition_; }
    const std::vector<double> &distThresholds() const
    {
        return distThresholds_;
    }
    const AnalyticSimilarityParams &similarityParams() const
    {
        return similarityParams_;
    }
    const FrameStore &frames() const { return *frames_; }
    const trace::SessionTrace &traces() const { return traces_; }
    const SessionParams &params() const { return params_; }

    /** SystemConfig wired to this session's components. */
    SystemConfig systemConfig() const;

    /** Run each system on this session. */
    SystemResult runMobileSystem() const;
    SystemResult runThinClientSystem() const;
    SystemResult runMultiFurionSystem(bool withExactCache = false) const;
    SystemResult runCoterieSystem(bool withCache = true,
                                  ReplacementPolicy policy =
                                      ReplacementPolicy::Lru) const;

    /**
     * Coterie under a scripted fault plan (the chaos harness): the
     * channel/server degrade per @p faults, the clients apply
     * @p resilience, and the server honours @p serverNet fan-out
     * limits. With an empty plan, disabled resilience, and default
     * server params this is bit-identical to runCoterieSystem().
     */
    SystemResult runCoterieChaos(const sim::FaultPlan &faults,
                                 const net::ResilienceParams &resilience,
                                 net::FrameServerParams serverNet = {},
                                 bool withCache = true) const;

  private:
    Session(world::gen::GameId game, const SessionParams &params,
            const OfflineArtifacts *artifacts);

    SessionParams params_;
    world::gen::GameInfo info_;
    world::VirtualWorld world_;
    world::GridMap grid_;
    PartitionResult partition_;
    std::unique_ptr<RegionIndex> regions_;
    AnalyticSimilarityParams similarityParams_;
    std::vector<double> distThresholds_;
    std::unique_ptr<FrameStore> frames_;
    trace::SessionTrace traces_;
};

} // namespace coterie::core

