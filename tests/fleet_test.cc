/**
 * @file
 * Fleet orchestration tests: the SessionManager's strict no-op
 * contract (one session, no governor == the solo code path bit for
 * bit), per-coterie fault isolation (a sibling under chaos or a
 * confined exception never perturbs another session's frame output),
 * admission control verdicts, the load-governor degradation ladder,
 * cross-session sharing of the world-keyed panorama cache, per-session
 * SLO labels, and QoE of a session admitted mid-simulation.
 *
 * Determinism contract: every assertion here compares sim-time-derived
 * values, and the CI fleet job re-runs this binary at
 * COTERIE_THREADS=1/2/4 diffing the COTERIE_FLEET_DUMP snapshots bit
 * for bit.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "core/fleet.hh"
#include "core/session.hh"
#include "core/systems/systems.hh"
#include "obs/slo.hh"

namespace coterie {
namespace {

using core::AdmissionDecision;
using core::AdmissionVerdict;
using core::FleetCapacity;
using core::FleetResult;
using core::FleetSessionSpec;
using core::GovernorParams;
using core::PlayerMetrics;
using core::Session;
using core::SessionManager;
using core::SessionParams;
using core::SessionPhase;
using core::SystemConfig;
using core::SystemResult;
using sim::FaultPlan;

/** Shared 20 s two-player base (expensive; built once per binary). */
const Session &
fleetBase()
{
    static std::unique_ptr<Session> session = [] {
        SessionParams params;
        params.players = 2;
        params.durationS = 20.0;
        params.seed = 42;
        return Session::create(world::gen::GameId::Viking, params);
    }();
    return *session;
}

/** Bit-exact per-player snapshot (hexfloat doubles), chaos_test style. */
std::string
snapshot(const SystemResult &result)
{
    std::string out = result.systemName + "\n";
    char buf[512];
    for (const PlayerMetrics &m : result.players) {
        std::snprintf(
            buf, sizeof buf,
            "p%d f=%llu/%llu g=%llu s=%llu d=%llu r=%llu t=%llu "
            "x=%llu dc=%llu rj=%llu | %a %a %a %a %a %a %a %a\n",
            m.playerId,
            static_cast<unsigned long long>(m.framesDisplayed),
            static_cast<unsigned long long>(m.framesFetched),
            static_cast<unsigned long long>(m.gridTransitions),
            static_cast<unsigned long long>(m.stalls),
            static_cast<unsigned long long>(m.framesDegraded),
            static_cast<unsigned long long>(m.netRetries),
            static_cast<unsigned long long>(m.netTimeouts),
            static_cast<unsigned long long>(m.fetchGiveups),
            static_cast<unsigned long long>(m.disconnects),
            static_cast<unsigned long long>(m.rejoins), m.fps,
            m.interFrameMs, m.responsivenessMs, m.beMbps,
            m.cacheHitRatio, m.stallMs, m.rejoinHitRatio, m.netDelayMs);
        out += buf;
    }
    std::snprintf(buf, sizeof buf, "chan=%a\n", result.channelUtilMbps);
    out += buf;
    return out;
}

/** Per-frame hexfloat dump of the frame logs (byte-identity checks). */
std::string
frameLogSnapshot(const SystemResult &result)
{
    std::string out;
    char buf[256];
    for (std::size_t p = 0; p < result.frameLogs.size(); ++p) {
        std::snprintf(buf, sizeof buf, "player %zu n=%zu\n", p,
                      result.frameLogs[p].size());
        out += buf;
        for (const core::FrameLogEntry &e : result.frameLogs[p]) {
            std::snprintf(buf, sizeof buf, "%a %a %a %llu %d\n",
                          e.displayMs, e.latencyMs, e.renderMs,
                          static_cast<unsigned long long>(e.bytesFetched),
                          e.degraded ? 1 : 0);
            out += buf;
        }
    }
    return out;
}

/** The solo reference run, with frame logging on. */
SystemResult
soloRun()
{
    SystemConfig config = fleetBase().systemConfig();
    config.recordFrameLog = true;
    return core::runCoterie(config, fleetBase().distThresholds());
}

// ---------------------------------------------------------------------
// Strict no-op: one session, governor off == the solo code path
// ---------------------------------------------------------------------

TEST(Fleet, SingleSessionIsBitIdenticalToSolo)
{
    const SystemResult solo = soloRun();

    SessionManager mgr; // default capacity, governor disabled
    FleetSessionSpec spec;
    spec.base = &fleetBase();
    spec.recordFrameLog = true;
    const AdmissionDecision d = mgr.submit(spec);
    ASSERT_EQ(d.verdict, AdmissionVerdict::Admitted);
    ASSERT_EQ(d.id, 1u);
    const FleetResult fleet = mgr.run();

    ASSERT_EQ(fleet.sessions.size(), 1u);
    EXPECT_EQ(fleet.sessions[0].phase, SessionPhase::Completed);
    EXPECT_EQ(snapshot(fleet.sessions[0].result), snapshot(solo));
    ASSERT_FALSE(solo.frameLogs.empty());
    EXPECT_EQ(fleet.sessions[0].result.frameLogs, solo.frameLogs);
    EXPECT_EQ(fleet.evictions, 0u);
    EXPECT_EQ(fleet.faults, 0u);
    EXPECT_EQ(fleet.shedTransitions, 0u);
}

// ---------------------------------------------------------------------
// Fault isolation: chaos or a confined crash in one coterie never
// perturbs a sibling's frame output
// ---------------------------------------------------------------------

TEST(Fleet, SiblingsUnderChaosAndFaultLeaveSessionUntouched)
{
    // The dump's SLO section then holds exactly this test's sessions.
    obs::SloRegistry::global().clear();
    const SystemResult solo = soloRun();

    SessionManager mgr;
    // Session A: clean, frame-logged — must match solo byte for byte.
    FleetSessionSpec clean;
    clean.base = &fleetBase();
    clean.recordFrameLog = true;
    // Session B: outage mid-run with the resilience layer on.
    FleetSessionSpec chaotic;
    chaotic.base = &fleetBase();
    chaotic.faults.outage(5000.0, 5600.0);
    chaotic.resilience.enabled = true;
    // Session C: throws from its frame loop; the error boundary must
    // confine it.
    FleetSessionSpec crashing;
    crashing.base = &fleetBase();
    crashing.injectFaultAtMs = 4000.0;

    ASSERT_EQ(mgr.submit(clean).verdict, AdmissionVerdict::Admitted);
    ASSERT_EQ(mgr.submit(chaotic).verdict, AdmissionVerdict::Admitted);
    ASSERT_EQ(mgr.submit(crashing).verdict, AdmissionVerdict::Admitted);
    const FleetResult fleet = mgr.run();

    ASSERT_EQ(fleet.sessions.size(), 3u);
    const auto &a = fleet.sessions[0];
    const auto &b = fleet.sessions[1];
    const auto &c = fleet.sessions[2];

    // A: byte-identical to the solo run despite both siblings.
    EXPECT_EQ(a.phase, SessionPhase::Completed);
    EXPECT_EQ(snapshot(a.result), snapshot(solo));
    EXPECT_EQ(a.result.frameLogs, solo.frameLogs);

    // B: ran to completion and actually saw its outage.
    EXPECT_EQ(b.phase, SessionPhase::Completed);
    std::uint64_t b_retries = 0;
    for (const PlayerMetrics &m : b.result.players)
        b_retries += m.netRetries;
    EXPECT_GT(b_retries, 0u);

    // C: confined, quarantined, reported.
    EXPECT_EQ(c.phase, SessionPhase::Faulted);
    EXPECT_EQ(c.faultReason, "injected session fault");
    EXPECT_EQ(fleet.faults, 1u);
    EXPECT_LT(c.finishedAtMs, 5000.0); // quarantined at the fault
    // The crashed session still yields partial results.
    std::uint64_t c_frames = 0;
    for (const PlayerMetrics &m : c.result.players)
        c_frames += m.framesDisplayed;
    EXPECT_GT(c_frames, 0u);

    // CI cross-thread determinism hook: append the snapshots so the
    // fleet job can diff COTERIE_THREADS=1/2/4 runs bit for bit.
    if (const char *path = std::getenv("COTERIE_FLEET_DUMP")) {
        if (std::FILE *dump = std::fopen(path, "a")) {
            std::fprintf(dump, "== solo ==\n%s", snapshot(solo).c_str());
            for (const auto &s : fleet.sessions)
                std::fprintf(dump, "== session %u (%s) ==\n%s", s.id,
                             core::sessionPhaseName(s.phase),
                             snapshot(s.result).c_str());
            std::fprintf(dump, "== frame log A ==\n%s",
                         frameLogSnapshot(a.result).c_str());
            // The SLO summaries are derived from the frame records,
            // so they must diff bit-identical too.
            std::fprintf(
                dump, "== slo ==\n%s\n",
                obs::SloRegistry::global().snapshotJson().dump(2).c_str());
            std::fclose(dump);
        }
    }
}

// ---------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------

/** Short-run spec (regenerated 3 s traces) for capacity tests. */
FleetSessionSpec
shortSpec(std::uint64_t traceSeed)
{
    FleetSessionSpec spec;
    spec.base = &fleetBase();
    spec.durationS = 3.0;
    spec.traceSeed = traceSeed;
    return spec;
}

TEST(Fleet, AdmissionVerdictsFollowTheCapacityModel)
{
    FleetCapacity cap;
    cap.maxSessions = 1;
    cap.admissionQueueLimit = 1;
    SessionManager mgr(cap);

    const AdmissionDecision first = mgr.submit(shortSpec(101));
    const AdmissionDecision second = mgr.submit(shortSpec(102));
    const AdmissionDecision third = mgr.submit(shortSpec(103));
    EXPECT_EQ(first.verdict, AdmissionVerdict::Admitted);
    EXPECT_EQ(second.verdict, AdmissionVerdict::Queued);
    EXPECT_EQ(third.verdict, AdmissionVerdict::Rejected);
    EXPECT_STREQ(third.reason, "admission queue full");

    // A session that could never fit is rejected outright, not queued.
    FleetSessionSpec huge = shortSpec(104);
    huge.players = 1000;
    EXPECT_EQ(mgr.submit(huge).verdict, AdmissionVerdict::Rejected);

    const FleetResult fleet = mgr.run();
    ASSERT_EQ(fleet.sessions.size(), 2u); // rejected specs not adopted
    EXPECT_EQ(fleet.admitted, 1u);
    EXPECT_EQ(fleet.queuedAdmissions, 1u);
    EXPECT_EQ(fleet.rejected, 2u);
    // The queued session started the instant the first finished.
    EXPECT_EQ(fleet.sessions[0].phase, SessionPhase::Completed);
    EXPECT_EQ(fleet.sessions[1].phase, SessionPhase::Completed);
    EXPECT_GE(fleet.sessions[1].startedAtMs,
              fleet.sessions[0].finishedAtMs);
    std::uint64_t queued_frames = 0;
    for (const PlayerMetrics &m : fleet.sessions[1].result.players)
        queued_frames += m.framesDisplayed;
    EXPECT_GT(queued_frames, 0u);
}

TEST(Fleet, LateStartMatchesSoloQoe)
{
    // A session admitted at 1 s plays the same frames as the solo run;
    // its first inter-frame interval runs from its own start, not from
    // the shared clock's zero. Absolute sim times round differently,
    // so the means agree to 1e-9 rather than bit for bit.
    const SystemResult solo = soloRun();
    SessionManager mgr;
    FleetSessionSpec spec;
    spec.base = &fleetBase();
    spec.startMs = 1000.0;
    ASSERT_EQ(mgr.submit(spec).verdict, AdmissionVerdict::Admitted);
    const FleetResult fleet = mgr.run();
    ASSERT_EQ(fleet.sessions.size(), 1u);
    EXPECT_EQ(fleet.sessions[0].startedAtMs, 1000.0);
    const SystemResult &late = fleet.sessions[0].result;
    ASSERT_EQ(late.players.size(), solo.players.size());
    for (std::size_t p = 0; p < solo.players.size(); ++p) {
        EXPECT_EQ(late.players[p].framesDisplayed,
                  solo.players[p].framesDisplayed);
        EXPECT_NEAR(late.players[p].interFrameMs,
                    solo.players[p].interFrameMs, 1e-9);
        EXPECT_NEAR(late.players[p].responsivenessMs,
                    solo.players[p].responsivenessMs, 1e-9);
    }
}

TEST(Fleet, EachSessionPublishesItsOwnSlo)
{
    obs::SloRegistry::global().clear();
    const auto runFleet = [] {
        SessionManager mgr;
        for (std::uint64_t seed : {201, 202, 203})
            EXPECT_EQ(mgr.submit(shortSpec(seed)).verdict,
                      AdmissionVerdict::Admitted);
        return mgr.run();
    };
    const FleetResult fleet = runFleet();
    const obs::Json slo = obs::SloRegistry::global().snapshotJson();
    ASSERT_EQ(obs::SloRegistry::global().size(), 3u);
    std::uint64_t displayed = 0;
    double published = 0.0;
    for (const auto &s : fleet.sessions) {
        EXPECT_EQ(s.label,
                  "Viking#" + std::to_string(s.id) + "/2p/Coterie");
        ASSERT_TRUE(slo.contains(s.label));
        published += slo.at(s.label).at("frames").asNumber();
        for (const PlayerMetrics &m : s.result.players)
            displayed += m.framesDisplayed;
    }
    EXPECT_EQ(published, static_cast<double>(displayed));
    // Labels come from the manager's session ids, so a fresh manager
    // republishes the same labels instead of growing the registry.
    runFleet();
    EXPECT_EQ(obs::SloRegistry::global().size(), 3u);
}

TEST(Fleet, RenderLoadCeilingRejects)
{
    FleetCapacity cap;
    // One 2-player session costs ~2 * 2.5 ms * 60 Hz = 300 ms/s.
    cap.maxRenderLoadMsPerS = 400.0;
    cap.admissionQueueLimit = 0;
    SessionManager mgr(cap);
    EXPECT_EQ(mgr.submit(shortSpec(1)).verdict,
              AdmissionVerdict::Admitted);
    EXPECT_EQ(mgr.submit(shortSpec(2)).verdict,
              AdmissionVerdict::Rejected);
    mgr.run();
}

// ---------------------------------------------------------------------
// Load governor: escalating shed ladder, eviction last
// ---------------------------------------------------------------------

GovernorParams
testGovernor()
{
    GovernorParams gov;
    gov.enabled = true;
    gov.tickMs = 250.0;
    gov.shedMissRate = 0.05;
    gov.degradeMissRate = 0.15;
    gov.evictMissRate = 0.50;
    gov.evictStrikes = 3;
    gov.recoverMissRate = 0.01;
    return gov;
}

/** A session that cannot make progress: cacheless under a collapsed
 *  link, with no resilience escape hatch. */
FleetSessionSpec
hopelessSpec()
{
    FleetSessionSpec spec;
    spec.base = &fleetBase();
    spec.withCache = false;
    spec.faults.bandwidthCollapse(2000.0, 20000.0, 0.01);
    return spec;
}

TEST(Fleet, GovernorEscalatesShedBeforeEvicting)
{
    SessionManager mgr({}, testGovernor());
    ASSERT_EQ(mgr.submit(hopelessSpec()).verdict,
              AdmissionVerdict::Admitted);
    const FleetResult fleet = mgr.run();

    ASSERT_EQ(fleet.sessions.size(), 1u);
    const auto &s = fleet.sessions[0];
    // The ladder walked every rung: throttle, degrade, then — after
    // evictStrikes consecutive hopeless ticks — quarantine.
    EXPECT_GE(fleet.shedTransitions, 1u);
    EXPECT_GE(fleet.degradeTransitions, 1u);
    EXPECT_EQ(fleet.evictions, 1u);
    EXPECT_EQ(s.phase, SessionPhase::Evicted);
    // Eviction can only happen after evictStrikes governor ticks, and
    // must land well before the session's natural 20 s horizon.
    EXPECT_GE(s.finishedAtMs, 3 * 250.0);
    EXPECT_LT(s.finishedAtMs, 20000.0);
    // Cumulative SLO accounting survived into the report.
    EXPECT_GT(s.slo.frames, 0u);
}

TEST(Fleet, GovernorDecisionsAreDeterministic)
{
    auto run = [] {
        SessionManager mgr({}, testGovernor());
        mgr.submit(hopelessSpec());
        FleetResult fleet = mgr.run();
        char buf[64];
        std::snprintf(buf, sizeof buf, "%a|%d|%llu",
                      fleet.sessions[0].finishedAtMs,
                      fleet.sessions[0].shedLevel,
                      static_cast<unsigned long long>(fleet.evictions));
        return snapshot(fleet.sessions[0].result) + buf;
    };
    EXPECT_EQ(run(), run());
}

TEST(Fleet, HealthySessionNeverSheds)
{
    GovernorParams gov = testGovernor();
    gov.shedMissRate = 0.8; // clean runs stay far below this
    gov.degradeMissRate = 0.9;
    gov.evictMissRate = 0.95;
    SessionManager mgr({}, gov);
    FleetSessionSpec spec;
    spec.base = &fleetBase();
    ASSERT_EQ(mgr.submit(spec).verdict, AdmissionVerdict::Admitted);
    const FleetResult fleet = mgr.run();
    EXPECT_EQ(fleet.shedTransitions, 0u);
    EXPECT_EQ(fleet.evictions, 0u);
    EXPECT_EQ(fleet.sessions[0].shedLevel, 0);
    EXPECT_EQ(fleet.sessions[0].phase, SessionPhase::Completed);
}

// ---------------------------------------------------------------------
// Cross-session sharing of the world-keyed panorama cache
// ---------------------------------------------------------------------

TEST(Fleet, SameWorldSessionsShareRenders)
{
    SessionManager mgr;
    // Two bases over the *same* world (same game + seed), both
    // rendering through the manager's cache — the multi-tenant
    // deployment shape. Short runs; similarity calibration skipped for
    // speed.
    SessionParams sp;
    sp.players = 2;
    sp.durationS = 5.0;
    sp.seed = 42;
    sp.calibrateSimilarity = false;
    const auto base1 = Session::create(world::gen::GameId::Viking, sp);
    const auto base2 = Session::create(world::gen::GameId::Viking, sp);

    FleetSessionSpec spec1;
    spec1.base = base1.get();
    spec1.renderOnFetch = true;
    spec1.renderWidth = 48;
    spec1.renderHeight = 24;
    FleetSessionSpec spec2 = spec1;
    spec2.base = base2.get();
    ASSERT_EQ(mgr.submit(spec1).verdict, AdmissionVerdict::Admitted);
    ASSERT_EQ(mgr.submit(spec2).verdict, AdmissionVerdict::Admitted);
    const FleetResult fleet = mgr.run();

    ASSERT_EQ(fleet.sessions.size(), 2u);
    EXPECT_GT(fleet.sessions[0].fleetRenders, 0u);
    EXPECT_GT(fleet.sessions[1].fleetRenders, 0u);
    // Identical traces on an identical world: every delivery session 2
    // realizes was already rendered by session 1 an instant earlier,
    // so the shared cache serves it for free.
    EXPECT_GT(fleet.panoCache.hits, 0u);
    EXPECT_GE(fleet.panoCache.hits, fleet.sessions[1].fleetRenders);
    // Eviction-charge accounting: every resident byte is charged to
    // the session that caused its render (session 1 here), and hits
    // never move the charge.
    EXPECT_EQ(mgr.panoCache()->ownerBytes(1), fleet.panoCache.bytes);
    EXPECT_EQ(mgr.panoCache()->ownerBytes(2), 0u);
    // Every delivery is one batch request: a hit or a render, never a
    // wait on someone else's render.
    EXPECT_EQ(fleet.panoCache.hits + fleet.panoCache.misses,
              fleet.sessions[0].fleetRenders +
                  fleet.sessions[1].fleetRenders);
    EXPECT_EQ(fleet.panoCache.inflightJoins, 0u);
}

} // namespace
} // namespace coterie
