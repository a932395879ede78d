/**
 * @file
 * Tests for the frame-lifecycle causal tracer, the deadline SLO
 * engine, and the always-on flight recorder: hop stamping and
 * critical-path computation (including stall descent into the linked
 * fetch record), deadline scoring/attribution and its JSON summary,
 * SLO publication into the metrics snapshot, the one-record invariant
 * (trace export, SLO summary and governor window all read a run's
 * frame records), flight-ring wraparound and dump parsing, and the
 * crash-dump path (an injected COTERIE_ASSERT must leave a parseable
 * flight dump behind).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/client.hh"
#include "core/session.hh"
#include "obs/flight.hh"
#include "obs/frame_trace.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/slo.hh"
#include "obs/trace.hh"
#include "sim/event_queue.hh"
#include "support/logging.hh"
#include "support/stats.hh"

namespace coterie::obs {
namespace {

class FrameTraceTest : public testing::Test
{
  protected:
    void SetUp() override { SloRegistry::global().clear(); }
    void TearDown() override { SloRegistry::global().clear(); }
};

/** The `frame.done` events @p tracer exports at finish(). */
std::vector<Json>
exportedFrameDones(FrameTracer &tracer)
{
    TraceRecorder &recorder = TraceRecorder::global();
    recorder.start();
    tracer.finish();
    recorder.stop();
    const Json trace = recorder.toJson();
    std::vector<Json> dones;
    for (const Json &ev : trace.at("traceEvents").items())
        if (ev.at("name").asString() == "frame.done")
            dones.push_back(ev);
    recorder.clear();
    return dones;
}

TEST_F(FrameTraceTest, HopNamesCoverEveryEnumerator)
{
    // Pipeline order: on equal sim totals the critical path keeps the
    // earliest stage, and SLO misses_by_hop is keyed by these names.
    const char *const names[] = {"request",  "prefetch",   "pipe_wait",
                                 "backlog",  "transfer",   "render",
                                 "decode",   "sync",       "stall_wait",
                                 "merge",    "display"};
    ASSERT_EQ(kHopCount, std::size(names));
    for (std::size_t i = 0; i < kHopCount; ++i) {
        const Hop h = static_cast<Hop>(i);
        EXPECT_STREQ(hopName(h), names[i]);
        // Event names are "frame." + hopName.
        EXPECT_EQ(std::string(hopEventName(h)),
                  std::string("frame.") + hopName(h));
    }
    // Critical-path names: a bare hop, or a stall descending into the
    // fetch it waited on.
    EXPECT_STREQ(criticalPathName({}), "none");
    EXPECT_STREQ(criticalPathName({Hop::Render}), "render");
    EXPECT_STREQ(criticalPathName({Hop::StallWait}), "stall_wait");
    EXPECT_STREQ(criticalPathName({Hop::StallWait, Hop::PipeWait}),
                 "stall_wait/pipe_wait");
}

TEST_F(FrameTraceTest, CompletionKeepsLatencyAndComputesCriticalPath)
{
    FrameTracer tracer("t/hops");
    FrameTraceContext ctx =
        tracer.mint(FrameTracer::Kind::Frame, 3, 7, 100.0);
    ASSERT_TRUE(ctx.active());
    ctx.hop(Hop::Render, 100.0, 110.0);
    ctx.hop(Hop::Decode, 110.0, 112.0);
    // The caller owns the latency: the tracer keeps it as given
    // rather than recomputing done - minted (12 ms here).
    const CriticalPath path = tracer.complete(ctx, 112.0, 12.5);

    const auto *rec =
        tracer.find(FrameTracer::Kind::Frame, 3, 7);
    ASSERT_NE(rec, nullptr);
    EXPECT_TRUE(rec->completed);
    EXPECT_FALSE(rec->aborted);
    EXPECT_EQ(rec->latencyMs, 12.5);
    EXPECT_EQ(rec->hops.size(), 2u);
    EXPECT_EQ(path, (CriticalPath{Hop::Render}));
    EXPECT_EQ(rec->criticalPath, path);
    EXPECT_EQ(ctx.hops, 2);
}

TEST_F(FrameTraceTest, CriticalPathSumsHopFamilies)
{
    // Two transfer attempts (5 + 4 = 9 ms) outweigh one 6 ms render:
    // attribution is per hop *family*, not per single longest hop.
    FrameTracer tracer("t/families");
    FrameTraceContext ctx =
        tracer.mint(FrameTracer::Kind::Fetch, 0, 1, 0.0);
    ctx.hop(Hop::Transfer, 0.0, 5.0);
    ctx.hop(Hop::Render, 5.0, 11.0);
    ctx.hop(Hop::Transfer, 11.0, 15.0);
    tracer.complete(ctx, 15.0, 15.0);
    const auto *rec = tracer.find(FrameTracer::Kind::Fetch, 0, 1);
    ASSERT_NE(rec, nullptr);
    EXPECT_STREQ(criticalPathName(rec->criticalPath), "transfer");
}

TEST_F(FrameTraceTest, StallDescendsIntoLinkedFetch)
{
    FrameTracer tracer("t/stall");
    // The fetch whose delivery unblocks the frame: transfer-dominant.
    FrameTraceContext fetch =
        tracer.mint(FrameTracer::Kind::Fetch, 1, 42, 0.0);
    fetch.hop(Hop::Request, 0.0, 0.0);
    fetch.hop(Hop::Backlog, 0.0, 2.0);
    fetch.hop(Hop::Transfer, 2.0, 30.0);
    tracer.complete(fetch, 30.0, 30.0);

    // The displayed frame spent almost all its time stalled on it.
    FrameTraceContext frame =
        tracer.mint(FrameTracer::Kind::Frame, 1, 5, 0.0);
    frame.hop(Hop::StallWait, 0.0, 30.0);
    tracer.link(frame, fetch);
    frame.hop(Hop::Merge, 30.0, 31.0);
    EXPECT_EQ(tracer.complete(frame, 31.0, 31.0),
              (CriticalPath{Hop::StallWait, Hop::Transfer}));

    const auto *rec = tracer.find(FrameTracer::Kind::Frame, 1, 5);
    ASSERT_NE(rec, nullptr);
    EXPECT_STREQ(criticalPathName(rec->criticalPath),
                 "stall_wait/transfer");

    // Without a link the path stays flat.
    FrameTraceContext orphan =
        tracer.mint(FrameTracer::Kind::Frame, 1, 6, 0.0);
    orphan.hop(Hop::StallWait, 0.0, 20.0);
    orphan.hop(Hop::Merge, 20.0, 21.0);
    tracer.complete(orphan, 21.0, 21.0);
    const auto *orec = tracer.find(FrameTracer::Kind::Frame, 1, 6);
    ASSERT_NE(orec, nullptr);
    EXPECT_STREQ(criticalPathName(orec->criticalPath), "stall_wait");
}

TEST_F(FrameTraceTest, InertContextIsANoOpEverywhere)
{
    FrameTraceContext inert;
    EXPECT_FALSE(inert.active());
    inert.hop(Hop::Render, 0.0, 1.0); // must not crash
    FrameTracer tracer("t/inert");
    EXPECT_EQ(tracer.complete(inert, 1.0, 1.0), CriticalPath{});
    tracer.abort(inert, 1.0);
    EXPECT_EQ(tracer.recordCount(), 0u);
    EXPECT_TRUE(exportedFrameDones(tracer).empty());
}

TEST_F(FrameTraceTest, AbortedRecordsAreNotScored)
{
    FrameTracer tracer("t/abort");
    FrameTraceContext ctx =
        tracer.mint(FrameTracer::Kind::Frame, 0, 1, 0.0);
    ctx.hop(Hop::Render, 0.0, 5.0);
    tracer.abort(ctx, 5.0);
    const auto *rec = tracer.find(FrameTracer::Kind::Frame, 0, 1);
    ASSERT_NE(rec, nullptr);
    EXPECT_TRUE(rec->aborted);
    EXPECT_FALSE(rec->completed);
    EXPECT_TRUE(exportedFrameDones(tracer).empty());
}

TEST_F(FrameTraceTest, OnlyFrameRecordsExportFrameDone)
{
    FrameTracer tracer("t/kinds");
    FrameTraceContext fetch =
        tracer.mint(FrameTracer::Kind::Fetch, 0, 1, 0.0);
    fetch.hop(Hop::Transfer, 0.0, 40.0);
    tracer.complete(fetch, 40.0, 40.0); // slow, but not a frame
    FrameTraceContext frame =
        tracer.mint(FrameTracer::Kind::Frame, 0, 1, 0.0);
    frame.hop(Hop::Render, 0.0, 10.0);
    tracer.complete(frame, 10.0, 10.0);
    const std::vector<Json> dones = exportedFrameDones(tracer);
    ASSERT_EQ(dones.size(), 1u);
    const Json &args = dones[0].at("args");
    EXPECT_EQ(args.at("latency_ms").asNumber(), 10.0);
    EXPECT_EQ(args.at("budget_ms").asNumber(), kFrameBudgetMs);
    EXPECT_FALSE(args.at("miss").asBool());
    EXPECT_EQ(args.at("critical_path").asString(), "render");
}

// --- DeadlineTracker ---------------------------------------------------

TEST(DeadlineTracker, ScoresMissesAndAttributesHops)
{
    EXPECT_FALSE(missesDeadline(kFrameBudgetMs)); // the budget itself
    EXPECT_TRUE(missesDeadline(16.70001));
    DeadlineTracker tracker; // 16.7 ms budget
    tracker.record(0, 10.0, "render");
    tracker.record(0, 20.0, "render");
    tracker.record(1, 30.0, "stall_wait/transfer");

    const Json summary = tracker.toJson();
    EXPECT_EQ(summary.at("budget_ms").asNumber(), kFrameBudgetMs);
    EXPECT_EQ(summary.at("frames").asNumber(), 3.0);
    EXPECT_EQ(summary.at("misses").asNumber(), 2.0);
    EXPECT_NEAR(summary.at("miss_rate").asNumber(), 2.0 / 3.0, 1e-12);
    EXPECT_DOUBLE_EQ(summary.at("latency").at("p50_ms").asNumber(),
                     20.0);
    EXPECT_DOUBLE_EQ(summary.at("latency").at("max_ms").asNumber(),
                     30.0);
    const Json &byHop = summary.at("misses_by_hop");
    EXPECT_EQ(byHop.at("render").asNumber(), 1.0);
    EXPECT_EQ(byHop.at("stall_wait/transfer").asNumber(), 1.0);
    const Json &client1 = summary.at("clients").at("1");
    EXPECT_EQ(client1.at("frames").asNumber(), 1.0);
    EXPECT_EQ(client1.at("misses").asNumber(), 1.0);
}

TEST(DeadlineTracker, PercentilesAreExactOverTheSampleList)
{
    DeadlineTracker tracker;
    SampleSet reference;
    for (int i = 1; i <= 200; ++i) {
        const double latency = 0.1 * i; // 0.1 .. 20 ms
        tracker.record(static_cast<std::uint16_t>(i % 4), latency,
                       "render");
        reference.add(latency);
    }
    // Exact SampleSet percentiles on both sides: bit-identical, the
    // property the "published p99 matches the frame log's p99"
    // invariant leans on.
    const Json latency = tracker.toJson().at("latency");
    EXPECT_EQ(latency.at("p50_ms").asNumber(), reference.percentile(50.0));
    EXPECT_EQ(latency.at("p99_ms").asNumber(), reference.percentile(99.0));
    EXPECT_EQ(latency.at("p999_ms").asNumber(),
              reference.percentile(99.9));
}

// --- SLO publication ---------------------------------------------------

TEST_F(FrameTraceTest, SloRegistryKeepsTheLastSummaryPerLabel)
{
    DeadlineTracker tracker;
    for (int i = 0; i < 100; ++i)
        tracker.record(static_cast<std::uint16_t>(i % 2), 5.0 + 0.2 * i,
                       "render"); // 5 .. 24.8 ms
    SloRegistry::global().publish("pool/2p/coterie", tracker.toJson());
    ASSERT_EQ(SloRegistry::global().size(), 1u);
    EXPECT_EQ(SloRegistry::global()
                  .snapshotJson()
                  .at("pool/2p/coterie")
                  .at("frames")
                  .asNumber(),
              100.0);

    // Any metrics snapshot re-exports the global SLO registry.
    MetricsRegistry registry;
    const Json snap = registry.snapshotJson();
    ASSERT_TRUE(snap.contains("slo"));
    EXPECT_TRUE(snap.at("slo").contains("pool/2p/coterie"));

    // Re-publishing under the same label replaces (last write wins).
    DeadlineTracker again;
    again.record(0, 1.0, "render");
    SloRegistry::global().publish("pool/2p/coterie", again.toJson());
    EXPECT_EQ(SloRegistry::global().size(), 1u);
    EXPECT_EQ(SloRegistry::global()
                  .snapshotJson()
                  .at("pool/2p/coterie")
                  .at("frames")
                  .asNumber(),
              1.0);
}

// --- One frame record ---------------------------------------------------

TEST_F(FrameTraceTest, OneRecordFeedsTraceSloAndGovernor)
{
    // A short 4-player session: enough players sharing one channel to
    // stall now and then, so the miss checks below are not vacuous.
    core::SessionParams params;
    params.players = 4;
    params.durationS = 6.0;
    params.seed = 42;
    params.calibrateSimilarity = false;
    const auto session =
        core::Session::create(world::gen::GameId::Viking, params);
    core::SystemConfig config = session->systemConfig();
    config.recordFrameLog = true;

    TraceRecorder &recorder = TraceRecorder::global();
    recorder.start();
    sim::EventQueue queue;
    core::SplitSystemRun run(queue, config, core::SplitVariant::coterie(),
                             session->distThresholds(), "Coterie");
    run.start();
    const double half = run.durationMs() / 2.0;
    queue.runUntil(half);
    const core::LiveSlo mid = run.sampleSlo();
    queue.runUntil(run.durationMs() + core::SplitSystemRun::settleMs());
    const core::LiveSlo end = run.sampleSlo();
    const core::SystemResult result = run.finish();
    recorder.stop();
    const Json trace = recorder.toJson();
    recorder.clear();

    std::uint64_t frames = 0, misses = 0, midFrames = 0, midMisses = 0;
    SampleSet latencies;
    ASSERT_EQ(result.frameLogs.size(), 4u);
    for (std::size_t p = 0; p < result.frameLogs.size(); ++p) {
        const auto &log = result.frameLogs[p];
        EXPECT_EQ(log.size(), result.players[p].framesDisplayed);
        for (const core::FrameLogEntry &e : log) {
            const bool miss = missesDeadline(e.latencyMs);
            ++frames;
            misses += miss;
            latencies.add(e.latencyMs);
            if (e.displayMs <= half) {
                ++midFrames;
                midMisses += miss;
            }
            // DESIGN §13: a miss is always a stalled frame, waiting on
            // a transfer or on the client pipe.
            if (miss) {
                EXPECT_TRUE(e.degraded);
                EXPECT_EQ(e.criticalPath.hop, Hop::StallWait);
            }
        }
    }
    ASSERT_GT(misses, 0u) << "the run must miss for the checks to bite";

    // 1. Every exported frame.done is its frame record, bit for bit.
    std::uint64_t dones = 0;
    for (const Json &ev : trace.at("traceEvents").items()) {
        if (ev.at("name").asString() != "frame.done")
            continue;
        const Json &args = ev.at("args");
        ASSERT_EQ(args.at("label").asString(), run.label());
        const auto client =
            static_cast<std::size_t>(args.at("client").asNumber());
        const auto frame =
            static_cast<std::size_t>(args.at("frame").asNumber());
        ASSERT_LT(client, result.frameLogs.size());
        ASSERT_LT(frame, result.frameLogs[client].size());
        const core::FrameLogEntry &e = result.frameLogs[client][frame];
        EXPECT_EQ(args.at("latency_ms").asNumber(), e.latencyMs);
        EXPECT_EQ(args.at("miss").asBool(), missesDeadline(e.latencyMs));
        EXPECT_EQ(args.at("critical_path").asString(),
                  criticalPathName(e.criticalPath));
        ++dones;
    }
    EXPECT_EQ(dones, frames);

    // 2. The published SLO summary is the frame log's.
    const Json slo = SloRegistry::global().snapshotJson().at(run.label());
    EXPECT_EQ(slo.at("frames").asNumber(), static_cast<double>(frames));
    EXPECT_EQ(slo.at("misses").asNumber(), static_cast<double>(misses));
    EXPECT_EQ(slo.at("latency").at("p99_ms").asNumber(),
              latencies.percentile(99.0));

    // 3. The governor's samples count the same records.
    EXPECT_EQ(mid.frames, midFrames);
    EXPECT_EQ(mid.misses, midMisses);
    EXPECT_EQ(mid.windowFrames, midFrames);
    EXPECT_EQ(end.frames, frames);
    EXPECT_EQ(end.misses, misses);
    EXPECT_EQ(end.windowFrames, frames - midFrames);
    EXPECT_EQ(end.windowMisses, misses - midMisses);
}

TEST_F(FrameTraceTest, SloSnapshotDumpIsDeterministic)
{
    // Same records -> byte-identical registry dump regardless of
    // publish order: the chaos harness diffs these across
    // COTERIE_THREADS runs.
    const auto publishBoth = [](bool reversed) {
        SloRegistry::global().clear();
        DeadlineTracker a, b;
        a.record(0, 10.0, "render");
        a.record(1, 21.0, "transfer");
        b.record(0, 8.0, "decode");
        if (reversed) {
            SloRegistry::global().publish("s/b", b.toJson());
            SloRegistry::global().publish("s/a", a.toJson());
        } else {
            SloRegistry::global().publish("s/a", a.toJson());
            SloRegistry::global().publish("s/b", b.toJson());
        }
        return SloRegistry::global().snapshotJson().dump(2);
    };
    EXPECT_EQ(publishBoth(false), publishBoth(true));
}

// --- Flight recorder ---------------------------------------------------

#if COTERIE_FLIGHT_ENABLED

TEST(FlightRecorder, RingWrapsAndDumpParses)
{
    const std::string path = "frame_trace_flight_wrap.json";
    // Overfill this thread's ring; the recorder keeps the newest
    // kRingCapacity events and the dump must still be valid JSON.
    for (std::size_t i = 0; i < flight::kRingCapacity + 512; ++i)
        flight::recordFrameHop("frame.render", "flight/test", 1,
                               2, i, static_cast<double>(i), 1.0, 0);
    flight::recordFrameDone("flight/test", 1, 2, 999, 1000.0, 21.5,
                            "render");
    ASSERT_TRUE(flight::dump(path));

    bool ok = true;
    std::string text;
    {
        std::FILE *f = std::fopen(path.c_str(), "rb");
        ASSERT_NE(f, nullptr);
        char buf[1 << 16];
        std::size_t n;
        while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
            text.append(buf, n);
        ok = std::ferror(f) == 0;
        std::fclose(f);
    }
    ASSERT_TRUE(ok);
    std::string error;
    const Json doc = Json::parse(text, &error);
    ASSERT_TRUE(error.empty()) << error;
    ASSERT_TRUE(doc.contains("traceEvents"));

    std::size_t hops = 0, dones = 0;
    for (const Json &ev : doc.at("traceEvents").items()) {
        const std::string name = ev.at("name").asString();
        if (name == "frame.render" &&
            ev.at("ph").asString() == "X") {
            ++hops;
            // Sim-timeline events live under pid 2, track = client.
            EXPECT_EQ(ev.at("pid").asNumber(), 2.0);
            EXPECT_EQ(ev.at("tid").asNumber(), 2.0);
        } else if (name == "frame.done") {
            ++dones;
            EXPECT_DOUBLE_EQ(
                ev.at("args").at("latency_ms").asNumber(), 21.5);
            EXPECT_EQ(ev.at("args").at("critical_path").asString(),
                      "render");
            EXPECT_EQ(ev.at("args").at("budget_ms").asNumber(),
                      kFrameBudgetMs);
            EXPECT_TRUE(ev.at("args").at("miss").asBool());
        }
    }
    // The ring wrapped: at most kRingCapacity survivors, and the ones
    // that did survive are the newest (the frame.done among them).
    EXPECT_GT(hops, 0u);
    EXPECT_LE(hops, flight::kRingCapacity);
    EXPECT_EQ(dones, 1u);
    std::remove(path.c_str());
}

TEST(FlightRecorder, InternIsIdempotentAndStable)
{
    const char *a = flight::intern("flight/label");
    const char *b = flight::intern("flight/label");
    const char *c = flight::intern("flight/other");
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_STREQ(a, "flight/label");
}

TEST(FlightRecorder, TracerHopsLandInTheRing)
{
    const std::size_t before = flight::eventCount();
    FrameTracer tracer("flight/tracer");
    FrameTraceContext ctx =
        tracer.mint(FrameTracer::Kind::Frame, 0, 1, 0.0);
    ctx.hop(Hop::Render, 0.0, 10.0);
    tracer.complete(ctx, 10.0, 10.0);
    // One event per hop plus the completion marker — but a full ring
    // (earlier tests may have saturated it) overwrites in place, so
    // cap the expectation at the ring capacity.
    EXPECT_GE(flight::eventCount(),
              std::min(before + 2, flight::kRingCapacity));
}

using FlightDeathTest = testing::Test;

TEST(FlightDeathTest, InjectedAssertLeavesAParseableDump)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const std::string path = "frame_trace_flight_death.json";
    std::remove(path.c_str());
    // The death-test child inherits the env var, records an event (which
    // lazily arms the panic hook), then trips an assert; the hook must
    // write the dump before the abort.
    ASSERT_EQ(setenv("COTERIE_FLIGHT_DUMP", path.c_str(), 1), 0);
    EXPECT_DEATH(
        {
            flight::recordInstant("flight.crash_marker", "test", 5.0);
            COTERIE_ASSERT(false, "injected flight-dump crash");
        },
        "injected flight-dump crash");
    unsetenv("COTERIE_FLIGHT_DUMP");

    std::string text;
    {
        std::FILE *f = std::fopen(path.c_str(), "rb");
        ASSERT_NE(f, nullptr)
            << "panic hook did not write the flight dump";
        char buf[1 << 16];
        std::size_t n;
        while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
            text.append(buf, n);
        std::fclose(f);
    }
    std::string error;
    const Json doc = Json::parse(text, &error);
    ASSERT_TRUE(error.empty()) << error;
    bool sawMarker = false;
    for (const Json &ev : doc.at("traceEvents").items())
        if (ev.at("name").asString() == "flight.crash_marker")
            sawMarker = true;
    EXPECT_TRUE(sawMarker);
    std::remove(path.c_str());
}

#else // COTERIE_FLIGHT_ENABLED

TEST(FlightRecorder, CompiledOutEntryPointsAreInertNoOps)
{
    static_assert(!flight::kCompiledIn);
    flight::recordInstant("gone", "test");
    EXPECT_EQ(flight::eventCount(), 0u);
    EXPECT_FALSE(flight::dump("unused.json"));
    EXPECT_STREQ(flight::intern("anything"), "");
}

#endif // COTERIE_FLIGHT_ENABLED

} // namespace
} // namespace coterie::obs
