/**
 * @file
 * Tests for the frame-lifecycle causal tracer, the deadline SLO
 * engine, and the always-on flight recorder: hop stamping and
 * critical-path computation (including stall descent into the linked
 * fetch record), deadline scoring/attribution and its JSON summary,
 * SLO publication into the metrics snapshot, the one-record invariant
 * (trace export, SLO summary and governor window all read a run's
 * frame records), one emit feeding both sinks with the same encoding,
 * flight-ring wraparound and dump parsing, and the crash-dump path (an
 * injected COTERIE_ASSERT must leave a parseable flight dump behind).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "core/client.hh"
#include "core/session.hh"
#include "core/systems/systems.hh"
#include "obs/flight.hh"
#include "obs/frame_trace.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/slo.hh"
#include "obs/trace.hh"
#include "sim/event_queue.hh"
#include "sim/faults.hh"
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

/** Stop the global recorder (started before the records were minted:
 *  frame events reach it live) and return the frame events it
 *  exported: hops and `frame.done`s. */
std::vector<Json>
exportedFrameEvents()
{
    TraceRecorder &recorder = TraceRecorder::global();
    recorder.stop();
    const Json trace = recorder.toJson();
    std::vector<Json> events;
    for (const Json &ev : trace.at("traceEvents").items())
        if (ev.at("cat").asString() == "frame")
            events.push_back(ev);
    recorder.clear();
    return events;
}

/** The events of @p events named @p name. */
std::vector<Json>
named(const std::vector<Json> &events, const std::string &name)
{
    std::vector<Json> out;
    for (const Json &ev : events)
        if (ev.at("name").asString() == name)
            out.push_back(ev);
    return out;
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
    TraceRecorder::global().start();
    FrameTracer tracer("t/hops");
    FrameTraceContext ctx = tracer.mint(FrameTracer::Kind::Frame, 3, 7);
    ASSERT_TRUE(ctx.active());
    ctx.hop(Hop::Render, 100.0, 110.0);
    ctx.hop(Hop::Decode, 110.0, 112.0);
    // The caller owns the latency: the tracer exports it as given
    // rather than recomputing it from the hops (12 ms here).
    EXPECT_EQ(tracer.complete(ctx, 112.0, 12.5),
              (CriticalPath{Hop::Render}));

    const std::vector<Json> dones =
        named(exportedFrameEvents(), "frame.done");
    ASSERT_EQ(dones.size(), 1u);
    const Json &args = dones[0].at("args");
    EXPECT_EQ(args.at("client").asNumber(), 3.0);
    EXPECT_EQ(args.at("frame").asNumber(), 7.0);
    EXPECT_EQ(args.at("latency_ms").asNumber(), 12.5);
    EXPECT_EQ(args.at("critical_path").asString(), "render");
}

TEST_F(FrameTraceTest, CriticalPathSumsHopFamilies)
{
    // Two transfer attempts (5 + 4 = 9 ms) outweigh one 6 ms render:
    // attribution is per hop *family*, not per single longest hop.
    FrameTracer tracer("t/families");
    FrameTraceContext ctx = tracer.mint(FrameTracer::Kind::Fetch, 0, 1);
    ctx.hop(Hop::Transfer, 0.0, 5.0);
    ctx.hop(Hop::Render, 5.0, 11.0);
    ctx.hop(Hop::Transfer, 11.0, 15.0);
    EXPECT_STREQ(criticalPathName(tracer.complete(ctx, 15.0, 15.0)),
                 "transfer");
}

TEST_F(FrameTraceTest, StallDescendsIntoLinkedFetch)
{
    TraceRecorder::global().start();
    FrameTracer tracer("t/stall");
    // The fetch whose delivery unblocks the frame: transfer-dominant.
    FrameTraceContext fetch = tracer.mint(FrameTracer::Kind::Fetch, 1, 42);
    fetch.hop(Hop::Request, 0.0, 0.0);
    fetch.hop(Hop::Backlog, 0.0, 2.0);
    fetch.hop(Hop::Transfer, 2.0, 30.0);
    const CriticalPath fetchPath = tracer.complete(fetch, 30.0, 30.0);
    EXPECT_EQ(fetchPath, (CriticalPath{Hop::Transfer}));

    // The displayed frame spent almost all its time stalled on it.
    FrameTraceContext frame = tracer.mint(FrameTracer::Kind::Frame, 1, 5);
    frame.hop(Hop::StallWait, 0.0, 30.0);
    tracer.link(frame, fetchPath.hop);
    frame.hop(Hop::Merge, 30.0, 31.0);
    EXPECT_EQ(tracer.complete(frame, 31.0, 31.0),
              (CriticalPath{Hop::StallWait, Hop::Transfer}));

    // Without a link the path stays flat.
    FrameTraceContext orphan = tracer.mint(FrameTracer::Kind::Frame, 1, 6);
    orphan.hop(Hop::StallWait, 0.0, 20.0);
    orphan.hop(Hop::Merge, 20.0, 21.0);
    EXPECT_EQ(tracer.complete(orphan, 21.0, 21.0),
              (CriticalPath{Hop::StallWait}));

    // The exported frame.done events carry the same paths.
    const std::vector<Json> dones =
        named(exportedFrameEvents(), "frame.done");
    ASSERT_EQ(dones.size(), 2u);
    EXPECT_EQ(dones[0].at("args").at("critical_path").asString(),
              "stall_wait/transfer");
    EXPECT_EQ(dones[1].at("args").at("critical_path").asString(),
              "stall_wait");
}

TEST_F(FrameTraceTest, InertContextIsANoOpEverywhere)
{
    TraceRecorder::global().start();
    FrameTraceContext inert;
    EXPECT_FALSE(inert.active());
    inert.hop(Hop::Render, 0.0, 1.0); // must not crash
    FrameTracer tracer("t/inert");
    tracer.link(inert, Hop::Transfer);
    EXPECT_EQ(tracer.complete(inert, 1.0, 1.0), CriticalPath{});
    tracer.abort(inert);
    EXPECT_TRUE(exportedFrameEvents().empty());
}

TEST_F(FrameTraceTest, AbortedRecordsAreNotScored)
{
    TraceRecorder::global().start();
    FrameTracer tracer("t/abort");
    FrameTraceContext ctx = tracer.mint(FrameTracer::Kind::Frame, 0, 1);
    ctx.hop(Hop::Render, 0.0, 5.0);
    tracer.abort(ctx);
    // A hop landing after the release (a transfer finishing after its
    // fetch was cancelled) is still emitted.
    ctx.hop(Hop::Render, 5.0, 7.0);
    const std::vector<Json> events = exportedFrameEvents();
    EXPECT_EQ(named(events, "frame.render").size(), 2u);
    EXPECT_TRUE(named(events, "frame.done").empty());
}

TEST(FrameTraceDeathTest, ReleasedRecordsCannotComplete)
{
    // complete() and abort() both release the record: a second
    // completion finds nothing to score.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    FrameTracer tracer("t/released");
    FrameTraceContext done = tracer.mint(FrameTracer::Kind::Fetch, 0, 1);
    tracer.complete(done, 5.0, 5.0);
    EXPECT_DEATH(tracer.complete(done, 6.0, 6.0),
                 "bad frame-trace record id");
    FrameTraceContext aborted = tracer.mint(FrameTracer::Kind::Fetch, 0, 2);
    tracer.abort(aborted);
    EXPECT_DEATH(tracer.complete(aborted, 6.0, 6.0),
                 "bad frame-trace record id");
}

TEST_F(FrameTraceTest, OnlyFrameKindExportsFrameDone)
{
    TraceRecorder::global().start();
    FrameTracer tracer("t/kinds");
    FrameTraceContext fetch = tracer.mint(FrameTracer::Kind::Fetch, 0, 1);
    fetch.hop(Hop::Transfer, 0.0, 40.0);
    tracer.complete(fetch, 40.0, 40.0); // slow, but not a frame
    FrameTraceContext frame = tracer.mint(FrameTracer::Kind::Frame, 0, 1);
    frame.hop(Hop::Render, 0.0, 10.0);
    tracer.complete(frame, 10.0, 10.0);
    const std::vector<Json> dones =
        named(exportedFrameEvents(), "frame.done");
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

/** "<critical path>=<frames>" over every frame record of @p result,
 *  space-separated in name order. */
std::string
criticalPathCounts(const core::SystemResult &result)
{
    std::map<std::string, std::size_t> counts;
    for (const std::vector<core::FrameLogEntry> &log : result.frameLogs)
        for (const core::FrameLogEntry &e : log)
            ++counts[criticalPathName(e.criticalPath)];
    std::string out;
    for (const auto &[name, frames] : counts)
        out += (out.empty() ? "" : " ") + name + "=" +
               std::to_string(frames);
    return out;
}

TEST_F(FrameTraceTest, CriticalPathCountsMatchRecordedRuns)
{
    // Solo Viking 2-player 20 s runs: clean Coterie, Coterie through a
    // disconnect and a loss burst (resilience off and on), and
    // Multi-Furion, whose stalls wait on the pipe or on a transfer.
    // Recorded from the tracer that kept every record's hop list.
    core::SessionParams params;
    params.players = 2;
    params.durationS = 20.0;
    params.seed = 42;
    const auto session =
        core::Session::create(world::gen::GameId::Viking, params);
    core::SystemConfig config = session->systemConfig();
    config.recordFrameLog = true;
    EXPECT_EQ(criticalPathCounts(
                  core::runCoterie(config, session->distThresholds())),
              "decode=2362 display=3 render=30 stall_wait/transfer=3");

    sim::FaultPlan plan;
    plan.disconnect(5000.0, 8000.0, 1).lossBurst(9000.0, 12000.0, 0.3);
    config.faults = &plan;
    EXPECT_EQ(criticalPathCounts(
                  core::runCoterie(config, session->distThresholds())),
              "decode=2177 display=7 render=30 stall_wait/transfer=2 sync=2");
    config.resilience.enabled = true;
    EXPECT_EQ(criticalPathCounts(
                  core::runCoterie(config, session->distThresholds())),
              "decode=2177 display=7 render=30 stall_wait/transfer=2 sync=2");

    config.faults = nullptr;
    config.resilience = {};
    EXPECT_EQ(criticalPathCounts(core::runMultiFurion(config)),
              "decode=304 display=374 stall_wait/pipe_wait=799 "
              "stall_wait/transfer=867");
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

// --- One record, two sinks -------------------------------------------

/** Parse the JSON file at @p path (Null when unreadable). */
Json
readJsonFile(const std::string &path)
{
    std::string text;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return {};
    char buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        text.append(buf, n);
    const bool ok = std::ferror(f) == 0;
    std::fclose(f);
    std::string error;
    const Json doc = Json::parse(text, &error);
    EXPECT_TRUE(ok && error.empty()) << path << ": " << error;
    return doc;
}

/** The one event named @p name (frame events: of session @p label) in
 *  a trace document, re-serialized without its wall-clock `ts`. */
std::string
eventWithoutWallTs(const Json &doc, const std::string &name,
                   const std::string &label)
{
    std::string found;
    for (const Json &ev : doc.at("traceEvents").items()) {
        if (ev.at("name").asString() != name ||
            ev.at("args").at("label").asString() != label)
            continue;
        const bool frame = ev.at("pid").asNumber() == 2.0;
        Json copy = Json::object();
        for (const auto &[key, value] : ev.members())
            if (frame || key != "ts")
                copy.set(key, value);
        EXPECT_TRUE(found.empty()) << "two events named " << name;
        found = copy.dump();
    }
    return found;
}

TEST_F(FrameTraceTest, LiveTraceAndFlightDumpEncodeEveryEventAlike)
{
    // One span, one instant, and one frame hop plus its frame.done,
    // each emitted once while the recorder records: both sinks hold
    // each one, written by the one encoder (only the wall epoch, and
    // with it the wall-clock ts, differs between them).
    const std::string label = "t/both_sinks";
    TraceRecorder &recorder = TraceRecorder::global();
    recorder.start();
    {
        COTERIE_NAMED_SPAN(span, "test.both_sinks.span", "test");
        span.simTimeMs(4.0);
    }
    instant("test.both_sinks.instant", "test", 5.0);
    FrameTracer tracer(label);
    FrameTraceContext ctx = tracer.mint(FrameTracer::Kind::Frame, 1, 9);
    ctx.hop(Hop::Render, 10.0, 18.0);
    tracer.complete(ctx, 18.0, 8.0);
    recorder.stop();
    const Json live = recorder.toJson();
    recorder.clear();

    // Frame events carry the session label in every build.
    const std::string hop = eventWithoutWallTs(live, "frame.render", label);
    const std::string done = eventWithoutWallTs(live, "frame.done", label);
    EXPECT_NE(hop.find("\"label\":\"t/both_sinks\""), std::string::npos)
        << hop;
    EXPECT_NE(done.find("\"critical_path\":\"render\""),
              std::string::npos)
        << done;
    const std::string marker =
        eventWithoutWallTs(live, "test.both_sinks.instant", "");
    EXPECT_NE(marker.find("\"sim_ms\":5"), std::string::npos) << marker;
#if COTERIE_TELEMETRY_ENABLED
    const std::string span =
        eventWithoutWallTs(live, "test.both_sinks.span", "");
    EXPECT_FALSE(span.empty());
#else
    const std::string span;
#endif

#if COTERIE_FLIGHT_ENABLED
    const std::string path = "frame_trace_both_sinks.json";
    ASSERT_TRUE(flight::dump(path));
    const Json dumped = readJsonFile(path);
    std::remove(path.c_str());
    EXPECT_EQ(eventWithoutWallTs(dumped, "frame.render", label), hop);
    EXPECT_EQ(eventWithoutWallTs(dumped, "frame.done", label), done);
    EXPECT_EQ(eventWithoutWallTs(dumped, "test.both_sinks.instant", ""),
              marker);
    if (!span.empty()) {
        EXPECT_EQ(eventWithoutWallTs(dumped, "test.both_sinks.span", ""),
                  span);
    }
#else
    EXPECT_FALSE(flight::dump("frame_trace_both_sinks.json"));
#endif
}

TEST(FlightRecorder, InternIsIdempotentAndStable)
{
    const char *a = intern("flight/label");
    const char *b = intern("flight/label");
    const char *c = intern("flight/other");
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_STREQ(a, "flight/label");
}

// --- Flight recorder ---------------------------------------------------

#if COTERIE_FLIGHT_ENABLED

TEST(FlightRecorder, RingWrapsAndDumpParses)
{
    const std::string path = "frame_trace_flight_wrap.json";
    // Overfill this thread's ring; the recorder keeps the newest
    // kRingCapacity events and the dump must still be valid JSON.
    TraceEvent hop;
    hop.kind = TraceEventKind::FrameHop;
    hop.name = "frame.render";
    hop.category = "frame";
    hop.label = "flight/test";
    hop.client = 2;
    hop.simDurMs = 1.0;
    for (std::size_t i = 0; i < flight::kRingCapacity + 512; ++i) {
        hop.frame = i;
        hop.simBeginMs = static_cast<double>(i);
        flight::record(hop);
    }
    TraceEvent done = hop;
    done.kind = TraceEventKind::FrameDone;
    done.name = "frame.done";
    done.frame = 999;
    done.simBeginMs = 1000.0;
    done.simDurMs = 0.0;
    done.value = 21.5;
    done.critical = "render";
    flight::record(done);
    ASSERT_TRUE(flight::dump(path));
    const Json doc = readJsonFile(path);
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

TEST(FlightRecorder, TracerHopsLandInTheRing)
{
    const std::size_t before = flight::eventCount();
    FrameTracer tracer("flight/tracer");
    FrameTraceContext ctx = tracer.mint(FrameTracer::Kind::Frame, 0, 1);
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
            instant("flight.crash_marker", "test", 5.0);
            COTERIE_ASSERT(false, "injected flight-dump crash");
        },
        "injected flight-dump crash");
    unsetenv("COTERIE_FLIGHT_DUMP");

    const Json doc = readJsonFile(path);
    ASSERT_TRUE(doc.contains("traceEvents"))
        << "panic hook did not write the flight dump";
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
    instant("gone", "test");
    EXPECT_EQ(flight::eventCount(), 0u);
    EXPECT_FALSE(flight::dump("unused.json"));
}

#endif // COTERIE_FLIGHT_ENABLED

} // namespace
} // namespace coterie::obs
