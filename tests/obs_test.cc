/**
 * @file
 * Tests for the coterie-scope observability layer: the Json value
 * type, the lock-striped MetricsRegistry (including a concurrent
 * first-touch hammer run through the shared pool so TSan sees the
 * real contention pattern), timer shard-folding, scoped trace spans
 * (nesting and cross-thread interleaving), and a golden round-trip of
 * the exported Chrome trace_event document.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "support/parallel.hh"
#include "support/stats.hh"

namespace coterie::obs {
namespace {

// --- Json -------------------------------------------------------------

/** Nesting depth that overflowed an 8 MiB stack before parse() bounded
 *  it (50 000 levels already did). */
constexpr std::size_t kDeepNesting = 200'000;

TEST(Json, ScalarConstructionAndAccess)
{
    EXPECT_TRUE(Json().isNull());
    EXPECT_TRUE(Json(true).asBool());
    EXPECT_FALSE(Json(false).asBool(true));
    EXPECT_DOUBLE_EQ(Json(2.5).asNumber(), 2.5);
    EXPECT_DOUBLE_EQ(Json(7).asNumber(), 7.0);
    EXPECT_EQ(Json("hi").asString(), "hi");
}

TEST(Json, ObjectPreservesInsertionOrder)
{
    Json obj = Json::object();
    obj.set("zebra", Json(1));
    obj.set("apple", Json(2));
    obj.set("mango", Json(3));
    ASSERT_EQ(obj.members().size(), 3u);
    EXPECT_EQ(obj.members()[0].first, "zebra");
    EXPECT_EQ(obj.members()[1].first, "apple");
    EXPECT_EQ(obj.members()[2].first, "mango");
    EXPECT_EQ(obj.dump(), R"({"zebra":1,"apple":2,"mango":3})");
}

TEST(Json, SetOverwritesExistingKeyInPlace)
{
    Json obj = Json::object();
    obj.set("a", Json(1));
    obj.set("b", Json(2));
    obj.set("a", Json(9));
    ASSERT_EQ(obj.members().size(), 2u);
    EXPECT_EQ(obj.members()[0].first, "a");
    EXPECT_DOUBLE_EQ(obj.at("a").asNumber(), 9.0);
}

TEST(Json, DumpEscapesControlAndQuoteCharacters)
{
    Json obj = Json::object();
    obj.set("s", Json(std::string("a\"b\\c\n\t\x01")));
    const std::string text = obj.dump();
    EXPECT_NE(text.find("\\\""), std::string::npos);
    EXPECT_NE(text.find("\\\\"), std::string::npos);
    EXPECT_NE(text.find("\\n"), std::string::npos);
    EXPECT_NE(text.find("\\t"), std::string::npos);
    EXPECT_NE(text.find("\\u0001"), std::string::npos);

    std::string error;
    const Json back = Json::parse(text, &error);
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_EQ(back.at("s").asString(), "a\"b\\c\n\t\x01");
}

TEST(Json, ParseHandlesNestedDocument)
{
    std::string error;
    const Json doc = Json::parse(
        R"({"a": [1, 2.5, -3e2, -0, 2E-2, 0.5e+1, 1e-400],)"
        R"( "b": {"c": null, "d": [true, false]}, "e": "x"})",
        &error);
    ASSERT_TRUE(error.empty()) << error;
    ASSERT_TRUE(doc.isObject());
    ASSERT_TRUE(doc.at("a").isArray());
    ASSERT_EQ(doc.at("a").items().size(), 7u);
    EXPECT_DOUBLE_EQ(doc.at("a").items()[2].asNumber(), -300.0);
    EXPECT_DOUBLE_EQ(doc.at("a").items()[4].asNumber(), 0.02);
    EXPECT_DOUBLE_EQ(doc.at("a").items()[5].asNumber(), 5.0);
    EXPECT_EQ(doc.at("a").items()[6].asNumber(), 0.0); // underflow
    EXPECT_TRUE(doc.at("b").at("c").isNull());
    EXPECT_TRUE(doc.at("b").at("d").items()[0].asBool());
    EXPECT_EQ(doc.at("e").asString(), "x");
    EXPECT_FALSE(doc.contains("missing"));
    EXPECT_TRUE(doc.at("missing").isNull());
}

TEST(Json, ParseReportsErrorsWithPosition)
{
    const std::string deep(kDeepNesting, '[');
    const std::string broken[] = {
        "{", "[1, ]", "{\"a\" 1}", "tru", "\"unterminated",
        "{\"a\":1} trailing",
        // Numbers follow the JSON grammar and are finite.
        "[-inf]", "[-nan]", "[1e999]", "[-1e999]", "[0x10]", "[01]",
        "[-]", "[1.]", "[.5]", "[1e]", "[1e+]", "[+1]",
        // Nesting is bounded instead of recursing off the stack.
        deep, deep + "1" + std::string(kDeepNesting, ']')};
    for (const std::string &text : broken) {
        std::string error;
        const Json v = Json::parse(text, &error);
        EXPECT_NE(error.find(" at offset "), std::string::npos)
            << "no positioned error for: " << text.substr(0, 40);
        EXPECT_TRUE(v.isNull())
            << "non-null result for: " << text.substr(0, 40);
    }
}

TEST(Json, DumpParseRoundTripPreservesStructure)
{
    Json doc = Json::object();
    doc.set("pi", Json(3.141592653589793));
    doc.set("n", Json(std::uint64_t{1234567}));
    Json arr = Json::array();
    arr.push(Json("one"));
    arr.push(Json(true));
    arr.push(Json());
    doc.set("arr", std::move(arr));

    for (int indent : {-1, 0, 2}) {
        std::string error;
        const Json back = Json::parse(doc.dump(indent), &error);
        ASSERT_TRUE(error.empty()) << error;
        EXPECT_DOUBLE_EQ(back.at("pi").asNumber(), 3.141592653589793);
        EXPECT_DOUBLE_EQ(back.at("n").asNumber(), 1234567.0);
        ASSERT_EQ(back.at("arr").items().size(), 3u);
        EXPECT_EQ(back.at("arr").items()[0].asString(), "one");
        EXPECT_TRUE(back.at("arr").items()[1].asBool());
        EXPECT_TRUE(back.at("arr").items()[2].isNull());
    }
}

// --- MetricsRegistry --------------------------------------------------

TEST(MetricsRegistry, HandlesAreStableAndPerName)
{
    MetricsRegistry reg;
    Counter &a = reg.counter("test.a");
    Counter &b = reg.counter("test.b");
    EXPECT_NE(&a, &b);
    EXPECT_EQ(&a, &reg.counter("test.a"));

    a.add();
    a.add(4);
    EXPECT_EQ(a.value(), 5u);

    Gauge &g = reg.gauge("test.g");
    g.set(2.5);
    EXPECT_DOUBLE_EQ(reg.gauge("test.g").value(), 2.5);

    // A counter and a gauge may share a name without colliding.
    EXPECT_EQ(reg.counter("test.g").value(), 0u);
    EXPECT_EQ(reg.size(), 4u);
}

TEST(MetricsRegistry, SnapshotJsonSortsKeysAndReportsValues)
{
    MetricsRegistry reg;
    reg.counter("z.last").add(3);
    reg.counter("a.first").add(1);
    reg.gauge("m.gauge").set(0.5);
    reg.timer("t.timer").observe(10.0);
    reg.timer("t.timer").observe(30.0);

    const Json snap = reg.snapshotJson();
    const auto &counters = snap.at("counters").members();
    ASSERT_EQ(counters.size(), 2u);
    EXPECT_EQ(counters[0].first, "a.first");
    EXPECT_EQ(counters[1].first, "z.last");
    EXPECT_DOUBLE_EQ(snap.at("counters").at("z.last").asNumber(), 3.0);
    EXPECT_DOUBLE_EQ(snap.at("gauges").at("m.gauge").asNumber(), 0.5);

    const Json &timer = snap.at("timers").at("t.timer");
    EXPECT_DOUBLE_EQ(timer.at("count").asNumber(), 2.0);
    EXPECT_DOUBLE_EQ(timer.at("mean").asNumber(), 20.0);
    EXPECT_DOUBLE_EQ(timer.at("min").asNumber(), 10.0);
    EXPECT_DOUBLE_EQ(timer.at("max").asNumber(), 30.0);

    const std::string csv = reg.snapshotCsv();
    EXPECT_NE(csv.find("counter,a.first,"), std::string::npos);
    EXPECT_NE(csv.find("timer,t.timer,"), std::string::npos);
}

TEST(MetricsRegistry, ConcurrentFirstTouchHammer)
{
    // Many pool workers race to first-touch a shared set of names
    // across every stripe while hammering increments. Run under TSan
    // in the sanitizer matrix, this is the registry's thread-safety
    // proof; the value checks below prove no increment is lost.
    MetricsRegistry reg;
    constexpr int kNames = 64;
    constexpr std::int64_t kOps = 4096;

    std::vector<std::string> names;
    names.reserve(kNames);
    for (int i = 0; i < kNames; ++i)
        names.push_back("hammer.metric_" + std::to_string(i));

    support::parallelFor(0, kOps, 1, [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) {
            const std::string &name =
                names[static_cast<std::size_t>(i) % kNames];
            reg.counter(name).add(1);
            reg.gauge(name).set(static_cast<double>(i));
            reg.timer(name).observe(static_cast<double>(i % 7) + 0.5);
        }
    });

    std::uint64_t total = 0;
    for (const std::string &name : names)
        total += reg.counter(name).value();
    EXPECT_EQ(total, static_cast<std::uint64_t>(kOps));

    std::size_t observations = 0;
    for (const std::string &name : names)
        observations += reg.timer(name).snapshot().stats.count();
    EXPECT_EQ(observations, static_cast<std::size_t>(kOps));
    EXPECT_EQ(reg.size(), 3u * kNames);
}

TEST(Timer, ShardFoldMatchesAllObservations)
{
    Timer timer;
    constexpr std::int64_t kN = 10000;
    // Observed from many pool threads -> lands in multiple shards.
    support::parallelFor(0, kN, 64, [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i)
            timer.observe(1.0 + static_cast<double>(i % 100));
    });

    const Timer::Snapshot snap = timer.snapshot();
    EXPECT_EQ(snap.stats.count(), static_cast<std::size_t>(kN));
    EXPECT_DOUBLE_EQ(snap.stats.min(), 1.0);
    EXPECT_DOUBLE_EQ(snap.stats.max(), 100.0);
    EXPECT_NEAR(snap.stats.mean(), 50.5, 1e-9);
    EXPECT_EQ(snap.hist.total(), static_cast<std::size_t>(kN));
}

TEST(Timer, NonFiniteObservationsAreDroppedAndHistStaysFinite)
{
    Timer timer;
    timer.observe(0.0); // zero-duration scope: hist clamps before log10
    timer.observe(std::nan(""));          // dropped
    timer.observe(std::numeric_limits<double>::infinity()); // dropped
    const Timer::Snapshot snap = timer.snapshot();
    EXPECT_EQ(snap.stats.count(), 1u);
    EXPECT_EQ(snap.hist.total(), 1u);
    EXPECT_DOUBLE_EQ(snap.stats.mean(), 0.0);
    // The zero observation lands in the bottom edge bin, not -inf.
    EXPECT_EQ(snap.hist.bin(0), 1u);
}

// --- Trace spans ------------------------------------------------------

/** Fixture that isolates each test's events in the global recorder. */
class TraceTest : public ::testing::Test
{
  protected:
    void SetUp() override { TraceRecorder::global().start(); }
    void TearDown() override
    {
        TraceRecorder::global().stop();
        TraceRecorder::global().clear();
    }
};

/** Find all trace events with the given name. */
std::vector<Json>
eventsNamed(const Json &doc, const std::string &name)
{
    std::vector<Json> out;
    for (const Json &ev : doc.at("traceEvents").items())
        if (ev.at("name").asString() == name)
            out.push_back(ev);
    return out;
}

TEST_F(TraceTest, RecorderApiWorksInEitherTelemetryConfig)
{
    // The recorder itself stays linkable and functional with
    // -DCOTERIE_TELEMETRY=OFF; only the macros compile away.
    TraceRecorder::global().counter("test.track", 1.0);
    TraceRecorder::global().instant("test.tick", "test");
    TraceRecorder::global().stop();
    std::string error;
    const Json doc =
        Json::parse(TraceRecorder::global().exportJson(), &error);
    ASSERT_TRUE(error.empty()) << error;
    EXPECT_EQ(eventsNamed(doc, "test.track").size(), 1u);
    EXPECT_EQ(eventsNamed(doc, "test.tick").size(), 1u);
}

#if COTERIE_TELEMETRY_ENABLED

TEST_F(TraceTest, NestedSpansAreContainedInParent)
{
    {
        COTERIE_SPAN("test.outer", "test");
        {
            COTERIE_SPAN("test.inner", "test");
        }
        {
            COTERIE_SPAN("test.inner", "test");
        }
    }
    TraceRecorder::global().stop();

    const Json doc = TraceRecorder::global().toJson();
    const auto outer = eventsNamed(doc, "test.outer");
    const auto inner = eventsNamed(doc, "test.inner");
    ASSERT_EQ(outer.size(), 1u);
    ASSERT_EQ(inner.size(), 2u);

    const double oBegin = outer[0].at("ts").asNumber();
    const double oEnd = oBegin + outer[0].at("dur").asNumber();
    for (const Json &ev : inner) {
        EXPECT_EQ(ev.at("ph").asString(), "X");
        EXPECT_EQ(ev.at("cat").asString(), "test");
        const double begin = ev.at("ts").asNumber();
        const double end = begin + ev.at("dur").asNumber();
        EXPECT_GE(begin, oBegin);
        EXPECT_LE(end, oEnd);
    }
    // The two inner spans do not overlap: sequential scopes.
    const double aEnd =
        inner[0].at("ts").asNumber() + inner[0].at("dur").asNumber();
    EXPECT_LE(aEnd, inner[1].at("ts").asNumber());
}

TEST_F(TraceTest, InterleavedSpansFromPoolWorkersKeepTheirTid)
{
    support::parallelFor(0, 64, 1, [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) {
            COTERIE_SPAN("test.chunk", "test");
        }
    });
    TraceRecorder::global().stop();

    const Json doc = TraceRecorder::global().toJson();
    const auto chunks = eventsNamed(doc, "test.chunk");
    ASSERT_EQ(chunks.size(), 64u);

    std::set<int> tids;
    for (const Json &ev : chunks) {
        tids.insert(static_cast<int>(ev.at("tid").asNumber()));
        EXPECT_DOUBLE_EQ(ev.at("pid").asNumber(), 1.0);
    }
    // Every recording tid got thread_name metadata.
    std::set<int> namedTids;
    for (const Json &ev : doc.at("traceEvents").items())
        if (ev.at("ph").asString() == "M")
            namedTids.insert(static_cast<int>(ev.at("tid").asNumber()));
    for (int tid : tids)
        EXPECT_TRUE(namedTids.count(tid)) << "no metadata for tid " << tid;
}

TEST_F(TraceTest, SpansOutsideRecordingWindowAreDropped)
{
    TraceRecorder::global().stop();
    {
        COTERIE_SPAN("test.dropped", "test");
    }
    EXPECT_EQ(TraceRecorder::global().eventCount(), 0u);

    TraceRecorder::global().start();
    {
        COTERIE_SPAN("test.kept", "test");
    }
    TraceRecorder::global().stop();
    const Json doc = TraceRecorder::global().toJson();
    EXPECT_TRUE(eventsNamed(doc, "test.dropped").empty());
    EXPECT_EQ(eventsNamed(doc, "test.kept").size(), 1u);
}

TEST_F(TraceTest, GoldenTraceJsonRoundTrip)
{
    {
        COTERIE_NAMED_SPAN(span, "test.frame", "render");
        span.simTimeMs(33.4);
    }
    TraceRecorder::global().counter("test.queue_depth", 3.0);
    TraceRecorder::global().instant("test.marker", "test");
    TraceRecorder::global().stop();

    // The export must itself re-parse: that is the contract with
    // chrome://tracing / Perfetto and with tools/trace_report.
    std::string error;
    const Json doc =
        Json::parse(TraceRecorder::global().exportJson(), &error);
    ASSERT_TRUE(error.empty()) << error;
    EXPECT_EQ(doc.at("displayTimeUnit").asString(), "ms");
    ASSERT_TRUE(doc.at("traceEvents").isArray());

    const auto frames = eventsNamed(doc, "test.frame");
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].at("ph").asString(), "X");
    EXPECT_EQ(frames[0].at("cat").asString(), "render");
    EXPECT_GE(frames[0].at("ts").asNumber(), 0.0);
    EXPECT_GE(frames[0].at("dur").asNumber(), 0.0);
    EXPECT_DOUBLE_EQ(frames[0].at("args").at("sim_ms").asNumber(), 33.4);

    const auto counters = eventsNamed(doc, "test.queue_depth");
    ASSERT_EQ(counters.size(), 1u);
    EXPECT_EQ(counters[0].at("ph").asString(), "C");
    EXPECT_DOUBLE_EQ(counters[0].at("args").at("value").asNumber(), 3.0);

    const auto instants = eventsNamed(doc, "test.marker");
    ASSERT_EQ(instants.size(), 1u);
    EXPECT_EQ(instants[0].at("ph").asString(), "i");
    EXPECT_EQ(instants[0].at("s").asString(), "t");

    // Every event carries the required trace_event fields.
    for (const Json &ev : doc.at("traceEvents").items()) {
        EXPECT_TRUE(ev.contains("name"));
        EXPECT_TRUE(ev.contains("ph"));
        EXPECT_TRUE(ev.contains("pid"));
        EXPECT_TRUE(ev.contains("tid"));
        if (ev.at("ph").asString() != "M")
            EXPECT_TRUE(ev.contains("ts"));
    }
}

TEST_F(TraceTest, StartClearsPreviousEvents)
{
    {
        COTERIE_SPAN("test.old", "test");
    }
    EXPECT_EQ(TraceRecorder::global().eventCount(), 1u);
    TraceRecorder::global().start();
    EXPECT_EQ(TraceRecorder::global().eventCount(), 0u);
}

#endif // COTERIE_TELEMETRY_ENABLED

// --- Histogram quantiles (timer shards) -------------------------------

/** Deterministic latency-ish population spanning several decades. */
std::vector<double>
latencyPopulation(std::size_t n)
{
    std::vector<double> values;
    values.reserve(n);
    std::uint64_t state = 0x9E3779B97F4A7C15ull;
    for (std::size_t i = 0; i < n; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        const double frac =
            static_cast<double>(state >> 11) / 9007199254740992.0;
        // 0.05 ms .. 50 ms, log-uniform: the timer's working range.
        values.push_back(std::pow(10.0, -1.3 + 3.0 * frac));
    }
    return values;
}

TEST(Histogram, QuantileWithinOneBinOfExact)
{
    // The Timer spec: log10(value) over [-4, 4) in 256 bins, so the
    // worst-case relative error of a quantile estimate (after undoing
    // the log) is one bin width: 10^(8/256) - 1 ~= 7.5%.
    const double kBinFactor = std::pow(10.0, 8.0 / 256.0);
    Histogram hist(Timer::kLogLo, Timer::kLogHi, Timer::kLogBins);
    SampleSet exact;
    for (const double v : latencyPopulation(10000)) {
        hist.add(std::log10(v));
        exact.add(v);
    }
    for (const double q : {0.50, 0.90, 0.99, 0.999}) {
        const double est = std::pow(10.0, hist.quantile(q));
        const double ref = exact.percentile(100.0 * q);
        EXPECT_LE(est, ref * kBinFactor) << "q=" << q;
        EXPECT_GE(est, ref / kBinFactor) << "q=" << q;
    }
}

TEST(Histogram, MergedShardsMatchSingleShardBitForBit)
{
    // Per-thread timer shards fold by count addition, so quantiles of
    // the merged histogram must equal the single-shard reference
    // exactly — not approximately — regardless of how observations
    // were scattered across shards or the order shards merge in.
    const auto values = latencyPopulation(4096);
    Histogram reference(Timer::kLogLo, Timer::kLogHi, Timer::kLogBins);
    std::vector<Histogram> shards(
        8, Histogram(Timer::kLogLo, Timer::kLogHi, Timer::kLogBins));
    for (std::size_t i = 0; i < values.size(); ++i) {
        const double lg = std::log10(values[i]);
        reference.add(lg);
        shards[i % shards.size()].add(lg);
    }

    Histogram forward(Timer::kLogLo, Timer::kLogHi, Timer::kLogBins);
    for (const Histogram &s : shards)
        forward.merge(s);
    Histogram backward(Timer::kLogLo, Timer::kLogHi, Timer::kLogBins);
    for (auto it = shards.rbegin(); it != shards.rend(); ++it)
        backward.merge(*it);

    ASSERT_EQ(forward.total(), reference.total());
    ASSERT_EQ(backward.total(), reference.total());
    for (const double q : {0.01, 0.25, 0.50, 0.90, 0.99, 0.999}) {
        const double ref = reference.quantile(q);
        // Bit-identical: == on doubles, deliberately.
        EXPECT_EQ(forward.quantile(q), ref) << "q=" << q;
        EXPECT_EQ(backward.quantile(q), ref) << "q=" << q;
    }
}

TEST(Timer, SnapshotQuantilesTrackExactPercentiles)
{
    Timer timer;
    SampleSet exact;
    for (const double v : latencyPopulation(2000)) {
        timer.observe(v);
        exact.add(v);
    }
    const Timer::Snapshot snap = timer.snapshot();
    ASSERT_EQ(snap.hist.total(), 2000u);
    const double kBinFactor = std::pow(10.0, 8.0 / 256.0);
    for (const double q : {0.50, 0.99}) {
        const double est = std::pow(10.0, snap.hist.quantile(q));
        const double ref = exact.percentile(100.0 * q);
        EXPECT_LE(est, ref * kBinFactor) << "q=" << q;
        EXPECT_GE(est, ref / kBinFactor) << "q=" << q;
    }
}

TEST(MetricsRegistry, TimerSnapshotExportsQuantileKeys)
{
    MetricsRegistry reg;
    for (const double v : latencyPopulation(512))
        reg.timer("frame.latency_ms").observe(v);
    const Json snap = reg.snapshotJson();
    const Json &t = snap.at("timers").at("frame.latency_ms");
    ASSERT_TRUE(t.contains("p50"));
    ASSERT_TRUE(t.contains("p99"));
    ASSERT_TRUE(t.contains("p999"));
    const double p50 = t.at("p50").asNumber();
    const double p99 = t.at("p99").asNumber();
    const double p999 = t.at("p999").asNumber();
    EXPECT_LE(p50, p99);
    EXPECT_LE(p99, p999);
    EXPECT_GE(p50, t.at("min").asNumber() * 0.9);
    EXPECT_LE(p999, t.at("max").asNumber() * 1.1);
    // The snapshot embeds the SLO registry as a top-level section.
    EXPECT_TRUE(snap.contains("slo"));
}

TEST(MetricsRegistry, SnapshotJsonIsStableAcrossIdenticalRuns)
{
    // Same observations -> byte-identical dump: the property the CI
    // chaos job relies on when diffing snapshots across
    // COTERIE_THREADS settings.
    const auto values = latencyPopulation(256);
    const auto run = [&values] {
        MetricsRegistry reg;
        for (const double v : values)
            reg.timer("stable.t_ms").observe(v);
        reg.counter("stable.count").add(values.size());
        reg.gauge("stable.gauge").set(42.5);
        return reg.snapshotJson().dump(2);
    };
    EXPECT_EQ(run(), run());
}

} // namespace
} // namespace coterie::obs
