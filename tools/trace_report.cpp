// trace_report: fold a coterie-scope Chrome trace_event JSON into a
// per-stage latency/throughput table.
//
// Usage: trace_report [--frames] <trace.json>
//
// Default mode reads the "X" (complete) events, groups them by span
// name (merging the per-thread streams with SampleSet::merge), and
// prints one row per stage sorted by total wall time. The top three
// stages by total time are flagged HOT — those are where optimisation
// effort pays.
//
// When the trace carries chaos-harness instants
// ("[<label>/]fault.<kind>.begin" / ".end", emitted by sim::FaultDriver
// with sim-time args; the label names the session) an extra
// fault-timeline section pairs them into episodes per session and
// kind and folds the "net.retries" and "qoe.degraded_frames" counter
// tracks into per-episode deltas — how much resilience work each
// scripted fault caused. Exits nonzero on unreadable or malformed
// input.
//
// --frames switches to the causal frame-lifecycle report over the
// "frame" category events (emitted by obs::FrameTracer into a live
// trace, or by the flight recorder into a crash/boundary dump — the
// schema is identical): per-session deadline SLO summaries, a table
// of every deadline-missed frame with its critical path and full hop
// breakdown, and per-hop / per-client p99s.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "obs/json.hh"
#include "support/stats.hh"

namespace {

using coterie::obs::Json;
using coterie::SampleSet;

std::string
readFile(const char *path, bool &ok)
{
    std::FILE *f = std::fopen(path, "rb");
    if (!f) {
        ok = false;
        return {};
    }
    std::string text;
    char buf[1 << 16];
    for (;;) {
        const std::size_t n = std::fread(buf, 1, sizeof buf, f);
        if (n == 0)
            break;
        text.append(buf, n);
    }
    ok = std::ferror(f) == 0;
    std::fclose(f);
    return text;
}

struct Stage
{
    std::string name;
    std::string category;
    SampleSet durationsMs; // merged across all tids
    double totalMs = 0.0;
    double spanEndUs = 0.0; // latest event end, for throughput
    double spanBeginUs = 1e300;
};

/** One [<label>/]fault.<kind>.begin / .end instant from a chaos run. */
struct FaultMark
{
    std::string label; // session label; empty when unlabelled
    std::string kind;
    bool begin = false;
    double tsUs = 0.0;
    double simMs = -1.0; // args.sim_ms when present
};

/** A paired episode on the fault timeline. */
struct FaultEpisodeRow
{
    std::string label;
    std::string kind;
    double beginSimMs = -1.0;
    double endSimMs = -1.0; // -1 = trace ended mid-episode
    double beginTsUs = 0.0;
    double endTsUs = 1e300;
};

/** Last cumulative counter value at or before @p tsUs (0 before the
 *  first sample — the tracks are cumulative and start at zero). */
double
counterValueAt(const std::vector<std::pair<double, double>> &series,
               double tsUs)
{
    double value = 0.0;
    for (const auto &[ts, v] : series) {
        if (ts > tsUs)
            break;
        value = v;
    }
    return value;
}

// ---- --frames mode --------------------------------------------------

/** One stamped hop of a frame record ("frame.<hop>" X event). */
struct HopRow
{
    std::string hop;     // "transfer", "stall_wait", ...
    double beginMs = 0.0;
    double durMs = 0.0;
};

/** One causal frame record reassembled from its trace events. */
struct FrameRow
{
    std::string label; // session label (<game>/<N>p/<system>)
    int client = 0;
    std::uint64_t frame = 0;
    bool done = false;
    double doneMs = 0.0;
    double latencyMs = 0.0;
    double budgetMs = 0.0;
    bool miss = false;
    std::string criticalPath;
    std::vector<HopRow> hops;
};

int
runFramesReport(const Json &events, const char *path)
{
    using FrameKey = std::tuple<std::string, int, std::uint64_t>;
    std::map<FrameKey, FrameRow> records;

    for (const Json &e : events.items()) {
        if (!e.isObject() || !e.contains("cat") ||
            e.at("cat").asString() != "frame")
            continue;
        const std::string ph = e.at("ph").asString();
        const std::string name = e.at("name").asString();
        if (name.rfind("frame.", 0) != 0)
            continue;
        const Json &args = e.at("args");
        const FrameKey key{args.at("label").asString(),
                           static_cast<int>(
                               args.at("client").asNumber()),
                           static_cast<std::uint64_t>(
                               args.at("frame").asNumber())};
        FrameRow &row = records[key];
        row.label = std::get<0>(key);
        row.client = std::get<1>(key);
        row.frame = std::get<2>(key);
        if (ph == "i" && name == "frame.done") {
            row.done = true;
            row.doneMs = e.at("ts").asNumber() / 1000.0;
            row.latencyMs = args.at("latency_ms").asNumber();
            row.budgetMs = args.at("budget_ms").asNumber();
            row.miss = args.at("miss").asBool();
            row.criticalPath = args.at("critical_path").asString();
        } else if (ph == "X") {
            HopRow hop;
            hop.hop = name.substr(6);
            hop.beginMs = e.at("ts").asNumber() / 1000.0;
            hop.durMs = e.at("dur").asNumber() / 1000.0;
            row.hops.push_back(std::move(hop));
        }
    }

    if (records.empty()) {
        std::printf("trace_report: no frame events in %s\n", path);
        std::printf("(record a live trace with frame tracing, or use "
                    "a flight-recorder dump)\n");
        return 0;
    }

    // ---- per-session deadline SLO summary -------------------------
    struct SessionAgg
    {
        SampleSet latencies;
        std::uint64_t frames = 0;
        std::uint64_t misses = 0;
        double budgetMs = 0.0;
        std::map<std::string, std::uint64_t> missesByPath;
    };
    std::map<std::string, SessionAgg> sessions;
    std::map<std::pair<std::string, int>, SampleSet> byClient;
    std::map<std::string, SampleSet> byHop;
    std::vector<const FrameRow *> missed;
    for (const auto &[key, row] : records) {
        for (const HopRow &h : row.hops)
            byHop[h.hop].add(h.durMs);
        if (!row.done)
            continue;
        SessionAgg &agg = sessions[row.label];
        ++agg.frames;
        agg.latencies.add(row.latencyMs);
        agg.budgetMs = row.budgetMs;
        byClient[{row.label, row.client}].add(row.latencyMs);
        if (row.miss) {
            ++agg.misses;
            ++agg.missesByPath[row.criticalPath];
            missed.push_back(&row);
        }
    }

    std::printf("Frame deadline report (%zu frame records)\n\n",
                records.size());
    std::printf("%-36s %8s %8s %9s %9s %9s %9s %9s\n", "session",
                "frames", "misses", "miss_pct", "budget", "p50_ms",
                "p99_ms", "p999_ms");
    for (auto &[label, agg] : sessions) {
        std::printf(
            "%-36s %8llu %8llu %8.2f%% %9.2f %9.3f %9.3f %9.3f\n",
            label.c_str(),
            static_cast<unsigned long long>(agg.frames),
            static_cast<unsigned long long>(agg.misses),
            agg.frames ? 100.0 * static_cast<double>(agg.misses) /
                             static_cast<double>(agg.frames)
                       : 0.0,
            agg.budgetMs, agg.latencies.percentile(50.0),
            agg.latencies.percentile(99.0),
            agg.latencies.percentile(99.9));
    }

    // ---- every deadline miss with its critical-path breakdown -----
    std::sort(missed.begin(), missed.end(),
              [](const FrameRow *a, const FrameRow *b) {
                  return a->latencyMs > b->latencyMs;
              });
    if (!missed.empty()) {
        std::printf("\nDeadline misses (%zu, worst first)\n",
                    missed.size());
        for (const FrameRow *row : missed) {
            std::printf("\n  %s client %d frame %llu: %.3f ms "
                        "(budget %.2f, over by %.3f) critical path: "
                        "%s\n",
                        row->label.c_str(), row->client,
                        static_cast<unsigned long long>(row->frame),
                        row->latencyMs, row->budgetMs,
                        row->latencyMs - row->budgetMs,
                        row->criticalPath.empty()
                            ? "?"
                            : row->criticalPath.c_str());
            std::vector<HopRow> hops = row->hops;
            std::sort(hops.begin(), hops.end(),
                      [](const HopRow &a, const HopRow &b) {
                          return a.beginMs < b.beginMs;
                      });
            for (const HopRow &h : hops) {
                std::printf("    %-14s %12.3f ms  +%.3f ms\n",
                            h.hop.c_str(), h.durMs, h.beginMs);
            }
        }
    } else {
        std::printf("\nNo deadline misses.\n");
    }

    // ---- per-hop and per-client p99s ------------------------------
    std::printf("\nPer-hop latency\n");
    std::printf("%-20s %8s %10s %10s %10s %10s\n", "hop", "count",
                "total_ms", "mean_ms", "p50_ms", "p99_ms");
    for (auto &[hop, samples] : byHop) {
        std::printf("%-20s %8zu %10.3f %10.4f %10.4f %10.4f\n",
                    hop.c_str(), samples.count(),
                    samples.mean() *
                        static_cast<double>(samples.count()),
                    samples.mean(), samples.percentile(50.0),
                    samples.percentile(99.0));
    }

    std::printf("\nPer-client frame latency\n");
    std::printf("%-36s %8s %8s %10s %10s\n", "session", "client",
                "frames", "p50_ms", "p99_ms");
    for (auto &[key, samples] : byClient) {
        std::printf("%-36s %8d %8zu %10.3f %10.3f\n",
                    key.first.c_str(), key.second, samples.count(),
                    samples.percentile(50.0),
                    samples.percentile(99.0));
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool framesMode = false;
    const char *path = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--frames") == 0) {
            framesMode = true;
        } else if (path == nullptr) {
            path = argv[i];
        } else {
            path = nullptr;
            break;
        }
    }
    if (path == nullptr) {
        std::fprintf(stderr,
                     "usage: trace_report [--frames] <trace.json>\n");
        return 2;
    }

    bool readOk = true;
    const std::string text = readFile(path, readOk);
    if (!readOk) {
        std::fprintf(stderr, "trace_report: cannot read '%s'\n", path);
        return 1;
    }

    std::string error;
    const Json doc = Json::parse(text, &error);
    if (!error.empty()) {
        std::fprintf(stderr, "trace_report: parse error in '%s': %s\n",
                     path, error.c_str());
        return 1;
    }
    const Json &events = doc.at("traceEvents");
    if (!events.isArray()) {
        std::fprintf(stderr,
                     "trace_report: '%s' has no traceEvents array\n",
                     path);
        return 1;
    }

    if (framesMode)
        return runFramesReport(events, path);

    // Fold "X" events into per-(name, tid) sample sets first, then
    // merge the per-thread streams per stage — the same shard-fold the
    // Timer metrics do at snapshot time.
    std::map<std::pair<std::string, int>, SampleSet> perThread;
    std::map<std::string, Stage> stages;
    std::vector<FaultMark> faultMarks;
    std::map<std::string, std::vector<std::pair<double, double>>>
        counters; // cumulative (ts, value) tracks
    std::size_t spanCount = 0;
    double lastTsUs = 0.0;
    for (const Json &e : events.items()) {
        if (!e.isObject())
            continue;
        const std::string ph = e.at("ph").asString();
        const std::string name = e.at("name").asString();
        const double tsUs = e.at("ts").asNumber();
        if (ph == "i" || ph == "C" || ph == "X")
            lastTsUs = std::max(lastTsUs, tsUs);
        // "fault.<...>" or "<label>/fault.<...>".
        const std::size_t labelled = name.rfind("/fault.");
        if (ph == "i" && (name.rfind("fault.", 0) == 0 ||
                          labelled != std::string::npos)) {
            FaultMark mark;
            mark.tsUs = tsUs;
            mark.simMs = e.at("args").at("sim_ms").asNumber(-1.0);
            std::size_t kindAt = 6;
            if (labelled != std::string::npos) {
                mark.label = name.substr(0, labelled);
                kindAt = labelled + 7;
            }
            const std::string tail = name.substr(kindAt);
            if (tail.size() > 6 &&
                tail.compare(tail.size() - 6, 6, ".begin") == 0) {
                mark.kind = tail.substr(0, tail.size() - 6);
                mark.begin = true;
            } else if (tail.size() > 4 &&
                       tail.compare(tail.size() - 4, 4, ".end") == 0) {
                mark.kind = tail.substr(0, tail.size() - 4);
            } else {
                continue;
            }
            faultMarks.push_back(std::move(mark));
            continue;
        }
        if (ph == "C") {
            counters[name].emplace_back(
                tsUs, e.at("args").at("value").asNumber());
            continue;
        }
        if (ph != "X")
            continue;
        // Frame-lifecycle events live on the *sim* timeline (pid 2);
        // folding them into this wall-clock stage table would mix
        // units. They get their own view: `trace_report --frames`.
        if (e.contains("cat") && e.at("cat").asString() == "frame")
            continue;
        const int tid = static_cast<int>(e.at("tid").asNumber());
        const double durUs = e.at("dur").asNumber();
        const double durMs = durUs / 1000.0;
        perThread[{name, tid}].add(durMs);
        Stage &stage = stages[name];
        stage.name = name;
        if (stage.category.empty() && e.contains("cat"))
            stage.category = e.at("cat").asString();
        stage.totalMs += durMs;
        stage.spanBeginUs = std::min(stage.spanBeginUs, tsUs);
        stage.spanEndUs = std::max(stage.spanEndUs, tsUs + durUs);
        ++spanCount;
    }
    for (auto &[key, samples] : perThread)
        stages[key.first].durationsMs.merge(samples);

    if (stages.empty()) {
        std::printf("trace_report: no complete (\"X\") spans in %s\n",
                    path);
    } else {
        std::vector<const Stage *> rows;
        rows.reserve(stages.size());
        for (const auto &[name, stage] : stages)
            rows.push_back(&stage);
        std::sort(rows.begin(), rows.end(),
                  [](const Stage *a, const Stage *b) {
                      return a->totalMs > b->totalMs;
                  });

        std::printf("%-32s %-8s %8s %10s %10s %10s %10s %10s  %s\n",
                    "stage", "cat", "count", "total_ms", "mean_ms",
                    "p50_ms", "p99_ms", "ev_per_s", "");
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const Stage &s = *rows[i];
            SampleSet samples = s.durationsMs; // percentile() sorts
            const double windowS = (s.spanEndUs - s.spanBeginUs) / 1e6;
            const double throughput =
                windowS > 0.0
                    ? static_cast<double>(samples.count()) / windowS
                    : 0.0;
            std::printf("%-32s %-8s %8zu %10.3f %10.4f %10.4f %10.4f "
                        "%10.1f  %s\n",
                        s.name.c_str(), s.category.c_str(),
                        samples.count(), s.totalMs, samples.mean(),
                        samples.percentile(50.0),
                        samples.percentile(99.0), throughput,
                        i < 3 ? "HOT" : "");
        }
        std::printf("\n%zu spans across %zu stages\n", spanCount,
                    stages.size());
    }

    // Counter tracks are appended in event order; sort once by
    // timestamp for every section that reads them.
    for (auto &[name, series] : counters)
        std::sort(series.begin(), series.end());

    // ---- Render hot path (bvh.*, terrain.* + pano-cache tracks) ---
    const auto lastCounter = [&](const char *name) -> double {
        const auto it = counters.find(name);
        if (it == counters.end() || it->second.empty())
            return -1.0;
        return it->second.back().second;
    };
    const double bvhNodes = lastCounter("bvh.nodes_visited");
    const double bvhLeafTests = lastCounter("bvh.leaf_tests");
    const double marchSamples = lastCounter("terrain.march_samples");
    const double heightEvals = lastCounter("terrain.height_evals");
    const double offGridEvals =
        lastCounter("terrain.height_evals_off_grid");
    const double panoHits = lastCounter("server.pano_cache.hits");
    const double panoMisses = lastCounter("server.pano_cache.misses");
    if (bvhNodes >= 0.0 || marchSamples >= 0.0 || panoHits >= 0.0 ||
        panoMisses >= 0.0) {
        std::size_t frames = 0;
        for (const char *span : {"render.panorama",
                                 "render.perspective"}) {
            const auto it = stages.find(span);
            if (it != stages.end())
                frames += it->second.durationsMs.count();
        }
        std::printf("\nRender hot path\n");
        const auto perFrame = [&](const char *name, double total) {
            if (total < 0.0)
                return;
            std::printf("  %-28s %14.0f total", name, total);
            if (frames > 0)
                std::printf("  %12.1f / frame",
                            total / static_cast<double>(frames));
            std::printf("\n");
        };
        perFrame("bvh.nodes_visited", bvhNodes);
        perFrame("bvh.leaf_tests", bvhLeafTests);
        perFrame("terrain.march_samples", marchSamples);
        perFrame("terrain.height_evals", heightEvals);
        perFrame("terrain.height_evals_off_grid", offGridEvals);
        if (marchSamples > 0.0 && heightEvals >= 0.0)
            std::printf("  %-28s %14.3f heightAt calls / march sample\n",
                        "terrain.evals_per_sample",
                        heightEvals / marchSamples);
        if (panoHits >= 0.0 || panoMisses >= 0.0) {
            const double hits = std::max(panoHits, 0.0);
            const double misses = std::max(panoMisses, 0.0);
            const double lookups = hits + misses;
            std::printf("  %-28s hits %.0f  misses %.0f",
                        "server.pano_cache", hits, misses);
            if (lookups > 0.0)
                std::printf("  hit ratio %.1f%%",
                            100.0 * hits / lookups);
            std::printf("\n");
        }
        if (frames > 0)
            std::printf("  (%zu rendered frames in trace)\n", frames);
    }

    // ---- Fault timeline (chaos runs only) -------------------------
    if (!faultMarks.empty()) {
        std::sort(faultMarks.begin(), faultMarks.end(),
                  [](const FaultMark &a, const FaultMark &b) {
                      return a.tsUs < b.tsUs;
                  });

        // Pair begin/end marks per (label, kind), FIFO in timestamp
        // order.
        std::vector<FaultEpisodeRow> episodes;
        std::map<std::pair<std::string, std::string>,
                 std::vector<std::size_t>>
            open;
        for (const FaultMark &mark : faultMarks) {
            auto &queue = open[{mark.label, mark.kind}];
            if (mark.begin) {
                FaultEpisodeRow row;
                row.label = mark.label;
                row.kind = mark.kind;
                row.beginSimMs = mark.simMs;
                row.beginTsUs = mark.tsUs;
                row.endTsUs = lastTsUs; // until matched
                queue.push_back(episodes.size());
                episodes.push_back(std::move(row));
            } else if (!queue.empty()) {
                FaultEpisodeRow &row = episodes[queue.front()];
                queue.erase(queue.begin());
                row.endSimMs = mark.simMs;
                row.endTsUs = mark.tsUs;
            }
        }

        const auto &retries = counters["net.retries"];
        const auto &degraded = counters["qoe.degraded_frames"];
        std::printf("\nFault timeline (%zu episodes)\n",
                    episodes.size());
        std::printf("%-20s %-20s %12s %12s %10s %10s  %s\n", "fault",
                    "session", "begin_ms", "end_ms", "retries",
                    "degraded", "");
        for (const FaultEpisodeRow &row : episodes) {
            const double retryDelta =
                counterValueAt(retries, row.endTsUs) -
                counterValueAt(retries, row.beginTsUs);
            const double degradedDelta =
                counterValueAt(degraded, row.endTsUs) -
                counterValueAt(degraded, row.beginTsUs);
            char endBuf[32];
            if (row.endSimMs >= 0.0)
                std::snprintf(endBuf, sizeof endBuf, "%12.1f",
                              row.endSimMs);
            else
                std::snprintf(endBuf, sizeof endBuf, "%12s", "(open)");
            std::printf("%-20s %-20s %12.1f %s %10.0f %10.0f  %s\n",
                        row.kind.c_str(),
                        row.label.empty() ? "-" : row.label.c_str(),
                        row.beginSimMs, endBuf, retryDelta, degradedDelta,
                        row.endSimMs < 0.0 ? "trace ended mid-episode"
                                           : "");
        }
    }
    return 0;
}
