#include "obs/flight.hh"

#if COTERIE_FLIGHT_ENABLED

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <vector>

#include "obs/clock.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/slo.hh"
#include "support/logging.hh"
#include "support/thread_annotations.hh"

namespace coterie::obs::flight {
namespace {

/**
 * One per-thread ring. Single writer (the owning thread); readers
 * snapshot `head` with acquire and walk backwards. The slot being
 * written while a dump reads it may be torn — dump() drops any event
 * with a null name, which every half-written slot has until the final
 * store publishes it.
 */
struct Ring
{
    std::atomic<std::uint64_t> head{0}; ///< events ever written
    int slot = 0;                       ///< obs thread slot, dump tid
    FlightEvent events[kRingCapacity];
};

struct Registry
{
    support::Mutex mutex{"flight::Registry::mutex"};
    std::vector<Ring *> rings COTERIE_GUARDED_BY(mutex);
    std::set<std::string> internPool COTERIE_GUARDED_BY(mutex);
};

Registry &
registry()
{
    // Leaked: rings may be written (and the panic hook may dump)
    // during static destruction.
    static Registry *r = new Registry();
    return *r;
}

// Raw pointer on purpose: trivially-destructible TLS, so threads
// exiting during process teardown never run user code.
thread_local Ring *t_ring = nullptr;

Ring &
ring()
{
    if (t_ring == nullptr) {
        auto *r = new Ring(); // leaked alongside the registry
        r->slot = threadSlot();
        {
            Registry &reg = registry();
            support::MutexLock lock(reg.mutex);
            reg.rings.push_back(r);
        }
        t_ring = r;
        installPanicDump();
    }
    return *t_ring;
}

void
write(const FlightEvent &e)
{
    Ring &r = ring();
    const std::uint64_t idx = r.head.load(std::memory_order_relaxed);
    r.events[idx % kRingCapacity] = e;
    r.head.store(idx + 1, std::memory_order_release);
}

void
panicDump()
{
    const std::string path = defaultDumpPath();
    // The process is aborting: write straight to stderr, the logging
    // machinery may be the thing that panicked.
    std::fprintf(stderr, // lint:allow(no-direct-console-io)
                 "[flight] dumping %zu events to %s\n", eventCount(),
                 path.c_str());
    dump(path);
}

} // namespace

void
recordSpan(const char *name, const char *category,
           std::uint64_t beginNs, std::uint64_t endNs, double simMs)
{
    FlightEvent e;
    e.kind = EventKind::Span;
    e.name = name;
    e.category = category;
    e.wallBeginNs = beginNs;
    e.wallDurNs = endNs >= beginNs ? endNs - beginNs : 0;
    e.simBeginMs = simMs;
    write(e);
}

void
recordFrameHop(const char *name, const char *label,
               std::uint32_t session, std::uint16_t client,
               std::uint64_t frame, double simBeginMs, double simDurMs,
               std::uint64_t wallNs)
{
    FlightEvent e;
    e.kind = EventKind::FrameHop;
    e.name = name;
    e.category = "frame";
    e.label = label;
    e.session = session;
    e.client = client;
    e.frame = frame;
    e.simBeginMs = simBeginMs;
    e.simDurMs = simDurMs;
    e.wallBeginNs = wallNs;
    write(e);
}

void
recordFrameDone(const char *label, std::uint32_t session,
                std::uint16_t client, std::uint64_t frame, double simMs,
                double latencyMs, const char *criticalPath)
{
    FlightEvent e;
    e.kind = EventKind::FrameDone;
    e.name = "frame.done";
    e.category = "frame";
    e.label = label;
    e.session = session;
    e.client = client;
    e.frame = frame;
    e.simBeginMs = simMs;
    e.value = latencyMs;
    e.critical = criticalPath;
    write(e);
}

void
recordInstant(const char *name, const char *category, double simMs)
{
    FlightEvent e;
    e.kind = EventKind::Instant;
    e.name = name;
    e.category = category;
    e.wallBeginNs = monotonicNowNs();
    e.simBeginMs = simMs;
    write(e);
}

const char *
intern(const std::string &s)
{
    Registry &reg = registry();
    support::MutexLock lock(reg.mutex);
    return reg.internPool.insert(s).first->c_str();
}

std::size_t
eventCount()
{
    std::vector<Ring *> rings;
    {
        Registry &reg = registry();
        support::MutexLock lock(reg.mutex);
        rings = reg.rings;
    }
    std::size_t total = 0;
    for (const Ring *r : rings) {
        const std::uint64_t head =
            r->head.load(std::memory_order_acquire);
        total += head < kRingCapacity ? head : kRingCapacity;
    }
    return total;
}

bool
dump(const std::string &path)
{
    std::vector<Ring *> rings;
    {
        Registry &reg = registry();
        support::MutexLock lock(reg.mutex);
        rings = reg.rings;
    }

    // Wall timestamps are exported relative to the earliest event so
    // the dump lines up at t=0 like a TraceRecorder export.
    std::uint64_t epochNs = UINT64_MAX;
    for (const Ring *r : rings) {
        const std::uint64_t head =
            r->head.load(std::memory_order_acquire);
        const std::uint64_t count =
            head < kRingCapacity ? head : kRingCapacity;
        for (std::uint64_t i = head - count; i < head; ++i) {
            const FlightEvent &e = r->events[i % kRingCapacity];
            if (e.name != nullptr && e.wallBeginNs > 0)
                epochNs = std::min(epochNs, e.wallBeginNs);
        }
    }
    if (epochNs == UINT64_MAX)
        epochNs = 0;
    const auto relUs = [epochNs](std::uint64_t ns) {
        return ns >= epochNs
                   ? static_cast<double>(ns - epochNs) / 1000.0
                   : 0.0;
    };

    Json traceEvents = Json::array();

    // Process/thread metadata: pid 1 = wall-clock spans by obs thread
    // slot, pid 2 = sim-timeline frame events by client id (the same
    // layout TraceRecorder uses, so trace_report and Perfetto treat a
    // flight dump and a live trace identically).
    {
        Json args = Json::object();
        args.set("name", Json("wall (flight)"));
        Json m = Json::object();
        m.set("ph", Json("M"));
        m.set("name", Json("process_name"));
        m.set("pid", Json(1));
        m.set("args", std::move(args));
        traceEvents.push(std::move(m));
    }
    {
        Json args = Json::object();
        args.set("name", Json("frames (sim)"));
        Json m = Json::object();
        m.set("ph", Json("M"));
        m.set("name", Json("process_name"));
        m.set("pid", Json(2));
        m.set("args", std::move(args));
        traceEvents.push(std::move(m));
    }
    for (const Ring *r : rings) {
        Json args = Json::object();
        args.set("name", Json(r->slot == 0
                                  ? std::string("main/slot0")
                                  : "slot" + std::to_string(r->slot)));
        Json m = Json::object();
        m.set("ph", Json("M"));
        m.set("name", Json("thread_name"));
        m.set("pid", Json(1));
        m.set("tid", Json(r->slot));
        m.set("args", std::move(args));
        traceEvents.push(std::move(m));
    }

    for (const Ring *r : rings) {
        const std::uint64_t head =
            r->head.load(std::memory_order_acquire);
        const std::uint64_t count =
            head < kRingCapacity ? head : kRingCapacity;
        for (std::uint64_t i = head - count; i < head; ++i) {
            const FlightEvent &e = r->events[i % kRingCapacity];
            if (e.name == nullptr) // unwritten or torn slot
                continue;
            Json j = Json::object();
            switch (e.kind) {
            case EventKind::Span: {
                j.set("ph", Json("X"));
                j.set("name", Json(e.name));
                j.set("cat",
                      Json(e.category ? e.category : "span"));
                j.set("pid", Json(1));
                j.set("tid", Json(r->slot));
                j.set("ts", Json(relUs(e.wallBeginNs)));
                j.set("dur",
                      Json(static_cast<double>(e.wallDurNs) / 1000.0));
                if (e.simBeginMs >= 0.0) {
                    Json args = Json::object();
                    args.set("sim_ms", Json(e.simBeginMs));
                    j.set("args", std::move(args));
                }
                break;
            }
            case EventKind::FrameHop: {
                j.set("ph", Json("X"));
                j.set("name", Json(e.name));
                j.set("cat", Json("frame"));
                j.set("pid", Json(2));
                j.set("tid", Json(static_cast<int>(e.client)));
                j.set("ts", Json(e.simBeginMs * 1000.0));
                j.set("dur", Json(e.simDurMs * 1000.0));
                Json args = Json::object();
                args.set("label", Json(e.label ? e.label : ""));
                args.set("client",
                         Json(static_cast<int>(e.client)));
                args.set("frame", Json(e.frame));
                j.set("args", std::move(args));
                break;
            }
            case EventKind::FrameDone: {
                j.set("ph", Json("i"));
                j.set("name", Json("frame.done"));
                j.set("cat", Json("frame"));
                j.set("pid", Json(2));
                j.set("tid", Json(static_cast<int>(e.client)));
                j.set("ts", Json(e.simBeginMs * 1000.0));
                j.set("s", Json("t"));
                Json args = Json::object();
                args.set("label", Json(e.label ? e.label : ""));
                args.set("client",
                         Json(static_cast<int>(e.client)));
                args.set("frame", Json(e.frame));
                args.set("latency_ms", Json(e.value));
                args.set("budget_ms", Json(kFrameBudgetMs));
                args.set("miss", Json(missesDeadline(e.value)));
                args.set("critical_path",
                         Json(e.critical ? e.critical : ""));
                j.set("args", std::move(args));
                break;
            }
            case EventKind::Instant: {
                j.set("ph", Json("i"));
                j.set("name", Json(e.name));
                j.set("cat",
                      Json(e.category ? e.category : "flight"));
                j.set("pid", Json(1));
                j.set("tid", Json(r->slot));
                j.set("ts", Json(relUs(e.wallBeginNs)));
                j.set("s", Json("t"));
                if (e.simBeginMs >= 0.0) {
                    Json args = Json::object();
                    args.set("sim_ms", Json(e.simBeginMs));
                    j.set("args", std::move(args));
                }
                break;
            }
            }
            traceEvents.push(std::move(j));
        }
    }

    Json out = Json::object();
    out.set("displayTimeUnit", Json("ms"));
    out.set("traceEvents", std::move(traceEvents));

    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::string text = out.dump(1);
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    std::fclose(f);
    return ok;
}

std::string
defaultDumpPath()
{
    // Dump-path config only — never feeds simulation state.
    if (const char *env = // lint:allow(no-wallclock-rng)
        std::getenv("COTERIE_FLIGHT_DUMP"))
        if (*env != '\0')
            return env;
    return "coterie.flight.json";
}

void
installPanicDump()
{
    static std::atomic<bool> installed{false};
    if (!installed.exchange(true, std::memory_order_acq_rel))
        setPanicHook(&panicDump);
}

void
dumpOnEpisodeBoundary()
{
    // Opt-in trigger only — never feeds simulation state.
    if (std::getenv( // lint:allow(no-wallclock-rng)
            "COTERIE_FLIGHT_DUMP") != nullptr)
        dump(defaultDumpPath());
}

} // namespace coterie::obs::flight

#endif // COTERIE_FLIGHT_ENABLED
