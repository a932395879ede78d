#include "obs/trace_event.hh"

#include <cstdio>
#include <set>

#include "obs/slo.hh"
#include "support/thread_annotations.hh"

namespace coterie::obs {

namespace {

struct InternPool
{
    support::Mutex mutex{"obs::InternPool::mutex"};
    std::set<std::string> names COTERIE_GUARDED_BY(mutex);
};

/** Null-safe string member (a torn ring slot may hold nulls). */
const char *
str(const char *s)
{
    return s != nullptr ? s : "";
}

bool
isFrameEvent(TraceEventKind kind)
{
    return kind == TraceEventKind::FrameHop ||
           kind == TraceEventKind::FrameDone;
}

/** One trace_event object for @p e, recorded on obs slot @p slot. */
Json
eventJson(const TraceEvent &e, int slot, std::uint64_t epochNs)
{
    const bool frame = isFrameEvent(e.kind);
    const bool instant = e.kind == TraceEventKind::Instant ||
                         e.kind == TraceEventKind::FrameDone;
    Json j = Json::object();
    j.set("ph", Json(e.kind == TraceEventKind::Counter ? "C"
                     : instant                         ? "i"
                                                       : "X"));
    j.set("name", Json(str(e.name)));
    if (e.kind != TraceEventKind::Counter)
        j.set("cat", Json(str(e.category)));
    j.set("pid", Json(frame ? 2 : 1));
    j.set("tid", Json(frame ? static_cast<int>(e.client) : slot));
    // Frame events live on the simulated clock (sim ms -> trace us);
    // everything else on the wall clock, relative to the epoch.
    double tsUs = e.simBeginMs * 1000.0;
    if (!frame) {
        tsUs = e.wallBeginNs >= epochNs
                   ? static_cast<double>(e.wallBeginNs - epochNs) / 1000.0
                   : 0.0;
    }
    j.set("ts", Json(tsUs));
    if (e.kind == TraceEventKind::Span)
        j.set("dur", Json(static_cast<double>(e.wallDurNs) / 1000.0));
    else if (e.kind == TraceEventKind::FrameHop)
        j.set("dur", Json(e.simDurMs * 1000.0));
    if (instant)
        j.set("s", Json("t"));

    Json args = Json::object();
    if (frame) {
        args.set("label", Json(str(e.label)));
        args.set("client", Json(static_cast<int>(e.client)));
        args.set("frame", Json(e.frame));
        if (e.kind == TraceEventKind::FrameDone) {
            args.set("latency_ms", Json(e.value));
            args.set("budget_ms", Json(kFrameBudgetMs));
            args.set("miss", Json(missesDeadline(e.value)));
            args.set("critical_path", Json(str(e.critical)));
        }
    } else if (e.kind == TraceEventKind::Counter) {
        args.set("value", Json(e.value));
    } else if (e.simBeginMs >= 0.0) {
        args.set("sim_ms", Json(e.simBeginMs));
    }
    if (!args.members().empty())
        j.set("args", std::move(args));
    return j;
}

Json
metadata(const char *what, int pid, int tid, std::string name)
{
    Json args = Json::object();
    args.set("name", Json(std::move(name)));
    Json m = Json::object();
    m.set("ph", Json("M"));
    m.set("name", Json(what));
    m.set("pid", Json(pid));
    m.set("tid", Json(tid));
    m.set("args", std::move(args));
    return m;
}

} // namespace

const char *
intern(const std::string &s)
{
    // Leaked: interned names outlive every ring and recorder, panic
    // dumps during static destruction included.
    static auto *pool = new InternPool();
    support::MutexLock lock(pool->mutex);
    return pool->names.insert(s).first->c_str();
}

Json
traceDocument(const std::vector<SlottedEvent> &events,
              std::uint64_t epochNs)
{
    Json traceEvents = Json::array();
    traceEvents.push(metadata("process_name", 1, 0, "wall"));
    traceEvents.push(metadata("process_name", 2, 0, "frames (sim)"));
    // Perfetto labels wall tracks by obs slot; frame tracks are
    // client ids under pid 2 and need no per-thread name.
    std::set<int> slots;
    for (const SlottedEvent &s : events)
        if (!isFrameEvent(s.event.kind))
            slots.insert(s.slot);
    for (int slot : slots) {
        traceEvents.push(metadata("thread_name", 1, slot,
                                  slot == 0
                                      ? std::string("main/slot0")
                                      : "slot" + std::to_string(slot)));
    }
    for (const SlottedEvent &s : events)
        traceEvents.push(eventJson(s.event, s.slot, epochNs));

    Json out = Json::object();
    out.set("displayTimeUnit", Json("ms"));
    out.set("traceEvents", std::move(traceEvents));
    return out;
}

bool
writeTraceFile(const std::string &path,
               const std::vector<SlottedEvent> &events,
               std::uint64_t epochNs)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::string text = traceDocument(events, epochNs).dump(1);
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    std::fclose(f);
    return ok;
}

} // namespace coterie::obs
