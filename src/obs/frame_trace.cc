#include "obs/frame_trace.hh"

#include <array>
#include <atomic>

#include "obs/clock.hh"
#include "obs/trace.hh"
#include "support/logging.hh"

namespace coterie::obs {

const char *
hopName(Hop hop)
{
    switch (hop) {
      case Hop::Request:     return "request";
      case Hop::Prefetch:    return "prefetch";
      case Hop::PipeWait:    return "pipe_wait";
      case Hop::Backlog:     return "backlog";
      case Hop::Transfer:    return "transfer";
      case Hop::Render:      return "render";
      case Hop::Decode:      return "decode";
      case Hop::Sync:        return "sync";
      case Hop::StallWait:   return "stall_wait";
      case Hop::Merge:       return "merge";
      case Hop::Display:     return "display";
      case Hop::None:        return "none";
    }
    return "?";
}

const char *
hopEventName(Hop hop)
{
    switch (hop) {
      case Hop::Request:     return "frame.request";
      case Hop::Prefetch:    return "frame.prefetch";
      case Hop::PipeWait:    return "frame.pipe_wait";
      case Hop::Backlog:     return "frame.backlog";
      case Hop::Transfer:    return "frame.transfer";
      case Hop::Render:      return "frame.render";
      case Hop::Decode:      return "frame.decode";
      case Hop::Sync:        return "frame.sync";
      case Hop::StallWait:   return "frame.stall_wait";
      case Hop::Merge:       return "frame.merge";
      case Hop::Display:     return "frame.display";
      case Hop::None:        return "frame.none";
    }
    return "frame.?";
}

const char *
criticalPathName(CriticalPath path)
{
    if (path.via == Hop::None)
        return hopName(path.hop);
    COTERIE_ASSERT(path.hop == Hop::StallWait,
                   "only stall_wait descends into a linked fetch");
    // Leaked: trace events keep these pointers for the whole process,
    // panic dumps during static destruction included.
    static const auto *names = [] {
        auto *out = new std::array<std::string, kHopCount>;
        for (std::size_t i = 0; i < kHopCount; ++i)
            (*out)[i] = std::string("stall_wait/") +
                        hopName(static_cast<Hop>(i));
        return out;
    }();
    return (*names)[static_cast<std::size_t>(path.via)].c_str();
}

namespace {

/** A frame trace event of session @p label, pre-filled with @p ctx's
 *  identity. */
TraceEvent
frameEvent(const FrameTraceContext &ctx, const char *label)
{
    TraceEvent e;
    e.category = "frame";
    e.label = label;
    e.session = ctx.session;
    e.client = ctx.client;
    e.frame = ctx.frame;
    return e;
}

} // namespace

void
FrameTraceContext::hop(Hop h, double beginMs, double endMs) const
{
    if (tracer != nullptr)
        tracer->hop(*this, h, beginMs, endMs);
}

FrameTracer::FrameTracer(std::string label)
    : label_(std::move(label)), eventLabel_(intern(label_))
{
    // Distinguishes session runs in flight dumps (forensics only;
    // never exported into deterministic sim-side artifacts).
    static std::atomic<std::uint32_t> nextSession{1};
    sessionId_ = nextSession.fetch_add(1, std::memory_order_relaxed);
}

FrameTraceContext
FrameTracer::mint(Kind kind, std::uint16_t client, std::uint64_t frame)
{
    FrameTraceContext ctx;
    ctx.tracer = this;
    ctx.session = sessionId_;
    ctx.client = client;
    ctx.frame = frame;

    support::MutexLock lock(mutex_);
    ctx.recordId = nextRecordId_++;
    inFlight_.emplace(ctx.recordId, InFlight{.kind = kind});
    return ctx;
}

void
FrameTracer::hop(const FrameTraceContext &ctx, Hop h, double beginMs,
                 double endMs)
{
    COTERIE_ASSERT(ctx.tracer == this, "context from another tracer");
    const double durMs = endMs >= beginMs ? endMs - beginMs : 0.0;
    {
        support::MutexLock lock(mutex_);
        if (auto it = inFlight_.find(ctx.recordId); it != inFlight_.end())
            it->second.totalMs[static_cast<std::size_t>(h)] += durMs;
    }
    TraceEvent e = frameEvent(ctx, eventLabel_);
    e.kind = TraceEventKind::FrameHop;
    e.name = hopEventName(h);
    e.simBeginMs = beginMs;
    e.simDurMs = durMs;
    e.wallBeginNs = monotonicNowNs();
    emit(e);
}

void
FrameTracer::link(const FrameTraceContext &frameCtx, Hop fetchHop)
{
    if (frameCtx.tracer != this)
        return;
    support::MutexLock lock(mutex_);
    const auto it = inFlight_.find(frameCtx.recordId);
    COTERIE_ASSERT(it != inFlight_.end(), "bad frame-trace link");
    it->second.via = fetchHop;
}

CriticalPath
FrameTracer::complete(const FrameTraceContext &ctx, double doneMs,
                      double latencyMs)
{
    if (ctx.tracer != this)
        return {};
    InFlight rec;
    {
        support::MutexLock lock(mutex_);
        const auto it = inFlight_.find(ctx.recordId);
        COTERIE_ASSERT(it != inFlight_.end(),
                       "bad frame-trace record id ", ctx.recordId);
        rec = it->second;
        inFlight_.erase(it);
    }
    // The hop family with the largest total; strict '>' keeps the
    // earliest pipeline stage on ties, which is stable across runs
    // (totals are sim-derived).
    CriticalPath path;
    double bestTotal = 0.0;
    for (std::size_t i = 0; i < kHopCount; ++i) {
        if (rec.totalMs[i] > bestTotal) {
            bestTotal = rec.totalMs[i];
            path.hop = static_cast<Hop>(i);
        }
    }
    // A frame that spent its budget waiting on a fetch descends into
    // the linked fetch to name the real bottleneck.
    if (path.hop == Hop::StallWait)
        path.via = rec.via;
    if (rec.kind == Kind::Frame) {
        TraceEvent e = frameEvent(ctx, eventLabel_);
        e.kind = TraceEventKind::FrameDone;
        e.name = "frame.done";
        e.simBeginMs = doneMs;
        e.value = latencyMs;
        e.critical = criticalPathName(path);
        emit(e);
    }
    return path;
}

void
FrameTracer::abort(const FrameTraceContext &ctx)
{
    if (ctx.tracer != this)
        return;
    support::MutexLock lock(mutex_);
    inFlight_.erase(ctx.recordId);
}

} // namespace coterie::obs
