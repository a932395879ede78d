#include "obs/frame_trace.hh"

#include <array>
#include <atomic>

#include "obs/clock.hh"
#include "obs/flight.hh"
#include "obs/slo.hh"
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
    // Leaked: flight-recorder events keep these pointers for the
    // whole process, panic dumps during static destruction included.
    static const auto *names = [] {
        auto *out = new std::array<std::string, kHopCount>;
        for (std::size_t i = 0; i < kHopCount; ++i)
            (*out)[i] = std::string("stall_wait/") +
                        hopName(static_cast<Hop>(i));
        return out;
    }();
    return (*names)[static_cast<std::size_t>(path.via)].c_str();
}

void
FrameTraceContext::hop(Hop h, double beginMs, double endMs)
{
    if (tracer != nullptr)
        tracer->hop(*this, h, beginMs, endMs);
}

FrameTracer::FrameTracer(std::string label)
    : label_(std::move(label)), flightLabel_(flight::intern(label_))
{
    // Distinguishes session runs in flight dumps (forensics only;
    // never exported into deterministic sim-side artifacts).
    static std::atomic<std::uint32_t> nextSession{1};
    sessionId_ = nextSession.fetch_add(1, std::memory_order_relaxed);
}

FrameTraceContext
FrameTracer::mint(Kind kind, std::uint16_t client, std::uint64_t frame,
                  double nowMs)
{
    FrameTraceContext ctx;
    ctx.tracer = this;
    ctx.session = sessionId_;
    ctx.client = client;
    ctx.frame = frame;

    support::MutexLock lock(mutex_);
    ctx.recordId = static_cast<std::uint32_t>(records_.size());
    FrameRecord rec;
    rec.kind = kind;
    rec.client = client;
    rec.frame = frame;
    rec.mintedMs = nowMs;
    records_.push_back(std::move(rec));
    return ctx;
}

void
FrameTracer::hop(FrameTraceContext &ctx, Hop h, double beginMs,
                 double endMs)
{
    COTERIE_ASSERT(ctx.tracer == this, "context from another tracer");
    const double durMs = endMs >= beginMs ? endMs - beginMs : 0.0;
    const std::uint64_t wallNs = monotonicNowNs();
    {
        support::MutexLock lock(mutex_);
        COTERIE_ASSERT(ctx.recordId < records_.size(),
                       "bad frame-trace record id ", ctx.recordId);
        records_[ctx.recordId].hops.push_back(
            HopRecord{h, beginMs, durMs, wallNs});
    }
    ++ctx.hops;
    flight::recordFrameHop(hopEventName(h), flightLabel_, ctx.session,
                           ctx.client, ctx.frame, beginMs, durMs, wallNs);
}

void
FrameTracer::link(const FrameTraceContext &frameCtx,
                  const FrameTraceContext &fetchCtx)
{
    if (frameCtx.tracer != this || fetchCtx.tracer != this)
        return;
    support::MutexLock lock(mutex_);
    COTERIE_ASSERT(frameCtx.recordId < records_.size() &&
                       fetchCtx.recordId < records_.size(),
                   "bad frame-trace link");
    records_[frameCtx.recordId].link = fetchCtx.recordId + 1;
}

CriticalPath
FrameTracer::criticalPathLocked(const FrameRecord &rec) const
{
    const auto dominant = [](const FrameRecord &r) {
        std::array<double, kHopCount> totals{};
        for (const HopRecord &h : r.hops)
            totals[static_cast<std::size_t>(h.hop)] += h.simDurMs;
        Hop best = Hop::None;
        double bestTotal = 0.0;
        for (std::size_t i = 0; i < kHopCount; ++i) {
            // Strict '>' keeps the earliest pipeline stage on ties,
            // which is stable across runs (totals are sim-derived).
            if (totals[i] > bestTotal) {
                bestTotal = totals[i];
                best = static_cast<Hop>(i);
            }
        }
        return best;
    };

    CriticalPath path{dominant(rec)};
    // A frame that spent its budget waiting on a fetch descends into
    // the linked fetch record to name the real bottleneck.
    if (path.hop == Hop::StallWait && rec.link != 0)
        path.via = dominant(records_[rec.link - 1]);
    return path;
}

CriticalPath
FrameTracer::complete(FrameTraceContext &ctx, double doneMs,
                      double latencyMs)
{
    if (ctx.tracer != this)
        return {};
    CriticalPath path;
    Kind kind;
    {
        support::MutexLock lock(mutex_);
        COTERIE_ASSERT(ctx.recordId < records_.size(),
                       "bad frame-trace record id ", ctx.recordId);
        FrameRecord &rec = records_[ctx.recordId];
        rec.doneMs = doneMs;
        rec.latencyMs = latencyMs;
        rec.completed = true;
        rec.criticalPath = path = criticalPathLocked(rec);
        kind = rec.kind;
    }
    if (kind == Kind::Frame) {
        flight::recordFrameDone(flightLabel_, ctx.session, ctx.client,
                                ctx.frame, doneMs, latencyMs,
                                criticalPathName(path));
    }
    return path;
}

void
FrameTracer::abort(FrameTraceContext &ctx, double nowMs)
{
    if (ctx.tracer != this)
        return;
    support::MutexLock lock(mutex_);
    COTERIE_ASSERT(ctx.recordId < records_.size(),
                   "bad frame-trace record id ", ctx.recordId);
    FrameRecord &rec = records_[ctx.recordId];
    rec.aborted = true;
    rec.doneMs = nowMs;
}

void
FrameTracer::finish()
{
    TraceRecorder &recorder = TraceRecorder::global();
    if (!recorder.enabled())
        return;
    support::MutexLock lock(mutex_);
    for (const FrameRecord &rec : records_) {
        const int tid = static_cast<int>(rec.client);
        for (const HopRecord &h : rec.hops) {
            Json args = Json::object();
            args.set("label", Json(label_));
            args.set("client", Json(static_cast<int>(rec.client)));
            args.set("frame", Json(rec.frame));
            recorder.frameSpan(hopEventName(h.hop), tid, h.simBeginMs,
                               h.simDurMs, std::move(args));
        }
        if (rec.kind != Kind::Frame || !rec.completed)
            continue;
        Json args = Json::object();
        args.set("label", Json(label_));
        args.set("client", Json(static_cast<int>(rec.client)));
        args.set("frame", Json(rec.frame));
        args.set("latency_ms", Json(rec.latencyMs));
        args.set("budget_ms", Json(kFrameBudgetMs));
        args.set("miss", Json(missesDeadline(rec.latencyMs)));
        args.set("critical_path",
                 Json(criticalPathName(rec.criticalPath)));
        recorder.frameInstant("frame.done", tid, rec.doneMs,
                              std::move(args));
    }
}

const FrameTracer::FrameRecord *
FrameTracer::find(Kind kind, std::uint16_t client,
                  std::uint64_t frame) const
{
    support::MutexLock lock(mutex_);
    return findLocked(kind, client, frame);
}

const FrameTracer::FrameRecord *
FrameTracer::findLocked(Kind kind, std::uint16_t client,
                        std::uint64_t frame) const
{
    // Latest match wins (a frame id can be re-fetched after expiry).
    for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
        if (it->kind == kind && it->client == client &&
            it->frame == frame) {
            return &*it;
        }
    }
    return nullptr;
}

std::size_t
FrameTracer::recordCount() const
{
    support::MutexLock lock(mutex_);
    return records_.size();
}

} // namespace coterie::obs
