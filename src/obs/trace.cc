#include "obs/trace.hh"

#include "support/parallel.hh"

namespace coterie::obs {

TraceRecorder &
TraceRecorder::global()
{
    static TraceRecorder recorder;
    return recorder;
}

void
TraceRecorder::start()
{
    installPoolTelemetry();
    {
        support::MutexLock lock(mutex_);
        events_.clear();
        epochNs_ = monotonicNowNs();
    }
    enabled_.store(true, std::memory_order_relaxed);
}

void
TraceRecorder::stop()
{
    enabled_.store(false, std::memory_order_relaxed);
}

void
TraceRecorder::clear()
{
    support::MutexLock lock(mutex_);
    events_.clear();
}

void
TraceRecorder::record(const TraceEvent &e)
{
    if (!enabled())
        return;
    const int slot = threadSlot();
    support::MutexLock lock(mutex_);
    events_.push_back({e, slot});
}

namespace {

TraceEvent
spanEvent(const char *name, const char *category, std::uint64_t beginNs,
          std::uint64_t endNs, double simMs)
{
    TraceEvent e;
    e.kind = TraceEventKind::Span;
    e.name = name;
    e.category = category;
    e.wallBeginNs = beginNs;
    e.wallDurNs = endNs >= beginNs ? endNs - beginNs : 0;
    e.simBeginMs = simMs;
    return e;
}

TraceEvent
instantEvent(const char *name, const char *category, double simMs)
{
    TraceEvent e;
    e.kind = TraceEventKind::Instant;
    e.name = name;
    e.category = category;
    e.wallBeginNs = monotonicNowNs();
    e.simBeginMs = simMs;
    return e;
}

} // namespace

void
TraceRecorder::complete(const char *name, const char *category,
                        std::uint64_t beginNs, std::uint64_t endNs,
                        double simMs)
{
    record(spanEvent(name, category, beginNs, endNs, simMs));
}

void
TraceRecorder::counter(const char *name, double value)
{
    if (!enabled())
        return;
    TraceEvent e;
    e.kind = TraceEventKind::Counter;
    e.name = name;
    e.category = "counter";
    e.wallBeginNs = monotonicNowNs();
    e.value = value;
    record(e);
}

void
TraceRecorder::instant(const char *name, const char *category,
                       double simMs)
{
    if (enabled())
        record(instantEvent(name, category, simMs));
}

std::size_t
TraceRecorder::eventCount() const
{
    support::MutexLock lock(mutex_);
    return events_.size();
}

Json
TraceRecorder::toJson() const
{
    support::MutexLock lock(mutex_);
    return traceDocument(events_, epochNs_);
}

bool
TraceRecorder::exportToFile(const std::string &path) const
{
    support::MutexLock lock(mutex_);
    return writeTraceFile(path, events_, epochNs_);
}

void
emit(const TraceEvent &e)
{
    flight::record(e);
    TraceRecorder::global().record(e);
}

void
instant(const char *name, const char *category, double simMs)
{
    emit(instantEvent(name, category, simMs));
}

void
emitSpan(const char *name, const char *category, std::uint64_t beginNs,
         std::uint64_t endNs, double simMs, bool recorderArmed)
{
    const TraceEvent e = spanEvent(name, category, beginNs, endNs, simMs);
    flight::record(e);
    if (recorderArmed)
        TraceRecorder::global().record(e);
}

namespace {

/**
 * Bridges support::ThreadPool's observer hooks into counter tracks and
 * `pool.*` metrics. Observe-only: it records and never touches pool
 * state. Installed once for the process lifetime (the pool requires
 * the observer to outlive all pool use).
 */
class PoolTracer final : public support::PoolObserver
{
  public:
    void onJobBegin(std::int64_t chunkCount) override
    {
        const int depth =
            queueDepth_.fetch_add(1, std::memory_order_relaxed) + 1;
        COTERIE_COUNT("pool.jobs");
        COTERIE_COUNT_N("pool.chunks", chunkCount);
        TraceRecorder::global().counter(
            "pool.queue_depth", static_cast<double>(depth));
    }

    void onJobEnd(std::int64_t /*chunkCount*/) override
    {
        const int depth =
            queueDepth_.fetch_sub(1, std::memory_order_relaxed) - 1;
        TraceRecorder::global().counter(
            "pool.queue_depth", static_cast<double>(depth));
    }

    void onWorkerActivity(int activeWorkers, int workerCount) override
    {
        TraceRecorder::global().counter(
            "pool.active_workers", static_cast<double>(activeWorkers));
        if (workerCount > 0) {
            COTERIE_GAUGE_SET("pool.worker_utilization",
                              static_cast<double>(activeWorkers) /
                                  static_cast<double>(workerCount));
        }
    }

  private:
    std::atomic<int> queueDepth_{0};
};

} // namespace

void
installPoolTelemetry()
{
    // Leaked singleton: the pool observer contract requires the
    // observer to outlive every pool job, including ones racing with
    // static destruction.
    static PoolTracer *tracer = [] {
        auto *t = new PoolTracer();
        support::setPoolObserver(t);
        return t;
    }();
    (void)tracer;
}

} // namespace coterie::obs
