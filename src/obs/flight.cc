#include "obs/flight.hh"

#if COTERIE_FLIGHT_ENABLED

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "obs/metrics.hh"
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
    TraceEvent events[kRingCapacity];
};

struct Registry
{
    support::Mutex mutex{"flight::Registry::mutex"};
    std::vector<Ring *> rings COTERIE_GUARDED_BY(mutex);
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
record(const TraceEvent &e)
{
    Ring &r = ring();
    const std::uint64_t idx = r.head.load(std::memory_order_relaxed);
    r.events[idx % kRingCapacity] = e;
    r.head.store(idx + 1, std::memory_order_release);
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

    std::vector<SlottedEvent> events;
    for (const Ring *r : rings) {
        const std::uint64_t head =
            r->head.load(std::memory_order_acquire);
        const std::uint64_t count =
            head < kRingCapacity ? head : kRingCapacity;
        for (std::uint64_t i = head - count; i < head; ++i) {
            const TraceEvent &e = r->events[i % kRingCapacity];
            if (e.name != nullptr) // unwritten or torn slot
                events.push_back({e, r->slot});
        }
    }
    // Wall timestamps are exported relative to the earliest event so
    // the dump lines up at t=0 like a TraceRecorder export.
    std::uint64_t epochNs = UINT64_MAX;
    for (const SlottedEvent &s : events)
        if (s.event.wallBeginNs > 0)
            epochNs = std::min(epochNs, s.event.wallBeginNs);
    return writeTraceFile(path, events,
                          epochNs == UINT64_MAX ? 0 : epochNs);
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
