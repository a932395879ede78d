/**
 * @file
 * Always-on flight recorder: fixed-size, lock-free, per-thread ring
 * buffers of compact binary frame/span events.
 *
 * Unlike the opt-in `TraceRecorder` (which allocates per event and
 * only records between start()/stop()), the flight recorder is always
 * armed: every `COTERIE_SPAN` scope and every frame-tracer hop drops
 * one fixed-size POD event into the calling thread's ring. Each ring
 * is single-writer (its owning thread) with a release-published head,
 * so the steady-state cost is two clock reads plus one 88-byte store —
 * negligible against any pipeline stage — and recording never takes a
 * lock. Rings are leaked intentionally (trivially-destructible state,
 * no TLS-teardown hazards) and overwrite oldest-first, so the recorder
 * always holds the last ~4096 events per thread.
 *
 * The payoff is crash forensics: the rings are dumped to a
 * Perfetto-loadable Chrome trace_event file on
 *  - `COTERIE_ASSERT` / `COTERIE_PANIC` failure (via the
 *    `support::setPanicHook` hook, installed on first use — this also
 *    covers lock-order validator panics),
 *  - `sim::FaultDriver` episode boundaries when `COTERIE_FLIGHT_DUMP`
 *    is set in the environment, and
 *  - explicit `flight::dump(path)` calls (tests, tools).
 * `COTERIE_FLIGHT_DUMP=<path>` overrides the default dump path
 * (`coterie.flight.json`). A dump taken while writers are live is
 * best-effort: the one in-flight slot per ring may be torn and is
 * dropped if implausible.
 *
 * Configuring with `-DCOTERIE_FLIGHT=OFF` compiles the recorder away:
 * every entry point below degrades to an inline no-op and
 * `libcoterie_obs` carries zero recorder symbols (CI checks this with
 * `nm`), mirroring the `COTERIE_TELEMETRY` contract.
 *
 * Determinism: the recorder is observe-only. Nothing reads an event
 * back into simulation state, and `determinism_test` is bit-identical
 * with the recorder ON or OFF at any `COTERIE_THREADS`.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace coterie::obs::flight {

/** Event kinds stored in the rings. */
enum class EventKind : std::uint8_t {
    Span = 0,     ///< wall-clock scope (COTERIE_SPAN)
    FrameHop = 1, ///< one causal hop of a frame record (sim timeline)
    FrameDone = 2, ///< frame completion: latency vs deadline budget
    Instant = 3,  ///< point event (fault boundaries, markers)
};

/**
 * One ring slot. Plain-old-data on purpose: rings are leaked arrays
 * of these, written in place with no construction or destruction.
 * All `const char *` members must point at static literals or
 * `intern()`-ed strings (process lifetime) — never at stack or
 * short-lived heap storage.
 */
struct FlightEvent
{
    std::uint64_t wallBeginNs = 0;
    std::uint64_t wallDurNs = 0;
    double simBeginMs = -1.0; ///< < 0 -> no sim-time attribution
    double simDurMs = 0.0;
    double value = 0.0; ///< FrameDone: latency_ms
    const char *name = nullptr;
    const char *category = nullptr;
    const char *label = nullptr;    ///< session label (FrameHop/Done)
    const char *critical = nullptr; ///< FrameDone: critical-path string
    std::uint64_t frame = 0;
    std::uint32_t session = 0;
    std::uint16_t client = 0;
    EventKind kind = EventKind::Span;
};

#if COTERIE_FLIGHT_ENABLED

/** Compile-time switch, usable in `if constexpr`. */
inline constexpr bool kCompiledIn = true;

/** Events each per-thread ring retains (oldest overwritten first). */
inline constexpr std::size_t kRingCapacity = 4096;

/** Record a completed wall-clock span (ScopedSpan destructor). */
void recordSpan(const char *name, const char *category,
                std::uint64_t beginNs, std::uint64_t endNs,
                double simMs = -1.0);

/** Record one causal hop of a frame record (sim-time interval,
 *  stamped at wall time @p wallNs). @p name must be a static literal
 *  (`frame.<hop>`); @p label an intern()-ed session label. */
void recordFrameHop(const char *name, const char *label,
                    std::uint32_t session, std::uint16_t client,
                    std::uint64_t frame, double simBeginMs,
                    double simDurMs, std::uint64_t wallNs);

/** Record a frame completion (the dump scores it against the
 *  deadline budget). @p criticalPath must be a static string. */
void recordFrameDone(const char *label, std::uint32_t session,
                     std::uint16_t client, std::uint64_t frame,
                     double simMs, double latencyMs,
                     const char *criticalPath);

/** Record a point event (fault episode boundaries, markers). */
void recordInstant(const char *name, const char *category,
                   double simMs = -1.0);

/**
 * Copy @p s into the process-lifetime intern pool and return a stable
 * pointer, suitable for FlightEvent string members. Idempotent per
 * distinct content.
 */
const char *intern(const std::string &s);

/** Total events currently retained across all rings (best-effort). */
std::size_t eventCount();

/**
 * Write every ring's retained events as a Chrome trace_event JSON
 * document (wall spans under pid 1, sim-timeline frame events under
 * pid 2). Returns false on I/O failure.
 */
bool dump(const std::string &path);

/** The dump path crash/boundary dumps use: `$COTERIE_FLIGHT_DUMP` or
 *  `coterie.flight.json`. */
std::string defaultDumpPath();

/**
 * Install the panic-hook crash dump (idempotent). Called lazily on
 * first recorded event; call explicitly from binaries that want the
 * dump armed before any instrumentation fires.
 */
void installPanicDump();

/** FaultDriver episode-boundary trigger: dump to the default path iff
 *  `COTERIE_FLIGHT_DUMP` is set in the environment. */
void dumpOnEpisodeBoundary();

#else // flight recorder compiled out: inline no-ops, zero symbols

inline constexpr bool kCompiledIn = false;
inline constexpr std::size_t kRingCapacity = 0;

inline void
recordSpan(const char *, const char *, std::uint64_t, std::uint64_t,
           double = -1.0)
{
}

inline void
recordFrameHop(const char *, const char *, std::uint32_t, std::uint16_t,
               std::uint64_t, double, double, std::uint64_t)
{
}

inline void
recordFrameDone(const char *, std::uint32_t, std::uint16_t,
                std::uint64_t, double, double, const char *)
{
}

inline void
recordInstant(const char *, const char *, double = -1.0)
{
}

inline const char *
intern(const std::string &)
{
    return "";
}

inline std::size_t
eventCount()
{
    return 0;
}

inline bool
dump(const std::string &)
{
    return false;
}

inline std::string
defaultDumpPath()
{
    return {};
}

inline void
installPanicDump()
{
}

inline void
dumpOnEpisodeBoundary()
{
}

#endif // COTERIE_FLIGHT_ENABLED

} // namespace coterie::obs::flight
