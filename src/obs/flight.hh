/**
 * @file
 * Always-on flight recorder: fixed-size, lock-free, per-thread ring
 * buffers of `TraceEvent` records (obs/trace_event.hh).
 *
 * Unlike the opt-in `TraceRecorder` (which only records between
 * start()/stop()), the flight recorder is always armed: every
 * `COTERIE_SPAN` scope, frame-tracer hop, `frame.done` and
 * `obs::instant` drops one record into the calling thread's ring
 * (obs/trace.hh's emit calls feed both sinks). Each ring is
 * single-writer (its owning thread) with a release-published head, so
 * the steady-state cost is two clock reads plus one 88-byte store —
 * negligible against any pipeline stage — and recording never takes a
 * lock. Rings are leaked intentionally (trivially-destructible state,
 * no TLS-teardown hazards) and overwrite oldest-first, so the recorder
 * always holds the last ~4096 events per thread. Counter samples stay
 * recorder-only: the pool's queue-depth track fires on every job and
 * would flush the rings' frame history.
 *
 * The payoff is crash forensics: the rings are dumped, through the
 * same encoder a live trace export uses, to a Perfetto-loadable Chrome
 * trace_event file on
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
#include <string>

#include "obs/trace_event.hh"

namespace coterie::obs::flight {

#if COTERIE_FLIGHT_ENABLED

/** Compile-time switch, usable in `if constexpr`. */
inline constexpr bool kCompiledIn = true;

/** Events each per-thread ring retains (oldest overwritten first). */
inline constexpr std::size_t kRingCapacity = 4096;

/** Store @p e in the calling thread's ring (oldest overwritten
 *  first). Use the emit calls in obs/trace.hh, which also feed a
 *  recording `TraceRecorder`. */
void record(const TraceEvent &e);

/** Total events currently retained across all rings (best-effort). */
std::size_t eventCount();

/**
 * Write every ring's retained events through `writeTraceFile` (the
 * live-trace encoder), with the earliest event as the wall epoch.
 * Returns false on I/O failure.
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
record(const TraceEvent &)
{
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
