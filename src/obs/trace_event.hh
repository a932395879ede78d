/**
 * @file
 * The one trace event record and the one Chrome trace_event encoder.
 *
 * Every trace event is a `TraceEvent`: a fixed-size plain-data record
 * whose strings are static literals or `intern()`-ed copies. Both
 * sinks store the same record — the opt-in `TraceRecorder`
 * (obs/trace.hh) and the always-on flight rings (obs/flight.hh) — and
 * both export through `traceDocument`, the only writer of the
 * trace_event schema. A live export and a flight dump differ only in
 * their epoch (the recorder's `start()` time vs the dump's earliest
 * event) and in the dump skipping torn ring slots, so `trace_report`
 * and Perfetto read either one the same way.
 *
 * Layout: wall-clock events (spans, instants, counters) sit under
 * pid 1 with the recording thread's obs slot as `tid`; sim-timeline
 * frame events sit under pid 2 with the client id as `tid`, their
 * `ts`/`dur` being simulated microseconds.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hh"

namespace coterie::obs {

/** What a record is, and so how it is encoded. */
enum class TraceEventKind : std::uint8_t {
    Span = 0,      ///< wall-clock scope (COTERIE_SPAN), "ph":"X"
    FrameHop = 1,  ///< one causal hop of a frame record (sim timeline)
    FrameDone = 2, ///< frame completion: latency vs deadline budget
    Instant = 3,   ///< point event (fault boundaries, markers)
    Counter = 4,   ///< counter-track sample, "ph":"C"
};

/**
 * One trace event. Plain-old-data on purpose: flight rings are leaked
 * arrays of these, written in place with no construction or
 * destruction. All `const char *` members must point at static
 * literals or `intern()`-ed strings (process lifetime) — never at
 * stack or short-lived heap storage.
 */
struct TraceEvent
{
    std::uint64_t wallBeginNs = 0;
    std::uint64_t wallDurNs = 0;
    double simBeginMs = -1.0; ///< < 0 -> no sim-time attribution
    double simDurMs = 0.0;
    double value = 0.0; ///< Counter: sample; FrameDone: latency_ms
    const char *name = nullptr;
    const char *category = nullptr;
    const char *label = nullptr;    ///< session label (FrameHop/Done)
    const char *critical = nullptr; ///< FrameDone: critical-path string
    std::uint64_t frame = 0;
    std::uint32_t session = 0;
    std::uint16_t client = 0;
    TraceEventKind kind = TraceEventKind::Span;
};

// A flight ring is 4096 of these per thread (352 KiB).
static_assert(sizeof(TraceEvent) == 88, "trace event record grew");

/** A record plus the obs thread slot that recorded it. */
struct SlottedEvent
{
    TraceEvent event;
    int slot = 0;
};

/**
 * Copy @p s into the process-lifetime intern pool and return a stable
 * pointer, suitable for TraceEvent string members. Idempotent per
 * distinct content.
 */
const char *intern(const std::string &s);

/**
 * The Chrome trace_event document of @p events: `displayTimeUnit`,
 * `process_name` metadata for pid 1 (wall) and pid 2 (frames), one
 * `thread_name` per slot that recorded a wall event, then one object
 * per event in order. Wall timestamps are microseconds since
 * @p epochNs.
 */
Json traceDocument(const std::vector<SlottedEvent> &events,
                   std::uint64_t epochNs);

/** Write `traceDocument(events, epochNs)` to @p path; false on I/O
 *  failure. */
bool writeTraceFile(const std::string &path,
                    const std::vector<SlottedEvent> &events,
                    std::uint64_t epochNs);

} // namespace coterie::obs
