#include "sim/faults.hh"

#include <algorithm>
#include <cmath>

#include "obs/flight.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "support/logging.hh"

namespace coterie::sim {

namespace {

/** Episode active test for the half-open window [startMs, endMs). */
bool
activeAt(const FaultEpisode &e, TimeMs t)
{
    return t >= e.startMs && t < e.endMs;
}

} // namespace

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::LossBurst: return "loss_burst";
      case FaultKind::LatencySpike: return "latency_spike";
      case FaultKind::BandwidthCollapse: return "bandwidth_collapse";
      case FaultKind::Outage: return "outage";
      case FaultKind::ServerStall: return "server_stall";
      case FaultKind::Disconnect: return "disconnect";
    }
    return "unknown";
}

FaultPlan &
FaultPlan::add(const FaultEpisode &episode)
{
    COTERIE_ASSERT(episode.endMs >= episode.startMs,
                   "fault episode must not end before it starts");
    episodes_.push_back(episode);
    return *this;
}

FaultPlan &
FaultPlan::lossBurst(TimeMs start, TimeMs end, double addedProbability)
{
    return add({FaultKind::LossBurst, start, end,
                std::clamp(addedProbability, 0.0, 1.0), -1});
}

FaultPlan &
FaultPlan::latencySpike(TimeMs start, TimeMs end, double extraMs)
{
    return add({FaultKind::LatencySpike, start, end,
                std::max(0.0, extraMs), -1});
}

FaultPlan &
FaultPlan::bandwidthCollapse(TimeMs start, TimeMs end, double factor)
{
    return add({FaultKind::BandwidthCollapse, start, end,
                std::clamp(factor, 1e-6, 1.0), -1});
}

FaultPlan &
FaultPlan::outage(TimeMs start, TimeMs end)
{
    return add({FaultKind::Outage, start, end, 0.0, -1});
}

FaultPlan &
FaultPlan::serverStall(TimeMs start, TimeMs end)
{
    return add({FaultKind::ServerStall, start, end, 0.0, -1});
}

FaultPlan &
FaultPlan::disconnect(TimeMs start, TimeMs end, int clientId)
{
    return add({FaultKind::Disconnect, start, end, 0.0, clientId});
}

double
FaultPlan::extraLossProbability(TimeMs t) const
{
    double p = 0.0;
    for (const FaultEpisode &e : episodes_)
        if (e.kind == FaultKind::LossBurst && activeAt(e, t))
            p += e.magnitude;
    return std::min(1.0, p);
}

double
FaultPlan::extraLatencyMs(TimeMs t) const
{
    double ms = 0.0;
    for (const FaultEpisode &e : episodes_)
        if (e.kind == FaultKind::LatencySpike && activeAt(e, t))
            ms += e.magnitude;
    return ms;
}

double
FaultPlan::bandwidthFactor(TimeMs t) const
{
    double factor = 1.0;
    for (const FaultEpisode &e : episodes_) {
        if (!activeAt(e, t))
            continue;
        if (e.kind == FaultKind::Outage)
            return 0.0;
        if (e.kind == FaultKind::BandwidthCollapse)
            factor *= e.magnitude;
    }
    return factor;
}

bool
FaultPlan::serverStalled(TimeMs t) const
{
    for (const FaultEpisode &e : episodes_)
        if (e.kind == FaultKind::ServerStall && activeAt(e, t))
            return true;
    return false;
}

TimeMs
FaultPlan::serverStallEndsAt(TimeMs t) const
{
    // Follow chained/overlapping stalls: keep extending while some
    // stall covers the current end time.
    TimeMs end = t;
    bool extended = true;
    while (extended) {
        extended = false;
        for (const FaultEpisode &e : episodes_) {
            if (e.kind == FaultKind::ServerStall && activeAt(e, end) &&
                e.endMs > end) {
                end = e.endMs;
                extended = true;
            }
        }
    }
    return end;
}

bool
FaultPlan::disconnected(int clientId, TimeMs t) const
{
    for (const FaultEpisode &e : episodes_)
        if (e.kind == FaultKind::Disconnect && activeAt(e, t) &&
            (e.clientId < 0 || e.clientId == clientId))
            return true;
    return false;
}

TimeMs
FaultPlan::reconnectsAt(int clientId, TimeMs t) const
{
    TimeMs end = t;
    bool extended = true;
    while (extended) {
        extended = false;
        for (const FaultEpisode &e : episodes_) {
            if (e.kind == FaultKind::Disconnect && activeAt(e, end) &&
                (e.clientId < 0 || e.clientId == clientId) &&
                e.endMs > end) {
                end = e.endMs;
                extended = true;
            }
        }
    }
    return end;
}

int
FaultPlan::activeEpisodes(TimeMs t) const
{
    int n = 0;
    for (const FaultEpisode &e : episodes_)
        if (activeAt(e, t))
            ++n;
    return n;
}

TimeMs
FaultPlan::nextBoundaryAfter(TimeMs t) const
{
    TimeMs next = std::numeric_limits<TimeMs>::infinity();
    for (const FaultEpisode &e : episodes_) {
        if (e.startMs > t)
            next = std::min(next, e.startMs);
        if (e.endMs > t)
            next = std::min(next, e.endMs);
    }
    return next;
}

FaultPlan
FaultPlan::scaled(double severity) const
{
    const double s = std::clamp(severity, 0.0, 1.0);
    FaultPlan plan;
    for (FaultEpisode e : episodes_) {
        switch (e.kind) {
          case FaultKind::LossBurst:
          case FaultKind::LatencySpike:
            e.magnitude *= s;
            break;
          case FaultKind::BandwidthCollapse:
            e.magnitude = 1.0 - (1.0 - e.magnitude) * s;
            break;
          case FaultKind::Outage:
          case FaultKind::ServerStall:
          case FaultKind::Disconnect:
            e.endMs = e.startMs + (e.endMs - e.startMs) * s;
            break;
        }
        // Episodes scaled to nothing are dropped so the empty-plan
        // no-op guarantee holds at severity 0.
        const bool inert =
            (e.kind == FaultKind::LossBurst && e.magnitude <= 0.0) ||
            (e.kind == FaultKind::LatencySpike && e.magnitude <= 0.0) ||
            (e.kind == FaultKind::BandwidthCollapse &&
             e.magnitude >= 1.0) ||
            e.endMs <= e.startMs;
        if (!inert)
            plan.add(e);
    }
    return plan;
}

FaultDriver::FaultDriver(EventQueue &queue, const FaultPlan &plan,
                         std::string label)
    : queue_(queue), plan_(plan), label_(std::move(label))
{
}

void
FaultDriver::emitBoundary(const FaultEpisode &episode, bool begin)
{
    const TimeMs now = queue_.now();
    const std::string name = (label_.empty() ? std::string()
                                             : label_ + "/") +
                             "fault." + faultKindName(episode.kind) +
                             (begin ? ".begin" : ".end");
    obs::instant(obs::intern(name), "fault", now);
    obs::TraceRecorder::global().counter(
        "fault.active_episodes",
        static_cast<double>(plan_.activeEpisodes(now)));
    // Episode boundaries are natural flight-recorder checkpoints:
    // snapshot the ring to disk when the operator opted in via
    // COTERIE_FLIGHT_DUMP.
    obs::flight::dumpOnEpisodeBoundary();
    if (begin)
        COTERIE_COUNT("fault.episodes");
}

void
FaultDriver::arm()
{
    if (armed_)
        return;
    armed_ = true;
    for (const FaultEpisode &episode : plan_.episodes()) {
        // Capture by value from the plan (the driver references the
        // caller's plan; both must outlive the run by contract, so no
        // revalidation guard is needed in these callbacks).
        const FaultEpisode e = episode;
        const TimeMs now = queue_.now();
        queue_.scheduleAt(std::max(now, e.startMs), // lint:allow(epoch-guarded-schedule)
                          [this, e] { emitBoundary(e, true); });
        queue_.scheduleAt(std::max(now, e.endMs), // lint:allow(epoch-guarded-schedule)
                          [this, e] { emitBoundary(e, false); });
    }
}

} // namespace coterie::sim
