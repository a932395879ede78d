#include "obs/slo.hh"

namespace coterie::obs {

void
DeadlineTracker::record(std::uint16_t client, double latencyMs,
                        const char *criticalPath)
{
    byClient_[client].add(latencyMs);
    if (missesDeadline(latencyMs)) {
        ++missesByClient_[client];
        ++missesByHop_[criticalPath];
    }
}

Json
DeadlineTracker::toJson() const
{
    SampleSet latencies;
    for (const auto &[client, samples] : byClient_)
        latencies.merge(samples);
    std::uint64_t misses = 0;
    for (const auto &[client, count] : missesByClient_)
        misses += count;
    const std::uint64_t frames = latencies.count();

    Json out = Json::object();
    out.set("budget_ms", Json(kFrameBudgetMs));
    out.set("frames", Json(frames));
    out.set("misses", Json(misses));
    out.set("miss_rate",
            Json(frames > 0 ? static_cast<double>(misses) /
                                  static_cast<double>(frames)
                            : 0.0));
    if (frames > 0) {
        Json lat = Json::object();
        lat.set("mean_ms", Json(latencies.mean()));
        lat.set("p50_ms", Json(latencies.percentile(50.0)));
        lat.set("p99_ms", Json(latencies.percentile(99.0)));
        lat.set("p999_ms", Json(latencies.percentile(99.9)));
        lat.set("max_ms", Json(latencies.max()));
        out.set("latency", std::move(lat));
    }

    Json clients = Json::object();
    for (const auto &[client, samples] : byClient_) {
        Json c = Json::object();
        c.set("frames", Json(static_cast<std::uint64_t>(
                            samples.count())));
        const auto missIt = missesByClient_.find(client);
        c.set("misses", Json(missIt != missesByClient_.end()
                                 ? missIt->second
                                 : std::uint64_t{0}));
        c.set("p50_ms", Json(samples.percentile(50.0)));
        c.set("p99_ms", Json(samples.percentile(99.0)));
        clients.set(std::to_string(client), std::move(c));
    }
    out.set("clients", std::move(clients));

    Json byHop = Json::object();
    for (const auto &[hop, count] : missesByHop_)
        byHop.set(hop, Json(count));
    out.set("misses_by_hop", std::move(byHop));
    return out;
}

SloRegistry &
SloRegistry::global()
{
    // Leaked so late publishers (static-destruction-order races in
    // tests) never touch a destroyed registry.
    static SloRegistry *registry = new SloRegistry();
    return *registry;
}

void
SloRegistry::publish(const std::string &label, Json summary)
{
    support::MutexLock lock(mutex_);
    sessions_[label] = std::move(summary);
}

Json
SloRegistry::snapshotJson() const
{
    support::MutexLock lock(mutex_);
    Json out = Json::object();
    for (const auto &[label, summary] : sessions_)
        out.set(label, summary);
    return out;
}

void
SloRegistry::clear()
{
    support::MutexLock lock(mutex_);
    sessions_.clear();
}

std::size_t
SloRegistry::size() const
{
    support::MutexLock lock(mutex_);
    return sessions_.size();
}

} // namespace coterie::obs
