#include "net/resilience.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace coterie::net {

ResilientFetcher::ResilientFetcher(sim::EventQueue &queue,
                                   FrameServer &server,
                                   ResilienceParams params)
    : queue_(queue), server_(server), params_(params), rng_(params.seed)
{
}

void
ResilientFetcher::fetch(std::uint64_t key, Delivered onDelivered,
                        Failed onFailed)
{
    fetch(key, obs::FrameTraceContext{}, std::move(onDelivered),
          std::move(onFailed));
}

void
ResilientFetcher::fetch(std::uint64_t key, obs::FrameTraceContext trace,
                        Delivered onDelivered, Failed onFailed)
{
    if (const auto it = pending_.find(key); it != pending_.end()) {
        // Duplicate suppression: ride the outstanding attempt instead
        // of issuing a second request for the same megaframe.
        ++stats_.duplicates;
        COTERIE_COUNT("net.duplicate_fetches");
        if (!it->second.trace.active())
            it->second.trace = trace;
        it->second.onDelivered.push_back(std::move(onDelivered));
        if (onFailed)
            it->second.onFailed.push_back(std::move(onFailed));
        return;
    }
    PendingFetch pf;
    pf.firstIssuedAt = queue_.now();
    pf.trace = trace;
    pf.onDelivered.push_back(std::move(onDelivered));
    if (onFailed)
        pf.onFailed.push_back(std::move(onFailed));
    pending_.emplace(key, std::move(pf));
    issueAttempt(key);
}

void
ResilientFetcher::issueAttempt(std::uint64_t key)
{
    auto &pf = pending_.at(key);
    RequestOptions opts;
    opts.trace = pf.trace;
    if (params_.timeoutMs > 0.0) {
        opts.deadlineMs = params_.timeoutMs;
        opts.onExpired = [this](std::uint64_t k, sim::TimeMs at) {
            onAttemptExpired(k, at);
        };
    }
    pf.requestId = server_.request(
        key,
        [this](std::uint64_t k, sim::TimeMs at) { onDelivered(k, at); },
        std::move(opts));
}

double
ResilientFetcher::backoffDelayMs(int attempt)
{
    // attempt is the upcoming attempt number (>= 2); the wait before it
    // grows as base * 2^(attempt - 2), capped.
    const double exp =
        params_.backoffBaseMs *
        std::pow(2.0, static_cast<double>(attempt - 2));
    double delay = std::min(exp, params_.backoffCapMs);
    if (params_.backoffJitterFrac > 0.0) {
        const double frac = std::min(params_.backoffJitterFrac, 1.0);
        delay *= rng_.uniform(1.0 - frac, 1.0 + frac);
    }
    return std::max(delay, 1e-3);
}

void
ResilientFetcher::onAttemptExpired(std::uint64_t key, sim::TimeMs at)
{
    const auto it = pending_.find(key);
    if (it == pending_.end())
        return; // raced with cancelAll
    PendingFetch &pf = it->second;
    pf.requestId = kInvalidRequest;
    ++stats_.timeouts;
    COTERIE_COUNT("net.timeouts");

    if (pf.attempt >= params_.maxAttempts) {
        // Give up: hand the decision back to the client (which will
        // degrade to its newest stale panorama instead of stalling).
        ++stats_.failures;
        COTERIE_COUNT("net.fetch_giveups");
        // Give-ups are rare, diagnosis-critical moments: mark them in
        // the trace, so a live trace or a post-mortem ring dump shows
        // exactly when the fetcher abandoned a megaframe.
        obs::instant("net.fetch.gave_up", "net", at);
        std::vector<Failed> failed = std::move(pf.onFailed);
        pending_.erase(it);
        for (Failed &cb : failed)
            cb(key, at);
        return;
    }

    ++pf.attempt;
    ++stats_.retries;
    COTERIE_COUNT("net.retries");
    obs::TraceRecorder::global().counter(
        "net.retries", static_cast<double>(stats_.retries));
    const double delay = backoffDelayMs(pf.attempt);
    // The wake-up revalidates key membership and the generation stamp,
    // so a cancelAll (disconnect) between now and then voids it.
    const std::uint64_t gen = ++pf.generation;
    queue_.scheduleIn(delay, [this, key, gen] {
        const auto pit = pending_.find(key);
        if (pit == pending_.end() || pit->second.generation != gen)
            return; // fetch cancelled or superseded while backing off
        issueAttempt(key);
    });
}

void
ResilientFetcher::onDelivered(std::uint64_t key, sim::TimeMs at)
{
    const auto it = pending_.find(key);
    if (it == pending_.end())
        return; // raced with cancelAll
    PendingFetch &pf = it->second;
    ++stats_.delivered;
    if (pf.attempt > 1) {
        ++stats_.recoveries;
        COTERIE_COUNT("net.recoveries");
        // Time from the first issue to eventual delivery: how long the
        // retry loop took to punch through the fault.
        COTERIE_OBSERVE("net.recovery_sim_ms", at - pf.firstIssuedAt);
    }
    std::vector<Delivered> delivered = std::move(pf.onDelivered);
    pending_.erase(it);
    for (Delivered &cb : delivered)
        cb(key, at);
}

std::size_t
ResilientFetcher::cancelAll()
{
    const std::size_t n = pending_.size();
    for (auto &[key, pf] : pending_) {
        if (pf.requestId != kInvalidRequest)
            server_.cancel(pf.requestId);
        ++pf.generation; // voids any in-flight backoff wake-up
    }
    pending_.clear();
    stats_.cancelled += n;
    if (n > 0)
        COTERIE_COUNT_N("net.fetches_cancelled", n);
    return n;
}

} // namespace coterie::net
