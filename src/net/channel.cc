#include "net/channel.hh"

#include <algorithm>
#include <utility>
#include <vector>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "support/logging.hh"

namespace coterie::net {

SharedChannel::SharedChannel(sim::EventQueue &queue, ChannelParams params,
                             const sim::FaultPlan *faults)
    : queue_(queue), params_(params), faults_(faults), rng_(params.seed)
{
    COTERIE_ASSERT(params.goodputMbps > 0.0, "channel needs capacity");
}

double
SharedChannel::rateBitsPerMsAt(sim::TimeMs t) const
{
    if (transfers_.empty())
        return 0.0;
    const auto n = static_cast<double>(transfers_.size());
    // Fair share with a mild MAC contention penalty per extra station.
    const double efficiency =
        std::max(0.3, 1.0 - params_.contentionPenalty * (n - 1.0));
    double capacity_bits_per_ms = params_.goodputMbps * 1e3;
    if (faults_)
        capacity_bits_per_ms *= faults_->bandwidthFactor(t);
    return capacity_bits_per_ms * efficiency / n;
}

void
SharedChannel::serveUntil(sim::TimeMs now)
{
    // The rate is piecewise constant: it only steps at fault-episode
    // boundaries (membership changes always re-enter through
    // progressAndReschedule, which calls serveUntil first). Integrate
    // each constant segment separately so scripted degradation is
    // exact.
    sim::TimeMs t = lastUpdate_;
    while (t < now && !transfers_.empty()) {
        sim::TimeMs seg_end = now;
        if (faults_)
            seg_end = std::min(seg_end, faults_->nextBoundaryAfter(t));
        const double rate = rateBitsPerMsAt(t);
        if (rate > 0.0) {
            const double served = rate * (seg_end - t);
            for (auto &[id, tr] : transfers_)
                tr.remainingBits =
                    std::max(0.0, tr.remainingBits - served);
        }
        t = seg_end;
    }
    lastUpdate_ = now;
}

void
SharedChannel::progressAndReschedule()
{
    const sim::TimeMs now = queue_.now();
    serveUntil(now);

    // Collect completions (possibly several at identical finish time)
    // before firing any callback: a `done` may re-enter the channel
    // (start a transfer, cancel another) and must not invalidate this
    // scan.
    std::vector<TransferDone> finished;
    for (auto it = transfers_.begin(); it != transfers_.end();) {
        if (it->second.remainingBits <= 1e-3) {
            bytesDelivered_ += it->second.totalBytes;
            COTERIE_COUNT("net.frames_delivered");
            COTERIE_COUNT_N("net.bytes_delivered",
                            it->second.totalBytes);
            // Simulated request-to-delivery latency (includes the
            // pre-transfer latency floor and any contention slowdown).
            COTERIE_OBSERVE("net.transfer_sim_ms",
                            now - it->second.requestedAt);
            it->second.trace.hop(obs::Hop::Transfer,
                                 it->second.requestedAt, now);
            if (it->second.done)
                finished.push_back(std::move(it->second.done));
            it = transfers_.erase(it);
        } else {
            ++it;
        }
    }

    // Fire the collected completions. Each may mutate membership; any
    // nested progressAndReschedule bumps the epoch, and the final
    // reschedule below recomputes from the post-callback state.
    for (TransferDone &done : finished)
        done(now);

    if (transfers_.empty())
        return;

    // Schedule an event at the earliest projected finish, capped at
    // the next fault boundary (where the service rate steps).
    double min_remaining = std::numeric_limits<double>::infinity();
    for (const auto &[id, tr] : transfers_)
        min_remaining = std::min(min_remaining, tr.remainingBits);
    const double rate = rateBitsPerMsAt(now);
    // Floor the reschedule step: double rounding can leave a transfer
    // with sub-epsilon residual bits, and a zero-width event would
    // livelock the queue at a fixed timestamp.
    double eta = rate > 0.0
                     ? std::max(min_remaining / rate, 1e-6)
                     : std::numeric_limits<double>::infinity();
    if (faults_) {
        const sim::TimeMs boundary = faults_->nextBoundaryAfter(now);
        if (boundary < std::numeric_limits<double>::infinity())
            eta = std::min(eta, std::max(boundary - now, 1e-6));
    }
    if (eta == std::numeric_limits<double>::infinity())
        return; // outage with no scripted end: deadlines/cancel only
    const std::uint64_t epoch = ++epoch_;
    queue_.scheduleIn(eta, [this, epoch] {
        if (epoch == epoch_)
            progressAndReschedule();
    });
}

TransferId
SharedChannel::startTransfer(std::uint64_t bytes, TransferDone done)
{
    return startTransfer(bytes, std::move(done), TransferOptions{});
}

TransferId
SharedChannel::startTransfer(std::uint64_t bytes, TransferDone done,
                             TransferOptions options)
{
    const sim::TimeMs requestedAt = queue_.now();
    // The latency floor (plus optional MAC jitter, loss episodes, and
    // scripted latency spikes) is modeled by delaying the transfer
    // start; a loss episode also re-serves part of the payload.
    double delay = params_.baseLatencyMs;
    double effective_bytes = static_cast<double>(bytes);
    if (params_.jitterMeanMs > 0.0)
        delay += rng_.exponential(1.0 / params_.jitterMeanMs);
    const double loss_probability =
        std::min(1.0, params_.lossProbability +
                          (faults_ ? faults_->extraLossProbability(
                                         requestedAt)
                                   : 0.0));
    if (loss_probability > 0.0 && rng_.chance(loss_probability)) {
        delay += params_.retransmitPenaltyMs;
        effective_bytes *= 1.0 + params_.retransmitFraction;
        COTERIE_COUNT("net.loss_episodes");
    }
    if (faults_)
        delay += faults_->extraLatencyMs(requestedAt);
    COTERIE_COUNT("net.transfers");
    COTERIE_COUNT_N("net.bytes_requested", bytes);

    const TransferId id = ++nextId_;
    Transfer tr;
    tr.remainingBits = effective_bytes * 8.0;
    tr.totalBytes = bytes;
    tr.requestedAt = requestedAt;
    if (options.deadlineMs > 0.0) {
        tr.deadlineAt = requestedAt + options.deadlineMs;
        tr.onExpired = std::move(options.onExpired);
    }
    tr.trace = options.trace;
    tr.done = std::move(done);
    pending_.emplace(id, std::move(tr));

    // The start event revalidates against pending_ — a cancel() or
    // deadline expiry during the latency phase must make it a no-op.
    queue_.scheduleIn(delay, // lint:allow(epoch-guarded-schedule)
                      [this, id] { beginPending(id); });
    if (options.deadlineMs > 0.0) {
        // cancelIfExpired revalidates id membership + deadline itself.
        queue_.scheduleIn(options.deadlineMs, // lint:allow(epoch-guarded-schedule)
                          [this, id] { cancelIfExpired(id); });
    }
    return id;
}

void
SharedChannel::beginPending(TransferId id)
{
    const auto it = pending_.find(id);
    if (it == pending_.end())
        return; // cancelled or expired during the latency phase
    Transfer tr = std::move(it->second);
    pending_.erase(it);
    progressAndReschedule(); // bring existing transfers up to now
    transfers_.emplace(id, std::move(tr));
    obs::TraceRecorder::global().counter(
        "net.active_transfers",
        static_cast<double>(transfers_.size()));
    progressAndReschedule(); // recompute with the new membership
}

void
SharedChannel::cancelIfExpired(TransferId id)
{
    const sim::TimeMs now = queue_.now();
    TransferDone onExpired;
    obs::FrameTraceContext trace;
    sim::TimeMs requestedAt = now;
    if (const auto pit = pending_.find(id); pit != pending_.end()) {
        if (now < pit->second.deadlineAt)
            return;
        onExpired = std::move(pit->second.onExpired);
        trace = pit->second.trace;
        requestedAt = pit->second.requestedAt;
        pending_.erase(pit);
    } else if (const auto tit = transfers_.find(id);
               tit != transfers_.end()) {
        if (now < tit->second.deadlineAt)
            return;
        onExpired = std::move(tit->second.onExpired);
        trace = tit->second.trace;
        requestedAt = tit->second.requestedAt;
        // Bring everyone up to now before the membership change, then
        // recompute: the dropped transfer's share is released at once.
        progressAndReschedule();
        // The catch-up above may have completed (and erased) this very
        // transfer at exactly the deadline; delivery wins the tie.
        const auto again = transfers_.find(id);
        if (again == transfers_.end())
            return;
        transfers_.erase(again);
        progressAndReschedule();
    } else {
        return; // already delivered or cancelled
    }
    ++expired_;
    COTERIE_COUNT("net.expired");
    // The wire time was spent even though nothing arrived: stamp it so
    // retries show one Transfer hop per attempt.
    trace.hop(obs::Hop::Transfer, requestedAt, now);
    if (onExpired)
        onExpired(now);
}

bool
SharedChannel::cancel(TransferId id)
{
    if (pending_.erase(id) > 0) {
        ++cancelled_;
        COTERIE_COUNT("net.cancelled");
        return true;
    }
    const auto it = transfers_.find(id);
    if (it == transfers_.end())
        return false;
    // Catch up before the membership change so the cancelled transfer
    // is charged exactly the service it consumed.
    progressAndReschedule();
    const auto again = transfers_.find(id);
    if (again == transfers_.end())
        return false; // completed at this very instant; not cancelled
    transfers_.erase(again);
    ++cancelled_;
    COTERIE_COUNT("net.cancelled");
    progressAndReschedule();
    return true;
}

double
SharedChannel::meanThroughputMbps() const
{
    const double elapsed = queue_.now();
    if (elapsed <= 0.0)
        return 0.0;
    return static_cast<double>(bytesDelivered_) * 8.0 / 1e3 / elapsed;
}

} // namespace coterie::net
