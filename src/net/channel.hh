/**
 * @file
 * Shared wireless channel model (802.11ac WLAN).
 *
 * The paper's scaling bottleneck is the shared downlink: with N players
 * the per-frame transfer latency grows ~N-fold (Table 1). We model the
 * channel as a processor-sharing fluid link: concurrent transfers split
 * the measured TCP goodput (500 Mbps in the paper's testbed) equally,
 * plus a fixed per-transfer latency floor (TCP/WiFi RTT).
 *
 * Chaos hooks: an optional `sim::FaultPlan` makes the link time-varying
 * — loss bursts raise the retransmission-episode probability, latency
 * spikes stretch the pre-transfer floor, bandwidth collapses scale the
 * goodput, and outages freeze service entirely. Progress is integrated
 * piecewise between fault boundaries, so scripted degradation is exact
 * and deterministic. Transfers are addressable (`TransferId`) and can
 * be cancelled mid-flight or given a hard per-transfer deadline; both
 * release the cancelled transfer's share of the link immediately (the
 * TCP-reset analogue the resilience layer relies on). A null or empty
 * plan and default options reproduce the pre-chaos channel bit for
 * bit.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>

#include "obs/frame_trace.hh"
#include "sim/event_queue.hh"
#include "sim/faults.hh"
#include "support/rng.hh"

namespace coterie::net {

/** Completion callback for a transfer. */
using TransferDone = std::function<void(sim::TimeMs completedAt)>;

/** Handle for an issued transfer; 0 is never a valid id. */
using TransferId = std::uint64_t;
inline constexpr TransferId kInvalidTransfer = 0;

/** Per-transfer delivery constraints (all optional). */
struct TransferOptions
{
    /**
     * Hard deadline measured from the startTransfer call (ms); if the
     * payload has not fully arrived by then the transfer is dropped,
     * its link share is released, and @p onExpired fires instead of
     * the completion callback. <= 0 disables.
     */
    double deadlineMs = 0.0;
    /** Fired (at the deadline) when the transfer expires. */
    TransferDone onExpired;
    /** Causal trace identity travelling with the payload; a Transfer
     *  hop is stamped at delivery (or at expiry). Inert by default. */
    obs::FrameTraceContext trace;
};

/** Channel configuration. */
struct ChannelParams
{
    double goodputMbps = 500.0;  ///< measured TCP throughput (iperf)
    double baseLatencyMs = 1.2;  ///< request + ACK RTT floor
    /** MAC efficiency loss per extra concurrent station (contention
     *  overhead beyond pure fair sharing), e.g. 0.03 = 3% per extra.
     *  Efficiency never drops below the 0.3 floor. */
    double contentionPenalty = 0.03;
    /**
     * Random per-transfer extra latency (ms, exponential mean); models
     * WiFi MAC backoff jitter. 0 disables.
     */
    double jitterMeanMs = 0.0;
    /**
     * Probability that a transfer suffers a TCP loss/retransmission
     * episode, which adds retransmitPenaltyMs and re-serves a fraction
     * of the payload. 0 disables. A FaultPlan's loss bursts add to
     * this per transfer.
     */
    double lossProbability = 0.0;
    double retransmitPenaltyMs = 8.0;
    double retransmitFraction = 0.1;
    /** Seed for the jitter/loss draws. */
    std::uint64_t seed = 1234;
};

/**
 * Processor-sharing shared link driven by an EventQueue. Start a
 * transfer with startTransfer(); all in-flight transfers progress at
 * capacity / nActive, recomputed whenever membership changes or a
 * scripted fault boundary passes. Each session owns its channel; in a
 * fleet the channel runs on its session's lane queue, so it never
 * couples two lanes.
 */
class SharedChannel
{
  public:
    SharedChannel(sim::EventQueue &queue, ChannelParams params = {},
                  const sim::FaultPlan *faults = nullptr);

    /** Begin transferring @p bytes; @p done fires on completion. */
    TransferId startTransfer(std::uint64_t bytes, TransferDone done);

    /** As above with per-transfer options (deadline, expiry). */
    TransferId startTransfer(std::uint64_t bytes, TransferDone done,
                             TransferOptions options);

    /**
     * Abort a pending or in-flight transfer. Its callbacks never fire
     * and its link share is released at once. Returns false when the
     * id is unknown (already delivered, expired, or cancelled).
     */
    bool cancel(TransferId id);

    /** Number of in-flight transfers (excludes latency-phase starts). */
    std::size_t active() const { return transfers_.size(); }

    /** Transfers still in their pre-transfer latency phase. */
    std::size_t pendingStarts() const { return pending_.size(); }

    /** Total bytes delivered since construction. */
    std::uint64_t bytesDelivered() const { return bytesDelivered_; }

    /** Transfers dropped by cancel() / a missed deadline. */
    std::uint64_t cancelledCount() const { return cancelled_; }
    std::uint64_t expiredCount() const { return expired_; }

    /** Average utilised throughput over the simulation so far (Mbps). */
    double meanThroughputMbps() const;

    const ChannelParams &params() const { return params_; }
    const sim::FaultPlan *faults() const { return faults_; }

  private:
    struct Transfer
    {
        double remainingBits = 0.0;
        std::uint64_t totalBytes = 0;
        sim::TimeMs requestedAt = 0.0; ///< sim time startTransfer ran
        sim::TimeMs deadlineAt =
            std::numeric_limits<double>::infinity();
        TransferDone done;
        TransferDone onExpired;
        obs::FrameTraceContext trace;
    };

    /** Fault-scaled per-transfer service rate (bits/ms) at time @p t
     *  under the current membership. */
    double rateBitsPerMsAt(sim::TimeMs t) const;

    /** Integrate service piecewise over [lastUpdate_, now] — segments
     *  split at fault boundaries, where the rate steps. */
    void serveUntil(sim::TimeMs now);

    /** Advance all transfers to now, fire completions (after the
     *  membership scan — callbacks may re-enter), then reschedule. */
    void progressAndReschedule();

    /** Move a latency-phase transfer onto the wire (start event). */
    void beginPending(TransferId id);

    /** Deadline event: drop @p id if it is late, firing onExpired. */
    void cancelIfExpired(TransferId id);

    sim::EventQueue &queue_;
    ChannelParams params_;
    const sim::FaultPlan *faults_ = nullptr;
    std::map<TransferId, Transfer> transfers_; ///< on the wire
    std::map<TransferId, Transfer> pending_;   ///< latency phase
    TransferId nextId_ = 0;
    std::uint64_t epoch_ = 0; ///< invalidates stale finish events
    sim::TimeMs lastUpdate_ = 0.0;
    std::uint64_t bytesDelivered_ = 0;
    std::uint64_t cancelled_ = 0;
    std::uint64_t expired_ = 0;
    Rng rng_;
};

} // namespace coterie::net
