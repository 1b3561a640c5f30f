/**
 * @file
 * Reliable-transport support types for the secure path.
 *
 * The fabric model can now lose, corrupt, duplicate and reorder TLPs
 * (see FaultInjector), so the protected paths carry an end-to-end
 * ARQ: senders mark TLPs ackRequired, receivers acknowledge in-order
 * sequence numbers per (tenant, channel), and NAKs trigger go-back-N
 * retransmission. This header holds the one implementation every
 * endpoint shares: the retry policy knobs, the TransportAck codec,
 * the go-back-N sender and in-order receiver, and the non-posted
 * read deadline.
 */

#ifndef CCAI_PCIE_TRANSPORT_HH
#define CCAI_PCIE_TRANSPORT_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>

#include "common/types.hh"
#include "pcie/tlp.hh"
#include "sim/sim_object.hh"

namespace ccai::pcie
{

/**
 * Retry/timeout policy for the secure-path ARQ loops (Adaptor
 * doorbell writes, RootComplex reads, PCIe-SC sensitive re-reads,
 * D2H chunk re-requests). Timeouts back off exponentially:
 * timeout * backoff^attempt, capped by maxRetries.
 */
struct RetryConfig
{
    /** Master switch; disabled reproduces the lossless-fabric legacy
     * behaviour bit-for-bit (no acks on the wire, no timers). The
     * raw-object default is off so unit fixtures without an ack peer
     * keep working; Platform turns it on for the full topology. */
    bool enabled = false;

    /**
     * Ack timeout for posted writes. Must exceed the worst-case
     * queueing on a loaded link: at Gen4 x16 (~31 GB/s) a 200 us
     * budget covers ~6 MB of queued traffic ahead of the ack.
     */
    Tick ackTimeout = 200 * kTicksPerUs;

    /** Completion timeout for non-posted reads. */
    Tick readTimeout = 500 * kTicksPerUs;

    /** Multiplier applied to the timeout per retry attempt. */
    double backoff = 2.0;

    /** Attempts before a transfer is declared fatal. */
    int maxRetries = 12;

    /** Re-issues of one non-posted read before it is declared fatal
     * (root-complex MMIO reads, PCIe-SC sensitive reads, Adaptor
     * record re-fetches and D2H chunk re-requests). */
    int maxReadRetries = 8;

    /**
     * Minimum spacing between go-back-N retransmission rounds on one
     * channel. Repeated NAKs for the same gap (every out-of-order
     * packet behind one loss elicits a NAK) collapse into one round.
     */
    Tick retransmitGap = 10 * kTicksPerUs;

    /** Timeout for attempt @p n (0-based), with exponential backoff. */
    Tick
    timeoutFor(Tick base, int attempt) const
    {
        double scaled = double(base);
        for (int i = 0; i < attempt; ++i)
            scaled *= backoff;
        return Tick(scaled);
    }

    /** The full-topology (Platform) default: retries on. */
    static RetryConfig
    enabledDefaults()
    {
        RetryConfig r;
        r.enabled = true;
        return r;
    }
};

/**
 * Payload of a MsgCode::TransportAck message. Acks flow opposite to
 * the data they acknowledge and are themselves unprotected (loss of
 * an ack is healed by the sender's timeout, duplication by the
 * receiver's dup-suppression).
 *
 *  - ACK(seq): every TLP on the channel with seqNo <= seq was
 *    accepted; the sender drops them from its unacked window.
 *  - NAK(seq): the receiver is missing seq; the sender retransmits
 *    the window from seq (go-back-N).
 */
struct TransportAck
{
    bool nak = false;
    std::uint16_t channel = 0; ///< sender-chosen stream id
    std::uint64_t seq = 0;
};

/** Encode an ack payload (checksummed; corrupt acks are dropped). */
Bytes encodeTransportAck(const TransportAck &ack);

/** Decode; nullopt when the payload is malformed or checksum fails. */
std::optional<TransportAck> decodeTransportAck(const Bytes &payload);

/** The TransportAck message @p from sends back to the sender @p to. */
TlpPtr makeTransportAck(Bdf from, Bdf to, const TransportAck &ack);

/**
 * Go-back-N sender of one ARQ channel. The owner transmits the first
 * copy of each TLP itself (so every call site keeps its order of
 * transmit vs timer arm); Transmit resends. @p retry is read live.
 * Trace instants go on the owner's track.
 */
class GbnSender
{
  public:
    using Transmit = std::function<void(const TlpPtr &)>;

    /** Handles into the owner's stat group, under the shared names. */
    struct Counters
    {
        explicit Counters(obs::MetricGroup &g);

        obs::CounterHandle retransmits;        ///< NAK go-back resends
        obs::CounterHandle timeoutRetransmits; ///< ack timer expiries
        obs::CounterHandle recovered; ///< acked after a resend
        obs::CounterHandle fatal;     ///< abandoned at maxRetries
    };

    GbnSender(sim::SimObject &owner, const RetryConfig &retry,
              std::uint16_t channel, const Counters &counters,
              Transmit transmit);

    /** Next sequence number, plus the ARQ header fields when retries
     * are on. The A3 MAC covers them: sign after stamping. */
    void stamp(Tlp &tlp);
    /** Window a stamped TLP (retries on); arms the timer if idle. */
    void send(const TlpPtr &tlp);
    /** ACK: pop the covered prefix. NAK: resend from its seq, at
     * most once per retransmitGap. */
    void onAck(const TransportAck &ack);
    /** Drop the window and disarm the timer; the sequence goes on. */
    void clear();
    /** clear() and restart the sequence at 1 (a fresh session). */
    void
    restart()
    {
        clear();
        nextSeq_ = 1;
        resync_ = false;
    }

    std::size_t unacked() const { return window_.size(); }

  private:
    void onTimeout();

    sim::SimObject &owner_;
    const RetryConfig &retry_;
    std::uint16_t channel_;
    Counters counters_;
    Transmit transmit_;

    std::uint64_t nextSeq_ = 1;
    std::deque<TlpPtr> window_;
    int attempts_ = 0;    ///< consecutive ack timeouts
    bool dirty_ = false;  ///< a resend happened since the last drain
    bool resync_ = false; ///< mark the next stamp (window abandoned)
    Tick lastGoBack_ = 0; ///< 0: never
    sim::EventFunctionWrapper timer_;
    obs::TrackId track_ = obs::kNoTrack;
};

/**
 * In-order receive gate for ackRequired TLPs, one expected sequence
 * number per channel; replies go out through the owner's SendAck.
 */
class GbnReceiver
{
  public:
    enum class Verdict
    {
        Deliver,   ///< next in order (or unsequenced): ACKed
        Duplicate, ///< already delivered: re-ACKed, drop it
        Gap,       ///< an earlier TLP is missing: NAKed, drop it
        Rejected,  ///< next in order, refused by accept: NAKed
    };

    using SendAck = std::function<void(const TransportAck &)>;
    using Accept = std::function<bool()>;

    /** Handles into the owner's stat group, under the shared names. */
    struct Counters
    {
        explicit Counters(obs::MetricGroup &g);

        obs::CounterHandle accepted;
        obs::CounterHandle duplicates;
        obs::CounterHandle outOfOrder;
        obs::CounterHandle acksSent;
        obs::CounterHandle naksSent;
    };

    GbnReceiver(const RetryConfig &retry, const Counters &counters,
                SendAck sendAck);

    /** @p accept, when set, is asked before a next-in-order TLP is
     * delivered; a refusal NAKs it without advancing. A TLP marked
     * arqResync and above the last delivered seqNo counts as next in
     * order: its sender abandoned the ones in between. */
    Verdict admit(const Tlp &tlp, const Accept &accept = nullptr);
    /** Restart every channel (or one) at sequence number 1. */
    void clear() { rxSeq_.clear(); }
    void clear(std::uint16_t channel) { rxSeq_.erase(channel); }

  private:
    void reply(std::uint16_t channel, std::uint64_t seq, bool nak);

    const RetryConfig &retry_;
    Counters counters_;
    SendAck sendAck_;
    std::map<std::uint16_t, std::uint64_t> rxSeq_; ///< last delivered
};

/**
 * Completion deadline of one non-posted read. The owner issues the
 * request, then start() arms readTimeout; each expiry re-issues via
 * Reissue with backoff, and after maxReadRetries Exhausted decides
 * how the requester is unblocked. Destruction disarms the timer.
 */
class ReadRetry
{
  public:
    using Reissue = std::function<void(const TlpPtr &)>;
    /** May destroy this ReadRetry. */
    using Exhausted = std::function<void(TlpPtr request)>;

    struct Counters
    {
        obs::CounterHandle retries;
        obs::CounterHandle fatal;
    };

    ReadRetry(sim::SimObject &owner, const RetryConfig &retry,
              const Counters &counters, Reissue reissue,
              Exhausted exhausted);

    void start(TlpPtr request);
    /** Re-issue now if a request is tracked and budget remains. */
    bool retry();
    /** Re-issues so far: nonzero means a completion recovered. */
    int attempts() const { return attempts_; }

  private:
    void onTimeout();

    sim::SimObject &owner_;
    const RetryConfig &retry_;
    Counters counters_;
    Reissue reissue_;
    Exhausted exhausted_;

    TlpPtr request_;
    int attempts_ = 0;
    sim::EventFunctionWrapper timer_;
    obs::TrackId track_ = obs::kNoTrack;
};

} // namespace ccai::pcie

#endif // CCAI_PCIE_TRANSPORT_HH
