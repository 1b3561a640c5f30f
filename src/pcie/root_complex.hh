/**
 * @file
 * Root complex: the host-side bridge between CPU/DRAM and the PCIe
 * fabric. It issues MMIO requests on behalf of software, services
 * device DMA against host memory, matches completions to outstanding
 * tags, and delivers MSI messages to registered handlers.
 */

#ifndef CCAI_PCIE_ROOT_COMPLEX_HH
#define CCAI_PCIE_ROOT_COMPLEX_HH

#include <array>
#include <functional>
#include <map>
#include <memory>

#include "obs/trace.hh"
#include "pcie/host_memory.hh"
#include "pcie/link.hh"
#include "pcie/transport.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace ccai::pcie
{

/** Callback invoked when a read completion arrives. */
using CplCallback = std::function<void(const TlpPtr &)>;

/** Callback invoked on MSI / message receipt. */
using MsgCallback = std::function<void(const TlpPtr &)>;

/** Callback invoked when a transport ACK/NAK arrives. */
using TransportAckCallback = std::function<void(const TransportAck &)>;

/**
 * The root complex owns host memory, a downstream link into the
 * fabric, and the tag space for host-initiated non-posted requests.
 *
 * An optional IOMMU check hook lets the TVM module veto device DMA
 * into protected host ranges (the privileged-software IOMMU the
 * paper's threat model relies on).
 */
class RootComplex : public sim::SimObject, public PcieNode
{
  public:
    using IommuCheck =
        std::function<bool(Bdf requester, Addr addr, std::uint64_t len)>;

    RootComplex(sim::System &sys, std::string name, HostMemory &mem);

    /** Attach the downstream link towards the fabric. */
    void connectDownstream(Link *down) { down_ = down; }

    /**
     * Issue a non-posted read (MMIO or config); @p cb runs when the
     * completion returns.
     */
    void sendRead(Tlp tlp, CplCallback cb);

    /** Issue a posted write. */
    void sendWrite(Tlp tlp);

    /** Issue a posted write without copying (ARQ retransmissions
     * resend the same TLP instance they hold in the window). */
    void sendWrite(const TlpPtr &tlp);

    /** Register the default MSI handler. */
    void setMsgHandler(MsgCallback cb) { msgHandler_ = std::move(cb); }

    /** True once a default MSI handler is installed. */
    bool hasDefaultMsgHandler() const { return bool(msgHandler_); }

    /**
     * Register a per-tenant MSI handler: messages whose completer
     * field carries @p routingId are steered to @p cb (multi-tenant
     * interrupt vectors); everything else hits the default handler.
     */
    void
    addMsgHandler(std::uint16_t routingId, MsgCallback cb)
    {
        msgHandlers_[routingId] = std::move(cb);
    }

    /** Install the IOMMU validation hook for inbound DMA. */
    void setIommuCheck(IommuCheck check) { iommu_ = std::move(check); }

    /**
     * Retry policy for non-posted reads and the inbound ARQ gate.
     * With retries enabled, an unanswered read is retransmitted on
     * the same tag with exponential backoff; after maxReadRetries
     * the callback receives a fabricated CompleterAbort completion
     * so callers never hang on a lossy fabric.
     */
    void setRetryConfig(const RetryConfig &config) { retry_ = config; }
    const RetryConfig &retryConfig() const { return retry_; }

    /**
     * Register the consumer of transport ACKs addressed to
     * @p routingId (the ARQ sender for that tenant, i.e. its
     * Adaptor). Dispatched before the MSI handlers so acks never
     * masquerade as interrupts.
     */
    void
    addTransportHandler(std::uint16_t routingId, TransportAckCallback cb)
    {
        transportHandlers_[routingId] = std::move(cb);
    }

    /**
     * Crash recovery: drop every outstanding non-posted request
     * (callbacks are NOT invoked — the dead session's reads must not
     * deliver fabricated aborts into a recovered Adaptor) and forget
     * the inbound ARQ sequence state, so re-established sessions
     * start a fresh conversation on every channel.
     */
    void abortTransport();

    // PcieNode interface: inbound traffic from the fabric
    void receiveTlp(const TlpPtr &tlp, PcieNode *from) override;
    const std::string &nodeName() const override { return name(); }

    sim::StatGroup &stats() { return stats_; }
    sim::StatGroup *statGroup() override { return &stats_; }
    HostMemory &memory() { return mem_; }

    void reset() override;

  private:
    /** One in-flight non-posted request. */
    struct OutstandingRead
    {
        OutstandingRead(RootComplex &rc, CplCallback cb);

        CplCallback cb;
        Tick issued = 0; ///< for the read-latency histogram
        ReadRetry retry; ///< completion deadline (retry enabled)
    };

    std::uint8_t allocTag();
    void handleInboundRequest(const TlpPtr &tlp);
    /** ReadRetry exhaustion: complete @p req with an abort. */
    void readExhausted(const Tlp &req);

    HostMemory &mem_;
    Link *down_ = nullptr;
    std::map<std::uint8_t, OutstandingRead> outstanding_;
    std::uint8_t nextTag_ = 0;
    MsgCallback msgHandler_;
    std::map<std::uint16_t, MsgCallback> msgHandlers_;
    std::map<std::uint16_t, TransportAckCallback> transportHandlers_;
    IommuCheck iommu_;
    RetryConfig retry_;
    sim::StatGroup stats_;

    /** Typed handles resolved once; no name lookup per TLP. */
    struct Handles
    {
        explicit Handles(sim::StatGroup &g);

        obs::CounterHandle readsSent;
        obs::CounterHandle writesSent;
        obs::CounterHandle completions;
        obs::CounterHandle orphanCompletions;
        obs::CounterHandle messages;
        obs::CounterHandle unsupported;
        obs::CounterHandle readRetries;
        obs::CounterHandle readRetryExhausted;
        obs::CounterHandle faultsRecovered;
        obs::CounterHandle faultsFatal;
        obs::CounterHandle iommuBlocked;
        obs::CounterHandle dmaWrites;
        obs::CounterHandle dmaReads;
        obs::CounterHandle transportAcksReceived;

        obs::HistogramHandle readLatencyTicks;
    } s_;

    obs::Tracer *tracer_;
    obs::TrackId track_ = obs::kNoTrack;
    obs::TrackId traceTrack()
    {
        return tracer_->trackCached(track_, name());
    }

    /** In-order gate for the SC's upstream ARQ channels. */
    GbnReceiver rx_;
};

} // namespace ccai::pcie

#endif // CCAI_PCIE_ROOT_COMPLEX_HH
