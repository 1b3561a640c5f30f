/**
 * @file
 * The PCIe Security Controller (paper §3/§4/§7.2): a hardware module
 * sitting between the host's PCIe port and the xPU. Every TLP in
 * either direction passes the Packet Filter and the matching Packet
 * Handler before being forwarded; the controller also exposes its
 * own MMIO BARs through which the TVM-side Adaptor configures
 * policies, registers transfer chunks, and collects result metadata.
 *
 * Multi-tenant operation (paper §9): the controller distinguishes
 * tenants by their PCIe requester IDs and keeps an isolated secure
 * channel per tenant — separate workload keys, A3 signing keys,
 * chunk-parameter tables, result-record queues, and bounce/metadata
 * windows. The first-established tenant (the owner) additionally
 * controls the packet policy.
 */

#ifndef CCAI_SC_PCIE_SC_HH
#define CCAI_SC_PCIE_SC_HH

#include <array>
#include <deque>
#include <memory>
#include <optional>
#include <set>

#include "obs/trace.hh"
#include "pcie/link.hh"
#include "pcie/memory_map.hh"
#include "pcie/transport.hh"
#include "sc/control_panels.hh"
#include "sc/engines.hh"
#include "sc/env_guard.hh"
#include "sc/packet_filter.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "trust/key_manager.hh"

namespace ccai::sc
{

/** Configuration knobs of the controller. */
struct PcieScConfig
{
    FilterTiming filterTiming;
    EngineTiming engineTiming;
    /** Store-and-forward latency for pass-through packets. */
    Tick forwardLatency = 150 * kTicksPerNs;
    /**
     * When true the controller batches D2H chunk records and DMAs
     * them into the host metadata buffer (§5 I/O-read optimization);
     * when false the Adaptor must fetch each record via MMIO reads.
     */
    bool metadataBatching = true;
    /** Records accumulated before an automatic batch flush. */
    std::uint32_t metaBatchSize = 32;
    /**
     * IV-counter value that triggers a key-epoch rotation (the
     * H100-style IV-exhaustion mitigation, §6). The default leaves
     * ample space; tests shrink it to exercise rotation live.
     */
    std::uint32_t ivExhaustionLimit = 0xffff0000u;
    /**
     * End-to-end retry policy shared with the Adaptor and the root
     * complex: governs the downstream receive gate (NAK/re-ack), the
     * upstream per-tenant ARQ channels, and the sensitive-read
     * re-request timers. Disabled -> the seed's lossless behaviour.
     */
    pcie::RetryConfig retry;
    /**
     * Wall-clock lanes the A2 data engines split one payload across
     * (segmented-GHASH parallel GCM; bit-identical tags at any
     * width). Purely a host-side execution knob: simulated engine
     * timing stays the line-rate EngineTiming model.
     */
    int dataEngineThreads = 1;
};

/**
 * The PCIe-SC device model.
 */
class PcieSc : public sim::SimObject, public pcie::PcieNode
{
  public:
    PcieSc(sim::System &sys, std::string name,
           const PcieScConfig &config = {});

    /** Attach the link towards the root/switch. */
    void connectUpstream(pcie::Link *up, pcie::PcieNode *upNeighbor);
    /** Attach the link towards the protected xPU. */
    void connectDownstream(pcie::Link *down,
                           pcie::PcieNode *downNeighbor);

    /**
     * Establish the owner tenant's confidential session (the
     * single-tenant configuration of the paper's prototype): the
     * default TVM requester with the full bounce and metadata
     * windows.
     */
    void establishSession(const Bytes &sessionSecret);

    /**
     * Establish an isolated session for one tenant (paper §9):
     * derive its workload keys, A3 integrity key, and — for the
     * first tenant only — the filter config key. @p d2hWindow
     * attributes device result writes to this tenant; @p metaWindow
     * is where its record batches are delivered.
     */
    void establishTenant(pcie::Bdf tenant, const Bytes &sessionSecret,
                         pcie::AddrRange d2hWindow,
                         pcie::AddrRange metaWindow);

    /** Install the boot-time packet policy. */
    void installPolicy(const RuleTables &tables);

    /**
     * Crash-recovery fault domain (§4.2 abnormal termination):
     * firmwareHang() wedges the controller — every subsequent TLP is
     * dropped on the floor, so dependent traffic times out instead
     * of erroring — until firmwareRestart() reboots the firmware.
     * Restart drops all in-flight transport state but keeps the
     * sessions map intact, so the recovery flow can still run the
     * uniform endTask() teardown (key destruction + EnvGuard scrub).
     */
    void firmwareHang();
    void firmwareRestart();
    bool firmwareHung() const { return hung_; }

    /** Tear down every session and scrub the xPU. */
    void endTask(bool device_supports_soft_reset);

    /**
     * Tear down one tenant's session; the device is scrubbed once
     * the last session ends.
     */
    void endTenant(pcie::Bdf tenant, bool device_supports_soft_reset);

    // PcieNode interface
    void receiveTlp(const pcie::TlpPtr &tlp, pcie::PcieNode *from)
        override;
    const std::string &nodeName() const override { return name(); }

    PacketFilter &filter() { return filter_; }
    EnvGuard &envGuard() { return envGuard_; }
    AuthTagManager &tagManager() { return tagMgr_; }
    sim::StatGroup &stats() { return stats_; }
    sim::StatGroup *statGroup() override { return &stats_; }
    const PcieScConfig &config() const { return config_; }
    void setConfig(const PcieScConfig &config) { config_ = config; }

    bool sessionEstablished() const { return !sessions_.empty(); }
    size_t tenantCount() const { return sessions_.size(); }
    /** Owner tenant's key manager (single-tenant convenience). */
    trust::WorkloadKeyManager *keyManager();
    /** A specific tenant's key manager (nullptr when absent). */
    trust::WorkloadKeyManager *keyManagerFor(pcie::Bdf tenant);
    /** Owner tenant's params manager (single-tenant convenience). */
    DecryptParamsManager &paramsManager();

    void reset() override;

  private:
    /** Encrypted D2H TLPs kept for chunk-retry replays per tenant. */
    static constexpr std::size_t kD2hReplayCap = 64;

    /** Per-tenant isolated secure channel (§9). */
    struct TenantSession
    {
        std::unique_ptr<trust::WorkloadKeyManager> keys;
        SignIntegrityEngine signer;
        DecryptParamsManager params;
        /**
         * Records not yet published into the metadata completion
         * ring: the accumulation buffer below metaBatchSize, plus
         * the overflow queue when the ring is full (backpressure).
         * With metadata batching off this is the whole record store,
         * served via per-record MMIO reads.
         */
        std::deque<ChunkRecord> d2hRecords;
        pcie::AddrRange d2hWindow{};
        pcie::AddrRange metaWindow{};
        /** Completion ring: absolute produced-record index. */
        std::uint64_t metaTail = 0;
        /** Absolute consumed index, posted via screg::kRingHead. */
        std::uint64_t metaHead = 0;
        std::uint64_t nextChunkId = 1;
        std::uint16_t bdfRaw = 0;
        /**
         * Pristine (pre-ARQ) encrypted copies of recent D2H writes,
         * replayed when the Adaptor re-requests a chunk whose
         * ciphertext was tampered with on the wire (kChunkRetry).
         */
        std::deque<std::pair<std::uint64_t, pcie::TlpPtr>> d2hReplay;

        explicit TenantSession(const EngineTiming &timing)
            : signer(timing)
        {}
    };

    /** Outstanding sensitive device read: where and whose. */
    struct PendingRead
    {
        PendingRead(PcieSc &sc, Addr addr, std::uint16_t tenant);

        Addr addr = 0;
        std::uint16_t tenant = 0;
        /** Re-request deadline (retry enabled); erasing the entry
         * disarms it, so completed reads leave nothing queued. */
        pcie::ReadRetry retry;
    };

    TenantSession *session(std::uint16_t tenantRaw);
    TenantSession *sessionCoveringH2d(Addr addr);
    TenantSession *sessionCoveringD2h(Addr addr);

    // Direction-specific entry points.
    void processUpstreamBound(const pcie::TlpPtr &tlp);   // xPU -> host
    void processDownstreamBound(const pcie::TlpPtr &tlp); // host -> xPU

    // SC-owned BAR handling.
    bool ownsAddress(Addr addr) const;
    void handleOwnMmio(const pcie::TlpPtr &tlp);
    void handleOwnMmioWrite(const pcie::TlpPtr &tlp);
    Bytes handleOwnMmioRead(const pcie::Tlp &req);
    void completeOwnRead(const pcie::TlpPtr &req, Bytes payload);

    // Packet Handlers.
    void handleA2Downstream(const pcie::TlpPtr &tlp);
    void handleA2Upstream(const pcie::TlpPtr &tlp);
    bool handleA3(const pcie::TlpPtr &tlp);
    void forward(const pcie::TlpPtr &tlp, bool upstream, Tick delay);

    // D2H record plumbing.
    void queueD2hRecord(TenantSession &tenant, const ChunkRecord &rec);
    void flushMetadataBatch(TenantSession &tenant);
    void handleChunkRetry(TenantSession &tenant, std::uint64_t chunkId);

    // End-to-end transport (retry/ARQ) plumbing.
    /** Stamp an upstream TLP onto a tenant channel and send it. */
    void sendUpstreamArq(std::uint16_t channel, const pcie::TlpPtr &tlp,
                         Tick delay);
    /** Give up on the sensitive read of @p tlp (its request or
     * completion): answer the device with a CompleterAbort. */
    void abortSensitiveRead(const pcie::Tlp &tlp, Tick delay);

    PcieScConfig config_;
    PacketFilter filter_;
    AesGcmShaEngine gcmEngine_;
    AuthTagManager tagMgr_;
    EnvGuard envGuard_;

    pcie::Link *up_ = nullptr;
    pcie::Link *down_ = nullptr;
    pcie::PcieNode *upNeighbor_ = nullptr;
    pcie::PcieNode *downNeighbor_ = nullptr;

    std::map<std::uint16_t, TenantSession> sessions_;
    std::uint16_t ownerTenant_ = 0;

    /** tag -> pending sensitive device read. */
    std::map<std::uint8_t, PendingRead> pendingSensitiveReads_;
    /**
     * Tags whose sensitive completion already went through the A2
     * decrypt path: a link-level duplicate of the still-encrypted
     * completion must be dropped here, or it could overtake the
     * decrypted copy and feed ciphertext to the device.
     */
    std::set<std::uint8_t> recentCompleted_;

    /** Upstream ARQ senders, keyed by tenant requester ID. */
    std::map<std::uint16_t, pcie::GbnSender> upSenders_;

    /** Per-direction egress FIFO points. */
    Tick upBusyUntil_ = 0;
    Tick downBusyUntil_ = 0;

    /** Firmware-hang fault: drop every TLP until restarted. */
    bool hung_ = false;
    /** Monotonic liveness beat served from screg::kHeartbeat. */
    std::uint64_t heartbeatBeats_ = 0;

    sim::StatGroup stats_;

    /**
     * Typed stat handles resolved once at construction so the
     * per-TLP paths never pay a name lookup (observability plane).
     */
    struct Handles
    {
        explicit Handles(sim::StatGroup &g);

        obs::CounterHandle sessionsEstablished;
        obs::CounterHandle tasksEnded;
        obs::CounterHandle transportAcksReceived;
        obs::CounterHandle downTlps;
        obs::CounterHandle upTlps;
        obs::CounterHandle a1Blocked;
        obs::CounterHandle a4Passthrough;
        obs::CounterHandle a2Downstream;
        obs::CounterHandle a2Upstream;
        obs::CounterHandle a2NoSession;
        obs::CounterHandle a2UnknownTenant;
        obs::CounterHandle a2Unregistered;
        obs::CounterHandle a2OrphanCompletions;
        obs::CounterHandle a2DupCompletions;
        obs::CounterHandle a2IntegrityFailures;
        obs::CounterHandle a2ReadRetries;
        obs::CounterHandle a3Checked;
        obs::CounterHandle a3IntegrityFailures;
        obs::CounterHandle a3EnvViolations;
        obs::CounterHandle faultsRecovered;
        obs::CounterHandle faultsFatal;
        obs::CounterHandle d2hRecords;
        obs::CounterHandle h2dRecords;
        obs::CounterHandle metaBatches;
        obs::CounterHandle transferNotifies;
        obs::CounterHandle ownMmioWrites;
        obs::CounterHandle ownMmioReads;
        obs::CounterHandle heartbeatReads;
        obs::CounterHandle firmwareHangs;
        obs::CounterHandle droppedWhileHung;
        obs::CounterHandle badConfigWrites;
        obs::CounterHandle badParamWrites;
        obs::CounterHandle unknownOwnWrites;
        obs::CounterHandle d2hReplays;
        obs::CounterHandle d2hReplayMisses;
        /**
         * Per-reason blocked-packet counters, indexed by
         * BlockReason and exported as blocked_<reason> (the
         * fuzzer's coverage signal and the EXPERIMENTS.md
         * blocked-by-reason table). blocked_none never fires; it
         * exists so the array indexes the enum directly.
         */
        std::array<obs::CounterHandle, kBlockReasonCount>
            blockedByReason;

        obs::HistogramHandle a2DownCryptTicks;
        obs::HistogramHandle a2UpCryptTicks;
        obs::HistogramHandle forwardQueueTicks;
    } s_;

    obs::Tracer *tracer_;
    obs::TrackId track_ = obs::kNoTrack;
    obs::TrackId traceTrack()
    {
        return tracer_->trackCached(track_, name());
    }

    /** Shared by the per-tenant senders, which are created lazily:
     * resolving here registers the counters up front. */
    pcie::GbnSender::Counters upCounters_;
    /** In-order gate for the Adaptors' downstream ARQ channels. */
    pcie::GbnReceiver rxDown_;
};

} // namespace ccai::sc

#endif // CCAI_SC_PCIE_SC_HH
