/**
 * @file
 * Shared crypto-pipeline timing parameters and the sign-based
 * integrity engine for A3 packets (paper §4.2/§7.2). These are
 * backend wire types: the ccAI interposer instantiates them inside
 * the PCIe-SC, and the Adaptor uses the same engine to sign
 * host-originated command traffic regardless of backend.
 */

#ifndef CCAI_BACKEND_INTEGRITY_HH
#define CCAI_BACKEND_INTEGRITY_HH

#include <map>

#include "common/types.hh"
#include "crypto/sha256.hh"
#include "pcie/tlp.hh"

namespace ccai::backend
{

/** Timing parameters of the FPGA crypto pipelines. */
struct EngineTiming
{
    /** AES-GCM pipeline throughput: the engine is sized to keep up
     * with the PCIe Gen4 x16 line rate (paper §7.2). */
    double gcmBytesPerSec = 32.0e9;
    /** Fixed per-chunk setup latency (key/IV schedule load). */
    Tick gcmSetupLatency = 250 * kTicksPerNs;
    /** Tag check latency per chunk. */
    Tick tagCheckLatency = 120 * kTicksPerNs;
    /** SHA/HMAC integrity pipeline throughput. */
    double shaBytesPerSec = 22.0e9;
    /** Per-packet integrity verify constant. */
    Tick sigCheckLatency = 90 * kTicksPerNs;
};

/**
 * Sign-based integrity engine for A3 packets: HMAC-SHA256 over
 * (header || payload) keyed with the session integrity key, truncated
 * to kMacBytes, plus a monotonic per-requester sequence check against
 * reordering/replay. The keyed hasher (pad midstates) is built once
 * per setKey().
 */
class SignIntegrityEngine
{
  public:
    explicit SignIntegrityEngine(const EngineTiming &timing = {})
        : timing_(timing)
    {}

    /** Truncated MAC length: fits a TLP prefix. */
    static constexpr size_t kMacBytes = 16;

    /** Install (or, on session re-establish, replace) the key. An
     * empty key leaves the engine unkeyed: every check fails. */
    void
    setKey(const Bytes &key)
    {
        keyed_ = !key.empty();
        hmac_ = crypto::HmacSha256(key);
    }
    bool hasKey() const { return keyed_; }

    /** Compute the MAC an A3 packet must carry. */
    Bytes computeMac(const pcie::Tlp &tlp) const;

    /**
     * Verify an A3 packet: MAC matches and sequence number is
     * strictly increasing for its requester.
     */
    bool verify(const pcie::Tlp &tlp);

    /**
     * MAC-only check, no sequence-state mutation. Used when the
     * transport ARQ owns sequencing (a retransmitted packet carries
     * a seqNo the strict monotonic check would wrongly reject).
     */
    bool verifyMac(const pcie::Tlp &tlp) const;

    /** Pipeline time to check one packet. */
    Tick verifyDelay(const pcie::Tlp &tlp) const;

    std::uint64_t failures() const { return failures_; }

  private:
    /** computeMac() into @p tag (kMacBytes), allocation-free. */
    void writeMac(const pcie::Tlp &tlp, std::uint8_t *tag) const;
    /** Tag check shared by verify() and verifyMac(). */
    bool macMatches(const pcie::Tlp &tlp) const;

    EngineTiming timing_;
    bool keyed_ = false;
    crypto::HmacSha256 hmac_;
    std::map<std::uint16_t, std::uint64_t> lastSeq_;
    std::uint64_t failures_ = 0;
};

} // namespace ccai::backend

#endif // CCAI_BACKEND_INTEGRITY_HH
