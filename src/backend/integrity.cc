#include "backend/integrity.hh"

#include <cstring>

#include "common/bytes_util.hh"

namespace ccai::backend
{

Bytes
SignIntegrityEngine::computeMac(const pcie::Tlp &tlp) const
{
    Bytes tag(kMacBytes);
    writeMac(tlp, tag.data());
    return tag;
}

void
SignIntegrityEngine::writeMac(const pcie::Tlp &tlp, std::uint8_t *tag) const
{
    std::uint8_t header[pcie::Tlp::kSerializedHeaderBytes];
    tlp.serializeHeader(header);
    crypto::Sha256 h = hmac_.begin();
    h.update(header, sizeof(header));
    if (!tlp.synthetic)
        h.update(tlp.data);
    std::uint8_t mac[crypto::kSha256DigestSize];
    hmac_.finish(h, mac);
    std::memcpy(tag, mac, kMacBytes);
}

bool
SignIntegrityEngine::macMatches(const pcie::Tlp &tlp) const
{
    std::uint8_t expected[kMacBytes];
    writeMac(tlp, expected);
    return constantTimeEqual(expected, kMacBytes, tlp.integrityTag);
}

bool
SignIntegrityEngine::verify(const pcie::Tlp &tlp)
{
    if (!keyed_) {
        ++failures_;
        return false;
    }
    // Synthetic bulk traffic is timing-only: the MAC bytes are not
    // materialized, so only sequence monotonicity is enforced.
    if (!tlp.synthetic && !macMatches(tlp)) {
        ++failures_;
        return false;
    }
    std::uint64_t &last = lastSeq_[tlp.requester.raw()];
    if (tlp.seqNo <= last) {
        ++failures_; // replayed or reordered packet
        return false;
    }
    last = tlp.seqNo;
    return true;
}

bool
SignIntegrityEngine::verifyMac(const pcie::Tlp &tlp) const
{
    if (!keyed_)
        return false;
    if (tlp.synthetic)
        return true; // timing-only traffic carries no MAC bytes
    return macMatches(tlp);
}

Tick
SignIntegrityEngine::verifyDelay(const pcie::Tlp &tlp) const
{
    // One pipeline fill plus throughput-bound MAC streaming.
    std::uint64_t bytes = tlp.hasData() ? tlp.payloadBytes() : 0;
    double seconds = bytes / timing_.shaBytesPerSec;
    return timing_.sigCheckLatency + secondsToTicks(seconds);
}

} // namespace ccai::backend
