#include "tlp.hh"

#include <cstring>
#include <sstream>

#include "common/buffer_pool.hh"
#include "common/bytes_util.hh"

namespace ccai::pcie
{

namespace
{

/** Payloads at least this large are copied via the buffer pool. */
constexpr std::size_t kPooledPayloadBytes = 4096;

Bytes
copyPayload(const Bytes &src)
{
    if (src.size() < kPooledPayloadBytes)
        return src;
    Bytes out = BufferPool::global().acquire(src.size());
    std::memcpy(out.data(), src.data(), src.size());
    return out;
}

void
retirePayload(Bytes &&buf)
{
    if (buf.capacity() >= BufferPool::kMinPooledBytes)
        BufferPool::global().release(std::move(buf));
}

} // namespace

Tlp::Tlp(const Tlp &other)
    : fmt(other.fmt), type(other.type), requester(other.requester),
      completer(other.completer), tag(other.tag),
      address(other.address), lengthBytes(other.lengthBytes),
      cplStatus(other.cplStatus), msgCode(other.msgCode),
      data(copyPayload(other.data)), synthetic(other.synthetic),
      encrypted(other.encrypted), seqNo(other.seqNo),
      authTagId(other.authTagId), ackRequired(other.ackRequired),
      txChannel(other.txChannel), integrityTag(other.integrityTag)
{
}

Tlp &
Tlp::operator=(const Tlp &other)
{
    if (this != &other) {
        Tlp copy(other);
        *this = std::move(copy);
    }
    return *this;
}

Tlp::~Tlp()
{
    retirePayload(std::move(data));
}

std::string
Bdf::toString() const
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%02x:%02x.%x", bus, device,
                  function);
    return buf;
}

const char *
tlpAnomalyName(TlpAnomaly anomaly)
{
    switch (anomaly) {
      case TlpAnomaly::None:
        return "none";
      case TlpAnomaly::PayloadFmtMismatch:
        return "payload_fmt_mismatch";
      case TlpAnomaly::FmtForType:
        return "fmt_for_type";
      case TlpAnomaly::LengthZero:
        return "length_zero";
      case TlpAnomaly::LengthOverflow:
        return "length_overflow";
      case TlpAnomaly::LengthMismatch:
        return "length_mismatch";
      case TlpAnomaly::AddrWidthMismatch:
        return "addr_width_mismatch";
    }
    return "?";
}

TlpAnomaly
Tlp::headerAnomaly() const
{
    const bool fourDw =
        fmt == TlpFmt::FourDwNoData || fmt == TlpFmt::FourDwData;

    // fmt's data bit must agree with what is actually attached.
    if (!hasData() && !data.empty())
        return TlpAnomaly::PayloadFmtMismatch;
    if (hasData() && payloadBytes() == 0 &&
        type != TlpType::Completion) {
        return TlpAnomaly::PayloadFmtMismatch;
    }

    // Header format legal for the type. Completions and config
    // requests are 3-DW in this model; messages are always 4-DW.
    switch (type) {
      case TlpType::MemRead:
        if (hasData())
            return TlpAnomaly::FmtForType;
        break;
      case TlpType::MemWrite:
        if (!hasData())
            return TlpAnomaly::FmtForType;
        break;
      case TlpType::Completion:
      case TlpType::CfgRead:
      case TlpType::CfgWrite:
        if (fourDw)
            return TlpAnomaly::FmtForType;
        if (type == TlpType::CfgRead && hasData())
            return TlpAnomaly::FmtForType;
        if (type == TlpType::CfgWrite && !hasData())
            return TlpAnomaly::FmtForType;
        break;
      case TlpType::Message:
        if (!fourDw)
            return TlpAnomaly::FmtForType;
        break;
    }

    // Length sanity. Addressed requests must move at least one byte;
    // nothing may claim more than kMaxTlpLengthBytes (the classic
    // "length field wraps 1024 DW" probe scaled to this model); a
    // real payload must match its header length so a filter decision
    // made on the header also covers the bytes behind it.
    const bool addressed = type == TlpType::MemRead ||
                           type == TlpType::MemWrite ||
                           type == TlpType::CfgRead ||
                           type == TlpType::CfgWrite;
    if (addressed && lengthBytes == 0)
        return TlpAnomaly::LengthZero;
    if (lengthBytes > kMaxTlpLengthBytes ||
        data.size() > kMaxTlpLengthBytes) {
        return TlpAnomaly::LengthOverflow;
    }
    if (hasData() && !synthetic && !data.empty() &&
        lengthBytes != data.size()) {
        return TlpAnomaly::LengthMismatch;
    }

    // Address width must match the header size for memory requests
    // (messages and completions carry no address in this model).
    if (type == TlpType::MemRead || type == TlpType::MemWrite) {
        const bool needs64 = address > 0xffffffffull;
        if (needs64 && !fourDw)
            return TlpAnomaly::AddrWidthMismatch;
        if (!needs64 && fourDw)
            return TlpAnomaly::AddrWidthMismatch;
    }

    return TlpAnomaly::None;
}

const char *
tlpTypeName(TlpType type)
{
    switch (type) {
      case TlpType::MemRead:
        return "MRd";
      case TlpType::MemWrite:
        return "MWr";
      case TlpType::Completion:
        return "Cpl";
      case TlpType::CfgRead:
        return "CfgRd";
      case TlpType::CfgWrite:
        return "CfgWr";
      case TlpType::Message:
        return "Msg";
    }
    return "?";
}

Bytes
Tlp::serializeHeader() const
{
    Bytes out(kSerializedHeaderBytes);
    serializeHeader(out.data());
    return out;
}

void
Tlp::serializeHeader(std::uint8_t *out) const
{
    out[0] = static_cast<std::uint8_t>(fmt);
    out[1] = static_cast<std::uint8_t>(type);
    out[2] = static_cast<std::uint8_t>(requester.raw() >> 8);
    out[3] = static_cast<std::uint8_t>(requester.raw());
    out[4] = static_cast<std::uint8_t>(completer.raw() >> 8);
    out[5] = static_cast<std::uint8_t>(completer.raw());
    out[6] = tag;
    out[7] = static_cast<std::uint8_t>(cplStatus);
    storeBe64(out + 8, address);
    storeBe32(out + 16, lengthBytes);
    storeBe64(out + 20, seqNo);
    out[28] = static_cast<std::uint8_t>(msgCode);
    out[29] = ackRequired ? 1 : 0;
    out[30] = static_cast<std::uint8_t>(txChannel >> 8);
    out[31] = static_cast<std::uint8_t>(txChannel);
}

std::string
Tlp::toString() const
{
    std::ostringstream os;
    os << tlpTypeName(type) << " req=" << requester.toString()
       << " cpl=" << completer.toString() << " tag=" << int(tag)
       << " addr=0x" << std::hex << address << std::dec << " len="
       << lengthBytes;
    if (encrypted)
        os << " [enc]";
    if (synthetic)
        os << " [syn]";
    return os.str();
}

Tlp
Tlp::makeMemRead(Bdf requester, Addr addr, std::uint32_t length,
                 std::uint8_t tag)
{
    Tlp tlp;
    tlp.fmt = addr > 0xffffffffull ? TlpFmt::FourDwNoData
                                   : TlpFmt::ThreeDwNoData;
    tlp.type = TlpType::MemRead;
    tlp.requester = requester;
    tlp.address = addr;
    tlp.lengthBytes = length;
    tlp.tag = tag;
    return tlp;
}

Tlp
Tlp::makeMemWrite(Bdf requester, Addr addr, Bytes payload)
{
    Tlp tlp;
    tlp.fmt = addr > 0xffffffffull ? TlpFmt::FourDwData
                                   : TlpFmt::ThreeDwData;
    tlp.type = TlpType::MemWrite;
    tlp.requester = requester;
    tlp.address = addr;
    tlp.lengthBytes = static_cast<std::uint32_t>(payload.size());
    tlp.data = std::move(payload);
    return tlp;
}

Tlp
Tlp::makeMemWriteSynthetic(Bdf requester, Addr addr,
                           std::uint32_t length)
{
    Tlp tlp;
    tlp.fmt = addr > 0xffffffffull ? TlpFmt::FourDwData
                                   : TlpFmt::ThreeDwData;
    tlp.type = TlpType::MemWrite;
    tlp.requester = requester;
    tlp.address = addr;
    tlp.lengthBytes = length;
    tlp.synthetic = true;
    return tlp;
}

Tlp
Tlp::makeCompletion(Bdf completer, Bdf requester, std::uint8_t tag,
                    Bytes payload, CplStatus status)
{
    Tlp tlp;
    tlp.fmt = payload.empty() ? TlpFmt::ThreeDwNoData
                              : TlpFmt::ThreeDwData;
    tlp.type = TlpType::Completion;
    tlp.completer = completer;
    tlp.requester = requester;
    tlp.tag = tag;
    tlp.cplStatus = status;
    tlp.lengthBytes = static_cast<std::uint32_t>(payload.size());
    tlp.data = std::move(payload);
    return tlp;
}

Tlp
Tlp::makeCompletionSynthetic(Bdf completer, Bdf requester,
                             std::uint8_t tag, std::uint32_t length)
{
    Tlp tlp;
    tlp.fmt = TlpFmt::ThreeDwData;
    tlp.type = TlpType::Completion;
    tlp.completer = completer;
    tlp.requester = requester;
    tlp.tag = tag;
    tlp.lengthBytes = length;
    tlp.synthetic = true;
    return tlp;
}

Tlp
Tlp::makeMessage(Bdf requester, MsgCode code)
{
    Tlp tlp;
    tlp.fmt = TlpFmt::FourDwNoData;
    tlp.type = TlpType::Message;
    tlp.requester = requester;
    tlp.msgCode = code;
    return tlp;
}

Tlp
Tlp::makeVendorMessage(Bdf requester, Bytes payload)
{
    Tlp tlp;
    tlp.fmt = TlpFmt::FourDwData;
    tlp.type = TlpType::Message;
    tlp.requester = requester;
    tlp.completer = wellknown::kXpu; // ID-routed to the device
    tlp.msgCode = MsgCode::VendorDefined;
    tlp.lengthBytes = static_cast<std::uint32_t>(payload.size());
    tlp.data = std::move(payload);
    return tlp;
}

Tlp
Tlp::makeCfgRead(Bdf requester, Bdf target, Addr offset,
                 std::uint8_t tag)
{
    Tlp tlp;
    tlp.fmt = TlpFmt::ThreeDwNoData;
    tlp.type = TlpType::CfgRead;
    tlp.requester = requester;
    tlp.completer = target;
    tlp.address = offset;
    tlp.lengthBytes = 4;
    tlp.tag = tag;
    return tlp;
}

Tlp
Tlp::makeCfgWrite(Bdf requester, Bdf target, Addr offset, Bytes payload)
{
    Tlp tlp;
    tlp.fmt = TlpFmt::ThreeDwData;
    tlp.type = TlpType::CfgWrite;
    tlp.requester = requester;
    tlp.completer = target;
    tlp.address = offset;
    tlp.lengthBytes = static_cast<std::uint32_t>(payload.size());
    tlp.data = std::move(payload);
    return tlp;
}

} // namespace ccai::pcie
