#include "transport.hh"

#include "common/bytes_util.hh"
#include "common/logging.hh"

namespace ccai::pcie
{

namespace
{

constexpr std::size_t kAckBytes = 14;

std::uint8_t
ackChecksum(const Bytes &buf)
{
    std::uint8_t x = 0xA5;
    for (std::size_t i = 0; i + 1 < kAckBytes; ++i)
        x ^= buf[i];
    return x;
}

} // namespace

Bytes
encodeTransportAck(const TransportAck &ack)
{
    Bytes out(kAckBytes, 0);
    out[0] = 'T';
    out[1] = 'A';
    out[2] = ack.nak ? 1 : 0;
    out[3] = static_cast<std::uint8_t>(ack.channel >> 8);
    out[4] = static_cast<std::uint8_t>(ack.channel);
    storeBe64(out.data() + 5, ack.seq);
    out[kAckBytes - 1] = ackChecksum(out);
    return out;
}

std::optional<TransportAck>
decodeTransportAck(const Bytes &payload)
{
    if (payload.size() != kAckBytes)
        return std::nullopt;
    if (payload[0] != 'T' || payload[1] != 'A')
        return std::nullopt;
    if (payload[kAckBytes - 1] != ackChecksum(payload))
        return std::nullopt;

    TransportAck ack;
    ack.nak = payload[2] != 0;
    ack.channel = static_cast<std::uint16_t>(
        (std::uint16_t(payload[3]) << 8) | payload[4]);
    ack.seq = loadBe64(payload.data() + 5);
    return ack;
}

TlpPtr
makeTransportAck(Bdf from, Bdf to, const TransportAck &ack)
{
    auto tlp = std::make_shared<Tlp>(
        Tlp::makeMessage(from, MsgCode::TransportAck));
    tlp->completer = to; // ID-routed back to the sender
    tlp->fmt = TlpFmt::FourDwData;
    tlp->data = encodeTransportAck(ack);
    tlp->lengthBytes = static_cast<std::uint32_t>(tlp->data.size());
    return tlp;
}

namespace
{

void
arm(sim::SimObject &owner, sim::Event &timer, Tick timeout)
{
    owner.system().eventq().rescheduleIn(&timer, timeout);
}

void
traceInstant(sim::SimObject &owner, obs::TrackId &track,
             const char *what)
{
    obs::Tracer &tracer = owner.system().tracer();
    if (tracer.enabled())
        tracer.instant(tracer.trackCached(track, owner.name()), what,
                       owner.curTick());
}

} // namespace

GbnSender::Counters::Counters(obs::MetricGroup &g)
    : retransmits(g.counterHandle("transport_retransmits")),
      timeoutRetransmits(
          g.counterHandle("transport_timeout_retransmits")),
      recovered(g.counterHandle("faults_recovered")),
      fatal(g.counterHandle("faults_fatal"))
{}

GbnSender::GbnSender(sim::SimObject &owner, const RetryConfig &retry,
                     std::uint16_t channel, const Counters &counters,
                     Transmit transmit)
    : owner_(owner), retry_(retry), channel_(channel),
      counters_(counters), transmit_(std::move(transmit)),
      timer_([this] { onTimeout(); }, "arq-ack-timeout")
{}

void
GbnSender::stamp(Tlp &tlp)
{
    tlp.seqNo = nextSeq_++;
    if (retry_.enabled) {
        tlp.ackRequired = true;
        tlp.txChannel = channel_;
        tlp.arqResync = resync_;
        resync_ = false;
    }
}

void
GbnSender::send(const TlpPtr &tlp)
{
    if (!retry_.enabled)
        return;
    window_.push_back(tlp);
    if (window_.size() == 1)
        arm(owner_, timer_, retry_.timeoutFor(retry_.ackTimeout, attempts_));
}

void
GbnSender::onAck(const TransportAck &ack)
{
    if (ack.nak) {
        // Every packet behind one loss NAKs: one resend round per
        // retransmitGap, not one per NAK.
        Tick now = owner_.curTick();
        if (lastGoBack_ != 0 && now - lastGoBack_ < retry_.retransmitGap)
            return;
        lastGoBack_ = now;
        std::uint64_t n = 0;
        for (const TlpPtr &p : window_) {
            if (p->seqNo >= ack.seq) {
                transmit_(p);
                ++n;
            }
        }
        if (n) {
            dirty_ = true;
            counters_.retransmits.inc(n);
            traceInstant(owner_, track_, "arq.go_back_n");
        }
        return;
    }
    std::size_t before = window_.size();
    while (!window_.empty() && window_.front()->seqNo <= ack.seq)
        window_.pop_front();
    std::size_t popped = before - window_.size();
    if (popped == 0)
        return; // stale cumulative ack
    if (dirty_)
        counters_.recovered.inc(popped);
    attempts_ = 0;
    if (!window_.empty()) {
        arm(owner_, timer_, retry_.timeoutFor(retry_.ackTimeout, attempts_));
        return;
    }
    dirty_ = false;
    if (timer_.scheduled())
        owner_.system().eventq().deschedule(&timer_);
}

void
GbnSender::clear()
{
    window_.clear();
    attempts_ = 0;
    dirty_ = false;
    lastGoBack_ = 0;
    if (timer_.scheduled())
        owner_.system().eventq().deschedule(&timer_);
}

void
GbnSender::onTimeout()
{
    if (window_.empty())
        return;
    if (attempts_ >= retry_.maxRetries) {
        counters_.fatal.inc(window_.size());
        warnRateLimited("arq-tx-exhausted",
                        "%s: channel %u exhausted its retry budget "
                        "(%zu packets abandoned)",
                        owner_.name().c_str(), unsigned(channel_),
                        window_.size());
        window_.clear();
        attempts_ = 0;
        dirty_ = false;
        // The receiver still waits for the first abandoned seqNo:
        // the next TLP tells it to move its base past the gap.
        resync_ = true;
        return;
    }
    ++attempts_;
    dirty_ = true;
    counters_.timeoutRetransmits.inc();
    traceInstant(owner_, track_, "arq.timeout_retx");
    for (const TlpPtr &p : window_)
        transmit_(p);
    arm(owner_, timer_, retry_.timeoutFor(retry_.ackTimeout, attempts_));
}

GbnReceiver::Counters::Counters(obs::MetricGroup &g)
    : accepted(g.counterHandle("transport_rx_accepted")),
      duplicates(g.counterHandle("transport_rx_duplicates")),
      outOfOrder(g.counterHandle("transport_rx_ooo")),
      acksSent(g.counterHandle("transport_acks_sent")),
      naksSent(g.counterHandle("transport_naks_sent"))
{}

GbnReceiver::GbnReceiver(const RetryConfig &retry,
                         const Counters &counters, SendAck sendAck)
    : retry_(retry), counters_(counters), sendAck_(std::move(sendAck))
{}

GbnReceiver::Verdict
GbnReceiver::admit(const Tlp &tlp, const Accept &accept)
{
    if (!retry_.enabled || !tlp.ackRequired)
        return Verdict::Deliver;
    std::uint64_t &rx = rxSeq_[tlp.txChannel];
    if (tlp.seqNo <= rx) {
        // A resend of something delivered: re-ack so the sender's
        // window advances, but do not deliver twice.
        counters_.duplicates.inc();
        reply(tlp.txChannel, rx, false);
        return Verdict::Duplicate;
    }
    if (tlp.seqNo != rx + 1 && !tlp.arqResync) {
        counters_.outOfOrder.inc();
        reply(tlp.txChannel, rx + 1, true);
        return Verdict::Gap;
    }
    if (accept && !accept()) {
        reply(tlp.txChannel, rx + 1, true);
        return Verdict::Rejected;
    }
    // In order, or a resync past an abandoned window: the new base.
    rx = tlp.seqNo;
    counters_.accepted.inc();
    reply(tlp.txChannel, rx, false);
    return Verdict::Deliver;
}

void
GbnReceiver::reply(std::uint16_t channel, std::uint64_t seq, bool nak)
{
    (nak ? counters_.naksSent : counters_.acksSent).inc();
    sendAck_(TransportAck{nak, channel, seq});
}

ReadRetry::ReadRetry(sim::SimObject &owner, const RetryConfig &retry,
                     const Counters &counters, Reissue reissue,
                     Exhausted exhausted)
    : owner_(owner), retry_(retry), counters_(counters),
      reissue_(std::move(reissue)), exhausted_(std::move(exhausted)),
      timer_([this] { onTimeout(); }, "read-deadline")
{}

void
ReadRetry::start(TlpPtr request)
{
    request_ = std::move(request);
    arm(owner_, timer_, retry_.timeoutFor(retry_.readTimeout, attempts_));
}

bool
ReadRetry::retry()
{
    if (!request_ || attempts_ >= retry_.maxReadRetries)
        return false;
    ++attempts_;
    counters_.retries.inc();
    traceInstant(owner_, track_, "read.retry");
    reissue_(request_);
    arm(owner_, timer_, retry_.timeoutFor(retry_.readTimeout, attempts_));
    return true;
}

void
ReadRetry::onTimeout()
{
    if (retry())
        return;
    counters_.fatal.inc();
    warnRateLimited("read-retry-exhausted",
                    "%s: read tag %d addr 0x%llx exhausted its retry "
                    "budget",
                    owner_.name().c_str(), int(request_->tag),
                    (unsigned long long)request_->address);
    // The callback may destroy this object, its timer (running now)
    // and the callback itself: call a copy and touch nothing after.
    Exhausted done = exhausted_;
    done(request_);
}

} // namespace ccai::pcie
