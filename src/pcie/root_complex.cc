#include "root_complex.hh"

#include "common/logging.hh"

namespace ccai::pcie
{

RootComplex::Handles::Handles(sim::StatGroup &g)
    : readsSent(g.counterHandle("reads_sent")),
      writesSent(g.counterHandle("writes_sent")),
      completions(g.counterHandle("completions")),
      orphanCompletions(g.counterHandle("orphan_completions")),
      messages(g.counterHandle("messages")),
      unsupported(g.counterHandle("unsupported")),
      readRetries(g.counterHandle("read_retries")),
      readRetryExhausted(g.counterHandle("read_retry_exhausted")),
      faultsRecovered(g.counterHandle("faults_recovered")),
      faultsFatal(g.counterHandle("faults_fatal")),
      iommuBlocked(g.counterHandle("iommu_blocked")),
      dmaWrites(g.counterHandle("dma_writes")),
      dmaReads(g.counterHandle("dma_reads")),
      transportAcksReceived(
          g.counterHandle("transport_acks_received")),
      readLatencyTicks(g.histogramHandle("read_latency_ticks"))
{}

RootComplex::RootComplex(sim::System &sys, std::string name,
                         HostMemory &mem)
    : sim::SimObject(sys, std::move(name)), mem_(mem),
      stats_(sys.metrics(), this->name()), s_(stats_),
      tracer_(&sys.tracer()),
      rx_(retry_, GbnReceiver::Counters(stats_),
          [this](const TransportAck &ack) {
              down_->send(makeTransportAck(wellknown::kRootComplex,
                                           wellknown::kPcieSc, ack));
          })
{
}

RootComplex::OutstandingRead::OutstandingRead(RootComplex &rc,
                                              CplCallback cb)
    : cb(std::move(cb)), issued(rc.curTick()),
      retry(rc, rc.retry_, {rc.s_.readRetries, rc.s_.faultsFatal},
            [&rc](const TlpPtr &req) { rc.down_->send(req); },
            [&rc](TlpPtr req) { rc.readExhausted(*req); })
{}

std::uint8_t
RootComplex::allocTag()
{
    // 256-entry tag space; wrap-around with occupancy check.
    for (int i = 0; i < 256; ++i) {
        std::uint8_t candidate = nextTag_++;
        if (!outstanding_.count(candidate))
            return candidate;
    }
    panic("root complex: tag space exhausted");
}

void
RootComplex::sendRead(Tlp tlp, CplCallback cb)
{
    if (!down_)
        panic("root complex: downstream link not connected");
    tlp.tag = allocTag();
    auto req = std::make_shared<Tlp>(std::move(tlp));
    OutstandingRead &o =
        outstanding_.try_emplace(req->tag, *this, std::move(cb))
            .first->second;

    s_.readsSent.inc();
    down_->send(req);
    if (retry_.enabled)
        o.retry.start(req);
}

void
RootComplex::readExhausted(const Tlp &req)
{
    // Budget exhausted: fabricate an abort completion so the
    // caller's state machine can fail instead of hang. Erasing the
    // entry destroys the timer event executing right now, so the
    // callback is moved out first.
    auto it = outstanding_.find(req.tag);
    CplCallback cb = std::move(it->second.cb);
    outstanding_.erase(it);
    s_.readRetryExhausted.inc();
    cb(std::make_shared<Tlp>(Tlp::makeCompletion(
        req.completer, req.requester, req.tag, {},
        CplStatus::CompleterAbort)));
}

void
RootComplex::sendWrite(Tlp tlp)
{
    sendWrite(std::make_shared<Tlp>(std::move(tlp)));
}

void
RootComplex::sendWrite(const TlpPtr &tlp)
{
    if (!down_)
        panic("root complex: downstream link not connected");
    s_.writesSent.inc();
    down_->send(tlp);
}

void
RootComplex::receiveTlp(const TlpPtr &tlp, PcieNode *)
{
    switch (tlp->type) {
      case TlpType::Completion: {
        if (rx_.admit(*tlp) != GbnReceiver::Verdict::Deliver)
            return;
        auto it = outstanding_.find(tlp->tag);
        if (it == outstanding_.end()) {
            // Benign under retry: the original completion of a read
            // that was already answered by a retransmission.
            s_.orphanCompletions.inc();
            debugLog("root complex: completion with unknown tag %d",
                     int(tlp->tag));
            return;
        }
        if (it->second.retry.attempts() > 0)
            s_.faultsRecovered.inc();
        Tick issued = it->second.issued;
        s_.readLatencyTicks.sample(curTick() - issued);
        if (tracer_->enabled())
            tracer_->complete(traceTrack(), "read", issued,
                              curTick() - issued);
        CplCallback cb = std::move(it->second.cb);
        outstanding_.erase(it);
        s_.completions.inc();
        cb(tlp);
        return;
      }
      case TlpType::Message: {
        if (tlp->msgCode == MsgCode::TransportAck) {
            // Dispatched before the MSI handlers: an ack must never
            // pop an interrupt waiter.
            s_.transportAcksReceived.inc();
            auto decoded = decodeTransportAck(tlp->data);
            if (!decoded)
                return;
            auto it = transportHandlers_.find(tlp->completer.raw());
            if (it != transportHandlers_.end())
                it->second(*decoded);
            return;
        }
        if (rx_.admit(*tlp) != GbnReceiver::Verdict::Deliver)
            return;
        s_.messages.inc();
        auto it = msgHandlers_.find(tlp->completer.raw());
        if (it != msgHandlers_.end()) {
            it->second(tlp);
            return;
        }
        if (msgHandler_)
            msgHandler_(tlp);
        return;
      }
      case TlpType::MemRead:
      case TlpType::MemWrite:
        if (rx_.admit(*tlp) != GbnReceiver::Verdict::Deliver)
            return;
        handleInboundRequest(tlp);
        return;
      default:
        s_.unsupported.inc();
        warn("root complex: unsupported inbound %s",
             tlp->toString().c_str());
        return;
    }
}

void
RootComplex::handleInboundRequest(const TlpPtr &tlp)
{
    // Device-initiated DMA against host memory. The IOMMU hook (the
    // privileged software's protection in the paper's threat model)
    // can reject accesses to protected ranges.
    if (iommu_ && !iommu_(tlp->requester, tlp->address,
                          tlp->lengthBytes)) {
        s_.iommuBlocked.inc();
        if (tlp->type == TlpType::MemRead) {
            auto cpl = std::make_shared<Tlp>(Tlp::makeCompletion(
                wellknown::kRootComplex, tlp->requester, tlp->tag, {},
                CplStatus::CompleterAbort));
            down_->send(cpl);
        }
        return;
    }

    if (tlp->type == TlpType::MemWrite) {
        s_.dmaWrites.inc();
        if (!tlp->synthetic)
            mem_.write(tlp->address, tlp->data);
        return;
    }

    s_.dmaReads.inc();
    TlpPtr cpl;
    if (tlp->synthetic) {
        cpl = std::make_shared<Tlp>(Tlp::makeCompletionSynthetic(
            wellknown::kRootComplex, tlp->requester, tlp->tag,
            tlp->lengthBytes));
    } else {
        Bytes data = mem_.read(tlp->address, tlp->lengthBytes);
        cpl = std::make_shared<Tlp>(Tlp::makeCompletion(
            wellknown::kRootComplex, tlp->requester, tlp->tag,
            std::move(data)));
    }
    down_->send(cpl);
}

void
RootComplex::abortTransport()
{
    // Dropping the entries disarms their retry timers too.
    outstanding_.clear();
    rx_.clear();
}

void
RootComplex::reset()
{
    abortTransport();
    nextTag_ = 0;
    stats_.reset();
}

} // namespace ccai::pcie
