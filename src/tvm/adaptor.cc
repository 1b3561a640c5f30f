#include "adaptor.hh"

#include <algorithm>
#include <cstring>

#include "common/buffer_pool.hh"
#include "common/bytes_util.hh"
#include "common/logging.hh"
#include "crypto/worker_pool.hh"

namespace ccai::tvm
{

namespace mm = pcie::memmap;
using backend::ChunkRecord;

Adaptor::Handles::Handles(obs::MetricGroup &g)
    : faultsRecovered(g.counterHandle("faults_recovered")),
      faultsFatal(g.counterHandle("faults_fatal")),
      policyUpdates(g.counterHandle("policy_updates")),
      signedWrites(g.counterHandle("signed_writes")),
      h2dChunks(g.counterHandle("h2d_chunks")),
      h2dBytes(g.counterHandle("h2d_bytes")),
      d2hBytes(g.counterHandle("d2h_bytes")),
      ioWrites(g.counterHandle("io_writes")),
      ioReads(g.counterHandle("io_reads")),
      vendorMessages(g.counterHandle("vendor_messages")),
      recordFetchIncomplete(
          g.counterHandle("record_fetch_incomplete")),
      recordFetchRetries(g.counterHandle("record_fetch_retries")),
      recordFetchAborts(g.counterHandle("record_fetch_aborts")),
      d2hIntegrityFailures(
          g.counterHandle("d2h_integrity_failures")),
      d2hChunkRetries(g.counterHandle("d2h_chunk_retries")),
      tasksEnded(g.counterHandle("tasks_ended")),
      h2dStageCopies(g.counterHandle("h2d_stage_copies")),
      d2hStageCopies(g.counterHandle("d2h_stage_copies")),
      metaRingOccupancy(
          g.histogramHandle("meta_ring_occupancy")),
      cpuQueueTicks(g.histogramHandle("cpu_queue_ticks")),
      h2dCpuTicks(g.histogramHandle("h2d_cpu_ticks")),
      d2hCpuTicks(g.histogramHandle("d2h_cpu_ticks")),
      h2dPrepareTicks(g.histogramHandle("h2d_prepare_ticks")),
      d2hCollectTicks(g.histogramHandle("d2h_collect_ticks"))
{}

Adaptor::Adaptor(sim::System &sys, std::string name, Tvm &tvm,
                 const AdaptorConfig &config,
                 const AdaptorTiming &timing)
    : sim::SimObject(sys, std::move(name)), tvm_(tvm), config_(config),
      timing_(timing), stats_(sys.metrics(), this->name()),
      s_(stats_), tracer_(&sys.tracer()),
      tx_(*this, config_.retry, tvm_.bdf().raw(),
          pcie::GbnSender::Counters(stats_),
          [this](const pcie::TlpPtr &tlp) {
              tvm_.rootComplex().sendWrite(tlp);
          })
{
    // Consume transport acks for this tenant's ARQ channel. The
    // handler is registered unconditionally (it is inert while
    // retries are disabled) so enabling retries via setConfig works.
    tvm_.rootComplex().addTransportHandler(
        tvm_.bdf().raw(), [this](const pcie::TransportAck &ack) {
            if (retryEnabled())
                tx_.onAck(ack);
        });
}

void
Adaptor::sendTransported(pcie::Tlp tlp, bool sign)
{
    tx_.stamp(tlp);
    if (sign && signer_.hasKey())
        tlp.integrityTag = signer_.computeMac(tlp);
    auto ptr = std::make_shared<pcie::Tlp>(std::move(tlp));
    tx_.send(ptr);
    tvm_.rootComplex().sendWrite(ptr);
}

void
Adaptor::hwInit()
{
    h2dCursor_ = 0;
    d2hCursor_ = 0;
    metaHead_ = 0;
    metaPending_.clear();
    Bytes enable(8, 0);
    enable[0] = 1;
    writeSigned(mm::kScMmio.base + mm::screg::kControl,
                std::move(enable));
}

void
Adaptor::establishSession(const Bytes &sessionSecret)
{
    keys_ = std::make_unique<trust::WorkloadKeyManager>(
        sessionSecret, config_.ivExhaustionLimit);
    signer_.setKey(
        crypto::kdf(sessionSecret, {}, "ccai-a3-integrity", 32));
    configCipher_.emplace(
        crypto::kdf(sessionSecret, {}, "ccai-filter-config", 16));
    drbg_ = std::make_unique<crypto::Drbg>(sessionSecret,
                                           "ccai-adaptor-drbg");
    // A (re-)established session starts a fresh ARQ conversation:
    // the SC resets its per-tenant receive gate in establishTenant,
    // so the sender window must restart at seqNo 1 or every write
    // of the new session would be NAKed as out-of-order.
    tx_.restart();
    ++sessionEpoch_;
    // The controller resets the tenant's completion ring in
    // establishTenant; mirror the consumed index here or the first
    // reap of the new session would re-consume stale slots.
    metaHead_ = 0;
    metaPending_.clear();
}

void
Adaptor::abortSession()
{
    if (keys_)
        keys_->destroy();
    keys_.reset();
    configCipher_.reset();
    drbg_.reset();
    // Unacked writes belong to the dead session; replaying them
    // under a new session would be rejected (stale MACs) anyway.
    tx_.clear();
    ++sessionEpoch_;
}

void
Adaptor::pingSc(std::function<void(bool)> cb)
{
    tvm_.mmioRead(mm::kScMmio.base + mm::screg::kHeartbeat, 8,
                  [cb = std::move(cb)](Bytes payload) {
                      std::uint64_t beats =
                          payload.size() >= 8 ? loadLe64(payload.data())
                                              : 0;
                      cb(beats != 0);
                  });
}

void
Adaptor::pingXpu(std::function<void(bool)> cb)
{
    tvm_.mmioRead(mm::kXpuMmio.base + mm::xpureg::kStatus, 8,
                  [cb = std::move(cb)](Bytes payload) {
                      std::uint64_t status =
                          payload.size() >= 8 ? loadLe64(payload.data())
                                              : 0;
                      cb(status == 0x1);
                  });
}

void
Adaptor::pktFilterManage(const backend::RuleTables &tables)
{
    if (!configCipher_)
        fatal("Adaptor: pktFilterManage before session establishment");
    Bytes blob = tables.serialize();
    Bytes iv = drbg_->generateIv();
    crypto::Sealed sealed = configCipher_->seal(iv, blob);

    Bytes payload = iv;
    payload.insert(payload.end(), sealed.tag.begin(), sealed.tag.end());
    payload.insert(payload.end(), sealed.ciphertext.begin(),
                   sealed.ciphertext.end());
    // Not MAC-signed (the GCM seal authenticates it), but it still
    // rides the ARQ channel so a lossy fabric cannot drop a policy
    // update or reorder it against later doorbells.
    sendTransported(pcie::Tlp::makeMemWrite(tvm_.bdf(),
                                            mm::kScRuleTable.base,
                                            std::move(payload)),
                    /*sign=*/false);
    s_.policyUpdates.inc();
}

void
Adaptor::writeSigned(Addr addr, Bytes data)
{
    sendTransported(pcie::Tlp::makeMemWrite(tvm_.bdf(), addr,
                                            std::move(data)),
                    /*sign=*/true);
    s_.signedWrites.inc();
}

Tick
Adaptor::cryptoDelay(std::uint64_t bytes) const
{
    double rate = (config_.hardwareCrypto ? timing_.aesNiBytesPerSec
                                          : timing_.softAesBytesPerSec) *
                  std::max(1, config_.cryptoThreads);
    return secondsToTicks(bytes / rate);
}

void
Adaptor::runOnCpu(Tick duration, DoneCb then, const char *stage)
{
    Tick start = std::max(curTick(), cpuBusyUntil_);
    s_.cpuQueueTicks.sample(start - curTick());
    cpuBusyUntil_ = start + duration;
    if (stage && tracer_->enabled())
        tracer_->complete(traceTrack(), stage, start, duration);
    eventq().schedule(cpuBusyUntil_, std::move(then));
}

Addr
Adaptor::allocBounce(pcie::AddrRange region, Addr &cursor,
                     std::uint64_t length)
{
    if (cursor + length > region.size)
        cursor = 0; // simple ring reuse; transfers are sequential
    Addr addr = region.base + cursor;
    cursor += length;
    return addr;
}

void
Adaptor::prepareH2d(std::optional<Bytes> data, std::uint64_t length,
                    std::function<void(Addr)> done, bool scTerminated)
{
    if (!keys_)
        fatal("Adaptor: prepareH2d before session establishment");
    if (data && data->size() != length)
        fatal("Adaptor: data/length mismatch");
    if (scTerminated && data)
        fatal("Adaptor: SC-terminated transfers are payload-free");

    Tick t0 = curTick();
    Addr bounce = allocBounce(config_.h2dWindow, h2dCursor_, length);
    std::uint64_t chunks =
        (length + config_.chunkBytes - 1) / config_.chunkBytes;
    std::uint64_t subtasks =
        (length + config_.subtaskBytes - 1) / config_.subtaskBytes;

    // CPU cost: en/decryption plus per-chunk bookkeeping; the
    // non-optimized design pays per-subtask overhead as well.
    // SC-terminated traffic (KV-cache swapping) never exists as TVM
    // plaintext: the PCIe-SC en/decrypts it at line rate and the
    // Adaptor only manages records, so no CPU crypto is charged.
    // Chunk bookkeeping and staging ride the crypto worker lanes, so
    // the per-chunk setup amortizes across cryptoThreads like the
    // crypto itself; only the serial notify path stays per-thread.
    const int width = std::max(1, config_.cryptoThreads);
    Tick cpu = timing_.perChunkSetup * chunks / width;
    if (!scTerminated)
        cpu += cryptoDelay(length);
    if (!config_.batchNotify)
        cpu += timing_.perSubtaskOverhead * subtasks;
    s_.h2dCpuTicks.sample(cpu);

    runOnCpu(cpu, [this, t0, data = std::move(data), length, bounce,
                   chunks, subtasks, done = std::move(done),
                   epoch = sessionEpoch_]() mutable {
        // The session died (crash recovery) while this seal stage
        // was queued on the CPU: drop it. The recovery journal
        // replays the whole operation under the new session.
        if (epoch != sessionEpoch_ || !keys_)
            return;
        // Two-stage parallel seal, deterministic at any thread
        // count: (1) serial record build — nextIv() draws and epoch
        // rotation must happen in chunkId order, and cipherCached()
        // may construct (sharded-cache fill), so both stay on the
        // sim thread; (2) parallel seal. When the bounce window is
        // pinned the plaintext is copied once into the DMA arena and
        // sealed IN PLACE there — zero staging copies; otherwise a
        // pooled staging buffer per chunk is sealed and committed
        // through HostMemory::write (counted by h2d_stage_copies).
        // Seal order never matters: every IV is pre-drawn and every
        // output slot is disjoint, so tags are bit-identical at any
        // width and any completion order.
        std::vector<ChunkRecord> records;
        records.reserve(chunks);
        std::vector<const crypto::AesGcm *> ciphers;
        std::uint64_t off = 0;
        while (off < length) {
            std::uint64_t take =
                std::min(config_.chunkBytes, length - off);
            ChunkRecord rec;
            rec.chunkId = nextChunkId_++;
            rec.dir = trust::StreamDir::HostToDevice;
            rec.addr = bounce + off;
            rec.length = static_cast<std::uint32_t>(take);
            // nextIv() may rotate the epoch, so read the epoch id
            // only after drawing the IV.
            rec.iv = keys_->nextIv(trust::StreamDir::HostToDevice);
            rec.epoch =
                keys_->epochId(trust::StreamDir::HostToDevice);
            rec.synthetic = !data.has_value();
            if (data) {
                ciphers.push_back(&keys_->cipherCached(
                    trust::StreamDir::HostToDevice, rec.epoch));
                rec.tag.resize(crypto::kGcmTagSize);
            } else {
                rec.tag.assign(crypto::kGcmTagSize, 0);
            }
            records.push_back(std::move(rec));
            off += take;
        }

        if (data) {
            const int width = std::max(1, config_.cryptoThreads);
            crypto::WorkerPool &pool = crypto::WorkerPool::shared();
            std::uint8_t *arena = tvm_.memory().raw(bounce, length);
            if (arena && records.size() == 1) {
                // Single chunk in the pinned window: parallelize
                // inside the payload via the segmented-GHASH seal
                // (bit-identical tag).
                std::memcpy(arena, data->data(), length);
                ciphers[0]->sealInPlace(
                    records[0].iv, arena, length, nullptr, 0,
                    records[0].tag.data(), pool, width);
            } else if (arena) {
                pool.runJobs(
                    records.size(), width,
                    [&](std::size_t i) {
                        ChunkRecord &rec = records[i];
                        std::uint64_t o = rec.addr - bounce;
                        std::memcpy(arena + o, data->data() + o,
                                    rec.length);
                        ciphers[i]->sealInPlace(
                            rec.iv, arena + o, rec.length, nullptr,
                            0, rec.tag.data());
                    },
                    [](std::size_t) {});
            } else {
                // Staged fallback for unpinned windows (raw unit
                // fixtures): pooled buffers plus a serial commit
                // through the sparse-page store.
                std::vector<Bytes> staged;
                staged.reserve(records.size());
                for (const ChunkRecord &rec : records) {
                    Bytes chunk =
                        BufferPool::global().acquire(rec.length);
                    std::memcpy(chunk.data(),
                                data->data() + (rec.addr - bounce),
                                rec.length);
                    staged.push_back(std::move(chunk));
                }
                if (staged.size() == 1) {
                    ciphers[0]->sealInPlace(
                        records[0].iv, staged[0].data(),
                        staged[0].size(), nullptr, 0,
                        records[0].tag.data(), pool, width);
                } else {
                    pool.parallelFor(
                        staged.size(), width, [&](std::size_t i) {
                            ciphers[i]->sealInPlace(
                                records[i].iv, staged[i].data(),
                                staged[i].size(), nullptr, 0,
                                records[i].tag.data());
                        });
                }
                for (std::size_t i = 0; i < staged.size(); ++i) {
                    tvm_.memory().write(records[i].addr, staged[i]);
                    BufferPool::global().release(
                        std::move(staged[i]));
                }
                s_.h2dStageCopies.inc(records.size());
            }
        }
        s_.h2dChunks.inc(chunks);
        s_.h2dBytes.inc(length);

        Addr param_window =
            mm::kScMmio.base + mm::screg::kParamWindow;
        Addr notify = mm::kScMmio.base + mm::screg::kNotifyTransfer;

        if (config_.batchNotify) {
            // One registration write and one notify for the whole
            // region (§5 I/O-write optimization).
            writeSigned(param_window,
                        ChunkRecord::serializeBatch(records));
            writeSigned(notify, Bytes(8, 1));
            s_.ioWrites.inc(2);
        } else {
            // Non-optimized: each chunk registered separately, each
            // encryption subtask raises its own notify request.
            for (const ChunkRecord &rec : records)
                writeSigned(param_window, rec.serialize());
            for (std::uint64_t i = 0; i < subtasks; ++i)
                writeSigned(notify, Bytes(8, 1));
            s_.ioWrites.inc(records.size() + subtasks);
        }
        s_.h2dPrepareTicks.sample(curTick() - t0);
        if (tracer_->enabled())
            tracer_->complete(traceTrack(), "h2d.prepare", t0,
                              curTick() - t0);
        done(bounce);
    }, "h2d.seal");
}

Addr
Adaptor::allocD2hBounce(std::uint64_t length)
{
    return allocBounce(config_.d2hWindow, d2hCursor_, length);
}

void
Adaptor::sendVendorMessage(Bytes payload)
{
    sendTransported(pcie::Tlp::makeVendorMessage(tvm_.bdf(),
                                                 std::move(payload)),
                    /*sign=*/true);
    s_.vendorMessages.inc();
}

void
Adaptor::collectD2h(Addr bounceAddr, std::uint64_t length,
                    bool synthetic, DataCb done, bool scTerminated)
{
    if (!keys_)
        fatal("Adaptor: collectD2h before session establishment");

    auto st = std::make_shared<CollectState>();
    st->startTick = curTick();
    st->epoch = sessionEpoch_;
    st->bounceAddr = bounceAddr;
    st->length = length;
    st->synthetic = synthetic;
    st->scTerminated = scTerminated;
    st->done = std::move(done);
    fetchForCollect(std::move(st));
}

void
Adaptor::fetchForCollect(std::shared_ptr<CollectState> st)
{
    if (st->epoch != sessionEpoch_ || !keys_)
        return; // session died under this collection (crash recovery)
    auto handle = [this, st](std::vector<ChunkRecord> records) {
        if (st->epoch != sessionEpoch_ || !keys_)
            return;
        // Claim the records covering this transfer. With pipelined
        // transfers in flight a reap can surface another transfer's
        // records — park those in metaPending_ for its collect
        // instead of dropping them.
        records.insert(records.begin(),
                       std::make_move_iterator(metaPending_.begin()),
                       std::make_move_iterator(metaPending_.end()));
        metaPending_.clear();
        for (ChunkRecord &rec : records) {
            if (rec.addr >= st->bounceAddr &&
                rec.addr < st->bounceAddr + st->length)
                st->recs.push_back(std::move(rec));
            else
                metaPending_.push_back(std::move(rec));
        }
        // Sort by address. A link-level duplicate of a device write
        // yields two records for one address — keep the newest.
        std::sort(st->recs.begin(), st->recs.end(),
                  [](const ChunkRecord &a, const ChunkRecord &b) {
                      return a.addr != b.addr ? a.addr < b.addr
                                              : a.chunkId < b.chunkId;
                  });
        std::vector<ChunkRecord> uniq;
        for (ChunkRecord &rec : st->recs) {
            if (!uniq.empty() && uniq.back().addr == rec.addr)
                uniq.back() = std::move(rec);
            else
                uniq.push_back(std::move(rec));
        }
        st->recs = std::move(uniq);

        if (!retryEnabled() || coverageComplete(*st) ||
            st->fetchAttempts >= config_.retry.maxReadRetries) {
            if (retryEnabled() && !coverageComplete(*st) &&
                st->length != 0)
                s_.recordFetchIncomplete.inc();
            finishCollect(std::move(st));
            return;
        }
        // Records may still sit behind a lost doorbell or an
        // in-flight metadata write: back off and re-fetch. The
        // doorbell/ack bookkeeping is consistent across rounds
        // because each fetch acks everything it consumed.
        ++st->fetchAttempts;
        s_.recordFetchRetries.inc();
        if (tracer_->enabled())
            tracer_->instant(traceTrack(), "record_fetch.retry",
                             curTick());
        Tick wait = config_.retry.timeoutFor(config_.retry.ackTimeout,
                                             st->fetchAttempts - 1);
        eventq().scheduleIn(wait,
                            [this, st] { fetchForCollect(st); });
    };

    if (config_.batchMetadataReads) {
        std::uint64_t chunks =
            (st->length + config_.chunkBytes - 1) / config_.chunkBytes;
        fetchRecordsBatched(chunks, std::move(handle));
    } else {
        fetchRecordsMmio(std::move(handle));
    }
}

bool
Adaptor::coverageComplete(const CollectState &st) const
{
    // recs are addr-sorted and deduped: the transfer is fully
    // described when they tile [bounceAddr, bounceAddr + length).
    Addr next = st.bounceAddr;
    for (const ChunkRecord &rec : st.recs) {
        if (rec.addr > next)
            return false;
        next = std::max(next, rec.addr + rec.length);
    }
    return next >= st.bounceAddr + st.length;
}

void
Adaptor::finishCollect(std::shared_ptr<CollectState> st)
{
    // Per-record bookkeeping and the bounce->private copy ride the
    // crypto worker lanes (each lane drains its own records), so both
    // scale with cryptoThreads; the slot-drain stall is a device
    // round trip and the notify writes are MMIO — both stay serial.
    const int width = std::max(1, config_.cryptoThreads);
    Tick cpu = timing_.perChunkSetup * st->recs.size() / width;
    if (!st->scTerminated) {
        cpu += cryptoDelay(st->length);
        // Collections larger than the staging slot stall the device
        // while earlier slots drain.
        std::uint64_t passes =
            (st->length + config_.d2hSlotBytes - 1) /
            config_.d2hSlotBytes;
        if (passes > 1)
            cpu += (passes - 1) * timing_.slotDrainStall;
    }
    if (!config_.batchNotify) {
        std::uint64_t subtasks =
            (st->length + config_.subtaskBytes - 1) /
            config_.subtaskBytes;
        cpu += timing_.perSubtaskOverhead * subtasks;
    }
    if (!st->scTerminated)
        cpu += tvm_.memcpyDelay(st->length) / width; // bounce -> private
    s_.d2hCpuTicks.sample(cpu);

    runOnCpu(cpu, [this, st = std::move(st)]() mutable {
        attemptDecrypt(std::move(st), 0);
    }, "d2h.open");
}

void
Adaptor::attemptDecrypt(std::shared_ptr<CollectState> st, int attempt)
{
    if (st->epoch != sessionEpoch_ || !keys_)
        return; // session died under this collection (crash recovery)
    if (st->ok.empty() && !st->recs.empty()) {
        st->ok.assign(st->recs.size(), 0);
        st->plain.resize(st->recs.size());
    }
    std::vector<std::uint64_t> failed;
    if (!st->synthetic && !st->scTerminated) {
        // Submission/completion open, mirroring prepareH2d: serial
        // cipher fetch (the sharded epoch cache may fill), then the
        // verify+decrypt jobs are claimed lock-free and their
        // results committed in strict record order — stats,
        // warnings, and the failed list are identical at any thread
        // count and any completion order. When the bounce window is
        // pinned, each record's ciphertext moves once from the DMA
        // arena into its final offset in the output buffer and is
        // opened IN PLACE there (the modeled bounce->private copy;
        // zero staging copies). Unpinned windows fall back to a
        // staged read per record (d2h_stage_copies).
        const std::uint8_t *arena =
            st->length > 0
                ? tvm_.memory().raw(st->bounceAddr, st->length)
                : nullptr;
        if (arena && st->out.empty())
            st->out.resize(st->length);
        std::vector<std::size_t> pending;
        std::vector<const crypto::AesGcm *> ciphers(st->recs.size(),
                                                    nullptr);
        for (std::size_t i = 0; i < st->recs.size(); ++i) {
            if (st->ok[i])
                continue;
            const ChunkRecord &rec = st->recs[i];
            if (!arena) {
                st->plain[i] =
                    tvm_.memory().read(rec.addr, rec.length);
                s_.d2hStageCopies.inc();
            }
            ciphers[i] = &keys_->cipherCached(
                trust::StreamDir::DeviceToHost, rec.epoch);
            pending.push_back(i);
        }
        std::vector<char> okNow(st->recs.size(), 0);
        const int width = std::max(1, config_.cryptoThreads);
        crypto::WorkerPool &pool = crypto::WorkerPool::shared();
        auto openOne = [&](std::size_t i, int lanes) {
            const ChunkRecord &rec = st->recs[i];
            std::uint8_t *ct = nullptr;
            std::size_t len = 0;
            if (arena) {
                std::uint64_t o = rec.addr - st->bounceAddr;
                ct = st->out.data() + o;
                std::memcpy(ct, arena + o, rec.length);
                len = rec.length;
            } else {
                ct = st->plain[i].data();
                len = st->plain[i].size();
            }
            bool ok = rec.tag.size() == crypto::kGcmTagSize;
            if (ok && lanes > 1) {
                ok = ciphers[i]->openInPlace(rec.iv, ct, len,
                                             rec.tag.data(),
                                             nullptr, 0, pool, lanes);
            } else if (ok) {
                ok = ciphers[i]->openInPlace(rec.iv, ct, len,
                                             rec.tag.data(),
                                             nullptr, 0);
            }
            okNow[i] = ok ? 1 : 0;
        };
        auto commitOne = [&](std::size_t i) {
            const ChunkRecord &rec = st->recs[i];
            if (!okNow[i]) {
                s_.d2hIntegrityFailures.inc();
                if (tracer_->enabled())
                    tracer_->instant(traceTrack(),
                                     "d2h.integrity_fail",
                                     curTick());
                warnRateLimited(
                    "adaptor-d2h-integrity",
                    "%s: D2H chunk %llu failed integrity",
                    name().c_str(),
                    (unsigned long long)rec.chunkId);
                failed.push_back(rec.chunkId);
                st->plain[i].clear(); // still ciphertext; drop it
                return;
            }
            st->ok[i] = 1;
            if (attempt > 0)
                s_.faultsRecovered.inc();
        };
        if (pending.size() == 1) {
            // Single record: parallelize inside the payload.
            openOne(pending[0], width);
            commitOne(pending[0]);
        } else if (!pending.empty()) {
            pool.runJobs(
                pending.size(), width,
                [&](std::size_t k) { openOne(pending[k], 1); },
                [&](std::size_t k) { commitOne(pending[k]); });
        }
    }

    if (!failed.empty() && retryEnabled() &&
        attempt < config_.retry.maxReadRetries) {
        // The ciphertext in the bounce buffer was tampered with in
        // flight: ask the controller to replay the affected chunks
        // from its pristine buffer, then re-read and retry.
        for (std::uint64_t chunkId : failed) {
            Bytes v(8);
            storeLe64(v.data(), chunkId);
            writeSigned(mm::kScMmio.base + mm::screg::kChunkRetry,
                        std::move(v));
        }
        s_.d2hChunkRetries.inc(failed.size());
        if (tracer_->enabled())
            tracer_->instant(traceTrack(), "d2h.chunk_retry",
                             curTick());
        Tick wait =
            config_.retry.timeoutFor(config_.retry.ackTimeout, attempt);
        eventq().scheduleIn(wait, [this, st, attempt] {
            attemptDecrypt(st, attempt + 1);
        });
        return;
    }
    if (!failed.empty())
        s_.faultsFatal.inc(failed.size());

    Bytes plaintext;
    if (!st->out.empty()) {
        // Zero-copy path: the records opened in place at their final
        // offsets. Steady state (every chunk verified, full
        // coverage) hands the buffer over without touching it; the
        // rare failure/shortfall case compacts to the same
        // ok-chunks-only byte stream the staged path produces.
        std::uint64_t okBytes = 0;
        bool allOk = !st->recs.empty();
        for (std::size_t i = 0; i < st->recs.size(); ++i) {
            if (st->ok[i])
                okBytes += st->recs[i].length;
            else
                allOk = false;
        }
        if (allOk && okBytes == st->length) {
            plaintext = std::move(st->out);
        } else {
            for (std::size_t i = 0; i < st->recs.size(); ++i) {
                if (!st->ok[i])
                    continue;
                std::uint64_t o =
                    st->recs[i].addr - st->bounceAddr;
                plaintext.insert(
                    plaintext.end(), st->out.begin() + o,
                    st->out.begin() + o + st->recs[i].length);
            }
        }
    } else {
        for (std::size_t i = 0; i < st->recs.size(); ++i) {
            if (!st->ok.empty() && st->ok[i]) {
                plaintext.insert(plaintext.end(),
                                 st->plain[i].begin(),
                                 st->plain[i].end());
            }
        }
    }
    s_.d2hBytes.inc(st->length);
    s_.d2hCollectTicks.sample(curTick() - st->startTick);
    if (tracer_->enabled())
        tracer_->complete(traceTrack(), "d2h.collect", st->startTick,
                          curTick() - st->startTick);
    st->done(std::move(plaintext));
}

void
Adaptor::fetchRecordsBatched(
    std::uint64_t expectChunks,
    std::function<void(std::vector<ChunkRecord>)> done)
{
    (void)expectChunks;
    // Flush any records still accumulating on the controller, then
    // read the ring tail (one I/O read — it doubles as the
    // round-trip sync: the completion is sequenced on the tenant ARQ
    // channel behind the slot DMA writes) and reap the fresh slots
    // straight out of the host-memory completion ring.
    writeSigned(mm::kScMmio.base + mm::screg::kMetaDoorbell,
                Bytes(8, 1));
    tvm_.mmioRead(
        mm::kScMmio.base + mm::screg::kRecordCount, 8,
        [this, done = std::move(done)](Bytes payload) {
            s_.ioReads.inc(1);
            // An exhausted read completes as an abort with no data;
            // a tail behind the consumed index is stale. Reap nothing
            // and let the collect's re-fetch loop retry.
            if (payload.size() < 8 ||
                loadLe64(payload.data()) < metaHead_) {
                s_.recordFetchAborts.inc();
                done({});
                return;
            }
            const std::uint64_t tail = loadLe64(payload.data());

            const pcie::AddrRange win = config_.metaWindow;
            const std::uint64_t nslots =
                mm::metaring::slotCount(win.size);
            // Ring occupancy at reap time: produced-but-unconsumed
            // slots. High percentiles near nslots mean the consumer
            // is the bottleneck (producer hitting backpressure).
            s_.metaRingOccupancy.sample(tail - metaHead_);
            // Pinned ring: deserialize from the stable arena
            // pointer; unpinned fixtures copy each slot out of the
            // sparse store.
            const std::uint8_t *ring =
                tvm_.memory().raw(win.base, win.size);
            std::vector<ChunkRecord> records;
            records.reserve(tail - metaHead_);
            for (std::uint64_t idx = metaHead_; idx < tail; ++idx) {
                std::uint64_t off =
                    mm::metaring::slotOffset(idx, nslots);
                Bytes slot =
                    ring ? Bytes(ring + off,
                                 ring + off + ChunkRecord::kWireBytes)
                         : tvm_.memory().read(
                               win.base + off,
                               ChunkRecord::kWireBytes);
                records.push_back(ChunkRecord::deserialize(slot));
            }

            if (tail != metaHead_) {
                // Post the consumed index (posted signed write):
                // the producer's backpressure signal, freeing the
                // slots for reuse.
                metaHead_ = tail;
                Bytes head(8);
                storeLe64(head.data(), metaHead_);
                writeSigned(mm::kScMmio.base + mm::screg::kRingHead,
                            std::move(head));
            }
            done(std::move(records));
        });
}

void
Adaptor::fetchRecordsMmio(
    std::function<void(std::vector<ChunkRecord>)> done)
{
    tvm_.mmioRead(
        mm::kScMmio.base + mm::screg::kRecordCount, 8,
        [this, done = std::move(done)](Bytes payload) {
            std::uint64_t count =
                payload.size() >= 8 ? loadLe64(payload.data()) : 0;
            s_.ioReads.inc(1);
            fetchOneRecordMmio(0, count, {}, std::move(done));
        });
}

void
Adaptor::fetchOneRecordMmio(
    std::uint64_t index, std::uint64_t count,
    std::vector<ChunkRecord> acc,
    std::function<void(std::vector<ChunkRecord>)> done)
{
    if (index >= count) {
        // Release the records on the controller.
        Bytes ack(8);
        storeLe64(ack.data(), count);
        writeSigned(mm::kScMmio.base + mm::screg::kRecordAck,
                    std::move(ack));
        done(std::move(acc));
        return;
    }
    // One full MMIO round trip per record: this is the redundant
    // I/O-read pattern §5 eliminates.
    Addr addr = mm::kScMmio.base + mm::screg::kRecordWindow +
                index * ChunkRecord::kWireBytes;
    tvm_.mmioRead(addr, ChunkRecord::kWireBytes,
                  [this, index, count, acc = std::move(acc),
                   done = std::move(done)](Bytes payload) mutable {
                      s_.ioReads.inc(1);
                      if (payload.size() != ChunkRecord::kWireBytes) {
                          // Aborted read: release only what arrived.
                          s_.recordFetchAborts.inc();
                          count = index;
                      } else {
                          acc.push_back(
                              ChunkRecord::deserialize(payload));
                          ++index;
                      }
                      fetchOneRecordMmio(index, count, std::move(acc),
                                         std::move(done));
                  });
}

void
Adaptor::refreshPolicy(DoneCb done)
{
    if (!policy_) {
        done();
        return;
    }
    pktFilterManage(*policy_);
    // The controller needs time to rebuild the double-buffered rule
    // tables before the request's transfers may proceed.
    runOnCpu(timing_.policyInstallLatency, std::move(done),
             "policy.install");
}

void
Adaptor::endTask(bool softResetSupported)
{
    Bytes value(8, 0);
    value[0] = softResetSupported ? 1 : 0;
    writeSigned(mm::kScMmio.base + mm::screg::kEndTask,
                std::move(value));
    if (keys_)
        keys_->destroy();
    keys_.reset();
    s_.tasksEnded.inc();
}

void
Adaptor::reset()
{
    abortSession(); // also retires queued CPU continuations
    h2dCursor_ = d2hCursor_ = 0;
    nextChunkId_ = 1;
    metaHead_ = 0;
    metaPending_.clear();
    cpuBusyUntil_ = 0;
    tx_.restart();
    stats_.reset();
}

} // namespace ccai::tvm
