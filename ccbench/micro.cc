/**
 * @file
 * Micro pass of a traced run: one layer function at a time, timed
 * in a loop, with inputs shaped like the workload's. The unit costs
 * feed the estimated host shares of layers that run inside a
 * simulator drain (count x unit cost / wall), which the benchmark
 * cannot time from outside.
 *
 * Input shapes: the HMAC message size and the PCIe-SC classify mix
 * are captured by a bus tap on a separate platform that runs a
 * small slice of the workload (one Llama request for llm-decode and
 * serve-fleet, a few copies for secure-copy); GCM runs on the
 * Adaptor's chunk size; powMod on the trust protocol's DH group;
 * the event, router and admission micros on serve-fleet's shapes.
 */

#include <memory>
#include <string>

#include "bench.hh"
#include "ccai/platform.hh"
#include "crypto/bigint.hh"
#include "crypto/dh.hh"
#include "crypto/gcm.hh"
#include "crypto/sha256.hh"
#include "llm/inference.hh"
#include "pcie/memory_map.hh"
#include "serve/admission.hh"
#include "serve/router.hh"
#include "sim/event_queue.hh"

namespace ccbench
{

namespace
{

/** Seconds each micro loop runs for (at least one iteration). */
constexpr double kLoopSeconds = 0.15;

/** Run @p fn until kLoopSeconds pass; host seconds per call. */
template <class F>
double
perCall(F &&fn)
{
    std::uint64_t calls = 0;
    double t0 = hostNow(), t = t0;
    do {
        fn();
        ++calls;
        t = hostNow();
    } while (t - t0 < kLoopSeconds);
    return (t - t0) / static_cast<double>(calls);
}

/** TLPs crossing the host segment during a slice of @p workload. */
std::vector<ccai::pcie::Tlp>
captureSlice(const std::string &workload, ccai::Platform &p)
{
    namespace mm = ccai::pcie::memmap;
    std::size_t start = p.busTap()->captured().size();
    if (workload == "secure-copy") {
        InputRng rng(42);
        for (std::uint64_t n : {4096ull, 1ull << 20, 4ull << 20}) {
            ccai::Bytes data(n);
            rng.fill(data.data(), n);
            p.runtime().memcpyH2D(mm::kXpuVram.base, data, n, [] {});
            p.run();
            p.runtime().memcpyD2H(mm::kXpuVram.base, n, false,
                                  [](ccai::Bytes) {});
            p.run();
        }
    } else {
        ccai::llm::InferenceConfig inf;
        inf.device = p.config().xpuSpec;
        inf.inTokens = 64;
        ccai::llm::InferenceEngine engine(p.system(), "micro",
                                          p.runtime(), inf);
        engine.run([](ccai::llm::InferenceMetrics) {});
        p.run();
    }
    const auto &all = p.busTap()->captured();
    return {all.begin() + static_cast<std::ptrdiff_t>(start), all.end()};
}

void
tapMicros(const std::string &workload, Report &report)
{
    ccai::PlatformConfig cfg;
    cfg.attachBusTap = true;
    cfg.adaptorConfig.cryptoThreads = 1;
    ccai::Platform p(cfg);
    report.check(p.establishTrust().ok(), "micro: trust failed");
    std::vector<ccai::pcie::Tlp> mix = captureSlice(workload, p);
    report.check(!mix.empty(), "micro: bus tap captured nothing");
    if (mix.empty())
        return;

    // HMAC over the signed-MMIO message: the serialized header plus
    // any materialized payload (the MAC's input in backend/integrity).
    std::vector<double> sizes;
    for (const ccai::pcie::Tlp &t : mix)
        if (!t.integrityTag.empty())
            sizes.push_back(static_cast<double>(
                t.serializeHeader().size() +
                (t.synthetic ? 0 : t.data.size())));
    ccai::Bytes key(32), message(static_cast<std::size_t>(
                             sizes.empty() ? 64.0 : median(sizes)));
    InputRng rng(7);
    rng.fill(key.data(), key.size());
    rng.fill(message.data(), message.size());
    double hmac = perCall([&] {
        ccai::Bytes mac = ccai::crypto::hmacSha256(key, message);
        message[0] ^= mac[0];
    });
    report.set("crypto.hmac_ns", hmac * 1e9);

    ccai::sc::PacketFilter &filter = p.pcieSc()->filter();
    std::size_t i = 0;
    double classify = perCall([&] {
        filter.classify(mix[i]);
        i = (i + 1) % mix.size();
    });
    report.set("sc.classify_ns", classify * 1e9);
}

void
gcmMicros(Report &report)
{
    const std::size_t chunk = ccai::tvm::AdaptorConfig{}.chunkBytes;
    InputRng rng(11);
    ccai::Bytes key(16), iv(ccai::crypto::kGcmIvSize), data(chunk);
    rng.fill(key.data(), key.size());
    rng.fill(iv.data(), iv.size());
    rng.fill(data.data(), data.size());
    ccai::crypto::AesGcm gcm(key);
    std::uint8_t tag[ccai::crypto::kGcmTagSize];
    double seal = 0.0, open = 0.0;
    bool ok = true;
    std::uint64_t rounds = 0;
    double t0 = hostNow();
    while (hostNow() - t0 < 2 * kLoopSeconds) {
        double a = hostNow();
        gcm.sealInPlace(iv, data.data(), data.size(), nullptr, 0, tag);
        double b = hostNow();
        ok = gcm.openInPlace(iv, data.data(), data.size(), tag, nullptr,
                             0) &&
             ok;
        double c = hostNow();
        seal += b - a;
        open += c - b;
        ++rounds;
    }
    report.check(ok, "micro: GCM open rejected its own seal");
    double bytes = static_cast<double>(chunk * rounds);
    report.set("crypto.gcm_seal_mbps", bytes / seal / 1e6);
    report.set("crypto.gcm_open_mbps", bytes / open / 1e6);
}

void
powModMicro(Report &report)
{
    const ccai::crypto::DhGroup &group = ccai::crypto::DhGroup::standard();
    InputRng rng(13);
    ccai::Bytes raw(32);
    rng.fill(raw.data(), raw.size());
    ccai::crypto::BigInt exponent = ccai::crypto::BigInt::fromBytes(raw);
    double t = perCall([&] {
        ccai::crypto::BigInt r = group.g.powMod(exponent, group.p);
        exponent = r;
    });
    report.set("crypto.powmod_ms", t * 1e3);
}

/**
 * The event kernel under serve-shaped timers: 10k owned timers
 * (one per tenant) that re-arm themselves at seeded gaps, and every
 * fourth dispatch re-arms another timer early, the way the serve
 * layer moves device step and retry timers.
 */
void
eventMicro(Report &report)
{
    constexpr std::size_t kTimers = 10000;
    constexpr std::uint64_t kDispatches = 400000;
    ccai::sim::EventQueue q;
    InputRng rng(17);
    std::vector<ccai::Tick> gaps(4096);
    for (ccai::Tick &g : gaps)
        g = 1 + rng.below(10 * ccai::kTicksPerMs);
    std::vector<std::unique_ptr<ccai::sim::EventFunctionWrapper>> timers;
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < kTimers; ++i) {
        timers.push_back(
            std::make_unique<ccai::sim::EventFunctionWrapper>());
        ccai::sim::EventFunctionWrapper *self = timers.back().get();
        self->setCallback([&, self] {
            ++n;
            q.schedule(self, q.now() + gaps[n % gaps.size()]);
            if (n % 4 == 0) {
                auto *other = timers[(n * 7919) % kTimers].get();
                if (other != self)
                    q.reschedule(other,
                                 q.now() + gaps[(n * 31) % gaps.size()]);
            }
        });
        q.schedule(self, gaps[i % gaps.size()]);
    }
    double t0 = hostNow();
    std::uint64_t ran = q.run(kDispatches);
    double dt = hostNow() - t0;
    for (auto &t : timers)
        if (t->scheduled())
            q.deschedule(t.get());
    report.set("sim.event_ns", ran ? dt / static_cast<double>(ran) * 1e9
                                   : 0.0);
}

void
serveMicros(Report &report)
{
    constexpr std::uint32_t kDevices = 1000;
    InputRng rng(19);
    ccai::serve::FleetRouter router(kDevices);
    std::vector<ccai::Tick> estimate(kDevices);
    for (std::uint32_t d = 0; d < kDevices; ++d) {
        estimate[d] = 50 * ccai::kTicksPerMs + rng.below(400) *
                                                   ccai::kTicksPerMs;
        router.device(d).backlogTicks = rng.below(2 * ccai::kTicksPerSec);
    }
    std::function<ccai::Tick(std::uint32_t)> est =
        [&](std::uint32_t d) { return estimate[d]; };
    double pick = perCall([&] {
        std::optional<std::uint32_t> d = router.pick(est);
        if (d)
            router.device(*d).backlogTicks += estimate[*d];
    });
    report.set("serve.router_pick_us", pick * 1e6);

    ccai::serve::AdmissionConfig cfg;
    cfg.enabled = true;
    cfg.tokenRatePerSec = 0.13;
    cfg.tokenBurst = 4.0;
    cfg.maxQueueDepth = 3;
    cfg.deadlineShedding = true;
    ccai::serve::AdmissionController admission(cfg, 10000);
    std::uint64_t k = 0;
    double admit = perCall([&] {
        ccai::serve::AdmitContext ctx;
        ctx.tenant = static_cast<std::uint32_t>(k % 10000);
        ctx.now = k * 100 * ccai::kTicksPerUs;
        ctx.deviceAvailable = true;
        ctx.queueDepth = static_cast<std::uint32_t>(k % 4);
        ctx.estimatedCompletion = ctx.now + estimate[k % kDevices];
        ctx.deadline = ctx.now + 6 * ccai::kTicksPerSec;
        admission.decide(ctx);
        ++k;
    });
    report.set("serve.admit_ns", admit * 1e9);
}

} // namespace

void
runMicroPass(const std::string &workload, Report &report)
{
    tapMicros(workload, report);
    gcmMicros(report);
    powModMicro(report);
    eventMicro(report);
    serveMicros(report);
}

} // namespace ccbench
