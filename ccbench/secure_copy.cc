/**
 * @file
 * secure-copy: closed loop, one client. Copies of real payloads,
 * each memcpyH2D followed by a memcpyD2H readback of the same region,
 * on a secure platform; the same copies run once on a vanilla
 * platform for the overhead, and once on a secure platform whose
 * host<->PCIe-SC segment carries a seeded pcie::FaultConfig::uniform
 * schedule, for the ARQ layer and the recovery checks.
 *
 * Sizes are log-uniform from 4 KiB to 64 MiB, stratified: one copy
 * per octave, each shrunk by a seeded fraction of at most 1/32
 * octave and rounded to 4 KiB, in a seeded order. Every seed thus
 * moves nearly the same bytes, so simulated throughput and latency
 * are comparable across seeds while payload bytes, order and fault
 * schedule still come from the seed.
 *
 * This is the data-plane workload: Adaptor seal/open, PCIe-SC A2
 * crypto, TLPs and links, xPU DMA and ARQ recovery, with few MMIO
 * writes per byte.
 */

#include <cmath>
#include <memory>
#include <optional>
#include <string>

#include "bench.hh"
#include "ccai/platform.hh"
#include "pcie/memory_map.hh"
#include "platform_layers.hh"

namespace ccbench
{

namespace
{

/**
 * Fault rate on the exposed segment. At this rate every fault heals
 * and a 64 MiB round trip takes about 1% longer in simulated time
 * on most seeds; at 0.2% and 0.5% single recovery stalls stretch one
 * 64 MiB readback by up to 8x, so the workload would measure mostly
 * recovery timers (see README.md).
 */
constexpr double kFaultRate = 0.001;

std::vector<std::uint64_t>
copySizes(std::uint64_t seed)
{
    InputRng rng(deriveSeed(seed, 4));
    std::vector<std::uint64_t> sizes;
    for (int octave = 12; octave <= 26; ++octave) { // 4 KiB .. 64 MiB
        double exponent = octave - rng.unit() / 32.0;
        auto bytes = static_cast<std::uint64_t>(std::exp2(exponent));
        sizes.push_back(std::max<std::uint64_t>(4096, bytes & ~4095ull));
    }
    rng.shuffle(sizes);
    return sizes;
}

struct Copy
{
    double h2dSim = 0.0; ///< simulated seconds
    double d2hSim = 0.0;
    bool ok = false;

    bool
    operator==(const Copy &o) const
    {
        return h2dSim == o.h2dSim && d2hSim == o.d2hSim && ok == o.ok;
    }
};

ccai::PlatformConfig
platformConfig(bool secure, std::uint64_t seed)
{
    ccai::PlatformConfig cfg;
    cfg.secure = secure;
    cfg.seed = deriveSeed(seed, 5);
    // The shared crypto worker pool can hang or abort when a worker
    // touches a finished batch (see README.md), so the Adaptor
    // seals and opens on the calling thread.
    cfg.adaptorConfig.cryptoThreads = 1;
    return cfg;
}

/**
 * Run every copy once on @p platform. With a @p meter, the H2D and
 * D2H calls (each with its drain) are timed as measured work.
 */
std::vector<Copy>
runCopies(ccai::Platform &platform,
          const std::vector<std::uint64_t> &sizes,
          const std::vector<ccai::Bytes> &payloads, HostMeter *meter,
          bool corruptFirst, Spans &spans, double &h2dHost,
          double &d2hHost)
{
    namespace mm = ccai::pcie::memmap;
    std::vector<Copy> out(sizes.size());
    ccai::tvm::Runtime &rt = platform.runtime();
    auto timed = [&](auto &&fn) {
        return meter ? meter->measure(fn) : (fn(), 0.0);
    };
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        std::uint64_t n = sizes[i];
        std::uint64_t id = spans.newId();
        Spans::Scope transfer(spans, "transfer", "bench", id);
        // memcpyH2D takes the payload by value: copy it before the
        // clock starts, so the timed call is the library's work only.
        std::optional<ccai::Bytes> payload = payloads[i];
        ccai::Tick t0 = platform.system().now();
        h2dHost += timed([&] {
            Spans::Scope s(spans, "memcpy_h2d", "tvm", id);
            rt.memcpyH2D(mm::kXpuVram.base, std::move(payload), n, [] {});
            platform.run();
        });
        ccai::Tick t1 = platform.system().now();
        ccai::Bytes readback;
        d2hHost += timed([&] {
            Spans::Scope s(spans, "memcpy_d2h", "tvm", id);
            rt.memcpyD2H(mm::kXpuVram.base, n, false,
                         [&readback](ccai::Bytes b) {
                             readback = std::move(b);
                         });
            platform.run();
        });
        ccai::Tick t2 = platform.system().now();
        Spans::Scope check(spans, "compare", "bench", id);
        if (corruptFirst && i == 0) {
            ccai::Bytes expected = payloads[i];
            expected[expected.size() / 2] ^= 0x5A;
            out[i].ok = readback == expected;
        } else {
            out[i].ok = readback == payloads[i];
        }
        out[i].h2dSim = ccai::ticksToSeconds(t1 - t0);
        out[i].d2hSim = ccai::ticksToSeconds(t2 - t1);
    }
    return out;
}

/** Output checks of one secure run of the copies. */
void
checkSecureCopies(const std::vector<Copy> &out,
                  const std::vector<std::uint64_t> &sizes,
                  const LayerSnapshot &pre, const LayerSnapshot &post,
                  const std::string &label, Report &report)
{
    for (std::size_t i = 0; i < out.size(); ++i)
        report.check(out[i].ok, "copy " + std::to_string(i) + " (" +
                                    std::to_string(sizes[i]) +
                                    " B) read back different bytes" +
                                    label);
    auto delta = [&](const char *k) { return post.at(k) - pre.at(k); };
    report.check(delta("faults_fatal") == 0, "fatal faults" + label);
    report.check(delta("stage_copies") == 0,
                 "staged copies on the zero-copy path" + label);
    report.check(delta("blocked") == 0, "PCIe-SC blocked TLPs" + label);
    // Every injected fault is accounted for when none was fatal and
    // the bytes match: the library keeps no per-fault ledger to
    // equate injected with recovered. A fault is healed by ARQ
    // (faults_recovered counts the retransmitted packets then
    // acknowledged), absorbed without recovery (a delay, a reorder,
    // a duplicate, or a lost ack covered by a later cumulative ack),
    // or fatal.
    report.check(delta("integrity_failures") == 0,
                 "integrity failures" + label);
}

} // namespace

void
runSecureCopy(const Options &opt, Report &report, Spans &spans)
{
    const std::vector<std::uint64_t> sizes = copySizes(opt.seed);
    std::vector<ccai::Bytes> payloads;
    double totalBytes = 0.0;
    {
        InputRng rng(deriveSeed(opt.seed, 6));
        for (std::uint64_t n : sizes) {
            payloads.emplace_back(n);
            rng.fill(payloads.back().data(), n);
            totalBytes += static_cast<double>(n);
        }
    }
    std::vector<double> setup, build, trust, h2dPerMib, d2hPerMib;
    std::vector<Copy> first;

    auto onePass = [&](int pass, HostMeter &meter) {
        std::unique_ptr<ccai::Platform> platform;
        bool trusted = false;
        setup.push_back(meter.setUp([&] {
            double t0 = hostNow();
            {
                Spans::Scope s(spans, "platform_build", "ccai");
                platform = std::make_unique<ccai::Platform>(
                    platformConfig(true, opt.seed));
            }
            double t1 = hostNow();
            {
                Spans::Scope s(spans, "establish_trust", "trust");
                trusted = platform->establishTrust().ok();
            }
            build.push_back(t1 - t0);
            trust.push_back(hostNow() - t1);
        }));
        report.check(trusted, "trust establishment failed");

        LayerSnapshot pre = snapshotLayers(*platform);
        double h2dHost = 0.0, d2hHost = 0.0;
        std::vector<Copy> out =
            runCopies(*platform, sizes, payloads, &meter,
                      opt.corruptCompare && pass == 0, spans, h2dHost,
                      d2hHost);
        LayerSnapshot post = snapshotLayers(*platform);
        report.attempted += out.size();
        h2dPerMib.push_back(h2dHost * 1e3 / (totalBytes / ccai::kMiB));
        d2hPerMib.push_back(d2hHost * 1e3 / (totalBytes / ccai::kMiB));

        Spans::Scope check(spans, "check", "bench");
        checkSecureCopies(out, sizes, pre, post, "", report);
        if (pass == 0) {
            first = out;
            return;
        }
        report.check(out == first, "pass " + std::to_string(pass) +
                                       " simulated results differ "
                                       "from pass 0");
    };
    PassLog log =
        runPasses(opt, spans, HostMeter::Reference::EventsAndBytes, onePass);
    reportHostTime(log, report);

    // Off the clock: the same copies once on a vanilla platform (the
    // overhead's baseline) and once under the fault schedule. A
    // recovery stall stretches whichever copy it hits, by up to
    // several times, and which copy that is depends on the seed; so
    // the faulted run feeds the output checks and the per-layer
    // counts (ARQ included), not the end-to-end figures.
    std::vector<Copy> vanilla;
    {
        ccai::Platform platform(platformConfig(false, opt.seed));
        report.check(platform.establishTrust().ok(),
                     "vanilla trust establishment failed");
        double unusedH2d = 0.0, unusedD2h = 0.0;
        vanilla = runCopies(platform, sizes, payloads, nullptr, false,
                            spans, unusedH2d, unusedD2h);
        report.attempted += vanilla.size();
    }
    {
        ccai::Platform platform(platformConfig(true, opt.seed));
        report.check(platform.establishTrust().ok(),
                     "trust establishment failed (faulted run)");
        platform.setHostLinkFaults(ccai::pcie::FaultConfig::uniform(
            deriveSeed(opt.seed, 7), kFaultRate));
        LayerSnapshot pre = snapshotLayers(platform);
        double unusedH2d = 0.0, unusedD2h = 0.0;
        std::vector<Copy> out =
            runCopies(platform, sizes, payloads, nullptr, false, spans,
                      unusedH2d, unusedD2h);
        LayerSnapshot post = snapshotLayers(platform);
        report.attempted += out.size();
        checkSecureCopies(out, sizes, pre, post, " under faults", report);
        reportLayers(pre, post, platform, report);
    }

    double secureSum = 0.0, vanillaSum = 0.0;
    std::vector<double> latency;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        report.check(vanilla[i].ok, "vanilla copy " + std::to_string(i) +
                                        " read back different bytes");
        double s = first[i].h2dSim + first[i].d2hSim;
        secureSum += s;
        vanillaSum += vanilla[i].h2dSim + vanilla[i].d2hSim;
        latency.push_back(s);
    }

    report.set("setup_s", median(setup));
    report.set("sim_overhead_pct",
               vanillaSum > 0 ? 100.0 * (secureSum / vanillaSum - 1.0)
                              : 0.0);
    report.set("sim_latency_p50_ms", median(latency) * 1e3);

    report.set("ccai.platform_build_s", median(build));
    report.set("trust.establish_s", median(trust));
    report.set("tvm.h2d_ms_per_mib", median(h2dPerMib));
    report.set("tvm.d2h_ms_per_mib", median(d2hPerMib));
    report.set("tvm.sim_gbps", 2.0 * totalBytes / secureSum / 1e9);
    report.set("_gcm_bytes", 2.0 * totalBytes);
}

} // namespace ccbench
