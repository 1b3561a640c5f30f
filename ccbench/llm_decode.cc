/**
 * @file
 * llm-decode: closed loop, one client, one tenant. Llama-2-7B chat
 * requests at the leading Fig-8 points (prompt {64,128,256,512} x
 * batch {1,3,6,12}) run back to back through
 * llm::InferenceEngine::run on a secure ccAI A100 platform; the same
 * sequence runs once on a vanilla platform for the overhead.
 *
 * Each pass issues all sixteen points once, in an order drawn from
 * the seed and with a response length of the chat default plus 0-3
 * seeded tokens, so every seed measures nearly the same mix: the sim
 * metrics differ a little between seeds, and the host metrics
 * compare like with like. The control path dominates:
 * tens of thousands of HMAC-signed MMIO writes per request, while
 * the logits and tokens are synthetic payloads (almost no bulk GCM
 * and no ARQ retransmission).
 */

#include <memory>
#include <string>

#include "bench.hh"
#include "ccai/platform.hh"
#include "llm/inference.hh"
#include "platform_layers.hh"

namespace ccbench
{

namespace
{

struct Point
{
    std::uint32_t inTokens;
    std::uint32_t batch;
    std::uint32_t outTokens;
};

std::vector<Point>
requestSequence(std::uint64_t seed)
{
    InputRng rng(deriveSeed(seed, 1));
    std::vector<Point> seq;
    for (std::uint32_t tokens : {64u, 128u, 256u, 512u})
        for (std::uint32_t batch : {1u, 3u, 6u, 12u}) {
            // The Fig-8 chat response length (prompt / 2 + 128) plus
            // 0-3 seeded tokens, so responses vary a little by seed.
            std::uint32_t out =
                tokens / 2 + 128 + static_cast<std::uint32_t>(rng.below(4));
            seq.push_back({tokens, batch, out});
        }
    rng.shuffle(seq);
    return seq;
}

/** One request's simulated outcome. */
struct Outcome
{
    bool done = false;
    ccai::llm::InferenceMetrics m;

    bool
    operator==(const Outcome &o) const
    {
        return done == o.done && m.e2eSeconds == o.m.e2eSeconds &&
               m.ttftSeconds == o.m.ttftSeconds && m.tps == o.m.tps &&
               m.decodeSteps == o.m.decodeSteps &&
               m.kernelLaunches == o.m.kernelLaunches;
    }
};

/** A platform with trust established and the model resident. */
struct Rig
{
    std::unique_ptr<ccai::Platform> platform;
    bool trusted = false;
    double buildSeconds = 0.0;
    double trustSeconds = 0.0;
    double loadSeconds = 0.0;
};

Rig
buildRig(bool secure, std::uint64_t seed, Spans &spans)
{
    Rig rig;
    ccai::PlatformConfig cfg;
    cfg.secure = secure;
    cfg.seed = deriveSeed(seed, 2);
    double t0 = hostNow();
    {
        Spans::Scope s(spans, "platform_build", "ccai");
        rig.platform = std::make_unique<ccai::Platform>(cfg);
    }
    double t1 = hostNow();
    {
        Spans::Scope s(spans, "establish_trust", "trust");
        rig.trusted = rig.platform->establishTrust().ok();
    }
    double t2 = hostNow();
    {
        Spans::Scope s(spans, "model_load", "llm");
        ccai::llm::InferenceConfig inf;
        inf.device = cfg.xpuSpec;
        ccai::llm::InferenceEngine loader(rig.platform->system(),
                                          "loader",
                                          rig.platform->runtime(), inf);
        loader.loadModel([] {});
        rig.platform->run();
    }
    double t3 = hostNow();
    rig.buildSeconds = t1 - t0;
    rig.trustSeconds = t2 - t1;
    rig.loadSeconds = t3 - t2;
    return rig;
}

/** Run the sequence on @p rig; host seconds per request appended. */
std::vector<Outcome>
runSequence(Rig &rig, const std::vector<Point> &seq, HostMeter *meter,
            std::vector<double> &hostSeconds, Spans &spans,
            const char *spanName)
{
    std::vector<Outcome> out(seq.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
        ccai::llm::InferenceConfig inf;
        inf.device = rig.platform->config().xpuSpec;
        inf.inTokens = seq[i].inTokens;
        inf.batch = seq[i].batch;
        inf.outTokens = seq[i].outTokens;
        Outcome &o = out[i];
        auto request = [&] {
            Spans::Scope s(spans, spanName, "llm", spans.newId());
            ccai::llm::InferenceEngine engine(
                rig.platform->system(), "req" + std::to_string(i),
                rig.platform->runtime(), inf);
            engine.run([&o](ccai::llm::InferenceMetrics m) {
                o.done = true;
                o.m = m;
            });
            rig.platform->run();
        };
        double t0 = hostNow();
        if (meter)
            meter->measure(request);
        else
            request();
        hostSeconds.push_back(hostNow() - t0);
    }
    return out;
}

} // namespace

void
runLlmDecode(const Options &opt, Report &report, Spans &spans)
{
    const std::vector<Point> seq = requestSequence(opt.seed);

    std::vector<double> setup, build, trust, load, secureHost,
        vanillaHost;
    std::vector<Outcome> firstSecure, vanilla;

    auto onePass = [&](int pass, HostMeter &meter) {
        Rig rig;
        setup.push_back(
            meter.setUp([&] { rig = buildRig(true, opt.seed, spans); }));
        build.push_back(rig.buildSeconds);
        trust.push_back(rig.trustSeconds);
        load.push_back(rig.loadSeconds);
        report.check(rig.trusted, "secure trust establishment failed");

        LayerSnapshot pre = snapshotLayers(*rig.platform);
        std::vector<Outcome> out = runSequence(
            rig, seq, &meter, secureHost, spans, "request.secure");
        report.attempted += out.size();

        Spans::Scope check(spans, "check", "bench");
        for (std::size_t i = 0; i < out.size(); ++i)
            report.check(out[i].done, "secure request " +
                                          std::to_string(i) +
                                          " did not complete");
        if (pass == 0) {
            firstSecure = out;
            reportLayers(pre, snapshotLayers(*rig.platform),
                         *rig.platform, report);
            return;
        }
        report.check(out == firstSecure,
                     "pass " + std::to_string(pass) +
                         " simulated results differ from pass 0");
    };
    PassLog log =
        runPasses(opt, spans, HostMeter::Reference::Events, onePass);
    reportHostTime(log, report);

    // The vanilla baseline: the same sequence once, off the clock.
    {
        Rig rig = buildRig(false, opt.seed, spans);
        report.check(rig.trusted, "vanilla trust establishment failed");
        vanilla = runSequence(rig, seq, nullptr, vanillaHost, spans,
                              "request.vanilla");
        report.attempted += vanilla.size();
    }

    double secureSum = 0.0, vanillaSum = 0.0;
    std::vector<double> e2e, ttft, tps;
    double steps = 0.0, kernels = 0.0;
    for (std::size_t i = 0; i < seq.size(); ++i) {
        const Outcome &s = firstSecure[i];
        const Outcome &v = vanilla[i];
        report.check(v.done, "vanilla request " + std::to_string(i) +
                                 " did not complete");
        report.check(s.m.decodeSteps == v.m.decodeSteps &&
                         s.m.kernelLaunches == v.m.kernelLaunches,
                     "request " + std::to_string(i) +
                         ": secure and vanilla disagree on decode "
                         "steps or kernel launches");
        secureSum += s.m.e2eSeconds;
        vanillaSum += v.m.e2eSeconds;
        e2e.push_back(s.m.e2eSeconds);
        ttft.push_back(s.m.ttftSeconds);
        tps.push_back(s.m.tps);
        steps += static_cast<double>(s.m.decodeSteps);
        kernels += static_cast<double>(s.m.kernelLaunches);
    }

    report.set("setup_s", median(setup));
    report.set("sim_overhead_pct",
               vanillaSum > 0 ? 100.0 * (secureSum / vanillaSum - 1.0)
                              : 0.0);
    report.set("sim_latency_p50_ms", median(e2e) * 1e3);

    report.set("ccai.platform_build_s", median(build));
    report.set("trust.establish_s", median(trust));
    report.set("llm.model_load_s", median(load));
    report.set("llm.secure_request_ms_p50", median(secureHost) * 1e3);
    report.set("llm.vanilla_request_ms_p50", median(vanillaHost) * 1e3);
    report.set("llm.requests", static_cast<double>(seq.size()));
    report.set("llm.decode_steps", steps);
    report.set("llm.kernel_launches", kernels);
    report.set("llm.sim_ttft_p50_ms", median(ttft) * 1e3);
    report.set("llm.sim_tps_p50", median(tps));
}

} // namespace ccbench
