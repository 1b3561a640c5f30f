/**
 * @file
 * serve-fleet: open loop in simulated time. serve::LoadGenerator
 * drives 10k tenants on a 1,000-device fleet (XpuSpec::all() x 200)
 * with the overload-robust control plane on (admission, deadline
 * shedding, retry, least-loaded routing; no crashes), once at each
 * offered-load step of 0.5, 0.8, 1.0 and 1.5 x the fleet's roofline
 * capacity, plus the 0.5 step on a vanilla fleet for the overhead.
 *
 * No Platform is built, so there is no crypto and no TLP: this
 * workload isolates the event kernel and the serve layer. Arrivals
 * are scheduled in simulated time, so the generator is never late.
 */

#include <memory>
#include <string>

#include "bench.hh"
#include "metrics.hh"
#include "serve/load_generator.hh"
#include "sim/sim_object.hh"

namespace ccbench
{

namespace
{

constexpr double kTtftLimitSec = 0.5;

ccai::serve::ServeConfig
baseConfig(std::uint64_t seed)
{
    ccai::serve::ServeConfig cfg;
    cfg.tenants = 10000;
    cfg.seed = deriveSeed(seed, 3);
    cfg.horizon = 5 * ccai::kTicksPerSec;
    cfg.profile.promptTokens = 128;
    cfg.profile.genTokens = 32;
    cfg.profile.sloDeadline = 6 * ccai::kTicksPerSec;
    for (int g = 0; g < 200; ++g)
        cfg.fleet.insert(cfg.fleet.end(),
                         ccai::xpu::XpuSpec::all().begin(),
                         ccai::xpu::XpuSpec::all().end());
    return cfg;
}

/** The "controlled" plane of bench_serve_chaos at @p rate req/s. */
ccai::serve::ServeConfig
stepConfig(const ccai::serve::ServeConfig &base, double capacity,
           double factor)
{
    ccai::serve::ServeConfig cfg = base;
    cfg.profile.aggregateRatePerSec = capacity * factor;
    cfg.leastLoadedRouting = true;
    cfg.admission.enabled = true;
    cfg.admission.tokenRatePerSec = 1.2 * capacity / cfg.tenants;
    cfg.admission.tokenBurst = 4.0;
    cfg.admission.maxQueueDepth = 3;
    cfg.admission.deadlineShedding = true;
    cfg.retry.enabled = true;
    cfg.retry.maxAttempts = 3;
    cfg.retry.baseBackoff = 20 * ccai::kTicksPerMs;
    cfg.retry.maxBackoff = 500 * ccai::kTicksPerMs;
    cfg.healthProbeInterval = 100 * ccai::kTicksPerMs;
    return cfg;
}

/** One ladder step's simulated outcome. */
struct Step
{
    ccai::serve::ServeReport rep;
    std::uint64_t events = 0;
    std::uint64_t cancelled = 0;
    /** Interpolated p50 of the serve layer's e2e_ticks histogram. */
    double e2eP50 = 0.0;
    /** TTFT of admitted requests at percentile q, for the SLO test. */
    double ttftAtQ = 0.0;
    bool meetsLimit = false;

    bool
    operator==(const Step &o) const
    {
        const auto &a = rep, &b = o.rep;
        return events == o.events && e2eP50 == o.e2eP50 &&
               a.issued == b.issued && a.arrivals == b.arrivals &&
               a.admitted == b.admitted && a.completed == b.completed &&
               a.shedOnAdmit == b.shedOnAdmit &&
               a.shedOnDeadline == b.shedOnDeadline &&
               a.retries == b.retries && a.ttftP99 == b.ttftP99 &&
               a.e2eP50 == b.e2eP50;
    }
};

/** One ladder step's simulator and generator, built at set-up. */
struct StepRig
{
    ccai::sim::System sys;
    std::unique_ptr<ccai::serve::LoadGenerator> gen;
    const char *name = "";
};

std::unique_ptr<StepRig>
buildStep(const ccai::serve::ServeConfig &cfg, const char *name,
          Spans &spans)
{
    Spans::Scope s(spans, "generator_build", "serve");
    auto rig = std::make_unique<StepRig>();
    rig->name = name;
    rig->gen =
        std::make_unique<ccai::serve::LoadGenerator>(rig->sys, name, cfg);
    return rig;
}

/** Run one step to drain; with a @p meter, timed as measured work. */
Step
runStep(StepRig &rig, HostMeter *meter, Spans &spans,
        double &hostSeconds)
{
    auto run = [&] {
        Spans::Scope s(spans, rig.name, "serve", spans.newId());
        rig.gen->start();
        rig.sys.eventq().run();
    };
    hostSeconds = meter ? meter->measure(run) : (run(), 0.0);

    Step st;
    st.rep = rig.gen->report();
    st.events = rig.sys.eventq().statDispatched();
    st.cancelled = rig.sys.eventq().statCancelled();
    const ccai::obs::MetricGroup *g = rig.sys.metrics().find(rig.name);
    const ccai::obs::Histogram &e2e = g->histograms().at("e2e_ticks");
    st.e2eP50 = ccai::ticksToSeconds(1) * e2e.p50();
    // Shed requests count as missing the limit: over all arrivals,
    // the p99 meets it when at most 1% were shed and the admitted
    // percentile that p99 maps to meets it.
    double arrivals = static_cast<double>(st.rep.arrivals);
    double shed = static_cast<double>(st.rep.shedOnAdmit +
                                      st.rep.shedOnDeadline);
    double shedFrac = arrivals > 0 ? shed / arrivals : 1.0;
    if (shedFrac <= 0.01) {
        double q = 100.0 * (0.99 - shedFrac) / (1.0 - shedFrac);
        st.ttftAtQ = ccai::ticksToSeconds(1) *
                     g->histograms().at("ttft_ticks").percentile(q);
        st.meetsLimit = st.ttftAtQ <= kTtftLimitSec;
    }
    return st;
}

} // namespace

void
runServeFleet(const Options &opt, Report &report, Spans &spans)
{
    const ccai::serve::ServeConfig base = baseConfig(opt.seed);
    const auto &ladder = serveLadder();

    std::vector<double> setup, capacities;
    std::vector<std::vector<double>> stepHost(ladder.size());
    std::vector<Step> first;
    Step vanilla50;

    auto onePass = [&](int pass, HostMeter &meter) {
        double capacity = 0.0;
        std::vector<std::unique_ptr<StepRig>> rigs;
        setup.push_back(meter.setUp([&] {
            {
                Spans::Scope s(spans, "capacity_probe", "serve");
                ccai::sim::System sys;
                ccai::serve::LoadGenerator probe(sys, "capacity", base);
                for (std::uint32_t d = 0; d < base.fleet.size(); ++d)
                    capacity += 1.0 / ccai::ticksToSeconds(
                                          probe.serviceEstimate(d));
            }
            for (const LoadStep &step : ladder)
                rigs.push_back(buildStep(
                    stepConfig(base, capacity, step.factor), step.name,
                    spans));
        }));
        capacities.push_back(capacity);

        std::vector<Step> steps;
        for (std::size_t k = 0; k < ladder.size(); ++k) {
            double host = 0.0;
            steps.push_back(runStep(*rigs[k], &meter, spans, host));
            stepHost[k].push_back(host);
            report.attempted += steps.back().rep.arrivals;
        }

        Spans::Scope check(spans, "check", "bench");
        for (std::size_t k = 0; k < steps.size(); ++k) {
            const ccai::serve::ServeReport &r = steps[k].rep;
            std::string at = std::string(" at ") + ladder[k].name;
            // The control plane's three ledger conservation laws.
            report.check(r.arrivals == r.admitted + r.shedOnAdmit,
                         "arrivals != admitted + shed_on_admit" + at);
            report.check(r.issued == r.arrivals + r.retries,
                         "issued != arrivals + retries" + at);
            report.check(r.admitted == r.completed + r.shedOnDeadline,
                         "admitted != completed + shed_on_deadline" +
                             at);
        }
        if (pass == 0) {
            first = steps;
            return;
        }
        report.check(steps == first, "pass " + std::to_string(pass) +
                                         " simulated results differ "
                                         "from pass 0");
    };
    PassLog log =
        runPasses(opt, spans, HostMeter::Reference::Events, onePass);
    reportHostTime(log, report);

    // The vanilla fleet at the 0.5 step, once, off the clock. Secure
    // and vanilla fleets admit different requests, so the overhead
    // compares median latencies, at the lightest step: at 0.5 the
    // mean moved by a fifth between seeds with its queueing tail.
    {
        ccai::serve::ServeConfig cfg =
            stepConfig(base, capacities.front(), 0.5);
        cfg.secure = false;
        double unused = 0.0;
        std::unique_ptr<StepRig> rig = buildStep(cfg, "vanilla50", spans);
        vanilla50 = runStep(*rig, nullptr, spans, unused);
        report.attempted += vanilla50.rep.arrivals;
        const auto &r = vanilla50.rep;
        report.check(r.arrivals == r.admitted + r.shedOnAdmit &&
                         r.issued == r.arrivals + r.retries &&
                         r.admitted == r.completed + r.shedOnDeadline,
                     "ledger conservation on the vanilla fleet");
    }

    const Step &s50 = first[0], &s80 = first[1];
    report.set("setup_s", median(setup));
    report.set("sim_overhead_pct",
               vanilla50.e2eP50 > 0
                   ? 100.0 * (s50.e2eP50 / vanilla50.e2eP50 - 1.0)
                   : 0.0);
    // Service times repeat exactly on same-type devices, so a
    // nearest-rank p50 sits on a tie; the histogram's interpolated
    // p50 reflects the whole distribution.
    report.set("sim_latency_p50_ms", s80.e2eP50 * 1e3);

    double capacity = capacities.front();
    double sloRate = 0.0, events = 0.0, cancelled = 0.0, attempts = 0.0,
           shedTotal = 0.0, serveHost = 0.0;
    for (std::size_t k = 0; k < ladder.size(); ++k) {
        const Step &st = first[k];
        const ccai::serve::ServeReport &r = st.rep;
        std::string p = std::string("serve.") + ladder[k].name + ".";
        double arrivals = static_cast<double>(r.arrivals);
        double shed = static_cast<double>(r.shedOnAdmit + r.shedOnDeadline);
        report.set(p + "host_s", median(stepHost[k]));
        report.set(p + "events", static_cast<double>(st.events));
        report.set(p + "ttft_p99_ms", r.ttftP99 * 1e3);
        report.set(p + "goodput_rps", r.goodputPerSec);
        report.set(p + "shed_frac", arrivals > 0 ? shed / arrivals : 0.0);
        report.set(p + "retry_amplification",
                   arrivals > 0 ? static_cast<double>(r.issued) / arrivals
                                : 0.0);
        if (st.meetsLimit)
            sloRate = capacity * ladder[k].factor;
        events += static_cast<double>(st.events);
        cancelled += static_cast<double>(st.cancelled);
        serveHost += median(stepHost[k]);
        attempts += static_cast<double>(r.issued);
        shedTotal += shed;
    }
    std::printf("serve: %.0f of %llu arrivals shed over the ladder "
                "(overload shedding by design; not failed checks)\n",
                shedTotal,
                static_cast<unsigned long long>(report.attempted));
    report.set("serve.capacity_rps", capacity);
    report.set("serve.slo_rate_rps", sloRate);
    report.set("serve.load80.ttft_p50_ms", s80.rep.ttftP50 * 1e3);
    report.set("sim.events_dispatched", events);
    report.set("sim.events_cancelled", cancelled);
    report.set("_serve_attempts", attempts);
    report.set("_serve_host_s", serveHost);
}

} // namespace ccbench
