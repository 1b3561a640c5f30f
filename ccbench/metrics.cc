#include "metrics.hh"

#include <cstdio>
#include <string>

namespace ccbench
{

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s"},
        {"wall_ref", "ref"},
        {"peak_rss_mb", "MB"},
        {"sim_overhead_pct", "%"},
        {"sim_latency_p50_ms", "ms"},
    };
    return defs;
}

const std::vector<LoadStep> &
serveLadder()
{
    static const std::vector<LoadStep> steps = {
        {"load50", 0.5},
        {"load80", 0.8},
        {"load100", 1.0},
        {"load150", 1.5},
    };
    return steps;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = [] {
        std::vector<MetricDef> d = {
            {"host.wall_s", "s"},
            {"host.ref_kernel_ms", "ms"},
            {"trace.overhead_pct", "%"},
            {"ccai.platform_build_s", "s"},
            {"trust.establish_s", "s"},
            {"crypto.powmod_ms", "ms"},
            {"share.trust_of_setup_pct", "%"},
            {"llm.model_load_s", "s"},
            {"llm.secure_request_ms_p50", "ms"},
            {"llm.vanilla_request_ms_p50", "ms"},
            {"llm.requests", "count"},
            {"llm.decode_steps", "count"},
            {"llm.kernel_launches", "count"},
            {"llm.sim_ttft_p50_ms", "ms"},
            {"llm.sim_tps_p50", "tok/s"},
            {"tvm.signed_writes", "count"},
            {"tvm.h2d_ms_per_mib", "ms/MiB"},
            {"tvm.d2h_ms_per_mib", "ms/MiB"},
            {"tvm.stage_copies", "count"},
            {"tvm.sim_gbps", "GB/s"},
            {"crypto.hmac_ns", "ns"},
            {"crypto.gcm_seal_mbps", "MB/s"},
            {"crypto.gcm_open_mbps", "MB/s"},
            {"share.hmac_pct_est", "%"},
            {"share.gcm_pct_est", "%"},
            {"sc.a3_checked", "count"},
            {"sc.a2_records", "count"},
            {"sc.a4_passthrough", "count"},
            {"sc.blocked", "count"},
            {"sc.tlb_hit_ratio", "ratio"},
            {"sc.classify_ns", "ns"},
            {"sc.a2_crypt_us_mean", "us"},
            {"share.classify_pct_est", "%"},
            {"pcie.wire_tlps", "count"},
            {"pcie.payload_mib", "MiB"},
            {"pcie.host_link_queue_p99_us", "us"},
            {"pcie.faults_injected", "count"},
            {"arq.retransmits", "count"},
            {"arq.timeout_retransmits", "count"},
            {"arq.naks", "count"},
            {"arq.rx_duplicates", "count"},
            {"arq.useful_ratio", "ratio"},
            {"arq.faults_recovered", "count"},
            {"arq.faults_fatal", "count"},
            {"xpu.kernels", "count"},
            {"xpu.dma_h2d", "count"},
            {"xpu.dma_d2h", "count"},
            {"xpu.cmd_us_mean", "us"},
            {"sim.events_dispatched", "count"},
            {"sim.events_cancelled", "count"},
            {"sim.host_ns_per_event", "ns"},
            {"sim.event_ns", "ns"},
            {"share.event_pct_est", "%"},
        };
        const char *stepMetrics[][2] = {
            {"host_s", "s"},          {"events", "count"},
            {"ttft_p99_ms", "ms"},    {"goodput_rps", "req/s"},
            {"shed_frac", "ratio"},   {"retry_amplification", "ratio"},
        };
        for (const LoadStep &s : serveLadder())
            for (auto &m : stepMetrics)
                d.push_back({std::string("serve.") + s.name + "." + m[0],
                             m[1]});
        std::vector<MetricDef> tail = {
            {"serve.capacity_rps", "req/s"},
            {"serve.slo_rate_rps", "req/s"},
            {"serve.load80.ttft_p50_ms", "ms"},
            {"serve.router_pick_us", "us"},
            {"serve.admit_ns", "ns"},
            {"share.router_pick_pct_est", "%"},
            {"share.admit_pct_est", "%"},
            {"common.buffer_pool_hwm_mb", "MB"},
            {"self.bench_pct", "%"},
            {"self.ccai_pct", "%"},
            {"self.trust_pct", "%"},
            {"self.llm_pct", "%"},
            {"self.tvm_pct", "%"},
            {"self.serve_pct", "%"},
        };
        d.insert(d.end(), tail.begin(), tail.end());
        return d;
    }();
    return defs;
}

namespace
{

double
get(const Report &r, const std::string &name)
{
    auto it = r.metrics.find(name);
    return it == r.metrics.end() ? 0.0 : it->second;
}

} // namespace

void
deriveShares(Report &r)
{
    double wall = get(r, "host.wall_s");
    double setup = get(r, "setup_s");
    auto pctOf = [](double part, double whole) {
        return whole > 0.0 ? 100.0 * part / whole : 0.0;
    };
    r.set("share.trust_of_setup_pct",
          pctOf(get(r, "trust.establish_s"), setup));
    // Each signed MMIO write is MACed by the Adaptor and checked by
    // the PCIe-SC: two HMACs per write.
    r.set("share.hmac_pct_est",
          pctOf(2.0 * get(r, "tvm.signed_writes") *
                    get(r, "crypto.hmac_ns") * 1e-9,
                wall));
    // Real payload bytes are sealed once and opened once per
    // direction (Adaptor and PCIe-SC), so each byte costs one seal
    // and one open.
    double gcmBytes = get(r, "_gcm_bytes");
    double seal = get(r, "crypto.gcm_seal_mbps") * 1e6;
    double open = get(r, "crypto.gcm_open_mbps") * 1e6;
    r.set("share.gcm_pct_est",
          seal > 0 && open > 0
              ? pctOf(gcmBytes / seal + gcmBytes / open, wall)
              : 0.0);
    r.set("share.classify_pct_est",
          pctOf(get(r, "_classified") * get(r, "sc.classify_ns") * 1e-9,
                wall));
    r.set("share.event_pct_est",
          pctOf(get(r, "sim.events_dispatched") *
                    get(r, "sim.event_ns") * 1e-9,
                wall));
    double serveHost = get(r, "_serve_host_s");
    double picks = get(r, "_serve_attempts");
    r.set("share.router_pick_pct_est",
          pctOf(picks * get(r, "serve.router_pick_us") * 1e-6,
                serveHost));
    r.set("share.admit_pct_est",
          pctOf(picks * get(r, "serve.admit_ns") * 1e-9, serveHost));
}

void
printSelfTimeTable(const Spans &spans, Report &report)
{
    std::map<std::string, double> self = spans.selfSeconds();
    double total = 0.0;
    for (const auto &[layer, s] : self)
        total += s;
    std::printf("\nself time per layer (traced passes, host)\n");
    std::printf("%-10s %12s %8s\n", "layer", "self_ms", "share");
    for (const auto &[layer, s] : self) {
        double pct = total > 0.0 ? 100.0 * s / total : 0.0;
        std::printf("%-10s %12.3f %7.2f%%\n", layer.c_str(), s * 1e3,
                    pct);
        report.set("self." + layer + "_pct", pct);
    }
}

} // namespace ccbench
