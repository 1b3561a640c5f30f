#include "platform_layers.hh"

#include "common/buffer_pool.hh"
#include "common/types.hh"

namespace ccbench
{

namespace
{

const ccai::obs::Histogram *
histogram(ccai::Platform &p, const char *group, const char *name)
{
    ccai::obs::MetricGroup *g = p.metrics().find(group);
    if (!g)
        return nullptr;
    auto it = g->histograms().find(name);
    return it == g->histograms().end() ? nullptr : &it->second;
}

double
counter(ccai::Platform &p, const char *group, const char *name)
{
    ccai::obs::MetricGroup *g = p.metrics().find(group);
    if (!g)
        return 0.0;
    auto it = g->counters().find(name);
    return it == g->counters().end()
               ? 0.0
               : static_cast<double>(it->second.value());
}

/** Record a histogram's running count and sum (ticks). */
void
addHistogram(LayerSnapshot &s, const std::string &key,
             const ccai::obs::Histogram *h)
{
    s[key + ".n"] += h ? static_cast<double>(h->count()) : 0.0;
    s[key + ".sum"] += h ? h->sum() : 0.0;
}

} // namespace

LayerSnapshot
snapshotLayers(ccai::Platform &p)
{
    const ccai::obs::MetricsRegistry &m = p.metrics();
    auto sum = [&m](const char *name) {
        return static_cast<double>(m.sumCounter(name));
    };
    LayerSnapshot s;
    s["signed_writes"] = sum("signed_writes");
    s["stage_copies"] = sum("h2d_stage_copies") + sum("d2h_stage_copies");
    s["a3_checked"] = counter(p, "pcie_sc", "a3_checked");
    s["a2_records"] = counter(p, "pcie_sc", "h2d_records") +
                      counter(p, "pcie_sc", "d2h_records");
    s["a4_passthrough"] = counter(p, "pcie_sc", "a4_passthrough");
    double blocked = counter(p, "pcie_sc", "a1_blocked");
    if (ccai::obs::MetricGroup *g = m.find("pcie_sc"))
        for (const auto &[name, c] : g->counters())
            if (name.rfind("blocked_", 0) == 0)
                blocked += static_cast<double>(c.value());
    s["blocked"] = blocked;
    s["integrity_failures"] = sum("a2_integrity_failures") +
                              sum("a3_integrity_failures") +
                              sum("d2h_integrity_failures");
    s["wire_tlps"] = sum("wire_tlps");
    s["payload_bytes"] = sum("payload_bytes");
    s["faults_injected"] = sum("faults_injected");
    s["retransmits"] = sum("transport_retransmits");
    s["timeout_retransmits"] = sum("transport_timeout_retransmits");
    s["naks"] = sum("transport_naks_sent");
    s["rx_accepted"] = sum("transport_rx_accepted");
    s["rx_duplicates"] = sum("transport_rx_duplicates");
    s["rx_ooo"] = sum("transport_rx_ooo");
    s["faults_recovered"] = sum("faults_recovered");
    s["faults_fatal"] = sum("faults_fatal");
    s["kernels"] = counter(p, "xpu", "kernels");
    s["dma_h2d"] = counter(p, "xpu", "dma_h2d");
    s["dma_d2h"] = counter(p, "xpu", "dma_d2h");
    s["classified"] = p.pcieSc()
                          ? static_cast<double>(
                                p.pcieSc()->filter().classified())
                          : 0.0;
    s["events_dispatched"] =
        static_cast<double>(p.system().eventq().statDispatched());
    s["events_cancelled"] =
        static_cast<double>(p.system().eventq().statCancelled());
    addHistogram(s, "a2_crypt",
                 histogram(p, "pcie_sc", "a2_down_crypt_ticks"));
    addHistogram(s, "a2_crypt",
                 histogram(p, "pcie_sc", "a2_up_crypt_ticks"));
    addHistogram(s, "xpu_cmd", histogram(p, "xpu", "cmd_ticks"));
    return s;
}

void
reportLayers(const LayerSnapshot &before, const LayerSnapshot &after,
             ccai::Platform &p, Report &r)
{
    auto d = [&](const char *key) {
        return after.at(key) - before.at(key);
    };
    auto meanUs = [&](const char *key) {
        std::string k(key);
        double n = after.at(k + ".n") - before.at(k + ".n");
        double sum = after.at(k + ".sum") - before.at(k + ".sum");
        return n > 0 ? ccai::ticksToSeconds(1) * sum / n * 1e6 : 0.0;
    };
    r.set("tvm.signed_writes", d("signed_writes"));
    r.set("tvm.stage_copies", d("stage_copies"));
    r.set("sc.a3_checked", d("a3_checked"));
    r.set("sc.a2_records", d("a2_records"));
    r.set("sc.a4_passthrough", d("a4_passthrough"));
    r.set("sc.blocked", d("blocked"));
    r.set("sc.tlb_hit_ratio",
          p.pcieSc() ? p.pcieSc()->filter().tlbHitRate() : 0.0);
    r.set("sc.a2_crypt_us_mean", meanUs("a2_crypt"));
    r.set("_classified", d("classified"));
    r.set("pcie.wire_tlps", d("wire_tlps"));
    r.set("pcie.payload_mib", d("payload_bytes") / double(ccai::kMiB));
    // Wait of TLPs queued for the host link's downstream direction
    // (sim time, p99 over the platform's lifetime).
    if (ccai::obs::MetricGroup *g = p.metrics().find("rc_sw.down")) {
        auto it = g->histograms().find("queue_ticks");
        if (it != g->histograms().end())
            r.set("pcie.host_link_queue_p99_us",
                  ccai::ticksToSeconds(1) * it->second.p99() * 1e6);
    }
    r.set("pcie.faults_injected", d("faults_injected"));
    r.set("arq.retransmits", d("retransmits"));
    r.set("arq.timeout_retransmits", d("timeout_retransmits"));
    r.set("arq.naks", d("naks"));
    r.set("arq.rx_duplicates", d("rx_duplicates"));
    double received =
        d("rx_accepted") + d("rx_duplicates") + d("rx_ooo");
    r.set("arq.useful_ratio",
          received > 0 ? d("rx_accepted") / received : 0.0);
    r.set("arq.faults_recovered", d("faults_recovered"));
    r.set("arq.faults_fatal", d("faults_fatal"));
    r.set("xpu.kernels", d("kernels"));
    r.set("xpu.dma_h2d", d("dma_h2d"));
    r.set("xpu.dma_d2h", d("dma_d2h"));
    r.set("xpu.cmd_us_mean", meanUs("xpu_cmd"));
    r.set("sim.events_dispatched", d("events_dispatched"));
    r.set("sim.events_cancelled", d("events_cancelled"));
}

void
reportBufferPool(Report &report)
{
    // Size classes are powers of two from 1 KiB (common/buffer_pool).
    std::vector<std::uint64_t> classes =
        ccai::BufferPool::global().classHighWatermarks();
    double bytes = 0.0;
    for (std::size_t c = 0; c < classes.size(); ++c)
        bytes += static_cast<double>(classes[c]) *
                 static_cast<double>(ccai::kKiB << c);
    report.set("common.buffer_pool_hwm_mb", bytes / 1e6);
}

} // namespace ccbench
