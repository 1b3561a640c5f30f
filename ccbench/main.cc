/**
 * @file
 * ccbench: the ccAI repository benchmark.
 *
 *   ccbench --workload {llm-decode,secure-copy,serve-fleet}
 *           --seed N --seconds S --trace {0,1}
 *
 * With --trace 0 the last stdout line is a JSON object holding every
 * end-to-end metric; with --trace 1 it holds every per-layer metric,
 * including the micro pass's unit costs, their estimated shares and
 * the span recorder's self time per layer. The exit code is 0 only
 * when every output check passed.
 */

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <malloc.h>
#include <string>

#include "bench.hh"
#include "common/logging.hh"
#include "metrics.hh"
#include "platform_layers.hh"

using namespace ccbench;

namespace
{

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "ccbench: %s\n"
                 "usage: ccbench --workload {llm-decode,secure-copy,"
                 "serve-fleet} --seed N --seconds S --trace {0,1}\n",
                 why);
    return 2;
}

bool
parseUnsigned(const char *text, std::uint64_t &out)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0' || text[0] == '-')
        return false;
    out = v;
    return true;
}

void
printJsonNumber(double v)
{
    // %.17g keeps every digit the measurement has.
    std::printf("%.17g", v);
}

} // namespace

int
main(int argc, char **argv)
{
    ccai::LogConfig::Quiet quiet;
    // glibc returns every freed block above its mmap threshold (at
    // most 32 MiB by default) to the kernel, so each large transfer
    // buffer would fault in fresh zeroed pages: on the VM the
    // benchmark was tuned on that kernel time was 40% of secure-copy's
    // host time and its least steady part. Keeping large blocks in
    // the heap reuses their pages across transfers.
    mallopt(M_MMAP_THRESHOLD, 512 << 20);
    mallopt(M_TRIM_THRESHOLD, 1 << 30);
    // Inputs reach the library only through configs built from
    // --seed; an inherited CCAI_SEED must not override them.
    unsetenv("CCAI_SEED");

    Options opt;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--corrupt-compare") {
            opt.corruptCompare = true;
            continue;
        }
        const char *v = value();
        if (!v)
            return usage(("missing value for " + arg).c_str());
        std::uint64_t n = 0;
        if (arg == "--workload") {
            opt.workload = v;
        } else if (arg == "--seed") {
            if (!parseUnsigned(v, n))
                return usage("--seed takes an unsigned integer");
            opt.seed = n;
            haveSeed = true;
        } else if (arg == "--seconds") {
            if (!parseUnsigned(v, n) || n == 0 || n > 3600)
                return usage("--seconds takes 1..3600");
            opt.seconds = static_cast<double>(n);
            haveSeconds = true;
        } else if (arg == "--trace") {
            if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
                return usage("--trace takes 0 or 1");
            opt.trace = v[0] == '1';
            haveTrace = true;
        } else if (arg == "--out-dir") {
            opt.outDir = v;
        } else {
            return usage(("unknown argument " + arg).c_str());
        }
    }
    if (!haveSeed || !haveSeconds || !haveTrace)
        return usage("--workload, --seed, --seconds and --trace are "
                     "all required");

    Report report;
    Spans spans;
    if (opt.workload == "llm-decode")
        runLlmDecode(opt, report, spans);
    else if (opt.workload == "secure-copy")
        runSecureCopy(opt, report, spans);
    else if (opt.workload == "serve-fleet")
        runServeFleet(opt, report, spans);
    else
        return usage(("unknown workload '" + opt.workload + "'").c_str());
    report.set("peak_rss_mb", peakRssMb());
    reportBufferPool(report);
    double events = report.metrics["sim.events_dispatched"];
    report.set("sim.host_ns_per_event",
               events > 0 ? report.metrics["host.wall_s"] * 1e9 / events
                          : 0.0);

    if (opt.trace) {
        runMicroPass(opt.workload, report);
        deriveShares(report);
        std::error_code ec;
        std::filesystem::create_directories(opt.outDir, ec);
        std::string path = opt.outDir + "/trace-" + opt.workload + "-" +
                           std::to_string(opt.seed) + ".json";
        if (!spans.writeChromeTrace(path))
            report.violate("cannot write span file " + path);
        else
            std::printf("spans: %zu written to %s\n", spans.size(),
                        path.c_str());
        printSelfTimeTable(spans, report);
    }

    const std::vector<MetricDef> &defs =
        opt.trace ? perLayerMetrics() : endToEndMetrics();
    std::printf("\n%-34s %16s  %s\n", "metric", "value", "unit");
    for (const MetricDef &d : defs) {
        auto it = report.metrics.find(d.name);
        // Per-layer metrics of a layer the workload leaves idle read
        // 0; an end-to-end metric must always be measured.
        if (it == report.metrics.end() && !opt.trace)
            report.violate("metric not measured: " + d.name);
        double v = it == report.metrics.end() ? 0.0 : it->second;
        if (!std::isfinite(v)) {
            report.violate("metric not finite: " + d.name);
            v = 0.0;
        }
        report.metrics[d.name] = v;
        std::printf("%-34s %16.6g  %s\n", d.name.c_str(), v, d.unit);
    }
    for (const std::string &why : report.violations)
        std::printf("CHECK FAILED: %s\n", why.c_str());
    std::printf("attempted %llu, failed %llu\n",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed));

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                "%llu, \"metrics\": {",
                report.violations.empty() ? "true" : "false",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed));
    for (std::size_t i = 0; i < defs.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": ", i ? ", " : "",
                    defs[i].name.c_str());
        printJsonNumber(report.metrics[defs[i].name]);
        std::printf(", \"unit\": \"%s\"}", defs[i].unit);
    }
    std::printf("}}\n");
    std::fflush(stdout);
    return report.violations.empty() ? 0 : 1;
}
