/**
 * @file
 * The benchmark's metric tables (names and units, in the order they
 * are printed) and the derived per-layer values: estimated host
 * shares of layers inside a simulator drain, and span self times.
 * BENCHMARK.json lists the same names; test_ccbench.py checks that
 * the two agree.
 */

#ifndef CCBENCH_METRICS_HH
#define CCBENCH_METRICS_HH

#include <string>
#include <vector>

#include "bench.hh"

namespace ccbench
{

struct MetricDef
{
    std::string name;
    const char *unit;
};

const std::vector<MetricDef> &endToEndMetrics();
const std::vector<MetricDef> &perLayerMetrics();

/** The serve ladder's offered-load steps, as fractions of capacity. */
struct LoadStep
{
    const char *name;
    double factor;
};
const std::vector<LoadStep> &serveLadder();

/**
 * Estimated host share of each layer that runs inside a drain:
 * count x micro unit cost / the pass's raw host time. Needs the
 * micro pass's unit costs in @p report.
 */
void deriveShares(Report &report);

/** Print the spans' self time per layer and record it as metrics. */
void printSelfTimeTable(const Spans &spans, Report &report);

} // namespace ccbench

#endif // CCBENCH_METRICS_HH
