/**
 * @file
 * Per-layer counters of one ccai::Platform, read from its public
 * metrics registry and PCIe-SC filter after (and before) a measured
 * phase, so each workload reports the work of its measured pass
 * only, not its set-up.
 */

#ifndef CCBENCH_PLATFORM_LAYERS_HH
#define CCBENCH_PLATFORM_LAYERS_HH

#include <map>
#include <string>

#include "bench.hh"
#include "ccai/platform.hh"

namespace ccbench
{

/** Cumulative counters and histogram sums, keyed by metric name. */
using LayerSnapshot = std::map<std::string, double>;

LayerSnapshot snapshotLayers(ccai::Platform &platform);

/**
 * Set the per-layer count metrics of the platform layers (tvm, sc,
 * pcie, arq, xpu, sim) from @p after - @p before.
 */
void reportLayers(const LayerSnapshot &before,
                  const LayerSnapshot &after, ccai::Platform &platform,
                  Report &report);

/** High watermark of the process-wide staging buffer pool. */
void reportBufferPool(Report &report);

} // namespace ccbench

#endif // CCBENCH_PLATFORM_LAYERS_HH
