/**
 * @file
 * Per-layer metrics of the traced run (see perfbench/README.md for
 * which end-to-end metric each one should move, on which workload).
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include "bench.hh"

namespace perfbench
{

/** Every per-layer metric the traced run reports, at value 0; the
 *  names and units match BENCHMARK.json's per_layer list. */
LayerMetrics declaredLayerMetrics();

/** Run the layer probes shared by every workload and fold in the
 *  counts derived from @p w's last simulated output. */
void commonLayerProbes(const Options &opt, Workload &w, LayerMetrics &m,
                       Tracer &tr);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
