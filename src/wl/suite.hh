/**
 * @file
 * The SPEC CPU2006 stand-in suite: 29 named workloads (paper Section V)
 * built from the kernel archetypes in kernels.hh.
 */

#ifndef RSEP_WL_SUITE_HH
#define RSEP_WL_SUITE_HH

#include <string>
#include <vector>

#include "wl/kernels.hh"

namespace rsep::wl
{

/** The 29 benchmark names in the paper's figure order. */
const std::vector<std::string> &suiteNames();

/**
 * Build a workload by registry name or qualified `name@hash` key —
 * suite benchmarks and runtime-registered workloads alike (see
 * workload_spec.hh). Fatal on an unknown name.
 */
Workload makeWorkload(const std::string &name);

/**
 * Number of "checkpoints" (seeded phases) per benchmark; the paper uses
 * 10 uniformly collected checkpoints and reports the harmonic mean.
 */
constexpr u32 checkpointsPerBenchmark = 10;

} // namespace rsep::wl

#endif // RSEP_WL_SUITE_HH
