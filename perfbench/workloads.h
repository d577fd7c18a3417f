/**
 * @file
 * The benchmark's three workloads. Each runs the library through its
 * public entry points for the measured window, checks every output
 * outside the timed region, and fills a Report with either the
 * end-to-end metrics (untraced run) or the per-layer metrics (traced
 * run). README.md says why each workload exists and which layer each
 * metric belongs to.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <string>

#include "common.h"

namespace pb {

/** `corpus`: runCorpus over all builtin profiles, one thread. */
Report runCorpusWorkload(const Args &args);

/** `pipeline`: runSchemePipeline over profile kernels, one thread. */
Report runPipelineWorkload(const Args &args);

/**
 * Worker threads of the `serve` workload's server (and of its
 * in-process service). The workload runs on one CPU (serve.cpp,
 * pinToLastCpu); two workers keep the server's hand-off from its
 * dispatcher to a pool of workers, as on a multi-core host.
 */
constexpr int kServerThreads = 2;

/** `serve`: one `rfhc serve` driven in a closed loop over a socket. */
Report runServeWorkload(const Args &args);

/**
 * Set-up probe body: do what a CLI run of @p workload does before its
 * first unit of work (scheme registry, profile and cell resolution).
 * @return false when resolution fails.
 */
bool probeReady(const std::string &workload);

} // namespace pb

#endif // PERFBENCH_WORKLOADS_H
