/**
 * @file
 * Snapshots of the counters the library already keeps — the memo
 * cache's hit/miss stats and the globalMetrics() timers, counters and
 * histograms — so a workload can report the delta over its measured
 * window without adding any instrumentation to the library.
 */

#ifndef PERFBENCH_COUNTERS_H
#define PERFBENCH_COUNTERS_H

#include <cstdint>

#include "core/memo.h"

namespace pb {

struct Report;

/** Library counters at one instant. */
struct LibCounters
{
    rfh::ExperimentCache::Stats memo;
    double analyzeSec = 0.0;   ///< engine.phase.analyze
    double traceSec = 0.0;     ///< engine.phase.trace
    double allocateSec = 0.0;  ///< engine.phase.allocate
    double executeSec = 0.0;   ///< engine.phase.execute
    double recordSec = 0.0;    ///< trace.record
    double allocPassSec = 0.0; ///< alloc.phase.* (all four passes)
    double pipelineSec = 0.0;  ///< sim.pipeline.run
    std::uint64_t runs = 0;        ///< engine.runs
    std::uint64_t runsDirect = 0;  ///< engine.runs.direct
    std::uint64_t executeInstrs = 0; ///< engine.execute.dynInstrs
    std::uint64_t recordInstrs = 0;  ///< trace.record.instrs
    std::uint64_t cycles = 0;        ///< sim.pipeline.cycles
    std::uint64_t batches = 0;       ///< service.batch_size count
    std::uint64_t batchItems = 0;    ///< service.batch_size sum

    /** Read every counter now. */
    static LibCounters now();

    /** Field-wise this - @p before. */
    LibCounters since(const LibCounters &before) const;
};

/**
 * Set the memo hit ratios and lookup counts of @p d (a delta) on
 * @p r: hits ÷ lookups per cache, lookups as the base.
 */
void setMemoMetrics(Report &r, const LibCounters &d);

} // namespace pb

#endif // PERFBENCH_COUNTERS_H
