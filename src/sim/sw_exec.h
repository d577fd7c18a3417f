/**
 * @file
 * Software-managed hierarchy executor.
 *
 * Executes a kernel that has been annotated by the HierarchyAllocator,
 * counting accesses at the levels the compiler selected. The executor
 * doubles as a checker for the allocator: every upper-level read is
 * verified to return the bit-exact architectural value, every
 * annotation is checked against the physical state (entry validity,
 * register identity, level restrictions, strand invalidation), and any
 * violation is reported instead of silently miscounting.
 */

#ifndef RFH_SIM_SW_EXEC_H
#define RFH_SIM_SW_EXEC_H

#include <memory>
#include <string>

#include "compiler/allocation.h"
#include "ir/analysis_bundle.h"
#include "ir/kernel.h"
#include "sim/access_counters.h"
#include "sim/baseline_exec.h"

namespace rfh {

/** Software-executor configuration. */
struct SwExecConfig
{
    RunConfig run;
    /**
     * Section 7 "never flush" idealisation: upper-level contents
     * survive deschedules and strand boundaries; stalls on outstanding
     * long-latency values deschedule instead of being errors.
     */
    bool idealNoFlush = false;
};

/** Result of a software-hierarchy execution. */
struct SwExecResult
{
    AccessCounts counts;
    /** Empty when the run verified clean; else the first violation. */
    std::string error;

    bool
    ok() const
    {
        return error.empty();
    }
};

/**
 * The structured failure of an annotation naming missing ORF entry
 * @p entry, shared by the scalar and SIMT executors.
 */
std::string orfRangeError(unsigned entry);

/**
 * Execute annotated kernel @p k under the software-managed hierarchy.
 *
 * @param k kernel previously processed by HierarchyAllocator.
 * @param opts the allocation options the kernel was compiled with
 *        (defines the physical ORF/LRF sizes).
 * @param analyses optional precomputed analyses of a kernel with
 *        @p k's structure (the pristine, un-annotated kernel is
 *        fine); computed locally when null.
 */
SwExecResult runSwHierarchy(const Kernel &k, const AllocOptions &opts,
                            const SwExecConfig &cfg = {},
                            const AnalysisBundle *analyses = nullptr);

struct DecodedTrace;

/**
 * Replay-mode counterpart of runSwHierarchy: walk the pre-decoded
 * dynamic stream @p trace (recorded once from the pristine kernel
 * under @p cfg.run; annotations do not change the dynamic path) doing
 * only access accounting at the annotated levels — no functional
 * execution and no value verification. Structural annotation checks
 * (level restrictions, entry ranges) are preserved so a failing
 * allocation stops at the same instruction with the same message;
 * bit-exactness of values is the direct executor's job, which remains
 * the verification oracle.
 */
SwExecResult replaySwHierarchy(const Kernel &k, const AllocOptions &opts,
                               const DecodedTrace &trace,
                               const SwExecConfig &cfg = {},
                               const AnalysisBundle *analyses = nullptr);

class SchemeAccounting;

/**
 * Software-hierarchy accounting of the *annotated* kernel @p k,
 * drivable from the stepper, a trace, or the pipeline (sim/drive.h):
 * the per-record replay walk — level accounting plus the structural
 * annotation checks, no value verification. replaySwHierarchy falls
 * back to its trace clock; runSwHierarchy remains the value-verifying
 * reference. @p k and @p analyses must outlive the result.
 */
std::unique_ptr<SchemeAccounting> swHierarchyAccounting(
    const Kernel &k, const AllocOptions &opts, const SwExecConfig &cfg,
    const AnalysisBundle *analyses = nullptr);

} // namespace rfh

#endif // RFH_SIM_SW_EXEC_H
