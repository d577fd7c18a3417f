/**
 * @file
 * Compiler-assisted register-file cache, after Shoushtary et al.
 * (arXiv:2310.17501).
 *
 * Structurally this is the paper's two-level hardware RFC (a small
 * per-thread FIFO cache in front of the MRF), but the caching policy
 * is steered by two kinds of compile-time hints instead of being
 * purely reactive:
 *
 *  - an *allocation hint* per definition: the result enters the RFC
 *    only when the compiler sees a nearby upcoming read of it (static
 *    next-use distance within a window); distant or unread results
 *    bypass straight to the MRF and never pollute the cache;
 *  - a *last-read hint* per operand: a read of a value that is dead
 *    afterwards (global liveness) erases its RFC entry, freeing the
 *    slot early and guaranteeing the dead value is never written back.
 *
 * Long-latency results bypass the hierarchy and deschedule handling
 * matches the hardware scheme (all live cached values flush to the
 * MRF when the warp swaps out). One per-warp model serves every clock
 * of sim/drive.h, so direct, replay and pipeline counts are identical
 * by construction.
 */

#ifndef RFH_SIM_CC_RFC_H
#define RFH_SIM_CC_RFC_H

#include <cstdint>
#include <memory>
#include <vector>

#include "ir/analysis_bundle.h"
#include "ir/kernel.h"

namespace rfh {

struct ReplayDecode;
class SchemeAccounting;

/**
 * Static next-use window of the allocation hint: a definition is
 * cached only when some reachable read of it sits within this many
 * instructions in layout order. Scales with the cache size — a larger
 * RFC can afford to hold values with more distant uses.
 */
int ccRfcHintWindow(int entries);

/**
 * Compute the per-instruction allocation hints of @p k for a cache of
 * @p entries: hint[lin] is non-zero when the result defined at @p lin
 * should be inserted into the RFC. Wide (64-bit) and long-latency
 * results always bypass. Deterministic and purely static, so every
 * clock sees identical hints.
 */
std::vector<std::uint8_t> ccRfcAllocationHints(const Kernel &k,
                                               int entries);

/**
 * Compiler-assisted-RFC accounting of @p k for an RFC of @p entries
 * per thread, drivable from the stepper, a trace, or the pipeline
 * (sim/drive.h). RFC hits are collector bypass operands under the
 * pipeline clock.
 *
 * @param analyses optional precomputed analyses (liveness feeds the
 *        last-read hints and writeback elision); computed locally
 *        when null.
 * @param dec optional shared pre-decode (ExperimentCache::decode);
 *        built locally when null.
 *
 * @p k, @p analyses and @p dec must outlive the result.
 */
std::unique_ptr<SchemeAccounting> ccRfcAccounting(
    const Kernel &k, int entries,
    const AnalysisBundle *analyses = nullptr,
    const ReplayDecode *dec = nullptr);

} // namespace rfh

#endif // RFH_SIM_CC_RFC_H
