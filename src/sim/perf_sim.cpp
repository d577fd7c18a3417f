#include "sim/perf_sim.h"

#include <algorithm>
#include <vector>

#include "sim/pipeline.h"
#include "sim/trace.h"

namespace rfh {

namespace {

/**
 * Map the legacy Table-2 knobs onto the staged pipeline. activeWarps
 * >= numWarps degenerates to flat round-robin inside the two-level
 * scheduler (the active set never fills below the machine size), so
 * the policy is always TWO_LEVEL here and the old flat/two-level
 * split falls out of the set size alone.
 */
PipelineConfig
pipelineConfigOf(const PerfConfig &cfg)
{
    PipelineConfig p;
    p.policy = SchedPolicy::TWO_LEVEL;
    p.activeWarps = cfg.activeWarps;
    p.aluLatency = cfg.aluLatency;
    p.sfuLatency = cfg.sfuLatency;
    p.sharedMemLatency = cfg.sharedMemLatency;
    p.texLatency = cfg.texLatency;
    p.dramLatency = cfg.dramLatency;
    p.swapPenalty = cfg.swapPenalty;
    p.sharedIssueInterval = cfg.sharedIssueInterval;
    p.maxCycles = cfg.maxCycles;
    return p;
}

PerfResult
runDecoded(const Kernel &k, DecodedTrace &trace, const PerfConfig &cfg)
{
    if (!trace.hasPlanes())
        trace.buildPlanes(k);
    ReplayDecode dec(k);
    std::unique_ptr<SchemeAccounting> acct = flatAccounting(k, &dec);
    PipelineResult r = runPipeline(trace, dec, *acct,
                                   pipelineConfigOf(cfg));
    PerfResult out;
    out.cycles = r.stats.cycles;
    out.instructions = r.stats.issued;
    out.deschedules = r.stats.swaps;
    return out;
}

} // namespace

PerfResult
runPerfSim(const Kernel &k, const PerfConfig &cfg)
{
    RunConfig rc;
    rc.numWarps = cfg.numWarps;
    rc.maxInstrsPerWarp = cfg.maxInstrsPerWarp;
    DecodedTrace trace = recordDecodedTrace(k, rc);
    return runDecoded(k, trace, cfg);
}

PerfResult
runPerfSimFromTrace(const Kernel &k, const KernelTrace &trace,
                    const PerfConfig &cfg)
{
    // Expand the recorded block paths into a decoded stream: warp w
    // replays path (w % recorded), every instruction of every visited
    // block unconditionally executed — the trace-based methodology of
    // Section 5.1, where timing ignores predication.
    DecodedTrace d;
    d.warpBegin.assign(1, 0);
    d.warpEndLin.reserve(cfg.numWarps);
    for (int w = 0; w < cfg.numWarps; w++) {
        const std::vector<int> &path =
            trace.warpPaths[w % trace.numWarps()];
        std::uint64_t emitted = 0;
        std::int32_t endLin = -1;
        for (std::size_t p = 0;
             p < path.size() && endLin < 0; p++) {
            int b = path[p];
            int first = k.blockStart(b);
            int count = static_cast<int>(k.blocks[b].instrs.size());
            for (int i = 0; i < count; i++) {
                if (emitted >= cfg.maxInstrsPerWarp) {
                    // Capped mid-path: remember what would have been
                    // next, mirroring the recorder's warpEndLin.
                    endLin = first + i;
                    break;
                }
                d.lin.push_back(first + i);
                d.flags.push_back(kReplayExecuted);
                emitted++;
            }
        }
        d.warpBegin.push_back(
            static_cast<std::uint32_t>(d.lin.size()));
        d.warpEndLin.push_back(endLin);
    }
    d.buildPlanes(k);
    return runDecoded(k, d, cfg);
}

} // namespace rfh
