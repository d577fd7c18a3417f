/**
 * @file
 * Two-level warp scheduler study on one benchmark.
 *
 * Usage:
 *   ./build/examples/scheduler_study [workload-name]
 *
 * Sweeps the active-set size of the two-level scheduler (Section 2.2)
 * and prints IPC, so the "no performance loss with 8 active warps"
 * tradeoff can be inspected per workload. A smaller active set means a
 * smaller ORF/LRF (only active warps hold entries), so this sweep is
 * the performance half of the hierarchy sizing decision.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/report.h"
#include "workloads/registry.h"

int
main(int argc, char **argv)
{
    using namespace rfh;

    std::string name = argc > 1 ? argv[1] : "scalarprod";
    // 32 machine-resident warps (Table 2), each capped at 2^18
    // instructions; the baseline scheme times the flat MRF.
    Workload w = workloadByName(name);
    w.run = {32, 1u << 18};
    ExperimentConfig cfg;
    cfg.scheme = Scheme::BASELINE;
    std::printf("Two-level scheduler study: %s\n\n", w.name.c_str());

    const int kActiveSet[] = {1, 2, 4, 6, 8, 12, 16, 24, 32};
    PipelineConfig base;
    std::vector<PipelineStats> runs;
    for (int a : kActiveSet) {
        PipelineConfig p = base;
        p.activeWarps = a;
        SchemePipelineResult r = runSchemePipeline(w, cfg, p);
        if (!r.ok()) {
            std::fprintf(stderr, "%s\n", r.error.c_str());
            return 1;
        }
        runs.push_back(r.stats);
    }
    // The last size (all 32 resident warps active) is the flat
    // scheduler every other size is compared against.
    const double flat = runs.back().ipc();
    TextTable t({"Active warps", "IPC", "vs flat", "Deschedules"});
    for (std::size_t i = 0; i < runs.size(); i++) {
        const PipelineStats &r = runs[i];
        t.addRow({std::to_string(kActiveSet[i]), fmt(r.ipc(), 3),
                  pct(flat > 0 ? r.ipc() / flat : 0),
                  std::to_string(r.swaps)});
    }
    std::printf("%s\n", t.str().c_str());
    std::printf("32 resident warps; ALU %d cy, shared mem %d cy, "
                "DRAM %d cy (Table 2).\n", base.aluLatency,
                base.sharedMemLatency, base.dramLatency);
    return 0;
}
