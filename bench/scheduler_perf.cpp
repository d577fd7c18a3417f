/**
 * @file
 * Reproduces the two-level warp scheduler performance validation
 * (Section 6, first claim; simulation parameters in Table 2): with 8
 * active warps out of 32 machine-resident warps, the SM suffers no
 * performance penalty relative to scheduling all 32 warps at once.
 */

#include <cstdio>

#include "bench_util.h"
#include "core/experiment.h"
#include "core/report.h"
#include "workloads/registry.h"

using namespace rfh;

int
main()
{
    bench::header("Table 2 / two-level scheduler performance",
                  "no performance loss with >=8 active warps (of 32)");

    // 32 machine-resident warps, each capped at 2^18 instructions;
    // the baseline scheme times the flat MRF.
    const RunConfig resident{32, 1u << 18};
    ExperimentConfig cfg;
    cfg.scheme = Scheme::BASELINE;
    PipelineConfig base;
    std::printf("\nSimulation parameters (Table 2): 32-wide SIMT, ALU %d, "
                "SFU %d, shared mem %d,\nTEX %d, DRAM %d cycles; %d "
                "resident warps.\n\n",
                base.aluLatency, base.sfuLatency, base.sharedMemLatency,
                base.texLatency, base.dramLatency, resident.numWarps);

    const int kActiveSet[] = {1, 2, 4, 6, 8, 12, 16, 32};

    TextTable t({"Benchmark", "A=1", "A=2", "A=4", "A=6", "A=8", "A=12",
                 "A=16", "A=32"});
    double sum8 = 0, sum32 = 0;
    int n = 0;
    const char *samples[] = {"scalarprod", "matrixmul", "mandelbrot",
                             "nbody", "histogram", "montecarlo",
                             "hotspot", "sortingnetworks"};
    for (const char *name : samples) {
        Workload w = workloadByName(name);
        w.run = resident;
        std::vector<std::string> row = {w.name};
        double ipc8 = 0, ipc32 = 0;
        for (int a : kActiveSet) {
            PipelineConfig p = base;
            p.activeWarps = a;
            SchemePipelineResult res = runSchemePipeline(w, cfg, p);
            if (!res.ok()) {
                std::fprintf(stderr, "%s: %s\n", name, res.error.c_str());
                return 1;
            }
            row.push_back(fmt(res.stats.ipc(), 3));
            if (a == 8)
                ipc8 = res.stats.ipc();
            if (a == 32)
                ipc32 = res.stats.ipc();
        }
        t.addRow(row);
        sum8 += ipc8;
        sum32 += ipc32;
        n++;
    }
    std::printf("IPC vs active-set size A (two-level scheduler; A=32 is "
                "the flat scheduler)\n%s\n", t.str().c_str());

    bench::compare("IPC(A=8) / IPC(A=32), average (%)", 100.0,
                   100.0 * (sum8 / n) / (sum32 / n));
    return 0;
}
