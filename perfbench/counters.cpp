#include "counters.h"

#include "common.h"
#include "core/metrics.h"

namespace pb {

LibCounters
LibCounters::now()
{
    rfh::MetricsRegistry &m = rfh::globalMetrics();
    LibCounters c;
    c.memo = rfh::globalExperimentCache().stats();
    c.analyzeSec = m.timer("engine.phase.analyze").totalSec();
    c.traceSec = m.timer("engine.phase.trace").totalSec();
    c.allocateSec = m.timer("engine.phase.allocate").totalSec();
    c.executeSec = m.timer("engine.phase.execute").totalSec();
    c.recordSec = m.timer("trace.record").totalSec();
    c.allocPassSec = m.timer("alloc.phase.strands").totalSec() +
                     m.timer("alloc.phase.instances").totalSec() +
                     m.timer("alloc.phase.lrf").totalSec() +
                     m.timer("alloc.phase.orf").totalSec();
    c.pipelineSec = m.timer("sim.pipeline.run").totalSec();
    c.runs = m.counter("engine.runs").value();
    c.runsDirect = m.counter("engine.runs.direct").value();
    c.executeInstrs = m.counter("engine.execute.dynInstrs").value();
    c.recordInstrs = m.counter("trace.record.instrs").value();
    c.cycles = m.counter("sim.pipeline.cycles").value();
    rfh::Histogram &batch = m.histogram("service.batch_size");
    c.batches = batch.count();
    c.batchItems = batch.sum();
    return c;
}

LibCounters
LibCounters::since(const LibCounters &b) const
{
    LibCounters d;
    d.memo.baselineHits = memo.baselineHits - b.memo.baselineHits;
    d.memo.baselineMisses = memo.baselineMisses - b.memo.baselineMisses;
    d.memo.analysisHits = memo.analysisHits - b.memo.analysisHits;
    d.memo.analysisMisses = memo.analysisMisses - b.memo.analysisMisses;
    d.memo.traceHits = memo.traceHits - b.memo.traceHits;
    d.memo.traceMisses = memo.traceMisses - b.memo.traceMisses;
    d.memo.decodeHits = memo.decodeHits - b.memo.decodeHits;
    d.memo.decodeMisses = memo.decodeMisses - b.memo.decodeMisses;
    d.analyzeSec = analyzeSec - b.analyzeSec;
    d.traceSec = traceSec - b.traceSec;
    d.allocateSec = allocateSec - b.allocateSec;
    d.executeSec = executeSec - b.executeSec;
    d.recordSec = recordSec - b.recordSec;
    d.allocPassSec = allocPassSec - b.allocPassSec;
    d.pipelineSec = pipelineSec - b.pipelineSec;
    d.runs = runs - b.runs;
    d.runsDirect = runsDirect - b.runsDirect;
    d.executeInstrs = executeInstrs - b.executeInstrs;
    d.recordInstrs = recordInstrs - b.recordInstrs;
    d.cycles = cycles - b.cycles;
    d.batches = batches - b.batches;
    d.batchItems = batchItems - b.batchItems;
    return d;
}

void
setMemoMetrics(Report &r, const LibCounters &d)
{
    auto ratio = [&](const char *name, const char *base,
                     std::uint64_t hits, std::uint64_t misses) {
        std::uint64_t lookups = hits + misses;
        r.set(name,
              lookups ? static_cast<double>(hits) /
                            static_cast<double>(lookups)
                      : 0.0,
              "ratio");
        r.set(base, static_cast<double>(lookups), "count");
    };
    ratio("memo.baseline_hit_ratio", "memo.baseline_lookups",
          d.memo.baselineHits, d.memo.baselineMisses);
    ratio("memo.analysis_hit_ratio", "memo.analysis_lookups",
          d.memo.analysisHits, d.memo.analysisMisses);
    ratio("memo.trace_hit_ratio", "memo.trace_lookups",
          d.memo.traceHits, d.memo.traceMisses);
    ratio("memo.decode_hit_ratio", "memo.decode_lookups",
          d.memo.decodeHits, d.memo.decodeMisses);
    r.set("engine.runs", static_cast<double>(d.runs), "count");
    r.set("sim.direct_share",
          d.runs ? static_cast<double>(d.runsDirect) /
                       static_cast<double>(d.runs)
                 : 0.0,
          "ratio");
}

} // namespace pb
