#include "core/experiment.h"

#include <map>

#include "core/memo.h"
#include "core/metrics.h"
#include "core/parallel.h"
#include "core/scheme.h"
#include "core/trace_events.h"
#include "sim/baseline_exec.h"
#include "sim/drive.h"
#include "sim/trace.h"

namespace rfh {

namespace {

/**
 * Engine metrics, registered once and accumulated with relaxed
 * atomics — runScheme's hot path never takes the registry mutex.
 */
struct EngineMetrics
{
    Counter &runs = globalMetrics().counter("engine.runs");
    Counter &runsDirect = globalMetrics().counter("engine.runs.direct");
    Counter &runsReplay = globalMetrics().counter("engine.runs.replay");
    Counter &dynInstrs =
        globalMetrics().counter("engine.execute.dynInstrs");
    Timer &analyze = globalMetrics().timer("engine.phase.analyze");
    Timer &trace = globalMetrics().timer("engine.phase.trace");
    Timer &allocate = globalMetrics().timer("engine.phase.allocate");
    Timer &execute = globalMetrics().timer("engine.phase.execute");
    Histogram &runInstrs =
        globalMetrics().histogram("engine.run.dynInstrs");
};

/** Cycle-level pipeline observability (sim.pipeline.*). */
struct PipelineMetrics
{
    Counter &runs = globalMetrics().counter("sim.pipeline.runs");
    Counter &cycles = globalMetrics().counter("sim.pipeline.cycles");
    Counter &issued = globalMetrics().counter("sim.pipeline.issued");
    Counter &swaps = globalMetrics().counter("sim.pipeline.swaps");
    Counter &bankConflicts =
        globalMetrics().counter("sim.pipeline.bankConflicts");
    Timer &run = globalMetrics().timer("sim.pipeline.run");
};

PipelineMetrics &
pipelineMetrics()
{
    static PipelineMetrics m;
    return m;
}

EngineMetrics &
engineMetrics()
{
    static EngineMetrics m;
    return m;
}

/**
 * Record an already-measured phase as a chrome-trace span: the span
 * ends "now" and lasted @p sec, so no extra clock reads happen when
 * recording is disabled.
 */
void
recordPhaseSpan(const char *phase, const std::string &workload,
                double sec)
{
    TraceEventLog &log = TraceEventLog::global();
    if (!log.enabled() || sec <= 0.0)
        return;
    double endUs = TraceEventLog::nowUs();
    log.add(phase, "phase", endUs - sec * 1e6, sec * 1e6,
            "{\"workload\":\"" + workload + "\"}");
}

} // namespace

std::string_view
schemeName(Scheme s)
{
    const SchemeInfo *si = SchemeRegistry::instance().find(s);
    return si ? std::string_view(si->display) : std::string_view("?");
}

std::string_view
engineName(ExecEngine e)
{
    switch (e) {
      case ExecEngine::AUTO: return "auto";
      case ExecEngine::DIRECT: return "direct";
      case ExecEngine::REPLAY: return "replay";
    }
    return "?";
}

AllocOptions
ExperimentConfig::allocOptions() const
{
    const SchemeInfo *si = SchemeRegistry::instance().find(scheme);
    if (si)
        return si->backend->allocOptions(*this);
    // Unregistered handle: the scheme-independent defaults.
    AllocOptions a;
    a.orfEntries = entries;
    a.orfPriceEntries = orfPriceEntries;
    a.lrfAllowSharedProducers = lrfAllowSharedProducers;
    a.partialRanges = partialRanges;
    a.readOperands = readOperands;
    a.strandOptions = strandOptions;
    return a;
}

RunOutcome
runScheme(const Workload &w, const ExperimentConfig &cfg)
{
    RunOutcome out;
    const SchemeInfo *si = SchemeRegistry::instance().find(cfg.scheme);
    if (!si) {
        out.error = "unregistered scheme id " +
            std::to_string(cfg.scheme.id()) + " (valid: " +
            SchemeRegistry::instance().tokenList() + ")";
        return out;
    }
    const SchemeBackend &backend = *si->backend;
    const SchemeCaps &caps = si->caps;
    int price = cfg.orfPriceEntries ? cfg.orfPriceEntries : cfg.entries;
    EnergyModel em(cfg.energy, price, backend.splitLrfEnergy(cfg));

    // A lone runScheme call defaults to the value-verifying engine;
    // the sweeps resolve AUTO to REPLAY before fanning out.
    ExecEngine engine = cfg.engine == ExecEngine::AUTO
                            ? ExecEngine::DIRECT
                            : cfg.engine;

    ExperimentCache &cache = globalExperimentCache();
    Stopwatch watch;

    // Cooperative cancellation: polled between phases so a deadline
    // can stop a request before its most expensive work, without ever
    // interrupting a memoized computation mid-flight.
    auto cancelled = [&] { return cfg.cancel && cfg.cancel(); };
    if (cancelled()) {
        out.error = "cancelled";
        return out;
    }

    // ---- Analyze: structural analyses + baseline execution, both
    // memoized (configuration-independent) ----
    std::shared_ptr<const AnalysisBundle> analyses;
    if (caps.usesAnalyses)
        analyses = cache.analyses(w.kernel);
    const AccessCounts &base = cache.baseline(w.kernel, w.run);
    out.baselineEnergyPJ = base.totalEnergyPJ(em);
    out.phases.analyzeSec = watch.lap();
    recordPhaseSpan("analyze", w.name, out.phases.analyzeSec);
    if (cancelled()) {
        out.error = "cancelled";
        return out;
    }

    // ---- Trace: the pre-decoded dynamic stream, recorded once per
    // (kernel, RunConfig) and shared by every replay grid cell ----
    std::shared_ptr<const DecodedTrace> trace;
    if (engine == ExecEngine::REPLAY && caps.usesTrace) {
        trace = cache.trace(w.kernel, w.run);
        out.phases.traceSec = watch.lap();
        recordPhaseSpan("trace", w.name, out.phases.traceSec);
    }
    if (cancelled()) {
        out.error = "cancelled";
        return out;
    }

    // Replay shares the memoized pre-decode (SoA op records +
    // shared-consumer flags) across every grid cell of the kernel.
    std::shared_ptr<const ReplayDecode> dec;
    if (trace && caps.wantsDecode)
        dec = cache.decode(w.kernel);

    // ---- Allocate: the compiler annotates a private kernel copy ----
    Kernel annotated;
    const Kernel *kernel = &w.kernel;
    if (caps.usesAllocator) {
        annotated = w.kernel;
        out.alloc = backend.allocate(annotated, cfg, analyses.get());
        kernel = &annotated;
        out.phases.allocateSec = watch.lap();
        recordPhaseSpan("allocate", w.name, out.phases.allocateSec);
        if (cancelled()) {
            out.error = "cancelled";
            return out;
        }
    }

    // ---- Execute ----
    SchemeRunContext ctx;
    ctx.workload = &w;
    ctx.cfg = &cfg;
    ctx.engine = trace ? ResolvedEngine::REPLAY : ResolvedEngine::DIRECT;
    ctx.kernel = kernel;
    ctx.analyses = analyses.get();
    ctx.trace = trace.get();
    ctx.decode = dec.get();
    ctx.baseline = &base;
    SchemeSimResult res = backend.simulate(ctx);
    out.counts = res.counts;
    out.error = res.error;
    if (caps.usesTrace) {
        out.phases.executeSec = watch.lap();
        recordPhaseSpan("execute", w.name, out.phases.executeSec);
    }

    out.phases.dynInstrs = out.counts.instructions;
    out.energyPJ = backend.accountEnergyPJ(ctx, out.counts, em);

    // ---- Perf (opt-in): cycle-level pipeline pass ----
    if (cfg.perf && out.ok() && !cancelled()) {
        SchemePipelineResult pr = runSchemePipeline(w, cfg, cfg.pipeline);
        if (pr.ok()) {
            out.perf = pr.stats;
            out.hasPerf = true;
        } else {
            out.error = "pipeline: " + pr.error;
        }
    }

    // Observability only: metrics never feed back into the outcome,
    // so results stay byte-identical with any metrics state.
    EngineMetrics &mm = engineMetrics();
    mm.runs.add();
    if (caps.usesTrace)
        (engine == ExecEngine::REPLAY ? mm.runsReplay : mm.runsDirect)
            .add();
    mm.analyze.addSec(out.phases.analyzeSec);
    if (trace)
        mm.trace.addSec(out.phases.traceSec);
    if (out.phases.allocateSec > 0)
        mm.allocate.addSec(out.phases.allocateSec);
    mm.execute.addSec(out.phases.executeSec);
    mm.dynInstrs.add(out.counts.instructions);
    mm.runInstrs.observe(out.counts.instructions);
    return out;
}

SchemePipelineResult
runSchemePipeline(const Workload &w, const ExperimentConfig &cfg,
                  const PipelineConfig &pcfg)
{
    SchemePipelineResult out;
    const SchemeInfo *si = SchemeRegistry::instance().find(cfg.scheme);
    if (!si) {
        out.error = "unregistered scheme id " +
            std::to_string(cfg.scheme.id()) + " (valid: " +
            SchemeRegistry::instance().tokenList() + ")";
        return out;
    }
    ExperimentCache &cache = globalExperimentCache();
    auto cancelled = [&] { return cfg.cancel && cfg.cancel(); };
    if (cancelled()) {
        out.error = "cancelled";
        return out;
    }

    // Shared memoized sub-results, exactly as runScheme gathers them.
    std::shared_ptr<const AnalysisBundle> analyses;
    if (si->caps.usesAnalyses)
        analyses = cache.analyses(w.kernel);
    std::shared_ptr<const DecodedTrace> trace =
        cache.trace(w.kernel, w.run);
    // The pristine-kernel decode drives the engine (latencies,
    // scoreboard sets — annotations change neither); backends that
    // need annotation-aware decodes build their own.
    std::shared_ptr<const ReplayDecode> dec = cache.decode(w.kernel);
    if (cancelled()) {
        out.error = "cancelled";
        return out;
    }

    // The allocator's annotated copy must outlive the run: the
    // accounting reads annotations from it on every issue.
    Kernel annotated;
    const Kernel *kernel = &w.kernel;
    if (si->caps.usesAllocator) {
        annotated = w.kernel;
        si->backend->allocate(annotated, cfg, analyses.get());
        kernel = &annotated;
        if (cancelled()) {
            out.error = "cancelled";
            return out;
        }
    }

    SchemeRunContext ctx;
    ctx.workload = &w;
    ctx.cfg = &cfg;
    ctx.engine = ResolvedEngine::REPLAY;
    ctx.kernel = kernel;
    ctx.analyses = analyses.get();
    ctx.trace = trace.get();
    ctx.decode = dec.get();
    std::unique_ptr<SchemeAccounting> acct = si->backend->accounting(ctx);
    if (!acct) {
        out.error = "scheme '" + si->token + "' built no accounting";
        return out;
    }

    Stopwatch watch;
    PipelineResult r = runPipeline(*trace, *dec, *acct, pcfg);
    out.stats = r.stats;
    out.counts = acct->counts();
    out.error = r.error;

    PipelineMetrics &pm = pipelineMetrics();
    pm.runs.add();
    pm.cycles.add(r.stats.cycles);
    pm.issued.add(r.stats.issued);
    pm.swaps.add(r.stats.swaps);
    pm.bankConflicts.add(r.stats.bankConflicts);
    pm.run.addSec(watch.lap());
    return out;
}

void
accumulateOutcome(RunOutcome &agg, const RunOutcome &one,
                  const std::string &name)
{
    agg.counts.add(one.counts);
    agg.alloc.add(one.alloc);
    agg.energyPJ += one.energyPJ;
    agg.baselineEnergyPJ += one.baselineEnergyPJ;
    agg.phases.add(one.phases);
    if (one.hasPerf) {
        agg.perf.add(one.perf);
        agg.hasPerf = true;
    }
    if (!one.ok()) {
        if (!agg.error.empty())
            agg.error += "; ";
        agg.error += name + ": " + one.error;
    }
}

RunOutcome
runAllWorkloads(const ExperimentConfig &cfg, ThreadPool *pool)
{
    const std::vector<Workload> &ws = allWorkloads();
    ThreadPool &p = pool ? *pool : globalPool();
    // Sweep-style bulk evaluation: AUTO resolves to the replay engine
    // (the direct oracle remains selectable via cfg.engine).
    ExperimentConfig run = cfg;
    if (run.engine == ExecEngine::AUTO)
        run.engine = ExecEngine::REPLAY;
    std::vector<RunOutcome> outs(ws.size());
    p.parallelFor(static_cast<int>(ws.size()),
                  [&](int i) { outs[i] = runScheme(ws[i], run); });
    // Fold in registry order so aggregation (floating-point sums
    // included) is independent of completion order and thread count.
    RunOutcome agg;
    for (std::size_t i = 0; i < ws.size(); i++)
        accumulateOutcome(agg, outs[i], ws[i].name);
    return agg;
}

std::vector<RunOutcome>
replayBatch(const std::vector<BatchItem> &items, ThreadPool *pool)
{
    static Counter &batches =
        globalMetrics().counter("engine.replayBatch.calls");
    static Histogram &sizes =
        globalMetrics().histogram("engine.replayBatch.items");
    batches.add();
    sizes.observe(items.size());

    ThreadPool &p = pool ? *pool : globalPool();
    ExperimentCache &cache = globalExperimentCache();

    // Resolve engines up front; the pre-warm below only matters for
    // replay items.
    std::vector<ExperimentConfig> cfgs(items.size());
    for (std::size_t i = 0; i < items.size(); i++) {
        cfgs[i] = items[i].cfg;
        if (cfgs[i].engine == ExecEngine::AUTO)
            cfgs[i].engine = ExecEngine::REPLAY;
    }

    // ---- Pre-warm: one slot per distinct kernel ----
    // Materialise the shared sub-results once each, in parallel, so
    // the fan-out below never serialises on a cold cache entry (the
    // memo's call_once would otherwise block every grid cell of a
    // kernel behind the first).
    struct Warm
    {
        const Workload *w = nullptr;
        bool wantAnalyses = false;
        bool wantTrace = false;
        bool wantDecode = false;
    };
    SchemeRegistry &registry = SchemeRegistry::instance();
    std::vector<Warm> warm;
    std::map<std::uint64_t, std::size_t> slot;
    for (std::size_t i = 0; i < items.size(); i++) {
        const Workload *w = items[i].workload;
        if (!w)
            continue;
        auto [it, fresh] =
            slot.try_emplace(kernelFingerprint(w->kernel), warm.size());
        if (fresh)
            warm.push_back(Warm{w, false, false, false});
        Warm &entry = warm[it->second];
        const SchemeInfo *si = registry.find(cfgs[i].scheme);
        if (!si)
            continue;
        if (cfgs[i].engine == ExecEngine::REPLAY && si->caps.usesTrace) {
            entry.wantTrace = true;
            entry.wantAnalyses |= si->caps.usesAnalyses;
            entry.wantDecode |= si->caps.wantsDecode;
        }
    }
    p.parallelFor(static_cast<int>(warm.size()), [&](int i) {
        const Warm &e = warm[i];
        cache.baseline(e.w->kernel, e.w->run);
        if (e.wantAnalyses || e.wantDecode)
            cache.analyses(e.w->kernel);
        if (e.wantTrace)
            cache.trace(e.w->kernel, e.w->run);
        if (e.wantDecode)
            cache.decode(e.w->kernel);
    });

    // ---- Fan out ----
    std::vector<RunOutcome> outs(items.size());
    p.parallelFor(static_cast<int>(items.size()), [&](int i) {
        if (!items[i].workload) {
            outs[i].error = "batch item has no workload";
            return;
        }
        outs[i] = runScheme(*items[i].workload, cfgs[i]);
    });
    return outs;
}

} // namespace rfh
