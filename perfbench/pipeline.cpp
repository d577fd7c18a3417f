/**
 * @file
 * The `pipeline` workload: the cycle-level SM pipeline
 * (runSchemePipeline) over profile kernels at 32 warps with the
 * two-level scheduler (8 active), cells sw3, hw3 and ccrfc at 3
 * entries, one thread. The pipeline costs about 20x the replay for the
 * same runs, so inside `corpus` it would hide every other layer; on
 * its own workload it measures simulator speed.
 *
 * The window is a sequence of passes, each over a fresh block of 104
 * kernels (13 per profile) with cold caches, as a `corpus --perf`
 * chunk runs. Per-kernel cost is heavy-tailed, so fresh blocks make a
 * run average over ~1,000 kernels instead of repeating one small,
 * seed-dependent sample. Every pipeline run's counts must equal the
 * functional runScheme counts, and the first block, simulated again
 * after the window, must reproduce its cycles exactly.
 */

#include <cstdio>
#include <map>

#include "core/experiment.h"
#include "core/memo.h"
#include "counters.h"
#include "service/protocol.h"
#include "spans.h"
#include "verify/oracle.h"
#include "workloads.h"
#include "workloads/profiles.h"

namespace pb {

namespace {

/** 8 profiles x 13 kernels x 3 cells = 312 pipeline runs per pass. */
constexpr int kKernelsPerProfile = 13;
constexpr int kWarps = 32;
constexpr int kSetupProbes = 45;
const char *const kCellTokens[] = {"sw3", "hw3", "ccrfc"};
constexpr std::size_t kCells = 3;
constexpr int kEntries = 3;

/** One block of kernels and its (kernel, cell) runs. */
struct Block
{
    std::vector<rfh::Workload> ws;
    /** Run i is kernel i / kCells under cell i % kCells. */
    std::vector<rfh::ExperimentConfig> cfgs;
    double generateSec = 0.0;

    const rfh::Workload &
    workload(std::size_t run) const
    {
        return ws[run / kCells];
    }
};

Block
makeBlock(std::uint64_t seed, int index)
{
    Block b;
    double t0 = nowSec();
    for (const rfh::ScenarioProfile &p : rfh::allProfiles()) {
        for (int k = 0; k < kKernelsPerProfile; k++) {
            b.ws.push_back(rfh::corpusWorkload(
                p, seed, index * kKernelsPerProfile + k));
            b.ws.back().run.numWarps = kWarps;
        }
    }
    b.generateSec = nowSec() - t0;
    for (std::size_t k = 0; k < b.ws.size(); k++) {
        for (const char *token : kCellTokens) {
            rfh::ExperimentConfig cfg;
            cfg.scheme = *rfh::schemeFromToken(token);
            cfg.entries = kEntries;
            b.cfgs.push_back(cfg);
        }
    }
    return b;
}

/** Result of one pass over a block. */
struct Pass
{
    double wallSec = 0.0;
    std::vector<double> callMs;
    std::vector<rfh::SchemePipelineResult> results;
    std::uint64_t cycles = 0;
};

Pass
runPass(const Block &b, const rfh::PipelineConfig &pcfg)
{
    Pass pass;
    pass.callMs.reserve(b.cfgs.size());
    pass.results.reserve(b.cfgs.size());
    rfh::globalExperimentCache().clear();
    double t0 = nowSec();
    for (std::size_t i = 0; i < b.cfgs.size(); i++) {
        double c0 = nowSec();
        pass.results.push_back(
            rfh::runSchemePipeline(b.workload(i), b.cfgs[i], pcfg));
        pass.callMs.push_back((nowSec() - c0) * 1e3);
    }
    pass.wallSec = nowSec() - t0;
    for (const rfh::SchemePipelineResult &res : pass.results)
        pass.cycles += res.stats.cycles;
    return pass;
}

/**
 * The traced pass: the same runs, with the shared cache lookups the
 * pipeline makes for each kernel done first inside their own spans.
 */
Pass
runTracedPass(const Block &b, const rfh::PipelineConfig &pcfg,
              SpanLog &log, int index)
{
    Pass pass;
    rfh::ExperimentCache &cache = rfh::globalExperimentCache();
    double t0 = nowSec();
    SpanLog::Scope passSpan(log, "pipeline.pass", index);
    {
        SpanLog::Scope s(log, "memo.clear", index);
        cache.clear();
    }
    for (std::size_t k = 0; k < b.ws.size(); k++) {
        const rfh::Workload &w = b.ws[k];
        auto id = static_cast<std::int64_t>(k);
        {
            SpanLog::Scope s(log, "memo.fingerprint", id);
            rfh::kernelFingerprint(w.kernel);
        }
        {
            SpanLog::Scope s(log, "ir.analyze", id);
            cache.analyses(w.kernel);
        }
        {
            SpanLog::Scope s(log, "trace.record", id);
            cache.trace(w.kernel, w.run);
        }
        {
            SpanLog::Scope s(log, "sim.decode", id);
            cache.decode(w.kernel);
        }
        for (std::size_t c = 0; c < kCells; c++) {
            std::size_t i = k * kCells + c;
            SpanLog::Scope s(log, "pipeline.scheme_run",
                             static_cast<std::int64_t>(i));
            pass.results.push_back(
                rfh::runSchemePipeline(w, b.cfgs[i], pcfg));
        }
    }
    pass.wallSec = nowSec() - t0;
    for (const rfh::SchemePipelineResult &res : pass.results)
        pass.cycles += res.stats.cycles;
    return pass;
}

/**
 * Functional counts of every run of @p b (runScheme on the replay
 * engine: the direct interpreter would cost more than the window).
 */
std::vector<rfh::AccessCounts>
functionalCounts(Report &r, const Block &b)
{
    std::vector<rfh::AccessCounts> counts;
    for (std::size_t i = 0; i < b.cfgs.size(); i++) {
        rfh::ExperimentConfig cfg = b.cfgs[i];
        cfg.engine = rfh::ExecEngine::REPLAY;
        rfh::RunOutcome o = rfh::runScheme(b.workload(i), cfg);
        r.attempt();
        if (!o.ok())
            r.fail(b.workload(i).name + ": runScheme: " + o.error);
        counts.push_back(o.counts);
    }
    rfh::globalExperimentCache().clear();
    return counts;
}

/** Pipeline counts must equal the functional counts, run by run. */
void
checkPass(Report &r, const Pass &pass, const Block &b,
          const std::vector<rfh::AccessCounts> &functional)
{
    for (std::size_t i = 0; i < pass.results.size(); i++) {
        const rfh::SchemePipelineResult &res = pass.results[i];
        r.attempt();
        if (!res.ok()) {
            r.fail(b.workload(i).name + ": " + res.error);
            continue;
        }
        std::string diff =
            rfh::describeCountsDiff(res.counts, functional[i]);
        if (!diff.empty())
            r.fail(b.workload(i).name +
                   ": pipeline counts differ from runScheme: " + diff);
    }
}

/**
 * Digest of a pass's outcome as the functional gate sees it: every
 * run's error and access counts, in run order. @p errors and
 * @p counts are indexed by run.
 */
std::uint64_t
outcomeDigest(const std::vector<const std::string *> &errors,
              const std::vector<const rfh::AccessCounts *> &counts)
{
    std::uint64_t h = 0;
    auto add = [&h](std::uint64_t v) { h = mix64(h ^ v); };
    for (std::size_t i = 0; i < counts.size(); i++) {
        for (char c : *errors[i])
            add(static_cast<unsigned char>(c));
        const rfh::AccessCounts &c = *counts[i];
        for (const auto &level : c.reads)
            for (std::uint64_t v : level)
                add(v);
        for (const auto &level : c.writes)
            for (std::uint64_t v : level)
                add(v);
        for (std::uint64_t v :
             {c.wbReads, c.wbWrites, c.instructions, c.deschedules})
            add(v);
    }
    return h;
}

std::uint64_t
passDigest(const Pass &pass)
{
    std::vector<const std::string *> errors;
    std::vector<const rfh::AccessCounts *> counts;
    for (const rfh::SchemePipelineResult &res : pass.results) {
        errors.push_back(&res.error);
        counts.push_back(&res.counts);
    }
    return outcomeDigest(errors, counts);
}

std::uint64_t
functionalDigest(const std::vector<rfh::AccessCounts> &functional)
{
    const std::string ok;
    std::vector<const rfh::AccessCounts *> counts;
    for (const rfh::AccessCounts &c : functional)
        counts.push_back(&c);
    return outcomeDigest(
        std::vector<const std::string *>(counts.size(), &ok), counts);
}

/** A repeat of a block must simulate exactly the same cycles. */
void
checkRepeat(Report &r, const Pass &a, const Pass &b)
{
    r.attempt();
    bool same = a.cycles == b.cycles && a.results.size() == b.results.size();
    for (std::size_t i = 0; same && i < a.results.size(); i++)
        same = a.results[i].stats.cycles == b.results[i].stats.cycles;
    if (!same)
        r.fail("simulated cycles differ between repeats of a block");
}

Report
untracedPipeline(const Args &args)
{
    Report r;
    double setup = probeSetupSec(args, kSetupProbes);
    if (setup < 0)
        r.fail("set-up probe failed");
    r.attempt(kSetupProbes);

    rfh::PipelineConfig pcfg; // Two-level scheduler, 8 active warps.
    std::vector<double> ms, passP99;
    double measured = 0.0, runs = 0.0, cycles = 0.0;
    // Only the first pass (for the repeat gate) and a digest of each
    // later one are kept, so the functional gates can run after the
    // peak RSS is read without the memory held growing with passes.
    Pass first;
    std::vector<std::uint64_t> digests;
    do {
        Block b = makeBlock(args.seed, static_cast<int>(digests.size()));
        Pass pass = runPass(b, pcfg);
        measured += pass.wallSec;
        runs += static_cast<double>(b.cfgs.size());
        cycles += static_cast<double>(pass.cycles);
        ms.insert(ms.end(), pass.callMs.begin(), pass.callMs.end());
        passP99.push_back(quantile(pass.callMs, 0.99));
        digests.push_back(passDigest(pass));
        if (digests.size() == 1)
            first = std::move(pass);
    } while (measured < args.seconds);
    double rss = selfPeakRssMiB();
    int blocks = static_cast<int>(digests.size());

    // ---- Correctness, outside the timed region ----
    for (int i = 0; i < blocks; i++) {
        Block b = makeBlock(args.seed, i);
        std::vector<rfh::AccessCounts> functional = functionalCounts(r, b);
        if (i > 0 && functionalDigest(functional) ==
                         digests[static_cast<std::size_t>(i)]) {
            r.attempt(b.cfgs.size());
            continue;
        }
        // The first pass, or a pass that disagrees: compare run by
        // run (a disagreeing pass is simulated again to name its runs).
        checkPass(r, i == 0 ? first : runPass(b, pcfg), b, functional);
    }
    checkRepeat(r, first, runPass(makeBlock(args.seed, 0), pcfg));

    r.set("setup_s", setup, "s");
    // Blocks differ in cost, so throughput is total work over total
    // time rather than a median of per-block rates.
    r.set("runs_per_s", runs / measured, "1/s");
    r.set("latency_p50_ms", median(ms), "ms");
    // The calls beyond p99 are the few heaviest kernels of each block,
    // so a burst of host load over one pass would otherwise set the
    // run's p99 (on a shared 4-vCPU host, one set's p99 spread was
    // 0.229 against 0.134 in p50).
    r.set("latency_p99_ms", median(passP99), "ms");
    r.set("peak_rss_mb", rss, "MiB");
    char note[240];
    std::snprintf(note, sizeof note,
                  "pipeline: %d blocks x %zu runs; sim_cycles_per_s %.6g "
                  "1/s; latency = one runSchemePipeline call (samples %zu; "
                  "p99 = median of the %d passes' p99)",
                  blocks, kKernelsPerProfile * 8 * kCells,
                  cycles / measured, ms.size(), blocks);
    r.notes.push_back(note);
    return r;
}

Report
tracedPipeline(const Args &args)
{
    Report r;
    rfh::PipelineConfig pcfg;
    SpanLog log;
    std::vector<double> untracedWall, tracedWall;
    LibCounters firstUntraced, traced;
    double generateSec = 0.0;
    double start = nowSec();
    int index = 0;
    do {
        Block b = makeBlock(args.seed, index);
        generateSec += b.generateSec;
        // Alternate which pass runs first so order effects cancel.
        LibCounters dt;
        Pass plain, withSpans;
        if (index % 2) {
            LibCounters t0 = LibCounters::now();
            withSpans = runTracedPass(b, pcfg, log, index);
            dt = LibCounters::now().since(t0);
        }
        LibCounters c0 = LibCounters::now();
        plain = runPass(b, pcfg);
        LibCounters c1 = LibCounters::now();
        if (index % 2 == 0) {
            withSpans = runTracedPass(b, pcfg, log, index);
            dt = LibCounters::now().since(c1);
        }
        if (index++ == 0)
            firstUntraced = c1.since(c0);
        traced.allocPassSec += dt.allocPassSec;
        traced.pipelineSec += dt.pipelineSec;
        traced.cycles += dt.cycles;
        traced.recordInstrs += dt.recordInstrs;
        std::vector<rfh::AccessCounts> functional = functionalCounts(r, b);
        checkPass(r, plain, b, functional);
        checkPass(r, withSpans, b, functional);
        checkRepeat(r, plain, withSpans);
        untracedWall.push_back(plain.wallSec);
        tracedWall.push_back(withSpans.wallSec);
    } while (nowSec() - start < args.seconds);

    std::map<std::string, double> self = log.selfSecByName();
    double n = static_cast<double>(tracedWall.size());
    r.set("workloads.generate_s", generateSec / n, "s");
    r.set("memo.fingerprint_s", self["memo.fingerprint"] / n, "s");
    r.set("memo.clear_s", self["memo.clear"] / n, "s");
    r.set("ir.analyze_s", self["ir.analyze"] / n, "s");
    r.set("trace.record_s", self["trace.record"] / n, "s");
    r.set("sim.decode_s", self["sim.decode"] / n, "s");
    r.set("trace.dyn_instrs", static_cast<double>(traced.recordInstrs) / n,
          "count");
    r.set("compiler.allocate_s", traced.allocPassSec / n, "s");
    r.set("pipeline.run_s", traced.pipelineSec / n, "s");
    r.set("pipeline.cycles", static_cast<double>(traced.cycles) / n,
          "count");
    r.set("pipeline.cycles_per_s",
          traced.pipelineSec > 0
              ? static_cast<double>(traced.cycles) / traced.pipelineSec
              : 0.0,
          "1/s");
    setMemoMetrics(r, firstUntraced);

    double attributed = traced.allocPassSec + traced.pipelineSec;
    for (const char *span : {"memo.fingerprint", "memo.clear",
                             "ir.analyze", "trace.record", "sim.decode"})
        attributed += self[span];
    setWallMetrics(r, attributed, tracedWall, untracedWall);
    if (!log.write(args.outDir + "/spans-pipeline.json"))
        r.fail("could not write the span file");
    return r;
}

} // namespace

Report
runPipelineWorkload(const Args &args)
{
    return args.trace ? tracedPipeline(args) : untracedPipeline(args);
}

} // namespace pb
