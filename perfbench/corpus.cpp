/**
 * @file
 * The `corpus` workload: runCorpus over all builtin profiles on the
 * default cell grid at one thread, caches cold per chunk as in every
 * `rfhc corpus` run. Every kernel is fresh, so generate, fingerprint,
 * analyze, trace, allocate, replay and fold all do real work.
 *
 * The traced run walks the same chunks step by step through the same
 * public calls runCorpus makes (corpusWorkload, the cache lookups,
 * replayBatch, the fold, take, corpusToJson) with a span around each,
 * and checks that its document is byte-identical to runCorpus's.
 */

#include <algorithm>
#include <cstdio>
#include <map>

#include "core/corpus.h"
#include "core/memo.h"
#include "core/parallel.h"
#include "core/scheme.h"
#include "counters.h"
#include "spans.h"
#include "verify/oracle.h"
#include "workloads.h"

namespace pb {

namespace {

/**
 * 8 profiles x 50 kernels x 37 cells = 14,800 runs per job (about
 * 1.3 s on one core): long enough that one job's time is not noise,
 * short enough that a window holds several jobs to take a median of.
 */
constexpr int kKernelsPerProfile = 50;
constexpr int kSetupProbes = 45;
/** (kernel, cell) pairs re-run through the direct oracle per run. */
constexpr int kDirectSamples = 24;

rfh::CorpusConfig
corpusConfig(std::uint64_t seed)
{
    rfh::CorpusConfig cfg;
    cfg.profiles = {"all"};
    cfg.kernelsPerProfile = kKernelsPerProfile;
    cfg.seed = seed;
    return cfg;
}

/** One corpus job: runCorpus plus its document. */
struct Job
{
    double wallSec = 0.0;
    std::string json;
    std::uint64_t runs = 0;
    std::uint64_t errors = 0;
    std::string error;
};

Job
untracedJob(const rfh::CorpusConfig &cfg, rfh::ThreadPool &pool)
{
    Job job;
    double t0 = nowSec();
    rfh::CorpusResult res;
    bool ok = rfh::runCorpus(cfg, res, &pool, &job.error);
    if (ok)
        job.json = rfh::corpusToJson(res);
    job.wallSec = nowSec() - t0;
    if (ok) {
        job.runs = res.totalRuns;
        job.errors = res.totalErrors;
    }
    return job;
}

/** Phase sums of the traced walk (from RunOutcome::phases). */
struct PhaseSums
{
    double allocateSec = 0.0;
    double executeSec = 0.0;
    std::uint64_t dynInstrs = 0;
    std::map<std::string, double> executeByScheme;
};

/**
 * The traced walk: runCorpus's chunk loop spelled out through the
 * same public calls, each inside a span. The library does the same
 * lookups inside replayBatch; calling them first only moves the
 * misses out where a span can see them.
 */
Job
tracedJob(const rfh::CorpusConfig &cfg, rfh::ThreadPool &pool,
          SpanLog &log, PhaseSums &sums, int jobIndex)
{
    Job job;
    double t0 = nowSec();
    SpanLog::Scope jobSpan(log, "corpus.job", jobIndex);
    std::vector<rfh::ScenarioProfile> profiles;
    std::vector<rfh::CorpusCell> cells;
    if (!rfh::resolveCorpusConfig(cfg, profiles, cells, &job.error))
        return job;
    rfh::CorpusConfig resolved = cfg;
    resolved.cells = cells;
    resolved.profiles.clear();
    for (const rfh::ScenarioProfile &p : profiles)
        resolved.profiles.push_back(p.name);

    // Which shared sub-results the grid needs, as replayBatch decides.
    const rfh::SchemeRegistry &reg = rfh::SchemeRegistry::instance();
    bool wantAnalyses = false, wantTrace = false, wantDecode = false;
    std::vector<std::string> tokens;
    for (const rfh::CorpusCell &c : cells) {
        const rfh::SchemeInfo *si = reg.find(c.scheme);
        tokens.push_back(si ? si->token : "?");
        if (si && si->caps.usesTrace) {
            wantTrace = true;
            wantAnalyses |= si->caps.usesAnalyses;
            wantDecode |= si->caps.wantsDecode;
        }
    }

    rfh::ExperimentCache &cache = rfh::globalExperimentCache();
    rfh::CorpusAccumulator acc(resolved, profiles);
    int nCells = static_cast<int>(cells.size());
    for (std::size_t pi = 0; pi < profiles.size(); pi++) {
        const rfh::ScenarioProfile &p = profiles[pi];
        for (int c0 = 0; c0 < cfg.kernelsPerProfile; c0 += cfg.chunk) {
            int count = std::min(cfg.chunk, cfg.kernelsPerProfile - c0);
            auto kernelId = [&](int k) {
                return static_cast<std::int64_t>(pi) * 1000000 + c0 + k;
            };
            SpanLog::Scope chunkSpan(log, "corpus.chunk", kernelId(0));
            std::vector<rfh::Workload> ws(static_cast<std::size_t>(count));
            for (int k = 0; k < count; k++) {
                SpanLog::Scope s(log, "workloads.generate", kernelId(k));
                ws[static_cast<std::size_t>(k)] =
                    rfh::corpusWorkload(p, cfg.seed, c0 + k);
                if (cfg.warps > 0)
                    ws[static_cast<std::size_t>(k)].run.numWarps = cfg.warps;
            }
            for (int k = 0; k < count; k++) {
                SpanLog::Scope s(log, "memo.fingerprint", kernelId(k));
                rfh::kernelFingerprint(
                    ws[static_cast<std::size_t>(k)].kernel);
            }
            for (int k = 0; k < count; k++) {
                const rfh::Workload &w = ws[static_cast<std::size_t>(k)];
                {
                    SpanLog::Scope s(log, "sim.baseline", kernelId(k));
                    cache.baseline(w.kernel, w.run);
                }
                if (wantAnalyses || wantDecode) {
                    std::uint64_t misses = cache.stats().analysisMisses;
                    SpanLog::Scope s(log, "memo.analyses", kernelId(k));
                    cache.analyses(w.kernel);
                    if (cache.stats().analysisMisses != misses)
                        s.rename("ir.analyze");
                }
                if (wantTrace) {
                    SpanLog::Scope s(log, "trace.record", kernelId(k));
                    cache.trace(w.kernel, w.run);
                }
                if (wantDecode) {
                    SpanLog::Scope s(log, "sim.decode", kernelId(k));
                    cache.decode(w.kernel);
                }
            }
            std::vector<rfh::BatchItem> items;
            for (int k = 0; k < count; k++) {
                for (const rfh::CorpusCell &cell : cells) {
                    rfh::BatchItem item;
                    item.workload = &ws[static_cast<std::size_t>(k)];
                    item.cfg.scheme = cell.scheme;
                    item.cfg.entries = cell.entries;
                    item.cfg.engine = rfh::ExecEngine::AUTO;
                    item.cfg.perf = cfg.perf;
                    item.cfg.pipeline = cfg.pipeline;
                    items.push_back(std::move(item));
                }
            }
            std::vector<rfh::RunOutcome> outcomes;
            {
                SpanLog::Scope s(log, "engine.replayBatch", kernelId(0));
                outcomes = rfh::replayBatch(items, &pool);
            }
            for (std::size_t i = 0; i < outcomes.size(); i++) {
                const rfh::PhaseTimes &ph = outcomes[i].phases;
                sums.allocateSec += ph.allocateSec;
                sums.executeSec += ph.executeSec;
                sums.dynInstrs += ph.dynInstrs;
                sums.executeByScheme[tokens[i % cells.size()]] +=
                    ph.executeSec;
            }
            {
                SpanLog::Scope s(log, "corpus.fold", kernelId(0));
                for (int k = 0; k < count; k++) {
                    const rfh::RunOutcome &first =
                        outcomes[static_cast<std::size_t>(k * nCells)];
                    acc.foldKernel(
                        static_cast<int>(pi),
                        first.ok() ? static_cast<double>(
                                         first.counts.instructions)
                                   : 0.0);
                    for (int ci = 0; ci < nCells; ci++) {
                        const rfh::RunOutcome &o = outcomes[
                            static_cast<std::size_t>(k * nCells + ci)];
                        if (o.ok())
                            acc.fold(static_cast<int>(pi), ci,
                                     rfh::corpusSampleFromOutcome(o));
                        else
                            acc.foldError(
                                static_cast<int>(pi), ci,
                                ws[static_cast<std::size_t>(k)].name +
                                    ": " + o.error);
                    }
                }
            }
            if (cfg.clearCaches) {
                SpanLog::Scope s(log, "memo.clear", kernelId(0));
                cache.clear();
            }
        }
    }
    rfh::CorpusResult res;
    {
        SpanLog::Scope s(log, "corpus.take", jobIndex);
        res = acc.take();
    }
    {
        SpanLog::Scope s(log, "corpus.json", jobIndex);
        job.json = rfh::corpusToJson(res);
    }
    job.runs = res.totalRuns;
    job.errors = res.totalErrors;
    job.wallSec = nowSec() - t0;
    return job;
}

/** Check a finished job; every run counts as attempted. */
void
checkJob(Report &r, const Job &job, const std::string &reference,
         const char *what)
{
    r.attempt(job.runs + 1);
    if (!job.error.empty()) {
        r.fail(std::string(what) + ": " + job.error);
        return;
    }
    if (job.errors) {
        r.failed += job.errors;
        r.fail(std::string(what) + ": " + std::to_string(job.errors) +
               " run errors");
    }
    if (job.json != reference)
        r.fail(std::string(what) +
               ": corpus document differs from the first runCorpus job");
}

/**
 * Re-run a seeded sample of (kernel, cell) pairs of the corpus through
 * the value-checking DIRECT engine and require the replay counts to
 * match exactly.
 */
void
checkDirectSample(Report &r, const rfh::CorpusConfig &cfg)
{
    std::vector<rfh::ScenarioProfile> profiles;
    std::vector<rfh::CorpusCell> cells;
    std::string err;
    if (!rfh::resolveCorpusConfig(cfg, profiles, cells, &err)) {
        r.fail("direct sample: " + err);
        return;
    }
    for (int i = 0; i < kDirectSamples; i++) {
        std::uint64_t h = mix64(cfg.seed * 1000003ull + i);
        const rfh::ScenarioProfile &p = profiles[h % profiles.size()];
        int k = static_cast<int>((h >> 16) % cfg.kernelsPerProfile);
        const rfh::CorpusCell &cell = cells[(h >> 40) % cells.size()];
        rfh::Workload w = rfh::corpusWorkload(p, cfg.seed, k);
        rfh::BatchItem item;
        item.workload = &w;
        item.cfg.scheme = cell.scheme;
        item.cfg.entries = cell.entries;
        rfh::RunOutcome replay = rfh::replayBatch({item}).front();
        rfh::ExperimentConfig direct = item.cfg;
        direct.engine = rfh::ExecEngine::DIRECT;
        rfh::RunOutcome oracle = rfh::runScheme(w, direct);
        r.attempt();
        std::string diff = replay.ok() && oracle.ok()
                               ? rfh::describeCountsDiff(replay.counts,
                                                         oracle.counts)
                               : replay.error + oracle.error;
        if (!diff.empty())
            r.fail("direct sample " + w.name + " cell " +
                   std::to_string(cell.entries) + ": " + diff);
    }
    rfh::globalExperimentCache().clear();
}

void
setTracedLayers(Report &r, const SpanLog &log, const PhaseSums &sums,
                const LibCounters &untracedJob,
                const LibCounters &tracedDelta,
                const std::vector<double> &tracedWall,
                const std::vector<double> &untracedWall)
{
    std::map<std::string, double> self = log.selfSecByName();
    double n = static_cast<double>(tracedWall.size());
    auto per = [&](const char *span) { return self[span] / n; };
    r.set("workloads.generate_s", per("workloads.generate"), "s");
    r.set("memo.fingerprint_s", per("memo.fingerprint"), "s");
    r.set("memo.clear_s", per("memo.clear"), "s");
    r.set("ir.analyze_s", per("ir.analyze"), "s");
    r.set("sim.baseline_s", per("sim.baseline"), "s");
    r.set("trace.record_s", per("trace.record"), "s");
    r.set("sim.decode_s", per("sim.decode"), "s");
    r.set("trace.dyn_instrs",
          static_cast<double>(tracedDelta.recordInstrs) / n, "count");
    r.set("compiler.allocate_s", sums.allocateSec / n, "s");
    r.set("sim.execute_s", sums.executeSec / n, "s");
    r.set("sim.execute_instrs", static_cast<double>(sums.dynInstrs) / n,
          "count");
    r.set("sim.instrs_per_s",
          sums.executeSec > 0
              ? static_cast<double>(sums.dynInstrs) / sums.executeSec
              : 0.0,
          "1/s");
    for (const auto &[token, sec] : sums.executeByScheme)
        r.set("sim.execute_s." + token, sec / n, "s");
    r.set("corpus.fold_s", per("corpus.fold"), "s");
    r.set("corpus.take_s", per("corpus.take"), "s");
    r.set("corpus.json_s", per("corpus.json"), "s");

    // Hit ratios come from an untraced runCorpus job: the walk's own
    // up-front lookups would otherwise inflate the lookup counts.
    setMemoMetrics(r, untracedJob);

    double attributed = 0.0;
    for (const char *span :
         {"workloads.generate", "memo.fingerprint", "memo.analyses",
          "memo.clear", "ir.analyze", "sim.baseline", "trace.record",
          "sim.decode", "corpus.fold", "corpus.take", "corpus.json"})
        attributed += self[span];
    attributed += sums.allocateSec + sums.executeSec;
    setWallMetrics(r, attributed, tracedWall, untracedWall);
}

} // namespace

bool
probeReady(const std::string &workload)
{
    if (workload == "serve")
        return false;
    std::vector<rfh::ScenarioProfile> profiles;
    std::vector<rfh::CorpusCell> cells;
    rfh::CorpusConfig cfg = corpusConfig(1);
    if (workload == "pipeline")
        cfg.cells = {{rfh::Scheme::SW_THREE_LEVEL, 3}};
    return rfh::resolveCorpusConfig(cfg, profiles, cells, nullptr);
}

Report
runCorpusWorkload(const Args &args)
{
    Report r;
    rfh::CorpusConfig cfg = corpusConfig(args.seed);
    rfh::ThreadPool pool(1);

    if (!args.trace) {
        double setup = probeSetupSec(args, kSetupProbes);
        if (setup < 0)
            r.fail("set-up probe failed");
        r.attempt(kSetupProbes);

        std::vector<double> rates, ms;
        std::string reference;
        std::uint64_t runsPerJob = 0;
        double start = nowSec();
        do {
            Job job = untracedJob(cfg, pool);
            // Checked as it finishes, outside the job's own timing;
            // only the first document is kept, so the memory held
            // does not grow with the number of jobs.
            if (ms.empty()) {
                reference = job.json;
                runsPerJob = job.runs;
            }
            checkJob(r, job, reference, "runCorpus");
            rates.push_back(static_cast<double>(job.runs) / job.wallSec);
            ms.push_back(job.wallSec * 1e3);
        } while (nowSec() - start < args.seconds);
        // Read before the direct-sample gate can raise the peak.
        double rss = selfPeakRssMiB();

        // ---- Correctness, outside the timed region ----
        checkDirectSample(r, cfg);

        r.set("setup_s", setup, "s");
        r.set("runs_per_s", median(rates), "1/s");
        r.set("latency_p50_ms", median(ms), "ms");
        r.set("latency_p99_ms", quantile(ms, 0.99), "ms");
        r.set("peak_rss_mb", rss, "MiB");
        char note[160];
        std::snprintf(note, sizeof note,
                      "corpus: %zu jobs x %llu runs; latency = one "
                      "runCorpus job (samples %zu)",
                      ms.size(),
                      static_cast<unsigned long long>(runsPerJob),
                      ms.size());
        r.notes.push_back(note);
        return r;
    }

    // ---- Traced run: alternate untraced and traced jobs ----
    SpanLog log;
    PhaseSums sums;
    LibCounters firstUntraced, tracedDelta;
    std::vector<double> untracedWall, tracedWall;
    double start = nowSec();
    int index = 0;
    do {
        // Alternate which job runs first so order effects cancel.
        Job plain, traced;
        LibCounters before = LibCounters::now();
        if (index % 2)
            traced = tracedJob(cfg, pool, log, sums, index);
        LibCounters c0 = LibCounters::now();
        plain = untracedJob(cfg, pool);
        LibCounters c1 = LibCounters::now();
        if (index % 2 == 0)
            traced = tracedJob(cfg, pool, log, sums, index);
        LibCounters after = LibCounters::now();
        if (index++ == 0)
            firstUntraced = c1.since(c0);
        tracedDelta.recordInstrs += after.since(before).recordInstrs -
                                    c1.since(c0).recordInstrs;
        checkJob(r, plain, plain.json, "runCorpus");
        checkJob(r, traced, plain.json, "traced walk");
        untracedWall.push_back(plain.wallSec);
        tracedWall.push_back(traced.wallSec);
    } while (nowSec() - start < args.seconds);
    checkDirectSample(r, cfg);
    setTracedLayers(r, log, sums, firstUntraced, tracedDelta, tracedWall,
                    untracedWall);
    if (!log.write(args.outDir + "/spans-corpus.json"))
        r.fail("could not write the span file");
    return r;
}

} // namespace pb
