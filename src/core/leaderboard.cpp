#include "core/leaderboard.h"

#include <algorithm>

#include "core/corpus.h"
#include "core/json.h"

namespace rfh {

void
attachCorpusBands(Leaderboard &lb, const CorpusResult &corpus)
{
    for (LeaderboardRow &row : lb.rows) {
        // Merge the row's (token, entries) cell across every profile:
        // the population behind the band is the whole corpus, and the
        // exact merge makes the result independent of profile order.
        StreamStat merged;
        for (const CorpusProfileStats &ps : corpus.profiles)
            for (const CorpusCellStats &cs : ps.cells)
                if (cs.schemeToken == row.token &&
                    cs.cell.entries == row.entries)
                    merged.merge(cs.energyRatio);
        if (merged.count() == 0)
            continue;
        row.hasPopulation = true;
        row.populationMean = merged.mean();
        row.populationRuns = merged.count();
        row.populationBand = merged.bootstrapMeanBand(
            corpus.config.confidence, corpus.config.bootstrapResamples,
            corpus.config.seed);
    }
}

Leaderboard
runLeaderboard(const ExperimentConfig &base, ThreadPool *pool)
{
    Leaderboard lb;
    Stopwatch wall;

    // The energy sweep never pays for cycle-level timing: perf runs
    // once per scheme at its chosen entries point, below, not for
    // every grid cell.
    ExperimentConfig swcfg = base;
    swcfg.perf = false;

    std::vector<Scheme> swept;
    for (const SchemeInfo *si : SchemeRegistry::instance().schemes())
        if (si->caps.sweepsEntries)
            swept.push_back(si->scheme);
    std::vector<SweepPoint> points =
        sweepEntries(swept, swcfg, pool, &lb.timing);
    lb.baseline = aggregateBaselineCounts();

    for (const SchemeInfo *si : SchemeRegistry::instance().schemes()) {
        LeaderboardRow row;
        row.scheme = si->scheme;
        row.token = si->token;
        row.display = si->display;
        row.paper = si->paper;
        if (si->caps.sweepsEntries) {
            const SweepPoint *best = bestPoint(points, si->scheme);
            row.swept = true;
            row.entries = best->entries;
            row.outcome = best->outcome;
        } else {
            ExperimentConfig cfg = swcfg;
            cfg.scheme = si->scheme;
            row.entries = cfg.entries;
            row.outcome = runAllWorkloads(cfg, pool);
        }
        if (base.perf) {
            ExperimentConfig pc = base;
            pc.scheme = si->scheme;
            pc.entries = row.entries;
            for (const Workload &w : allWorkloads()) {
                SchemePipelineResult pr =
                    runSchemePipeline(w, pc, base.pipeline);
                if (!pr.ok()) {
                    if (!row.outcome.error.empty())
                        row.outcome.error += "; ";
                    row.outcome.error +=
                        w.name + ": pipeline: " + pr.error;
                    continue;
                }
                row.outcome.perf.add(pr.stats);
                row.outcome.hasPerf = true;
            }
        }
        row.breakdown =
            normalizeAccesses(row.outcome.counts, lb.baseline);
        lb.rows.push_back(std::move(row));
    }

    // Rank by ascending normalised energy; stable sort keeps registry
    // order on ties so the board is deterministic.
    std::stable_sort(lb.rows.begin(), lb.rows.end(),
                     [](const LeaderboardRow &a,
                        const LeaderboardRow &b) {
                         return a.outcome.normalizedEnergy() <
                             b.outcome.normalizedEnergy();
                     });
    lb.timing.wallSec = wall.elapsedSec();
    return lb;
}

std::string
renderLeaderboard(const Leaderboard &lb)
{
    bool perf = false;
    bool population = false;
    for (const LeaderboardRow &row : lb.rows) {
        perf |= row.outcome.hasPerf;
        population |= row.hasPopulation;
    }

    std::vector<std::string> head = {"Rank", "Scheme", "Token",
                                     "Entries", "Energy", "Saved",
                                     "Reads M/O/L", "Writes M/O/L"};
    if (population)
        head.push_back("Pop CI");
    if (perf) {
        head.push_back("IPC");
        head.push_back("Stall sb/cl/ex/sw/dr");
    }
    TextTable t(head);
    int rank = 0;
    for (const LeaderboardRow &row : lb.rows) {
        rank++;
        const AccessBreakdown &b = row.breakdown;
        std::vector<std::string> cells = {
            std::to_string(rank),
            row.display + (row.paper ? "" : " *"), row.token,
            row.swept ? std::to_string(row.entries)
                      : std::to_string(row.entries) + " (fixed)",
            fmt(row.outcome.normalizedEnergy(), 3),
            pct(1.0 - row.outcome.normalizedEnergy()),
            pct(b.mrfReads) + "/" + pct(b.orfReads) + "/" +
                pct(b.lrfReads),
            pct(b.mrfWrites) + "/" + pct(b.orfWrites) + "/" +
                pct(b.lrfWrites)};
        if (population) {
            cells.push_back(
                row.hasPopulation
                    ? fmt(row.populationMean, 3) + " [" +
                          fmt(row.populationBand.lo, 3) + "," +
                          fmt(row.populationBand.hi, 3) + "]"
                    : "-");
        }
        if (perf) {
            if (row.outcome.hasPerf) {
                const PipelineStats &p = row.outcome.perf;
                double c = p.cycles ? static_cast<double>(p.cycles)
                                    : 1.0;
                const PipelineStalls &s = p.stalls;
                cells.push_back(fmt(p.ipc(), 3));
                cells.push_back(pct(s.scoreboard / c) + "/" +
                                pct(s.collector / c) + "/" +
                                pct(s.execBusy / c) + "/" +
                                pct(s.swap / c) + "/" +
                                pct(s.drain / c));
            } else {
                cells.push_back("-");
                cells.push_back("-");
            }
        }
        t.addRow(cells);
    }
    std::string legend =
        "(* = contributed backend, not a paper scheme; "
        "M/O/L = MRF/ORF/LRF fraction of baseline)\n";
    if (population)
        legend += "(Pop CI = corpus population energy-ratio mean and "
                  "bootstrap confidence band at the row's entries "
                  "point)\n";
    if (perf)
        legend +=
            "(IPC over the workload suite; stalls as cycle fractions: "
            "sb=scoreboard cl=collector ex=exec-busy sw=swap "
            "dr=drain)\n";
    return t.str() + legend;
}

std::string
leaderboardToJson(const Leaderboard &lb)
{
    JsonWriter w;
    w.beginObject();
    w.key("rows");
    w.beginArray();
    int rank = 0;
    for (const LeaderboardRow &row : lb.rows) {
        rank++;
        const AccessBreakdown &b = row.breakdown;
        w.beginObject();
        w.key("rank").value(rank);
        w.key("scheme").value(row.token);
        w.key("display").value(row.display);
        w.key("paper").value(row.paper);
        w.key("swept").value(row.swept);
        w.key("entries").value(row.entries);
        w.key("energyPJ").value(row.outcome.energyPJ);
        w.key("baselineEnergyPJ")
            .value(row.outcome.baselineEnergyPJ);
        w.key("normalizedEnergy")
            .value(row.outcome.normalizedEnergy());
        w.key("reads");
        w.beginObject();
        w.key("mrf").value(b.mrfReads);
        w.key("orf").value(b.orfReads);
        w.key("lrf").value(b.lrfReads);
        w.endObject();
        w.key("writes");
        w.beginObject();
        w.key("mrf").value(b.mrfWrites);
        w.key("orf").value(b.orfWrites);
        w.key("lrf").value(b.lrfWrites);
        w.endObject();
        w.key("wbReads").value(row.outcome.counts.wbReads);
        w.key("wbWrites").value(row.outcome.counts.wbWrites);
        if (row.outcome.hasPerf) {
            const PipelineStats &p = row.outcome.perf;
            w.key("perf");
            w.beginObject();
            w.key("cycles").value(p.cycles);
            w.key("instructions").value(p.issued);
            w.key("ipc").value(p.ipc());
            w.key("swaps").value(p.swaps);
            w.key("bankConflicts").value(p.bankConflicts);
            w.key("stalls");
            w.beginObject();
            w.key("scoreboard").value(p.stalls.scoreboard);
            w.key("collector").value(p.stalls.collector);
            w.key("execBusy").value(p.stalls.execBusy);
            w.key("swap").value(p.stalls.swap);
            w.key("drain").value(p.stalls.drain);
            w.endObject();
            w.endObject();
        }
        if (row.hasPopulation) {
            w.key("population");
            w.beginObject();
            w.key("runs").value(row.populationRuns);
            w.key("mean").value(row.populationMean);
            w.key("lo").value(row.populationBand.lo);
            w.key("hi").value(row.populationBand.hi);
            w.endObject();
        }
        if (!row.outcome.ok())
            w.key("error").value(row.outcome.error);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

} // namespace rfh
