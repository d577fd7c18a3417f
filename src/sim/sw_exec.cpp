#include "sim/sw_exec.h"

#include <array>
#include <optional>
#include <sstream>

#include "compiler/strand.h"
#include "ir/liveness.h"
#include "sim/drive.h"
#include "sim/machine.h"
#include "sim/replay_arena.h"
#include "sim/replay_kernels.h"
#include "sim/trace.h"

namespace rfh {

namespace {

/** One physical upper-level entry of a warp. */
struct Slot
{
    bool valid = false;
    Reg reg = 0;
    std::uint32_t value = 0;
};

/**
 * Per-run state shared by every warp of the software hierarchy's
 * accounting: the strand partition and a decode of the *annotated*
 * kernel — the accounting reads annotations out of the instr
 * snapshots, which a shared cached decode does not carry.
 */
struct SwModel
{
    static constexpr const char *kMetrics = "sim.sw";

    SwModel(const Kernel &kernel, const AllocOptions &o,
            const SwExecConfig &c, const AnalysisBundle *analyses)
        : k(kernel), opts(o), idealNoFlush(c.idealNoFlush),
          lrfBanks(o.useLRF ? (o.splitLRF ? 3 : 1) : 0),
          strands(kernel,
                  analyses ? analyses->cfg : localCfg.emplace(kernel),
                  o.strandOptions),
          dec(kernel)
    {
    }

    class Warp;

    const Kernel &k;
    AllocOptions opts;
    bool idealNoFlush;
    int lrfBanks;
    std::optional<Cfg> localCfg;
    StrandAnalysis strands;
    ReplayDecode dec;
};

/**
 * Replay accounting of one warp at the annotated levels: no values,
 * only the structural (value-independent) annotation checks, so a
 * failing allocation stops at the same instruction with the same
 * message and the same partial counts under every clock. Annotated-MRF
 * operands enter the collector; ORF/LRF operands bypass the banks
 * (the single-cycle upper levels of Section 4).
 */
class SwModel::Warp
{
  public:
    Warp(const SwModel &m, AccessCounts &counts, ReplayArena &)
        : m_(m), counts_(counts)
    {
    }

    void
    onInstr(int lin, bool enabled, bool /*taken*/, std::int32_t nextLin,
            OperandPlan *plan)
    {
        const Instruction &in = m_.dec.instr[lin];
        const Datapath dp = static_cast<Datapath>(m_.dec.datapath[lin]);
        const bool shared = m_.dec.shared[lin] != 0;

        // Mid-strand touch of an outstanding long-latency value (the
        // same structural check as the direct executor).
        if ((m_.dec.touched[lin] & pending_).any()) {
            if (m_.idealNoFlush) {
                counts_.deschedules++;
                pending_.reset();
            } else {
                fail(lin, "instruction touches an outstanding "
                     "long-latency register inside a strand");
                return;
            }
        }

        // ---- Operand reads: annotated level accounting ----
        auto read_one = [&](Reg r, const ReadAnnotation &ra) {
            switch (ra.level) {
              case Level::MRF:
                counts_.read(Level::MRF, dp);
                if (ra.depositToORF)
                    counts_.write(Level::ORF, dp);
                if (plan)
                    plan->mrfReg[plan->numMrf++] = r;
                break;
              case Level::ORF:
                counts_.read(Level::ORF, dp);
                if (plan)
                    plan->numBypass++;
                break;
              case Level::LRF:
                if (shared) {
                    fail(lin, "shared-datapath LRF read");
                    return;
                }
                if (ra.lrfBank >= static_cast<std::uint8_t>(m_.lrfBanks)) {
                    fail(lin, "LRF bank out of range");
                    return;
                }
                counts_.read(Level::LRF, dp);
                if (plan)
                    plan->numBypass++;
                break;
            }
        };
        for (int s = 0; s < in.numSrcs && error_.empty(); s++)
            if (in.srcs[s].isReg)
                read_one(in.srcs[s].reg, in.readAnno[s]);
        if (in.pred && error_.empty())
            read_one(*in.pred, in.predAnno);
        if (!error_.empty())
            return;

        counts_.instructions++;

        // ---- Result writes (suppressed when predicated off) ----
        if (in.dst && enabled) {
            const WriteAnnotation &wa = in.writeAnno;
            const int halves = in.wide ? 2 : 1;
            if (in.longLatency() && wa.anyUpper() && !m_.idealNoFlush) {
                fail(lin,
                     "long-latency result annotated to an upper level");
                return;
            }
            if (wa.toLRF) {
                if (in.wide || m_.lrfBanks == 0) {
                    fail(lin, "invalid LRF write annotation");
                    return;
                }
                counts_.write(Level::LRF, dp);
            }
            if (wa.toORF) {
                for (int h = 0; h < halves; h++) {
                    if (wa.orfEntry + h >= m_.opts.orfEntries) {
                        // The rest of the instruction still counts.
                        fail(lin, "ORF entry out of range");
                        break;
                    }
                    counts_.write(Level::ORF, dp);
                }
            }
            if (wa.toLRF && wa.toORF) {
                fail(lin, "value written to both LRF and ORF");
                return;
            }
            if (wa.toMRF)
                counts_.write(Level::MRF, dp, halves);
            if (in.longLatency())
                pending_ |= m_.dec.defined[lin];
        }

        // ---- Strand boundary ----
        bool crossing = false;
        if (nextLin >= 0 && !m_.idealNoFlush)
            crossing =
                m_.strands.strandOf(nextLin) != m_.strands.strandOf(lin) ||
                (nextLin <= lin && m_.opts.strandOptions.cutAtBackwardBranch);
        if (crossing && pending_.any()) {
            counts_.deschedules++;
            pending_.reset();
        }
    }

    std::string_view
    error() const
    {
        return error_;
    }

  private:
    void
    fail(int lin, const std::string &msg)
    {
        std::ostringstream os;
        os << m_.k.name << " @lin " << lin << ": " << msg;
        error_ = os.str();
    }

    const SwModel &m_;
    AccessCounts &counts_;
    RegSet pending_;
    std::string error_;
};

/** Software-scheme observability (sim.sw.*), shared with the driver. */
void
noteSwRun(const SwExecResult &result, bool replay)
{
    driveMetrics<SwModel>().note(result.counts, replay, !result.ok());
}

} // namespace

std::string
orfRangeError(unsigned entry)
{
    return "ORF entry " + std::to_string(entry) + " out of range";
}

SwExecResult
runSwHierarchy(const Kernel &k, const AllocOptions &opts,
               const SwExecConfig &cfg, const AnalysisBundle *analyses)
{
    SwExecResult result;
    AccessCounts &counts = result.counts;
    int lrf_banks = opts.useLRF ? (opts.splitLRF ? 3 : 1) : 0;

    // Recompute the strand partition to detect dynamic strand
    // crossings (ORF/LRF invalidation points). The CFG is structural,
    // so a shared precomputed one is equivalent.
    std::optional<Cfg> localCfg;
    const Cfg &cfg_graph = analyses ? analyses->cfg : localCfg.emplace(k);
    StrandAnalysis strands(k, cfg_graph, opts.strandOptions);

    auto fail = [&](int lin, const std::string &msg) {
        std::ostringstream os;
        os << k.name << " @lin " << lin << ": " << msg;
        result.error = os.str();
    };

    // Read-operand deposits happen in the write phase, after every
    // source of an instruction has been fetched. Hoisted out of the
    // hot loop so the per-instruction cost is a clear(), not a heap
    // allocation.
    std::vector<std::pair<int, Reg>> deposits;
    deposits.reserve(kMaxSrcs + 1);

    for (int w = 0; w < cfg.run.numWarps && result.ok(); w++) {
        WarpContext warp;
        warp.reset(static_cast<std::uint32_t>(w));

        // Shadow of the values that actually reached the MRF.
        std::array<std::uint32_t, kMaxRegs> mrf = warp.regs;
        std::vector<Slot> orf(opts.orfEntries);
        std::vector<Slot> lrf(lrf_banks);
        RegSet pending;
        std::uint64_t executed = 0;

        while (!warp.done && executed < cfg.run.maxInstrsPerWarp &&
               result.ok()) {
            int lin = warp.pc(k);
            const Instruction &in = k.instr(lin);
            Datapath dp = datapathOf(in.unit());
            bool shared = isSharedUnit(in.unit());

            // A well-formed strand never stalls mid-strand: any use of
            // an outstanding long-latency value must sit right after an
            // end-of-strand marker.
            RegSet touched = usedRegs(in) | definedRegs(in);
            if ((touched & pending).any()) {
                if (cfg.idealNoFlush) {
                    // Warp deschedules; entries persist (Section 7).
                    counts.deschedules++;
                    pending.reset();
                } else {
                    fail(lin, "instruction touches an outstanding "
                         "long-latency register inside a strand");
                    break;
                }
            }

            // ---- Operand reads ----
            deposits.clear();
            auto read_one = [&](Reg r, const ReadAnnotation &ra) {
                std::uint32_t arch = warp.regs[r];
                switch (ra.level) {
                  case Level::MRF:
                    counts.read(Level::MRF, dp);
                    if (mrf[r] != arch) {
                        fail(lin, "MRF read of R" + std::to_string(r) +
                             " returns a stale value");
                        return;
                    }
                    if (ra.depositToORF) {
                        if (ra.entry >= orf.size()) {
                            fail(lin, orfRangeError(ra.entry));
                            return;
                        }
                        deposits.emplace_back(ra.entry, r);
                        counts.write(Level::ORF, dp);
                    }
                    break;
                  case Level::ORF: {
                    if (ra.entry >= orf.size()) {
                        fail(lin, orfRangeError(ra.entry));
                        return;
                    }
                    const Slot &s = orf[ra.entry];
                    counts.read(Level::ORF, dp);
                    if (!s.valid || s.reg != r || s.value != arch) {
                        fail(lin, "ORF entry " +
                             std::to_string(ra.entry) +
                             " does not hold R" + std::to_string(r) +
                             " (valid=" + std::to_string(s.valid) +
                             " reg=R" + std::to_string(s.reg) +
                             " value=" + std::to_string(s.value) +
                             " arch=" + std::to_string(arch) + ")");
                    }
                    break;
                  }
                  case Level::LRF: {
                    if (shared) {
                        fail(lin, "shared-datapath LRF read");
                        return;
                    }
                    if (ra.lrfBank >= lrf.size()) {
                        fail(lin, "LRF bank out of range");
                        return;
                    }
                    const Slot &s = lrf[ra.lrfBank];
                    counts.read(Level::LRF, dp);
                    if (!s.valid || s.reg != r || s.value != arch) {
                        fail(lin, "LRF bank " +
                             std::to_string(ra.lrfBank) +
                             " does not hold R" + std::to_string(r));
                    }
                    break;
                  }
                }
            };
            for (int s = 0; s < in.numSrcs && result.ok(); s++)
                if (in.srcs[s].isReg)
                    read_one(in.srcs[s].reg, in.readAnno[s]);
            if (in.pred && result.ok())
                read_one(*in.pred, in.predAnno);
            if (!result.ok())
                break;
            for (auto [entry, r] : deposits) {
                Slot &s = orf[entry];
                s.valid = true;
                s.reg = r;
                s.value = warp.regs[r];
            }

            // ---- Execute ----
            bool enabled = !in.pred || warp.regs[*in.pred] != 0;
            counts.instructions++;
            step(k, warp);
            executed++;

            // ---- Result writes (suppressed when predicated off) ----
            if (in.dst && enabled) {
                const WriteAnnotation &wa = in.writeAnno;
                int halves = in.wide ? 2 : 1;
                if (in.longLatency() && wa.anyUpper() &&
                    !cfg.idealNoFlush) {
                    fail(lin, "long-latency result annotated to an "
                         "upper level");
                    break;
                }
                if (wa.toLRF) {
                    if (in.wide || lrf.empty()) {
                        fail(lin, "invalid LRF write annotation");
                        break;
                    }
                    if (wa.lrfBank >= lrf.size()) {
                        fail(lin, "LRF bank out of range");
                        break;
                    }
                    Slot &s = lrf[wa.lrfBank];
                    s.valid = true;
                    s.reg = *in.dst;
                    s.value = warp.regs[*in.dst];
                    counts.write(Level::LRF, dp);
                }
                if (wa.toORF) {
                    for (int h = 0; h < halves; h++) {
                        if (wa.orfEntry + h >=
                            static_cast<int>(orf.size())) {
                            fail(lin, "ORF entry out of range");
                            break;
                        }
                        Slot &s = orf[wa.orfEntry + h];
                        s.valid = true;
                        s.reg = static_cast<Reg>(*in.dst + h);
                        s.value = warp.regs[*in.dst + h];
                        counts.write(Level::ORF, dp);
                    }
                }
                if (wa.toLRF && wa.toORF) {
                    fail(lin, "value written to both LRF and ORF");
                    break;
                }
                if (wa.toMRF) {
                    for (int h = 0; h < halves; h++) {
                        mrf[*in.dst + h] = warp.regs[*in.dst + h];
                        counts.write(Level::MRF, dp);
                    }
                }
                if (in.longLatency())
                    pending |= definedRegs(in);
            }

            // ---- Strand boundary ----
            // Control passing into a different strand — or re-entering
            // the current strand through a backward edge — invalidates
            // the upper levels and deschedules the warp if a
            // long-latency operation is outstanding.
            bool crossing = false;
            if (!warp.done && !cfg.idealNoFlush) {
                int next = warp.pc(k);
                crossing = strands.strandOf(next) != strands.strandOf(lin)
                    || (next <= lin &&
                        opts.strandOptions.cutAtBackwardBranch);
            }
            if (crossing) {
                if (pending.any()) {
                    counts.deschedules++;
                    pending.reset();
                }
                for (auto &s : orf)
                    s.valid = false;
                for (auto &s : lrf)
                    s.valid = false;
            }
        }

    }
    noteSwRun(result, /*replay=*/false);
    return result;
}

namespace {

/**
 * Per-record counting deltas of one static instruction under its
 * current annotations: reads happen on every dynamic record (operands
 * are fetched before the predicate squashes the instruction), writes
 * only on executed records with a destination. All deltas land on the
 * instruction's own datapath.
 */
struct SwLinCost
{
    std::uint8_t reads[3] = {0, 0, 0};  ///< Per level.
    std::uint8_t depositWrites = 0;     ///< ORF writes from deposits.
    std::uint8_t wLRF = 0, wORF = 0, wMRF = 0;  ///< Executed-only.
};

/**
 * Scan the annotated kernel once, filling @p cost per instruction and
 * @p touched / @p defined for the deschedule pass. @return false when
 * any instruction could trigger a replay verification failure — the
 * caller must take the generic per-record driver, which reproduces the
 * failing run (message, stop point, partial counts) byte-exactly.
 */
bool
scanSwAnnotations(const Kernel &k, const AllocOptions &opts,
                  const SwExecConfig &cfg, SwLinCost *cost,
                  RegSet *touched, RegSet *defined)
{
    const int lrf_banks = opts.useLRF ? (opts.splitLRF ? 3 : 1) : 0;
    const int n = k.numInstrs();
    for (int lin = 0; lin < n; lin++) {
        const Instruction &in = k.instr(lin);
        const bool shared = isSharedUnit(in.unit());
        RegSet def = definedRegs(in);
        defined[lin] = def;
        touched[lin] = usedRegs(in) | def;
        SwLinCost &c = cost[lin];

        auto scan_read = [&](const ReadAnnotation &ra) {
            c.reads[static_cast<int>(ra.level)]++;
            if (ra.level == Level::MRF && ra.depositToORF)
                c.depositWrites++;
            if (ra.level == Level::LRF &&
                (shared ||
                 ra.lrfBank >= static_cast<std::uint8_t>(lrf_banks)))
                return false;
            return true;
        };
        for (int s = 0; s < in.numSrcs; s++)
            if (in.srcs[s].isReg && !scan_read(in.readAnno[s]))
                return false;
        if (in.pred && !scan_read(in.predAnno))
            return false;

        if (in.dst) {
            const WriteAnnotation &wa = in.writeAnno;
            const int halves = in.wide ? 2 : 1;
            if (in.longLatency() && wa.anyUpper() && !cfg.idealNoFlush)
                return false;
            if (wa.toLRF) {
                if (in.wide || lrf_banks == 0 || wa.toORF)
                    return false;
                c.wLRF = 1;
            }
            if (wa.toORF) {
                if (wa.orfEntry + halves > opts.orfEntries)
                    return false;
                c.wORF = static_cast<std::uint8_t>(halves);
            }
            if (wa.toMRF)
                c.wMRF = static_cast<std::uint8_t>(halves);
        }
    }
    return true;
}

/** First set bit of @p words in [@p from, @p end), or @p end. */
std::uint32_t
nextSetBit(const std::vector<std::uint64_t> &words, std::uint32_t from,
           std::uint32_t end)
{
    if (from >= end)
        return end;
    std::uint32_t w = from / 64;
    const std::uint32_t last = (end - 1) / 64;
    std::uint64_t word = words[w] & (~std::uint64_t{0} << (from % 64));
    while (true) {
        if (word) {
            std::uint32_t t = w * 64 + __builtin_ctzll(word);
            return t < end ? t : end;
        }
        if (w == last)
            return end;
        word = words[++w];
    }
}

} // namespace

SwExecResult
replaySwHierarchy(const Kernel &k, const AllocOptions &opts,
                  const DecodedTrace &trace, const SwExecConfig &cfg,
                  const AnalysisBundle *analyses)
{
    // ---- Fast path: histogram counting + popcount sweeps ----
    // Every count is a sum over dynamic records of a per-instruction
    // delta, so instead of walking the stream doing per-record
    // annotation dispatch, histogram the stream by static instruction
    // and apply each instruction's delta once — byte-identical totals
    // in O(records) trivial work plus O(instrs) finalisation. Only the
    // deschedule count is order-dependent; a dedicated pass handles it
    // by bit-scanning directly between the rare records that can make
    // a long-latency register outstanding.
    const int n = k.numInstrs();
    ReplayArena &arena = acquireThreadReplayArena();
    SwLinCost *cost = arena.allocZeroed<SwLinCost>(n);
    RegSet *touched = arena.alloc<RegSet>(n);
    RegSet *defined = arena.alloc<RegSet>(n);
    // Traces without bit-planes and runs that can fail verification
    // take the generic per-record driver, which reproduces a failing
    // run (message, stop point, partial counts) exactly.
    auto perRecord = [&] {
        std::unique_ptr<SchemeAccounting> acct =
            swHierarchyAccounting(k, opts, cfg, analyses);
        acct->driveTrace(trace);
        return SwExecResult{acct->counts(), acct->error()};
    };
    if (!trace.hasPlanes() ||
        !scanSwAnnotations(k, opts, cfg, cost, touched, defined))
        return perRecord();

    SwExecResult result;
    AccessCounts &counts = result.counts;

    // ---- Deschedule pass ----
    // pending can only become non-empty at an executed long-latency
    // record with a destination (llWords); while it is empty every
    // other record is a no-op for this pass, so skip between set bits.
    // A mid-strand touch of an outstanding register is a verification
    // failure outside the ideal model — delegate the whole run to the
    // per-record driver so the failure is reproduced byte-exactly.
    std::optional<Cfg> localCfg;
    const Cfg &cfg_graph =
        analyses ? analyses->cfg : localCfg.emplace(k);
    StrandAnalysis strands(k, cfg_graph, opts.strandOptions);
    const bool cut_backward = opts.strandOptions.cutAtBackwardBranch;
    for (int w = 0; w < trace.numWarps(); w++) {
        const std::uint32_t end = trace.warpBegin[w + 1];
        std::uint32_t t = trace.warpBegin[w];
        RegSet pending;
        while (t < end) {
            const bool first_ll = pending.none();
            if (first_ll) {
                t = nextSetBit(trace.llWords, t, end);
                if (t == end)
                    break;
            }
            const int lin = trace.lin[t];
            if (!first_ll && (touched[lin] & pending).any()) {
                if (!cfg.idealNoFlush)
                    return perRecord();
                counts.deschedules++;
                pending.reset();
            }
            if ((trace.llWords[t / 64] >> (t % 64)) & 1u)
                pending |= defined[lin];
            if (!cfg.idealNoFlush && pending.any()) {
                const std::int32_t next = trace.nextLin(w, t);
                if (next >= 0 &&
                    (strands.strandOf(next) != strands.strandOf(lin) ||
                     (next <= lin && cut_backward))) {
                    counts.deschedules++;
                    pending.reset();
                }
            }
            t++;
        }
    }

    // ---- Access counting: histogram + per-instruction deltas ----
    const std::size_t total = trace.lin.size();
    std::uint32_t *histAll = arena.allocZeroed<std::uint32_t>(n);
    std::uint32_t *histOff = arena.allocZeroed<std::uint32_t>(n);
    histogramRecords(trace.lin.data(), total, histAll);
    if (trace.executedInstrs != total)
        histogramClearBits(trace.execWords.data(), trace.lin.data(),
                           total, histOff);
    for (int lin = 0; lin < n; lin++) {
        const std::uint64_t all = histAll[lin];
        if (all == 0)
            continue;
        const std::uint64_t ex = all - histOff[lin];
        const SwLinCost &c = cost[lin];
        const Datapath dp = datapathOf(k.instr(lin).unit());
        for (int l = 0; l < 3; l++)
            counts.read(static_cast<Level>(l), dp, c.reads[l] * all);
        counts.write(Level::ORF, dp,
                     c.depositWrites * all + c.wORF * ex);
        if (c.wLRF)
            counts.write(Level::LRF, dp, c.wLRF * ex);
        if (c.wMRF)
            counts.write(Level::MRF, dp, c.wMRF * ex);
    }
    counts.instructions = total;
    noteSwRun(result, /*replay=*/true);
    return result;
}

std::unique_ptr<SchemeAccounting>
swHierarchyAccounting(const Kernel &k, const AllocOptions &opts,
                      const SwExecConfig &cfg,
                      const AnalysisBundle *analyses)
{
    return makeAccounting<SwModel>(k, opts, cfg, analyses);
}

} // namespace rfh
