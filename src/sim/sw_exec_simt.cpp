#include "sim/sw_exec_simt.h"

#include <memory>
#include <sstream>
#include <vector>

#include "compiler/strand.h"
#include "ir/liveness.h"
#include "sim/drive.h"
#include "sim/simt.h"
#include "sim/trace.h"

namespace rfh {

namespace {

struct LaneSlot
{
    bool valid = false;
    Reg reg = 0;
    std::uint32_t value = 0;
};

/** Per-lane upper-level state. */
struct LaneState
{
    std::vector<LaneSlot> orf;
    std::vector<LaneSlot> lrf;
    std::array<std::uint32_t, kMaxRegs> mrf{};
    int lastActiveLin = -1;

    void
    invalidate()
    {
        for (auto &s : orf)
            s.valid = false;
        for (auto &s : lrf)
            s.valid = false;
    }
};

/** "<kernel> @lin <lin> lane <lane>: <msg>"; lane -1 is warp-level. */
std::string
simtError(const Kernel &k, int lin, int lane, const std::string &msg)
{
    std::ostringstream os;
    os << k.name << " @lin " << lin << " lane " << lane << ": " << msg;
    return os.str();
}

/**
 * The range check of an enabled result write, shared by the direct
 * executor and the replay model: @return the failure, or empty when
 * every written LRF bank and ORF entry exists.
 */
std::string
writeRangeError(const WriteAnnotation &wa, int halves, int orfEntries,
                int lrfBanks)
{
    if (wa.toLRF && wa.lrfBank >= lrfBanks)
        return "LRF bank out of range";
    if (wa.toORF && wa.orfEntry + halves > orfEntries)
        return "ORF entry out of range";
    return "";
}

} // namespace

SwExecResult
runSwHierarchySimt(const Kernel &k, const AllocOptions &opts,
                   const SimtExecConfig &cfg)
{
    SwExecResult result;
    AccessCounts &counts = result.counts;
    int lrf_banks = opts.useLRF ? (opts.splitLRF ? 3 : 1) : 0;

    Cfg cfg_graph(k);
    StrandAnalysis strands(k, cfg_graph, opts.strandOptions);

    auto fail = [&](int lin, int lane, const std::string &msg) {
        result.error = simtError(k, lin, lane, msg);
    };

    // Per-instruction scratch, hoisted out of the hot loop so each
    // dynamic instruction costs a clear(), not heap allocations.
    struct Deposit { int entry; Reg reg; };
    std::vector<Deposit> deposits;
    deposits.reserve(kMaxSrcs + 1);
    std::vector<bool> was_enabled(cfg.width);

    for (int w = 0; w < cfg.numWarps && result.ok(); w++) {
        SimtWarp warp(k, cfg_graph, static_cast<std::uint32_t>(w),
                      cfg.width);
        std::vector<LaneState> lanes(cfg.width);
        for (auto &ls : lanes) {
            ls.orf.resize(opts.orfEntries);
            ls.lrf.resize(lrf_banks);
        }
        // The MRF shadow starts as the seeded register file.
        for (int l = 0; l < cfg.width; l++)
            lanes[l].mrf = warp.laneRegsNow(l);
        RegSet pending;
        int prev_lin = -1;
        bool prev_taken_backward = false;

        std::uint64_t executed = 0;
        while (!warp.done() && executed++ < cfg.maxInstrsPerWarp &&
               result.ok()) {
            int lin = warp.currentLin();
            const Instruction &in = warp.currentInstr();
            LaneMask mask = warp.activeMask();
            Datapath dp = datapathOf(in.unit());
            bool shared = isSharedUnit(in.unit());
            int strand = strands.strandOf(lin);

            // Per-lane strand-crossing invalidation along each lane's
            // own dynamic path.
            for (int l = 0; l < cfg.width; l++) {
                if (!((mask >> l) & 1u))
                    continue;
                LaneState &ls = lanes[l];
                if (ls.lastActiveLin >= 0) {
                    bool crossing =
                        strands.strandOf(ls.lastActiveLin) != strand ||
                        (lin <= ls.lastActiveLin &&
                         opts.strandOptions.cutAtBackwardBranch);
                    if (crossing)
                        ls.invalidate();
                }
                ls.lastActiveLin = lin;
            }

            // Warp-level synchronisation: the execution point moving
            // forward into a new strand, or re-entering a strand via a
            // taken backward branch, resolves outstanding long-latency
            // loads — descheduling the warp (flushing every lane) when
            // any are pending. Serialised hammock sides switch the
            // execution point within one strand and do not sync.
            bool warp_sync = prev_taken_backward ||
                (prev_lin >= 0 && lin > prev_lin &&
                 strands.strandOf(lin) != strands.strandOf(prev_lin));
            if (warp_sync && pending.any()) {
                counts.deschedules++;
                pending.reset();
                for (auto &ls : lanes)
                    ls.invalidate();
            }

            // A touch of a still-outstanding long-latency register
            // inside a strand means the compiler missed an endpoint.
            RegSet touched = usedRegs(in) | definedRegs(in);
            if ((touched & pending).any()) {
                fail(lin, -1, "instruction touches an outstanding "
                     "long-latency register inside a strand");
                break;
            }

            // Per-lane enable (active + predicate).
            auto enabled = [&](int l) {
                if (!((mask >> l) & 1u))
                    return false;
                return !in.pred ||
                    warp.laneRegsNow(l)[*in.pred] != 0;
            };

            // ---- Verify reads per enabled lane; count per warp ----
            deposits.clear();
            auto read_one = [&](Reg r, const ReadAnnotation &ra) {
                // Structural checks (entry ranges, shared-datapath LRF
                // reads) are warp-level (lane -1) and sit where the
                // replay model makes them, so both stop with the same
                // message and the same partial counts.
                if (ra.level == Level::ORF &&
                    ra.entry >= opts.orfEntries) {
                    fail(lin, -1, orfRangeError(ra.entry));
                    return;
                }
                counts.read(ra.level, dp);
                if (ra.depositToORF) {
                    if (ra.entry >= opts.orfEntries) {
                        fail(lin, -1, orfRangeError(ra.entry));
                        return;
                    }
                    deposits.push_back({ra.entry, r});
                    counts.write(Level::ORF, dp);
                }
                if (ra.level == Level::LRF) {
                    if (shared) {
                        fail(lin, -1, "shared-datapath LRF read");
                        return;
                    }
                    if (ra.lrfBank >= lrf_banks) {
                        fail(lin, -1, "LRF bank out of range");
                        return;
                    }
                }
                for (int l = 0; l < cfg.width && result.ok(); l++) {
                    // Operands are fetched before the predicate
                    // squashes the instruction, so every ACTIVE lane
                    // reads (and is verified) — matching the scalar
                    // executor, which reads operands regardless of
                    // the predicate value.
                    if (!((mask >> l) & 1u))
                        continue;
                    std::uint32_t arch = warp.laneRegsNow(l)[r];
                    LaneState &ls = lanes[l];
                    switch (ra.level) {
                      case Level::MRF:
                        if (ls.mrf[r] != arch)
                            fail(lin, l, "stale MRF value for R" +
                                 std::to_string(r));
                        break;
                      case Level::ORF: {
                        const LaneSlot &s = ls.orf[ra.entry];
                        if (!s.valid || s.reg != r || s.value != arch)
                            fail(lin, l, "ORF entry " +
                                 std::to_string(ra.entry) +
                                 " does not hold R" +
                                 std::to_string(r));
                        break;
                      }
                      case Level::LRF: {
                        const LaneSlot &s = ls.lrf[ra.lrfBank];
                        if (!s.valid || s.reg != r || s.value != arch)
                            fail(lin, l, "LRF bank " +
                                 std::to_string(ra.lrfBank) +
                                 " does not hold R" +
                                 std::to_string(r));
                        break;
                      }
                    }
                }
            };
            for (int s = 0; s < in.numSrcs && result.ok(); s++)
                if (in.srcs[s].isReg)
                    read_one(in.srcs[s].reg, in.readAnno[s]);
            if (in.pred && result.ok()) {
                // The predicate is an operand like any other: it is
                // read by every active lane and can carry a deposit.
                read_one(*in.pred, in.predAnno);
            }
            if (!result.ok())
                break;

            // Deposits land for every ACTIVE lane: the operand is
            // fetched before the predicate squashes the instruction,
            // so the deposit does not depend on the predicate (which
            // keeps read-operand anchors sound under predication).
            for (const Deposit &d : deposits) {
                for (int l = 0; l < cfg.width; l++) {
                    if (!((mask >> l) & 1u))
                        continue;
                    LaneSlot &s = lanes[l].orf[d.entry];
                    s.valid = true;
                    s.reg = d.reg;
                    s.value = warp.laneRegsNow(l)[d.reg];
                }
            }

            // Snapshot enables before execution mutates predicates.
            bool any = false;
            for (int l = 0; l < cfg.width; l++) {
                was_enabled[l] = enabled(l);
                any = any || was_enabled[l];
            }

            // ---- Execute the warp instruction ----
            // A backward branch with any enabled lane syncs the warp.
            counts.instructions++;
            prev_lin = lin;
            prev_taken_backward = any && in.op == Opcode::BRA &&
                in.branchTarget <= k.ref(lin).block;
            warp.step();

            // ---- Writes per enabled lane; count per warp ----
            if (in.dst && any) {
                const WriteAnnotation &wa = in.writeAnno;
                int halves = in.wide ? 2 : 1;
                const std::string range =
                    writeRangeError(wa, halves, opts.orfEntries, lrf_banks);
                if (!range.empty()) {
                    fail(lin, -1, range);
                    break;
                }
                for (int l = 0; l < cfg.width; l++) {
                    if (!was_enabled[l])
                        continue;
                    LaneState &ls = lanes[l];
                    for (int h = 0; h < halves; h++) {
                        Reg r = static_cast<Reg>(*in.dst + h);
                        std::uint32_t v = warp.laneRegsNow(l)[r];
                        if (wa.toLRF) {
                            LaneSlot &s = ls.lrf[wa.lrfBank];
                            s.valid = true;
                            s.reg = r;
                            s.value = v;
                        }
                        if (wa.toORF) {
                            LaneSlot &s = ls.orf[wa.orfEntry + h];
                            s.valid = true;
                            s.reg = r;
                            s.value = v;
                        }
                        if (wa.toMRF)
                            ls.mrf[r] = v;
                    }
                }
                if (wa.toLRF)
                    counts.write(Level::LRF, dp);
                if (wa.toORF)
                    counts.write(Level::ORF, dp, halves);
                if (wa.toMRF)
                    counts.write(Level::MRF, dp, halves);
                if (in.longLatency())
                    pending |= definedRegs(in);
            }
        }
    }
    return result;
}

namespace {

/**
 * Per-run state shared by every warp of the SIMT replay: the strand
 * partition and a decode of the *annotated* kernel (the accounting
 * reads annotations out of the instr snapshots).
 */
struct SimtSwModel
{
    static constexpr const char *kMetrics = "sim.simt";

    SimtSwModel(const Kernel &kernel, const AllocOptions &o)
        : k(kernel), orfEntries(o.orfEntries),
          lrfBanks(o.useLRF ? (o.splitLRF ? 3 : 1) : 0), cfg(kernel),
          strands(kernel, cfg, o.strandOptions), dec(kernel)
    {
    }

    class Warp;

    const Kernel &k;
    int orfEntries;
    int lrfBanks;
    Cfg cfg;
    StrandAnalysis strands;
    ReplayDecode dec;
};

/**
 * Warp-level access counting of one SIMT warp over the recorded SIMT
 * stream (recordSimtDecodedTrace: enabled = some active lane passed
 * its predicate; taken = a backward branch with an enabled lane), with
 * the structural checks of the direct executor but no per-lane values.
 * The warp synchronisation a record triggers is resolved at the start
 * of the warp's *next* record, exactly where the direct executor
 * evaluates it, so a capped warp's last record never counts a
 * deschedule. Only the trace clock drives it (replaySwHierarchySimt),
 * so it fills no operand plan.
 */
class SimtSwModel::Warp
{
  public:
    Warp(const SimtSwModel &m, AccessCounts &counts, ReplayArena &)
        : m_(m), counts_(counts)
    {
    }

    void
    onInstr(int lin, bool enabled, bool taken, std::int32_t /*nextLin*/,
            OperandPlan * /*plan*/)
    {
        const Instruction &in = m_.dec.instr[lin];
        const Datapath dp = static_cast<Datapath>(m_.dec.datapath[lin]);
        const bool shared = m_.dec.shared[lin] != 0;

        // Warp-level synchronisation (see the direct executor):
        // forward motion into a new strand, or a taken backward
        // branch, resolves outstanding long-latency loads.
        const bool warp_sync = prevTakenBackward_ ||
            (prevLin_ >= 0 && lin > prevLin_ &&
             m_.strands.strandOf(lin) != m_.strands.strandOf(prevLin_));
        if (warp_sync && pending_.any()) {
            counts_.deschedules++;
            pending_.reset();
        }

        // A touch of a still-outstanding long-latency register
        // inside a strand means the compiler missed an endpoint.
        if ((m_.dec.touched[lin] & pending_).any()) {
            fail(lin, "instruction touches an outstanding "
                 "long-latency register inside a strand");
            return;
        }

        // ---- Reads: count per warp; structural checks only ----
        auto read_one = [&](const ReadAnnotation &ra) {
            if (ra.level == Level::ORF && ra.entry >= m_.orfEntries) {
                fail(lin, orfRangeError(ra.entry));
                return;
            }
            counts_.read(ra.level, dp);
            if (ra.depositToORF) {
                if (ra.entry >= m_.orfEntries) {
                    fail(lin, orfRangeError(ra.entry));
                    return;
                }
                counts_.write(Level::ORF, dp);
            }
            // Every record has an active lane, and every active lane
            // fetches its operands, predicated off or not.
            if (ra.level == Level::LRF) {
                if (shared)
                    fail(lin, "shared-datapath LRF read");
                else if (ra.lrfBank >= m_.lrfBanks)
                    fail(lin, "LRF bank out of range");
            }
        };
        for (int s = 0; s < in.numSrcs && error_.empty(); s++)
            if (in.srcs[s].isReg)
                read_one(in.readAnno[s]);
        // The predicate is an operand like any other: it is read by
        // every active lane and can carry a deposit.
        if (in.pred && error_.empty())
            read_one(in.predAnno);
        if (!error_.empty())
            return;

        counts_.instructions++;
        prevLin_ = lin;
        prevTakenBackward_ = taken;

        // ---- Writes: count per warp when any lane was enabled ----
        if (in.dst && enabled) {
            const WriteAnnotation &wa = in.writeAnno;
            const int halves = in.wide ? 2 : 1;
            const std::string range =
                writeRangeError(wa, halves, m_.orfEntries, m_.lrfBanks);
            if (!range.empty()) {
                fail(lin, range);
                return;
            }
            if (wa.toLRF)
                counts_.write(Level::LRF, dp);
            if (wa.toORF)
                counts_.write(Level::ORF, dp, halves);
            if (wa.toMRF)
                counts_.write(Level::MRF, dp, halves);
            if (in.longLatency())
                pending_ |= m_.dec.defined[lin];
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
        error_ = simtError(m_.k, lin, -1, msg);
    }

    const SimtSwModel &m_;
    AccessCounts &counts_;
    RegSet pending_;
    int prevLin_ = -1;
    bool prevTakenBackward_ = false;
    std::string error_;
};

} // namespace

SwExecResult
replaySwHierarchySimt(const Kernel &k, const AllocOptions &opts,
                      const DecodedTrace &trace)
{
    std::unique_ptr<SchemeAccounting> acct =
        makeAccounting<SimtSwModel>(k, opts);
    acct->driveTrace(trace);
    return {acct->counts(), acct->error()};
}

} // namespace rfh
