#include "sim/hw_cache.h"

#include <optional>

#include "ir/liveness.h"
#include "ir/reaching_defs.h"
#include "sim/drive.h"
#include "sim/rfc_ring.h"
#include "sim/trace.h"

namespace rfh {

namespace {

/** Per-run state shared by every warp under the hardware cache. */
struct HwModel
{
    static constexpr const char *kMetrics = "sim.hw";

    HwModel(const Kernel &k, const HwCacheConfig &c,
            const AnalysisBundle *a, const ReplayDecode *d)
        : cfg(c)
    {
        // The analyses are structure-only, so a shared precomputed
        // bundle is equivalent to computing them here.
        analyses = a ? a : &localAnalyses.emplace(k);
        dec = d && d->hasSharedConsumerInfo()
            ? d
            : &localDec.emplace(k, &analyses->reachingDefs);
    }

    class Warp;

    HwCacheConfig cfg;
    std::optional<AnalysisBundle> localAnalyses;
    std::optional<ReplayDecode> localDec;
    const AnalysisBundle *analyses;
    const ReplayDecode *dec;
};

/**
 * Hierarchy state + access accounting of one warp under the hardware
 * cache, driven by every clock of sim/drive.h: everything
 * value-dependent is folded into the @c enabled and @c taken inputs.
 *
 * The inner loop reads only the compact ReplayOp records and the
 * derived register sets of the decode — never the Instruction
 * snapshots — so a decode shared across annotated copies is safe.
 * The decode must carry shared-consumer info (kOpLrfAble).
 */
class HwModel::Warp
{
  public:
    Warp(const HwModel &m, AccessCounts &counts, ReplayArena &arena)
        : dec_(*m.dec), cfg_(m.cfg), liveness_(m.analyses->liveness),
          counts_(counts), rfc_(m.cfg.rfcEntries, arena)
    {
    }

    /**
     * Account one dynamic instruction. @p enabled is the predicate
     * outcome at issue; @p taken whether a BRA was taken.
     */
    void
    onInstr(int lin, bool enabled, bool taken, std::int32_t /*nextLin*/,
            OperandPlan *plan)
    {
        const ReplayOp &o = dec_.op[lin];
        const Datapath dp = static_cast<Datapath>(o.dp);
        const bool shared = (o.flags & kOpShared) != 0;

        // Two-level scheduler: deschedule on a dependence on an
        // outstanding long-latency operation (reads, writes, or
        // overwrites of its destination).
        if ((dec_.touched[lin] & pending_).any()) {
            // Liveness immediately before this instruction.
            RegSet live_before =
                (liveness_.liveAfter(lin) & ~dec_.defined[lin]) |
                dec_.used[lin];
            flushAll(live_before);
            pending_.reset();
            counts_.deschedules++;
        }

        // Operand reads: LRF (private only) -> RFC -> MRF.
        auto read_one = [&](Reg r) {
            if (cfg_.useLRF && !shared && lrf_valid_ && lrf_reg_ == r) {
                counts_.read(Level::LRF, dp);
                if (plan)
                    plan->numBypass++;
            } else if (rfc_.contains(r)) {
                counts_.read(Level::ORF, dp);
                if (plan)
                    plan->numBypass++;
            } else {
                counts_.read(Level::MRF, dp);
                if (plan)
                    plan->mrfReg[plan->numMrf++] = r;
            }
        };
        for (int s = 0; s < o.nsrc; s++)
            read_one(o.src[s]);
        if (o.pred >= 0)
            read_one(static_cast<Reg>(o.pred));

        // Result write (suppressed when predicated off).
        if (o.dst >= 0 && enabled) {
            const Reg dst = static_cast<Reg>(o.dst);
            const int halves = o.halves;
            if (o.flags & kOpLongLat) {
                // Long-latency results bypass the hierarchy.
                counts_.write(Level::MRF, dp, halves);
                // Their destination must not linger in the caches.
                for (int h = 0; h < halves; h++) {
                    Reg r = static_cast<Reg>(dst + h);
                    rfc_.erase(r);
                    if (lrf_valid_ && lrf_reg_ == r)
                        lrf_valid_ = false;
                }
                pending_ |= dec_.defined[lin];
            } else if (cfg_.useLRF && (o.flags & kOpLrfAble)) {
                // Private result consumed privately: goes to LRF.
                if (lrf_valid_ && lrf_reg_ != dst)
                    spillLrfToRfc(lin);
                rfc_.erase(dst);  // keep a single location
                lrf_valid_ = true;
                lrf_reg_ = dst;
                counts_.write(Level::LRF, dp);
            } else {
                for (int h = 0; h < halves; h++) {
                    Reg r = static_cast<Reg>(dst + h);
                    if (cfg_.useLRF && lrf_valid_ && lrf_reg_ == r)
                        lrf_valid_ = false;  // overwritten
                    Reg victim = 0;
                    if (rfc_.insert(r, victim)) {
                        if (liveness_.liveAfter(lin, victim)) {
                            counts_.read(Level::ORF, dp);
                            counts_.wbReads++;
                            counts_.write(Level::MRF, dp);
                            counts_.wbWrites++;
                        }
                    }
                    counts_.write(Level::ORF, dp);
                }
            }
        }

        counts_.instructions++;

        // Backward branch taken: optional flush variant.
        if (cfg_.flushOnBackwardBranch && taken &&
            (o.flags & kOpBackward))
            flushAll(liveness_.liveAfter(lin));
    }

  private:
    /** Spill the LRF occupant into the RFC (LRF eviction path). */
    void
    spillLrfToRfc(int lin)
    {
        if (!lrf_valid_)
            return;
        if (liveness_.liveAfter(lin, lrf_reg_)) {
            counts_.read(Level::LRF, Datapath::PRIVATE);
            counts_.wbReads++;
            Reg victim = 0;
            if (rfc_.insert(lrf_reg_, victim)) {
                if (liveness_.liveAfter(lin, victim)) {
                    counts_.read(Level::ORF, Datapath::PRIVATE);
                    counts_.wbReads++;
                    counts_.write(Level::MRF, Datapath::PRIVATE);
                    counts_.wbWrites++;
                }
            }
            counts_.write(Level::ORF, Datapath::PRIVATE);
        }
        lrf_valid_ = false;
    }

    /** Flush everything live back to the MRF (deschedule). */
    void
    flushAll(const RegSet &live)
    {
        if (lrf_valid_ && live.test(lrf_reg_)) {
            counts_.read(Level::LRF, Datapath::PRIVATE);
            counts_.wbReads++;
            counts_.write(Level::MRF, Datapath::PRIVATE);
            counts_.wbWrites++;
        }
        lrf_valid_ = false;
        rfc_.forEach([&](Reg r) {
            if (live.test(r)) {
                counts_.read(Level::ORF, Datapath::PRIVATE);
                counts_.wbReads++;
                counts_.write(Level::MRF, Datapath::PRIVATE);
                counts_.wbWrites++;
            }
        });
        rfc_.clear();
    }

    const ReplayDecode &dec_;
    const HwCacheConfig &cfg_;
    const Liveness &liveness_;
    AccessCounts &counts_;
    RfcRing rfc_;
    bool lrf_valid_ = false;
    Reg lrf_reg_ = 0;
    RegSet pending_;
};

} // namespace

std::unique_ptr<SchemeAccounting>
hwCacheAccounting(const Kernel &k, const HwCacheConfig &cfg,
                  const AnalysisBundle *analyses, const ReplayDecode *dec)
{
    return makeAccounting<HwModel>(k, cfg, analyses, dec);
}

} // namespace rfh
