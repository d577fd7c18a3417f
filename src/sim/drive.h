/**
 * @file
 * One generic driver for every scheme's access accounting.
 *
 * A scheme's access counts come from one per-warp hierarchy state
 * machine that consumes the warp's dynamic instructions in program
 * order. Three clocks can present those instructions, and this header
 * is the only place that knows how each one does it:
 *
 *  - the functional **stepper** (ExecEngine::DIRECT): sim/machine.h
 *    executes each warp with real values, one instruction per step;
 *  - a recorded **trace** (ExecEngine::REPLAY): the same per-warp
 *    stream, pre-decoded once per (kernel, RunConfig) (sim/trace.h);
 *  - the **pipeline**'s issue stage (sim/pipeline.h), which
 *    interleaves warps under a scheduler policy but never reorders the
 *    records of one warp.
 *
 * Everything value-dependent that a state machine may look at is
 * folded into the per-record inputs (writeback enabled, branch taken,
 * next instruction of the warp), and the AccessCounts accumulator is
 * additive, so all three clocks produce identical counts by
 * construction — for any warp interleaving. The verify oracle checks
 * that per scheme.
 *
 * ## Author contract: a model
 *
 * A scheme supplies one *model*: the per-run state its warps share
 * (decode tables, hints, liveness), with a nested per-record class:
 *
 * @code
 * struct MyModel
 * {
 *     // Prefix of the per-scheme metrics the drivers emit.
 *     static constexpr const char *kMetrics = "sim.my";
 *
 *     class Warp
 *     {
 *       public:
 *         // Fresh state of one warp; counts are shared by all warps.
 *         Warp(const MyModel &m, AccessCounts &counts,
 *              ReplayArena &arena);
 *         // Account one dynamic instruction; fill plan when non-null.
 *         void onInstr(int lin, bool enabled, bool taken,
 *                      std::int32_t nextLin, OperandPlan *plan);
 *         // Optional: first verification failure, or empty.
 *         std::string_view error() const;
 *     };
 * };
 * @endcode
 *
 * makeAccounting() constructs the model from its arguments inside a
 * SchemeAccounting, which every clock drives. The stepper and trace
 * drivers are instantiated per concrete Warp type, so their inner
 * loops make no virtual call per record; only the pipeline's per-warp
 * handle (WarpAccountant) is virtual.
 */

#ifndef RFH_SIM_DRIVE_H
#define RFH_SIM_DRIVE_H

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "ir/kernel.h"
#include "sim/access_counters.h"
#include "sim/baseline_exec.h"
#include "sim/machine.h"
#include "sim/replay_arena.h"
#include "sim/trace.h"

namespace rfh {

class Counter;

/**
 * Where one instruction's register operands are physically fetched
 * from: MRF operands go through the banked operand collector (and can
 * conflict); bypass operands are served by the scheme's upper levels
 * (LRF/ORF/RFC), which read in a single cycle with no distribution
 * network. Filled only under the pipeline clock; consumed only by the
 * timing model — the plan never feeds the access counters.
 */
struct OperandPlan
{
    /** Registers fetched from the MRF (sources + predicate). */
    std::array<Reg, kMaxSrcs + 1> mrfReg{};
    /** Number of valid entries in mrfReg. */
    std::uint8_t numMrf = 0;
    /** Operands served by an upper level (LRF/ORF/RFC). */
    std::uint8_t numBypass = 0;
};

/**
 * The pipeline clock's handle on one warp's state machine: the issue
 * stage calls onIssue() once per record, in the warp's trace order.
 */
class WarpAccountant
{
  public:
    virtual ~WarpAccountant() = default;

    /**
     * Account the dynamic instruction at linear index @p lin.
     *
     * @param lin static linear instruction index.
     * @param enabled the record's kReplayExecuted flag (writeback
     *        enabled at issue).
     * @param taken the record's kReplayBranchTaken flag.
     * @param nextLin linear index of the warp's next instruction along
     *        the recorded path, or -1 when the warp terminates.
     * @param plan out-parameter: the operand sourcing plan for the
     *        collector stage.
     */
    virtual void onIssue(int lin, bool enabled, bool taken,
                         std::int32_t nextLin, OperandPlan &plan) = 0;

    /**
     * First verification failure, or empty. Checked by the pipeline
     * after every onIssue; a failing run stops at that instruction.
     */
    virtual std::string_view error() const = 0;
};

/**
 * One scheme's accounting for one run, drivable from any clock. Drive
 * it once: every clock adds into the same counts() accumulator.
 */
class SchemeAccounting
{
  public:
    virtual ~SchemeAccounting() = default;

    /**
     * Stepper clock: execute every warp of @p k functionally under
     * @p run (warp loop, instruction cap and predicate semantics of
     * recordDecodedTrace) and account each instruction.
     */
    virtual void driveStepper(const Kernel &k, const RunConfig &run) = 0;

    /** Trace clock: account every record of @p trace, warp by warp. */
    virtual void driveTrace(const DecodedTrace &trace) = 0;

    /**
     * Pipeline clock: a fresh state machine for warp @p warp, adding
     * into counts(). Valid while this object lives.
     */
    virtual std::unique_ptr<WarpAccountant> makeWarp(int warp) = 0;

    /** Accumulated counts of every warp driven so far. */
    const AccessCounts &
    counts() const
    {
        return counts_;
    }

    /** First verification failure of the stepper or trace clock. */
    const std::string &
    error() const
    {
        return error_;
    }

  protected:
    AccessCounts counts_;
    std::string error_;
};

/**
 * The per-scheme counters of one model (prefix Model::kMetrics, e.g.
 * "sim.hw"), fed once per stepper or trace run: runs, runs.replay,
 * instrs, deschedules, wbAccesses (writeback or spill reads + writes)
 * and verifyFailures.
 */
class DriveMetrics
{
  public:
    /** Register the counters under @p prefix (e.g. "sim.hw"). */
    explicit DriveMetrics(std::string_view prefix);

    /** Count one run of @p counts; @p replay marks the trace clock. */
    void note(const AccessCounts &counts, bool replay, bool failed);

  private:
    Counter &runs_;
    Counter &replays_;
    Counter &instrs_;
    Counter &deschedules_;
    Counter &wbAccesses_;
    Counter &failures_;
};

/** The metrics of @p Model, registered on first use. */
template <class Model>
DriveMetrics &
driveMetrics()
{
    static DriveMetrics m(Model::kMetrics);
    return m;
}

/** SchemeAccounting over a concrete model; see the file comment. */
template <class Model>
class DrivenAccounting final : public SchemeAccounting
{
    using Warp = typename Model::Warp;
    static constexpr bool kCanFail =
        requires(const Warp &m) { m.error(); };

  public:
    /** Construct the model in place from @p args. */
    template <class... Args>
    explicit DrivenAccounting(Args &&...args)
        : model_(std::forward<Args>(args)...)
    {
    }

    void
    driveStepper(const Kernel &k, const RunConfig &run) override
    {
        ReplayArena &arena = acquireThreadReplayArena();
        for (int w = 0; w < run.numWarps && error_.empty(); w++) {
            Warp m(model_, counts_, arena);
            WarpContext warp;
            warp.reset(static_cast<std::uint32_t>(w));
            for (std::uint64_t n = 0;
                 !warp.done && n < run.maxInstrsPerWarp; n++) {
                const int lin = warp.pc(k);
                const Instruction &in = k.instr(lin);
                const bool enabled = !in.pred || warp.regs[*in.pred] != 0;
                const bool taken = step(k, warp).branchTaken;
                m.onInstr(lin, enabled, taken,
                          warp.done ? -1 : warp.pc(k), nullptr);
                if (failed(m))
                    break;
            }
        }
        driveMetrics<Model>().note(counts_, false, !error_.empty());
    }

    void
    driveTrace(const DecodedTrace &trace) override
    {
        ReplayArena &arena = acquireThreadReplayArena();
        // Locals, not trace members: the stream pointers stay in
        // registers across the per-record call.
        const std::int32_t *lin = trace.lin.data();
        const std::uint8_t *flags = trace.flags.data();
        for (int w = 0; w < trace.numWarps() && error_.empty(); w++) {
            Warp m(model_, counts_, arena);
            const std::uint32_t end = trace.warpBegin[w + 1];
            const std::int32_t endLin = trace.warpEndLin[w];
            for (std::uint32_t t = trace.warpBegin[w]; t < end; t++) {
                const std::uint8_t fl = flags[t];
                m.onInstr(lin[t], (fl & kReplayExecuted) != 0,
                          (fl & kReplayBranchTaken) != 0,
                          t + 1 < end ? lin[t + 1] : endLin, nullptr);
                if (failed(m))
                    break;
            }
        }
        driveMetrics<Model>().note(counts_, true, !error_.empty());
    }

    std::unique_ptr<WarpAccountant>
    makeWarp(int /*warp*/) override
    {
        return std::make_unique<Issued>(model_, counts_, arena_);
    }

  private:
    /** Pipeline adapter: one Warp driven at issue. */
    class Issued final : public WarpAccountant
    {
      public:
        Issued(const Model &model, AccessCounts &counts,
               ReplayArena &arena)
            : m_(model, counts, arena)
        {
        }

        void
        onIssue(int lin, bool enabled, bool taken, std::int32_t nextLin,
                OperandPlan &plan) override
        {
            m_.onInstr(lin, enabled, taken, nextLin, &plan);
        }

        std::string_view
        error() const override
        {
            if constexpr (kCanFail)
                return m_.error();
            else
                return {};
        }

      private:
        Warp m_;
    };

    /** Record @p m's failure, if any; @return true when it failed. */
    bool
    failed(const Warp &m)
    {
        if constexpr (kCanFail) {
            if (!m.error().empty()) {
                error_ = std::string(m.error());
                return true;
            }
        }
        (void)m;
        return false;
    }

    Model model_;
    // Private arena for pipeline warps: they outlive any tick of the
    // thread-local replay arena, which other code resets freely.
    ReplayArena arena_;
};

/** Wrap a @p Model built from @p args in its generic driver. */
template <class Model, class... Args>
std::unique_ptr<SchemeAccounting>
makeAccounting(Args &&...args)
{
    return std::make_unique<DrivenAccounting<Model>>(
        std::forward<Args>(args)...);
}

} // namespace rfh

#endif // RFH_SIM_DRIVE_H
