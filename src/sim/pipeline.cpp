#include "sim/pipeline.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <vector>

#include "sim/port.h"
#include "sim/tick.h"
#include "sim/trace.h"

namespace rfh {

std::string_view
schedPolicyName(SchedPolicy p)
{
    switch (p) {
      case SchedPolicy::FLAT_RR: return "flat";
      case SchedPolicy::TWO_LEVEL: return "two-level";
      case SchedPolicy::GTO: return "gto";
    }
    return "?";
}

bool
parseSchedPolicy(std::string_view token, SchedPolicy &out)
{
    if (token == "flat" || token == "rr") {
        out = SchedPolicy::FLAT_RR;
    } else if (token == "two-level" || token == "twolevel") {
        out = SchedPolicy::TWO_LEVEL;
    } else if (token == "gto") {
        out = SchedPolicy::GTO;
    } else {
        return false;
    }
    return true;
}

namespace {

constexpr std::uint64_t kNoEvent =
    std::numeric_limits<std::uint64_t>::max();

/** Issue latency of one static instruction (old perf-model table). */
int
latencyOf(const Instruction &in, const PipelineConfig &cfg)
{
    switch (in.op) {
      case Opcode::LD_GLOBAL: return cfg.dramLatency;
      case Opcode::TEX: return cfg.texLatency;
      case Opcode::LD_SHARED: return cfg.sharedMemLatency;
      case Opcode::LD_PARAM: return cfg.sharedMemLatency;
      case Opcode::ST_GLOBAL:
      case Opcode::ST_SHARED: return 1;
      case Opcode::BRA:
      case Opcode::EXIT: return 1;
      case Opcode::BAR: return 1;
      default:
        return isSharedUnit(in.unit()) ? cfg.sfuLatency
                                       : cfg.aluLatency;
    }
}

/** One issued instruction on its way to the operand collector. */
struct IssueSlot
{
    int warp = 0;
    int lat = 1;
    /** Destination registers to release at writeback. */
    RegSet dst;
    /** MRF bank of each collector-fetched operand. */
    std::array<int, kMaxSrcs + 1> bank{};
    int nbank = 0;
};

/** One instruction occupying a latency pipe. */
struct ExecOp
{
    int warp = 0;
    RegSet dst;
    std::uint64_t done = 0;
};

/** Per-warp scheduler state. */
struct WarpState
{
    std::uint32_t cursor = 0;  ///< Next flat record index.
    std::uint32_t end = 0;     ///< One past the warp's last record.
    /** Registers with an outstanding (unwritten) result. */
    RegSet pending;
    /** Subset of @c pending produced by long-latency ops. */
    RegSet longPending;
    std::uint64_t activatedAt = 0;
    std::uint64_t lastIssue = 0;
    std::unique_ptr<WarpAccountant> acct;

    bool
    doneIssuing() const
    {
        return cursor >= end;
    }
};

/**
 * Occupancy-tracked latency pipes: absorbs dispatched ops, holds them
 * for their latency, hands completions to writeback.
 */
class ExecStage final : public Ticked
{
  public:
    ExecStage(Port<ExecOp> &in, Port<ExecOp> &out) : in_(in), out_(out) {}

    bool
    tick(std::uint64_t now) override
    {
        bool progress = false;
        while (!in_.empty()) {
            inflight_.push_back(in_.front());
            in_.pop();
            progress = true;
        }
        for (std::size_t i = 0; i < inflight_.size();) {
            if (inflight_[i].done <= now) {
                out_.push(inflight_[i]);
                inflight_[i] = inflight_.back();
                inflight_.pop_back();
                progress = true;
            } else {
                i++;
            }
        }
        return progress;
    }

    bool
    empty() const
    {
        return inflight_.empty() && in_.empty();
    }

    /**
     * Earliest in-flight completion time, or kNoEvent. Ops still in
     * the input port are absorbed on the next tick, so they count as
     * an event at @p now + 1.
     */
    std::uint64_t
    nextDoneAt(std::uint64_t now) const
    {
        std::uint64_t t = kNoEvent;
        for (const ExecOp &op : inflight_)
            t = std::min(t, op.done);
        if (!in_.empty())
            t = std::min(t, now + 1);
        return t;
    }

  private:
    Port<ExecOp> &in_;
    Port<ExecOp> &out_;
    std::vector<ExecOp> inflight_;
};

/** Releases completed results: clears scoreboard bits. */
class WritebackStage final : public Ticked
{
  public:
    WritebackStage(Port<ExecOp> &in, std::vector<WarpState> &warps)
        : in_(in), warps_(warps)
    {
    }

    bool
    tick(std::uint64_t /*now*/) override
    {
        bool progress = false;
        while (!in_.empty()) {
            const ExecOp &op = in_.front();
            warps_[op.warp].pending &= ~op.dst;
            warps_[op.warp].longPending &= ~op.dst;
            in_.pop();
            retired_++;
            progress = true;
        }
        return progress;
    }

    std::uint64_t
    retired() const
    {
        return retired_;
    }

  private:
    Port<ExecOp> &in_;
    std::vector<WarpState> &warps_;
    std::uint64_t retired_ = 0;
};

/**
 * Operand collector: a small pool of entries, each fetching its
 * instruction's MRF operands across the banked register file — one
 * read per bank per cycle, oldest entry first. Same-bank operands
 * (within or across entries) serialise; bypass operands (LRF/ORF/RFC)
 * never enter the banks, so hierarchy schemes drain entries faster.
 * An entry whose operands are all fetched dispatches to execute the
 * same cycle.
 */
class CollectorStage final : public Ticked
{
  public:
    CollectorStage(Port<IssueSlot> &in, Port<ExecOp> &out,
                   const PipelineConfig &cfg, PipelineStats &stats)
        : in_(in), out_(out), cfg_(cfg), stats_(stats),
          bankBusy_(std::max(1, cfg.banks.numBanks), 0)
    {
    }

    bool
    tick(std::uint64_t now) override
    {
        bool progress = false;
        const std::size_t slots =
            static_cast<std::size_t>(std::max(1, cfg_.collectorSlots));
        while (!in_.empty() && entries_.size() < slots) {
            entries_.push_back(Entry{in_.front(), {}});
            in_.pop();
            progress = true;
        }
        std::fill(bankBusy_.begin(), bankBusy_.end(), 0);
        for (Entry &e : entries_) {
            for (int i = 0; i < e.slot.nbank; i++) {
                if (e.served[static_cast<std::size_t>(i)])
                    continue;
                const int b = e.slot.bank[static_cast<std::size_t>(i)];
                if (!bankBusy_[static_cast<std::size_t>(b)]) {
                    bankBusy_[static_cast<std::size_t>(b)] = 1;
                    e.served[static_cast<std::size_t>(i)] = true;
                    progress = true;
                } else {
                    stats_.bankConflicts++;
                }
            }
        }
        for (std::size_t i = 0; i < entries_.size();) {
            if (entries_[i].complete()) {
                const IssueSlot &s = entries_[i].slot;
                out_.push(ExecOp{s.warp, s.dst,
                                 now + static_cast<std::uint64_t>(s.lat)});
                entries_.erase(entries_.begin() +
                               static_cast<std::ptrdiff_t>(i));
                progress = true;
            } else {
                i++;
            }
        }
        return progress;
    }

    bool
    empty() const
    {
        return entries_.empty() && in_.empty();
    }

  private:
    struct Entry
    {
        IssueSlot slot;
        std::array<bool, kMaxSrcs + 1> served{};

        bool
        complete() const
        {
            for (int i = 0; i < slot.nbank; i++)
                if (!served[static_cast<std::size_t>(i)])
                    return false;
            return true;
        }
    };

    Port<IssueSlot> &in_;
    Port<ExecOp> &out_;
    const PipelineConfig &cfg_;
    PipelineStats &stats_;
    std::vector<std::uint8_t> bankBusy_;
    std::deque<Entry> entries_;
};

/**
 * Fetch/issue with a pluggable warp scheduler. Single-issue: one warp
 * instruction per cycle, picked by policy, gated by the in-order
 * scoreboard, the shared-unit issue port, and collector backpressure.
 */
class IssueStage final : public Ticked
{
  public:
    IssueStage(const DecodedTrace &trace, const ReplayDecode &dec,
               const PipelineConfig &cfg,
               const std::vector<int> &latency,
               std::vector<WarpState> &warps, Port<IssueSlot> &out,
               PipelineStats &stats, std::string &error)
        : trace_(trace), dec_(dec), cfg_(cfg), latency_(latency),
          warps_(warps), out_(out), stats_(stats), error_(error)
    {
        const int n = static_cast<int>(warps_.size());
        int nactive = cfg.policy == SchedPolicy::TWO_LEVEL
            ? std::max(1, cfg.activeWarps)
            : n;
        for (int w = 0; w < n; w++) {
            if (warps_[static_cast<std::size_t>(w)].doneIssuing())
                continue;
            if (static_cast<int>(active_.size()) < nactive)
                active_.push_back(w);
            else
                pendingQ_.push_back(w);
        }
        left_ = static_cast<int>(active_.size() + pendingQ_.size());
    }

    bool
    tick(std::uint64_t now) override
    {
        issuedThis_ = false;
        swappedThis_ = false;
        sawScoreboard_ = sawCollector_ = sawExecBusy_ =
            sawActivation_ = false;
        bool progress = false;
        int blockedLong = -1;

        if (cfg_.policy == SchedPolicy::GTO)
            buildGtoOrder();

        const std::size_t nc = cfg_.policy == SchedPolicy::GTO
            ? gtoOrder_.size()
            : active_.size();
        for (std::size_t i = 0; i < nc && !issuedThis_; i++) {
            const int wid = cfg_.policy == SchedPolicy::GTO
                ? gtoOrder_[i]
                : active_[(rr_ + i) % active_.size()];
            WarpState &w = warps_[static_cast<std::size_t>(wid)];
            if (w.doneIssuing())
                continue;
            if (now < w.activatedAt) {
                sawActivation_ = true;
                continue;
            }
            const int lin = trace_.lin[w.cursor];
            const ReplayOp &o = dec_.op[static_cast<std::size_t>(lin)];
            if ((o.flags & kOpShared) && now < sharedFree_) {
                sawExecBusy_ = true;
                continue;
            }
            const RegSet &touched =
                dec_.touched[static_cast<std::size_t>(lin)];
            if ((touched & w.pending).any()) {
                sawScoreboard_ = true;
                if (blockedLong < 0 && (touched & w.longPending).any())
                    blockedLong = wid;
                continue;
            }
            if (!out_.canPush()) {
                sawCollector_ = true;
                break;  // a full collector port blocks every warp
            }
            issueOne(wid, w, lin, o, now);
            if (!error_.empty())
                return true;
            progress = true;
            if (cfg_.policy != SchedPolicy::GTO)
                rr_ = (rr_ + i + 1) %
                    std::max<std::size_t>(1, active_.size());
            if (w.doneIssuing())
                retire(wid, now);
        }

        // Two-level scheduler: a warp stalled on a long-latency value
        // swaps out for a pending warp (paper Section 5.2).
        if (!issuedThis_ && blockedLong >= 0 && !pendingQ_.empty()) {
            swapOut(blockedLong, now);
            progress = true;
        }
        return progress;
    }

    bool allIssued() const { return left_ == 0; }
    bool issuedThis() const { return issuedThis_; }
    bool swappedThis() const { return swappedThis_; }
    bool sawScoreboard() const { return sawScoreboard_; }
    bool sawCollector() const { return sawCollector_; }
    bool sawExecBusy() const { return sawExecBusy_; }
    bool sawActivation() const { return sawActivation_; }

    /** Shared-port free time, for fast-forward targeting. */
    std::uint64_t
    sharedFree() const
    {
        return sharedFree_;
    }

    /** Earliest pending warp activation after @p now, or kNoEvent. */
    std::uint64_t
    nextActivation(std::uint64_t now) const
    {
        std::uint64_t t = kNoEvent;
        for (int wid : active_) {
            const WarpState &w = warps_[static_cast<std::size_t>(wid)];
            if (!w.doneIssuing() && w.activatedAt > now)
                t = std::min(t, w.activatedAt);
        }
        return t;
    }

  private:
    void
    issueOne(int wid, WarpState &w, int lin, const ReplayOp &o,
             std::uint64_t now)
    {
        OperandPlan plan;
        const std::uint8_t fl = trace_.flags[w.cursor];
        w.acct->onIssue(lin, (fl & kReplayExecuted) != 0,
                        (fl & kReplayBranchTaken) != 0,
                        trace_.nextLin(wid, w.cursor), plan);
        if (!w.acct->error().empty()) {
            error_ = std::string(w.acct->error());
            return;
        }
        IssueSlot s;
        s.warp = wid;
        s.lat = latency_[static_cast<std::size_t>(lin)];
        s.dst = dec_.defined[static_cast<std::size_t>(lin)];
        for (int i = 0; i < plan.numMrf; i++)
            s.bank[static_cast<std::size_t>(s.nbank++)] =
                bankOf(plan.mrfReg[static_cast<std::size_t>(i)], wid,
                       cfg_.banks);
        out_.push(s);
        w.pending |= s.dst;
        if (o.flags & kOpLongLat)
            w.longPending |= s.dst;
        if (o.flags & kOpShared)
            sharedFree_ = now + static_cast<std::uint64_t>(
                                    cfg_.sharedIssueInterval);
        w.cursor++;
        w.lastIssue = now;
        lastWarp_ = wid;
        stats_.issued++;
        issuedThis_ = true;
    }

    /** Remove a finished warp from the active set; promote a pending one. */
    void
    retire(int wid, std::uint64_t now)
    {
        auto it = std::find(active_.begin(), active_.end(), wid);
        if (it != active_.end())
            active_.erase(it);
        left_--;
        if (!pendingQ_.empty()) {
            const int next = pendingQ_.front();
            pendingQ_.pop_front();
            warps_[static_cast<std::size_t>(next)].activatedAt =
                now + static_cast<std::uint64_t>(cfg_.swapPenalty);
            active_.push_back(next);
        }
        rr_ = 0;
    }

    /** Swap a long-latency-blocked warp for a pending one. */
    void
    swapOut(int blocked, std::uint64_t now)
    {
        // Prefer a pending warp whose next instruction is ready.
        std::size_t pick = 0;
        for (std::size_t i = 0; i < pendingQ_.size(); i++) {
            const WarpState &cand =
                warps_[static_cast<std::size_t>(pendingQ_[i])];
            if (cand.doneIssuing())
                continue;
            const int lin = trace_.lin[cand.cursor];
            if ((dec_.touched[static_cast<std::size_t>(lin)] &
                 cand.pending)
                    .none()) {
                pick = i;
                break;
            }
        }
        const int next = pendingQ_[pick];
        pendingQ_.erase(pendingQ_.begin() +
                        static_cast<std::ptrdiff_t>(pick));
        auto it = std::find(active_.begin(), active_.end(), blocked);
        if (it != active_.end())
            active_.erase(it);
        pendingQ_.push_back(blocked);
        warps_[static_cast<std::size_t>(next)].activatedAt =
            now + static_cast<std::uint64_t>(cfg_.swapPenalty);
        active_.push_back(next);
        stats_.swaps++;
        swappedThis_ = true;
        rr_ = 0;
    }

    /** Greedy-then-oldest priority: last issuer first, then LRU. */
    void
    buildGtoOrder()
    {
        gtoOrder_.clear();
        for (int wid : active_)
            if (!warps_[static_cast<std::size_t>(wid)].doneIssuing())
                gtoOrder_.push_back(wid);
        std::stable_sort(
            gtoOrder_.begin(), gtoOrder_.end(), [this](int a, int b) {
                const WarpState &wa = warps_[static_cast<std::size_t>(a)];
                const WarpState &wb = warps_[static_cast<std::size_t>(b)];
                if ((a == lastWarp_) != (b == lastWarp_))
                    return a == lastWarp_;
                if (wa.lastIssue != wb.lastIssue)
                    return wa.lastIssue < wb.lastIssue;
                return a < b;
            });
    }

    const DecodedTrace &trace_;
    const ReplayDecode &dec_;
    const PipelineConfig &cfg_;
    const std::vector<int> &latency_;
    std::vector<WarpState> &warps_;
    Port<IssueSlot> &out_;
    PipelineStats &stats_;
    std::string &error_;

    std::deque<int> active_;
    std::deque<int> pendingQ_;
    std::vector<int> gtoOrder_;
    std::size_t rr_ = 0;
    std::uint64_t sharedFree_ = 0;
    int left_ = 0;
    int lastWarp_ = -1;

    bool issuedThis_ = false;
    bool swappedThis_ = false;
    bool sawScoreboard_ = false;
    bool sawCollector_ = false;
    bool sawExecBusy_ = false;
    bool sawActivation_ = false;
};

} // namespace

PipelineResult
runPipeline(const DecodedTrace &trace, const ReplayDecode &dec,
            SchemeAccounting &acct, const PipelineConfig &cfg)
{
    PipelineResult result;
    const int n = trace.numWarps();

    // Static latency table, one lookup per issue.
    std::vector<int> latency(dec.instr.size(), 1);
    for (std::size_t i = 0; i < dec.instr.size(); i++)
        latency[i] = latencyOf(dec.instr[i], cfg);

    std::vector<WarpState> warps(static_cast<std::size_t>(n));
    for (int w = 0; w < n; w++) {
        WarpState &s = warps[static_cast<std::size_t>(w)];
        s.cursor = trace.warpBegin[static_cast<std::size_t>(w)];
        s.end = trace.warpBegin[static_cast<std::size_t>(w) + 1];
        s.acct = acct.makeWarp(w);
    }

    Port<IssueSlot> toCollector(1);
    Port<ExecOp> toExec;
    Port<ExecOp> toWriteback;

    ExecStage exec(toExec, toWriteback);
    WritebackStage writeback(toWriteback, warps);
    CollectorStage collector(toCollector, toExec, cfg, result.stats);
    IssueStage issue(trace, dec, cfg, latency, warps, toCollector,
                     result.stats, result.error);

    // Consumers before producers along the dataflow, except writeback
    // directly after execute so a completing value unblocks a
    // dependent issue in the same cycle (result forwarding).
    TickSchedule sched;
    sched.add(&exec);
    sched.add(&writeback);
    sched.add(&collector);
    sched.add(&issue);

    auto finished = [&] {
        return issue.allIssued() && collector.empty() && exec.empty() &&
            toCollector.empty() && toWriteback.empty();
    };

    std::uint64_t now = 0;
    while (!finished() && now < cfg.maxCycles) {
        const bool progress = sched.tick(now);
        if (!result.error.empty())
            break;

        // Attribute an unused issue slot to its dominant cause.
        std::uint64_t *stall = nullptr;
        if (!issue.issuedThis()) {
            PipelineStalls &st = result.stats.stalls;
            if (issue.swappedThis())
                stall = &st.swap;
            else if (issue.sawScoreboard())
                stall = &st.scoreboard;
            else if (issue.sawCollector())
                stall = &st.collector;
            else if (issue.sawExecBusy())
                stall = &st.execBusy;
            else if (issue.sawActivation())
                stall = &st.swap;
            else
                stall = &st.drain;
            (*stall)++;
        }

        if (progress) {
            now++;
            continue;
        }

        // Idle span: nothing can change until the next scheduled
        // event. Jump there, attributing the skipped cycles to the
        // same cause — cycle counts match the naive one-at-a-time
        // loop exactly.
        std::uint64_t next = exec.nextDoneAt(now);
        next = std::min(next, issue.nextActivation(now));
        if (issue.sawExecBusy() && issue.sharedFree() > now)
            next = std::min(next, issue.sharedFree());
        if (next == kNoEvent) {
            result.error = "pipeline deadlock: no issue, no progress, "
                           "and no scheduled event";
            break;
        }
        next = std::max(next, now + 1);
        if (next > cfg.maxCycles)
            next = cfg.maxCycles;
        if (stall != nullptr)
            *stall += next - now - 1;
        now = next;
    }

    result.stats.cycles = now;
    return result;
}

} // namespace rfh
