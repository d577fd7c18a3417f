/**
 * @file
 * Tests for dynamic trace recording: block paths, per-block
 * frequencies and CFG legality, all read off the DecodedTrace stream.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/experiment.h"
#include "ir/cfg_analysis.h"
#include "ir/parser.h"
#include "sim/pipeline.h"
#include "sim/trace.h"
#include "workloads/registry.h"

namespace rfh {
namespace {

/** Warp @p w's block path: a block is entered at its first instruction. */
std::vector<int>
blockPath(const Kernel &k, const DecodedTrace &t, int w)
{
    std::vector<int> path;
    for (std::uint32_t i = t.warpBegin[w]; i < t.warpBegin[w + 1]; i++) {
        const InstrRef r = k.ref(t.lin[i]);
        if (r.idx == 0)
            path.push_back(r.block);
    }
    return path;
}

/** Block entries over every warp of @p t. */
std::vector<std::uint64_t>
blockCounts(const Kernel &k, const DecodedTrace &t)
{
    std::vector<std::uint64_t> counts(k.blocks.size(), 0);
    for (std::int32_t lin : t.lin)
        if (k.ref(lin).idx == 0)
            counts[k.ref(lin).block]++;
    return counts;
}

/**
 * Empty when @p t is a legal execution of @p k, else the first
 * violation: every warp starts at the entry instruction, each record
 * follows its predecessor inside a block or along a CFG edge out of
 * the block's last instruction (through empty blocks), and a warp
 * that terminated ends at an EXIT.
 */
std::string
cfgLegalityError(const Kernel &k, const DecodedTrace &t)
{
    Cfg cfg(k);
    auto follows = [&](int a, int b) {
        const InstrRef from = k.ref(a);
        if (from.idx + 1 <
            static_cast<int>(k.blocks[from.block].instrs.size()))
            return b == a + 1;
        std::vector<int> work = cfg.succs(from.block);
        std::vector<bool> seen(k.blocks.size(), false);
        while (!work.empty()) {
            const int s = work.back();
            work.pop_back();
            if (seen[s])
                continue;
            seen[s] = true;
            if (!k.blocks[s].instrs.empty()) {
                if (k.blockStart(s) == b)
                    return true;
                continue;
            }
            for (int n : cfg.succs(s))
                work.push_back(n);
        }
        return false;
    };
    std::ostringstream err;
    for (int w = 0; w < t.numWarps(); w++) {
        const std::uint32_t begin = t.warpBegin[w];
        const std::uint32_t end = t.warpBegin[w + 1];
        if (begin == end) {
            err << "warp " << w << ": empty stream";
            return err.str();
        }
        if (t.lin[begin] != 0) {
            err << "warp " << w << ": does not start at the entry";
            return err.str();
        }
        for (std::uint32_t i = begin; i + 1 < end; i++) {
            if (!follows(t.lin[i], t.lin[i + 1])) {
                err << "warp " << w << ": illegal transition "
                    << t.lin[i] << " -> " << t.lin[i + 1];
                return err.str();
            }
        }
        const int last = t.lin[end - 1];
        if (t.warpEndLin[w] < 0 ? k.instr(last).op != Opcode::EXIT
                                : !follows(last, t.warpEndLin[w])) {
            err << "warp " << w << ": stream ends at " << last
                << " which cannot end it";
            return err.str();
        }
    }
    return "";
}

TEST(Trace, StraightLinePathIsOneBlock)
{
    Kernel k = parseKernelOrDie(R"(.kernel s
entry:
    iadd R1, R0, #1
    st.global [R0], R1
    exit
)");
    RunConfig cfg;
    cfg.numWarps = 2;
    DecodedTrace t = recordDecodedTrace(k, cfg);
    ASSERT_EQ(t.numWarps(), 2);
    EXPECT_EQ(blockPath(k, t, 0), std::vector<int>({0}));
    EXPECT_EQ(blockCounts(k, t)[0], 2u);
    EXPECT_EQ(t.instructions(), 6u);
    EXPECT_EQ(cfgLegalityError(k, t), "");
}

TEST(Trace, LoopRecordsEveryIteration)
{
    Kernel k = parseKernelOrDie(R"(.kernel l
entry:
    mov R1, #4
body:
    isub R1, R1, #1
    setgt R2, R1, #0
    @R2 bra body
out:
    exit
)");
    RunConfig cfg;
    cfg.numWarps = 1;
    DecodedTrace t = recordDecodedTrace(k, cfg);
    // entry, 4x body, out.
    EXPECT_EQ(blockCounts(k, t)[1], 4u);
    EXPECT_EQ(blockPath(k, t, 0).size(), 6u);
    EXPECT_EQ(cfgLegalityError(k, t), "");
}

TEST(Trace, DivergentWarpsTakeDifferentPaths)
{
    Kernel k = parseKernelOrDie(R"(.kernel d
entry:
    setlt R1, R0, #2
    @R1 bra low
high:
    iadd R2, R0, #1
    bra out
low:
    iadd R2, R0, #2
out:
    st.global [R0], R2
    exit
)");
    RunConfig cfg;
    cfg.numWarps = 8;
    DecodedTrace t = recordDecodedTrace(k, cfg);
    // Warps 0 and 1 (tid < 2) take "low"; the rest take "high".
    std::vector<std::uint64_t> counts = blockCounts(k, t);
    EXPECT_EQ(counts[2], 2u);
    EXPECT_EQ(counts[1], 6u);
    EXPECT_EQ(cfgLegalityError(k, t), "");
}

TEST(Trace, ValidationCatchesIllegalTransitions)
{
    // The legality walk the other tests rely on must reject streams
    // that no execution of the kernel produces.
    Kernel k = parseKernelOrDie(R"(.kernel v
entry:
    iadd R1, R0, #1
skip:
    st.global [R0], R1
    exit
)");
    RunConfig cfg;
    cfg.numWarps = 1;
    DecodedTrace t = recordDecodedTrace(k, cfg);
    ASSERT_EQ(t.lin, std::vector<std::int32_t>({0, 1, 2}));
    ASSERT_EQ(cfgLegalityError(k, t), "");
    DecodedTrace bad = t;
    bad.lin = {1, 0, 2};  // starts past the entry, then jumps back
    EXPECT_NE(cfgLegalityError(k, bad), "");
    DecodedTrace skipped = t;
    skipped.lin = {0, 2, 2};  // skips block "skip"'s first instruction
    EXPECT_NE(cfgLegalityError(k, skipped), "");
    DecodedTrace unfinished = t;
    unfinished.lin = {0, 1};  // terminates without an EXIT
    unfinished.flags.pop_back();
    unfinished.warpBegin = {0, 2};
    EXPECT_NE(cfgLegalityError(k, unfinished), "");
}

TEST(Trace, DynamicInstrHistogram)
{
    Kernel k = parseKernelOrDie(R"(.kernel h
entry:
    mov R1, #3
body:
    isub R1, R1, #1
    setgt R2, R1, #0
    @R2 bra body
out:
    exit
)");
    RunConfig cfg;
    cfg.numWarps = 2;
    DecodedTrace t = recordDecodedTrace(k, cfg);
    std::vector<std::uint64_t> hist(k.blocks.size(), 0);
    for (std::int32_t lin : t.lin)
        hist[k.ref(lin).block]++;
    EXPECT_EQ(hist[0], 2u);       // 1 instr x 2 warps
    EXPECT_EQ(hist[1], 2u * 9u);  // 3 instrs x 3 iters x 2 warps
    std::uint64_t total = 0;
    for (auto h : hist)
        total += h;
    EXPECT_EQ(total, t.instructions());
}

TEST(Trace, ReplayMatchesLiveSimulation)
{
    // A freshly recorded trace replayed through the SM pipeline must
    // issue and time exactly like the scheme-level run over the
    // memoized trace of the same launch.
    for (const char *name : {"scalarprod", "hotspot", "nbody"}) {
        Workload w = workloadByName(name);
        w.run = {8, 1u << 18};
        PipelineConfig pcfg;
        pcfg.activeWarps = 4;
        ExperimentConfig cfg;
        cfg.scheme = Scheme::BASELINE;
        SchemePipelineResult live = runSchemePipeline(w, cfg, pcfg);
        ASSERT_TRUE(live.ok()) << name << ": " << live.error;

        DecodedTrace t = recordDecodedTrace(w.kernel, w.run);
        ReplayDecode dec(w.kernel);
        std::unique_ptr<SchemeAccounting> acct =
            flatAccounting(w.kernel, &dec);
        PipelineResult replay = runPipeline(t, dec, *acct, pcfg);
        ASSERT_TRUE(replay.ok()) << name << ": " << replay.error;
        EXPECT_EQ(replay.stats.issued, live.stats.issued) << name;
        EXPECT_EQ(replay.stats.cycles, live.stats.cycles) << name;
    }
}

TEST(Trace, AllWorkloadsProduceValidTraces)
{
    for (const Workload &w : allWorkloads()) {
        RunConfig cfg = w.run;
        cfg.numWarps = 2;
        DecodedTrace t = recordDecodedTrace(w.kernel, cfg);
        EXPECT_EQ(cfgLegalityError(w.kernel, t), "") << w.name;
        EXPECT_GT(t.instructions(), 0u) << w.name;
    }
}

} // namespace
} // namespace rfh
