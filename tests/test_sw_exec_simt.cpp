/**
 * @file
 * Tests for the SIMT-divergent verifying executor: per-lane ORF/LRF
 * state must hold under hammock serialisation, per-lane predication,
 * divergent loop trip counts, and warp-level deschedules.
 */

#include <gtest/gtest.h>

#include "compiler/allocator.h"
#include "core/experiment.h"
#include "ir/parser.h"
#include "sim/sw_exec_simt.h"
#include "sim/trace.h"
#include "verify/oracle.h"
#include "workloads/profiles.h"
#include "workloads/registry.h"
#include "workloads/synthetic.h"

namespace rfh {
namespace {

SwExecResult
compileAndRunSimt(const Kernel &kernel, int warps = 1, int width = 8,
                  bool lrf = true)
{
    Kernel k = kernel;
    AllocOptions opts;
    opts.useLRF = lrf;
    opts.splitLRF = lrf;
    HierarchyAllocator alloc(EnergyParams{}, opts);
    alloc.run(k);
    SimtExecConfig cfg;
    cfg.numWarps = warps;
    cfg.width = width;
    return runSwHierarchySimt(k, opts, cfg);
}

TEST(SwExecSimt, UniformWarpMatchesScalarCounts)
{
    Kernel k = parseKernelOrDie(R"(.kernel u
entry:
    iadd R1, R0, #1
    iadd R2, R1, #2
    st.shared [R0], R2
    exit
)");
    SwExecResult r = compileAndRunSimt(k, 1, 8, false);
    ASSERT_TRUE(r.ok()) << r.error;
    // Warp-level counting: same operand counts as one scalar thread.
    EXPECT_EQ(r.counts.instructions, 4u);
    EXPECT_EQ(r.counts.totalReads(Level::ORF), 3u);
}

TEST(SwExecSimt, DivergentHammockVerifiesPerLane)
{
    // Lanes take different hammock sides; the shared ORF entry of the
    // Figure 10(c) group must hold each lane's own side's value.
    Kernel k = parseKernelOrDie(R"(.kernel ham
entry:
    setlt R2, R0, #4
    @R2 bra right
left:
    iadd R1, R0, #7
    bra merge
right:
    iadd R1, R0, #8
merge:
    iadd R3, R1, #1
    st.shared [R0], R3
    exit
)");
    SwExecResult r = compileAndRunSimt(k, 2, 8);
    ASSERT_TRUE(r.ok()) << r.error;
}

TEST(SwExecSimt, PerLanePredicationVerifies)
{
    Kernel k = parseKernelOrDie(R"(.kernel pred
entry:
    mov R2, #5
    setlt R1, R0, #3
    @R1 iadd R2, R0, #9
    iadd R3, R2, #1
    st.shared [R0], R3
    exit
)");
    SwExecResult r = compileAndRunSimt(k, 1, 8);
    ASSERT_TRUE(r.ok()) << r.error;
}

TEST(SwExecSimt, DivergentLoopTripCounts)
{
    // Lanes iterate different numbers of times; loop-carried values
    // and per-iteration temporaries must verify on every lane path.
    Kernel k = parseKernelOrDie(R"(.kernel trip
entry:
    and  R1, R0, #3
    iadd R1, R1, #1
    mov  R2, #0
body:
    iadd R4, R2, #3
    iadd R2, R4, R1
    isub R1, R1, #1
    setgt R3, R1, #0
    @R3 bra body
out:
    st.global [R0], R2
    exit
)");
    SwExecResult r = compileAndRunSimt(k, 2, 8);
    ASSERT_TRUE(r.ok()) << r.error;
}

TEST(SwExecSimt, LongLatencyDescheduleInvalidatesAllLanes)
{
    Kernel k = parseKernelOrDie(R"(.kernel ll
entry:
    iadd R1, R0, #1
    ld.global R2, [R0]
    iadd R3, R2, R1
    st.shared [R0], R3
    exit
)");
    SwExecResult r = compileAndRunSimt(k, 1, 8);
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.counts.deschedules, 1u);
}

TEST(SwExecSimt, CorruptAnnotationCaughtWithLaneDiagnostic)
{
    Kernel k = parseKernelOrDie(R"(.kernel bad
entry:
    iadd R1, R0, #1
    iadd R2, R1, #2
    st.shared [R0], R2
    exit
)");
    AllocOptions opts;
    HierarchyAllocator alloc(EnergyParams{}, opts);
    alloc.run(k);
    Instruction &use = k.instr(1);
    ASSERT_EQ(use.readAnno[0].level, Level::ORF);
    use.readAnno[0].entry =
        static_cast<std::uint8_t>((use.readAnno[0].entry + 1) % 3);
    SimtExecConfig cfg;
    SwExecResult r = runSwHierarchySimt(k, opts, cfg);
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.error.find("lane"), std::string::npos);
}

TEST(SwExecSimt, AllWorkloadsVerifyDivergently)
{
    for (const Workload &w : allWorkloads()) {
        SwExecResult r = compileAndRunSimt(w.kernel, 1, 4);
        EXPECT_TRUE(r.ok()) << w.name << ": " << r.error;
    }
}

TEST(SwExecSimt, SyntheticKernelsVerifyDivergently)
{
    for (std::uint64_t seed : {3u, 13u, 23u, 43u}) {
        SynthParams p;
        p.seed = seed;
        p.pHammock = 0.5;
        p.pPredicated = 0.15;
        Kernel k = generateSynthetic("simtprop", p);
        SwExecResult r = compileAndRunSimt(k, 2, 8);
        EXPECT_TRUE(r.ok()) << "seed " << seed << ": " << r.error;
    }
}

// ---- Bounds: annotations naming missing entries ----

/**
 * Run annotated @p k through the SIMT direct executor and the SIMT
 * replay at widths 1 and 8 and require both to stop at the same
 * record with the same structured error containing @p expected, with
 * the same partial counts. Neither may index past a lane's ORF/LRF
 * (ASan/UBSan builds abort if one does).
 */
void
expectSimtRangeError(const Kernel &k, const AllocOptions &opts,
                     const std::string &expected)
{
    for (int width : {1, 8}) {
        SimtExecConfig cfg;
        cfg.width = width;
        SwExecResult direct = runSwHierarchySimt(k, opts, cfg);
        DecodedTrace trace = recordSimtDecodedTrace(
            k, cfg.numWarps, cfg.width, cfg.maxInstrsPerWarp);
        SwExecResult replay = replaySwHierarchySimt(k, opts, trace);
        ASSERT_FALSE(direct.ok()) << "width " << width;
        EXPECT_NE(direct.error.find(expected), std::string::npos)
            << direct.error;
        EXPECT_EQ(replay.error, direct.error) << "width " << width;
        EXPECT_EQ(describeCountsDiff(direct.counts, replay.counts), "")
            << "width " << width;
    }
}

/** @p text parsed and allocated under @p opts. */
Kernel
allocated(std::string_view text, const AllocOptions &opts)
{
    Kernel k = parseKernelOrDie(text);
    HierarchyAllocator(EnergyParams{}, opts).run(k);
    return k;
}

TEST(SwExecSimtBounds, TamperedOrfReadEntryIsAStructuredError)
{
    AllocOptions opts;
    Kernel k = allocated(R"(.kernel badread
entry:
    iadd R1, R0, #1
    iadd R2, R1, #2
    st.shared [R0], R2
    exit
)", opts);
    Instruction &use = k.instr(1);
    ASSERT_EQ(use.readAnno[0].level, Level::ORF);
    use.readAnno[0].entry = static_cast<std::uint8_t>(opts.orfEntries);
    expectSimtRangeError(
        k, opts, "ORF entry " + std::to_string(opts.orfEntries) +
            " out of range");
}

TEST(SwExecSimtBounds, TamperedDepositEntryIsAStructuredError)
{
    AllocOptions opts;
    Kernel k = allocated(R"(.kernel baddep
entry:
    iadd R1, R0, #1
    iadd R2, R0, #2
    iadd R3, R0, #3
    st.shared [R1], R2
    st.shared [R3], R0
    exit
)", opts);
    ReadAnnotation *deposit = nullptr;
    for (int lin = 0; lin < k.numInstrs() && !deposit; lin++) {
        Instruction &in = k.instr(lin);
        for (int s = 0; s < in.numSrcs && !deposit; s++)
            if (in.srcs[s].isReg && in.readAnno[s].depositToORF)
                deposit = &in.readAnno[s];
    }
    ASSERT_NE(deposit, nullptr);
    deposit->entry = static_cast<std::uint8_t>(opts.orfEntries);
    expectSimtRangeError(
        k, opts, "ORF entry " + std::to_string(opts.orfEntries) +
            " out of range");
}

TEST(SwExecSimtBounds, TamperedOrfWriteEntryIsAStructuredError)
{
    AllocOptions opts;
    Kernel k = allocated(R"(.kernel badwrite
entry:
    iadd R1, R0, #1
    iadd R2, R1, #2
    st.shared [R0], R2
    exit
)", opts);
    Instruction &def = k.instr(0);
    ASSERT_TRUE(def.writeAnno.toORF);
    def.writeAnno.orfEntry = opts.orfEntries;
    expectSimtRangeError(k, opts, "ORF entry out of range");
}

TEST(SwExecSimtBounds, TamperedLrfBankIsAStructuredError)
{
    AllocOptions opts;
    opts.useLRF = true;
    opts.splitLRF = false;
    Kernel k = allocated(R"(.kernel badbank
entry:
    iadd R1, R0, #1
    iadd R2, R1, #2
    st.shared [R0], R2
    exit
)", opts);
    Instruction &use = k.instr(1);
    ASSERT_EQ(use.readAnno[0].level, Level::LRF);
    use.readAnno[0].lrfBank = 1;
    expectSimtRangeError(k, opts, "LRF bank out of range");
}

TEST(SwExecSimtBounds, SharedDatapathLrfReadIsAStructuredError)
{
    AllocOptions opts;
    opts.useLRF = true;
    opts.splitLRF = false;
    Kernel k = allocated(R"(.kernel sharedlrf
entry:
    iadd R1, R0, #1
    iadd R2, R1, #2
    st.shared [R0], R2
    exit
)", opts);
    // The store runs on the shared datapath, which cannot reach the
    // LRF.
    Instruction &st = k.instr(2);
    ReadAnnotation *value = nullptr;
    for (int s = 0; s < st.numSrcs; s++)
        if (st.srcs[s].isReg && st.srcs[s].reg == 2)
            value = &st.readAnno[s];
    ASSERT_NE(value, nullptr);
    value->level = Level::LRF;
    value->lrfBank = 0;
    expectSimtRangeError(k, opts, "shared-datapath LRF read");
}

TEST(SwExecSimtBounds, CorpusKernelFailsLikeTheScalarExecutor)
{
    // A generated kernel whose sw2@3 allocation names ORF entry 3;
    // all three executors must report the same structured failure (or
    // all verify clean once the allocation is in range).
    const ScenarioProfile *wild = findProfile("wild");
    ASSERT_NE(wild, nullptr);
    Workload w = corpusWorkload(*wild, 15, 19);
    ExperimentConfig cfg;
    cfg.scheme = Scheme::SW_TWO_LEVEL;
    cfg.entries = 3;
    AllocOptions opts = cfg.allocOptions();
    Kernel k = w.kernel;
    HierarchyAllocator(cfg.energy, opts).run(k);
    SwExecResult scalar = runSwHierarchy(k, opts);
    for (int width : {1, 8}) {
        SimtExecConfig sc;
        sc.width = width;
        SwExecResult direct = runSwHierarchySimt(k, opts, sc);
        DecodedTrace trace = recordSimtDecodedTrace(
            k, sc.numWarps, sc.width, sc.maxInstrsPerWarp);
        SwExecResult replay = replaySwHierarchySimt(k, opts, trace);
        EXPECT_EQ(replay.error, direct.error) << "width " << width;
        ASSERT_EQ(direct.ok(), scalar.ok())
            << "width " << width << ": " << direct.error;
        if (!scalar.ok()) {
            const std::string msg =
                scalar.error.substr(scalar.error.find(": ") + 2);
            EXPECT_NE(direct.error.find(msg), std::string::npos)
                << direct.error << " vs " << scalar.error;
        }
    }
}

} // namespace
} // namespace rfh
