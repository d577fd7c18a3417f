/**
 * @file
 * Shared plumbing of the rfh end-to-end benchmark: the run arguments,
 * the result a workload hands back, timing and order statistics, and
 * the per-layer metric names every traced run reports.
 */

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pb {

/** Command-line arguments of one benchmark run. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Length of the measured window. */
    double seconds = 10.0;
    /** Traced run: report per-layer metrics instead of end-to-end. */
    bool trace = false;
    /** Directory for span files and server sockets (inside the checkout). */
    std::string outDir = ".bench_build/out";
    /** This executable (for the set-up probes it spawns). */
    std::string self;
    /** The `rfhc` CLI built beside this executable. */
    std::string rfhc;
};

/** One named metric value with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * What a workload run hands back. Every failed correctness gate, run
 * error, error response and exhausted retry increments @c failed and
 * clears @c correct; @c attempted counts runs, requests and checks.
 */
struct Report
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** First few failure messages, printed before the result line. */
    std::vector<std::string> failures;
    /** Human-readable lines printed before the result line. */
    std::vector<std::string> notes;

    void set(const std::string &name, double value,
             const std::string &unit);
    /** Record one failed operation or check. */
    void fail(const std::string &message);
    /** Count @p n attempted operations. */
    void
    attempt(std::uint64_t n = 1)
    {
        attempted += n;
    }
};

/** Monotonic seconds (steady_clock). */
double nowSec();

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Nearest-rank quantile @p q in [0,1] of @p v (0 when empty). */
double quantile(std::vector<double> v, double q);

/** Peak resident set of this process in MiB. */
double selfPeakRssMiB();

/** Online processors. */
int hostCpus();

/** Seeded 64-bit mix (splitmix64 finaliser). */
std::uint64_t mix64(std::uint64_t x);

/**
 * Spawn @p argv (argv[0] is the program path) with @p extraEnv added
 * to this process's environment and stdin/stdout/stderr redirected to
 * @p logPath (or /dev/null when empty). @return the pid, or -1.
 * When @p readyFd is non-null it receives the read end of a pipe whose
 * write end the child inherits as file descriptor 3.
 */
int spawnProcess(const std::vector<std::string> &argv,
                 const std::vector<std::string> &extraEnv,
                 const std::string &logPath, int *readyFd);

/**
 * Wait for @p pid for at most @p timeoutSec, killing it when it
 * overstays. @return the child's peak RSS in MiB (0 if unknown) and
 * set @p exitOk when it exited with status 0.
 */
double waitProcess(int pid, double timeoutSec, bool *exitOk);

/**
 * Set-up time of a CLI-style process: spawn this executable @p probes
 * times in probe mode for @p workload and time each launch until the
 * child reports ready on its pipe. @return the median seconds, or a
 * negative value when a probe failed.
 */
double probeSetupSec(const Args &args, int probes);

/**
 * Set the traced-run totals on @p r: the median traced and untraced
 * wall of one unit (job or pass), @c unattributed_share = 1 −
 * @p attributedSec ÷ summed traced wall, and @c tracing_overhead =
 * median traced ÷ median untraced − 1.
 */
void setWallMetrics(Report &r, double attributedSec,
                    const std::vector<double> &tracedWall,
                    const std::vector<double> &untracedWall);

/**
 * Per-layer metric names reported by every traced run, in output
 * order, with their units (a workload that never reaches a layer
 * reports 0 for it; README.md lists which layers each workload
 * reaches).
 */
const std::vector<std::pair<std::string, std::string>> &layerMetricNames();

} // namespace pb

#endif // PERFBENCH_COMMON_H
