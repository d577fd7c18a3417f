/**
 * @file
 * Entry point of the rfh end-to-end benchmark binary (driven by
 * run.py, which builds it first).
 *
 *   perfbench --workload corpus|serve|pipeline --seed N --seconds S
 *             --trace 0|1 [--out-dir DIR]
 *
 * Prints the host context, notes and any failures, then as its last
 * line one JSON object {"correct","attempted","failed","metrics"}:
 * the end-to-end metrics of an untraced run, or every per-layer metric
 * of a traced one. Exits 0 only when every correctness gate passed.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <sys/stat.h>
#include <unistd.h>

#include "core/json.h"
#include "workloads.h"

#ifndef PB_BUILD_TYPE
#define PB_BUILD_TYPE "unknown"
#endif
#ifndef PB_COMPILER
#define PB_COMPILER "unknown"
#endif

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload corpus|serve|pipeline "
                 "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n");
    return 2;
}

std::string
selfPath()
{
    char buf[4096];
    ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
    return n > 0 ? std::string(buf, static_cast<std::size_t>(n)) : "";
}

/** The context every result is recorded with (see README.md). */
std::string
contextJson(const pb::Args &a)
{
    const char *sha = std::getenv("PB_GIT_SHA");
    rfh::JsonWriter w;
    w.beginObject();
    w.key("nproc").value(pb::hostCpus());
    w.key("build_type").value(PB_BUILD_TYPE);
    w.key("compiler").value(PB_COMPILER);
    w.key("git_sha").value(sha && *sha ? sha : "unknown");
    w.key("rfh_threads")
        .value(a.workload == "serve" ? pb::kServerThreads : 1);
    w.key("workload").value(a.workload);
    w.key("seed").value(static_cast<std::uint64_t>(a.seed));
    w.key("seconds").value(a.seconds);
    w.key("trace").value(a.trace);
    w.endObject();
    return w.str();
}

std::string
resultJson(const pb::Report &r)
{
    rfh::JsonWriter w;
    w.beginObject();
    w.key("correct").value(r.correct);
    w.key("attempted").value(static_cast<std::uint64_t>(r.attempted));
    w.key("failed").value(static_cast<std::uint64_t>(r.failed));
    w.key("metrics");
    w.beginObject();
    for (const pb::Metric &m : r.metrics) {
        // Every digit as measured (JsonWriter rounds doubles to 6);
        // JSON has no NaN or infinity, so a non-finite value reads 0.
        char num[32];
        std::snprintf(num, sizeof num, "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        w.key(m.name);
        w.beginObject();
        w.key("value").rawValue(num);
        w.key("unit").value(m.unit);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    return w.str();
}

} // namespace

int
main(int argc, char **argv)
{
    pb::Args a;
    // Set-up probe: resolve what a run needs, report ready on fd 3.
    if (argc == 3 && std::strcmp(argv[1], "--probe") == 0) {
        bool ok = pb::probeReady(argv[2]);
        if (ok && write(3, "R", 1) != 1)
            return 1;
        return ok ? 0 : 1;
    }
    bool haveTrace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i], v = argv[i + 1];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
        } else if (k == "--trace") {
            a.trace = v == "1";
            haveTrace = v == "0" || v == "1";
        } else if (k == "--out-dir") {
            a.outDir = v;
        } else {
            return usage();
        }
        if (end && *end)
            return usage();
    }
    if (argc % 2 != 1 || !haveTrace || a.seconds <= 0 ||
        (a.workload != "corpus" && a.workload != "serve" &&
         a.workload != "pipeline"))
        return usage();
    a.self = selfPath();
    a.rfhc = a.self.substr(0, a.self.rfind('/') + 1) + "rfhc";
    mkdir(a.outDir.c_str(), 0755);

    std::printf("context: %s\n", contextJson(a).c_str());
    std::fflush(stdout);
    pb::Report r = a.workload == "corpus"  ? pb::runCorpusWorkload(a)
                   : a.workload == "serve" ? pb::runServeWorkload(a)
                                           : pb::runPipelineWorkload(a);

    // A traced run reports every per-layer metric; a layer the
    // workload never reaches reads 0.
    if (a.trace) {
        pb::Report full = r;
        full.metrics.clear();
        for (const auto &[name, unit] : pb::layerMetricNames()) {
            full.set(name, 0.0, unit);
            for (const pb::Metric &m : r.metrics)
                if (m.name == name)
                    full.set(name, m.value, unit);
        }
        r.metrics = std::move(full.metrics);
    }

    for (const std::string &n : r.notes)
        std::printf("note: %s\n", n.c_str());
    std::printf("error_rate: %.6g (%llu failed / %llu attempted)\n",
                r.attempted ? static_cast<double>(r.failed) /
                                  static_cast<double>(r.attempted)
                            : 0.0,
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.attempted));
    for (const std::string &f : r.failures)
        std::printf("FAILED: %s\n", f.c_str());
    std::printf("%s\n", resultJson(r).c_str());
    return r.correct ? 0 : 1;
}
