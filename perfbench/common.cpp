#include "common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstring>
#include <thread>

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

namespace pb {

void
Report::set(const std::string &name, double value, const std::string &unit)
{
    for (Metric &m : metrics) {
        if (m.name == name) {
            m.value = value;
            m.unit = unit;
            return;
        }
    }
    metrics.push_back(Metric{name, value, unit});
}

void
Report::fail(const std::string &message)
{
    failed++;
    correct = false;
    if (failures.size() < 8)
        failures.push_back(message);
}

double
nowSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

double
selfPeakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

int
hostCpus()
{
    long n = sysconf(_SC_NPROCESSORS_ONLN);
    return n > 0 ? static_cast<int>(n) : 1;
}

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

int
spawnProcess(const std::vector<std::string> &argv,
             const std::vector<std::string> &extraEnv,
             const std::string &logPath, int *readyFd)
{
    int pipeW = -1;
    if (readyFd) {
        int p[2];
        if (pipe2(p, O_CLOEXEC) != 0)
            return -1;
        // Keep both ends clear of fd 3 so the dup2 below always
        // produces a fresh, inheritable descriptor.
        *readyFd = fcntl(p[0], F_DUPFD_CLOEXEC, 10);
        pipeW = fcntl(p[1], F_DUPFD_CLOEXEC, 10);
        close(p[0]);
        close(p[1]);
    }
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    const char *out = logPath.empty() ? "/dev/null" : logPath.c_str();
    posix_spawn_file_actions_addopen(&fa, 0, "/dev/null", O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&fa, 1, out,
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    if (pipeW >= 0)
        posix_spawn_file_actions_adddup2(&fa, pipeW, 3);

    std::vector<std::string> env;
    for (char **e = environ; *e; e++)
        env.emplace_back(*e);
    for (const std::string &kv : extraEnv) {
        std::string key = kv.substr(0, kv.find('=') + 1);
        std::erase_if(env, [&](const std::string &s) {
            return s.compare(0, key.size(), key) == 0;
        });
        env.push_back(kv);
    }
    std::vector<char *> cargv, cenv;
    for (const std::string &a : argv)
        cargv.push_back(const_cast<char *>(a.c_str()));
    cargv.push_back(nullptr);
    for (const std::string &e : env)
        cenv.push_back(const_cast<char *>(e.c_str()));
    cenv.push_back(nullptr);

    pid_t pid = -1;
    int rc = posix_spawn(&pid, argv[0].c_str(), &fa, nullptr,
                         cargv.data(), cenv.data());
    posix_spawn_file_actions_destroy(&fa);
    if (pipeW >= 0)
        close(pipeW);
    if (rc != 0) {
        if (readyFd) {
            close(*readyFd);
            *readyFd = -1;
        }
        return -1;
    }
    return static_cast<int>(pid);
}

double
waitProcess(int pid, double timeoutSec, bool *exitOk)
{
    double deadline = nowSec() + timeoutSec;
    bool killed = false;
    for (;;) {
        int status = 0;
        rusage ru{};
        pid_t r = wait4(pid, &status, WNOHANG, &ru);
        if (r == pid) {
            if (exitOk)
                *exitOk = !killed && WIFEXITED(status) &&
                          WEXITSTATUS(status) == 0;
            return static_cast<double>(ru.ru_maxrss) / 1024.0;
        }
        if (r < 0) {
            if (exitOk)
                *exitOk = false;
            return 0.0;
        }
        if (!killed && nowSec() > deadline) {
            kill(pid, SIGKILL);
            killed = true;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
}

double
probeSetupSec(const Args &args, int probes)
{
    std::vector<double> secs;
    for (int i = 0; i < probes; i++) {
        int readyFd = -1;
        double t0 = nowSec();
        int pid = spawnProcess({args.self, "--probe", args.workload},
                               {"RFH_THREADS=1"}, "", &readyFd);
        if (pid < 0)
            return -1.0;
        char byte = 0;
        ssize_t n = read(readyFd, &byte, 1);
        double t1 = nowSec();
        close(readyFd);
        bool ok = false;
        waitProcess(pid, 30.0, &ok);
        if (n != 1 || byte != 'R' || !ok)
            return -1.0;
        secs.push_back(t1 - t0);
    }
    return median(secs);
}

void
setWallMetrics(Report &r, double attributedSec,
               const std::vector<double> &tracedWall,
               const std::vector<double> &untracedWall)
{
    double tracedSum = 0.0;
    for (double w : tracedWall)
        tracedSum += w;
    double traced = median(tracedWall), untraced = median(untracedWall);
    r.set("traced_wall_s", traced, "s");
    r.set("untraced_wall_s", untraced, "s");
    r.set("unattributed_share", 1.0 - attributedSec / tracedSum, "ratio");
    r.set("tracing_overhead", traced / untraced - 1.0, "ratio");
}

const std::vector<std::pair<std::string, std::string>> &
layerMetricNames()
{
    static const std::vector<std::pair<std::string, std::string>> names =
        [] {
            std::vector<std::pair<std::string, std::string>> n = {
                {"workloads.generate_s", "s"},
                {"memo.fingerprint_s", "s"},
                {"memo.clear_s", "s"},
                {"memo.baseline_hit_ratio", "ratio"},
                {"memo.baseline_lookups", "count"},
                {"memo.analysis_hit_ratio", "ratio"},
                {"memo.analysis_lookups", "count"},
                {"memo.trace_hit_ratio", "ratio"},
                {"memo.trace_lookups", "count"},
                {"memo.decode_hit_ratio", "ratio"},
                {"memo.decode_lookups", "count"},
                {"ir.analyze_s", "s"},
                {"sim.baseline_s", "s"},
                {"trace.record_s", "s"},
                {"trace.dyn_instrs", "count"},
                {"sim.decode_s", "s"},
                {"compiler.allocate_s", "s"},
                {"sim.execute_s", "s"},
                {"sim.execute_instrs", "count"},
                {"sim.instrs_per_s", "1/s"},
            };
            // Scheme tokens of the default corpus grid.
            for (const char *t : {"hw2", "hw3", "sw2", "sw3", "ccrfc",
                                  "regdem", "greener"})
                n.emplace_back(std::string("sim.execute_s.") + t, "s");
            std::vector<std::pair<std::string, std::string>> rest = {
                {"sim.direct_share", "ratio"},
                {"engine.runs", "count"},
                {"pipeline.run_s", "s"},
                {"pipeline.cycles_per_s", "1/s"},
                {"pipeline.cycles", "count"},
                {"corpus.fold_s", "s"},
                {"corpus.take_s", "s"},
                {"corpus.json_s", "s"},
                {"service.submit_us", "us"},
                {"service.handle_ms.p50", "ms"},
                {"service.handle_ms.p99", "ms"},
                {"service.handle_samples", "count"},
                {"service.transport_ms", "ms"},
                {"service.batch_size_mean", "count"},
                {"service.batches", "count"},
                {"traced_wall_s", "s"},
                {"untraced_wall_s", "s"},
                {"unattributed_share", "ratio"},
                {"tracing_overhead", "ratio"},
            };
            n.insert(n.end(), rest.begin(), rest.end());
            return n;
        }();
    return names;
}

} // namespace pb
