/**
 * @file
 * The `serve` workload: one `rfhc serve` on a Unix socket, driven by
 * this process in a closed loop over 4 connections that one thread
 * multiplexes — serve's real callers (`rfhc loadgen`, `corpus
 * --socket`) each wait for their reply. The server's pool gets
 * kServerThreads threads; generator and server share one CPU (see
 * pinToLastCpu).
 *
 * Request stream (a pure function of the seed and the request index):
 * three of every four requests follow the loadgen registry mix (4
 * small kernels x schemes x entries), memo-warm after set-up; the
 * fourth carries an inline RPTX kernel generated from a profile, each
 * kernel requested across the default corpus grid
 * (defaultCorpusCells(), 37 cells) as `corpus --socket` does, so its
 * first request compiles cold. The inline kernels come from six of
 * the eight builtin profiles (see kSkippedProfiles). Per-request
 * overhead dominates the registry requests; the inline ones drive
 * RPTX parsing and cold compiles through the same service layer.
 *
 * The traced run replays the same stream through an in-process
 * BatchService to time submit() and the service's handling, and checks
 * that its response bytes equal the socket's.
 */

#include <algorithm>
#include <iterator>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <numeric>
#include <thread>

#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/corpus.h"
#include "core/json.h"
#include "core/memo.h"
#include "core/parallel.h"
#include "core/scheme.h"
#include "counters.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "service/net.h"
#include "service/protocol.h"
#include "service/server.h"
#include "spans.h"
#include "workloads.h"
#include "workloads/profiles.h"

namespace pb {

namespace {

constexpr int kConnections = 4;
/** Server start-ups per untraced run; setup_s is their median. */
constexpr int kSetups = 5;
/** One request in this many is byte-checked against local runScheme. */
constexpr std::uint64_t kVerifyEvery = 64;
/** Attempts of an `overloaded` request before it counts as failed. */
constexpr int kMaxAttempts = 8;
/**
 * Request rate the inline kernels are pre-generated for (over twice
 * the 8-10k req/s measured on one CPU of a shared 4-vCPU host).
 */
constexpr double kMaxRequestsPerSec = 20000;
/** Throughput is the median over this many slices of the window. */
constexpr int kRateSlices = 10;
/**
 * Profiles the inline kernels skip: the server runs lone requests on
 * the DIRECT engine, which rejects the sw2/sw3 allocation of about 1
 * in 800 `wild` and 1 in 3,600 `high-pressure` kernels (a library
 * defect, see README.md), and a benchmark run must not fail on its
 * inputs.
 */
const char *const kSkippedProfiles[] = {"wild", "high-pressure"};

// The loadgen registry mix (service/loadgen.cpp).
const char *const kMixWorkloads[] = {"vectoradd", "reduction",
                                     "matrixmul", "histogram"};
const int kMixEntries[] = {3, 2, 4, 1};

/** The deterministic request stream. */
class Stream
{
  public:
    explicit Stream(std::uint64_t seed)
        : seed_(seed), cells_(rfh::defaultCorpusCells())
    {
        for (const rfh::ScenarioProfile &p : rfh::allProfiles())
            if (std::find(std::begin(kSkippedProfiles),
                          std::end(kSkippedProfiles),
                          p.name) == std::end(kSkippedProfiles))
                profiles_.push_back(p);
        for (const rfh::SchemeInfo *si :
             rfh::SchemeRegistry::instance().schemes())
            mixSchemes_.push_back(si->token);
    }

    /** Request line @p i (id = i). */
    std::string
    line(std::int64_t i)
    {
        if (i % 4 != 3)
            return mixLine(i / 4 * 3 + i % 4, std::to_string(i));
        std::int64_t q = i / 4;
        auto nCells = static_cast<std::int64_t>(cells_.size());
        const rfh::CorpusCell &cell =
            cells_[static_cast<std::size_t>(q % nCells)];
        std::int64_t j = q / nCells;
        rfh::ServiceRequest req;
        req.idJson = std::to_string(i);
        req.kernelText = kernelText(j);
        req.scheme = cell.scheme;
        req.entries = cell.entries;
        req.warps = warps_[static_cast<std::size_t>(j)];
        return rfh::serviceRequestToJson(req);
    }

    /** Registry-mix request @p r with id @p idJson. */
    std::string
    mixLine(std::int64_t r, const std::string &idJson) const
    {
        rfh::JsonWriter w;
        w.beginObject();
        w.key("id").rawValue(idJson);
        w.key("op").value("run");
        w.key("workload").value(kMixWorkloads[r % 4]);
        w.key("scheme").value(
            mixSchemes_[static_cast<std::size_t>(r) % mixSchemes_.size()]);
        w.key("entries").value(kMixEntries[r % 4]);
        w.key("warps").value(8);
        w.endObject();
        return w.str();
    }

    /** Distinct registry-mix requests (the warming pass). */
    std::int64_t
    mixPeriod() const
    {
        return std::lcm<std::int64_t>(
            4, static_cast<std::int64_t>(mixSchemes_.size()));
    }

    /**
     * Generate, across the host's cores, every inline kernel used by
     * requests below @p n, so the measured window does not wait on
     * its own inputs (later ones are generated on demand).
     */
    void
    pregenerate(std::int64_t n)
    {
        std::size_t have = texts_.size();
        auto want = static_cast<std::size_t>(
            n / 4 / static_cast<std::int64_t>(cells_.size()) + 1);
        if (want <= have)
            return;
        texts_.resize(want);
        warps_.resize(want);
        std::vector<double> genSec(want - have), fpSec(want - have);
        rfh::ThreadPool pool(hostCpus());
        pool.parallelFor(static_cast<int>(want - have), [&](int k) {
            std::size_t j = have + static_cast<std::size_t>(k);
            std::size_t i = static_cast<std::size_t>(k);
            makeKernel(j, genSec[i], fpSec[i]);
        });
        for (std::size_t i = 0; i < genSec.size(); i++) {
            generateSec += genSec[i];
            fingerprintSec += fpSec[i];
        }
    }

    std::uint64_t
    seed() const
    {
        return seed_;
    }

    double generateSec = 0.0;
    double fingerprintSec = 0.0;

  private:
    /** Kernel @p j: profile j mod 6, corpus index j div 6. */
    void
    makeKernel(std::size_t j, double &genSec, double &fpSec)
    {
        double t0 = nowSec();
        rfh::Workload w =
            rfh::corpusWorkload(profiles_[j % profiles_.size()], seed_,
                                static_cast<int>(j / profiles_.size()));
        texts_[j] = rfh::printKernel(w.kernel);
        warps_[j] = w.run.numWarps;
        double t1 = nowSec();
        rfh::kernelFingerprint(w.kernel);
        genSec = t1 - t0;
        fpSec = nowSec() - t1;
    }

    const std::string &
    kernelText(std::int64_t j)
    {
        while (static_cast<std::int64_t>(texts_.size()) <= j) {
            texts_.emplace_back();
            warps_.push_back(0);
            double gen = 0.0, fp = 0.0;
            makeKernel(texts_.size() - 1, gen, fp);
            generateSec += gen;
            fingerprintSec += fp;
        }
        return texts_[static_cast<std::size_t>(j)];
    }

    std::uint64_t seed_;
    /** Cells each inline kernel is requested across, in order. */
    std::vector<rfh::CorpusCell> cells_;
    /** Profiles of the inline kernels, in registration order. */
    std::vector<rfh::ScenarioProfile> profiles_;
    std::vector<std::string> mixSchemes_;
    std::vector<std::string> texts_;
    std::vector<int> warps_;
};

/** Whether request @p i's response is byte-checked locally. */
bool
sampled(std::uint64_t seed, std::int64_t i)
{
    return mix64(seed ^ static_cast<std::uint64_t>(i) * 0x9e37ull) %
               kVerifyEvery ==
           0;
}

/** `{"id":<i>,"ok":true` — the prefix of a success envelope. */
bool
isOk(const std::string &response, const std::string &idJson)
{
    std::string prefix = "{\"id\":" + idJson + ",\"ok\":true";
    return response.compare(0, prefix.size(), prefix) == 0;
}

bool
isOverloaded(const std::string &response)
{
    return response.find("\"code\":\"overloaded\"") != std::string::npos;
}

/** Connect to @p path, retrying every millisecond until @p deadline. */
int
connectBy(const std::string &path, double deadline)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        return -1;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    for (;;) {
        int fd = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd < 0)
            return -1;
        if (connect(fd, reinterpret_cast<sockaddr *>(&addr),
                    sizeof addr) == 0)
            return fd;
        close(fd);
        if (nowSec() > deadline)
            return -1;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

/** Send one line and wait for its reply on a blocking connection. */
bool
roundTrip(int fd, const std::string &line, std::string &reply)
{
    std::string buf;
    return rfh::netSendLine(fd, line) && rfh::netReadLine(fd, buf, reply);
}

/** A running `rfhc serve` with its client connections. */
struct Server
{
    int pid = -1;
    std::string socketPath;
    std::vector<int> fds;
};

/**
 * Start the server, wait until a ping is answered, open the client
 * connections and run the registry-mix warming pass. @return false
 * with @p err set on failure (the server, if started, is stopped).
 */
bool
startServer(const Args &args, Stream &stream, Server &s, std::string &err)
{
    s.socketPath = args.outDir + "/serve-" + std::to_string(getpid()) +
                   ".sock";
    unlink(s.socketPath.c_str());
    s.pid = spawnProcess({args.rfhc, "serve", "--socket", s.socketPath},
                         {"RFH_THREADS=" + std::to_string(kServerThreads)},
                         args.outDir + "/serve.log", nullptr);
    if (s.pid < 0) {
        err = "could not spawn " + args.rfhc;
        return false;
    }
    double deadline = nowSec() + 30.0;
    for (int c = 0; c < kConnections; c++) {
        int fd = connectBy(s.socketPath, deadline);
        if (fd < 0) {
            err = "could not connect to " + s.socketPath;
            return false;
        }
        s.fds.push_back(fd);
    }
    std::string reply;
    if (!roundTrip(s.fds[0], R"({"id":"ping","op":"ping"})", reply) ||
        reply.find("pong") == std::string::npos) {
        err = "ping not answered: " + reply;
        return false;
    }
    for (std::int64_t r = 0; r < stream.mixPeriod(); r++) {
        std::string id = "\"warm" + std::to_string(r) + "\"";
        if (!roundTrip(s.fds[0], stream.mixLine(r, id), reply) ||
            !isOk(reply, id)) {
            err = "warming request failed: " + reply;
            return false;
        }
    }
    return true;
}

/** Ask the server to drain and exit; @return its peak RSS in MiB. */
double
stopServer(Server &s, bool *cleanExit)
{
    std::string reply;
    if (!s.fds.empty())
        roundTrip(s.fds[0], R"({"id":"bye","op":"shutdown"})", reply);
    for (int fd : s.fds)
        rfh::netClose(fd);
    s.fds.clear();
    double rss = s.pid > 0 ? waitProcess(s.pid, 30.0, cleanExit) : 0.0;
    s.pid = -1;
    unlink(s.socketPath.c_str());
    return rss;
}

/** FNV-1a digest of a response line (for run-to-run byte checks). */
std::uint64_t
digest(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s)
        h = (h ^ c) * 0x100000001b3ull;
    return h;
}

/**
 * One answered request. The response bytes are kept only where a
 * check reads them (failed or sampled requests); every response keeps
 * its digest.
 */
struct Answer
{
    std::int64_t index = 0;
    double sentSec = 0.0;
    double doneSec = 0.0;
    bool ok = false;
    std::uint64_t digest = 0;
    std::string response;
};

/** Fill @p a from response line @p response of a request. */
void
settle(Answer &a, std::string response, std::uint64_t seed)
{
    a.ok = isOk(response, std::to_string(a.index));
    a.digest = digest(response);
    if (!a.ok || sampled(seed, a.index))
        a.response = std::move(response);
}

/**
 * Closed loop over the server's connections: each connection sends
 * its next request only when the previous reply arrived. Requests are
 * numbered from @p first; new requests are sent while @p more(n, now)
 * holds for the n-th request of the pass. Every answer is handed to
 * @p onAnswer; a transport failure stops the pass with @p err set.
 */
template <typename More, typename OnAnswer>
bool
closedLoop(Server &s, Stream &stream, std::int64_t first, More more,
           OnAnswer onAnswer, std::string &err)
{
    struct Conn
    {
        int fd = -1;
        std::string buf;
        bool busy = false;
        int attempts = 0;
        Answer a;
        std::string line;
    };
    std::vector<Conn> conns(s.fds.size());
    for (std::size_t i = 0; i < s.fds.size(); i++)
        conns[i].fd = s.fds[i];
    std::int64_t next = first;
    auto send = [&](Conn &c) {
        c.a = Answer{};
        c.a.index = next;
        c.a.sentSec = nowSec();
        c.line = stream.line(next++);
        c.busy = true;
        c.attempts = 1;
        return rfh::netSendLine(c.fd, c.line);
    };
    for (Conn &c : conns)
        if (more(next - first, nowSec()) && !send(c)) {
            err = "send failed";
            return false;
        }
    std::vector<pollfd> pfds(conns.size());
    char chunk[65536];
    for (;;) {
        int busy = 0;
        for (std::size_t i = 0; i < conns.size(); i++) {
            pfds[i] = pollfd{conns[i].fd, POLLIN, 0};
            busy += conns[i].busy;
        }
        if (!busy)
            return true;
        int n = poll(pfds.data(), pfds.size(), 60000);
        if (n <= 0) {
            err = "no reply within 60 s";
            return false;
        }
        for (std::size_t i = 0; i < conns.size(); i++) {
            if (!(pfds[i].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            Conn &c = conns[i];
            ssize_t got = read(c.fd, chunk, sizeof chunk);
            if (got <= 0) {
                err = "server closed the connection";
                return false;
            }
            c.buf.append(chunk, static_cast<std::size_t>(got));
            std::size_t nl;
            while ((nl = c.buf.find('\n')) != std::string::npos) {
                std::string response = c.buf.substr(0, nl);
                c.buf.erase(0, nl + 1);
                if (isOverloaded(response) && c.attempts < kMaxAttempts) {
                    c.attempts++;
                    if (!rfh::netSendLine(c.fd, c.line)) {
                        err = "send failed";
                        return false;
                    }
                    continue;
                }
                c.a.doneSec = nowSec();
                settle(c.a, std::move(response), stream.seed());
                c.busy = false;
                onAnswer(c.a);
                if (more(next - first, c.a.doneSec) && !send(c)) {
                    err = "send failed";
                    return false;
                }
            }
        }
    }
}

/** Local reference result of @p line, as the service computes it. */
std::string
expectedResponse(const std::string &line)
{
    rfh::ParsedRequest parsed = rfh::parseServiceRequest(line);
    if (!parsed.ok)
        return "unparseable request";
    const rfh::ServiceRequest &req = parsed.request;
    rfh::Workload w;
    if (!req.workload.empty()) {
        w = *rfh::findWorkload(req.workload);
    } else {
        rfh::ParseResult k = rfh::parseKernel(req.kernelText);
        if (!k.ok)
            return k.error;
        w.name = k.kernel.name;
        w.suite = "service";
        w.kernel = std::move(k.kernel);
    }
    w.run.numWarps = req.warps;
    rfh::RunOutcome o = rfh::runScheme(w, req.config());
    if (!o.ok())
        return o.error;
    return rfh::makeResultLine(req.idJson, rfh::outcomeToJson(o));
}

/** Count every answer and check the sampled ones byte for byte. */
void
checkAnswers(Report &r, Stream &stream, const std::vector<Answer> &answers)
{
    for (const Answer &a : answers) {
        r.attempt();
        std::string id = std::to_string(a.index);
        if (!a.ok) {
            r.fail("request " + id + " failed: " +
                   a.response.substr(0, 200));
            continue;
        }
        if (!sampled(stream.seed(), a.index))
            continue;
        r.attempt();
        if (expectedResponse(stream.line(a.index)) != a.response)
            r.fail("request " + id +
                   ": response differs from local runScheme");
    }
}

/** Median completion rate over kRateSlices slices of the window. */
double
sliceRate(const std::vector<Answer> &answers, double start, double end)
{
    std::vector<double> counts(kRateSlices, 0.0);
    double slice = (end - start) / kRateSlices;
    for (const Answer &a : answers) {
        auto k = static_cast<int>((a.doneSec - start) / slice);
        counts[static_cast<std::size_t>(std::clamp(k, 0, kRateSlices - 1))]++;
    }
    return median(counts) / slice;
}

std::vector<double>
latenciesMs(const std::vector<Answer> &answers)
{
    std::vector<double> ms;
    ms.reserve(answers.size());
    for (const Answer &a : answers)
        ms.push_back((a.doneSec - a.sentSec) * 1e3);
    return ms;
}

/**
 * Confine this thread, and the threads and server process it starts
 * from now on, to the last CPU it may run on; @return that CPU, or -1.
 * On a shared host the vCPUs are available unevenly and that changes
 * over minutes; spread over several of them, serve's hand-offs from
 * reader to dispatcher to worker thread each waited on a vCPU's
 * availability, and the p99 of a 30 s run doubled when it met a busy
 * stretch of the host. On one CPU the hand-offs are context switches.
 */
int
pinToLastCpu()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
        return -1;
    for (int c = CPU_SETSIZE - 1; c >= 0; c--) {
        if (!CPU_ISSET(c, &allowed))
            continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(c, &one);
        return sched_setaffinity(0, sizeof one, &one) == 0 ? c : -1;
    }
    return -1;
}

Report
untracedServe(const Args &args, Stream &stream)
{
    Report r;
    Server server;
    std::string err;
    std::vector<double> setups;
    for (int i = 0; i < kSetups; i++) {
        double t0 = nowSec();
        bool ok = startServer(args, stream, server, err);
        setups.push_back(nowSec() - t0);
        r.attempt();
        if (!ok) {
            r.fail("set-up: " + err);
            stopServer(server, nullptr);
            return r;
        }
        if (i + 1 < kSetups)
            stopServer(server, nullptr);
    }

    std::vector<Answer> answers;
    double start = nowSec(), stop = start + args.seconds;
    bool ok = closedLoop(
        server, stream, 0,
        [&](std::int64_t, double now) { return now < stop; },
        [&](const Answer &a) { answers.push_back(a); }, err);
    double end = nowSec();
    if (!ok)
        r.fail("closed loop: " + err);
    bool clean = false;
    double rss = stopServer(server, &clean);
    if (!clean)
        r.fail("server did not exit cleanly");
    checkAnswers(r, stream, answers);

    std::vector<double> ms = latenciesMs(answers);
    r.set("setup_s", median(setups), "s");
    r.set("runs_per_s", sliceRate(answers, start, end), "1/s");
    r.set("latency_p50_ms", median(ms), "ms");
    r.set("latency_p99_ms", quantile(ms, 0.99), "ms");
    r.set("peak_rss_mb", rss, "MiB");
    char note[200];
    std::snprintf(note, sizeof note,
                  "serve: %zu requests over %d connections in %.2f s; "
                  "req_per_s = runs_per_s; latency samples %zu",
                  answers.size(), kConnections, end - start, ms.size());
    r.notes.push_back(note);
    return r;
}

/** One request's trip through the in-process service. */
struct Handled
{
    double submitStartSec = 0.0;
    double submitEndSec = 0.0;
    double respondSec = 0.0;
    std::uint64_t digest = 0;
};

/**
 * Replay requests [0, @p n) through an in-process BatchService with
 * the server's pool size, @c kConnections in flight (closed loop).
 */
std::vector<Handled>
inProcessPass(Stream &stream, std::int64_t n)
{
    std::vector<std::string> lines;
    for (std::int64_t i = 0; i < n; i++)
        lines.push_back(stream.line(i));
    std::vector<Handled> out(static_cast<std::size_t>(n));
    std::mutex mu;
    std::condition_variable cv;
    std::int64_t done = 0;

    rfh::ThreadPool pool(kServerThreads);
    rfh::ServiceOptions opts;
    opts.pool = &pool;
    rfh::BatchService service(opts);
    service.start();
    std::int64_t next = 0;
    auto submit = [&] {
        std::int64_t i = next++;
        Handled &h = out[static_cast<std::size_t>(i)];
        h.submitStartSec = nowSec();
        service.submit(lines[static_cast<std::size_t>(i)],
                       [&, i](const std::string &response) {
                           double t = nowSec();
                           std::uint64_t d = digest(response);
                           std::lock_guard<std::mutex> lk(mu);
                           out[static_cast<std::size_t>(i)].respondSec = t;
                           out[static_cast<std::size_t>(i)].digest = d;
                           done++;
                           cv.notify_one();
                       });
        h.submitEndSec = nowSec();
    };
    for (int c = 0; c < kConnections && next < n; c++)
        submit();
    std::int64_t seen = 0;
    while (seen < n) {
        {
            std::unique_lock<std::mutex> lk(mu);
            cv.wait(lk, [&] { return done > seen; });
            seen = done;
        }
        while (next < n && next < seen + kConnections)
            submit();
    }
    service.drain();
    return out;
}

Report
tracedServe(const Args &args, Stream &stream)
{
    Report r;
    Server server;
    std::string err;
    if (!startServer(args, stream, server, err)) {
        r.fail("set-up: " + err);
        stopServer(server, nullptr);
        return r;
    }

    // Untraced socket pass for a third of the window.
    std::vector<Answer> plain;
    double u0 = nowSec(), stop = u0 + args.seconds / 3;
    bool ok = closedLoop(
        server, stream, 0,
        [&](std::int64_t, double now) { return now < stop; },
        [&](const Answer &a) { plain.push_back(a); }, err);
    double untracedWall = nowSec() - u0;
    auto n = static_cast<std::int64_t>(plain.size());
    std::sort(plain.begin(), plain.end(),
              [](const Answer &x, const Answer &y) {
                  return x.index < y.index;
              });

    // Traced socket pass over the next n requests of the stream.
    SpanLog log;
    std::vector<Answer> tracedAnswers;
    double t0 = nowSec();
    ok = ok && closedLoop(
                   server, stream, n,
                   [&](std::int64_t k, double) { return k < n; },
                   [&](const Answer &a) {
                       tracedAnswers.push_back(a);
                       log.add("serve.request", log.toUs(a.sentSec),
                               log.toUs(a.doneSec), -1, a.index);
                   },
                   err);
    double tracedWall = nowSec() - t0;
    if (!ok)
        r.fail("closed loop: " + err);
    bool clean = false;
    stopServer(server, &clean);
    if (!clean)
        r.fail("server did not exit cleanly");

    // In-process pass over the untraced pass's requests.
    LibCounters c0 = LibCounters::now();
    std::vector<Handled> handled = inProcessPass(stream, n);
    LibCounters d = LibCounters::now().since(c0);
    std::vector<double> handleMs;
    double handleSum = 0.0, submitSum = 0.0;
    for (std::size_t i = 0; i < handled.size(); i++) {
        const Handled &h = handled[i];
        auto id = static_cast<std::int64_t>(i);
        double start = log.toUs(h.submitStartSec);
        log.add("service.submit", start, log.toUs(h.submitEndSec), -1, id);
        log.add("service.handle", start, log.toUs(h.respondSec), -1, id);
        handleMs.push_back((h.respondSec - h.submitStartSec) * 1e3);
        submitSum += h.submitEndSec - h.submitStartSec;
        handleSum += h.respondSec - h.submitStartSec;
        r.attempt();
        if (h.digest != plain[i].digest)
            r.fail("request " + std::to_string(i) +
                   ": in-process response differs from the socket's");
    }
    checkAnswers(r, stream, plain);
    checkAnswers(r, stream, tracedAnswers);

    double submitMean = n ? submitSum / static_cast<double>(n) : 0.0;
    r.set("workloads.generate_s", stream.generateSec, "s");
    r.set("memo.fingerprint_s", stream.fingerprintSec, "s");
    setMemoMetrics(r, d);
    r.set("ir.analyze_s", d.analyzeSec, "s");
    r.set("trace.record_s", d.recordSec, "s");
    r.set("trace.dyn_instrs", static_cast<double>(d.recordInstrs), "count");
    r.set("compiler.allocate_s", d.allocateSec, "s");
    r.set("sim.execute_s", d.executeSec, "s");
    r.set("sim.execute_instrs", static_cast<double>(d.executeInstrs),
          "count");
    r.set("sim.instrs_per_s",
          d.executeSec > 0
              ? static_cast<double>(d.executeInstrs) / d.executeSec
              : 0.0,
          "1/s");
    r.set("service.submit_us", submitMean * 1e6, "us");
    r.set("service.handle_ms.p50", median(handleMs), "ms");
    r.set("service.handle_ms.p99", quantile(handleMs, 0.99), "ms");
    r.set("service.handle_samples", static_cast<double>(handleMs.size()),
          "count");
    r.set("service.transport_ms",
          median(latenciesMs(plain)) - median(handleMs), "ms");
    r.set("service.batch_size_mean",
          d.batches ? static_cast<double>(d.batchItems) /
                          static_cast<double>(d.batches)
                    : 0.0,
          "count");
    r.set("service.batches", static_cast<double>(d.batches), "count");
    double attributed = submitSum + d.analyzeSec + d.traceSec +
                        d.allocateSec + d.executeSec;
    r.set("traced_wall_s", tracedWall, "s");
    r.set("untraced_wall_s", untracedWall, "s");
    r.set("unattributed_share",
          handleSum > 0 ? 1.0 - attributed / handleSum : 0.0, "ratio");
    r.set("tracing_overhead", tracedWall / untracedWall - 1.0, "ratio");
    if (!log.write(args.outDir + "/spans-serve.json"))
        r.fail("could not write the span file");
    return r;
}

} // namespace

Report
runServeWorkload(const Args &args)
{
    Stream stream(args.seed);
    stream.pregenerate(static_cast<std::int64_t>(args.seconds *
                                                 kMaxRequestsPerSec));
    int cpu = pinToLastCpu();
    if (cpu < 0) {
        Report r;
        r.attempt();
        r.fail("could not pin the workload to one CPU");
        return r;
    }
    Report r = args.trace ? tracedServe(args, stream)
                          : untracedServe(args, stream);
    r.notes.push_back("serve: generator, server and in-process service "
                      "pinned to CPU " +
                      std::to_string(cpu));
    return r;
}

} // namespace pb
