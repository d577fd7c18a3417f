#include "service/corpus_client.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "core/json.h"
#include "core/parallel.h"
#include "ir/printer.h"
#include "service/net.h"
#include "service/protocol.h"

namespace rfh {

namespace {

/** Outcome slot of one in-flight corpus request. */
struct SlotResult
{
    bool ok = false;
    bool transportFailed = false;
    CorpusSample sample;
    std::string error;
};

/**
 * Issue requests @p first, @p first + @p stride, ... of @p lines
 * synchronously over one connection, parking each response in its
 * slot. Overloaded responses back off and retry; other errors land in
 * the slot as run errors.
 */
void
clientLoop(const CorpusClientOptions &opts,
           const std::vector<std::string> &lines, int first, int stride,
           std::vector<SlotResult> &slots)
{
    int fd = netConnect(opts.socketPath);
    if (fd < 0) {
        for (std::size_t i = static_cast<std::size_t>(first);
             i < lines.size(); i += static_cast<std::size_t>(stride))
            slots[i].transportFailed = true;
        return;
    }
    std::string buf, response;
    for (std::size_t i = static_cast<std::size_t>(first);
         i < lines.size(); i += static_cast<std::size_t>(stride)) {
        SlotResult &slot = slots[i];
        for (int attempt = 0; attempt <= opts.maxRetries; attempt++) {
            if (!netSendLine(fd, lines[i]) ||
                !netReadLine(fd, buf, response)) {
                slot.transportFailed = true;
                netClose(fd);
                return;
            }
            JsonParseResult parsed = parseJson(response);
            if (!parsed.ok) {
                slot.error = "unparseable response: " + parsed.error;
                break;
            }
            if (parsed.value.boolOr("ok", false)) {
                const JsonValue *result = parsed.value.find("result");
                std::string err;
                if (result &&
                    corpusSampleFromResultJson(*result, slot.sample,
                                               &err)) {
                    slot.ok = true;
                } else {
                    slot.error = result ? err : "response missing result";
                }
                break;
            }
            const JsonValue *err = parsed.value.find("error");
            std::string code = err ? err->stringOr("code", "") : "";
            if (code == "overloaded" && attempt < opts.maxRetries) {
                // Exponential backoff: 5, 10, 20, ... ms (capped).
                int sleepMs = std::min(5 << std::min(attempt, 7), 500);
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(sleepMs));
                continue;
            }
            slot.error =
                err ? err->stringOr("message", "service error") : "";
            if (slot.error.empty())
                slot.error = "service error";
            break;
        }
        if (!slot.ok && slot.error.empty())
            slot.error = "shed after " +
                std::to_string(opts.maxRetries) + " overloaded retries";
    }
    netClose(fd);
}

} // namespace

bool
runCorpusRemote(const CorpusConfig &cfg, const CorpusClientOptions &opts,
                CorpusResult &out, std::string *err)
{
    auto fail = [&](const std::string &m) {
        if (err)
            *err = m;
        return false;
    };
    if (opts.connections < 1)
        return fail("corpus: --connections must be >= 1");
    std::vector<ScenarioProfile> profiles;
    std::vector<CorpusCell> cells;
    if (!resolveCorpusConfig(cfg, profiles, cells, err))
        return false;
    CorpusConfig resolved = cfg;
    resolved.cells = cells;
    resolved.profiles.clear();
    for (const ScenarioProfile &p : profiles)
        resolved.profiles.push_back(p.name);

    auto start = std::chrono::steady_clock::now();
    CorpusAccumulator acc(resolved, profiles);
    int nCells = static_cast<int>(cells.size());
    for (std::size_t pi = 0; pi < profiles.size(); pi++) {
        const ScenarioProfile &p = profiles[pi];
        int warps = cfg.warps > 0 ? cfg.warps : p.warps;
        for (int c0 = 0; c0 < cfg.kernelsPerProfile; c0 += cfg.chunk) {
            int count =
                std::min(cfg.chunk, cfg.kernelsPerProfile - c0);
            // Generate the chunk locally and serialise one canonical
            // request line per (kernel, cell) pair.
            std::vector<std::string> names(
                static_cast<std::size_t>(count));
            std::vector<std::string> lines(
                static_cast<std::size_t>(count) *
                static_cast<std::size_t>(nCells));
            globalPool().parallelFor(count, [&](int k) {
                Workload w = corpusWorkload(p, cfg.seed, c0 + k);
                names[static_cast<std::size_t>(k)] = w.name;
                std::string text = printKernel(w.kernel);
                for (int ci = 0; ci < nCells; ci++) {
                    ServiceRequest req;
                    req.idJson = std::to_string(k * nCells + ci);
                    req.kernelText = text;
                    req.scheme = cells[ci].scheme;
                    req.entries = cells[ci].entries;
                    req.warps = warps;
                    req.perf = cfg.perf;
                    lines[static_cast<std::size_t>(k * nCells + ci)] =
                        serviceRequestToJson(req);
                }
            });
            std::vector<SlotResult> slots(lines.size());
            int conns = std::min(
                opts.connections, static_cast<int>(lines.size()));
            {
                std::vector<std::thread> threads;
                threads.reserve(static_cast<std::size_t>(conns));
                for (int c = 0; c < conns; c++)
                    threads.emplace_back([&, c] {
                        clientLoop(opts, lines, c, conns, slots);
                    });
                for (std::thread &t : threads)
                    t.join();
            }
            for (const SlotResult &slot : slots)
                if (slot.transportFailed)
                    return fail("corpus: transport failure (is the "
                                "server running on " +
                                opts.socketPath + "?)");
            // Fold in the same canonical (kernel, cell) order as the
            // local runner.
            for (int k = 0; k < count; k++) {
                const SlotResult &first =
                    slots[static_cast<std::size_t>(k * nCells)];
                acc.foldKernel(static_cast<int>(pi),
                               first.ok ? first.sample.instructions
                                        : 0.0);
                for (int ci = 0; ci < nCells; ci++) {
                    const SlotResult &slot = slots[
                        static_cast<std::size_t>(k * nCells + ci)];
                    if (slot.ok)
                        acc.fold(static_cast<int>(pi), ci, slot.sample);
                    else
                        acc.foldError(
                            static_cast<int>(pi), ci,
                            names[static_cast<std::size_t>(k)] + ": " +
                                slot.error);
                }
            }
        }
    }
    out = acc.take();
    out.wallSec = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    return true;
}

} // namespace rfh
