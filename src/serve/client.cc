/**
 * @file
 * rsep_serve client implementation. See client.hh.
 */

#include "serve/client.hh"

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <tuple>

#include "common/logging.hh"
#include "serve/protocol.hh"
#include "sim/result_cache.hh"
#include "sim/sample_io.hh"
#include "sim/stat_export.hh"
#include "wl/workload_spec.hh"

namespace rsep::serve
{

namespace
{

/** Distinct-exit-code sibling of rsep_fatal for the failure classes
 *  fleet scripts dispatch on (client.hh exit* constants). */
[[noreturn]] void
clientExit(int code, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    std::exit(code);
}

/** Wall-clock budget of one runMatrixRemote call (`--deadline`). */
struct Deadline
{
    std::chrono::steady_clock::time_point t0 =
        std::chrono::steady_clock::now();
    u64 limitMs = 0;

    bool armed() const { return limitMs > 0; }

    u64
    elapsedMs() const
    {
        return static_cast<u64>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
    }

    bool expired() const { return armed() && elapsedMs() >= limitMs; }

    u64
    remainingMs() const
    {
        u64 e = elapsedMs();
        return e >= limitMs ? 0 : limitMs - e;
    }
};

/** Bound the next blocking read by the request deadline (SO_RCVTIMEO);
 *  exits exitDeadline when the budget is already gone. */
void
applyReadBudget(int fd, const Deadline &dl, const char *while_doing)
{
    if (!dl.armed())
        return;
    u64 rem = dl.remainingMs();
    if (rem == 0)
        clientExit(exitDeadline,
                   std::string("--connect: --deadline of ") +
                       std::to_string(dl.limitMs) + " ms exceeded " +
                       while_doing);
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(rem / 1000);
    tv.tv_usec = static_cast<suseconds_t>((rem % 1000) * 1000);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

/** One connect attempt: fd, or -1 with errno text in @p err. Only a
 *  misconfigured path is immediately fatal. */
int
connectOnce(const std::string &path, std::string *err)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.empty() || path.size() >= sizeof(addr.sun_path))
        rsep_fatal("--connect: socket path '%s' is empty or exceeds "
                   "the %zu-byte AF_UNIX limit",
                   path.c_str(), sizeof(addr.sun_path) - 1);
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        rsep_fatal("--connect: socket: %s", std::strerror(errno));
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        if (err)
            *err = std::strerror(errno);
        ::close(fd);
        return -1;
    }
    return fd;
}

/** The request's `.scn` text: [workload] blocks for every qualified
 *  benchmark key, then the scenario arms — exactly what the server's
 *  parseScenarioText expects. */
std::string
buildScnText(const std::vector<sim::Scenario> &scenarios,
             const std::vector<std::string> &benchmarks)
{
    std::string text;
    for (const std::string &b : benchmarks) {
        if (b.find('@') == std::string::npos)
            continue; // pristine suite benchmark, known to the server.
        std::optional<wl::WorkloadSpec> spec = wl::findWorkloadSpec(b);
        if (!spec)
            rsep_fatal("--connect: benchmark '%s' is not in the local "
                       "workload registry; load its definition "
                       "(--workload-file) before connecting",
                       b.c_str());
        text += wl::serializeWorkload(*spec);
    }
    text += sim::serializeScenarios(scenarios);
    return text;
}

/** Why one conversation attempt ended without a verified Done. */
struct Transient
{
    int code = exitTruncated;
    std::string what;  ///< names the failed operation.
    u64 waitHintMs = 0; ///< server Busy retry-after hint.
};

} // namespace

std::vector<sim::MatrixRow>
runMatrixRemote(const std::vector<sim::Scenario> &scenarios,
                const std::vector<std::string> &benchmarks,
                const ClientOptions &opts)
{
    if (scenarios.empty() || benchmarks.empty())
        rsep_fatal("--connect: nothing to run (%zu scenarios, %zu "
                   "benchmarks)",
                   scenarios.size(), benchmarks.size());

    std::vector<sim::SimConfig> configs;
    for (const sim::Scenario &s : scenarios)
        configs.push_back(s.config);
    std::map<std::string, size_t> bench_index;
    for (size_t b = 0; b < benchmarks.size(); ++b)
        bench_index[benchmarks[b]] = b;

    const std::string scn_text = buildScnText(scenarios, benchmarks);
    Deadline dl;
    dl.limitMs = opts.deadlineMs;

    // One full conversation: connect, hello, submit, drain, verify.
    // Retried from scratch on a transient failure — Submit is
    // idempotent (the result cache answers bit-exactly and the dump is
    // hard-verified below), so every attempt that completes returns
    // byte-identical rows.
    auto attemptRequest = [&](unsigned attempt, sim::MatrixPlan &plan,
                              DoneSummary &done, Transient &t) -> bool {
        // The same layout a direct run fills; Cell frames fill its
        // slots and Samples frames their series.
        plan = sim::planMatrix(configs, benchmarks);
        const size_t total_cells = plan.cells;
        std::set<std::tuple<size_t, size_t, u32>> cells_in, series_in;

        // Connect, re-trying refused connects while --connect-timeout
        // budget remains (a daemon may still be warming up).
        std::string cerr_msg;
        int fd = connectOnce(opts.socketPath, &cerr_msg);
        if (fd < 0 && opts.connectTimeoutMs > 0) {
            auto c0 = std::chrono::steady_clock::now();
            while (fd < 0) {
                u64 waited = static_cast<u64>(
                    std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - c0)
                        .count());
                if (waited >= opts.connectTimeoutMs || dl.expired())
                    break;
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(50));
                fd = connectOnce(opts.socketPath, &cerr_msg);
            }
        }
        if (fd < 0) {
            t = {exitDaemonGone,
                 "--connect " + opts.socketPath + ": " + cerr_msg +
                     " (is rsep_serve running there?)",
                 0};
            return false;
        }
        struct FdCloser
        {
            int fd;
            ~FdCloser() { ::close(fd); }
        } closer{fd};

        std::string err;
        Frame f;
        bool clean = false, timed_out = false;

        if (!writeFrame(fd, FrameType::Hello, helloPayload(), &err,
                        "client.send")) {
            t = {exitTruncated, "--connect: hello: " + err, 0};
            return false;
        }
        applyReadBudget(fd, dl, "waiting for the hello reply");
        if (!readFrame(fd, f, &err, &clean, "client.recv", &timed_out)) {
            if (timed_out)
                clientExit(exitDeadline,
                           "--connect: --deadline exceeded waiting for "
                           "the hello reply");
            t = {clean ? exitDaemonGone : exitTruncated,
                 clean ? "--connect: daemon closed the connection "
                         "before answering hello"
                       : "--connect: hello reply: " + err,
                 0};
            return false;
        }
        if (f.type == FrameType::Error) {
            u64 hint = 0;
            std::string why;
            if (parseBusy(f.payload, hint, &why)) {
                t = {exitBusy, "rsep_serve busy: " + why, hint};
                return false;
            }
            rsep_fatal("rsep_serve: %s", f.payload.c_str());
        }
        if (f.type != FrameType::Hello || !parseHello(f.payload, &err))
            rsep_fatal("--connect: bad hello reply: %s", err.c_str());

        SubmitRequest sub;
        sub.benchmarks = benchmarks;
        sub.sampleEvery = opts.sampleEvery;
        sub.replayDir = opts.replayDir;
        sub.scnText = scn_text;
        sub.retry = attempt;
        if (!writeFrame(fd, FrameType::Submit, serializeSubmit(sub),
                        &err, "client.send")) {
            t = {exitTruncated, "--connect: submit: " + err, 0};
            return false;
        }

        if (opts.progress)
            std::fprintf(stderr,
                         "[connect] %zu benchmarks x %zu configs = %zu "
                         "cells on %s%s\n",
                         benchmarks.size(), configs.size(), total_cells,
                         opts.socketPath.c_str(),
                         attempt > 0 ? " (resubmit)" : "");

        auto cells_in_text = [&] {
            return std::to_string(cells_in.size()) + " of " +
                   std::to_string(total_cells) + " cells in";
        };
        for (;;) {
            clean = false;
            timed_out = false;
            applyReadBudget(fd, dl, "draining the result stream");
            if (!readFrame(fd, f, &err, &clean, "client.recv",
                           &timed_out)) {
                if (timed_out)
                    clientExit(exitDeadline,
                               "--connect: --deadline of " +
                                   std::to_string(dl.limitMs) +
                                   " ms exceeded draining the result "
                                   "stream (" +
                                   cells_in_text() + ")");
                if (clean)
                    t = {exitDaemonGone,
                         "--connect: daemon shut down cleanly "
                         "mid-drain (connection closed at a frame "
                         "boundary, " +
                             cells_in_text() + ")",
                         0};
                else
                    t = {exitTruncated,
                         "--connect: result stream: " + err + " (" +
                             cells_in_text() + ")",
                         0};
                return false;
            }
            if (f.type == FrameType::Error) {
                u64 hint = 0;
                std::string why;
                if (parseBusy(f.payload, hint, &why)) {
                    t = {exitBusy, "rsep_serve busy: " + why, hint};
                    return false;
                }
                rsep_fatal("rsep_serve: %s", f.payload.c_str());
            }
            if (f.type == FrameType::Done) {
                if (!parseDone(f.payload, done, &err))
                    rsep_fatal("--connect: done frame: %s", err.c_str());
                break;
            }
            if (f.type == FrameType::Cell) {
                CellResult cell;
                if (!parseCell(f.payload, cell, &err))
                    rsep_fatal("--connect: cell frame: %s", err.c_str());
                auto it = bench_index.find(cell.benchmark);
                if (it == bench_index.end() ||
                    cell.config >= configs.size() ||
                    cell.phase >= configs[cell.config].checkpoints)
                    rsep_fatal("--connect: cell frame names an unknown "
                               "cell (%s, config %u, phase %u)",
                               cell.benchmark.c_str(), cell.config,
                               cell.phase);
                size_t b = it->second, c = cell.config;
                if (!cells_in.insert({b, c, cell.phase}).second)
                    rsep_fatal("--connect: duplicate cell (%s, config "
                               "%u, phase %u)",
                               cell.benchmark.c_str(), cell.config,
                               cell.phase);
                sim::CacheKey key{cell.benchmark, plan.configHashes[c],
                                  cell.phase, configs[c].seed};
                sim::PhaseResult &pr =
                    plan.rows[b].byConfig[c].phases[cell.phase];
                std::string perr =
                    sim::ResultCache::parseRecord(cell.record, key, pr);
                if (!perr.empty())
                    rsep_fatal("--connect: cell record: %s",
                               perr.c_str());
                // The record round-trips the durable result; the
                // transient provenance flags travel in the frame
                // headers instead (parseRecord marks everything
                // fromCache).
                pr.fromCache = cell.fromCache;
                pr.replayed = cell.replayed;
                pr.traceDecodeHit = cell.decodeHit;
                pr.traceLoadMicros = cell.traceLoadMicros;
                if (opts.progress)
                    sim::printCellProgress(pr, cell.benchmark,
                                           configs[c].label, cell.phase,
                                           cells_in.size(), total_cells);
                continue;
            }
            if (f.type == FrameType::Samples) {
                SamplesFrame sf;
                if (!parseSamplesFrame(f.payload, sf, &err))
                    rsep_fatal("--connect: samples frame: %s",
                               err.c_str());
                // The series goes into its cell's slot and finishMatrix
                // writes it under the header a direct run would, so the
                // frame must name a delivered cell exactly once and
                // carry that very header.
                std::string frame = "samples frame (" + sf.benchmark +
                                    ", config " +
                                    std::to_string(sf.config) +
                                    ", phase " +
                                    std::to_string(sf.phase) + ")";
                auto it = bench_index.find(sf.benchmark);
                if (it == bench_index.end() ||
                    sf.config >= configs.size() ||
                    sf.phase >= configs[sf.config].checkpoints)
                    rsep_fatal("--connect: %s names an unknown cell",
                               frame.c_str());
                size_t b = it->second, c = sf.config;
                if (!cells_in.count({b, c, sf.phase}))
                    rsep_fatal("--connect: %s arrived before its cell",
                               frame.c_str());
                if (!series_in.insert({b, c, sf.phase}).second)
                    rsep_fatal("--connect: duplicate %s", frame.c_str());
                sim::SamplesParse sp =
                    sim::parseSamplesText(sf.rts, "<samples frame>");
                if (!sp.ok())
                    rsep_fatal("--connect: %s", sp.error.c_str());
                sim::SampleSeriesHeader want = sim::seriesHeader(
                    plan, configs, b, c, sf.phase, opts.sampleEvery);
                const sim::SampleSeriesHeader &got = sp.header;
                if (got.workload != want.workload ||
                    got.scenario != want.scenario ||
                    got.configHash != want.configHash ||
                    got.phase != want.phase || got.period != want.period)
                    rsep_fatal("--connect: %s carries the series of (%s, "
                               "%s, %s, phase %u, every %llu)",
                               frame.c_str(), got.workload.c_str(),
                               got.scenario.c_str(),
                               got.configHash.c_str(), got.phase,
                               static_cast<unsigned long long>(
                                   got.period));
                plan.rows[b].byConfig[c].phases[sf.phase].samples =
                    std::move(sp.rows);
                continue;
            }
            rsep_fatal("--connect: unexpected frame type %u mid-stream",
                       unsigned(f.type));
        }

        if (cells_in.size() != total_cells)
            rsep_fatal("--connect: server completed with %s delivered",
                       cells_in_text().c_str());
        return true;
    };

    sim::MatrixPlan plan;
    DoneSummary done;
    for (unsigned attempt = 0;; ++attempt) {
        Transient t;
        if (attemptRequest(attempt, plan, done, t))
            break;
        if (dl.expired())
            clientExit(exitDeadline,
                       t.what + " — and the --deadline of " +
                           std::to_string(dl.limitMs) +
                           " ms is exhausted");
        if (attempt >= opts.maxRetries)
            clientExit(t.code,
                       t.what + " (after " +
                           std::to_string(attempt + 1) + " attempt" +
                           (attempt == 0 ? "" : "s") + ")");
        u64 wait = std::min<u64>(opts.backoffBaseMs << attempt, 2000);
        wait = std::max(wait, t.waitHintMs);
        if (dl.armed() && wait >= dl.remainingMs())
            clientExit(exitDeadline,
                       t.what + " — retry backoff of " +
                           std::to_string(wait) +
                           " ms would exceed the --deadline");
        if (opts.progress)
            std::fprintf(stderr,
                         "[connect] attempt %u/%u failed: %s — "
                         "retrying in %llu ms\n",
                         attempt + 1, opts.maxRetries + 1,
                         t.what.c_str(),
                         static_cast<unsigned long long>(wait));
        std::this_thread::sleep_for(std::chrono::milliseconds(wait));
    }

    // The post-barrier step of a direct run, against the server's cache
    // setting, so --timings dumps and sample files match it too.
    sim::finishMatrix(plan, configs, done.cacheEnabled,
                      {opts.sampleEvery, opts.sampleDir}, opts.progress);

    // Cross-check: our reconstruction must reproduce the server's
    // canonical dump byte for byte — the wire-level guarantee every
    // downstream export inherits.
    std::vector<sim::StatRow> stat_rows =
        sim::collectStatRows(configs, plan.rows, false);
    std::ostringstream os;
    sim::CsvStatSink{}.write(os, stat_rows);
    if (os.str() != done.dump)
        rsep_fatal("--connect: reconstructed dump diverges from the "
                   "server's reference (%zu vs %zu bytes) — "
                   "client/server build mismatch?",
                   os.str().size(), done.dump.size());

    if (opts.progress)
        std::fprintf(stderr,
                     "[connect] done: %llu run, %llu cached, %llu "
                     "batched; queue %.1f ms, wall %.1f ms "
                     "(server request #%llu)\n",
                     static_cast<unsigned long long>(done.cellsRun),
                     static_cast<unsigned long long>(done.cacheHits),
                     static_cast<unsigned long long>(done.batchedCells),
                     double(done.queueWaitMicros) / 1000.0,
                     double(done.wallMicros) / 1000.0,
                     static_cast<unsigned long long>(done.requests));

    return std::move(plan.rows);
}

} // namespace rsep::serve
