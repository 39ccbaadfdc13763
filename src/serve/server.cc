/**
 * @file
 * rsep_serve daemon implementation. See server.hh for the architecture
 * and protocol.hh for the wire format.
 */

#include "serve/server.hh"

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <sstream>

#include "common/fault.hh"
#include "common/logging.hh"
#include "serve/protocol.hh"
#include "sim/result_cache.hh"
#include "sim/runner.hh"
#include "sim/sample_io.hh"
#include "sim/scenario.hh"
#include "sim/stat_export.hh"
#include "sim/thread_pool.hh"
#include "wl/trace_io.hh"
#include "wl/workload_spec.hh"

namespace rsep::serve
{

namespace
{

u64
microsSince(std::chrono::steady_clock::time_point t0)
{
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
}

/** Suite benchmark names (the bare keys a [workload] block may not
 *  shadow over the wire; see the header's determinism contract). */
bool
isSuiteName(const std::string &name)
{
    static const std::set<std::string> names = [] {
        std::set<std::string> s;
        for (const wl::WorkloadSpec &w : wl::suiteSpecs())
            s.insert(w.name);
        return s;
    }();
    return names.count(name) > 0;
}

/** Probe a Unix socket path: true when a live server answers. */
bool
socketAlive(const std::string &path)
{
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return false;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    bool alive = ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                           sizeof(addr)) == 0;
    ::close(fd);
    return alive;
}

/** Ceiling on one request's cell count — a submit asking for more is
 *  malformed or hostile, not a workload this daemon should absorb. */
constexpr size_t maxRequestCells = 1u << 20;

} // namespace

/** One in-flight Submit: the request's matrix plus the bookkeeping its
 *  pool tasks share. Lives on the handler thread's stack; runCells
 *  returns only after every cell task has finished with it. */
struct Server::PendingRequest
{
    std::vector<sim::SimConfig> configs;
    std::vector<std::string> benchmarks;
    sim::MatrixPlan plan;
    sim::TraceIoOptions traceIo;
    u64 sampleEvery = 0;
    bool useCache = false;

    int fd = -1;
    std::mutex *writeMtx = nullptr;
    std::atomic<bool> writeFailed{false};

    std::chrono::steady_clock::time_point t0;
    std::atomic<bool> sawFirstCell{false};
    std::atomic<u64> queueWaitMicros{0};
    std::atomic<u64> batchedCells{0};

    /** First cell failure (empty = none): a contained rsep_fatal from
     *  a worker — the request answers Error instead of Done, the
     *  daemon keeps serving. */
    std::mutex failMtx;
    std::string failMsg;
};

Server::Server(ServeOptions o) : opts(std::move(o)) {}

Server::~Server() { stop(); }

bool
Server::start(std::string *err)
{
    auto fail = [&](const std::string &msg) {
        if (err)
            *err = msg;
        if (listenFd >= 0) {
            ::close(listenFd);
            listenFd = -1;
        }
        for (int i = 0; i < 2; ++i)
            if (wakePipe[i] >= 0) {
                ::close(wakePipe[i]);
                wakePipe[i] = -1;
            }
        return false;
    };

    if (running)
        return fail("server already started");

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (opts.socketPath.empty() ||
        opts.socketPath.size() >= sizeof(addr.sun_path))
        return fail("socket path '" + opts.socketPath +
                    "' is empty or exceeds the " +
                    std::to_string(sizeof(addr.sun_path) - 1) +
                    "-byte AF_UNIX limit");
    std::strncpy(addr.sun_path, opts.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);

    if (::pipe(wakePipe) != 0)
        return fail(std::string("pipe: ") + std::strerror(errno));

    listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd < 0)
        return fail(std::string("socket: ") + std::strerror(errno));

    if (::bind(listenFd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        if (errno != EADDRINUSE)
            return fail(opts.socketPath + ": bind: " +
                        std::strerror(errno));
        // A socket file already exists. A live server owning it is an
        // error; a stale file left by a dead one is replaced.
        if (socketAlive(opts.socketPath))
            return fail(opts.socketPath +
                        ": a server is already listening here");
        ::unlink(opts.socketPath.c_str());
        if (::bind(listenFd, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0)
            return fail(opts.socketPath + ": bind: " +
                        std::strerror(errno));
    }
    if (::listen(listenFd, 64) != 0)
        return fail(opts.socketPath + ": listen: " +
                    std::strerror(errno));

    nJobs = sim::resolveJobs(opts.jobs);
    pool = std::make_unique<sim::ThreadPool>(nJobs);
    cache = std::make_unique<sim::ResultCache>(opts.cacheDir);
    stopping = false;
    running = true;
    acceptThread = std::thread(&Server::acceptLoop, this);

    if (opts.progress)
        std::fprintf(stderr,
                     "[serve] listening on %s (%u worker%s%s%s)\n",
                     opts.socketPath.c_str(), nJobs,
                     nJobs == 1 ? "" : "s",
                     cache->enabled() ? ", cache " : "",
                     cache->enabled() ? cache->dir().c_str() : "");
    return true;
}

void
Server::stop()
{
    if (!running)
        return;
    stopping = true;
    char wake = 1;
    (void)!::write(wakePipe[1], &wake, 1);
    if (acceptThread.joinable())
        acceptThread.join();

    // Kick every connection off its blocking read/write; their handler
    // threads then drain naturally (in-flight cells finish on the pool,
    // the final writes fail fast).
    {
        std::lock_guard<std::mutex> lk(connMtx);
        for (int fd : activeConnFds)
            ::shutdown(fd, SHUT_RDWR);
    }
    std::vector<std::thread> threads;
    {
        std::lock_guard<std::mutex> lk(connMtx);
        threads.swap(connThreads);
    }
    for (std::thread &t : threads)
        if (t.joinable())
            t.join();

    ::close(listenFd);
    listenFd = -1;
    ::unlink(opts.socketPath.c_str());
    for (int i = 0; i < 2; ++i) {
        ::close(wakePipe[i]);
        wakePipe[i] = -1;
    }
    pool.reset();
    cache.reset();
    running = false;
}

Server::Counters
Server::counters() const
{
    std::lock_guard<std::mutex> lk(countersMtx);
    return stats;
}

void
Server::acceptLoop()
{
    while (!stopping.load()) {
        pollfd fds[2] = {{listenFd, POLLIN, 0}, {wakePipe[0], POLLIN, 0}};
        int r = ::poll(fds, 2, -1);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (fds[1].revents != 0)
            break; // stop() woke us.
        if ((fds[0].revents & POLLIN) == 0)
            continue;
        int cfd = ::accept(listenFd, nullptr, nullptr);
        if (cfd < 0)
            continue;
        std::lock_guard<std::mutex> lk(connMtx);
        if (stopping.load()) {
            ::close(cfd);
            break;
        }
        activeConnFds.insert(cfd);
        connThreads.emplace_back([this, cfd] { handleConnection(cfd); });
    }
}

void
Server::sendError(int fd, std::mutex &write_mtx, const std::string &msg)
{
    {
        std::lock_guard<std::mutex> lk(countersMtx);
        ++stats.errors;
    }
    if (opts.progress)
        std::fprintf(stderr, "[serve] error: %s\n", msg.c_str());
    std::string err;
    std::lock_guard<std::mutex> lk(write_mtx);
    // Best effort, and deliberately not routed through "serve.send":
    // the error answer to an injected send fault must still reach the
    // client instead of re-triggering the same injection.
    writeFrame(fd, FrameType::Error, msg, &err);
}

void
Server::sendBusy(int fd, std::mutex &write_mtx, const std::string &why)
{
    // Retry-after hint scales with load; the exact value is advisory
    // (the client treats it as a backoff floor, not a promise).
    u64 hint_ms = 100 + 50ull * activeRequests.load();
    hint_ms = std::min<u64>(hint_ms, 2000);
    {
        std::lock_guard<std::mutex> lk(countersMtx);
        ++stats.busyRejections;
    }
    if (opts.progress)
        std::fprintf(stderr, "[serve] busy: %s (hint: retry in %llu ms)\n",
                     why.c_str(),
                     static_cast<unsigned long long>(hint_ms));
    std::string err;
    std::lock_guard<std::mutex> lk(write_mtx);
    writeFrame(fd, FrameType::Error, serializeBusy(hint_ms, why), &err);
}

void
Server::handleConnection(int fd)
{
    std::mutex write_mtx;
    std::string err;
    Frame f;
    bool clean = false;
    bool timed_out = false;
    bool io_failed = false;

    // Idle-connection reaping: a receive timeout on the socket bounds
    // how long a silent peer can pin a handler thread (and its fd)
    // between requests. In-flight requests are unaffected — the server
    // is writing, not reading, while a Submit runs.
    if (opts.idleTimeoutSec > 0) {
        timeval tv{};
        tv.tv_sec = static_cast<time_t>(opts.idleTimeoutSec);
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    }

    // A connection opens with a Hello exchange; anything else is a
    // protocol error and closes just this connection.
    if (!readFrame(fd, f, &err, &clean, "serve.recv", &timed_out,
                   &io_failed)) {
        if (timed_out) {
            if (opts.progress)
                std::fprintf(stderr, "[serve] reaping idle connection "
                                     "(no hello)\n");
        } else if (!clean && !io_failed) {
            // Protocol garbage over a healthy connection is answered;
            // a transport-level read failure is not — the peer is gone
            // (or the stream tore), and an Error frame down the same
            // broken transport would race the client into treating a
            // retryable drop as a server-side rejection.
            sendError(fd, write_mtx, "hello: " + err);
        }
    } else if (f.type != FrameType::Hello) {
        sendError(fd, write_mtx, "expected a hello frame first");
    } else if (!parseHello(f.payload, &err)) {
        sendError(fd, write_mtx, err);
    } else if (!writeFrame(fd, FrameType::Hello, helloPayload(), &err,
                           "serve.send")) {
        // Client vanished mid-handshake; nothing to answer.
    } else {
        for (;;) {
            clean = false;
            timed_out = false;
            io_failed = false;
            if (!readFrame(fd, f, &err, &clean, "serve.recv",
                           &timed_out, &io_failed)) {
                if (timed_out) {
                    if (opts.progress)
                        std::fprintf(stderr, "[serve] reaping idle "
                                             "connection\n");
                } else if (!clean && !io_failed) {
                    sendError(fd, write_mtx, err);
                }
                break;
            }
            if (f.type != FrameType::Submit) {
                sendError(fd, write_mtx,
                          "expected a submit frame (type " +
                              std::to_string(unsigned(FrameType::Submit)) +
                              "), got type " +
                              std::to_string(unsigned(f.type)));
                break;
            }
            if (!handleSubmit(fd, write_mtx, f.payload))
                break;
        }
    }

    ::close(fd);
    std::lock_guard<std::mutex> lk(connMtx);
    activeConnFds.erase(fd);
}

std::string
Server::preflight(const PendingRequest &req)
{
    // Everything runPhase would fatal on must be caught here: a daemon
    // dying on one client's typo is a denial of service to the rest.
    size_t total_cells = 0;
    u32 max_ckpts = 0;
    for (const sim::SimConfig &cfg : req.configs) {
        total_cells += size_t(cfg.checkpoints) * req.benchmarks.size();
        max_ckpts = std::max(max_ckpts, cfg.checkpoints);
    }
    if (total_cells > maxRequestCells)
        return "request spans " + std::to_string(total_cells) +
               " cells (limit " + std::to_string(maxRequestCells) + ")";

    for (const std::string &b : req.benchmarks) {
        std::optional<wl::WorkloadSpec> spec = wl::findWorkloadSpec(b);
        if (!spec)
            return "unknown benchmark '" + b +
                   "' (a qualified name@hash key needs its [workload] "
                   "block in the submitted scenario text)";
        if (req.traceIo.replayDir.empty())
            continue;
        // Replay cells: the trace must exist, checksum clean (header-
        // only read: checksummed, not decoded, so the preflight does
        // not warm the decode cache and skew serve.trace_decode_hits)
        // and match the cell identity.
        std::string whash = wl::workloadHash(*spec);
        for (u32 p = 0; p < max_ckpts; ++p) {
            std::string path =
                wl::tracePath(req.traceIo.replayDir, b, p);
            wl::TraceParse tp = wl::readTraceFile(path);
            if (!tp.ok())
                return "replay preflight: " + tp.error;
            std::string mismatch =
                wl::traceIdentityMismatch(tp.header, b, p, whash);
            if (!mismatch.empty())
                return "replay preflight: " + path + ": " + mismatch;
        }
    }
    return "";
}

bool
Server::handleSubmit(int fd, std::mutex &write_mtx,
                     const std::string &payload)
{
    // Semantic rejections answer with an Error frame but keep the
    // connection: the frame itself was well-formed.
    SubmitRequest sub;
    std::string err;
    if (!parseSubmit(payload, sub, &err)) {
        sendError(fd, write_mtx, err);
        return true;
    }
    if (sub.retry > 0) {
        std::lock_guard<std::mutex> lk(countersMtx);
        ++stats.retriesServed;
    }

    // Admission control, cheapest gate first: a saturated queue answers
    // Busy (with a retry-after hint) before any parsing or registry
    // work is spent on the request.
    if (opts.maxQueueDepth > 0 &&
        activeRequests.load() >= opts.maxQueueDepth) {
        sendBusy(fd, write_mtx,
                 std::to_string(activeRequests.load()) +
                     " requests already in flight (--max-queue-depth " +
                     std::to_string(opts.maxQueueDepth) + ")");
        return true;
    }

    PendingRequest req;
    req.fd = fd;
    req.writeMtx = &write_mtx;
    req.benchmarks = sub.benchmarks;
    req.sampleEvery = sub.sampleEvery;
    req.traceIo.replayDir = sub.replayDir;

    sim::ScenarioParse parsed =
        sim::parseScenarioText(sub.scnText, "<submit>");
    if (!parsed.ok()) {
        sendError(fd, write_mtx, "scenario parse: " + parsed.error);
        return true;
    }
    for (const wl::WorkloadSpec &w : parsed.workloads) {
        if (wl::workloadKey(w) != w.name && isSuiteName(w.name)) {
            sendError(fd, write_mtx,
                      "workload '" + w.name +
                          "' overrides a suite benchmark name; "
                          "rsep_serve rejects suite-name overrides "
                          "(another client's bare-name request would "
                          "silently resolve through it) — rename the "
                          "workload instead");
            return true;
        }
        wl::registerWorkload(w);
    }
    if (parsed.scenarios.empty()) {
        sendError(fd, write_mtx, "submit carries no [scenario] blocks");
        return true;
    }
    if (req.benchmarks.empty()) {
        sendError(fd, write_mtx, "submit names no benchmarks");
        return true;
    }
    for (const sim::Scenario &s : parsed.scenarios)
        req.configs.push_back(s.config);

    std::string pre = preflight(req);
    if (!pre.empty()) {
        sendError(fd, write_mtx, pre);
        return true;
    }

    req.useCache = sim::matrixUsesCache(cache->enabled(), req.sampleEvery);
    req.plan = sim::planMatrix(req.configs, req.benchmarks);
    size_t total_cells = req.plan.cells;

    // Cell-count admission: taking this request must not push the
    // server-wide in-flight cell gauge past the ceiling. A request
    // larger than the ceiling on its own is still admitted when the
    // server is otherwise empty — rejecting it forever would just loop
    // the client.
    if (opts.maxInflightCells > 0) {
        u64 cur = inflightCells.load();
        for (;;) {
            if (cur != 0 && cur + total_cells > opts.maxInflightCells) {
                sendBusy(fd, write_mtx,
                         std::to_string(cur) +
                             " cells in flight; admitting " +
                             std::to_string(total_cells) +
                             " more would exceed --max-inflight-cells " +
                             std::to_string(opts.maxInflightCells));
                return true;
            }
            if (inflightCells.compare_exchange_weak(cur,
                                                    cur + total_cells))
                break;
        }
    } else {
        inflightCells.fetch_add(total_cells);
    }

    req.t0 = std::chrono::steady_clock::now();
    activeRequests.fetch_add(1);
    sim::runCells(*pool, req.plan,
                  [&](size_t b, size_t c, u32 p,
                      const sim::InitialStateSource &initial) {
        runRequestCell(req, b, c, p, initial);
        inflightCells.fetch_sub(1);
    });
    activeRequests.fetch_sub(1);
    u64 wall = microsSince(req.t0);

    // A contained cell failure (rsep_fatal caught on a worker) fails
    // this request with the first diagnostic; the daemon, the shared
    // caches and every other connection are untouched.
    {
        std::lock_guard<std::mutex> flk(req.failMtx);
        if (!req.failMsg.empty()) {
            sendError(fd, write_mtx, req.failMsg);
            return !req.writeFailed.load();
        }
    }

    // Request accounting from the same RunTiming fold a direct run
    // does. Sampling is off here: the daemon streams series and never
    // writes them.
    sim::finishMatrix(req.plan, req.configs, req.useCache, {}, false);
    DoneSummary done;
    for (const sim::MatrixRow &row : req.plan.rows) {
        for (const sim::RunResult &rr : row.byConfig) {
            done.cellsRun += rr.timing.cellsRun.value();
            done.cacheHits += rr.timing.cacheHits.value();
            done.traceDecodeHits += rr.timing.traceDecodeHits.value();
            done.traceDecodeMisses += rr.timing.traceDecodeMisses.value();
        }
    }
    done.batchedCells = req.batchedCells.load();
    done.queueWaitMicros = req.queueWaitMicros.load();
    done.wallMicros = wall;
    done.cacheEnabled = req.useCache;
    {
        std::lock_guard<std::mutex> lk(countersMtx);
        done.requests = ++stats.requests;
        stats.cellsRun += done.cellsRun;
        stats.cacheHits += done.cacheHits;
        stats.batchedCells += done.batchedCells;
        stats.traceDecodeHits += done.traceDecodeHits;
        stats.traceDecodeMisses += done.traceDecodeMisses;
        stats.queueWaitMicros += done.queueWaitMicros;
    }

    // The canonical reference dump the client checks its reconstruction
    // against: same collector, same sink, no timings — byte-identical
    // to what a direct run of this request would export.
    std::vector<sim::StatRow> stat_rows =
        sim::collectStatRows(req.configs, req.plan.rows, false);
    std::ostringstream os;
    sim::CsvStatSink{}.write(os, stat_rows);
    done.dump = os.str();

    if (opts.progress)
        std::fprintf(stderr,
                     "[serve] request %llu: %zu cells (%llu run, %llu "
                     "cached, %llu batched) in %.1f ms\n",
                     static_cast<unsigned long long>(done.requests),
                     total_cells,
                     static_cast<unsigned long long>(done.cellsRun),
                     static_cast<unsigned long long>(done.cacheHits),
                     static_cast<unsigned long long>(done.batchedCells),
                     double(wall) / 1000.0);

    if (req.writeFailed.load())
        return false;
    std::lock_guard<std::mutex> lk(write_mtx);
    return writeFrame(fd, FrameType::Done, serializeDone(done), &err,
                      "serve.send");
}

void
Server::runRequestCell(PendingRequest &req, size_t b, size_t c, u32 p,
                       const sim::InitialStateSource &initial)
{
    if (!req.sawFirstCell.exchange(true))
        req.queueWaitMicros.store(microsSince(req.t0));
    if (activeRequests.load() > 1)
        ++req.batchedCells;

    auto failCell = [&](const std::string &why) {
        std::lock_guard<std::mutex> lk(req.failMtx);
        if (req.failMsg.empty())
            req.failMsg = "cell (" + req.benchmarks[b] + ", config " +
                          std::to_string(c) + ", phase " +
                          std::to_string(p) + "): " + why;
    };

    // "serve.cell": delay stalls this one cell (straggler simulation);
    // an errno mode fails it outright, exercising the containment path
    // without needing a real on-disk corruption.
    if (fault::Injected inj = fault::point("serve.cell")) {
        if (inj.kind == fault::Kind::Delay) {
            fault::sleepMicros(inj.amount);
        } else {
            failCell(std::string("injected ") + std::strerror(inj.err));
            return;
        }
    }

    sim::PhaseResult pr;
    try {
        // Anything runPhase fatals on past preflight (a trace torn on
        // disk after validation, an injected decode fault) must fail
        // this request, not the daemon.
        ScopedFatalCapture capture;
        pr = sim::runCachedCell(req.useCache ? cache.get() : nullptr,
                                req.configs[c], req.benchmarks[b],
                                req.plan.configHashes[c], p,
                                req.traceIo, req.sampleEvery, initial);
    } catch (const FatalError &e) {
        failCell(e.what());
        return;
    }

    if (!req.writeFailed.load()) {
        CellResult cell;
        cell.benchmark = req.benchmarks[b];
        cell.config = static_cast<u32>(c);
        cell.phase = p;
        cell.fromCache = pr.fromCache;
        cell.replayed = pr.replayed;
        cell.decodeHit = pr.traceDecodeHit;
        cell.traceLoadMicros = pr.traceLoadMicros;
        sim::CacheKey key{req.benchmarks[b], req.plan.configHashes[c],
                          p, req.configs[c].seed};
        cell.record = sim::ResultCache::serializeRecord(key, pr);

        std::string sframe;
        if (req.sampleEvery > 0 && !pr.samples.empty()) {
            SamplesFrame sf;
            sf.benchmark = req.benchmarks[b];
            sf.config = static_cast<u32>(c);
            sf.phase = p;
            sf.rts = sim::serializeSamples(
                sim::seriesHeader(req.plan, req.configs, b, c, p,
                                  req.sampleEvery),
                pr.samples);
            sframe = serializeSamplesFrame(sf);
        }

        // Cell then its Samples under one lock hold, so the pair stays
        // adjacent in the stream even while other cells interleave.
        std::string werr;
        std::lock_guard<std::mutex> lk(*req.writeMtx);
        if (!writeFrame(req.fd, FrameType::Cell, serializeCell(cell),
                        &werr, "serve.send") ||
            (!sframe.empty() && !writeFrame(req.fd, FrameType::Samples,
                                            sframe, &werr,
                                            "serve.send")))
            req.writeFailed.store(true);
    }

    req.plan.rows[b].byConfig[c].phases[p] = std::move(pr);
}

} // namespace rsep::serve
