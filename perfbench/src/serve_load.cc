#include "serve_load.hh"

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <map>

#include "sim/result_cache.hh"

namespace perfbench
{

namespace serve = rsep::serve;

namespace
{

/** Upper bound on one reply: a stalled daemon turns into a counted
 *  transport failure instead of a hung benchmark. */
constexpr long receiveTimeoutSec = 30;

} // namespace

ServeRequest
makeServeRequest(std::vector<rsep::sim::Scenario> scenarios,
                 std::vector<std::string> benchmarks, std::string replay_dir)
{
    ServeRequest req;
    req.scenarios = std::move(scenarios);
    req.benchmarks = std::move(benchmarks);
    req.replayDir = std::move(replay_dir);
    req.scnText = rsep::sim::serializeScenarios(req.scenarios);
    for (const rsep::sim::Scenario &s : req.scenarios)
        req.reference.configs.push_back(s.config);
    rsep::sim::MatrixOptions mo;
    mo.jobs = 1;
    mo.progress = false;
    mo.traceIo.replayDir = req.replayDir;
    req.reference.rows =
        rsep::sim::runMatrix(req.reference.configs, req.benchmarks, mo);
    req.referenceDump = canonicalCsv(req.reference);
    for (const rsep::sim::MatrixRow &row : req.reference.rows)
        for (const rsep::sim::RunResult &rr : row.byConfig)
            for (const rsep::sim::PhaseResult &ph : rr.phases) {
                req.insts += ph.stats.committedInsts.value();
                ++req.cells;
            }
    return req;
}

ServeClient::ServeClient(std::string socket_path)
    : path(std::move(socket_path))
{
}

ServeClient::~ServeClient() { disconnect(); }

void
ServeClient::disconnect()
{
    if (fd >= 0)
        ::close(fd);
    fd = -1;
}

bool
ServeClient::ensureConnected(std::string &err)
{
    if (fd >= 0)
        return true;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
        err = "socket path '" + path + "' exceeds the AF_UNIX limit";
        return false;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size());
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        err = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    timeval tv{};
    tv.tv_sec = receiveTimeoutSec;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
        0) {
        err = std::string("connect: ") + std::strerror(errno);
        disconnect();
        return false;
    }
    serve::Frame f;
    if (!serve::writeFrame(fd, serve::FrameType::Hello, serve::helloPayload(),
                           &err) ||
        !serve::readFrame(fd, f, &err)) {
        err = "hello: " + err;
        disconnect();
        return false;
    }
    if (f.type != serve::FrameType::Hello ||
        !serve::parseHello(f.payload, &err)) {
        err = "bad hello reply: " + err;
        disconnect();
        return false;
    }
    return true;
}

RequestResult
ServeClient::submit(const ServeRequest &req, u64 request_id, Tracer &tr)
{
    RequestResult r;
    // Any failure drops the connection: the next request starts from a
    // fresh Hello rather than from a stream in an unknown state.
    auto fail = [&](Outcome o, std::string why) {
        r.outcome = o;
        r.error = std::move(why);
        disconnect();
        return r;
    };
    Tracer::Span span = tr.span("serve.request", 1, request_id);
    auto t0 = Clock::now();
    std::string err;
    if (!ensureConnected(err)) {
        r.latencyMs = secondsSince(t0) * 1e3;
        return fail(Outcome::Transport, err);
    }

    serve::SubmitRequest sub;
    sub.benchmarks = req.benchmarks;
    sub.replayDir = req.replayDir;
    sub.scnText = req.scnText;
    if (!serve::writeFrame(fd, serve::FrameType::Submit,
                           serve::serializeSubmit(sub), &err)) {
        r.latencyMs = secondsSince(t0) * 1e3;
        return fail(Outcome::Transport, "submit: " + err);
    }

    std::vector<serve::CellResult> cells;
    serve::Frame f;
    for (;;) {
        bool clean = false;
        if (!serve::readFrame(fd, f, &err, &clean)) {
            r.latencyMs = secondsSince(t0) * 1e3;
            return fail(Outcome::Transport,
                        clean ? "daemon closed the connection" : err);
        }
        if (f.type == serve::FrameType::Cell) {
            serve::CellResult cell;
            if (!serve::parseCell(f.payload, cell, &err)) {
                r.latencyMs = secondsSince(t0) * 1e3;
                return fail(Outcome::BadOutput, "cell frame: " + err);
            }
            cells.push_back(std::move(cell));
            continue;
        }
        if (f.type == serve::FrameType::Samples)
            continue;
        r.latencyMs = secondsSince(t0) * 1e3;
        if (f.type == serve::FrameType::Error) {
            u64 hint = 0;
            std::string why;
            if (serve::parseBusy(f.payload, hint, &why))
                return fail(Outcome::BusyFrame, "busy: " + why);
            return fail(Outcome::ErrorFrame, f.payload);
        }
        if (f.type != serve::FrameType::Done)
            return fail(Outcome::BadOutput, "unexpected frame type " +
                                                std::to_string(unsigned(f.type)));
        if (!serve::parseDone(f.payload, r.done, &err))
            return fail(Outcome::BadOutput, "done frame: " + err);
        break;
    }
    span.close();

    // Verify the way a --connect client does: rebuild the rows from the
    // streamed cell records, re-render the canonical dump, and require
    // it, the daemon's Done dump and the direct reference to agree.
    Tracer::Span vspan = tr.span("serve.verifyDump", 1, request_id);
    auto v0 = Clock::now();
    std::string why;
    SimOutput got;
    got.configs = req.reference.configs;
    std::map<std::string, std::size_t> benchIndex;
    got.rows.resize(req.benchmarks.size());
    for (std::size_t b = 0; b < req.benchmarks.size(); ++b) {
        benchIndex[req.benchmarks[b]] = b;
        got.rows[b].benchmark = req.benchmarks[b];
        got.rows[b].byConfig.resize(got.configs.size());
        for (std::size_t c = 0; c < got.configs.size(); ++c) {
            got.rows[b].byConfig[c].benchmark = req.benchmarks[b];
            got.rows[b].byConfig[c].configLabel = got.configs[c].label;
            got.rows[b].byConfig[c].phases.resize(got.configs[c].checkpoints);
        }
    }
    if (cells.size() != req.cells)
        why = "received " + std::to_string(cells.size()) + " of " +
              std::to_string(req.cells) + " cells";
    for (const serve::CellResult &cell : cells) {
        if (!why.empty())
            break;
        auto it = benchIndex.find(cell.benchmark);
        if (it == benchIndex.end() || cell.config >= got.configs.size() ||
            cell.phase >= got.configs[cell.config].checkpoints) {
            why = "cell frame names an unknown cell";
            break;
        }
        const rsep::sim::SimConfig &cfg = got.configs[cell.config];
        rsep::sim::CacheKey key{cell.benchmark, rsep::sim::configHash(cfg),
                                cell.phase, cfg.seed};
        rsep::sim::PhaseResult pr;
        std::string perr =
            rsep::sim::ResultCache::parseRecord(cell.record, key, pr);
        if (!perr.empty())
            why = "cell record: " + perr;
        got.rows[it->second].byConfig[cell.config].phases[cell.phase] =
            std::move(pr);
    }
    if (why.empty() && r.done.dump != req.referenceDump)
        why = "Done dump differs from the direct reference";
    if (why.empty() && canonicalCsv(got) != r.done.dump)
        why = "dump rebuilt from the cell frames differs from Done";
    r.verifyMs = secondsSince(v0) * 1e3;
    if (!why.empty())
        return fail(Outcome::BadOutput, why);
    return r;
}

void
accountRequest(const ServeRequest &req, const RequestResult &r,
               PassStats &ps, ServeSamples &ss)
{
    ps.tally.add(r.outcome);
    ps.requestMs.push_back(r.latencyMs);
    if (r.outcome != Outcome::Ok)
        return;
    ps.insts += req.insts;
    ps.cells += req.cells;
    double wallMs = static_cast<double>(r.done.wallMicros) / 1e3;
    ss.queueWaitMs.push_back(static_cast<double>(r.done.queueWaitMicros) /
                             1e3);
    ss.serverWallMs.push_back(wallMs);
    ss.transportMs.push_back(r.latencyMs - wallMs);
    ss.verifyMs.push_back(r.verifyMs);
}

} // namespace perfbench
