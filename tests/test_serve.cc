/**
 * @file
 * rsep_serve end-to-end tests: the daemon core and the --connect
 * client, exercised in-process over real Unix-domain sockets.
 *
 * Pinned properties:
 *  - a remote run's MatrixRow reconstruction and canonical CSV dump
 *    are byte-identical to a direct runMatrix of the same request,
 *    sampling mode included (the .rts files match byte for byte);
 *  - malformed traffic — truncated frames, unknown frame types,
 *    oversized length prefixes, out-of-order frames, bad requests —
 *    is answered with an Error frame (or a clean close) and never
 *    takes the daemon down: a well-formed client still gets served;
 *  - concurrent clients batch into the shared pool and each get
 *    exactly their own cells back;
 *  - suite-name workload overrides are rejected over the wire (the
 *    registry-determinism rule of DESIGN.md §13);
 *  - `--timings` counters (runs, hits, misses, decodes) of a remote
 *    run equal a direct run's, cold and warm;
 *  - the client rejects a Samples frame that names no requested cell,
 *    precedes its Cell, repeats, or carries another cell's series;
 *  - each frame payload codec round-trips field for field (empty and
 *    trailer-like blobs included) and rejects flipped bytes, every
 *    truncation, a wrong magic and an out-of-range flag.
 *
 * Socket paths live directly under /tmp: sockaddr_un caps paths at
 * ~107 bytes, so deep build-tree paths are not usable here.
 */

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include "common/logging.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "sim/result_cache.hh"
#include "sim/runner.hh"
#include "sim/sample_io.hh"
#include "sim/scenario.hh"
#include "sim/stat_export.hh"

namespace rsep::serve
{
namespace
{

namespace fs = std::filesystem;

std::string
shortSockPath()
{
    static int counter = 0;
    return "/tmp/rsep_serve_t" + std::to_string(::getpid()) + "_" +
           std::to_string(counter++) + ".sock";
}

sim::SimConfig
shrunk(sim::SimConfig c)
{
    c.warmupInsts = 2'000;
    c.measureInsts = 6'000;
    c.checkpoints = 2;
    c.seed = 0x5eed;
    return c;
}

std::vector<sim::Scenario>
smokeScenarios()
{
    sim::Scenario base{"t-base", shrunk(sim::SimConfig::baseline())};
    base.config.label = "t-base";
    sim::Scenario rsep{"t-rsep", shrunk(sim::SimConfig::rsepRealistic())};
    rsep.config.label = "t-rsep";
    return {base, rsep};
}

std::vector<sim::SimConfig>
configsOf(const std::vector<sim::Scenario> &scenarios)
{
    std::vector<sim::SimConfig> configs;
    for (const sim::Scenario &s : scenarios)
        configs.push_back(s.config);
    return configs;
}

std::string
canonicalDump(const std::vector<sim::SimConfig> &configs,
              const std::vector<sim::MatrixRow> &rows)
{
    std::ostringstream os;
    sim::CsvStatSink{}.write(os, sim::collectStatRows(configs, rows));
    return os.str();
}

/** Raw client socket for protocol-abuse tests. */
int
rawConnect(const std::string &path)
{
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    EXPECT_EQ(0, ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                           sizeof(addr)));
    return fd;
}

/** A well-formed client run against @p sock must succeed — the "daemon
 *  still alive" probe after each abuse case. */
void
expectServable(const std::string &sock)
{
    std::vector<sim::Scenario> scenarios = {
        {"t-base", shrunk(sim::SimConfig::baseline())}};
    scenarios[0].config.label = "t-base";
    scenarios[0].config.checkpoints = 1;
    ClientOptions copts;
    copts.socketPath = sock;
    copts.progress = false;
    std::vector<sim::MatrixRow> rows =
        runMatrixRemote(scenarios, {"mcf"}, copts);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_GT(rows[0].byConfig[0].phases[0].ipc, 0.0);
}

// ------------------------------------------------------ frame codecs

/** Blobs every codec must carry verbatim: empty, and one that ends
 *  like a checksum trailer, so a parser that scans for the trailer
 *  mark instead of measuring from the end would cut it short. */
const std::vector<std::string> trickyBlobs = {
    "", "rows\nchecksum = 0123456789abcdef\n"};

CellResult
sampleCell(const std::string &record)
{
    CellResult c;
    c.benchmark = "pin@0123456789abcdef";
    c.config = 7;
    c.phase = 3;
    c.fromCache = true;
    c.replayed = false;
    c.decodeHit = true;
    c.traceLoadMicros = 987654321;
    c.record = record;
    return c;
}

TEST(ServeProtocol, SubmitRoundTrips)
{
    for (const std::string &blob : trickyBlobs) {
        SubmitRequest in;
        in.benchmarks = {"mcf", "pin@0123456789abcdef"};
        in.sampleEvery = 500;
        in.replayDir = "traces/run one";
        in.scnText = blob;
        in.retry = 4;
        SubmitRequest out;
        std::string err;
        ASSERT_TRUE(parseSubmit(serializeSubmit(in), out, &err)) << err;
        EXPECT_EQ(out.benchmarks, in.benchmarks);
        EXPECT_EQ(out.sampleEvery, in.sampleEvery);
        EXPECT_EQ(out.replayDir, in.replayDir);
        EXPECT_EQ(out.scnText, blob);
        EXPECT_EQ(out.retry, in.retry);
    }
}

TEST(ServeProtocol, CellRoundTrips)
{
    for (const std::string &blob : trickyBlobs) {
        CellResult in = sampleCell(blob);
        CellResult out;
        std::string err;
        ASSERT_TRUE(parseCell(serializeCell(in), out, &err)) << err;
        EXPECT_EQ(out.benchmark, in.benchmark);
        EXPECT_EQ(out.config, in.config);
        EXPECT_EQ(out.phase, in.phase);
        EXPECT_EQ(out.fromCache, in.fromCache);
        EXPECT_EQ(out.replayed, in.replayed);
        EXPECT_EQ(out.decodeHit, in.decodeHit);
        EXPECT_EQ(out.traceLoadMicros, in.traceLoadMicros);
        EXPECT_EQ(out.record, blob);
    }
}

TEST(ServeProtocol, SamplesRoundTrips)
{
    for (const std::string &blob : trickyBlobs) {
        SamplesFrame in{"mcf", 2, 5, blob};
        SamplesFrame out;
        std::string err;
        ASSERT_TRUE(parseSamplesFrame(serializeSamplesFrame(in), out, &err))
            << err;
        EXPECT_EQ(out.benchmark, in.benchmark);
        EXPECT_EQ(out.config, in.config);
        EXPECT_EQ(out.phase, in.phase);
        EXPECT_EQ(out.rts, blob);
    }
}

TEST(ServeProtocol, DoneRoundTrips)
{
    for (const std::string &blob : trickyBlobs) {
        DoneSummary in;
        in.requests = 1;
        in.batchedCells = 2;
        in.queueWaitMicros = 3;
        in.wallMicros = 4;
        in.cellsRun = 5;
        in.cacheHits = 6;
        in.traceDecodeHits = 7;
        in.traceDecodeMisses = ~u64{0};
        in.cacheEnabled = true;
        in.dump = blob;
        DoneSummary out;
        std::string err;
        ASSERT_TRUE(parseDone(serializeDone(in), out, &err)) << err;
        EXPECT_EQ(out.requests, in.requests);
        EXPECT_EQ(out.batchedCells, in.batchedCells);
        EXPECT_EQ(out.queueWaitMicros, in.queueWaitMicros);
        EXPECT_EQ(out.wallMicros, in.wallMicros);
        EXPECT_EQ(out.cellsRun, in.cellsRun);
        EXPECT_EQ(out.cacheHits, in.cacheHits);
        EXPECT_EQ(out.traceDecodeHits, in.traceDecodeHits);
        EXPECT_EQ(out.traceDecodeMisses, in.traceDecodeMisses);
        EXPECT_EQ(out.cacheEnabled, in.cacheEnabled);
        EXPECT_EQ(out.dump, blob);
    }
}

TEST(ServeProtocol, BusyRoundTripsAndPlainErrorIsNotBusy)
{
    for (const std::string &blob : trickyBlobs) {
        u64 hint = 0;
        std::string why = "stale";
        ASSERT_TRUE(parseBusy(serializeBusy(250, blob), hint, &why));
        EXPECT_EQ(hint, 250u);
        EXPECT_EQ(why, blob);
    }
    u64 hint = 0;
    EXPECT_FALSE(parseBusy("simulated failure", hint));
    EXPECT_FALSE(parseBusy("busy\nretry_after_ms = 5\n", hint)); // v2.
}

TEST(ServeProtocol, FlippedBlobByteIsRejected)
{
    std::string payload = serializeCell(sampleCell("record bytes\n"));
    payload[payload.find("record bytes")] ^= 0x20;
    CellResult out;
    std::string err;
    EXPECT_FALSE(parseCell(payload, out, &err));
    EXPECT_NE(err.find("checksum mismatch"), std::string::npos) << err;
}

TEST(ServeProtocol, EveryProperPrefixOfACellIsRejected)
{
    std::string payload = serializeCell(sampleCell("record bytes\n"));
    for (size_t n = 0; n < payload.size(); ++n) {
        CellResult out;
        std::string err;
        EXPECT_FALSE(parseCell(payload.substr(0, n), out, &err)) << n;
        EXPECT_FALSE(err.empty()) << n;
    }
}

TEST(ServeProtocol, WrongMagicAndBadFlagAreRejected)
{
    std::string payload = serializeCell(sampleCell("record bytes\n"));
    DoneSummary done;
    std::string err;
    EXPECT_FALSE(parseDone(payload, done, &err));
    EXPECT_NE(err.find("not a rsep-serve-done"), std::string::npos) << err;

    size_t flag = payload.find("from_cache = 1\n");
    ASSERT_NE(flag, std::string::npos);
    payload[flag + 13] = '2';
    CellResult cell;
    err.clear();
    EXPECT_FALSE(parseCell(payload, cell, &err));
    EXPECT_NE(err.find("bad from_cache '2'"), std::string::npos) << err;
}

class ServeTest : public ::testing::Test
{
  protected:
    void
    startServer(ServeOptions opts = {})
    {
        opts.socketPath = sock = shortSockPath();
        if (opts.jobs == 0)
            opts.jobs = 2;
        opts.progress = false;
        server = std::make_unique<Server>(opts);
        std::string err;
        ASSERT_TRUE(server->start(&err)) << err;
    }

    void
    TearDown() override
    {
        if (server)
            server->stop();
    }

    std::string sock;
    std::unique_ptr<Server> server;
};

TEST_F(ServeTest, ClientDumpMatchesDirectRun)
{
    startServer();
    std::vector<sim::Scenario> scenarios = smokeScenarios();
    std::vector<std::string> benchmarks = {"mcf", "hmmer"};

    sim::MatrixOptions mopts;
    mopts.jobs = 2;
    mopts.progress = false;
    std::vector<sim::MatrixRow> direct =
        sim::runMatrix(configsOf(scenarios), benchmarks, mopts);

    ClientOptions copts;
    copts.socketPath = sock;
    copts.progress = false;
    std::vector<sim::MatrixRow> remote =
        runMatrixRemote(scenarios, benchmarks, copts);

    // The client additionally self-checks against the server's Done
    // reference; this compares against an independent local run.
    EXPECT_EQ(canonicalDump(configsOf(scenarios), direct),
              canonicalDump(configsOf(scenarios), remote));

    Server::Counters c = server->counters();
    EXPECT_EQ(c.requests, 1u);
    EXPECT_EQ(c.errors, 0u);
    EXPECT_EQ(c.cellsRun, 2u * 2u * 2u); // benchs x configs x ckpts.
}

TEST_F(ServeTest, TruncatedFrameDoesNotKillDaemon)
{
    startServer();
    // Half a length prefix, then hangup.
    int fd = rawConnect(sock);
    u8 half[2] = {0x10, 0x00};
    ASSERT_EQ(2, ::send(fd, half, 2, MSG_NOSIGNAL));
    ::close(fd);

    // A full prefix announcing a payload that never arrives.
    fd = rawConnect(sock);
    u8 hdr[5] = {0x40, 0x00, 0x00, 0x00, 0x01};
    ASSERT_EQ(5, ::send(fd, hdr, 5, MSG_NOSIGNAL));
    ::close(fd);

    expectServable(sock);
}

TEST_F(ServeTest, GarbageFrameTypeRejected)
{
    startServer();
    int fd = rawConnect(sock);
    // length = 4, type = 42 (unknown), payload "junk".
    u8 frame[9] = {0x04, 0x00, 0x00, 0x00, 42, 'j', 'u', 'n', 'k'};
    ASSERT_EQ(9, ::send(fd, frame, 9, MSG_NOSIGNAL));
    Frame reply;
    std::string err;
    // The daemon answers Error (best effort) and closes; either way
    // it must not crash.
    if (readFrame(fd, reply, &err)) {
        EXPECT_EQ(reply.type, FrameType::Error);
    }
    ::close(fd);

    expectServable(sock);
    EXPECT_GE(server->counters().errors, 1u);
}

TEST_F(ServeTest, OversizedFrameRejectedBeforeAllocation)
{
    startServer();
    int fd = rawConnect(sock);
    // Length prefix far above maxFramePayload; the daemon must reject
    // on the prefix alone, never try to read (or allocate) the body.
    u8 frame[5] = {0xff, 0xff, 0xff, 0x7f, 0x01};
    ASSERT_EQ(5, ::send(fd, frame, 5, MSG_NOSIGNAL));
    Frame reply;
    std::string err;
    if (readFrame(fd, reply, &err)) {
        EXPECT_EQ(reply.type, FrameType::Error);
    }
    ::close(fd);

    expectServable(sock);
}

TEST_F(ServeTest, SubmitBeforeHelloRejected)
{
    startServer();
    int fd = rawConnect(sock);
    std::string err;
    SubmitRequest sub;
    sub.benchmarks = {"mcf"};
    sub.scnText = "[scenario]\nname = x\n";
    ASSERT_TRUE(
        writeFrame(fd, FrameType::Submit, serializeSubmit(sub), &err));
    Frame reply;
    ASSERT_TRUE(readFrame(fd, reply, &err)) << err;
    EXPECT_EQ(reply.type, FrameType::Error);
    ::close(fd);

    expectServable(sock);
}

TEST_F(ServeTest, BadRequestKeepsConnectionUsable)
{
    startServer();
    int fd = rawConnect(sock);
    std::string err;
    ASSERT_TRUE(writeFrame(fd, FrameType::Hello, helloPayload(), &err));
    Frame reply;
    ASSERT_TRUE(readFrame(fd, reply, &err)) << err;
    ASSERT_EQ(reply.type, FrameType::Hello);

    // An unknown benchmark is a request-level error: Error frame, but
    // the connection survives for the next submit.
    std::vector<sim::Scenario> scenarios = {
        {"t-base", shrunk(sim::SimConfig::baseline())}};
    scenarios[0].config.label = "t-base";
    scenarios[0].config.checkpoints = 1;
    SubmitRequest bad;
    bad.benchmarks = {"no-such-benchmark"};
    bad.scnText = sim::serializeScenarios(scenarios);
    ASSERT_TRUE(
        writeFrame(fd, FrameType::Submit, serializeSubmit(bad), &err));
    ASSERT_TRUE(readFrame(fd, reply, &err)) << err;
    ASSERT_EQ(reply.type, FrameType::Error);
    EXPECT_NE(reply.payload.find("no-such-benchmark"), std::string::npos);

    // Same connection, now a valid request: one cell + Done.
    SubmitRequest good = bad;
    good.benchmarks = {"mcf"};
    ASSERT_TRUE(
        writeFrame(fd, FrameType::Submit, serializeSubmit(good), &err));
    ASSERT_TRUE(readFrame(fd, reply, &err)) << err;
    ASSERT_EQ(reply.type, FrameType::Cell);
    CellResult cell;
    ASSERT_TRUE(parseCell(reply.payload, cell, &err)) << err;
    EXPECT_EQ(cell.benchmark, "mcf");
    ASSERT_TRUE(readFrame(fd, reply, &err)) << err;
    ASSERT_EQ(reply.type, FrameType::Done);
    DoneSummary done;
    ASSERT_TRUE(parseDone(reply.payload, done, &err)) << err;
    EXPECT_EQ(done.cellsRun + done.cacheHits, 1u);
    ::close(fd);
}

TEST_F(ServeTest, SuiteNameOverrideRejected)
{
    startServer();
    int fd = rawConnect(sock);
    std::string err;
    ASSERT_TRUE(writeFrame(fd, FrameType::Hello, helloPayload(), &err));
    Frame reply;
    ASSERT_TRUE(readFrame(fd, reply, &err)) << err;
    ASSERT_EQ(reply.type, FrameType::Hello);

    std::vector<sim::Scenario> scenarios = {
        {"t-base", shrunk(sim::SimConfig::baseline())}};
    scenarios[0].config.label = "t-base";
    SubmitRequest sub;
    sub.benchmarks = {"mcf"};
    // A [workload] block redefining the suite name "mcf": accepted by
    // local drivers, rejected over the wire (another client's bare
    // "mcf" request would silently resolve through the override).
    sub.scnText = "[workload]\n"
                  "name = mcf\n"
                  "archetype = pointer_chase\n"
                  "nodes = 64\n\n" +
                  sim::serializeScenarios(scenarios);
    ASSERT_TRUE(
        writeFrame(fd, FrameType::Submit, serializeSubmit(sub), &err));
    ASSERT_TRUE(readFrame(fd, reply, &err)) << err;
    ASSERT_EQ(reply.type, FrameType::Error);
    EXPECT_NE(reply.payload.find("override"), std::string::npos);
    ::close(fd);
}

TEST_F(ServeTest, ConcurrentClientsEachGetTheirCells)
{
    startServer();
    std::vector<sim::Scenario> scenarios = smokeScenarios();
    std::vector<sim::SimConfig> configs = configsOf(scenarios);

    sim::MatrixOptions mopts;
    mopts.jobs = 2;
    mopts.progress = false;
    std::string direct_mcf =
        canonicalDump(configs, sim::runMatrix(configs, {"mcf"}, mopts));
    std::string direct_hmmer = canonicalDump(
        configs, sim::runMatrix(configs, {"hmmer"}, mopts));

    std::string remote_mcf, remote_hmmer;
    std::thread t1([&] {
        ClientOptions copts;
        copts.socketPath = sock;
        copts.progress = false;
        remote_mcf = canonicalDump(
            configs, runMatrixRemote(scenarios, {"mcf"}, copts));
    });
    std::thread t2([&] {
        ClientOptions copts;
        copts.socketPath = sock;
        copts.progress = false;
        remote_hmmer = canonicalDump(
            configs, runMatrixRemote(scenarios, {"hmmer"}, copts));
    });
    t1.join();
    t2.join();

    EXPECT_EQ(remote_mcf, direct_mcf);
    EXPECT_EQ(remote_hmmer, direct_hmmer);
    EXPECT_EQ(server->counters().requests, 2u);
}

TEST_F(ServeTest, SamplingStreamsByteIdenticalSeries)
{
    startServer();
    std::vector<sim::Scenario> scenarios = smokeScenarios();
    std::vector<std::string> benchmarks = {"mcf"};

    fs::path base = fs::temp_directory_path() /
                    ("rsep_serve_samples_" + std::to_string(::getpid()));
    fs::remove_all(base);
    std::string dir_direct = (base / "direct").string();
    std::string dir_remote = (base / "remote").string();

    sim::MatrixOptions mopts;
    mopts.jobs = 2;
    mopts.progress = false;
    mopts.sampling.every = 1000;
    mopts.sampling.dir = dir_direct;
    std::vector<sim::MatrixRow> direct =
        sim::runMatrix(configsOf(scenarios), benchmarks, mopts);

    ClientOptions copts;
    copts.socketPath = sock;
    copts.progress = false;
    copts.sampleEvery = 1000;
    copts.sampleDir = dir_remote;
    std::vector<sim::MatrixRow> remote =
        runMatrixRemote(scenarios, benchmarks, copts);

    EXPECT_EQ(canonicalDump(configsOf(scenarios), direct),
              canonicalDump(configsOf(scenarios), remote));

    // Every sample file the direct run wrote must exist remotely with
    // identical bytes (and vice versa — same file count).
    auto slurp = [](const fs::path &p) {
        std::ifstream is(p, std::ios::binary);
        std::ostringstream os;
        os << is.rdbuf();
        return os.str();
    };
    std::map<std::string, std::string> d_files, r_files;
    for (const auto &e : fs::directory_iterator(dir_direct))
        d_files[e.path().filename().string()] = slurp(e.path());
    for (const auto &e : fs::directory_iterator(dir_remote))
        r_files[e.path().filename().string()] = slurp(e.path());
    ASSERT_FALSE(d_files.empty());
    ASSERT_EQ(d_files.size(), r_files.size());
    for (const auto &[name, bytes] : d_files) {
        SCOPED_TRACE(name);
        ASSERT_TRUE(r_files.count(name));
        EXPECT_EQ(bytes, r_files[name]);
    }
    fs::remove_all(base);
}

/** The non-wall-clock timing.* counters of each stat row, keyed
 *  "benchmark/scenario/counter". */
std::map<std::string, u64>
timingCounters(const std::vector<sim::SimConfig> &configs,
               const std::vector<sim::MatrixRow> &rows)
{
    static const std::set<std::string> kept = {
        "timing.cells_run", "timing.cache_hits", "timing.cache_misses",
        "timing.trace_decode_hits", "timing.trace_decode_misses"};
    std::map<std::string, u64> out;
    for (const sim::StatRow &r : sim::collectStatRows(configs, rows, true))
        for (const auto &[name, value] : r.counters)
            if (kept.count(name))
                out[r.benchmark + "/" + r.scenario + "/" + name] = value;
    return out;
}

TEST_F(ServeTest, TimingCountersMatchDirectRun)
{
    // `--timings` through the daemon: the client folds the streamed
    // cells exactly like a direct run, against the server's cache, so
    // cold and warm rounds count the same runs, hits and misses.
    fs::path base = fs::temp_directory_path() /
                    ("rsep_serve_timings_" + std::to_string(::getpid()));
    fs::remove_all(base);
    ServeOptions sopts;
    sopts.cacheDir = (base / "server").string();
    startServer(sopts);

    std::vector<sim::Scenario> scenarios = smokeScenarios();
    std::vector<sim::SimConfig> configs = configsOf(scenarios);
    std::vector<std::string> benchmarks = {"mcf", "hmmer"};
    sim::MatrixOptions mopts;
    mopts.jobs = 2;
    mopts.progress = false;
    mopts.cacheDir = (base / "direct").string();
    ClientOptions copts;
    copts.socketPath = sock;
    copts.progress = false;

    const size_t cells_per_row = configs[0].checkpoints;
    for (bool warm : {false, true}) {
        SCOPED_TRACE(warm ? "warm" : "cold");
        std::map<std::string, u64> direct = timingCounters(
            configs, sim::runMatrix(configs, benchmarks, mopts));
        std::map<std::string, u64> remote = timingCounters(
            configs, runMatrixRemote(scenarios, benchmarks, copts));
        // Five counters for each (benchmark, scenario) row.
        EXPECT_EQ(direct.size(), 5 * benchmarks.size() * configs.size());
        EXPECT_EQ(direct, remote);
        EXPECT_EQ(direct["mcf/t-base/timing.cells_run"],
                  warm ? 0 : cells_per_row);
        EXPECT_EQ(direct["mcf/t-base/timing.cache_hits"],
                  warm ? cells_per_row : 0);
    }
    fs::remove_all(base);
}

/** Accept one client on @p listen_fd (10 s budget) and play a daemon:
 *  answer Hello, read the Submit, send @p frames, then read until the
 *  client hangs up. */
void
playDaemon(int listen_fd,
           const std::vector<std::pair<FrameType, std::string>> &frames)
{
    pollfd pfd{listen_fd, POLLIN, 0};
    ASSERT_EQ(::poll(&pfd, 1, 10'000), 1) << "client never connected";
    int fd = ::accept(listen_fd, nullptr, nullptr);
    ASSERT_GE(fd, 0);
    Frame f;
    std::string err;
    if (readFrame(fd, f, &err) && f.type == FrameType::Hello &&
        writeFrame(fd, FrameType::Hello, helloPayload(), &err) &&
        readFrame(fd, f, &err) && f.type == FrameType::Submit) {
        // A client that rejects a frame hangs up; later writes fail.
        for (const auto &[type, payload] : frames)
            if (!writeFrame(fd, type, payload, &err))
                break;
        while (readFrame(fd, f, &err)) {
        }
    }
    ::close(fd);
}

TEST_F(ServeTest, MismatchedSamplesFramesAreRejected)
{
    // A Samples frame lands in its cell's slot and is written under the
    // header a direct run would use, so one that names no requested
    // cell, precedes its Cell, repeats, or carries another cell's
    // series must fail the run instead of being dropped, replacing a
    // series, or being written under the wrong file name.
    constexpr u64 every = 1000;
    std::vector<sim::Scenario> scenarios = smokeScenarios();
    scenarios.resize(1);
    scenarios[0].config.checkpoints = 1;
    std::vector<sim::SimConfig> configs = configsOf(scenarios);
    std::vector<std::string> benchmarks = {"mcf", "hmmer"};

    // Real cells (0 = mcf, 1 = hmmer, both config 0, phase 0), and the
    // Done a faithful daemon would send after them.
    sim::MatrixPlan plan = sim::planMatrix(configs, benchmarks);
    std::vector<std::pair<FrameType, std::string>> cell_frames;
    for (size_t b = 0; b < benchmarks.size(); ++b) {
        sim::PhaseResult &pr = plan.rows[b].byConfig[0].phases[0];
        pr = sim::runCachedCell(nullptr, configs[0], benchmarks[b],
                                plan.configHashes[0], 0, {}, every);
        ASSERT_FALSE(pr.samples.empty());
        CellResult cell;
        cell.benchmark = benchmarks[b];
        cell.record = sim::ResultCache::serializeRecord(
            {benchmarks[b], plan.configHashes[0], 0, configs[0].seed}, pr);
        cell_frames.push_back({FrameType::Cell, serializeCell(cell)});
    }
    DoneSummary done;
    done.cellsRun = benchmarks.size();
    done.dump = canonicalDump(configs, plan.rows);
    auto samples = [&](size_t b, u32 phase, size_t header_of) {
        sim::SampleSeriesHeader h =
            sim::seriesHeader(plan, configs, header_of, 0, 0, every);
        h.phase = phase;
        SamplesFrame sf{benchmarks[b], 0, phase,
                        sim::serializeSamples(
                            h, plan.rows[b].byConfig[0].phases[0].samples)};
        return std::make_pair(FrameType::Samples, serializeSamplesFrame(sf));
    };

    const std::vector<std::pair<
        const char *, std::vector<std::pair<FrameType, std::string>>>>
        cases = {
            {"phase 5 of a 1-checkpoint request", {samples(0, 5, 0)}},
            {"mcf frame whose header names hmmer", {samples(0, 0, 1)}},
            {"second frame for the same cell",
             {samples(0, 0, 0), samples(0, 0, 0)}},
            {"hmmer frame before hmmer's cell", {samples(1, 0, 1)}},
        };

    fs::path sample_dir =
        fs::temp_directory_path() /
        ("rsep_serve_badsamples_" + std::to_string(::getpid()));
    sock = shortSockPath();
    int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(listen_fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, sock.c_str(), sizeof(addr.sun_path) - 1);
    ASSERT_EQ(0, ::bind(listen_fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)));
    ASSERT_EQ(0, ::listen(listen_fd, 4));

    ClientOptions copts;
    copts.socketPath = sock;
    copts.progress = false;
    copts.maxRetries = 0;
    copts.sampleEvery = every;
    copts.sampleDir = sample_dir.string();
    for (const auto &[name, bad] : cases) {
        SCOPED_TRACE(name);
        // Cell(mcf), the bad frames, Cell(hmmer), Done: without the
        // checks the client would finish this stream cleanly.
        std::vector<std::pair<FrameType, std::string>> frames = {
            cell_frames[0]};
        frames.insert(frames.end(), bad.begin(), bad.end());
        frames.push_back(cell_frames[1]);
        frames.push_back({FrameType::Done, serializeDone(done)});
        std::thread daemon([&] { playDaemon(listen_fd, frames); });
        std::string what;
        try {
            ScopedFatalCapture capture;
            runMatrixRemote(scenarios, benchmarks, copts);
        } catch (const FatalError &e) {
            what = e.what();
        }
        daemon.join();
        EXPECT_NE(what.find("samples frame"), std::string::npos)
            << "no FatalError naming the frame; got '" << what << "'";
    }
    ::close(listen_fd);
    ::unlink(sock.c_str());
    fs::remove_all(sample_dir);
}

TEST_F(ServeTest, StaleSocketFileIsReclaimed)
{
    // A dead server's socket file must not wedge the next start.
    std::string path = shortSockPath();
    {
        ServeOptions opts;
        opts.socketPath = path;
        opts.jobs = 1;
        opts.progress = false;
        Server first(opts);
        std::string err;
        ASSERT_TRUE(first.start(&err)) << err;
        // Simulate a crash: leak the socket file by never unlinking
        // (stop() unlinks, so instead create the stale file after).
        first.stop();
    }
    std::ofstream stale(path); // plain file at the socket path.
    stale.close();
    ASSERT_TRUE(fs::exists(path));

    ServeOptions opts;
    opts.socketPath = path;
    opts.jobs = 1;
    opts.progress = false;
    Server second(opts);
    std::string err;
    EXPECT_TRUE(second.start(&err)) << err;
    second.stop();
}

TEST_F(ServeTest, SecondServerOnLiveSocketRefused)
{
    startServer();
    ServeOptions opts;
    opts.socketPath = sock;
    opts.jobs = 1;
    opts.progress = false;
    Server second(opts);
    std::string err;
    EXPECT_FALSE(second.start(&err));
    EXPECT_NE(err.find("already"), std::string::npos);

    expectServable(sock); // the first server is unharmed.
}

} // namespace
} // namespace rsep::serve
