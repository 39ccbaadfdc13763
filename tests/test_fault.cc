/**
 * @file
 * Deterministic fault-injection tests (DESIGN.md §14): the fault
 * registry's spec grammar and arming semantics, the hardened file
 * formats (.rtr traces, .rts series), and the serve layer end to end
 * over real sockets with faults armed on one side at a time.
 *
 * The matrix invariant, per injection point: the request either
 * completes byte-identically to an un-faulted run (the client's
 * retry/backoff recovered), or fails with a diagnostic naming the
 * injected operation — and in every case the daemon survives and
 * serves the next clean request.
 *
 * Client exit codes (daemon gone / deadline / truncated stream) are
 * covered with death tests: clientExit really does exit the process,
 * which is the contract fleet scripts rely on.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/env.hh"
#include "common/fault.hh"
#include "common/fnv.hh"
#include "common/logging.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "sim/result_cache.hh"
#include "sim/runner.hh"
#include "sim/sample_io.hh"
#include "sim/scenario.hh"
#include "sim/stat_export.hh"
#include "wl/trace_io.hh"

namespace rsep
{
namespace
{

namespace fs = std::filesystem;

/** Every test leaves the process-global registry clean. */
class FaultTest : public ::testing::Test
{
  protected:
    void SetUp() override { fault::disarmAll(); }
    void TearDown() override { fault::disarmAll(); }

    void
    arm(const std::string &spec)
    {
        std::string err;
        ASSERT_TRUE(fault::armFromSpec(spec, &err)) << err;
    }
};

// ---------------------------------------------------------------------
// Registry semantics.
// ---------------------------------------------------------------------

TEST_F(FaultTest, UnarmedPointIsANoop)
{
    EXPECT_FALSE(fault::armed());
    EXPECT_FALSE(fault::point("serve.send"));
    EXPECT_FALSE(fault::point("no.such.point"));
    // Unarmed hits are not even counted: the fast path never reaches
    // the registry, so golden runs stay untouched.
    EXPECT_EQ(fault::hitCount("serve.send"), 0u);
}

TEST_F(FaultTest, MalformedSpecsAreRejectedAtomically)
{
    std::string err;
    EXPECT_FALSE(fault::armFromSpec("", &err));
    EXPECT_FALSE(fault::armFromSpec(":fail=eio", &err));
    EXPECT_FALSE(fault::armFromSpec("x:fail=bogus", &err));
    EXPECT_FALSE(fault::armFromSpec("x:rate=0", &err));
    EXPECT_FALSE(fault::armFromSpec("x:rate=1.5", &err));
    EXPECT_FALSE(fault::armFromSpec("x:count=many", &err));
    EXPECT_FALSE(fault::armFromSpec("x:wat=1", &err));
    EXPECT_FALSE(err.empty());
    // A failed arm leaves the registry unchanged.
    EXPECT_FALSE(fault::armed());
    // A list with one bad element arms nothing.
    EXPECT_FALSE(fault::armFromSpec("good:fail=eio,x:rate=9", &err));
    EXPECT_FALSE(fault::armed());
    EXPECT_FALSE(fault::point("good"));
}

TEST_F(FaultTest, AfterAndCountBoundTheInjectionWindow)
{
    arm("w:after=2:fail=eio:count=2");
    std::vector<bool> fired;
    for (int i = 0; i < 6; ++i) {
        fault::Injected inj = fault::point("w");
        fired.push_back(bool(inj));
        if (inj) {
            EXPECT_EQ(inj.kind, fault::Kind::Errno);
            EXPECT_EQ(inj.err, EIO);
        }
    }
    EXPECT_EQ(fired, (std::vector<bool>{false, false, true, true, false,
                                        false}));
    EXPECT_EQ(fault::hitCount("w"), 6u);
    EXPECT_EQ(fault::firedCount("w"), 2u);
}

TEST_F(FaultTest, RateModeIsDeterministic)
{
    auto pattern = [&] {
        std::vector<bool> p;
        for (int i = 0; i < 64; ++i)
            p.push_back(bool(fault::point("r")));
        return p;
    };
    arm("r:rate=0.5:seed=9:fail=eio:count=0");
    std::vector<bool> first = pattern();
    fault::disarmAll();
    arm("r:rate=0.5:seed=9:fail=eio:count=0");
    EXPECT_EQ(first, pattern());
    // ~half fire: not all, not none.
    size_t n = std::count(first.begin(), first.end(), true);
    EXPECT_GT(n, 0u);
    EXPECT_LT(n, first.size());
}

TEST_F(FaultTest, ModesCarryTheirPayload)
{
    arm("d:fail=delay:ms=1,t:fail=truncate:bytes=7,"
        "s:fail=short:bytes=3,e:fail=econnreset");
    fault::Injected d = fault::point("d");
    EXPECT_EQ(d.kind, fault::Kind::Delay);
    EXPECT_EQ(d.amount, 1000u); // microseconds.
    fault::Injected t = fault::point("t");
    EXPECT_EQ(t.kind, fault::Kind::Truncate);
    EXPECT_EQ(t.amount, 7u);
    fault::Injected s = fault::point("s");
    EXPECT_EQ(s.kind, fault::Kind::ShortWrite);
    EXPECT_EQ(s.amount, 3u);
    fault::Injected e = fault::point("e");
    EXPECT_EQ(e.kind, fault::Kind::Errno);
    EXPECT_EQ(e.err, ECONNRESET);
}

// ---------------------------------------------------------------------
// Trace files: trace.write / trace.read / trace.decode, and the
// truncation diagnostics (offset + expected/actual checksum, never an
// assert).
// ---------------------------------------------------------------------

std::string
scratchDir(const std::string &tag)
{
    std::string dir = (fs::temp_directory_path() /
                       ("rsep_fault_" + tag + "_" +
                        std::to_string(::getpid())))
                          .string();
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

wl::TraceHeader
smallTraceHeader(u64 records)
{
    wl::TraceHeader h;
    h.workload = "faketrace";
    h.workloadHash = hex64(0x1234abcd);
    h.phase = 0;
    h.programLength = 8;
    h.records = records;
    return h;
}

std::vector<wl::DynRecord>
smallTraceRecords()
{
    std::vector<wl::DynRecord> recs;
    for (u32 i = 0; i < 32; ++i) {
        wl::DynRecord r;
        r.staticIdx = i % 8;
        r.nextIdx = (i + 1) % 8;
        r.result = 0x100 + i;
        r.effAddr = (i % 3) ? 0 : 0x1000 + 8 * i;
        r.taken = (i % 2) != 0;
        recs.push_back(r);
    }
    return recs;
}

TEST_F(FaultTest, TraceWriteErrnoFailsWithDiagnostic)
{
    std::string dir = scratchDir("trw");
    std::string path = dir + "/t.rtr";
    arm("trace.write:fail=enospc");
    std::string err;
    EXPECT_FALSE(wl::writeTraceFile(path, smallTraceHeader(32),
                                    smallTraceRecords(), &err));
    EXPECT_NE(err.find("injected"), std::string::npos) << err;
    EXPECT_FALSE(fs::exists(path));
    // Unarmed retry succeeds (count=1 auto-disarmed the spec).
    EXPECT_TRUE(wl::writeTraceFile(path, smallTraceHeader(32),
                                   smallTraceRecords(), &err))
        << err;
    EXPECT_TRUE(wl::readTraceFile(path).ok());
    fs::remove_all(dir);
}

TEST_F(FaultTest, TornTracePublishIsDiagnosedWithOffsets)
{
    std::string dir = scratchDir("torn");
    std::string path = dir + "/t.rtr";
    std::string full =
        wl::serializeTrace(smallTraceHeader(32), smallTraceRecords());
    // Cut inside the checksum trailer: the file publishes torn, and the
    // next read must say where it ends and how much it needed.
    arm("trace.write:fail=truncate:bytes=" +
        std::to_string(full.size() - 10));
    std::string err;
    ASSERT_TRUE(wl::writeTraceFile(path, smallTraceHeader(32),
                                   smallTraceRecords(), &err))
        << err;
    wl::TraceParse tp = wl::readTraceFile(path);
    ASSERT_FALSE(tp.ok());
    EXPECT_NE(tp.error.find("offset"), std::string::npos) << tp.error;
    fs::remove_all(dir);
}

TEST_F(FaultTest, ChecksumMismatchNamesExpectedAndComputed)
{
    std::string dir = scratchDir("cksum");
    std::string path = dir + "/t.rtr";
    std::string err;
    ASSERT_TRUE(wl::writeTraceFile(path, smallTraceHeader(32),
                                   smallTraceRecords(), &err));
    // Flip one payload byte on disk; the envelope must report both
    // checksum values and the payload's position, not just "mismatch".
    std::string text;
    {
        std::ifstream is(path, std::ios::binary);
        std::ostringstream buf;
        buf << is.rdbuf();
        text = buf.str();
    }
    size_t marker = text.find("payload\n");
    ASSERT_NE(marker, std::string::npos);
    text[marker + 8 + 3] ^= 0x40;
    std::ofstream(path, std::ios::binary | std::ios::trunc) << text;

    wl::TraceParse tp = wl::readTraceFile(path);
    ASSERT_FALSE(tp.ok());
    EXPECT_NE(tp.error.find("checksum mismatch"), std::string::npos)
        << tp.error;
    EXPECT_NE(tp.error.find("expected"), std::string::npos) << tp.error;
    EXPECT_NE(tp.error.find("computed"), std::string::npos) << tp.error;
    EXPECT_NE(tp.error.find("offset"), std::string::npos) << tp.error;
    fs::remove_all(dir);
}

TEST_F(FaultTest, TraceReadAndDecodeFaultsAreDiagnosed)
{
    std::string dir = scratchDir("trd");
    std::string path = dir + "/t.rtr";
    std::string err;
    ASSERT_TRUE(wl::writeTraceFile(path, smallTraceHeader(32),
                                   smallTraceRecords(), &err));

    arm("trace.read:fail=eio");
    wl::TraceParse tp = wl::readTraceFile(path);
    ASSERT_FALSE(tp.ok());
    EXPECT_NE(tp.error.find("trace.read"), std::string::npos) << tp.error;
    EXPECT_NE(tp.error.find("injected"), std::string::npos) << tp.error;

    // Truncate the decoded view near the end of the file: the parse
    // must degrade into a truncation diagnostic, never an assert.
    std::string full =
        wl::serializeTrace(smallTraceHeader(32), smallTraceRecords());
    arm("trace.decode:fail=truncate:bytes=" +
        std::to_string(full.size() - 25));
    wl::DecodedTraceParse dp = wl::loadDecodedTrace(path);
    ASSERT_FALSE(dp.ok());
    EXPECT_NE(dp.error.find("truncated"), std::string::npos) << dp.error;

    // Both specs auto-disarmed: the same file now loads clean.
    wl::DecodedTraceParse ok = wl::loadDecodedTrace(path);
    ASSERT_TRUE(ok.ok()) << ok.error;
    EXPECT_EQ(ok.trace->header.records, 32u);
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// Sample series: rts.flush, and the reader's truncation diagnostics.
// ---------------------------------------------------------------------

TEST_F(FaultTest, SampleFlushFaultMatrix)
{
    std::string dir = scratchDir("rts");
    std::string path = dir + "/s.rts";
    sim::SampleSeriesHeader h;
    h.workload = "mcf";
    h.scenario = "t-base";
    h.configHash = hex64(0xfeedf00d);
    h.phase = 0;
    h.period = 1000;
    std::vector<core::StatSample> rows(4);

    // errno: flush fails, diagnostic names the injection.
    arm("rts.flush:fail=enospc");
    std::string err;
    EXPECT_FALSE(sim::writeSamplesFile(path, h, rows, &err));
    EXPECT_NE(err.find("injected"), std::string::npos) << err;
    EXPECT_FALSE(fs::exists(path));

    // short: no torn file may be left behind.
    arm("rts.flush:fail=short:bytes=40");
    EXPECT_FALSE(sim::writeSamplesFile(path, h, rows, &err));
    EXPECT_NE(err.find("injected short write"), std::string::npos) << err;
    EXPECT_FALSE(fs::exists(path));
    EXPECT_TRUE(fs::is_empty(dir));

    // truncate: the torn series publishes; the reader reports offsets.
    std::string full = sim::serializeSamples(h, rows);
    arm("rts.flush:fail=truncate:bytes=" +
        std::to_string(full.size() - 5));
    EXPECT_TRUE(sim::writeSamplesFile(path, h, rows, &err)) << err;
    sim::SamplesParse sp = sim::parseSamplesFile(path);
    ASSERT_FALSE(sp.ok());
    EXPECT_NE(sp.error.find("truncated"), std::string::npos) << sp.error;
    EXPECT_NE(sp.error.find("offset"), std::string::npos) << sp.error;

    // Unarmed, the same write round-trips.
    EXPECT_TRUE(sim::writeSamplesFile(path, h, rows, &err)) << err;
    sp = sim::parseSamplesFile(path);
    ASSERT_TRUE(sp.ok()) << sp.error;
    EXPECT_EQ(sp.rows.size(), rows.size());
    fs::remove_all(dir);
}

} // namespace
} // namespace rsep

// ---------------------------------------------------------------------
// Serve layer: one fault point armed per test, on one side of the
// socket; the run either completes byte-identically (client recovery)
// or fails with the injected diagnostic — and the daemon serves a
// clean request afterwards either way.
// ---------------------------------------------------------------------

namespace rsep::serve
{
namespace
{

namespace fs = std::filesystem;

std::string
shortSockPath()
{
    static int counter = 0;
    return "/tmp/rsep_fault_t" + std::to_string(::getpid()) + "_" +
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
    sim::Scenario base{"t-base",
                       shrunk(sim::findScenario("baseline")->config)};
    base.config.label = "t-base";
    return {base};
}

std::string
canonicalDump(const std::vector<sim::SimConfig> &configs,
              const std::vector<sim::MatrixRow> &rows)
{
    std::ostringstream os;
    sim::CsvStatSink{}.write(os, sim::collectStatRows(configs, rows));
    return os.str();
}

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
 *  still alive" probe after each fault case. */
void
expectServable(const std::string &sock)
{
    std::vector<sim::Scenario> scenarios = {
        {"t-base", shrunk(sim::findScenario("baseline")->config)}};
    scenarios[0].config.label = "t-base";
    scenarios[0].config.checkpoints = 1;
    ClientOptions copts;
    copts.socketPath = sock;
    copts.progress = false;
    copts.maxRetries = 0;
    std::vector<sim::MatrixRow> rows =
        runMatrixRemote(scenarios, {"mcf"}, copts);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_GT(rows[0].byConfig[0].phases[0].ipc, 0.0);
}

class FaultServeTest : public ::testing::Test
{
  protected:
    void SetUp() override { fault::disarmAll(); }

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
        fault::disarmAll();
        if (server)
            server->stop();
    }

    void
    arm(const std::string &spec)
    {
        std::string err;
        ASSERT_TRUE(fault::armFromSpec(spec, &err)) << err;
    }

    /** Run the smoke request with retries enabled; expect recovery and
     *  byte-identity against a direct local run. */
    void
    expectRecovers(unsigned expect_min_retries_served)
    {
        std::vector<sim::Scenario> scenarios = smokeScenarios();
        std::vector<std::string> benchmarks = {"mcf"};

        sim::MatrixOptions mopts;
        mopts.jobs = 2;
        mopts.progress = false;
        std::vector<sim::SimConfig> configs = {scenarios[0].config};
        std::vector<sim::MatrixRow> direct =
            sim::runMatrix(configs, benchmarks, mopts);

        ClientOptions copts;
        copts.socketPath = sock;
        copts.progress = false;
        copts.maxRetries = 3;
        copts.backoffBaseMs = 10;
        std::vector<sim::MatrixRow> remote =
            runMatrixRemote(scenarios, benchmarks, copts);

        EXPECT_EQ(canonicalDump(configs, direct),
                  canonicalDump(configs, remote));
        EXPECT_GE(server->counters().retriesServed,
                  expect_min_retries_served);
        expectServable(sock);
    }

    std::string sock;
    std::unique_ptr<Server> server;
};

TEST_F(FaultServeTest, ServeSendResetRecovers)
{
    startServer();
    arm("serve.send:fail=econnreset");
    expectRecovers(1);
    EXPECT_EQ(fault::firedCount("serve.send"), 1u);
}

TEST_F(FaultServeTest, ServeSendTornFrameRecovers)
{
    startServer();
    // Three wire bytes of a frame, then the cut: the client sees a
    // stream torn mid-frame, not a clean shutdown.
    arm("serve.send:fail=truncate:bytes=3");
    expectRecovers(1);
}

TEST_F(FaultServeTest, ServeRecvResetRecovers)
{
    startServer();
    arm("serve.recv:fail=econnreset");
    expectRecovers(1);
}

TEST_F(FaultServeTest, ClientSendEpipeRecovers)
{
    startServer();
    arm("client.send:fail=epipe");
    expectRecovers(1);
}

TEST_F(FaultServeTest, ClientRecvTruncateRecovers)
{
    startServer();
    arm("client.recv:fail=truncate:bytes=2");
    expectRecovers(1);
}

TEST_F(FaultServeTest, InjectedEintrIsAbsorbedWithoutARetry)
{
    startServer();
    // EINTR is retried inside the read loop itself: the request must
    // complete on the FIRST conversation, with no resubmit.
    arm("client.recv:fail=eintr");
    expectRecovers(0);
    EXPECT_EQ(fault::firedCount("client.recv"), 1u);
    EXPECT_EQ(server->counters().retriesServed, 0u);
}

TEST_F(FaultServeTest, CellFaultAnswersErrorAndDaemonSurvives)
{
    startServer();
    arm("serve.cell:fail=eio");
    std::vector<sim::Scenario> scenarios = smokeScenarios();
    ClientOptions copts;
    copts.socketPath = sock;
    copts.progress = false;
    copts.maxRetries = 0;
    // A server-reported cell failure is permanent: the client fatals
    // with the server's diagnostic, which names the cell and the
    // injected errno.
    try {
        ScopedFatalCapture capture;
        runMatrixRemote(scenarios, {"mcf"}, copts);
        FAIL() << "expected a FatalError from the served Error frame";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("injected"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("cell ("),
                  std::string::npos)
            << e.what();
    }
    EXPECT_GE(server->counters().errors, 1u);
    fault::disarmAll();
    expectServable(sock);
}

TEST_F(FaultServeTest, InflightCellCeilingAnswersBusy)
{
    ServeOptions sopts;
    sopts.maxInflightCells = 1;
    sopts.jobs = 1;
    startServer(sopts);
    // Stall every cell so the first request reliably pins the gauge
    // while the second one knocks.
    arm("serve.cell:fail=delay:ms=200:count=0");

    std::vector<sim::MatrixRow> rows_a;
    std::thread a([&] {
        std::vector<sim::Scenario> scenarios = smokeScenarios();
        ClientOptions copts;
        copts.socketPath = sock;
        copts.progress = false;
        copts.maxRetries = 0;
        rows_a = runMatrixRemote(scenarios, {"mcf"}, copts);
    });
    // Wait until request A's first cell is actually running.
    for (int i = 0; i < 200 && fault::hitCount("serve.cell") == 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_GE(fault::hitCount("serve.cell"), 1u);

    // Raw second client: hello is answered, the submit is rejected
    // with a structured Busy carrying a retry-after hint.
    int fd = rawConnect(sock);
    std::string err;
    Frame f;
    ASSERT_TRUE(writeFrame(fd, FrameType::Hello, helloPayload(), &err));
    ASSERT_TRUE(readFrame(fd, f, &err)) << err;
    ASSERT_EQ(f.type, FrameType::Hello);
    SubmitRequest sub;
    sub.benchmarks = {"mcf"};
    sub.scnText = sim::serializeScenarios(smokeScenarios());
    ASSERT_TRUE(
        writeFrame(fd, FrameType::Submit, serializeSubmit(sub), &err));
    ASSERT_TRUE(readFrame(fd, f, &err)) << err;
    ASSERT_EQ(f.type, FrameType::Error);
    u64 hint = 0;
    std::string why;
    ASSERT_TRUE(parseBusy(f.payload, hint, &why)) << f.payload;
    EXPECT_GT(hint, 0u);
    EXPECT_NE(why.find("max-inflight-cells"), std::string::npos) << why;
    ::close(fd);

    a.join();
    ASSERT_EQ(rows_a.size(), 1u);
    EXPECT_GT(rows_a[0].byConfig[0].phases[0].ipc, 0.0);
    EXPECT_GE(server->counters().busyRejections, 1u);
    // Busy is admission control, not a failure.
    EXPECT_EQ(server->counters().errors, 0u);

    fault::disarmAll();
    expectServable(sock);
}

TEST_F(FaultServeTest, QueueDepthCeilingAnswersBusy)
{
    ServeOptions sopts;
    sopts.maxQueueDepth = 1;
    sopts.jobs = 1;
    startServer(sopts);
    arm("serve.cell:fail=delay:ms=200:count=0");

    std::thread a([&] {
        std::vector<sim::Scenario> scenarios = smokeScenarios();
        ClientOptions copts;
        copts.socketPath = sock;
        copts.progress = false;
        copts.maxRetries = 0;
        runMatrixRemote(scenarios, {"mcf"}, copts);
    });
    for (int i = 0; i < 200 && fault::hitCount("serve.cell") == 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_GE(fault::hitCount("serve.cell"), 1u);

    int fd = rawConnect(sock);
    std::string err;
    Frame f;
    ASSERT_TRUE(writeFrame(fd, FrameType::Hello, helloPayload(), &err));
    ASSERT_TRUE(readFrame(fd, f, &err)) << err;
    SubmitRequest sub;
    sub.benchmarks = {"mcf"};
    sub.scnText = sim::serializeScenarios(smokeScenarios());
    ASSERT_TRUE(
        writeFrame(fd, FrameType::Submit, serializeSubmit(sub), &err));
    ASSERT_TRUE(readFrame(fd, f, &err)) << err;
    ASSERT_EQ(f.type, FrameType::Error);
    u64 hint = 0;
    std::string why;
    ASSERT_TRUE(parseBusy(f.payload, hint, &why)) << f.payload;
    EXPECT_NE(why.find("max-queue-depth"), std::string::npos) << why;
    ::close(fd);
    a.join();
}

TEST_F(FaultServeTest, BusyClientBacksOffAndCompletes)
{
    ServeOptions sopts;
    sopts.maxInflightCells = 1;
    sopts.jobs = 1;
    startServer(sopts);
    // Stall only request A's two cells; B's own cells run unstalled.
    arm("serve.cell:fail=delay:ms=150:count=2");

    std::thread a([&] {
        std::vector<sim::Scenario> scenarios = smokeScenarios();
        ClientOptions copts;
        copts.socketPath = sock;
        copts.progress = false;
        copts.maxRetries = 0;
        runMatrixRemote(scenarios, {"mcf"}, copts);
    });
    for (int i = 0; i < 200 && fault::hitCount("serve.cell") == 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_GE(fault::hitCount("serve.cell"), 1u);

    // B's first attempt lands in A's window, takes the Busy, honours
    // the hint, and succeeds on a later attempt.
    std::vector<sim::Scenario> scenarios = smokeScenarios();
    ClientOptions copts;
    copts.socketPath = sock;
    copts.progress = false;
    copts.maxRetries = 8;
    copts.backoffBaseMs = 20;
    std::vector<sim::MatrixRow> rows =
        runMatrixRemote(scenarios, {"mcf"}, copts);
    a.join();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_GT(rows[0].byConfig[0].phases[0].ipc, 0.0);
    EXPECT_GE(server->counters().busyRejections, 1u);
    EXPECT_GE(server->counters().retriesServed, 1u);
}

TEST_F(FaultServeTest, IdleConnectionIsReaped)
{
    ServeOptions sopts;
    sopts.idleTimeoutSec = 1;
    startServer(sopts);

    int fd = rawConnect(sock);
    std::string err;
    Frame f;
    ASSERT_TRUE(writeFrame(fd, FrameType::Hello, helloPayload(), &err));
    ASSERT_TRUE(readFrame(fd, f, &err)) << err;
    ASSERT_EQ(f.type, FrameType::Hello);

    // Say nothing; the server must close the connection on its own.
    bool clean = false;
    EXPECT_FALSE(readFrame(fd, f, &err, &clean));
    EXPECT_TRUE(clean) << err;
    ::close(fd);

    // The reaped fd freed its handler; the daemon still serves.
    expectServable(sock);
}

// ---------------------------------------------------------------------
// Exit codes: clientExit really exits with the class-specific code and
// a diagnostic naming the failed operation (death tests).
// ---------------------------------------------------------------------

TEST(FaultClientExit, DaemonGoneExitsThree)
{
    std::vector<sim::Scenario> scenarios = smokeScenarios();
    ClientOptions copts;
    copts.socketPath = "/tmp/rsep_fault_nonexistent_" +
                       std::to_string(::getpid()) + ".sock";
    copts.progress = false;
    copts.maxRetries = 1;
    copts.backoffBaseMs = 1;
    EXPECT_EXIT(runMatrixRemote(scenarios, {"mcf"}, copts),
                ::testing::ExitedWithCode(exitDaemonGone),
                "is rsep_serve running");
}

TEST(FaultClientExit, DeadlineExitsFive)
{
    std::vector<sim::Scenario> scenarios = smokeScenarios();
    ClientOptions copts;
    copts.socketPath = "/tmp/rsep_fault_nonexistent_" +
                       std::to_string(::getpid()) + ".sock";
    copts.progress = false;
    copts.maxRetries = 100;
    copts.backoffBaseMs = 20;
    copts.deadlineMs = 50;
    EXPECT_EXIT(runMatrixRemote(scenarios, {"mcf"}, copts),
                ::testing::ExitedWithCode(exitDeadline), "deadline");
}

TEST(FaultClientExit, TruncatedStreamExitsFour)
{
    // The whole scenario runs in the death-test child: its own daemon,
    // a client whose every receive tears, retries exhausted. The child
    // exits with its daemon up, so the parent names and removes the
    // socket.
    const std::string sock = shortSockPath();
    auto scenario = [&sock] {
        ServeOptions sopts;
        sopts.socketPath = sock;
        sopts.jobs = 1;
        sopts.progress = false;
        Server server(sopts);
        std::string err;
        if (!server.start(&err))
            std::exit(97);
        if (!fault::armFromSpec("client.recv:fail=truncate:bytes=2:count=0",
                                &err))
            std::exit(98);
        std::vector<sim::Scenario> scenarios = smokeScenarios();
        ClientOptions copts;
        copts.socketPath = sopts.socketPath;
        copts.progress = false;
        copts.maxRetries = 1;
        copts.backoffBaseMs = 1;
        runMatrixRemote(scenarios, {"mcf"}, copts);
    };
    EXPECT_EXIT(scenario(), ::testing::ExitedWithCode(exitTruncated),
                "hello reply");
    ::unlink(sock.c_str());
}

} // namespace
} // namespace rsep::serve
