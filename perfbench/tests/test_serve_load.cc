// failed_frac accounting of the serve-mixed client: every way a request
// can end (Done, Error frame, Busy frame, transport failure, a dump
// that differs from the reference) lands in the right Outcome.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <thread>

#include "common/fault.hh"
#include "serve/server.hh"
#include "serve_load.hh"

using namespace perfbench;
namespace fs = std::filesystem;
namespace serve = rsep::serve;

namespace
{

class ServeLoadTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir = "perfbench-test-" + std::to_string(::getpid());
        fs::remove_all(dir);
        fs::create_directories(dir + "/traces");
        rsep::sim::MatrixOptions rec;
        rec.jobs = 1;
        rec.progress = false;
        rec.traceIo.recordDir = dir + "/traces";
        rsep::sim::runMatrix({armConfig("baseline", 500, 1500, 1, 7)},
                             {"gobmk"}, rec);
        rsep::sim::Scenario sc{"rsep", armConfig("rsep", 300, 900, 1, 7)};
        good = makeServeRequest({sc}, {"gobmk"}, dir + "/traces");
    }

    void
    TearDown() override
    {
        rsep::fault::disarmAll();
        fs::remove_all(dir);
    }

    std::unique_ptr<serve::Server>
    startServer()
    {
        serve::ServeOptions so;
        so.socketPath = dir + "/serve.sock";
        so.jobs = 1;
        so.cacheDir = dir + "/cache";
        so.progress = false;
        auto s = std::make_unique<serve::Server>(so);
        std::string err;
        EXPECT_TRUE(s->start(&err)) << err;
        return s;
    }

    std::string dir;
    ServeRequest good;
};

/** A one-shot fake daemon that answers the first Submit with @p reply
 *  (an Error frame payload), sent through the "serve.send" point. */
class FakeDaemon
{
  public:
    FakeDaemon(const std::string &path, std::string reply)
        : socketPath(path)
    {
        listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::memcpy(addr.sun_path, path.c_str(), path.size());
        ::unlink(path.c_str());
        EXPECT_EQ(::bind(listenFd, reinterpret_cast<sockaddr *>(&addr),
                         sizeof(addr)),
                  0);
        EXPECT_EQ(::listen(listenFd, 1), 0);
        thread = std::thread([this, reply] {
            int fd = ::accept(listenFd, nullptr, nullptr);
            serve::Frame f;
            std::string err;
            if (serve::readFrame(fd, f, &err) &&
                serve::writeFrame(fd, serve::FrameType::Hello,
                                  serve::helloPayload(), &err, "serve.send") &&
                serve::readFrame(fd, f, &err))
                serve::writeFrame(fd, serve::FrameType::Error, reply, &err,
                                  "serve.send");
            ::close(fd);
        });
    }
    ~FakeDaemon()
    {
        thread.join();
        ::close(listenFd);
        ::unlink(socketPath.c_str());
    }

  private:
    std::string socketPath;
    int listenFd = -1;
    std::thread thread;
};

} // namespace

TEST_F(ServeLoadTest, DoneWithTheReferenceDumpIsOk)
{
    auto server = startServer();
    ServeClient client(server->socketPath());
    Tracer tr(false);
    PassStats ps;
    ServeSamples ss;
    for (int i = 0; i < 2; ++i) // a miss that stores, then a cache hit
        accountRequest(good, client.submit(good, i, tr), ps, ss);
    EXPECT_EQ(ps.tally.attempted, 2u);
    EXPECT_EQ(ps.tally.failed(), 0u);
    EXPECT_EQ(ps.cells, 2 * good.cells);
    EXPECT_EQ(ps.insts, 2 * good.insts);
    EXPECT_EQ(ss.serverWallMs.size(), 2u);
    EXPECT_EQ(server->counters().cacheHits, good.cells);
}

TEST_F(ServeLoadTest, ErrorBusyTransportAndBadDumpCountAsFailures)
{
    Tracer tr(false);
    PassStats ps;
    ServeSamples ss;

    {   // Error frame: the daemon rejects an unknown benchmark.
        auto server = startServer();
        ServeClient client(server->socketPath());
        ServeRequest bad = good;
        bad.benchmarks = {"no-such-benchmark"};
        RequestResult r = client.submit(bad, 1, tr);
        EXPECT_EQ(r.outcome, Outcome::ErrorFrame) << r.error;
        accountRequest(bad, r, ps, ss);

        // A Done whose dump differs from the reference.
        ServeRequest wrong = good;
        wrong.referenceDump += "x";
        r = client.submit(wrong, 2, tr);
        EXPECT_EQ(r.outcome, Outcome::BadOutput) << r.error;
        accountRequest(wrong, r, ps, ss);

        // Transport: RSEP_FAULT's serve.send point fails the daemon's
        // first send after the Hello reply, mid-request.
        ServeClient fresh(server->socketPath());
        std::string err;
        ASSERT_TRUE(rsep::fault::armFromSpec(
            "serve.send:after=1:fail=econnreset", &err))
            << err;
        r = fresh.submit(good, 3, tr);
        EXPECT_EQ(r.outcome, Outcome::Transport) << r.error;
        accountRequest(good, r, ps, ss);
        rsep::fault::disarmAll();

        // The client reconnects and the next request succeeds.
        r = fresh.submit(good, 4, tr);
        EXPECT_EQ(r.outcome, Outcome::Ok) << r.error;
        accountRequest(good, r, ps, ss);
    }
    {   // Busy frame: a structured admission-control rejection.
        FakeDaemon fake(dir + "/fake.sock",
                        serve::serializeBusy(50, "queue full"));
        ServeClient client(dir + "/fake.sock");
        RequestResult r = client.submit(good, 5, tr);
        EXPECT_EQ(r.outcome, Outcome::BusyFrame) << r.error;
        accountRequest(good, r, ps, ss);
    }
    {   // Error frame from the same fake daemon, plain text this time.
        FakeDaemon fake(dir + "/fake.sock", "simulated failure");
        ServeClient client(dir + "/fake.sock");
        RequestResult r = client.submit(good, 6, tr);
        EXPECT_EQ(r.outcome, Outcome::ErrorFrame) << r.error;
        accountRequest(good, r, ps, ss);
    }
    {   // Nothing listening: a transport failure, not a crash.
        ServeClient client(dir + "/nobody.sock");
        RequestResult r = client.submit(good, 7, tr);
        EXPECT_EQ(r.outcome, Outcome::Transport);
        accountRequest(good, r, ps, ss);
    }

    const auto &by = ps.tally.byOutcome;
    EXPECT_EQ(ps.tally.attempted, 7u);
    EXPECT_EQ(ps.tally.failed(), 6u);
    EXPECT_EQ(by[static_cast<std::size_t>(Outcome::ErrorFrame)], 2u);
    EXPECT_EQ(by[static_cast<std::size_t>(Outcome::BusyFrame)], 1u);
    EXPECT_EQ(by[static_cast<std::size_t>(Outcome::Transport)], 2u);
    EXPECT_EQ(by[static_cast<std::size_t>(Outcome::BadOutput)], 1u);
    EXPECT_DOUBLE_EQ(ps.tally.failedFrac(), 6.0 / 7.0);
    // Only the successful request delivered cells; every request left
    // a latency sample, failed ones included.
    EXPECT_EQ(ps.cells, good.cells);
    EXPECT_EQ(ps.requestMs.size(), 7u);
}
