/**
 * @file
 * The rsep_serve daemon core: a warm, long-running simulation service
 * on a Unix-domain socket (DESIGN.md §13).
 *
 * One Server owns the process-resident state a cold driver process
 * pays to rebuild on every invocation — the workload registry, the
 * decoded-trace cache (wl::traceCache()) and the persistent result
 * cache — plus one work-stealing ThreadPool. Each client connection
 * gets a handler thread that validates Submit requests, lays each out
 * with sim::planMatrix and fans its (benchmark, config, checkpoint)
 * cells into the shared pool with sim::runCells, so concurrently-
 * pending requests batch into one execution: their cells interleave on
 * the same workers, share the same caches, and stream back to their
 * own clients as they complete. The Done counters come from the
 * RunTiming that sim::finishMatrix folds, as in a direct run.
 *
 * Determinism contract: a cell's result depends only on its
 * (benchmark, config, checkpoint) identity — never on batching,
 * request interleaving or cache temperature — so a client's dump is
 * byte-identical to a direct `runMatrix` run of the same request.
 * The one registry rule that keeps cross-client requests independent:
 * `[workload]` blocks that *override a suite benchmark name* are
 * rejected (a bare suite key in another client's request would
 * silently resolve through the override); rename the workload instead.
 *
 * The class is embeddable (tests run it in-process on a private
 * socket); tools/rsep_serve.cpp is the CLI wrapper.
 */

#ifndef RSEP_SERVE_SERVER_HH
#define RSEP_SERVE_SERVER_HH

#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/types.hh"

namespace rsep::sim
{
class ResultCache;
class ThreadPool;
} // namespace rsep::sim

namespace rsep::serve
{

/** Daemon configuration (tools/rsep_serve flags). */
struct ServeOptions
{
    /** Unix-domain socket path to listen on. A stale socket file left
     *  by a dead server is replaced; a live server is an error. */
    std::string socketPath = "rsep_serve.sock";
    /** Worker threads of the shared pool (0 = auto, like --jobs). */
    unsigned jobs = 0;
    /** Persistent result-cache root shared by every request (empty =
     *  no result cache; the decoded-trace cache is always on). */
    std::string cacheDir;
    /** Per-request summary lines on stderr. */
    bool progress = true;
    /** Admission control: reject a Submit with a structured Busy error
     *  (retry-after hint) instead of queueing it when accepting it
     *  would push the server-wide in-flight cell count past this
     *  ceiling (0 = unlimited). */
    u64 maxInflightCells = 0;
    /** Admission control: maximum concurrently-pending Submit requests
     *  before new ones are answered Busy (0 = unlimited). */
    u64 maxQueueDepth = 0;
    /** Reap connections idle (no frame activity) longer than this many
     *  seconds between requests (0 = never). */
    u64 idleTimeoutSec = 0;
};

class Server
{
  public:
    explicit Server(ServeOptions opts);
    ~Server(); ///< stop()s if still running.

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind the socket and start the accept loop + worker pool.
     *  False + @p err when the socket cannot be claimed. */
    bool start(std::string *err);

    /** Drain in-flight requests, close every connection, release the
     *  socket. Idempotent. */
    void stop();

    const std::string &socketPath() const { return opts.socketPath; }
    unsigned jobs() const { return nJobs; }

    /** Lifetime serve.* counters (snapshot under the counter lock). */
    struct Counters
    {
        u64 requests = 0;        ///< Submit requests answered with Done.
        u64 errors = 0;          ///< Error frames sent.
        u64 cellsRun = 0;        ///< cells simulated.
        u64 cacheHits = 0;       ///< cells served by the result cache.
        u64 batchedCells = 0;    ///< cells that shared the pool with
                                 ///< another in-flight request.
        u64 traceDecodeHits = 0; ///< warm decoded-trace lookups.
        u64 traceDecodeMisses = 0;
        u64 queueWaitMicros = 0; ///< summed submit-to-first-cell waits.
        u64 retriesServed = 0;   ///< Submits that carried retry > 0.
        u64 busyRejections = 0;  ///< Submits answered Busy (admission).
    };
    Counters counters() const;

  private:
    struct PendingRequest;

    void acceptLoop();
    void handleConnection(int fd);
    /** Process one Submit frame; false when the connection must close
     *  (a write to the client already failed). */
    bool handleSubmit(int fd, std::mutex &write_mtx,
                      const std::string &payload);
    /** One pool task: simulate cell (b, c, p), stream its Cell (and
     *  Samples) frame, slot the result. */
    void runRequestCell(PendingRequest &req, size_t b, size_t c, u32 p);
    void sendError(int fd, std::mutex &write_mtx, const std::string &msg);
    /** Admission-control rejection: a structured Busy Error frame with
     *  a retry-after hint; counted separately from protocol errors. */
    void sendBusy(int fd, std::mutex &write_mtx, const std::string &why);
    /** Validate a request end to end (workloads resolvable, replay
     *  traces present, well-formed and matching their cells) so no
     *  in-flight cell can hit a fatal diagnostic and take the daemon
     *  down with it. Empty string = good to run. */
    std::string preflight(const PendingRequest &req);

    ServeOptions opts;
    unsigned nJobs = 0;
    int listenFd = -1;
    int wakePipe[2] = {-1, -1};
    bool running = false;
    std::atomic<bool> stopping{false};

    std::unique_ptr<sim::ThreadPool> pool;
    std::unique_ptr<sim::ResultCache> cache;

    std::thread acceptThread;
    std::mutex connMtx;
    std::vector<std::thread> connThreads;
    std::set<int> activeConnFds;

    std::atomic<unsigned> activeRequests{0};
    std::atomic<u64> inflightCells{0};

    mutable std::mutex countersMtx;
    Counters stats;
};

} // namespace rsep::serve

#endif // RSEP_SERVE_SERVER_HH
