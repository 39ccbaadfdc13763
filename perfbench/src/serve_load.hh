/**
 * @file
 * Closed-loop client of the rsep_serve daemon, written against the
 * public frame API (serve/protocol.hh) rather than runMatrixRemote:
 * runMatrixRemote exits the process on a permanent error, which would
 * hide a failure instead of counting it. Every way a request can end
 * maps to one Outcome, so failed_frac accounts for Error frames, Busy
 * rejections, transport failures and dumps that differ from the
 * reference alike.
 */

#ifndef PERFBENCH_SERVE_LOAD_HH
#define PERFBENCH_SERVE_LOAD_HH

#include <string>
#include <vector>

#include "bench.hh"
#include "serve/protocol.hh"
#include "sim/scenario.hh"

namespace perfbench
{

/** One request a client can submit, with its direct reference. */
struct ServeRequest
{
    std::vector<rsep::sim::Scenario> scenarios;
    std::vector<std::string> benchmarks;
    std::string replayDir;
    std::string scnText;       ///< serializeScenarios(scenarios).
    std::string referenceDump; ///< canonical CSV of a direct runMatrix.
    SimOutput reference;       ///< that direct run's results.
    u64 insts = 0;             ///< committed instructions over its cells.
    std::size_t cells = 0;
};

/** Build a request and its reference with a direct, uncached,
 *  one-worker runMatrix of the same cells. */
ServeRequest makeServeRequest(std::vector<rsep::sim::Scenario> scenarios,
                              std::vector<std::string> benchmarks,
                              std::string replay_dir);

/** How one submitted request ended. */
struct RequestResult
{
    Outcome outcome = Outcome::Ok;
    double latencyMs = 0.0; ///< Submit sent to Done (or failure) seen.
    double verifyMs = 0.0;  ///< reconstruct + compare the dump.
    rsep::serve::DoneSummary done;
    std::string error;      ///< diagnostic when outcome != Ok.
};

/** One client connection, reconnecting after a transport failure. */
class ServeClient
{
  public:
    explicit ServeClient(std::string socket_path);
    ~ServeClient();

    ServeClient(const ServeClient &) = delete;
    ServeClient &operator=(const ServeClient &) = delete;

    /** Submit @p req and drain its reply. Never throws on a daemon or
     *  transport failure: the outcome says what happened. */
    RequestResult submit(const ServeRequest &req, u64 request_id,
                         Tracer &tr);

  private:
    bool ensureConnected(std::string &err);
    void disconnect();

    std::string path;
    int fd = -1;
};

/** Per-request service accounting a load run collects. */
struct ServeSamples
{
    std::vector<double> queueWaitMs;
    std::vector<double> serverWallMs;
    std::vector<double> transportMs; ///< client latency - server wall.
    std::vector<double> verifyMs;
};

/** Fold one finished request into the run's stats. */
void accountRequest(const ServeRequest &req, const RequestResult &r,
                    PassStats &ps, ServeSamples &ss);

} // namespace perfbench

#endif // PERFBENCH_SERVE_LOAD_HH
