/**
 * @file
 * Client side of the rsep_serve protocol: run an experiment matrix on
 * a warm daemon instead of in-process (`--connect <socket>` on every
 * driver).
 *
 * runMatrixRemote is a drop-in stand-in for sim::runMatrix over the
 * same (scenarios, benchmarks) request. It lays the request out with
 * the same sim::planMatrix, fills the slots from the streamed Cell
 * frames (the result-cache record format round-trips a PhaseResult
 * bit-exactly) and each cell's series from its checked Samples frame,
 * runs the same sim::finishMatrix, and finally checks its recomputed
 * canonical CSV dump against the server's Done reference — so every
 * downstream report/export path produces byte-identical output
 * whether the cells ran locally or on the daemon.
 *
 * Error discipline: *permanent* errors (a server-reported diagnostic,
 * a protocol mismatch, a diverging dump) are fatal (rsep_fatal, exit
 * 1), matching how drivers treat local setup failures. *Transient*
 * connection failures — refused connects, a daemon restarting
 * mid-drain, a dropped socket — are retried with bounded exponential
 * backoff: Submit is idempotent (results come from the bit-exact
 * result cache and the dump is hard-verified), so a resubmit returns
 * byte-identical output. When retries are exhausted the client exits
 * with a code that names the failure class (exitDaemonGone /
 * exitTruncated / exitDeadline / exitBusy below) so fleet scripts can
 * tell "daemon shut down cleanly" from "stream tore mid-frame".
 */

#ifndef RSEP_SERVE_CLIENT_HH
#define RSEP_SERVE_CLIENT_HH

#include <string>
#include <vector>

#include "sim/runner.hh"
#include "sim/scenario.hh"

namespace rsep::serve
{

// Exit codes of the remote-run path, distinct per failure class.
// 1 stays the generic rsep_fatal code for permanent errors.
constexpr int exitDaemonGone = 3; ///< connection closed cleanly (daemon
                                  ///< shut down / unreachable) after
                                  ///< all retries.
constexpr int exitTruncated = 4;  ///< stream tore mid-frame / socket
                                  ///< error after all retries.
constexpr int exitDeadline = 5;   ///< --deadline exceeded.
constexpr int exitBusy = 6;       ///< server still Busy after all
                                  ///< retries.

/** Remote-run knobs (the subset of MatrixOptions the wire carries). */
struct ClientOptions
{
    std::string socketPath;      ///< daemon socket (`--connect`).
    u64 sampleEvery = 0;         ///< `--sample-every`; 0 = off.
    std::string sampleDir = "samples"; ///< local `.rts` output dir.
    std::string replayDir;       ///< `--replay-trace`, server-side path.
    bool progress = true;        ///< per-cell lines on stderr.
    /** Keep re-trying the initial connect for this long before giving
     *  up (`--connect-timeout`, ms; 0 = a single attempt). Lets a
     *  client start before its daemon finishes warming up. */
    u64 connectTimeoutMs = 0;
    /** Hard wall-clock ceiling on the whole request including retries
     *  (`--deadline`, ms; 0 = none). Expiry exits exitDeadline. */
    u64 deadlineMs = 0;
    /** Reconnect+resubmit attempts after a transient connection
     *  failure or Busy rejection (`--retries`; 0 = fail fast). */
    unsigned maxRetries = 3;
    /** First retry backoff (doubles each retry, capped at 2 s); a
     *  server Busy hint raises — never lowers — the wait. */
    u64 backoffBaseMs = 100;
};

/**
 * Run (scenarios x benchmarks) on the daemon at opts.socketPath and
 * return rows equivalent to sim::runMatrix of the same request.
 * Benchmarks with qualified `name@hash` keys must be resolvable in the
 * local workload registry (their specs ship in the request).
 */
std::vector<sim::MatrixRow>
runMatrixRemote(const std::vector<sim::Scenario> &scenarios,
                const std::vector<std::string> &benchmarks,
                const ClientOptions &opts);

} // namespace rsep::serve

#endif // RSEP_SERVE_CLIENT_HH
