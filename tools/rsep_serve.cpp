/**
 * @file
 * rsep_serve: the warm simulation daemon (DESIGN.md §13).
 *
 * Starts a serve::Server on a Unix-domain socket and runs until
 * SIGINT/SIGTERM. Every driver becomes a client with `--connect
 * <socket>`: the daemon keeps the workload registry, the decoded-trace
 * cache and the `--cache-dir` result cache resident across requests,
 * batches concurrently-pending requests into one shared thread pool,
 * and streams each client its cells as they complete — with output
 * byte-identical to a direct run.
 */

#include <csignal>
#include <cstdio>
#include <iostream>

#include "common/cli.hh"
#include "common/fault.hh"
#include "serve/server.hh"
#include "sim/runner.hh"
#include "wl/trace_cache.hh"

using namespace rsep;

namespace
{

void
printHelp(const std::vector<cli::Option> &options)
{
    std::printf(
        "usage: rsep_serve [options]\n"
        "Warm simulation daemon: serve driver runs over a Unix socket,\n"
        "amortizing startup, trace decode and caches across requests.\n"
        "\noptions:\n");
    cli::printOptions(std::cout, options);
    std::printf(
        "\nClients: any driver with --connect PATH, e.g.\n"
        "  bench_fig4_speedup --scenario-file sweep.scn --csv out.csv \\\n"
        "      --connect rsep_serve.sock\n"
        "Stop with SIGINT/SIGTERM; in-flight requests drain first.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    fault::initFromEnv();
    serve::ServeOptions opts;

    std::vector<cli::Option> options = {
        {"socket", "PATH",
         "listen here (default: rsep_serve.sock). A stale socket file "
         "left by a dead server is replaced; a live one is an error",
         cli::store(opts.socketPath)},
        {"jobs", "N",
         "worker threads shared by all requests (0 = auto: RSEP_JOBS or "
         "the hardware thread count)",
         [&](const std::string &v) {
             std::string err;
             sim::parseJobsValue(v, opts.jobs, err);
             return err;
         },
         'j'},
        {"cache-dir", "PATH",
         "persistent per-cell result cache shared by every request",
         cli::store(opts.cacheDir)},
        {"trace-cache-mb", "N",
         "bound the decoded-trace cache (LRU); 0 = unlimited (default "
         "1024)",
         [](const std::string &v) {
             u64 mb = 0;
             std::string err = cli::parseCount(v, mb, 0, 1ull << 40);
             wl::traceCache().setCapacityBytes(mb << 20);
             return err;
         }},
        {"max-inflight-cells", "N",
         "admission control: answer Busy (with a retry-after hint) "
         "instead of queueing when the server-wide in-flight cell count "
         "would exceed N (0 = unlimited)",
         cli::storeCount(opts.maxInflightCells)},
        {"max-queue-depth", "N",
         "admission control: at most N Submit requests in flight before "
         "new ones are answered Busy (0 = unlimited)",
         cli::storeCount(opts.maxQueueDepth)},
        {"idle-timeout", "SEC",
         "reap connections idle longer than SEC between requests (0 = "
         "never)",
         cli::storeCount(opts.idleTimeoutSec)},
        {"fault", "SPEC",
         "arm deterministic fault injection (testing; same grammar as "
         "RSEP_FAULT, DESIGN.md §14)",
         [](const std::string &v) {
             std::string err;
             fault::armFromSpec(v, &err);
             return err;
         }},
        {"quiet", nullptr, "no per-request progress on stderr",
         [&](const std::string &) {
             opts.progress = false;
             return std::string();
         }},
    };

    cli::Parsed args = cli::parse(argc, argv, options);
    if (args.help) {
        printHelp(options);
        return 0;
    }
    if (args.ok() && !args.positional.empty())
        args.error = "unexpected argument '" + args.positional.front() + "'";
    if (!args.ok()) {
        std::fprintf(stderr, "rsep_serve: %s (try --help)\n",
                     args.error.c_str());
        return 2;
    }

    // Block the shutdown signals before the server spawns its threads
    // (they inherit the mask), then wait for one synchronously: no
    // async-signal-safety contortions, no handler races.
    sigset_t sigs;
    sigemptyset(&sigs);
    sigaddset(&sigs, SIGINT);
    sigaddset(&sigs, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

    serve::Server server(opts);
    std::string err;
    if (!server.start(&err)) {
        std::fprintf(stderr, "rsep_serve: %s\n", err.c_str());
        return 1;
    }

    int sig = 0;
    sigwait(&sigs, &sig);
    if (opts.progress)
        std::fprintf(stderr,
                     "[serve] %s: draining in-flight requests...\n",
                     sig == SIGTERM ? "SIGTERM" : "SIGINT");
    server.stop();

    serve::Server::Counters c = server.counters();
    wl::DecodedTraceCache::Stats tc = wl::traceCache().stats();
    if (opts.progress)
        std::fprintf(
            stderr,
            "[serve] served %llu request%s (%llu error%s): %llu cells "
            "run, %llu cache hits, %llu batched; trace decode "
            "%llu hit%s / %llu miss%s\n",
            static_cast<unsigned long long>(c.requests),
            c.requests == 1 ? "" : "s",
            static_cast<unsigned long long>(c.errors),
            c.errors == 1 ? "" : "s",
            static_cast<unsigned long long>(c.cellsRun),
            static_cast<unsigned long long>(c.cacheHits),
            static_cast<unsigned long long>(c.batchedCells),
            static_cast<unsigned long long>(tc.hits),
            tc.hits == 1 ? "" : "s",
            static_cast<unsigned long long>(tc.misses),
            tc.misses == 1 ? "" : "es");
    if (opts.progress)
        std::fprintf(
            stderr,
            "[serve] serve.retries_served=%llu "
            "serve.busy_rejections=%llu\n",
            static_cast<unsigned long long>(c.retriesServed),
            static_cast<unsigned long long>(c.busyRejections));
    return 0;
}
