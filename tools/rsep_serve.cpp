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
#include <cstring>

#include "common/env.hh"
#include "common/fault.hh"
#include "serve/server.hh"
#include "sim/runner.hh"
#include "wl/trace_cache.hh"

using namespace rsep;

namespace
{

int
usage(int rc)
{
    std::printf(
        "usage: rsep_serve [options]\n"
        "Warm simulation daemon: serve driver runs over a Unix socket,\n"
        "amortizing startup, trace decode and caches across requests.\n"
        "\noptions:\n"
        "  --socket PATH       listen here (default: rsep_serve.sock).\n"
        "                      A stale socket file left by a dead server\n"
        "                      is replaced; a live one is an error\n"
        "  --jobs N, -jN       worker threads shared by all requests\n"
        "                      (0 = auto: RSEP_JOBS or the hardware\n"
        "                      thread count)\n"
        "  --cache-dir PATH    persistent per-cell result cache shared\n"
        "                      by every request\n"
        "  --trace-cache-mb N  bound the decoded-trace cache (LRU);\n"
        "                      0 = unlimited (default 1024)\n"
        "  --max-inflight-cells N\n"
        "                      admission control: answer Busy (with a\n"
        "                      retry-after hint) instead of queueing\n"
        "                      when the server-wide in-flight cell\n"
        "                      count would exceed N (0 = unlimited)\n"
        "  --max-queue-depth N admission control: at most N Submit\n"
        "                      requests in flight before new ones are\n"
        "                      answered Busy (0 = unlimited)\n"
        "  --idle-timeout SEC  reap connections idle longer than SEC\n"
        "                      between requests (0 = never)\n"
        "  --fault SPEC        arm deterministic fault injection\n"
        "                      (testing; same grammar as RSEP_FAULT —\n"
        "                      DESIGN.md §14)\n"
        "  --quiet             no per-request progress on stderr\n"
        "  --help, -h          show this help\n"
        "\nClients: any driver with --connect PATH, e.g.\n"
        "  bench_fig4_speedup --scenario-file sweep.scn --csv out.csv \\\n"
        "      --connect rsep_serve.sock\n"
        "Stop with SIGINT/SIGTERM; in-flight requests drain first.\n");
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    fault::initFromEnv();
    serve::ServeOptions opts;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto valueOf = [&](const char *flag, std::string &value) -> int {
            size_t n = std::strlen(flag);
            if (a.compare(0, n, flag) != 0)
                return 0;
            if (a.size() == n) {
                if (i + 1 >= argc)
                    return -1;
                value = argv[++i];
                return 1;
            }
            if (a[n] != '=')
                return 0;
            value = a.substr(n + 1);
            return 1;
        };

        if (a == "--help" || a == "-h")
            return usage(0);
        if (a == "--quiet") {
            opts.progress = false;
            continue;
        }
        std::string value, err;
        int hit;
        if ((hit = valueOf("--socket", value)) != 0) {
            if (hit < 0 || value.empty()) {
                std::fprintf(stderr,
                             "rsep_serve: --socket requires a path\n");
                return 2;
            }
            opts.socketPath = value;
            continue;
        }
        if ((hit = valueOf("--cache-dir", value)) != 0) {
            if (hit < 0 || value.empty()) {
                std::fprintf(stderr,
                             "rsep_serve: --cache-dir requires a path\n");
                return 2;
            }
            opts.cacheDir = value;
            continue;
        }
        if ((hit = valueOf("--trace-cache-mb", value)) != 0) {
            u64 mb = 0;
            if (hit < 0 || !parseU64(value, mb) || mb > (1ull << 40)) {
                std::fprintf(stderr,
                             "rsep_serve: invalid --trace-cache-mb\n");
                return 2;
            }
            wl::traceCache().setCapacityBytes(mb << 20);
            continue;
        }
        if ((hit = valueOf("--max-inflight-cells", value)) != 0) {
            if (hit < 0 || !parseU64(value, opts.maxInflightCells)) {
                std::fprintf(stderr,
                             "rsep_serve: invalid --max-inflight-cells\n");
                return 2;
            }
            continue;
        }
        if ((hit = valueOf("--max-queue-depth", value)) != 0) {
            if (hit < 0 || !parseU64(value, opts.maxQueueDepth)) {
                std::fprintf(stderr,
                             "rsep_serve: invalid --max-queue-depth\n");
                return 2;
            }
            continue;
        }
        if ((hit = valueOf("--idle-timeout", value)) != 0) {
            if (hit < 0 || !parseU64(value, opts.idleTimeoutSec)) {
                std::fprintf(stderr,
                             "rsep_serve: invalid --idle-timeout\n");
                return 2;
            }
            continue;
        }
        if ((hit = valueOf("--fault", value)) != 0) {
            if (hit < 0 || !fault::armFromSpec(value, &err)) {
                std::fprintf(stderr, "rsep_serve: %s\n",
                             hit < 0 ? "--fault requires a spec"
                                     : err.c_str());
                return 2;
            }
            continue;
        }
        if (sim::matchJobsArg(argc, argv, i, opts.jobs, err)) {
            if (!err.empty()) {
                std::fprintf(stderr, "rsep_serve: %s\n", err.c_str());
                return 2;
            }
            continue;
        }
        std::fprintf(stderr, "rsep_serve: unknown option '%s'\n",
                     a.c_str());
        return usage(2);
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
