/**
 * @file
 * perfbench — the RSEP simulator's benchmark (see perfbench/README.md).
 *
 *     perfbench --workload fig4-live|replay-sweep|serve-mixed
 *               --seed N --seconds S --trace 0|1 [--work-dir DIR]
 *
 * --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
 * ones. The last line of standard output is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.hh"
#include "layers.hh"

namespace
{

using namespace perfbench;

int
usage(const std::string &msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "fig4-live|replay-sweep|serve-mixed --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR]\n",
                 msg.c_str());
    return 2;
}

bool
parseArgs(int argc, char **argv, Options &opt, std::string &err)
{
    opt.workDir = ".bench_build/perfbench/run";
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc) {
            err = "missing value for " + a;
            return false;
        }
        std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            opt.workload = v;
        } else if (a == "--seed") {
            opt.seed = std::strtoull(v.c_str(), &end, 10);
            haveSeed = end && *end == '\0' && !v.empty();
        } else if (a == "--seconds") {
            opt.seconds = std::strtod(v.c_str(), &end);
            haveSeconds = end && *end == '\0' && opt.seconds > 0 &&
                          opt.seconds <= 3600;
        } else if (a == "--trace") {
            haveTrace = v == "0" || v == "1";
            opt.trace = v == "1";
        } else if (a == "--work-dir") {
            opt.workDir = v;
        } else {
            err = "unknown option " + a;
            return false;
        }
    }
    if (opt.workload.empty() || !haveSeed || !haveSeconds || !haveTrace) {
        err = "--workload, --seed, --seconds and --trace are required";
        return false;
    }
    return true;
}

std::unique_ptr<Workload>
makeWorkload(const Options &opt)
{
    if (opt.workload == "fig4-live")
        return makeFig4Live(opt);
    if (opt.workload == "replay-sweep")
        return makeReplaySweep(opt);
    if (opt.workload == "serve-mixed")
        return makeServeMixed(opt);
    return nullptr;
}

/** Scaled seconds per delivered cell: the unit trace overhead
 *  compares. */
double
secondsPerCell(const PassStats &ps)
{
    return ps.cells ? ps.scaledSeconds / static_cast<double>(ps.cells)
                    : 0.0;
}

/** ", <outcome> N" for every failure kind that occurred. */
std::string
failureBreakdown(const FailureTally &t)
{
    std::string out;
    for (std::size_t i = 1; i < outcomeKinds; ++i)
        if (t.byOutcome[i])
            out += std::string(", ") + outcomeName(static_cast<Outcome>(i)) +
                   " " + std::to_string(t.byOutcome[i]);
    return out;
}

int
runBenchmark(const Options &opt)
{
    std::unique_ptr<Workload> w = makeWorkload(opt);
    if (!w)
        return usage("unknown workload '" + opt.workload + "'");
    std::filesystem::create_directories(opt.workDir);

    // Host facts, so numbers are never compared across flag sets.
    std::printf("# host: nproc=%u build=%s compiler=%s flags='%s'\n",
                std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
                PERFBENCH_COMPILER, PERFBENCH_CXX_FLAGS);

    Tracer off(false);
    std::vector<Metric> metrics;
    FailureTally tally;
    unsigned tail = tailPercentile(w->minRequests());
    if (!opt.trace) {
        // Set up several times and report the median, so set-up time is
        // steady enough to bound.
        std::vector<double> setups, setupSpeed;
        for (int i = 0; i < 3; ++i) {
            setupSpeed.push_back(hostSpeed());
            auto t0 = Clock::now();
            w->setup(off);
            setups.push_back(secondsSince(t0));
        }
        setupSpeed.push_back(hostSpeed());
        PassStats ps;
        u64 steal0 = stealTicks();
        w->run(ps, opt.seconds, w->minRequests(), off);
        // Share of all vCPU time the hypervisor took during the run
        // (/proc/stat counts 100 ticks per second).
        double steal = static_cast<double>(stealTicks() - steal0) / 100.0 /
                       (ps.seconds * std::thread::hardware_concurrency());
        tally = ps.tally;
        // Host time at the reference host speed (bench.hh).
        double secs = ps.scaledSeconds;
        double n = static_cast<double>(ps.requestMs.size());
        metrics = {
            {"setup_s",
             median(setups) * median(setupSpeed) / referenceHostSpeed, "s"},
            {"sim_minst_per_s", static_cast<double>(ps.insts) / 1e6 / secs,
             "Minst/s"},
            {"cells_per_s", static_cast<double>(ps.cells) / secs, "1/s"},
            {"request_p50_ms", median(ps.requestMs), "ms"},
            {"request_tail_ms", percentile(ps.requestMs, tail), "ms"},
            {"requests_per_s", n / secs, "1/s"},
            {"peak_rss_mb", peakRssMb(), "MiB"},
        };
        std::printf("# %s: %zu requests, tail = p%u, failed_frac = %.6g "
                    "(%llu/%llu%s); host speed %.1f Mops/s (reference %.0f), "
                    "steal %.1f%%; unscaled %.6g Minst/s, %.6g requests/s\n",
                    opt.workload.c_str(), ps.requestMs.size(), tail,
                    tally.failedFrac(),
                    static_cast<unsigned long long>(tally.failed()),
                    static_cast<unsigned long long>(tally.attempted),
                    failureBreakdown(tally).c_str(),
                    median(ps.hostSpeed), referenceHostSpeed, steal * 100.0,
                    static_cast<double>(ps.insts) / 1e6 / ps.seconds,
                    n / ps.seconds);
    } else {
        Tracer tr(true);
        w->setup(tr);
        // The same amount of work untraced, then traced: the difference
        // is the tracing overhead. The traced pass is the one the
        // per-layer numbers describe.
        PassStats plain, traced;
        w->run(plain, 0.0, w->minRequests(), off);
        w->run(traced, 0.0, w->minRequests(), tr);
        tally = plain.tally;
        tally.merge(traced.tally);

        LayerMetrics layers = declaredLayerMetrics();
        w->layerMetrics(layers, tr);
        commonLayerProbes(opt, *w, layers, tr);
        double base = secondsPerCell(plain);
        setLayer(layers, "trace_overhead_pct",
                 base > 0 ? (secondsPerCell(traced) / base - 1.0) * 100.0
                          : 0.0);
        for (auto &[name, m] : layers)
            metrics.push_back(m);
        std::string spans = opt.workDir + "/spans-" + opt.workload + ".json";
        if (!tr.write(spans))
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         spans.c_str());
        std::printf("# %s traced: failed_frac = %.6g (%llu/%llu%s), spans "
                    "in %s\n",
                    opt.workload.c_str(), tally.failedFrac(),
                    static_cast<unsigned long long>(tally.failed()),
                    static_cast<unsigned long long>(tally.attempted),
                    failureBreakdown(tally).c_str(), spans.c_str());
    }
    w.reset();
    for (const char *scratch : {"replay-traces", "serve", "cache-probe"})
        std::filesystem::remove_all(opt.workDir + "/" + scratch);

    std::printf("%s\n", resultJson(tally.failed() == 0, tally.attempted,
                                   tally.failed(), metrics)
                            .c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::string err;
    if (!parseArgs(argc, argv, opt, err))
        return usage(err);
    try {
        return runBenchmark(opt);
    } catch (const std::exception &e) {
        std::fflush(stdout);
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
