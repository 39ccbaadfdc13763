#include "sim/runner.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <mutex>
#include <thread>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "sim/result_cache.hh"
#include "sim/stat_export.hh"
#include "sim/thread_pool.hh"
#include "wl/trace_cache.hh"

namespace rsep::sim
{

unsigned
resolveJobs(unsigned requested)
{
    if (requested > 0)
        return requested;
    u64 env = envU64("RSEP_JOBS", 0); // warns when set but malformed.
    if (env > maxJobs) {
        rsep_warn("RSEP_JOBS=%llu exceeds the %u-thread ceiling; "
                  "using auto",
                  static_cast<unsigned long long>(env), maxJobs);
        env = 0;
    }
    if (env > 0)
        return static_cast<unsigned>(env);
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

bool
parseJobsValue(const std::string &s, unsigned &jobs, std::string &err)
{
    u64 v = 0;
    if (!parseU64(s, v)) {
        err = "invalid jobs count '" + s +
              "' (expected an unsigned integer, 0 = auto)";
        return false;
    }
    if (v > maxJobs) {
        err = "jobs count '" + s + "' exceeds the ceiling of " +
              std::to_string(maxJobs);
        return false;
    }
    jobs = static_cast<unsigned>(v);
    return true;
}

namespace
{

/**
 * The single definition of the jobs-flag grammar. When argv[i] is a
 * jobs argument, reports the raw value string (nullptr when the flag
 * is dangling) and how many argv entries it spans (1 or 2).
 */
bool
matchJobsArg(int argc, char **argv, int i, const char *&value, int &span)
{
    const char *a = argv[i];
    if (std::strcmp(a, "--jobs") == 0 || std::strcmp(a, "-j") == 0) {
        value = i + 1 < argc ? argv[i + 1] : nullptr;
        span = i + 1 < argc ? 2 : 1;
        return true;
    }
    if (std::strncmp(a, "--jobs=", 7) == 0) {
        value = a + 7;
        span = 1;
        return true;
    }
    if (std::strncmp(a, "-j", 2) == 0 && a[2] != '\0') {
        value = a + 2;
        span = 1;
        return true;
    }
    return false;
}

} // namespace

bool
parseJobsArg(int argc, char **argv, unsigned &jobs, std::string &err)
{
    for (int i = 1; i < argc; ++i) {
        const char *value = nullptr;
        int span = 0;
        if (!matchJobsArg(argc, argv, i, value, span))
            continue;
        if (!value) {
            err = std::string(argv[i]) + " requires a value (0 = auto)";
            return false;
        }
        return parseJobsValue(value, jobs, err);
    }
    return true; // absent: leave jobs untouched (0 = auto).
}

PhaseResult
runCachedCell(ResultCache *cache, const SimConfig &cfg,
              const std::string &benchmark,
              const std::string &config_hash, u32 phase,
              const TraceIoOptions &trace_io, u64 sample_every)
{
    bool use_cache = cache && cache->enabled();
    CacheKey key{benchmark, config_hash, phase, cfg.seed};
    if (use_cache)
        if (std::optional<PhaseResult> pr = cache->load(key))
            return std::move(*pr);
    PhaseResult pr = runPhase(cfg, benchmark, phase, trace_io,
                              sample_every);
    if (use_cache)
        cache->store(key, pr);
    return pr;
}

std::vector<MatrixRow>
runMatrix(const std::vector<SimConfig> &configs,
          const std::vector<std::string> &benchmarks,
          const MatrixOptions &opts)
{
    // Preallocate every result slot so workers write disjoint memory:
    // cell (b, c, p) -> rows[b].byConfig[c].phases[p]. The layout (and
    // the per-cell seed, see runPhase) depends only on the inputs,
    // never on scheduling, which makes the matrix bit-identical at any
    // thread count — and, because shard assignment and the cache key
    // hang off the same cell identity, at any shard split or cache
    // temperature too.
    ShardPlan plan = planShard(configs, benchmarks, opts.shard);
    const std::vector<std::string> &hashes = plan.configHashes;

    std::vector<MatrixRow> rows(benchmarks.size());
    size_t total_cells = 0;
    for (size_t b = 0; b < benchmarks.size(); ++b) {
        rows[b].benchmark = benchmarks[b];
        rows[b].byConfig.resize(configs.size());
        for (size_t c = 0; c < configs.size(); ++c) {
            RunResult &rr = rows[b].byConfig[c];
            rr.benchmark = benchmarks[b];
            rr.configLabel = configs[c].label;
            rr.inShard = plan.selected[b][c];
            if (!rr.inShard)
                continue; // another shard's run: no phases at all.
            rr.phases.resize(configs[c].checkpoints);
            total_cells += configs[c].checkpoints;
        }
    }

    ResultCache cache(opts.cacheDir);
    // Sampling bypasses the result cache: a cached cell has only
    // end-of-run totals, no timeline, and silently sample-less cells
    // would poison merged series. Warn once instead of per cell.
    bool use_cache = cache.enabled() && !opts.sampling.active();
    if (cache.enabled() && opts.sampling.active())
        rsep_warn("sampling: --sample-every bypasses the result cache "
                  "(cached cells cannot produce timelines); cells will "
                  "be re-simulated");

    unsigned jobs = resolveJobs(opts.jobs);
    if (opts.progress) {
        std::fprintf(stderr,
                     "[matrix] %zu benchmarks x %zu configs = %zu cells "
                     "on %u thread%s",
                     benchmarks.size(), configs.size(), total_cells, jobs,
                     jobs == 1 ? "" : "s");
        if (opts.shard.active())
            std::fprintf(stderr, " (shard %u/%u: %zu of %zu runs)",
                         opts.shard.index, opts.shard.count,
                         plan.selectedRuns, plan.totalRuns);
        if (use_cache)
            std::fprintf(stderr, " [cache %s]", cache.dir().c_str());
        if (opts.sampling.active())
            std::fprintf(stderr, " [sample every %llu -> %s]",
                         static_cast<unsigned long long>(
                             opts.sampling.every),
                         opts.sampling.dir.c_str());
        if (!opts.traceIo.replayDir.empty())
            std::fprintf(stderr, " [replay %s]",
                         opts.traceIo.replayDir.c_str());
        if (!opts.traceIo.recordDir.empty())
            std::fprintf(stderr, " [record %s]",
                         opts.traceIo.recordDir.c_str());
        std::fprintf(stderr, "\n");
    }

    std::atomic<size_t> done{0};
    std::mutex progress_mtx;

    // One pool task per cell: the cell computes from its own seed into
    // its own slot, so which worker runs it never changes a result.
    auto run_cell = [&](size_t b, size_t c, u32 p) {
        rows[b].byConfig[c].phases[p] = runCachedCell(
            use_cache ? &cache : nullptr, configs[c], benchmarks[b],
            hashes[c], p, opts.traceIo, opts.sampling.every);
        size_t k = ++done;
        if (opts.progress) {
            const PhaseResult &ph = rows[b].byConfig[c].phases[p];
            std::lock_guard<std::mutex> lk(progress_mtx);
            std::fprintf(
                stderr,
                "[%s] %-12s %-20s ckpt %u ipc=%.3f (%zu/%zu)\n",
                ph.fromCache    ? "hit"
                : ph.replayed   ? "rpl"
                                : "run",
                benchmarks[b].c_str(), configs[c].label.c_str(), p,
                ph.ipc, k, total_cells);
        }
    };

    ThreadPool pool(jobs);
    for (size_t b = 0; b < benchmarks.size(); ++b) {
        for (size_t c = 0; c < configs.size(); ++c) {
            if (!plan.selected[b][c])
                continue;
            for (u32 p = 0; p < configs[c].checkpoints; ++p)
                pool.submit([&run_cell, b, c, p] { run_cell(b, c, p); });
        }
    }
    pool.wait();

    // Timing/cache accounting runs after the barrier: checkpoints of
    // one run land on different workers, so accumulating RunTiming
    // inside the tasks would race.
    for (auto &row : rows) {
        for (RunResult &rr : row.byConfig) {
            if (!rr.inShard)
                continue;
            for (const PhaseResult &ph : rr.phases) {
                accountPhaseTiming(rr.timing, ph);
                if (use_cache && !ph.fromCache)
                    ++rr.timing.cacheMisses;
            }
        }
    }

    // Flush sample series post-barrier (single-threaded; the rows are
    // deterministic so flush order never affects file bytes). The
    // timeline rows are transient — moved out of the results here, not
    // carried into stat export.
    if (opts.sampling.active()) {
        TimeSeriesSink sink(opts.sampling.dir);
        for (size_t b = 0; b < benchmarks.size(); ++b) {
            for (size_t c = 0; c < configs.size(); ++c) {
                RunResult &rr = rows[b].byConfig[c];
                if (!rr.inShard)
                    continue;
                for (u32 p = 0; p < rr.phases.size(); ++p) {
                    SampleSeriesHeader h;
                    h.workload = benchmarks[b];
                    h.scenario = configs[c].label;
                    h.configHash = hashes[c];
                    h.phase = p;
                    h.period = opts.sampling.every;
                    sink.add(std::move(h),
                             std::move(rr.phases[p].samples));
                    rr.phases[p].samples.clear();
                }
            }
        }
        size_t n = sink.queued();
        std::string err;
        if (!sink.flush(&err))
            rsep_warn("sampling: %s", err.c_str());
        else if (opts.progress)
            std::fprintf(stderr, "[samples] wrote %zu series to %s\n", n,
                         opts.sampling.dir.c_str());
    }

    if (opts.progress && use_cache) {
        ResultCache::Counters cc = cache.counters();
        std::fprintf(stderr,
                     "[cache] %llu hit%s, %llu miss%s, %llu stored, "
                     "%llu quarantined, %llu io error%s\n",
                     static_cast<unsigned long long>(cc.hits),
                     cc.hits == 1 ? "" : "s",
                     static_cast<unsigned long long>(cc.misses),
                     cc.misses == 1 ? "" : "es",
                     static_cast<unsigned long long>(cc.stores),
                     static_cast<unsigned long long>(cc.quarantined),
                     static_cast<unsigned long long>(cc.ioErrors),
                     cc.ioErrors == 1 ? "" : "s");
    }
    if (opts.progress && !opts.traceIo.replayDir.empty()) {
        wl::DecodedTraceCache::Stats ts = wl::traceCache().stats();
        std::fprintf(stderr,
                     "[trace-cache] %llu hit%s, %llu miss%s, %llu "
                     "evicted, %.1f MB resident, %.3f s decoding\n",
                     static_cast<unsigned long long>(ts.hits),
                     ts.hits == 1 ? "" : "s",
                     static_cast<unsigned long long>(ts.misses),
                     ts.misses == 1 ? "" : "es",
                     static_cast<unsigned long long>(ts.evictions),
                     static_cast<double>(ts.residentBytes) / (1 << 20),
                     static_cast<double>(ts.decodeMicros) / 1e6);
    }
    return rows;
}

std::string
fmtPct(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%7.2f%%", v);
    return buf;
}

namespace
{

/** Width of a table column: the 18-character default, widened so the
 *  header @p label keeps at least one space before it. */
int
columnWidth(const std::string &label)
{
    return static_cast<int>(std::max<size_t>(18, label.size() + 1));
}

} // namespace

void
printSpeedupTable(std::ostream &os, const std::vector<MatrixRow> &rows,
                  const std::vector<SimConfig> &configs)
{
    os << std::left << std::setw(12) << "benchmark";
    for (size_t c = 1; c < configs.size(); ++c)
        os << std::right << std::setw(columnWidth(configs[c].label))
           << configs[c].label;
    os << "\n";

    std::vector<std::vector<double>> ratios(configs.size());
    for (const auto &row : rows) {
        os << std::left << std::setw(12) << row.benchmark;
        double base = row.byConfig[0].ipcHmean();
        for (size_t c = 1; c < configs.size(); ++c) {
            double pct = speedupPct(row.byConfig[c], row.byConfig[0]);
            if (base > 0.0)
                ratios[c].push_back(row.byConfig[c].ipcHmean() / base);
            os << std::right << std::setw(columnWidth(configs[c].label))
               << fmtPct(pct);
        }
        os << "\n";
    }
    os << std::left << std::setw(12) << "gmean";
    for (size_t c = 1; c < configs.size(); ++c) {
        double g = geometricMean(ratios[c]);
        os << std::right << std::setw(columnWidth(configs[c].label))
           << fmtPct(g > 0.0 ? (g - 1.0) * 100.0 : 0.0);
    }
    os << "\n";
}

void
printPctTable(std::ostream &os, const std::vector<MatrixRow> &rows,
              const std::vector<std::string> &col_names,
              const std::function<double(const MatrixRow &, size_t col)>
                  &cell)
{
    os << std::left << std::setw(12) << "benchmark";
    for (const auto &name : col_names)
        os << std::right << std::setw(columnWidth(name)) << name;
    os << "\n";
    for (const auto &row : rows) {
        os << std::left << std::setw(12) << row.benchmark;
        for (size_t c = 0; c < col_names.size(); ++c)
            os << std::right << std::setw(columnWidth(col_names[c]))
               << fmtPct(cell(row, c));
        os << "\n";
    }
}

} // namespace rsep::sim
