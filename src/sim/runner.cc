#include "sim/runner.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
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
#include "sim/scenario.hh"
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

bool
matchJobsArg(int argc, char **argv, int &i, unsigned &jobs,
             std::string &err)
{
    const char *a = argv[i];
    const char *value = nullptr;
    if (std::strcmp(a, "--jobs") == 0 || std::strcmp(a, "-j") == 0) {
        if (i + 1 >= argc) {
            err = std::string(a) + " requires a value (0 = auto)";
            return true;
        }
        value = argv[++i];
    } else if (std::strncmp(a, "--jobs=", 7) == 0) {
        value = a + 7;
    } else if (std::strncmp(a, "-j", 2) == 0 && a[2] != '\0') {
        value = a + 2;
    } else {
        return false;
    }
    err.clear();
    parseJobsValue(value, jobs, err);
    return true;
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

MatrixPlan
planMatrix(const std::vector<SimConfig> &configs,
           const std::vector<std::string> &benchmarks,
           const ShardSpec &shard)
{
    MatrixPlan plan;
    plan.configHashes.reserve(configs.size());
    for (const SimConfig &cfg : configs)
        plan.configHashes.push_back(configHash(cfg));

    plan.rows.resize(benchmarks.size());
    for (size_t b = 0; b < benchmarks.size(); ++b) {
        plan.rows[b].benchmark = benchmarks[b];
        plan.rows[b].byConfig.resize(configs.size());
        for (size_t c = 0; c < configs.size(); ++c) {
            RunResult &rr = plan.rows[b].byConfig[c];
            rr.benchmark = benchmarks[b];
            rr.configLabel = configs[c].label;
            rr.inShard = shardOf(benchmarks[b], plan.configHashes[c],
                                 shard.count) == shard.index;
            if (!rr.inShard)
                continue; // another shard's run: no phases at all.
            rr.phases.resize(configs[c].checkpoints);
            plan.cells += configs[c].checkpoints;
            ++plan.runs;
        }
    }
    return plan;
}

void
runCells(ThreadPool &pool, const MatrixPlan &plan,
         const std::function<void(size_t b, size_t c, u32 p)> &run_cell)
{
    // A latch of this plan's own: a daemon's pool also runs other
    // requests' cells, which pool.wait() would wait for too.
    std::mutex mtx;
    std::condition_variable cv;
    size_t pending = plan.cells;
    for (size_t b = 0; b < plan.rows.size(); ++b) {
        const std::vector<RunResult> &runs = plan.rows[b].byConfig;
        for (size_t c = 0; c < runs.size(); ++c) {
            u32 phases = static_cast<u32>(runs[c].phases.size());
            for (u32 p = 0; p < phases; ++p) {
                pool.submit([&, b, c, p] {
                    run_cell(b, c, p);
                    // Notify under the lock: the waiter cannot return
                    // (and destroy mtx and cv) before this releases it.
                    std::lock_guard<std::mutex> lk(mtx);
                    if (--pending == 0)
                        cv.notify_all();
                });
            }
        }
    }
    std::unique_lock<std::mutex> lk(mtx);
    cv.wait(lk, [&] { return pending == 0; });
}

SampleSeriesHeader
seriesHeader(const MatrixPlan &plan, const std::vector<SimConfig> &configs,
             size_t b, size_t c, u32 p, u64 every)
{
    SampleSeriesHeader h;
    h.workload = plan.rows[b].benchmark;
    h.scenario = configs[c].label;
    h.configHash = plan.configHashes[c];
    h.phase = p;
    h.period = every;
    return h;
}

void
finishMatrix(MatrixPlan &plan, const std::vector<SimConfig> &configs,
             bool use_cache, const SampleOptions &sampling, bool progress)
{
    // The sink flushes single-threaded; the rows are deterministic, so
    // flush order never affects file bytes. Timeline rows are moved
    // out here, not carried into stat export.
    TimeSeriesSink sink(sampling.dir);
    for (size_t b = 0; b < plan.rows.size(); ++b) {
        for (size_t c = 0; c < configs.size(); ++c) {
            RunResult &rr = plan.rows[b].byConfig[c];
            for (u32 p = 0; p < rr.phases.size(); ++p) {
                PhaseResult &ph = rr.phases[p];
                accountPhaseTiming(rr.timing, ph);
                if (use_cache && !ph.fromCache)
                    ++rr.timing.cacheMisses;
                if (!sampling.active())
                    continue;
                sink.add(seriesHeader(plan, configs, b, c, p,
                                      sampling.every),
                         std::move(ph.samples));
                ph.samples.clear();
            }
        }
    }
    if (!sampling.active())
        return;
    size_t n = sink.queued();
    std::string err;
    if (!sink.flush(&err))
        rsep_warn("sampling: %s", err.c_str());
    else if (progress)
        std::fprintf(stderr, "[samples] wrote %zu series to %s\n", n,
                     sampling.dir.c_str());
}

void
printCellProgress(const PhaseResult &ph, const std::string &benchmark,
                  const std::string &label, u32 p, size_t k, size_t total)
{
    std::fprintf(stderr, "[%s] %-12s %-20s ckpt %u ipc=%.3f (%zu/%zu)\n",
                 ph.fromCache    ? "hit"
                 : ph.replayed   ? "rpl"
                                 : "run",
                 benchmark.c_str(), label.c_str(), p, ph.ipc, k, total);
}

std::vector<MatrixRow>
runMatrix(const std::vector<SimConfig> &configs,
          const std::vector<std::string> &benchmarks,
          const MatrixOptions &opts)
{
    MatrixPlan plan = planMatrix(configs, benchmarks, opts.shard);

    ResultCache cache(opts.cacheDir);
    bool use_cache = matrixUsesCache(cache.enabled(), opts.sampling.every);
    if (cache.enabled() && !use_cache) // warn once, not per cell.
        rsep_warn("sampling: --sample-every bypasses the result cache "
                  "(cached cells cannot produce timelines); cells will "
                  "be re-simulated");

    unsigned jobs = resolveJobs(opts.jobs);
    if (opts.progress) {
        std::fprintf(stderr,
                     "[matrix] %zu benchmarks x %zu configs = %zu cells "
                     "on %u thread%s",
                     benchmarks.size(), configs.size(), plan.cells, jobs,
                     jobs == 1 ? "" : "s");
        if (opts.shard.active())
            std::fprintf(stderr, " (shard %u/%u: %zu of %zu runs)",
                         opts.shard.index, opts.shard.count, plan.runs,
                         benchmarks.size() * configs.size());
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

    // One pool task per cell: the cell computes from its own seed into
    // its own slot, so which worker runs it never changes a result.
    std::atomic<size_t> done{0};
    ThreadPool pool(jobs);
    runCells(pool, plan, [&](size_t b, size_t c, u32 p) {
        PhaseResult &ph = plan.rows[b].byConfig[c].phases[p];
        ph = runCachedCell(use_cache ? &cache : nullptr, configs[c],
                           benchmarks[b], plan.configHashes[c], p,
                           opts.traceIo, opts.sampling.every);
        size_t k = ++done;
        if (opts.progress)
            printCellProgress(ph, benchmarks[b], configs[c].label, p, k,
                              plan.cells);
    });
    finishMatrix(plan, configs, use_cache, opts.sampling, opts.progress);

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
    return std::move(plan.rows);
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
