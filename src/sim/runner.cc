#include "sim/runner.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <optional>
#include <thread>

#include "common/env.hh"
#include "common/logging.hh"
#include "sim/cell_alias.hh"
#include "sim/result_cache.hh"
#include "sim/scenario.hh"
#include "sim/stat_export.hh"
#include "sim/thread_pool.hh"
#include "wl/trace_cache.hh"
#include "wl/workload_spec.hh"

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

namespace
{

/** A cell of a plan. */
struct CellRef
{
    size_t b;
    size_t c;
    u32 p;
};

/**
 * The initial states of one matrix: one per (row, phase), built by the
 * first live cell that asks and dropped when the last cell of that
 * (row, phase) finishes, result-cache hits included. A running cell
 * holds its own reference. A state is also keyed by the workload hash
 * the row's name resolves to when a cell asks, so a workload
 * re-registered mid-run (a daemon serving other clients) is never
 * served from a stale image.
 */
class InitialStates
{
  public:
    explicit InitialStates(const MatrixPlan &plan) : plan(plan)
    {
        for (const MatrixRow &row : plan.rows)
            for (const RunResult &rr : row.byConfig)
                phases = std::max(phases, rr.phases.size());
        slots = std::vector<Slot>(plan.rows.size() * phases);
        for (size_t b = 0; b < plan.rows.size(); ++b)
            for (const RunResult &rr : plan.rows[b].byConfig)
                for (size_t p = 0; p < rr.phases.size(); ++p)
                    ++slots[b * phases + p].pending;
    }

    std::shared_ptr<const InitialState>
    acquire(size_t b, u32 p)
    {
        const std::string &bench = plan.rows[b].benchmark;
        std::optional<wl::WorkloadSpec> spec = wl::findWorkloadSpec(bench);
        std::string hash = spec ? wl::workloadHash(*spec) : std::string();
        Slot &s = slots[b * phases + p];
        // Held while building: the row's other cells need the same
        // state and wait for it instead of building their own.
        std::lock_guard<std::mutex> lk(s.mtx);
        if (!s.state || s.hash != hash) {
            s.state = std::make_shared<const InitialState>(
                spec ? wl::buildWorkload(*spec) : wl::makeWorkload(bench),
                p);
            s.hash = hash;
        }
        return s.state;
    }

    void
    finish(size_t b, u32 p)
    {
        Slot &s = slots[b * phases + p];
        std::lock_guard<std::mutex> lk(s.mtx);
        if (--s.pending == 0)
            s.state.reset();
    }

  private:
    struct Slot
    {
        std::mutex mtx;
        std::string hash;
        std::shared_ptr<const InitialState> state;
        size_t pending = 0; ///< cells of this (row, phase) not finished.
    };

    const MatrixPlan &plan;
    size_t phases = 0; ///< slots per row: the most checkpoints of any run.
    std::vector<Slot> slots;
};

/** Submit one @p pool task per cell of @p plan, calling
 *  @p run_cell(b, c, p, initial) (runCells). */
void
scheduleCells(ThreadPool &pool, const MatrixPlan &plan,
              const std::function<void(size_t b, size_t c, u32 p,
                                       const InitialStateSource &initial)>
                  &run_cell)
{
    // Cells start in benchmark -> phase -> config order whichever
    // worker runs them: each task takes the next cell off one cursor.
    // A (row, phase)'s cells are then contiguous, so its initial state
    // is built once, and a matrix holds at most one state per worker
    // (one at a time on one worker).
    std::vector<CellRef> order;
    order.reserve(plan.cells);
    for (size_t b = 0; b < plan.rows.size(); ++b) {
        const std::vector<RunResult> &runs = plan.rows[b].byConfig;
        size_t phases = 0;
        for (const RunResult &rr : runs)
            phases = std::max(phases, rr.phases.size());
        for (u32 p = 0; p < phases; ++p)
            for (size_t c = 0; c < runs.size(); ++c)
                if (p < runs[c].phases.size())
                    order.push_back({b, c, p});
    }
    InitialStates states(plan);
    std::atomic<size_t> cursor{0};

    // A latch of this plan's own: a daemon's pool also runs other
    // requests' cells, which pool.wait() would wait for too.
    std::mutex mtx;
    std::condition_variable cv;
    size_t pending = order.size();
    for (size_t i = 0; i < order.size(); ++i) {
        pool.submit([&] {
            CellRef cell = order[cursor++];
            run_cell(cell.b, cell.c, cell.p,
                     [&] { return states.acquire(cell.b, cell.p); });
            states.finish(cell.b, cell.p);
            // Notify under the lock: the waiter cannot return (and
            // destroy mtx and cv) before this releases it.
            std::lock_guard<std::mutex> lk(mtx);
            if (--pending == 0)
                cv.notify_all();
        });
    }
    std::unique_lock<std::mutex> lk(mtx);
    cv.wait(lk, [&] { return pending == 0; });
}

} // namespace

ShadowCounts
runCells(ThreadPool &pool, const std::vector<SimConfig> &configs,
         MatrixPlan &plan, ResultCache *cache, const TraceIoOptions &trace_io,
         u64 sample_every, const CellFn &done, const CellGuard &guard)
{
    // One trace writer per (row, phase), so every arm can replay what
    // was written: of the arms that run the phase, the one with the
    // longest run, the first of them on a tie (config 0 when the arms
    // are sized alike). The others run live without recording.
    auto runLength = [&](size_t k) {
        return configs[k].warmupInsts + configs[k].measureInsts;
    };
    auto cellTraceIo = [&](size_t c, u32 p) {
        TraceIoOptions io = trace_io;
        for (size_t k = 0; k < configs.size(); ++k)
            if (p < configs[k].checkpoints &&
                (runLength(k) > runLength(c) ||
                 (runLength(k) == runLength(c) && k < c)))
                io.writeTrace = false;
        return io;
    };
    auto key = [&](size_t b, size_t c, u32 p) {
        return CacheKey{plan.rows[b].benchmark, plan.configHashes[c], p,
                        configs[c].seed};
    };

    // A cell whose extra engines never act takes the result of an
    // earlier arm of its row instead (DESIGN.md §20).
    CellAliases aliases(configs, plan);
    auto storeCell = [&](size_t b, size_t c, u32 p) {
        if (cache)
            cache->store(key(b, c, p), plan.rows[b].byConfig[c].phases[p]);
    };
    auto complete = [&](size_t b, size_t c, u32 p) {
        storeCell(b, c, p);
        aliases.finish(b, c, p);
        done(b, c, p);
    };
    // A cached cell needs no shadow (a peek: the cell's own load counts
    // the hit).
    auto cachedCell = [&](size_t b, size_t c, u32 p) {
        std::error_code ec;
        return cache &&
               std::filesystem::exists(cache->cellPath(key(b, c, p)), ec);
    };
    // Simulate a cell with the shadows it hosts, then finish the hosted
    // cells that already asked for their result. A cell whose shadow
    // acted after its host's snapshot resumes from there instead (it
    // hosts nothing, and never writes the trace: its host ran first).
    std::function<void(size_t, size_t, u32, const InitialStateSource &)>
        simulate = [&](size_t b, size_t c, u32 p,
                       const InitialStateSource &initial) {
            TraceIoOptions io = cellTraceIo(c, p);
            bool records = !io.recordDir.empty() && io.writeTrace;
            if (!records && aliases.fork(b, c, p)) {
                complete(b, c, p);
                return;
            }
            CellAliases::Hosting hosting = aliases.host(
                b, c, p, io, initial,
                [&](size_t later) { return cachedCell(b, later, p); });
            plan.rows[b].byConfig[c].phases[p] =
                runPhase(configs[c], plan.rows[b].benchmark, p, io,
                         sample_every, initial, &hosting.arms);
            complete(b, c, p);
            for (size_t later : aliases.hostDone(b, p, hosting)) {
                if (aliases.takeHosted(b, later, p))
                    complete(b, later, p);
                else
                    simulate(b, later, p, initial);
            }
        };
    auto step = [&](size_t b, size_t c, u32 p,
                    const InitialStateSource &initial) {
        PhaseResult &ph = plan.rows[b].byConfig[c].phases[p];
        std::optional<PhaseResult> hit;
        if (cache)
            hit = cache->load(key(b, c, p));
        if (hit) {
            ph = std::move(*hit);
            aliases.finish(b, c, p);
            done(b, c, p);
            return;
        }
        switch (aliases.take(b, c, p, cellTraceIo(c, p), initial)) {
          case CellAliases::Deferred: // taken after the barrier.
          case CellAliases::Hosted:   // finished by its host's worker.
            return;
          case CellAliases::Simulate:
            simulate(b, c, p, initial);
            return;
          case CellAliases::Taken:
            complete(b, c, p);
            return;
        }
    };

    // One pool task per cell: the cell computes from its own seed into
    // its own slot, so which worker runs it never changes a result.
    std::atomic<bool> failed{false};
    scheduleCells(pool, plan, [&](size_t b, size_t c, u32 p,
                                  const InitialStateSource &initial) {
        if (!guard) {
            step(b, c, p, initial);
        } else if (!guard(b, c, p, [&] { step(b, c, p, initial); })) {
            // Nothing takes a failed cell's result, but the later cells
            // waiting for it to choose its shadows go on.
            aliases.hostsKnown(b, c, p);
            failed = true;
        }
    });
    if (!failed)
        aliases.takeDeferred([&](size_t b, size_t c, u32 p) {
            storeCell(b, c, p);
            done(b, c, p);
        });
    return aliases.shadowCounts();
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
    std::fprintf(stderr,
                 "[%s] %-12s %-20s ckpt %u ipc=%.3f (%zu/%zu)%s%s%s%s\n",
                 ph.fromCache          ? "hit"
                 : !ph.aliasOf.empty() ? "als"
                 : ph.replayed         ? "rpl"
                                       : "run",
                 benchmark.c_str(), label.c_str(), p, ph.ipc, k, total,
                 ph.aliasOf.empty() ? "" : " from ", ph.aliasOf.c_str(),
                 ph.aliasByShadow ? " (shadow)" : "",
                 ph.forkOf.empty()
                     ? ""
                     : (" (forked from " + ph.forkOf + " at " +
                        std::to_string(ph.forkAt) + ")")
                           .c_str());
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

    std::atomic<size_t> reported{0};
    ThreadPool pool(jobs);
    ShadowCounts sc = runCells(
        pool, configs, plan, use_cache ? &cache : nullptr, opts.traceIo,
        opts.sampling.every, [&](size_t b, size_t c, u32 p) {
            size_t k = ++reported;
            if (opts.progress)
                printCellProgress(plan.rows[b].byConfig[c].phases[p],
                                  benchmarks[b], configs[c].label, p, k,
                                  plan.cells);
        });
    finishMatrix(plan, configs, use_cache, opts.sampling, opts.progress);

    if (opts.progress && sc.run) {
        size_t taken = sc.run - sc.retired;
        std::fprintf(stderr,
                     "[shadow] %zu shadow%s run, %zu retired, %zu forked "
                     "(mean fork at %.0f%% of the window), %zu cell%s "
                     "taken\n",
                     sc.run, sc.run == 1 ? "" : "s", sc.retired, sc.forked,
                     100.0 * sc.meanForkShare, taken,
                     taken == 1 ? "" : "s");
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
    return std::move(plan.rows);
}

} // namespace rsep::sim
