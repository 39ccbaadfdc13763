/**
 * @file
 * Per-workload simulation driver: runs the configured number of
 * checkpoints (seeded phases), each with warmup + measurement, and
 * aggregates per the paper's methodology (harmonic mean of IPCs,
 * Section V).
 */

#ifndef RSEP_SIM_SIMULATOR_HH
#define RSEP_SIM_SIMULATOR_HH

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/sampler.hh"
#include "sim/sim_config.hh"
#include "wl/suite.hh"
#include "wl/trace_io.hh"
#include "wl/workload_spec.hh"

namespace rsep::sim
{

/** Result of one checkpoint (phase). */
struct PhaseResult
{
    double ipc = 0.0;
    core::PipelineStats stats;
    /** Per-engine counters (SpeculationEngine::statEntries()),
     *  snapshot at end of measurement as "engine.<name>.<counter>" —
     *  the per-engine rows of the stat-export layer. */
    std::vector<std::pair<std::string, u64>> engineStats;
    /** Wall-clock cost of simulating this cell. For a result served
     *  from the result cache this is the *original* simulation cost
     *  (the price the cache saved), not the load time; for an aliased
     *  cell, the time taking it from the earlier arm took. */
    u64 wallMicros = 0;
    bool fromCache = false; ///< served by ResultCache, not simulated.
    /** Simulated over a recorded-trace replay instead of live
     *  emulation (transient, not part of the cached record — the
     *  replay invariant is that the results are identical). */
    bool replayed = false;
    /** Wall-clock spent getting the trace into replayable form (cache
     *  lookup + decode on a miss) — a component of wallMicros, split
     *  out so `--timings` shows data-path cost next to simulation
     *  cost. Transient, like replayed. */
    u64 traceLoadMicros = 0;
    /** The replayed trace came out of the shared DecodedTraceCache
     *  already decoded (transient; meaningful only when replayed). */
    bool traceDecodeHit = false;
    /** Label of the earlier arm this cell's result was taken from
     *  instead of simulating (sim/cell_alias.hh); empty for a simulated
     *  or cached cell. Transient, like replayed. */
    std::string aliasOf;
    /** The alias rests on shadow engines that ran in that arm's cell,
     *  not on a proof (transient). */
    bool aliasByShadow = false;
    /** Label of the arm whose snapshot this cell resumed from instead
     *  of simulating from cycle 0, and the instructions that arm had
     *  committed there (transient; empty and 0 otherwise). */
    std::string forkOf;
    u64 forkAt = 0;
    /** Time-series rows of the measurement run (`--sample-every`);
     *  empty when sampling is off. Transient, never part of the cached
     *  record: a cached cell cannot produce samples, which is why the
     *  matrix runner bypasses the result cache in sampling mode. */
    std::vector<core::StatSample> samples;
};

/**
 * Recorded-trace options of a run (`--record-trace` / `--replay-trace`
 * on every driver; see wl/trace_io.hh for the `.rtr` format).
 *
 * Replay: a cell's trace is loaded from `replayDir` and the pipeline
 * runs without a functional emulator; the stat dump is byte-identical
 * to the live-emulation run. A missing trace is fatal unless
 * `recordDir` is also set, in which case the cell falls back to live
 * emulation and records — so `--replay-trace D --record-trace D` is an
 * idempotent "use traces, fill the gaps" sweep mode. A present but
 * invalid or mismatched trace is always fatal (never silently
 * re-emulated).
 *
 * Record: live-emulated cells tee their stream and write
 * `recordDir/<workload>-p<phase>.rtr` (atomic) when the cell ends,
 * unless writeTrace is cleared. runMatrix sets it on one arm per
 * (row, phase): of the arms that run the phase, the one with the
 * longest warm-up + measurement, the first of them on a tie (config 0
 * when the arms are sized alike). So each trace has exactly one
 * writer, under `--shard` too, and every arm can replay it; the other
 * arms run live without recording. A result-cache hit on the writing
 * arm writes no trace.
 */
struct TraceIoOptions
{
    std::string recordDir;
    std::string replayDir;
    /** A live cell writes its trace to recordDir (when set). A missing
     *  replay trace falls back to live emulation either way. */
    bool writeTrace = true;

    bool active() const { return !recordDir.empty() || !replayDir.empty(); }
};

/**
 * Wall-clock and cache accounting of one run.
 * Deliberately separate from PipelineStats: these counters are
 * host-dependent, so the stat-export layer only emits them on request
 * (`--timings`) — the default dump stays bit-reproducible.
 */
struct RunTiming
{
    StatCounter wallMicros;   ///< summed per-cell simulation cost.
    StatCounter cellsRun;     ///< cells simulated or aliased.
    StatCounter cacheHits;    ///< cells served by the result cache.
    StatCounter cacheMisses;  ///< cells the cache could not serve.
    /** Trace data-path cost: wall-clock spent loading traces for
     *  replayed cells (decode on a miss, lookup on a hit) — the slice
     *  of wallMicros the decoded-trace cache exists to shrink. */
    StatCounter traceLoadMicros;
    /** Replayed cells whose trace was already decoded in the shared
     *  DecodedTraceCache / had to be decoded fresh. hits > 0 across a
     *  multi-arm sweep is the decode-once-replay-many evidence. */
    StatCounter traceDecodeHits;
    StatCounter traceDecodeMisses;
    /** Cells resumed from an earlier arm's snapshot (a subset of
     *  cellsRun). */
    StatCounter cellsForked;
};

/** Stat-introspection hook (mirrors visitStats on PipelineStats). */
template <class V>
void
visitStats(RunTiming &t, V &&v)
{
    v("timing.wall_micros", t.wallMicros);
    v("timing.cells_run", t.cellsRun);
    v("timing.cache_hits", t.cacheHits);
    v("timing.cache_misses", t.cacheMisses);
    v("timing.trace_load_micros", t.traceLoadMicros);
    v("timing.trace_decode_hits", t.traceDecodeHits);
    v("timing.trace_decode_misses", t.traceDecodeMisses);
    v("timing.cells_forked", t.cellsForked);
}

/** Result of one (workload, config) run across checkpoints. */
struct RunResult
{
    std::string benchmark;
    std::string configLabel;
    std::vector<PhaseResult> phases;
    RunTiming timing;
    /** False when a sharded matrix assigned this run to another shard
     *  (the phases are then absent, and stat export skips the row). */
    bool inShard = true;

    /** Harmonic mean of per-checkpoint IPCs (paper Section V). */
    double ipcHmean() const;

    /** Sum of a counter over phases, via a member pointer. */
    u64
    sum(StatCounter core::PipelineStats::* member) const
    {
        u64 total = 0;
        for (const auto &ph : phases)
            total += (ph.stats.*member).value();
        return total;
    }
};

/**
 * The state a live cell starts from: the workload and its emulator
 * image after Workload::init for one phase. init is a pure function of
 * (spec, phase), so every cell that starts @p workload at @p phase can
 * restore from one shared InitialState and emit the same records as
 * from a fresh init. Immutable once built.
 */
struct InitialState
{
    InitialState(wl::Workload workload, u32 phase);
    ~InitialState();
    InitialState(const InitialState &) = delete;
    InitialState &operator=(const InitialState &) = delete;

    wl::Workload workload;
    wl::EmulatorImage image;

    /** InitialStates alive in this process (lifetime checks). */
    static size_t alive();
};

/**
 * Where a live cell gets its initial state. The matrix runner hands
 * each cell a source that shares one InitialState per (row, phase);
 * an empty source means the cell initialises its own emulator.
 */
using InitialStateSource =
    std::function<std::shared_ptr<const InitialState>()>;

/** A cell's recorded trace, loaded the way replay loads it. */
struct ReplayTrace
{
    std::string path; ///< where the trace lives.
    /** The validated trace; null when none was recorded (error empty)
     *  or when it cannot feed the cell (error says why). */
    std::shared_ptr<const wl::DecodedTrace> trace;
    std::string error;
    bool decodeHit = false; ///< see PhaseResult::traceDecodeHit.
    u64 loadMicros = 0;     ///< see PhaseResult::traceLoadMicros.
};

/** Load the trace of cell (@p bench_name, @p phase) from @p dir
 *  through the shared DecodedTraceCache and check it was recorded from
 *  @p spec. */
ReplayTrace loadReplayTrace(const std::string &dir,
                            const std::string &bench_name, u32 phase,
                            const wl::WorkloadSpec &spec);

/**
 * A host cell's snapshot (core::Pipeline::requestSnapshot), from which
 * the cells of its shadows that retired later resume (DESIGN.md §20,
 * "Forks"). It keeps the program the snapshot's instructions point
 * into alive. Thread-safe: forks may run on any worker.
 */
class ForkPoint
{
  public:
    ForkPoint(std::unique_ptr<core::Pipeline> snapshot, bool in_warmup,
              bool replayed, std::shared_ptr<const void> program_owner);
    ~ForkPoint();

    /** Instructions the host had committed at the snapshot. */
    u64 committedAt() const { return at; }
    bool replayed() const { return fromReplay; }

    /** Shadow @p i was live in the snapshot (it acted later). */
    bool shadowLive(size_t i) const;

    /** The number of forks that will run: the last one takes the
     *  snapshot itself instead of a copy. */
    void setForks(size_t n);

    /** Finish the cell of shadow @p shadow's arm, @p cfg, from the
     *  snapshot with that shadow's engines promoted. The result has the
     *  engine counters of the host's and the shadow's engines, in
     *  chain order; no samples. */
    PhaseResult run(const SimConfig &cfg, size_t shadow);

  private:
    std::mutex mtx;
    std::unique_ptr<core::Pipeline> snap; ///< under mtx.
    size_t forksLeft = 0;                 ///< under mtx.
    bool inWarmup;
    bool fromReplay;
    u64 at;
    std::shared_ptr<const void> owner;
};

/**
 * A later arm whose extra engines run as a shadow in another arm's
 * cell (core::Pipeline::attachShadow, DESIGN.md §20).
 */
struct ShadowArm
{
    core::MechConfig mech;            ///< the later arm's.
    std::vector<std::string> engines; ///< its engines the shadow runs.
    /** Set by runPhase when the shadow never acted: the later arm's
     *  cell, without samples (they equal the host cell's). */
    std::optional<PhaseResult> result;
    /** Set by runPhase when the shadow acted after its host's snapshot:
     *  the later arm's cell resumes from it as shadow @c forkShadow. */
    std::shared_ptr<ForkPoint> fork;
    size_t forkShadow = 0;
};

/**
 * Run one checkpoint of @p bench_name under @p cfg. Checkpoints are
 * seeded independently (deterministic per-cell seeding), so any
 * (benchmark, config, checkpoint) cell can run on any thread and
 * produce the same PhaseResult — the unit of work of the parallel
 * matrix runner.
 *
 * @p sample_every > 0 attaches a StatSampler to the measurement run
 * and fills PhaseResult::samples with one row per @p sample_every
 * cycles (plus the final partial row). Sampling reads only
 * deterministic architectural counters, so the rows — like the stats —
 * are bit-identical at any thread count. It is a run-level knob, NOT
 * part of SimConfig: it must not perturb config hashes, cached results
 * or golden dumps.
 *
 * A live cell takes its initial state from @p initial when it is set
 * (replayed cells never ask), and otherwise builds and initialises the
 * workload itself.
 *
 * Each of @p shadows runs beside the cell's pipeline; the host cell's
 * result is the same with or without them. Unless the cell samples or
 * records a trace, the pipeline takes a snapshot when a shadow is
 * first armed, and each shadow that acts later gets a ForkPoint.
 */
PhaseResult runPhase(const SimConfig &cfg, const std::string &bench_name,
                     u32 phase, const TraceIoOptions &trace_io = {},
                     u64 sample_every = 0,
                     const InitialStateSource &initial = {},
                     std::vector<ShadowArm> *shadows = nullptr);

/** Fold one finished cell into a run's timing/cache accounting
 *  (cache misses are counted by the matrix runner, which knows
 *  whether a cache was configured at all). */
void accountPhaseTiming(RunTiming &timing, const PhaseResult &pr);

} // namespace rsep::sim

#endif // RSEP_SIM_SIMULATOR_HH
