/**
 * @file
 * replay-sweep: record once, replay many. Set-up records `.rtr` traces
 * for the branchy set (gobmk, sjeng, astar, perlbench) plus the
 * memory-bound mcf; the timed part is a decode-cold multi-arm replay
 * matrix of short windows (the replay_sweep.scn shape) over the arms
 * without the FIFO history, on one worker.
 *
 * Per-cell fixed costs and the trace data path dominate here: decode,
 * decoded-trace cache lookup, Pipeline construction, stat collection
 * and branch prediction. A change confined to the equality history
 * should leave this workload unchanged.
 */

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "bench.hh"
#include "sim/result_cache.hh"
#include "sim/scenario.hh"
#include "wl/trace_cache.hh"
#include "wl/trace_io.hh"

namespace perfbench
{

namespace
{

// Replay windows (replay_sweep.scn) out of longer recordings: 60k
// instructions per checkpoint, a fifth of replay_sweep_record.scn, so
// set-up stays short while a cell still replays only a twelfth of the
// trace it decodes.
constexpr u64 replayWarmup = 1000;
constexpr u64 replayMeasure = 4000;
constexpr u64 recordWarmup = 15000;
constexpr u64 recordMeasure = 45000;
constexpr u32 checkpoints = 4;

const std::vector<std::string> sweepBenches = {"gobmk", "sjeng", "astar",
                                               "perlbench", "mcf"};
const std::vector<std::string> sweepArms = {"baseline", "zero-pred",
                                            "move-elim", "vpred"};

/** Stat record of a cell without its host-dependent wall time. */
std::string
statRecord(const rsep::sim::SimConfig &cfg, const std::string &bench,
           u32 phase, rsep::sim::PhaseResult pr)
{
    pr.wallMicros = 0;
    rsep::sim::CacheKey key{bench, rsep::sim::configHash(cfg), phase,
                            cfg.seed};
    return rsep::sim::ResultCache::serializeRecord(key, pr);
}

class ReplaySweep : public Workload
{
  public:
    explicit ReplaySweep(const Options &o)
        : opt(o), traceDir(o.workDir + "/replay-traces")
    {
    }

    void
    setup(Tracer &tr) override
    {
        namespace fs = std::filesystem;
        fs::remove_all(traceDir);
        fs::create_directories(traceDir);
        u64 simSeed = seededDraw(opt.seed, 0);
        out.configs.clear();
        for (const std::string &arm : sweepArms)
            out.configs.push_back(armConfig(arm, replayWarmup, replayMeasure,
                                            checkpoints, simSeed));

        rsep::sim::MatrixOptions rec;
        rec.jobs = 1;
        rec.progress = false;
        rec.traceIo.recordDir = traceDir;
        auto t0 = Clock::now();
        {
            Tracer::Span s = tr.span("wl.recordTraces",
                                     sweepBenches.size() * checkpoints);
            rsep::sim::runMatrix({armConfig("baseline", recordWarmup,
                                            recordMeasure, checkpoints,
                                            simSeed)},
                                 sweepBenches, rec);
        }
        recordSeconds = secondsSince(t0);

        // One replayed cell per benchmark is re-run live; the seed picks
        // its arm and checkpoint.
        samples.clear();
        for (std::size_t k = 0; k < sweepBenches.size(); ++k) {
            Sample s;
            s.bench = k;
            s.config = seededDraw(opt.seed, 200 + k) % out.configs.size();
            s.phase = static_cast<u32>(seededDraw(opt.seed, 300 + k) %
                                       checkpoints);
            const rsep::sim::SimConfig &cfg = out.configs[s.config];
            Tracer::Span span = tr.span("sim.runPhase.live");
            s.expected = statRecord(
                cfg, sweepBenches[s.bench], s.phase,
                rsep::sim::runPhase(cfg, sweepBenches[s.bench], s.phase));
            samples.push_back(std::move(s));
        }
    }

    void
    run(PassStats &ps, double min_seconds, std::size_t min_requests,
        Tracer &tr) override
    {
        rsep::sim::MatrixOptions mo;
        mo.jobs = 1;
        mo.progress = false;
        mo.traceIo.replayDir = traceDir;
        do {
            // Decode-cold: every pass pays one decode per trace.
            rsep::wl::traceCache().clear();
            rsep::wl::traceCache().resetStats();
            auto t0 = Clock::now();
            {
                Tracer::Span s = tr.span("sim.runMatrix");
                out.rows = rsep::sim::runMatrix(out.configs, sweepBenches, mo);
            }
            double secs = secondsSince(t0);
            cacheStats = rsep::wl::traceCache().stats();
            accountMatrix(out, ps, true);
            ps.closeChunk(secs, hostSpeed());
            for (const Sample &s : samples) {
                const auto &phases = out.rows[s.bench].byConfig[s.config].phases;
                bool same = s.phase < phases.size() &&
                            statRecord(out.configs[s.config],
                                       sweepBenches[s.bench], s.phase,
                                       phases[s.phase]) == s.expected;
                ps.tally.add(same ? Outcome::Ok : Outcome::BadOutput);
            }
        } while (ps.seconds < min_seconds ||
                 ps.requestMs.size() < min_requests);
    }

    std::size_t minRequests() const override { return 1000; }

    std::vector<std::string>
    benchmarks() const override
    {
        return sweepBenches;
    }

    std::vector<SimOutput> lastOutput() const override { return {out}; }

    void
    layerMetrics(LayerMetrics &m, Tracer &tr) override
    {
        setLayer(m, "wl.trace_record_s", recordSeconds);
        setLayer(m, "wl.trace_cache.hits", static_cast<double>(cacheStats.hits));
        setLayer(m, "wl.trace_cache.misses",
                 static_cast<double>(cacheStats.misses));
        u64 lookups = cacheStats.hits + cacheStats.misses;
        setLayer(m, "wl.trace_cache.hit_ratio",
                 lookups ? static_cast<double>(cacheStats.hits) /
                               static_cast<double>(lookups)
                         : 0.0);
        setLayer(m, "wl.trace_decode_s", decodeAllTraces(traceDir, tr));
    }

  private:
    struct Sample
    {
        std::size_t bench = 0;
        std::size_t config = 0;
        u32 phase = 0;
        std::string expected;
    };

    Options opt;
    std::string traceDir;
    SimOutput out;
    std::vector<Sample> samples;
    double recordSeconds = 0.0;
    rsep::wl::DecodedTraceCache::Stats cacheStats;
};

} // namespace

double
decodeAllTraces(const std::string &dir, Tracer &tr)
{
    namespace fs = std::filesystem;
    std::vector<std::string> paths;
    for (const fs::directory_entry &e : fs::directory_iterator(dir))
        if (e.path().extension() == rsep::wl::traceFileExtension)
            paths.push_back(e.path().string());
    std::sort(paths.begin(), paths.end());
    auto t0 = Clock::now();
    for (const std::string &p : paths) {
        Tracer::Span s = tr.span("wl.loadDecodedTrace");
        rsep::wl::DecodedTraceParse d = rsep::wl::loadDecodedTrace(p);
        if (!d.ok())
            throw std::runtime_error("trace decode failed: " + d.error);
    }
    return secondsSince(t0);
}

std::unique_ptr<Workload>
makeReplaySweep(const Options &opt)
{
    return std::make_unique<ReplaySweep>(opt);
}

} // namespace perfbench
