/**
 * @file
 * fig4-live: the paper's Fig. 4 matrix the way a user regenerates it —
 * all 29 suite benchmarks x the six Fig. 4 arms, live emulation, no
 * result cache, no traces, in-process runMatrix on one worker.
 *
 * One worker because a 4-worker matrix varied by about 15% from run to
 * run on a 4-core host while one worker repeated within about 1%. Most
 * host time lands in the cycle loop, the equality history, the
 * predictors, the memory hierarchy and the emulator, and about 70% of
 * it in the two FIFO-history arms (rsep, rsep+vpred).
 */

#include "bench.hh"
#include "wl/emulator.hh"
#include "wl/suite.hh"

namespace perfbench
{

namespace
{

// Reduced [sim] sizing: one checkpoint of 4k warmup + 20k measured
// instructions per cell (RSEP_SIM_SCALE=0.05 per-cell sizing).
constexpr u64 warmupInsts = 4000;
constexpr u64 measureInsts = 20000;
constexpr u32 checkpoints = 1;

class Fig4Live : public Workload
{
  public:
    explicit Fig4Live(const Options &o) : opt(o) {}

    void
    setup(Tracer &tr) override
    {
        out.configs.clear();
        for (const std::string &arm : fig4Arms())
            out.configs.push_back(armConfig(arm, warmupInsts, measureInsts,
                                            checkpoints,
                                            seededDraw(opt.seed, 0)));
        benches = rsep::wl::suiteNames();
        // Workload build: every suite program plus its checkpoint data.
        for (const std::string &b : benches) {
            Tracer::Span s = tr.span("wl.makeWorkload+init");
            rsep::wl::Workload w = rsep::wl::makeWorkload(b);
            rsep::wl::Emulator emu(w.program);
            emu.resetArchState();
            w.init(emu, 0);
        }
    }

    void
    run(PassStats &ps, double min_seconds, std::size_t min_requests,
        Tracer &tr) override
    {
        rsep::sim::MatrixOptions mo;
        mo.jobs = 1;
        mo.progress = false;
        do {
            // One runMatrix per benchmark row, so a host-speed sample can
            // sit between rows; the cells and their order are the same as
            // one full-matrix call on one worker.
            for (const std::string &b : benches) {
                auto t0 = Clock::now();
                SimOutput row{out.configs, {}};
                {
                    Tracer::Span s = tr.span("sim.runMatrix");
                    row.rows = rsep::sim::runMatrix(out.configs, {b}, mo);
                }
                double secs = secondsSince(t0);
                accountMatrix(row, ps, true);
                ps.closeChunk(secs, hostSpeed());
                if (out.rows.size() == benches.size())
                    out.rows.clear();
                out.rows.push_back(std::move(row.rows[0]));
            }
        } while (ps.seconds < min_seconds ||
                 ps.requestMs.size() < min_requests);
    }

    std::size_t
    minRequests() const override
    {
        return rsep::wl::suiteNames().size() * fig4Arms().size() *
               checkpoints;
    }

    std::vector<std::string>
    benchmarks() const override
    {
        return rsep::wl::suiteNames();
    }

    std::vector<SimOutput> lastOutput() const override { return {out}; }

    void layerMetrics(LayerMetrics &, Tracer &) override {}

  private:
    Options opt;
    std::vector<std::string> benches;
    SimOutput out;
};

} // namespace

std::unique_ptr<Workload>
makeFig4Live(const Options &opt)
{
    return std::make_unique<Fig4Live>(opt);
}

} // namespace perfbench
