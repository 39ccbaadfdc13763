/**
 * @file
 * Shared vocabulary of the benchmark: the workload interface, the
 * accumulated outcome of a timed run, and helpers every workload uses
 * (arm configs, output checks, digests, seeded choices).
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "metrics.hh"
#include "sim/runner.hh"
#include "spans.hh"

namespace perfbench
{

using rsep::u32;
using rsep::u64;
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0);

/** Command-line inputs every workload sees. */
struct Options
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workDir; ///< scratch space inside the checkout.
};

/** What the timed part delivered, summed over its passes. */
struct PassStats
{
    double seconds = 0.0;       ///< host wall time of the timed calls.
    double scaledSeconds = 0.0; ///< the same, at the reference host speed.
    u64 insts = 0;         ///< committed simulated instructions delivered.
    u64 cells = 0;         ///< cells delivered.
    /** One latency per request, at the reference host speed. */
    std::vector<double> requestMs;
    std::vector<double> hostSpeed; ///< every host-speed sample taken.
    FailureTally tally;

    /**
     * Close a timed chunk of @p secs host seconds: scale it, and the
     * request latencies appended since the previous chunk, from host
     * speed @p speed (a sample taken right after it) to the reference.
     */
    void closeChunk(double secs, double speed);

  private:
    std::size_t chunkStart = 0; ///< first request of the open chunk.
};

/** One matrix of simulated results (configs parallel byConfig). */
struct SimOutput
{
    std::vector<rsep::sim::SimConfig> configs;
    std::vector<rsep::sim::MatrixRow> rows;
};

/** Per-layer metrics by name (the traced run's output). */
using LayerMetrics = std::map<std::string, Metric>;

/** Set a per-layer metric that must already be declared. */
void setLayer(LayerMetrics &m, const std::string &name, double value);

/**
 * One named workload. setup() builds every input from scratch and may
 * be called repeatedly (setup_s is the median of several); run() is
 * the timed part.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual void setup(Tracer &tr) = 0;

    /** Run whole passes until at least @p min_seconds of timed work and
     *  @p min_requests request samples have accumulated. */
    virtual void run(PassStats &ps, double min_seconds,
                     std::size_t min_requests, Tracer &tr) = 0;

    /** Requests per run the tail percentile is fixed for. */
    virtual std::size_t minRequests() const = 0;

    /** Benchmarks this workload builds (per-layer `wl` probes). */
    virtual std::vector<std::string> benchmarks() const = 0;

    /** Simulated output of the last pass (digest, IPC gmeans). */
    virtual std::vector<SimOutput> lastOutput() const = 0;

    /** Workload-specific per-layer metrics, after a traced run(). */
    virtual void layerMetrics(LayerMetrics &m, Tracer &tr) = 0;
};

std::unique_ptr<Workload> makeFig4Live(const Options &opt);
std::unique_ptr<Workload> makeReplaySweep(const Options &opt);
std::unique_ptr<Workload> makeServeMixed(const Options &opt);

// ------------------------------------------------------------ helpers

/** The Fig. 4 arms, baseline first, as registry scenario names. */
const std::vector<std::string> &fig4Arms();

/** A registered arm with explicit sizing and seed (never the RSEP_*
 *  environment defaults). */
rsep::sim::SimConfig armConfig(const std::string &arm, u64 warmup,
                               u64 measure, u32 checkpoints, u64 seed);

/** Metric-name spelling of an arm label ("rsep+vpred" -> "rsep-vpred"). */
std::string armKey(const std::string &label);

/** splitmix64 of (seed, stream): the benchmark's only randomness. */
u64 seededDraw(u64 seed, u64 stream);

/**
 * Output check of a finished matrix: every cell committed its
 * configured measurement. The cycle loop stops at the end of the cycle
 * that reaches its target, so a count may exceed it by less than one
 * commit group (and the warm-up boundary shifts by the same); arms of
 * one (benchmark, checkpoint) therefore agree up to commit_width - 1,
 * which this bound implies. Each cell is one attempted operation in
 * @p ps, with its wall time as a request sample when
 * @p cells_are_requests.
 */
void accountMatrix(const SimOutput &out, PassStats &ps,
                   bool cells_are_requests);

/** Decode every `.rtr` file under @p dir with loadDecodedTrace (one
 *  span each); returns the host seconds spent. */
double decodeAllTraces(const std::string &dir, Tracer &tr);

/** Canonical CSV stat dump of a matrix (no host timings). */
std::string canonicalCsv(const SimOutput &out);

/** FNV-1a 64 of @p s folded to 53 bits, exact as a JSON number. */
double digest53(const std::string &s);

/**
 * Host-speed sample: Mops/s of a fixed kernel (integer multiply, an
 * unpredictable branch and random accesses to a 256 KiB table) that
 * never changes with the simulator. A shared host runs the same code
 * ±10% faster or slower from one stretch of seconds to the next; the
 * timed parts take these samples between their calls so every host-
 * time metric can be scaled to one reference speed. Takes about 10 ms.
 * One caller at a time: the kernel's table is shared.
 */
double hostSpeed();

/** Steal time the hypervisor took from every vCPU so far, in
 *  /proc/stat ticks; 0 where the file is absent. */
u64 stealTicks();

/** Host speed every host-time metric is scaled to, in Mops/s. */
constexpr double referenceHostSpeed = 100.0;

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
