#include <sys/resource.h>

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.hh"
#include "common/fnv.hh"
#include "sim/scenario.hh"
#include "sim/stat_export.hh"

namespace perfbench
{

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

void
PassStats::closeChunk(double secs, double speed)
{
    double scale = speed / referenceHostSpeed;
    seconds += secs;
    scaledSeconds += secs * scale;
    for (std::size_t i = chunkStart; i < requestMs.size(); ++i)
        requestMs[i] *= scale;
    chunkStart = requestMs.size();
    hostSpeed.push_back(speed);
}

void
setLayer(LayerMetrics &m, const std::string &name, double value)
{
    auto it = m.find(name);
    if (it == m.end())
        throw std::logic_error("undeclared per-layer metric " + name);
    it->second.value = value;
}

const std::vector<std::string> &
fig4Arms()
{
    static const std::vector<std::string> arms = {
        "baseline", "zero-pred", "move-elim", "rsep", "vpred", "rsep+vpred"};
    return arms;
}

rsep::sim::SimConfig
armConfig(const std::string &arm, u64 warmup, u64 measure, u32 checkpoints,
          u64 seed)
{
    std::optional<rsep::sim::Scenario> sc = rsep::sim::findScenario(arm);
    if (!sc)
        throw std::invalid_argument("unknown arm " + arm);
    rsep::sim::SimConfig cfg = sc->config;
    cfg.warmupInsts = warmup;
    cfg.measureInsts = measure;
    cfg.checkpoints = checkpoints;
    cfg.seed = seed;
    return cfg;
}

std::string
armKey(const std::string &label)
{
    std::string key = label;
    for (char &c : key)
        if (c == '+')
            c = '-';
    return key;
}

u64
seededDraw(u64 seed, u64 stream)
{
    u64 z = seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull +
            0x94d049bb133111ebull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

void
accountMatrix(const SimOutput &out, PassStats &ps, bool cells_are_requests)
{
    for (const rsep::sim::MatrixRow &row : out.rows) {
        if (row.byConfig.size() != out.configs.size())
            throw std::logic_error("matrix row does not match its configs");
        for (std::size_t c = 0; c < out.configs.size(); ++c) {
            const rsep::sim::SimConfig &cfg = out.configs[c];
            const rsep::sim::RunResult &rr = row.byConfig[c];
            for (u32 p = 0; p < cfg.checkpoints; ++p) {
                if (p >= rr.phases.size()) {
                    ps.tally.add(Outcome::BadOutput);
                    continue;
                }
                const rsep::sim::PhaseResult &ph = rr.phases[p];
                u64 committed = ph.stats.committedInsts.value();
                bool ok = committed >= cfg.measureInsts &&
                          committed < cfg.measureInsts + cfg.core.commitWidth &&
                          ph.stats.cycles.value() > 0;
                ps.tally.add(ok ? Outcome::Ok : Outcome::BadOutput);
                ps.insts += committed;
                ++ps.cells;
                if (cells_are_requests)
                    ps.requestMs.push_back(
                        static_cast<double>(ph.wallMicros) / 1e3);
            }
        }
    }
}

std::string
canonicalCsv(const SimOutput &out)
{
    std::ostringstream os;
    rsep::sim::CsvStatSink{}.write(
        os, rsep::sim::collectStatRows(out.configs, out.rows, false));
    return os.str();
}

double
digest53(const std::string &s)
{
    return static_cast<double>(rsep::fnv1a64(s) >> 11);
}

namespace
{
std::vector<u64> calibTable(1 << 15, 1); ///< 256 KiB: L2-resident.
u64 calibState = 1;
} // namespace

double
hostSpeed()
{
    constexpr u64 steps = 1000000;
    auto t0 = Clock::now();
    u64 x = calibState;
    for (u64 k = 0; k < steps; ++k) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        u64 &slot = calibTable[(x >> 40) & (calibTable.size() - 1)];
        if (slot & 1)
            slot += x;
        else
            slot ^= x >> 3;
    }
    calibState = x;
    return static_cast<double>(steps) / 1e6 / secondsSince(t0);
}

u64
stealTicks()
{
    // "cpu  user nice system idle iowait irq softirq steal ..."
    std::ifstream is("/proc/stat");
    std::string cpu;
    u64 field[8] = {};
    is >> cpu;
    for (u64 &f : field)
        is >> f;
    return is && cpu == "cpu" ? field[7] : 0;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

} // namespace perfbench
