/**
 * @file
 * Stat-export tests: matrix results flatten into rows keyed by
 * (benchmark, scenario, config hash), per-engine counters surface in
 * the dump, and the CSV and table sinks produce well-formed output.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "sim/scenario.hh"
#include "sim/stat_export.hh"

namespace rsep::sim
{
namespace
{

SimConfig
shrunk(SimConfig c)
{
    c.warmupInsts = 2'000;
    c.measureInsts = 6'000;
    c.checkpoints = 1;
    c.seed = 0x5eed;
    return c;
}

struct TinyMatrix
{
    std::vector<SimConfig> configs;
    std::vector<MatrixRow> rows;
    std::vector<StatRow> stats;
};

const TinyMatrix &
tinyMatrix()
{
    static const TinyMatrix m = [] {
        TinyMatrix t;
        t.configs = {shrunk(findScenario("baseline")->config),
                     shrunk(findScenario("rsep")->config)};
        MatrixOptions opts;
        opts.jobs = 2;
        opts.progress = false;
        t.rows = runMatrix(t.configs, {"hmmer"}, opts);
        t.stats = collectStatRows(t.configs, t.rows);
        return t;
    }();
    return m;
}

const StatRow *
findRow(const std::vector<StatRow> &rows, const std::string &scenario)
{
    for (const auto &r : rows)
        if (r.scenario == scenario)
            return &r;
    return nullptr;
}

u64
counterOf(const StatRow &row, const std::string &name)
{
    for (const auto &[n, v] : row.counters)
        if (n == name)
            return v;
    ADD_FAILURE() << "no counter " << name;
    return 0;
}

TEST(StatExport, RowsAreKeyedByBenchScenarioAndHash)
{
    const TinyMatrix &m = tinyMatrix();
    ASSERT_EQ(m.stats.size(), 2u); // 1 benchmark x 2 configs.

    const StatRow *base = findRow(m.stats, "baseline");
    const StatRow *rsep = findRow(m.stats, "rsep");
    ASSERT_TRUE(base && rsep);
    EXPECT_EQ(base->benchmark, "hmmer");
    EXPECT_EQ(base->checkpoints, 1u);
    EXPECT_GT(base->ipcHmean, 0.0);

    // Hashes are per-config, stable, and distinct across arms.
    EXPECT_EQ(base->configHash, configHash(m.configs[0]));
    EXPECT_EQ(rsep->configHash, configHash(m.configs[1]));
    EXPECT_NE(base->configHash, rsep->configHash);

    // Pipeline counters flatten by introspected name.
    EXPECT_EQ(counterOf(*base, "cycles"),
              m.rows[0].byConfig[0].sum(&core::PipelineStats::cycles));
    EXPECT_GT(counterOf(*base, "committed_insts"), 0u);
}

TEST(StatExport, PerEngineCountersSurface)
{
    const TinyMatrix &m = tinyMatrix();
    const StatRow *base = findRow(m.stats, "baseline");
    const StatRow *rsep = findRow(m.stats, "rsep");
    ASSERT_TRUE(base && rsep);

    // The RSEP arm carries its engines' counters...
    EXPECT_GT(counterOf(*rsep, "engine.rsep.shared"), 0u);
    counterOf(*rsep, "engine.move-elim.eliminated");
    // ...the baseline only the always-on zero-idiom engine.
    counterOf(*base, "engine.zero-idiom.eliminated");
    for (const auto &[name, value] : base->counters) {
        (void)value;
        EXPECT_EQ(name.find("engine.rsep."), std::string::npos) << name;
    }
}

TEST(StatExport, CsvIsRectangularWithUnionColumns)
{
    const TinyMatrix &m = tinyMatrix();
    std::ostringstream os;
    CsvStatSink{}.write(os, m.stats);

    std::istringstream is(os.str());
    std::string header;
    ASSERT_TRUE(std::getline(is, header));
    EXPECT_EQ(header.rfind("benchmark,scenario,config_hash,checkpoints,"
                           "ipc_hmean,",
                           0),
              0u);
    EXPECT_NE(header.find("engine.rsep.shared"), std::string::npos);

    size_t cols = std::count(header.begin(), header.end(), ',');
    std::string line;
    size_t lines = 0;
    while (std::getline(is, line)) {
        ++lines;
        EXPECT_EQ(std::count(line.begin(), line.end(), ','), (long)cols)
            << line;
    }
    EXPECT_EQ(lines, m.stats.size());
}

TEST(StatExport, CsvEscapesDelimiters)
{
    StatRow row;
    row.benchmark = "we,ird";
    row.scenario = "quo\"ted";
    row.configHash = "0123456789abcdef";
    row.checkpoints = 1;
    row.ipcHmean = 1.0;
    row.counters = {{"cycles", 1}};
    std::ostringstream os;
    CsvStatSink{}.write(os, {row});
    EXPECT_NE(os.str().find("\"we,ird\""), std::string::npos);
    EXPECT_NE(os.str().find("\"quo\"\"ted\""), std::string::npos);
}

TEST(StatExport, TableSinkListsEngineCounters)
{
    const TinyMatrix &m = tinyMatrix();
    std::ostringstream os;
    TableStatSink{}.write(os, m.stats);
    EXPECT_NE(os.str().find("hmmer"), std::string::npos);
    EXPECT_NE(os.str().find("engine.rsep.shared"), std::string::npos);
    EXPECT_EQ(os.str().find("commit_squashes"), std::string::npos)
        << "engines-only table hides raw pipeline counters";
}

} // namespace
} // namespace rsep::sim
