/**
 * @file
 * Shard-partitioning tests: the `--shard i/N` grammar is strict, the
 * partition of the (benchmark x config) run-cell list is disjoint and
 * complete for any N, assignment is stable under scenario additions
 * (the property that keeps grown sweeps from reshuffling cached or
 * exported shards), and a sharded runMatrix marks exactly its slice.
 * The partition is read off planMatrix, the layout every matrix run
 * (direct, daemon, `--connect`) fills.
 */

#include <gtest/gtest.h>

#include <set>

#include "sim/runner.hh"
#include "sim/scenario.hh"
#include "sim/shard.hh"

namespace rsep::sim
{
namespace
{

SimConfig
shrunk(SimConfig c)
{
    c.warmupInsts = 1'000;
    c.measureInsts = 3'000;
    c.checkpoints = 1;
    c.seed = 0x5eed;
    return c;
}

TEST(Shard, ParseShardValue)
{
    ShardSpec s;
    std::string err;

    EXPECT_TRUE(parseShardValue("0/1", s, err)) << err;
    EXPECT_EQ(s.index, 0u);
    EXPECT_EQ(s.count, 1u);
    EXPECT_FALSE(s.active());

    EXPECT_TRUE(parseShardValue("3/8", s, err)) << err;
    EXPECT_EQ(s.index, 3u);
    EXPECT_EQ(s.count, 8u);
    EXPECT_TRUE(s.active());

    // (Hex is fine — the repo's number grammar accepts it everywhere,
    // so "0x1/4" is simply shard 1 of 4.)
    for (const char *bad : {"", "2", "/", "1/", "/2", "a/b", "-1/2",
                            "2/2", "5/4", "1/0", "1/99999", "1/2/3",
                            "1 /4x"}) {
        err.clear();
        EXPECT_FALSE(parseShardValue(bad, s, err)) << bad;
        EXPECT_FALSE(err.empty()) << bad;
    }
}

TEST(Shard, PartitionIsDisjointAndComplete)
{
    std::vector<SimConfig> configs = {shrunk(findScenario("baseline")->config),
                                      shrunk(findScenario("rsep")->config),
                                      shrunk(findScenario("vpred")->config)};
    std::vector<std::string> benches = {"hmmer", "mcf", "namd", "astar",
                                        "bzip2", "gcc", "omnetpp"};

    for (unsigned count : {1u, 2u, 3u, 5u}) {
        std::set<std::pair<size_t, size_t>> seen;
        size_t selected_total = 0;
        for (unsigned i = 0; i < count; ++i) {
            MatrixPlan plan = planMatrix(configs, benches, {i, count});
            ASSERT_EQ(plan.rows.size(), benches.size());
            selected_total += plan.runs;
            size_t cells = 0;
            for (size_t b = 0; b < benches.size(); ++b) {
                ASSERT_EQ(plan.rows[b].byConfig.size(), configs.size());
                for (size_t c = 0; c < configs.size(); ++c) {
                    const RunResult &rr = plan.rows[b].byConfig[c];
                    // An in-shard run has one empty slot per
                    // checkpoint; another shard's run has none.
                    EXPECT_EQ(rr.phases.size(),
                              rr.inShard ? configs[c].checkpoints : 0u);
                    cells += rr.phases.size();
                    if (rr.inShard) {
                        EXPECT_TRUE(seen.insert({b, c}).second)
                            << "cell (" << b << "," << c
                            << ") owned by two shards at N=" << count;
                    }
                }
            }
            EXPECT_EQ(plan.cells, cells);
        }
        // Complete: every cell owned by exactly one shard.
        EXPECT_EQ(seen.size(), benches.size() * configs.size())
            << "N=" << count;
        EXPECT_EQ(selected_total, benches.size() * configs.size());
    }
}

TEST(Shard, AssignmentIsStableUnderScenarioAdditions)
{
    std::vector<SimConfig> configs = {shrunk(findScenario("baseline")->config),
                                      shrunk(findScenario("rsep")->config)};
    std::vector<std::string> benches = {"hmmer", "mcf", "namd", "astar"};

    constexpr unsigned count = 4;
    std::vector<MatrixPlan> before;
    for (unsigned i = 0; i < count; ++i)
        before.push_back(planMatrix(configs, benches, {i, count}));

    // Grow the matrix: new scenarios AND new benchmarks.
    std::vector<SimConfig> more = configs;
    more.push_back(shrunk(findScenario("rsep-realistic")->config));
    more.push_back(shrunk(findScenario("vpred")->config));
    std::vector<std::string> more_benches = benches;
    more_benches.push_back("omnetpp");

    for (unsigned i = 0; i < count; ++i) {
        MatrixPlan after = planMatrix(more, more_benches, {i, count});
        for (size_t b = 0; b < benches.size(); ++b)
            for (size_t c = 0; c < configs.size(); ++c)
                EXPECT_EQ(after.rows[b].byConfig[c].inShard,
                          before[i].rows[b].byConfig[c].inShard)
                    << "cell (" << benches[b] << ", config " << c
                    << ") moved shards when the matrix grew";
    }

    // Identity-hash sanity: assignment keys on the config *hash*, so a
    // relabelled copy of a config lands on the same shard.
    SimConfig relabelled = configs[1];
    relabelled.label = "renamed-arm";
    EXPECT_EQ(shardOf("hmmer", configHash(configs[1]), count),
              shardOf("hmmer", configHash(relabelled), count));
    EXPECT_NE(cellIdentityHash("ab", "c"), cellIdentityHash("a", "bc"));
}

TEST(Shard, ShardedMatrixRunsExactlyItsSlice)
{
    std::vector<SimConfig> configs = {shrunk(findScenario("baseline")->config),
                                      shrunk(findScenario("rsep")->config)};
    std::vector<std::string> benches = {"hmmer", "mcf", "namd"};

    MatrixOptions base;
    base.jobs = 2;
    base.progress = false;
    auto full = runMatrix(configs, benches, base);

    size_t across_shards = 0;
    for (unsigned i = 0; i < 2; ++i) {
        MatrixOptions opts = base;
        opts.shard = {i, 2};
        auto rows = runMatrix(configs, benches, opts);
        MatrixPlan plan = planMatrix(configs, benches, opts.shard);
        for (size_t b = 0; b < benches.size(); ++b) {
            for (size_t c = 0; c < configs.size(); ++c) {
                const RunResult &rr = rows[b].byConfig[c];
                EXPECT_EQ(rr.inShard, plan.rows[b].byConfig[c].inShard);
                if (!rr.inShard) {
                    EXPECT_TRUE(rr.phases.empty());
                    continue;
                }
                ++across_shards;
                // The shard's cells are bit-identical to the
                // unsharded run's (same per-cell seeding).
                const RunResult &ref = full[b].byConfig[c];
                ASSERT_EQ(rr.phases.size(), ref.phases.size());
                for (size_t p = 0; p < rr.phases.size(); ++p) {
                    EXPECT_EQ(rr.phases[p].ipc, ref.phases[p].ipc);
                    EXPECT_EQ(rr.phases[p].stats.cycles.value(),
                              ref.phases[p].stats.cycles.value());
                }
            }
        }
    }
    EXPECT_EQ(across_shards, benches.size() * configs.size());
}

} // namespace
} // namespace rsep::sim
