/**
 * @file
 * Result-cache tests: record serialization round-trips a PhaseResult
 * exactly, hits/misses behave, every corruption mode (garbage,
 * truncation, version drift, wrong-key echo, a record in the previous
 * version's layout) quarantines instead of serving bad data,
 * concurrent stores of one cell never tear it, and a warm-cache
 * runMatrix re-simulates nothing while producing bit-identical results.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "common/envelope.hh"
#include "common/fault.hh"
#include "common/fnv.hh"
#include "sim/result_cache.hh"
#include "sim/runner.hh"
#include "sim/scenario.hh"
#include "sim/stat_export.hh"

namespace fs = std::filesystem;

namespace rsep::sim
{
namespace
{

SimConfig
shrunk(SimConfig c)
{
    c.warmupInsts = 1'000;
    c.measureInsts = 3'000;
    c.checkpoints = 2;
    c.seed = 0x5eed;
    return c;
}

/** A scratch cache directory, removed on scope exit. */
struct TempDir
{
    std::string path;

    TempDir()
    {
        path = (fs::temp_directory_path() /
                ("rsep-cache-test-" +
                 std::to_string(::getpid()) + "-" +
                 std::to_string(counter()++)))
                   .string();
    }
    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
    static int &
    counter()
    {
        static int n = 0;
        return n;
    }
};

void
expectSamePhase(const PhaseResult &a, const PhaseResult &b)
{
    EXPECT_EQ(a.ipc, b.ipc); // bit-equal, not approximately.
    core::PipelineStats sa = a.stats, sb = b.stats;
    visitStats(sa, [&](const char *name, StatCounter &c) {
        u64 other = 0;
        visitStats(sb, [&](const char *n2, StatCounter &c2) {
            if (std::string(name) == n2)
                other = c2.value();
        });
        EXPECT_EQ(c.value(), other) << name;
    });
    for (size_t i = 0; i < sa.commitGroupProducers.buckets(); ++i)
        EXPECT_EQ(sa.commitGroupProducers.bucket(i),
                  sb.commitGroupProducers.bucket(i))
            << "bucket " << i;
    ASSERT_EQ(a.engineStats.size(), b.engineStats.size());
    for (size_t i = 0; i < a.engineStats.size(); ++i) {
        EXPECT_EQ(a.engineStats[i].first, b.engineStats[i].first);
        EXPECT_EQ(a.engineStats[i].second, b.engineStats[i].second);
    }
}

TEST(ResultCache, RecordRoundTripIsExact)
{
    SimConfig cfg = shrunk(findScenario("rsep")->config);
    PhaseResult pr = runPhase(cfg, "hmmer", 0);
    CacheKey key{"hmmer", configHash(cfg), 0, cfg.seed};

    std::string body = ResultCache::serializeRecord(key, pr);
    PhaseResult back;
    std::string err = ResultCache::parseRecord(body, key, back);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_TRUE(back.fromCache);
    expectSamePhase(pr, back);
    EXPECT_EQ(back.wallMicros, pr.wallMicros);
}

TEST(ResultCache, HitMissAndKeyEcho)
{
    TempDir tmp;
    ResultCache cache(tmp.path);
    ASSERT_TRUE(cache.enabled());

    SimConfig cfg = shrunk(findScenario("baseline")->config);
    PhaseResult pr = runPhase(cfg, "mcf", 0);
    CacheKey key{"mcf", configHash(cfg), 0, cfg.seed};

    EXPECT_FALSE(cache.load(key).has_value()); // cold.
    ASSERT_TRUE(cache.store(key, pr));
    auto hit = cache.load(key);
    ASSERT_TRUE(hit.has_value());
    expectSamePhase(pr, *hit);

    // Other phases/benchmarks miss.
    EXPECT_FALSE(cache.load({"mcf", key.configHash, 1, cfg.seed}));
    EXPECT_FALSE(cache.load({"namd", key.configHash, 0, cfg.seed}));

    ResultCache::Counters c = cache.counters();
    EXPECT_EQ(c.hits, 1u);
    EXPECT_EQ(c.misses, 3u);
    EXPECT_EQ(c.stores, 1u);
    EXPECT_EQ(c.quarantined, 0u);

    // A record reached through the wrong filename (the key echo does
    // not match) is quarantined, not served.
    CacheKey other{"namd", key.configHash, 0, cfg.seed};
    fs::create_directories(
        fs::path(cache.cellPath(other)).parent_path());
    fs::copy_file(cache.cellPath(key), cache.cellPath(other));
    EXPECT_FALSE(cache.load(other).has_value());
    EXPECT_TRUE(fs::exists(cache.cellPath(other) + ".corrupt"));
    EXPECT_EQ(cache.counters().quarantined, 1u);
}

TEST(ResultCache, CorruptionQuarantines)
{
    TempDir tmp;
    ResultCache cache(tmp.path);

    SimConfig cfg = shrunk(findScenario("baseline")->config);
    PhaseResult pr = runPhase(cfg, "hmmer", 1);
    CacheKey key{"hmmer", configHash(cfg), 1, cfg.seed};
    std::string path = cache.cellPath(key);

    auto corrupt_with = [&](const std::string &text) {
        ASSERT_TRUE(cache.store(key, pr));
        {
            std::ofstream os(path, std::ios::binary | std::ios::trunc);
            os << text;
        }
        EXPECT_FALSE(cache.load(key).has_value());
        EXPECT_FALSE(fs::exists(path)) << "corrupt record left in place";
        EXPECT_TRUE(fs::exists(path + ".corrupt"));
        fs::remove(path + ".corrupt");
    };

    // Plain garbage.
    corrupt_with("not a cache record at all\n");

    // Flipped payload byte under a stale checksum.
    {
        ASSERT_TRUE(cache.store(key, pr));
        std::ifstream is(path, std::ios::binary);
        std::string text((std::istreambuf_iterator<char>(is)),
                         std::istreambuf_iterator<char>());
        size_t digit = text.find("ipc_bits = ");
        ASSERT_NE(digit, std::string::npos);
        text[digit + 11] = text[digit + 11] == '0' ? '1' : '0';
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os << text;
    }
    EXPECT_FALSE(cache.load(key).has_value());
    EXPECT_TRUE(fs::exists(path + ".corrupt"));
    fs::remove(path + ".corrupt");

    // Truncation (torn write without the atomic rename).
    {
        ASSERT_TRUE(cache.store(key, pr));
        std::ifstream is(path, std::ios::binary);
        std::string text((std::istreambuf_iterator<char>(is)),
                         std::istreambuf_iterator<char>());
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os << text.substr(0, text.size() / 2);
    }
    EXPECT_FALSE(cache.load(key).has_value());

    // Version drift.
    PhaseResult back;
    std::string body = ResultCache::serializeRecord(key, pr);
    const std::string current =
        "rsep-cell-cache " + std::to_string(resultCacheVersion);
    body.replace(body.find(current), current.size(), "rsep-cell-cache 9");
    EXPECT_FALSE(ResultCache::parseRecord(body, key, back).empty());

    // After all that abuse a fresh store still works.
    ASSERT_TRUE(cache.store(key, pr));
    EXPECT_TRUE(cache.load(key).has_value());
}

TEST(ResultCache, PreviousVersionRecordIsQuarantined)
{
    TempDir tmp;
    ResultCache cache(tmp.path);

    SimConfig cfg = shrunk(findScenario("baseline")->config);
    PhaseResult pr = runPhase(cfg, "mcf", 0);
    CacheKey key{"mcf", configHash(cfg), 0, cfg.seed};

    // The version-1 layout: the key echo and the same counter lines as
    // one text body, then `checksum = <fnv1a64(body)>`. It is
    // self-consistent, so only the version check can turn it away.
    std::string image = ResultCache::serializeRecord(key, pr);
    envelope::Opened cur = envelope::open(
        image, "rsep-cell-cache", resultCacheVersion,
        {"benchmark", "config_hash", "phase", "seed"}, "test");
    ASSERT_TRUE(cur.ok()) << cur.error;
    std::string body = "rsep-cell-cache 1\nbenchmark = " + key.benchmark +
                       "\nconfig_hash = " + key.configHash +
                       "\nphase = " + std::to_string(key.phase) +
                       "\nseed = " + hex64(key.seed) + "\n" +
                       std::string(cur.payload);
    std::string path = cache.cellPath(key);
    fs::create_directories(fs::path(path).parent_path());
    {
        std::ofstream os(path, std::ios::binary);
        os << body << "checksum = " << hex64(fnv1a64(body)) << "\n";
    }

    EXPECT_FALSE(cache.load(key).has_value());
    EXPECT_FALSE(fs::exists(path));
    EXPECT_TRUE(fs::exists(path + ".corrupt"));
    ResultCache::Counters c = cache.counters();
    EXPECT_EQ(c.hits, 0u);
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.quarantined, 1u);
}

TEST(ResultCache, InjectedStoreFaultsFailCleanOrQuarantine)
{
    fault::disarmAll();
    TempDir tmp;
    ResultCache cache(tmp.path);

    SimConfig cfg = shrunk(findScenario("baseline")->config);
    PhaseResult pr = runPhase(cfg, "mcf", 0);
    CacheKey key{"mcf", configHash(cfg), 0, cfg.seed};
    std::string path = cache.cellPath(key);
    std::string err;

    // cache.write errno: the store fails, nothing is published.
    ASSERT_TRUE(fault::armFromSpec("cache.write:fail=enospc", &err))
        << err;
    EXPECT_FALSE(cache.store(key, pr));
    EXPECT_FALSE(fs::exists(path));
    EXPECT_GE(cache.counters().ioErrors, 1u);

    // cache.rename errno: the publish fails, and no temp debris stays
    // behind to confuse a later GC.
    ASSERT_TRUE(fault::armFromSpec("cache.rename:fail=enospc", &err))
        << err;
    EXPECT_FALSE(cache.store(key, pr));
    EXPECT_FALSE(fs::exists(path));
    EXPECT_TRUE(fs::is_empty(fs::path(path).parent_path()));

    // cache.write truncate: the torn record PUBLISHES — simulated
    // silent on-disk corruption. The next load must quarantine it, and
    // an unarmed re-store repopulates the cell.
    ASSERT_TRUE(fault::armFromSpec("cache.write:fail=truncate:bytes=64",
                                   &err))
        << err;
    EXPECT_TRUE(cache.store(key, pr));
    EXPECT_TRUE(fs::exists(path));
    EXPECT_FALSE(cache.load(key).has_value());
    EXPECT_FALSE(fs::exists(path));
    EXPECT_TRUE(fs::exists(path + ".corrupt"));
    EXPECT_GE(cache.counters().quarantined, 1u);

    EXPECT_TRUE(cache.store(key, pr));
    auto hit = cache.load(key);
    ASSERT_TRUE(hit.has_value());
    expectSamePhase(pr, *hit);
    fault::disarmAll();
}

TEST(ResultCache, ConcurrentStoresOfOneCellNeverTear)
{
    // Two pool threads can store the same cell (two daemon requests
    // sharing an uncached cell). Each store needs its own temp file: a
    // shared one interleaves the writers, and the rename then either
    // fails or publishes a torn record.
    fault::disarmAll();
    TempDir tmp;
    ResultCache cache(tmp.path);
    CacheKey key{"mcf", "0123456789abcdef", 0, 0x5eed};
    constexpr int kThreads = 8;
    constexpr int kRounds = 200;

    std::atomic<int> hits{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            PhaseResult pr;
            pr.ipc = 1.5;
            for (int round = 0; round < kRounds; ++round) {
                pr.wallMicros = static_cast<u64>(round * kThreads + t);
                cache.store(key, pr);
                if (cache.load(key).has_value())
                    ++hits;
            }
        });
    for (std::thread &th : threads)
        th.join();

    ResultCache::Counters c = cache.counters();
    EXPECT_EQ(c.ioErrors, 0u);
    EXPECT_EQ(c.quarantined, 0u);
    EXPECT_EQ(c.stores, static_cast<u64>(kThreads * kRounds));
    EXPECT_EQ(hits.load(), kThreads * kRounds);
    for (const auto &e : fs::directory_iterator(
             fs::path(cache.cellPath(key)).parent_path()))
        EXPECT_EQ(e.path().filename().string().find(".tmp."),
                  std::string::npos)
            << "temp debris " << e.path();
}

TEST(ResultCache, WarmMatrixSimulatesNothingAndMatchesCold)
{
    TempDir tmp;
    std::vector<SimConfig> configs = {shrunk(findScenario("baseline")->config),
                                      shrunk(findScenario("rsep")->config)};
    std::vector<std::string> benches = {"hmmer", "mcf"};

    MatrixOptions opts;
    opts.jobs = 2;
    opts.progress = false;
    opts.cacheDir = tmp.path;

    auto cold = runMatrix(configs, benches, opts);
    auto warm = runMatrix(configs, benches, opts);

    for (size_t b = 0; b < benches.size(); ++b) {
        for (size_t c = 0; c < configs.size(); ++c) {
            const RunResult &rc = cold[b].byConfig[c];
            const RunResult &rw = warm[b].byConfig[c];
            // Cold run simulated everything...
            EXPECT_EQ(rc.timing.cellsRun.value(), rc.phases.size());
            EXPECT_EQ(rc.timing.cacheHits.value(), 0u);
            EXPECT_EQ(rc.timing.cacheMisses.value(), rc.phases.size());
            // ...the warm run simulated nothing.
            EXPECT_EQ(rw.timing.cellsRun.value(), 0u);
            EXPECT_EQ(rw.timing.cacheMisses.value(), 0u);
            EXPECT_EQ(rw.timing.cacheHits.value(), rw.phases.size());
            ASSERT_EQ(rc.phases.size(), rw.phases.size());
            for (size_t p = 0; p < rc.phases.size(); ++p)
                expectSamePhase(rc.phases[p], rw.phases[p]);
        }
    }

    // The default (timing-free) stat dump is byte-reproducible across
    // cache temperatures — the acceptance property of the cache.
    std::ostringstream csv_cold, csv_warm;
    CsvStatSink{}.write(csv_cold, collectStatRows(configs, cold));
    CsvStatSink{}.write(csv_warm, collectStatRows(configs, warm));
    EXPECT_EQ(csv_cold.str(), csv_warm.str());

    // With --timings the cache-hit counters surface in the dump.
    auto rows = collectStatRows(configs, warm, /*include_timings=*/true);
    ASSERT_FALSE(rows.empty());
    bool saw_hits = false;
    for (const auto &[name, value] : rows[0].counters)
        if (name == "timing.cache_hits") {
            saw_hits = true;
            EXPECT_EQ(value, rows[0].checkpoints);
        }
    EXPECT_TRUE(saw_hits);
}

} // namespace
} // namespace rsep::sim
