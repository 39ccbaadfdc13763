/**
 * @file
 * Result-cache garbage-collection tests (`rsep_merge --gc`): filename
 * parsing, stale-hash removal against a live scenario set, quarantine
 * cleanup, the LRU-by-mtime size cap, dry runs, and the invariant that
 * a collected cache still serves its live records.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include <unistd.h>

#include "common/fault.hh"
#include "sim/cache_gc.hh"
#include "sim/result_cache.hh"
#include "sim/scenario.hh"

namespace fs = std::filesystem;

namespace rsep::sim
{
namespace
{

std::string
scratchDir(const std::string &tag)
{
    std::string dir = (fs::temp_directory_path() /
                       ("rsep_gc_test_" + tag + "_" +
                        std::to_string(::getpid())))
                          .string();
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

PhaseResult
samplePhase()
{
    PhaseResult pr;
    pr.ipc = 1.25;
    pr.stats.cycles += 1000;
    pr.stats.committedInsts += 1250;
    pr.engineStats.emplace_back("engine.test.counter", 7);
    return pr;
}

/** Store one record and return its path. */
std::string
storeCell(ResultCache &cache, const std::string &bench,
          const std::string &hash, u32 phase)
{
    CacheKey key{bench, hash, phase, 0x5eed};
    EXPECT_TRUE(cache.store(key, samplePhase()));
    return cache.cellPath(key);
}

TEST(CacheGc, CellFileConfigHashParsing)
{
    EXPECT_EQ(cellFileConfigHash(
                  "2ca460ee67616cb1-p3-s0000000000005eed.cell"),
              "2ca460ee67616cb1");
    EXPECT_EQ(cellFileConfigHash(
                  "0123456789abcdef-p12-s00000000deadbeef.cell"),
              "0123456789abcdef");
    // Non-records parse to empty (and are never touched by the GC).
    EXPECT_EQ(cellFileConfigHash("README"), "");
    EXPECT_EQ(cellFileConfigHash("2ca460ee67616cb1-p3.cell"), "");
    EXPECT_EQ(cellFileConfigHash(
                  "XYZ460ee67616cb1-p3-s0000000000005eed.cell"),
              "");
    EXPECT_EQ(cellFileConfigHash(
                  "2ca460ee67616cb1-px-s0000000000005eed.cell"),
              "");
    EXPECT_EQ(cellFileConfigHash(
                  "2ca460ee67616cb1-p3-s0000000000005eed.corrupt"),
              "");
}

TEST(CacheGc, StaleRecordsAreRemovedLiveOnesKept)
{
    std::string dir = scratchDir("stale");
    ResultCache cache(dir);
    std::string live_hash = "aaaaaaaaaaaaaaaa";
    std::string dead_hash = "bbbbbbbbbbbbbbbb";
    std::string live0 = storeCell(cache, "mcf", live_hash, 0);
    std::string live1 = storeCell(cache, "hmmer", live_hash, 1);
    std::string dead0 = storeCell(cache, "mcf", dead_hash, 0);
    // A bystander file the GC must not touch.
    std::ofstream(dir + "/NOTES.txt") << "hands off\n";

    GcOptions opts;
    opts.cacheDir = dir;
    opts.liveHashes = {live_hash};
    GcReport report;
    ASSERT_EQ(runCacheGc(opts, report), "");
    EXPECT_EQ(report.scannedFiles, 3u);
    EXPECT_EQ(report.staleRemoved, 1u);
    EXPECT_EQ(report.keptFiles, 2u);
    EXPECT_TRUE(fs::exists(live0));
    EXPECT_TRUE(fs::exists(live1));
    EXPECT_FALSE(fs::exists(dead0));
    EXPECT_TRUE(fs::exists(dir + "/NOTES.txt"));

    // The surviving records still load.
    ResultCache reread(dir);
    CacheKey key{"mcf", live_hash, 0, 0x5eed};
    auto hit = reread.load(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(std::bit_cast<u64>(hit->ipc),
              std::bit_cast<u64>(samplePhase().ipc));
    fs::remove_all(dir);
}

TEST(CacheGc, EmptyLiveSetKeepsEverything)
{
    std::string dir = scratchDir("keepall");
    ResultCache cache(dir);
    storeCell(cache, "mcf", "aaaaaaaaaaaaaaaa", 0);
    storeCell(cache, "mcf", "bbbbbbbbbbbbbbbb", 0);

    GcOptions opts;
    opts.cacheDir = dir;
    GcReport report;
    ASSERT_EQ(runCacheGc(opts, report), "");
    EXPECT_EQ(report.staleRemoved, 0u);
    EXPECT_EQ(report.keptFiles, 2u);
    fs::remove_all(dir);
}

TEST(CacheGc, QuarantineDebrisIsCollected)
{
    std::string dir = scratchDir("corrupt");
    ResultCache cache(dir);
    std::string cell = storeCell(cache, "mcf", "aaaaaaaaaaaaaaaa", 0);
    std::ofstream(cell + ".corrupt") << "quarantined garbage\n";

    GcOptions opts;
    opts.cacheDir = dir;
    GcReport report;
    ASSERT_EQ(runCacheGc(opts, report), "");
    EXPECT_EQ(report.corruptRemoved, 1u);
    EXPECT_FALSE(fs::exists(cell + ".corrupt"));
    EXPECT_TRUE(fs::exists(cell));
    fs::remove_all(dir);
}

TEST(CacheGc, InjectedQuarantineAccumulationCollectsAndRepopulates)
{
    fault::disarmAll();
    std::string dir = scratchDir("quarantine_accum");
    ResultCache cache(dir);
    std::string hash = "cccccccccccccccc";
    std::string err;

    // Two torn publishes via fault injection, two loads: the loader
    // leaves two distinct .corrupt files — debris accumulates, it is
    // never silently overwritten.
    ASSERT_TRUE(fault::armFromSpec(
        "cache.write:fail=truncate:bytes=40:count=2", &err))
        << err;
    CacheKey k0{"mcf", hash, 0, 0x5eed};
    CacheKey k1{"mcf", hash, 1, 0x5eed};
    EXPECT_TRUE(cache.store(k0, samplePhase()));
    EXPECT_TRUE(cache.store(k1, samplePhase()));
    EXPECT_FALSE(cache.load(k0).has_value());
    EXPECT_FALSE(cache.load(k1).has_value());
    EXPECT_TRUE(fs::exists(cache.cellPath(k0) + ".corrupt"));
    EXPECT_TRUE(fs::exists(cache.cellPath(k1) + ".corrupt"));
    EXPECT_EQ(cache.counters().quarantined, 2u);

    // `rsep_merge --gc` removes exactly the quarantined files; the
    // live record survives.
    std::string live = storeCell(cache, "mcf", hash, 2);
    GcOptions opts;
    opts.cacheDir = dir;
    GcReport report;
    ASSERT_EQ(runCacheGc(opts, report), "");
    EXPECT_EQ(report.corruptRemoved, 2u);
    EXPECT_FALSE(fs::exists(cache.cellPath(k0) + ".corrupt"));
    EXPECT_FALSE(fs::exists(cache.cellPath(k1) + ".corrupt"));
    EXPECT_TRUE(fs::exists(live));

    // A re-run repopulates the collected cells and serves them again.
    EXPECT_TRUE(cache.store(k0, samplePhase()));
    EXPECT_TRUE(cache.store(k1, samplePhase()));
    EXPECT_TRUE(cache.load(k0).has_value());
    EXPECT_TRUE(cache.load(k1).has_value());
    fault::disarmAll();
    fs::remove_all(dir);
}

TEST(CacheGc, LruEvictsOldestUntilCapFits)
{
    std::string dir = scratchDir("lru");
    ResultCache cache(dir);
    std::string oldest = storeCell(cache, "mcf", "aaaaaaaaaaaaaaaa", 0);
    std::string middle = storeCell(cache, "mcf", "aaaaaaaaaaaaaaaa", 1);
    std::string newest = storeCell(cache, "mcf", "aaaaaaaaaaaaaaaa", 2);
    // Deterministic mtime order regardless of filesystem resolution.
    auto now = fs::last_write_time(newest);
    fs::last_write_time(oldest, now - std::chrono::hours(2));
    fs::last_write_time(middle, now - std::chrono::hours(1));

    u64 per_file = fs::file_size(newest);
    GcOptions opts;
    opts.cacheDir = dir;
    opts.maxBytes = 2 * per_file; // room for two of the three.
    GcReport report;
    ASSERT_EQ(runCacheGc(opts, report), "");
    EXPECT_EQ(report.lruRemoved, 1u);
    EXPECT_FALSE(fs::exists(oldest));
    EXPECT_TRUE(fs::exists(middle));
    EXPECT_TRUE(fs::exists(newest));
    EXPECT_EQ(report.keptFiles, 2u);
    EXPECT_LE(report.keptBytes, opts.maxBytes);
    fs::remove_all(dir);
}

TEST(CacheGc, DryRunRemovesNothing)
{
    std::string dir = scratchDir("dry");
    ResultCache cache(dir);
    std::string live = storeCell(cache, "mcf", "aaaaaaaaaaaaaaaa", 0);
    std::string dead = storeCell(cache, "mcf", "bbbbbbbbbbbbbbbb", 0);

    GcOptions opts;
    opts.cacheDir = dir;
    opts.liveHashes = {"aaaaaaaaaaaaaaaa"};
    opts.maxBytes = 1; // would evict everything if it acted.
    opts.dryRun = true;
    GcReport report;
    ASSERT_EQ(runCacheGc(opts, report), "");
    EXPECT_EQ(report.staleRemoved, 1u);
    EXPECT_GE(report.lruRemoved, 1u);
    EXPECT_TRUE(fs::exists(live));
    EXPECT_TRUE(fs::exists(dead));
    fs::remove_all(dir);
}

TEST(CacheGc, MissingDirectoryIsAnError)
{
    GcOptions opts;
    opts.cacheDir = "/nonexistent/rsep-gc-nowhere";
    GcReport report;
    EXPECT_NE(runCacheGc(opts, report), "");
    opts.cacheDir.clear();
    EXPECT_NE(runCacheGc(opts, report), "");
}

TEST(CacheGc, LiveHashesFromScenarioSetMatchRealRecords)
{
    // End-to-end shape of the rsep_merge --gc flow: records stored
    // under a real scenario's config hash survive a GC keyed by that
    // scenario; records under a perturbed config do not.
    std::string dir = scratchDir("scn");
    ResultCache cache(dir);
    SimConfig live_cfg = findScenario("rsep")->config;
    SimConfig dead_cfg = live_cfg;
    dead_cfg.checkpoints += 1;
    std::string live = storeCell(cache, "mcf", configHash(live_cfg), 0);
    std::string dead = storeCell(cache, "mcf", configHash(dead_cfg), 0);

    GcOptions opts;
    opts.cacheDir = dir;
    opts.liveHashes = {configHash(live_cfg)};
    GcReport report;
    ASSERT_EQ(runCacheGc(opts, report), "");
    EXPECT_TRUE(fs::exists(live));
    EXPECT_FALSE(fs::exists(dead));
    fs::remove_all(dir);
}

} // namespace
} // namespace rsep::sim
