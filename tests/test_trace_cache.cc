/**
 * @file
 * Trace data-path tests: envelope::readFile / readTrailer (errors name
 * the path, empty and multi-MiB files read back exactly), the trace
 * file readers (every truncated prefix and every on-disk corruption is
 * diagnosed), and DecodedTraceCache (hit/miss/keying/eviction
 * semantics, a hit reads only the trailer, decode-once under
 * concurrency, shared snapshots across runMatrix cells).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "common/envelope.hh"
#include "sim/runner.hh"
#include "sim/scenario.hh"
#include "wl/trace_cache.hh"
#include "wl/trace_io.hh"

namespace fs = std::filesystem;

namespace rsep
{
namespace
{

std::string
scratchDir(const std::string &tag)
{
    std::string dir = (fs::temp_directory_path() /
                       ("rsep_tcache_test_" + tag + "_" +
                        std::to_string(::getpid())))
                          .string();
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << content;
    ASSERT_TRUE(os.good()) << path;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

std::vector<wl::DynRecord>
sampleRecords(size_t n)
{
    std::vector<wl::DynRecord> recs;
    for (size_t i = 0; i < n; ++i) {
        wl::DynRecord r;
        r.staticIdx = static_cast<u32>(i % 37);
        r.nextIdx = static_cast<u32>((i + 1) % 37);
        r.result = 0x0123456789abcdefull ^ (static_cast<u64>(i) << 17);
        r.effAddr = i % 3 ? 0x10000000 + i * 8 : 0;
        r.taken = i % 5 == 0;
        recs.push_back(r);
    }
    return recs;
}

wl::TraceHeader
sampleHeader(u64 records)
{
    wl::TraceHeader h;
    h.workload = "sample";
    h.workloadHash = "0123456789abcdef";
    h.phase = 2;
    h.programLength = 37;
    h.records = records;
    return h;
}

/** The validated stream in record form, through its cursor. */
std::vector<wl::DynRecord>
recordsOf(const wl::DecodedTrace &t)
{
    std::vector<wl::DynRecord> out(t.size());
    wl::TraceCursor cursor(t.payload);
    for (wl::DynRecord &r : out)
        EXPECT_TRUE(cursor.next(r)) << cursor.error();
    EXPECT_EQ(cursor.remaining(), 0u);
    return out;
}

/** Write a sample trace; returns its path. */
std::string
writeSample(const std::string &dir, size_t records, u32 phase = 2)
{
    auto recs = sampleRecords(records);
    wl::TraceHeader h = sampleHeader(recs.size());
    h.phase = phase;
    std::string path = wl::tracePath(dir, h.workload, phase);
    std::string err;
    EXPECT_TRUE(wl::writeTraceFile(path, h, recs, &err)) << err;
    return path;
}

// ---------------------------------------------------- envelope::readFile

TEST(ReadFile, MissingFileErrorNamesThePath)
{
    std::string dir = scratchDir("read_missing");
    const std::string path = dir + "/nope.bin";
    std::string bytes, err;
    EXPECT_FALSE(envelope::readFile(path, bytes, &err));
    EXPECT_EQ(err.rfind(path + ": cannot open: ", 0), 0u) << err;
    err.clear();
    EXPECT_FALSE(envelope::readTrailer(path, bytes, &err));
    EXPECT_EQ(err.rfind(path + ": cannot open: ", 0), 0u) << err;
    fs::remove_all(dir);
}

TEST(ReadFile, EmptyFileReadsAsEmpty)
{
    std::string dir = scratchDir("read_empty");
    std::string path = dir + "/empty.bin";
    writeFile(path, "");
    std::string bytes = "stale", err;
    ASSERT_TRUE(envelope::readFile(path, bytes, &err)) << err;
    EXPECT_TRUE(bytes.empty());
    bytes = "stale";
    ASSERT_TRUE(envelope::readTrailer(path, bytes, &err)) << err;
    EXPECT_TRUE(bytes.empty());
    fs::remove_all(dir);
}

TEST(ReadFile, SeveralMiBReadBackByteExact)
{
    std::string dir = scratchDir("read_big");
    std::string path = dir + "/big.bin";
    std::string content((5u << 20) + 12345, '\0');
    for (size_t i = 0; i < content.size(); ++i)
        content[i] = static_cast<char>(i * 131 + (i >> 13));
    writeFile(path, content);
    std::string bytes, err;
    ASSERT_TRUE(envelope::readFile(path, bytes, &err)) << err;
    EXPECT_TRUE(bytes == content);
    // The trailer read is the file's last 29 bytes: the envelope's
    // "\nchecksum = <16 hex>\n".
    ASSERT_TRUE(envelope::readTrailer(path, bytes, &err)) << err;
    EXPECT_EQ(bytes, content.substr(content.size() - 29));
    fs::remove_all(dir);
}

// --------------------------------------------------- trace file readers

TEST(TraceFileRead, OnDiskCorruptionIsDiagnosedByBothReaders)
{
    std::string dir = scratchDir("zc_corrupt");
    std::string path = writeSample(dir, 300);
    std::string image = slurp(path);

    auto errOfFile = [&](const std::string &tag, std::string img) {
        std::string p = dir + "/" + tag + ".rtr";
        writeFile(p, img);
        wl::TraceParse t = wl::readTraceFile(p);
        EXPECT_FALSE(t.ok()) << tag;
        // The loader rejects the same bytes the same way.
        wl::DecodedTraceParse d = wl::loadDecodedTrace(p);
        EXPECT_FALSE(d.ok()) << tag;
        return t.error;
    };

    // Truncations at every structural boundary: mid-header, mid-payload,
    // mid-trailer, empty.
    EXPECT_NE(errOfFile("t1", image.substr(0, 30)).find("bad"),
              std::string::npos);
    EXPECT_NE(errOfFile("t2", image.substr(0, image.size() - 40))
                  .find("truncated"),
              std::string::npos);
    EXPECT_NE(errOfFile("t3", image.substr(0, image.size() - 5))
                  .find("truncated"),
              std::string::npos);
    EXPECT_FALSE(errOfFile("t4", "").empty());

    // Flipped payload byte.
    std::string flip = image;
    flip[image.find("payload\n") + 8 + 50] ^= 0x20;
    EXPECT_NE(errOfFile("t5", flip).find("checksum mismatch"),
              std::string::npos);

    // Absurd record count (the reserve-abort guard).
    std::string lie = image;
    size_t at = lie.find("records = 300");
    lie.replace(at, 13, "records = 99999999999999");
    EXPECT_NE(errOfFile("t6", lie).find("exceeds"), std::string::npos);

    // A retired v1 file is refused as an unsupported version, not
    // misread as v2.
    std::string v1 = image;
    v1.replace(0, v1.find('\n'), "rsep-trace 1");
    EXPECT_NE(errOfFile("t7", v1).find("unsupported rsep-trace version 1"),
              std::string::npos);

    fs::remove_all(dir);
}

TEST(TraceFileRead, EveryTruncatedPrefixIsRejected)
{
    auto recs = sampleRecords(40);
    std::string image = wl::serializeTrace(sampleHeader(recs.size()), recs);
    // Each proper prefix — cut in the header, the payload or the
    // trailer — must come back as a diagnostic, never as a trace.
    for (size_t len = 0; len < image.size(); ++len) {
        wl::DecodedTraceParse d =
            wl::decodeTraceImage(image.substr(0, len), "<prefix>");
        EXPECT_FALSE(d.ok()) << "prefix of " << len << " bytes accepted";
        EXPECT_EQ(d.error.rfind("<prefix>: ", 0), 0u)
            << "prefix of " << len << " bytes: '" << d.error << "'";
    }
    EXPECT_TRUE(wl::decodeTraceImage(image, "<full>").ok());
}

// ---------------------------------------------- DecodedTraceCache

TEST(DecodedTraceCache, MissThenHitSharesOneSnapshot)
{
    std::string dir = scratchDir("cache_hit");
    std::string path = writeSample(dir, 400);

    wl::DecodedTraceCache cache;
    auto a = cache.get(path);
    ASSERT_TRUE(a.ok()) << a.error;
    EXPECT_FALSE(a.hit);
    auto b = cache.get(path);
    ASSERT_TRUE(b.ok()) << b.error;
    EXPECT_TRUE(b.hit);
    EXPECT_EQ(a.trace.get(), b.trace.get()); // the same decoded object.

    auto s = cache.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.evictions, 0u);
    EXPECT_EQ(s.residentBytes, a.trace->payload.size());
    EXPECT_GT(s.residentBytes, 0u);

    cache.resetStats();
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().residentBytes, a.trace->payload.size());
    fs::remove_all(dir);
}

TEST(DecodedTraceCache, HitReadsOnlyTheTrailer)
{
    std::string dir = scratchDir("cache_trailer");
    std::string path = writeSample(dir, 400);
    wl::DecodedTraceCache cache;
    auto a = cache.get(path);
    ASSERT_TRUE(a.ok()) << a.error;

    // Flip a payload byte in place; the trailer, and so the key, stays.
    std::string image = slurp(path);
    const size_t at = image.find("payload\n") + 8 + 50;
    {
        std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(static_cast<std::streamoff>(at));
        f.put(static_cast<char>(image[at] ^ 0x20));
        ASSERT_TRUE(f.good());
    }
    ASSERT_FALSE(wl::loadDecodedTrace(path).ok()); // the payload is bad.

    // A hit never reads the payload: it returns the first snapshot.
    auto b = cache.get(path);
    ASSERT_TRUE(b.ok()) << b.error;
    EXPECT_TRUE(b.hit);
    EXPECT_EQ(b.trace.get(), a.trace.get());
    fs::remove_all(dir);
}

TEST(DecodedTraceCache, OverwrittenFileMissesByChecksumKey)
{
    std::string dir = scratchDir("cache_key");
    std::string path = writeSample(dir, 200);
    wl::DecodedTraceCache cache;
    auto a = cache.get(path);
    ASSERT_TRUE(a.ok()) << a.error;
    EXPECT_EQ(a.trace->size(), 200u);

    // Same path, new bytes (e.g. re-recorded at a bigger sizing): the
    // checksum key must force a fresh decode, never stale records.
    writeSample(dir, 250);
    auto b = cache.get(path);
    ASSERT_TRUE(b.ok()) << b.error;
    EXPECT_FALSE(b.hit);
    EXPECT_EQ(b.trace->size(), 250u);
    EXPECT_EQ(cache.stats().misses, 2u);
    // The old snapshot the first caller holds is untouched.
    EXPECT_EQ(a.trace->size(), 200u);
    fs::remove_all(dir);
}

TEST(DecodedTraceCache, LruEvictionIsBoundedAndKeepsInUseDataAlive)
{
    std::string dir = scratchDir("cache_lru");
    std::string p0 = writeSample(dir, 1000, /*phase=*/0);
    std::string p1 = writeSample(dir, 1000, /*phase=*/1);
    std::string p2 = writeSample(dir, 1000, /*phase=*/2);

    // The three files carry the same records: one payload size each.
    const u64 one = wl::loadDecodedTrace(p0).trace->payload.size();
    wl::DecodedTraceCache cache(/*capacity_bytes=*/2 * one);
    auto a = cache.get(p0);
    auto b = cache.get(p1);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(cache.stats().residentBytes, 2 * one);

    // Touch p0 so p1 is the LRU victim when p2 lands.
    EXPECT_TRUE(cache.get(p0).hit);
    auto c = cache.get(p2);
    ASSERT_TRUE(c.ok());
    auto s = cache.stats();
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.residentBytes, 2 * one);
    EXPECT_TRUE(cache.get(p0).hit);   // survived (recently used).
    EXPECT_FALSE(cache.get(p1).hit);  // evicted: decodes again.
    // The evicted snapshot `b` holds is still fully usable.
    EXPECT_EQ(b.trace->size(), 1000u);
    EXPECT_EQ(recordsOf(*b.trace)[999].nextIdx,
              sampleRecords(1000)[999].nextIdx);

    // Capacity 0 = unlimited: no evictions however much lands.
    wl::DecodedTraceCache unbounded(0);
    unbounded.get(p0);
    unbounded.get(p1);
    unbounded.get(p2);
    EXPECT_EQ(unbounded.stats().evictions, 0u);
    fs::remove_all(dir);
}

TEST(DecodedTraceCache, CorruptFilesAreNotCached)
{
    std::string dir = scratchDir("cache_err");
    std::string path = writeSample(dir, 100);
    std::string image = slurp(path);
    writeFile(path, image.substr(0, image.size() - 7)); // truncate.

    wl::DecodedTraceCache cache;
    auto a = cache.get(path);
    EXPECT_FALSE(a.ok());
    EXPECT_NE(a.error.find("truncated"), std::string::npos);
    auto b = cache.get(path);
    EXPECT_FALSE(b.ok()); // still an error, not a poisoned hit.
    EXPECT_EQ(cache.stats().residentBytes, 0u);

    // Fixing the file heals the lookup.
    writeFile(path, image);
    auto c = cache.get(path);
    ASSERT_TRUE(c.ok()) << c.error;
    fs::remove_all(dir);
}

TEST(DecodedTraceCache, ConcurrentColdLookupsDecodeOnce)
{
    std::string dir = scratchDir("cache_mt");
    std::string path = writeSample(dir, 5000);

    for (int round = 0; round < 8; ++round) {
        wl::DecodedTraceCache cache;
        constexpr int kThreads = 8;
        std::vector<std::shared_ptr<const wl::DecodedTrace>> got(kThreads);
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t)
            threads.emplace_back([&, t] {
                auto r = cache.get(path);
                ASSERT_TRUE(r.ok()) << r.error;
                got[t] = r.trace;
            });
        for (auto &th : threads)
            th.join();
        auto s = cache.stats();
        EXPECT_EQ(s.misses, 1u) << "decode-once must hold under racing "
                                   "cold lookups";
        EXPECT_EQ(s.hits, static_cast<u64>(kThreads - 1));
        for (int t = 1; t < kThreads; ++t)
            EXPECT_EQ(got[t].get(), got[0].get());
    }
    fs::remove_all(dir);
}

// ------------------------------------- shared decode across runMatrix

sim::SimConfig
tinyConfig(const char *label_base)
{
    sim::SimConfig cfg = sim::findScenario("rsep")->config;
    cfg.label = label_base;
    cfg.warmupInsts = 1'000;
    cfg.measureInsts = 3'000;
    cfg.checkpoints = 2;
    cfg.seed = 0x5eed;
    return cfg;
}

TEST(TraceCacheMatrix, CellsShareOneDecodePerTrace)
{
    std::string dir = scratchDir("matrix_share");
    sim::SimConfig base = tinyConfig("cache-a");
    sim::SimConfig other = tinyConfig("cache-b");
    other.mech = sim::findScenario("vpred")->config.mech;
    std::vector<sim::SimConfig> configs = {base, other};
    std::vector<std::string> benches = {"gobmk", "sjeng"};

    sim::MatrixOptions rec_opts;
    rec_opts.jobs = 2;
    rec_opts.progress = false;
    rec_opts.traceIo.recordDir = dir;
    auto live = sim::runMatrix({base}, benches, rec_opts);

    // 2 benches x 2 checkpoints = 4 traces; 2 configs replay them =
    // 8 cells. The 4 first touches decode, the other 4 share — the
    // decode-once-replay-many invariant, irrespective of which worker
    // thread got which cell.
    wl::traceCache().clear();
    sim::MatrixOptions rep_opts;
    rep_opts.jobs = 4;
    rep_opts.progress = false;
    rep_opts.traceIo.replayDir = dir;
    auto rep = sim::runMatrix(configs, benches, rep_opts);

    u64 hits = 0, misses = 0, load_micros_cells = 0;
    for (const auto &row : rep)
        for (const sim::RunResult &rr : row.byConfig) {
            hits += rr.timing.traceDecodeHits.value();
            misses += rr.timing.traceDecodeMisses.value();
            load_micros_cells += rr.timing.cellsRun.value();
        }
    EXPECT_EQ(misses, 4u);
    EXPECT_EQ(hits, 4u);
    EXPECT_EQ(load_micros_cells, 8u);

    // And the shared-decode replay still reproduces live bit for bit
    // (config 0 matches its recording run).
    for (size_t b = 0; b < rep.size(); ++b)
        for (size_t p = 0; p < rep[b].byConfig[0].phases.size(); ++p) {
            const sim::PhaseResult &l = live[b].byConfig[0].phases[p];
            const sim::PhaseResult &r = rep[b].byConfig[0].phases[p];
            EXPECT_EQ(l.stats.committedInsts.value(),
                      r.stats.committedInsts.value());
            EXPECT_EQ(l.stats.cycles.value(), r.stats.cycles.value());
            EXPECT_EQ(l.engineStats, r.engineStats);
        }

    // A warm second sweep replays with zero fresh decodes.
    sim::MatrixOptions warm_opts;
    warm_opts.jobs = 4;
    warm_opts.progress = false;
    warm_opts.traceIo.replayDir = dir;
    auto warm = sim::runMatrix(configs, benches, warm_opts);
    u64 warm_hits = 0, warm_misses = 0;
    for (const auto &row : warm)
        for (const sim::RunResult &rr : row.byConfig) {
            warm_hits += rr.timing.traceDecodeHits.value();
            warm_misses += rr.timing.traceDecodeMisses.value();
        }
    EXPECT_EQ(warm_misses, 0u);
    EXPECT_EQ(warm_hits, 8u);

    wl::traceCache().clear();
    fs::remove_all(dir);
}

} // namespace
} // namespace rsep
