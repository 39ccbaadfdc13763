/**
 * @file
 * Recorded-trace tests: the `.rtr` round-trip is bit-exact, every
 * corruption class is rejected with a diagnostic (never a partial
 * parse), and — the invariant the record/replay subsystem exists for —
 * replaying a recorded trace reproduces the live-emulation PhaseResult
 * bit for bit, through runPhase and through a full runMatrix.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>

#include <unistd.h>

#include "sim/runner.hh"
#include "sim/scenario.hh"
#include "wl/emulator.hh"
#include "wl/suite.hh"
#include "wl/trace_cache.hh"
#include "wl/trace_io.hh"
#include "wl/workload_spec.hh"

namespace fs = std::filesystem;

namespace rsep
{
namespace
{

/** Fresh scratch directory per test. */
std::string
scratchDir(const std::string &tag)
{
    std::string dir = (fs::temp_directory_path() /
                       ("rsep_trace_test_" + tag + "_" +
                        std::to_string(::getpid())))
                          .string();
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
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

/** The validated stream back in record form, through its cursor. */
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

/** Every record of @p recs, checked field by field against @p t. */
void
expectRecords(const wl::DecodedTrace &t,
              const std::vector<wl::DynRecord> &recs)
{
    ASSERT_EQ(t.size(), recs.size());
    const std::vector<wl::DynRecord> got = recordsOf(t);
    for (size_t i = 0; i < recs.size(); ++i) {
        EXPECT_EQ(got[i].staticIdx, recs[i].staticIdx) << i;
        EXPECT_EQ(got[i].nextIdx, recs[i].nextIdx) << i;
        EXPECT_EQ(got[i].result, recs[i].result) << i;
        EXPECT_EQ(got[i].effAddr, recs[i].effAddr) << i;
        EXPECT_EQ(got[i].taken, recs[i].taken) << i;
    }
}

TEST(TraceIo, RoundTripIsBitExact)
{
    auto recs = sampleRecords(1000);
    std::string image = wl::serializeTrace(sampleHeader(recs.size()), recs);
    wl::DecodedTraceParse parsed = wl::decodeTraceImage(image, "<mem>");
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    const wl::DecodedTrace &t = *parsed.trace;
    EXPECT_EQ(t.header.workload, "sample");
    EXPECT_EQ(t.header.workloadHash, "0123456789abcdef");
    EXPECT_EQ(t.header.phase, 2u);
    EXPECT_EQ(t.header.programLength, 37u);
    EXPECT_EQ(t.header.records, recs.size());
    expectRecords(t, recs);
    // Serializing the decode reproduces the image byte for byte.
    EXPECT_EQ(wl::serializeTrace(t.header, recordsOf(t)), image);
}

TEST(TraceIo, FileRoundTripAndHeaderOnly)
{
    std::string dir = scratchDir("file_rt");
    auto recs = sampleRecords(64);
    std::string path = wl::tracePath(dir, "sample", 2);
    EXPECT_EQ(path, dir + "/sample-p2.rtr");
    std::string err;
    ASSERT_TRUE(
        wl::writeTraceFile(path, sampleHeader(recs.size()), recs, &err))
        << err;

    wl::DecodedTraceParse full = wl::loadDecodedTrace(path);
    ASSERT_TRUE(full.ok()) << full.error;
    expectRecords(*full.trace, recs);

    wl::TraceParse head = wl::readTraceFile(path);
    ASSERT_TRUE(head.ok()) << head.error;
    EXPECT_EQ(head.header.records, 64u);
    EXPECT_EQ(head.header.workload, "sample");

    fs::remove_all(dir);
}

TEST(TraceIo, CorruptionIsRejectedWithDiagnostics)
{
    auto recs = sampleRecords(50);
    std::string image = wl::serializeTrace(sampleHeader(recs.size()), recs);

    auto errOf = [](std::string img) {
        return wl::decodeTraceImage(img, "<bad>").error;
    };

    // Version mismatch.
    std::string v = image;
    v[11] = '9'; // "rsep-trace 3" -> "rsep-trace 9"
    EXPECT_NE(errOf(v).find("version"), std::string::npos);

    // Flipped payload byte -> checksum mismatch.
    std::string flip = image;
    flip[image.find("payload\n") + 8 + 100] ^= 0x40;
    EXPECT_NE(errOf(flip).find("checksum mismatch"), std::string::npos);

    // Truncation (drop the trailer and part of the payload).
    EXPECT_NE(errOf(image.substr(0, image.size() - 60))
                  .find("truncated"),
              std::string::npos);

    // Record-count lie.
    std::string lie = image;
    size_t at = lie.find("records = 50");
    lie.replace(at, 12, "records = 51");
    EXPECT_FALSE(errOf(lie).empty());

    // Empty / garbage input.
    EXPECT_FALSE(errOf("").empty());
    EXPECT_FALSE(errOf("not a trace\n").empty());
}

TEST(TraceIo, RecordingSourceTeesAndSlack)
{
    wl::Workload w = wl::makeWorkload("lbm");
    wl::Emulator emu(w.program);
    emu.resetArchState();
    w.init(emu, 0);
    wl::RecordingTraceSource rec(emu);
    for (int i = 0; i < 100; ++i)
        rec.step();
    EXPECT_EQ(rec.records().size(), 100u);
    rec.recordSlack(40);
    EXPECT_EQ(rec.records().size(), 140u);
    // Slack continued the same architectural stream.
    wl::Emulator ref(w.program);
    ref.resetArchState();
    wl::Workload w2 = wl::makeWorkload("lbm");
    w2.init(ref, 0);
    for (size_t i = 0; i < 140; ++i) {
        const wl::DynRecord &want = ref.step();
        EXPECT_EQ(rec.records()[i].staticIdx, want.staticIdx) << i;
        EXPECT_EQ(rec.records()[i].result, want.result) << i;
    }
}

TEST(TraceIo, V2ExtremeValuesRoundTrip)
{
    // Adversarial records for the varint/delta coder: max values,
    // backward next-branches, alternating zero/non-zero, repeated and
    // wildly-jumping results and addresses.
    std::vector<wl::DynRecord> recs;
    auto add = [&](u32 si, u32 ni, u64 res, u64 ea, bool tk) {
        wl::DynRecord r;
        r.staticIdx = si;
        r.nextIdx = ni;
        r.result = res;
        r.effAddr = ea;
        r.taken = tk;
        recs.push_back(r);
    };
    add(0xffffffff, 0, ~u64{0}, ~u64{0}, true);      // max everything.
    add(0, 0xffffffff, 0, 0, false);                 // max forward jump.
    add(5, 2, 1, 8, true);                           // backward branch.
    add(2, 3, 1, 0, false);                          // repeated result.
    add(3, 4, 0x8000000000000000ull, 16, false);     // sign-bit delta.
    add(4, 5, 1, ~u64{0} - 7, false);                // huge addr delta.
    for (u64 i = 0; i < 300; ++i)                    // dense typical run.
        add(static_cast<u32>(i % 7), static_cast<u32>((i + 1) % 7),
            i % 4 ? i : 0, i % 3 ? 0x1000 + 8 * (i % 16) : 0,
            i % 9 == 0);
    std::string image = wl::serializeTrace(sampleHeader(recs.size()), recs);
    wl::DecodedTraceParse p = wl::decodeTraceImage(image, "<mem>");
    ASSERT_TRUE(p.ok()) << p.error;
    expectRecords(*p.trace, recs);
}

TEST(TraceIo, V2CutsRealTraceSizeSeveralFold)
{
    // The point of the encoding: a real committed-path stream shrinks
    // several-fold against 25-byte raw records (u32 staticIdx, u32
    // nextIdx, u64 result, u64 effAddr, u8 taken).
    wl::Workload w = wl::makeWorkload("hmmer");
    wl::Emulator emu(w.program);
    emu.resetArchState();
    w.init(emu, 0);
    wl::RecordingTraceSource rec(emu);
    for (int i = 0; i < 20000; ++i)
        rec.step();
    wl::TraceHeader h = sampleHeader(rec.records().size());
    h.programLength = w.program.size();
    std::string image = wl::serializeTrace(h, rec.records());
    const size_t raw = rec.records().size() * 25;
    EXPECT_LT(image.size() * 3, raw)
        << "the encoding should be at least 3x smaller than raw records "
        << "on a real stream (raw " << raw << "B, file " << image.size()
        << "B)";
    wl::DecodedTraceParse p = wl::decodeTraceImage(image, "<mem>");
    ASSERT_TRUE(p.ok()) << p.error;
    expectRecords(*p.trace, rec.records());
}

sim::SimConfig
tinyConfig()
{
    sim::SimConfig cfg = sim::findScenario("rsep")->config;
    cfg.warmupInsts = 2'000;
    cfg.measureInsts = 6'000;
    cfg.checkpoints = 2;
    cfg.seed = 0x5eed;
    return cfg;
}

void
expectSamePhase(const sim::PhaseResult &a, const sim::PhaseResult &b)
{
    // Bit-exact IPC and identical counter sets: the whole point of
    // replay is that no stat dump can tell the difference.
    EXPECT_EQ(std::bit_cast<u64>(a.ipc), std::bit_cast<u64>(b.ipc));
    sim::PhaseResult am = a, bm = b;
    std::vector<std::pair<std::string, u64>> ac, bc;
    visitStats(am.stats, [&](const char *n, StatCounter &c) {
        ac.emplace_back(n, c.value());
    });
    visitStats(bm.stats, [&](const char *n, StatCounter &c) {
        bc.emplace_back(n, c.value());
    });
    EXPECT_EQ(ac, bc);
    EXPECT_EQ(a.engineStats, b.engineStats);
}

TEST(TraceReplay, RunPhaseReplayReproducesLiveBitForBit)
{
    std::string dir = scratchDir("runphase");
    sim::SimConfig cfg = tinyConfig();

    sim::TraceIoOptions record;
    record.recordDir = dir;
    sim::PhaseResult live = sim::runPhase(cfg, "mcf", 1, record);
    EXPECT_FALSE(live.replayed);
    ASSERT_TRUE(fs::exists(wl::tracePath(dir, "mcf", 1)));

    sim::TraceIoOptions replay;
    replay.replayDir = dir;
    sim::PhaseResult rep = sim::runPhase(cfg, "mcf", 1, replay);
    EXPECT_TRUE(rep.replayed);
    expectSamePhase(live, rep);

    // A different mechanism arm replays the same trace (record once,
    // replay many) and still matches its own live run.
    sim::SimConfig vp = tinyConfig();
    vp.mech = sim::findScenario("vpred")->config.mech;
    sim::PhaseResult vp_live = sim::runPhase(vp, "mcf", 1);
    sim::PhaseResult vp_rep = sim::runPhase(vp, "mcf", 1, replay);
    expectSamePhase(vp_live, vp_rep);

    fs::remove_all(dir);
}

TEST(TraceReplay, RunMatrixRecordThenReplayIsIdentical)
{
    std::string dir = scratchDir("matrix");
    std::vector<sim::SimConfig> configs = {tinyConfig()};
    std::vector<std::string> benches = {"hmmer", "libquantum"};

    sim::MatrixOptions rec_opts;
    rec_opts.jobs = 2;
    rec_opts.progress = false;
    rec_opts.traceIo.recordDir = dir;
    auto live = sim::runMatrix(configs, benches, rec_opts);

    sim::MatrixOptions rep_opts;
    rep_opts.jobs = 2;
    rep_opts.progress = false;
    rep_opts.traceIo.replayDir = dir;
    auto rep = sim::runMatrix(configs, benches, rep_opts);

    ASSERT_EQ(live.size(), rep.size());
    for (size_t b = 0; b < live.size(); ++b) {
        ASSERT_EQ(live[b].byConfig[0].phases.size(),
                  rep[b].byConfig[0].phases.size());
        for (size_t p = 0; p < live[b].byConfig[0].phases.size(); ++p) {
            EXPECT_TRUE(rep[b].byConfig[0].phases[p].replayed);
            expectSamePhase(live[b].byConfig[0].phases[p],
                            rep[b].byConfig[0].phases[p]);
        }
    }
    fs::remove_all(dir);
}

/** The files under @p dir, name -> bytes. */
std::map<std::string, std::string>
filesIn(const std::string &dir)
{
    std::map<std::string, std::string> out;
    for (const fs::directory_entry &e : fs::directory_iterator(dir)) {
        std::ifstream is(e.path(), std::ios::binary);
        out[e.path().filename().string()].assign(
            std::istreambuf_iterator<char>(is), {});
    }
    return out;
}

TEST(TraceReplay, MultiArmRecordingHasOneWriterPerTrace)
{
    // Arms pull different record counts, so each trace has one writer:
    // the longest arm, the first of them on a tie. A multi-arm
    // recording on 4 workers writes the bytes a recording of that arm
    // alone writes on 1.
    sim::SimConfig base = tinyConfig();
    base.mech = sim::findScenario("baseline")->config.mech;
    sim::SimConfig second = tinyConfig();
    second.mech = sim::findScenario("rsep+vpred")->config.mech;
    sim::SimConfig shorter = second;
    shorter.measureInsts /= 2;
    std::vector<std::string> benches = {"mcf", "omnetpp", "xalancbmk",
                                        "hmmer"};
    auto record = [&](const std::vector<sim::SimConfig> &configs,
                      unsigned jobs, const std::string &tag) {
        std::string dir = scratchDir(tag);
        sim::MatrixOptions opts;
        opts.progress = false;
        opts.jobs = jobs;
        opts.traceIo.recordDir = dir;
        sim::runMatrix(configs, benches, opts);
        std::map<std::string, std::string> files = filesIn(dir);
        fs::remove_all(dir);
        return files;
    };

    std::map<std::string, std::string> want = record({base}, 1, "solo");
    EXPECT_EQ(want.size(), benches.size() * base.checkpoints);
    for (const auto &[tag, configs] :
         {std::pair<std::string, std::vector<sim::SimConfig>>{
              "tie", {base, second}},
          {"shorter_first", {shorter, base}}}) {
        SCOPED_TRACE(tag);
        std::map<std::string, std::string> got = record(configs, 4, tag);
        ASSERT_EQ(got.size(), want.size());
        for (const auto &[name, bytes] : want)
            EXPECT_TRUE(got[name] == bytes) << name << " differs";
    }
}

TEST(TraceReplay, ReplayEqualsLiveAcrossTheSuite)
{
    // Every suite workload, the baseline and rsep+vpred arms: record
    // live, drop every cached trace, replay, and require the same stat
    // records cell for cell.
    std::string dir = scratchDir("suite");
    std::vector<sim::SimConfig> configs = {
        sim::findScenario("baseline")->config,
        sim::findScenario("rsep+vpred")->config};
    for (sim::SimConfig &cfg : configs) {
        cfg.warmupInsts = 500;
        cfg.measureInsts = 2'000;
        cfg.checkpoints = 1;
        cfg.seed = 0x5eed;
    }
    const std::vector<std::string> &benches = wl::suiteNames();
    ASSERT_EQ(benches.size(), 29u);

    sim::MatrixOptions rec_opts;
    rec_opts.jobs = 2;
    rec_opts.progress = false;
    rec_opts.traceIo.recordDir = dir;
    auto live = sim::runMatrix(configs, benches, rec_opts);

    wl::traceCache().clear();
    sim::MatrixOptions rep_opts;
    rep_opts.jobs = 2;
    rep_opts.progress = false;
    rep_opts.traceIo.replayDir = dir;
    auto rep = sim::runMatrix(configs, benches, rep_opts);

    ASSERT_EQ(live.size(), benches.size());
    ASSERT_EQ(rep.size(), benches.size());
    for (size_t b = 0; b < live.size(); ++b) {
        for (size_t c = 0; c < configs.size(); ++c) {
            const auto &lp = live[b].byConfig[c].phases;
            const auto &rp = rep[b].byConfig[c].phases;
            ASSERT_EQ(lp.size(), 1u) << benches[b];
            ASSERT_EQ(rp.size(), 1u) << benches[b];
            SCOPED_TRACE(benches[b] + " / " + configs[c].label);
            EXPECT_FALSE(lp[0].replayed);
            EXPECT_TRUE(rp[0].replayed);
            expectSamePhase(lp[0], rp[0]);
        }
    }
    fs::remove_all(dir);
}

TEST(TraceReplayDeathTest, ReplayPastTheRecordedCountIsFatal)
{
    std::string dir = scratchDir("exhaust");
    sim::SimConfig cfg = tinyConfig();
    sim::TraceIoOptions record;
    record.recordDir = dir;
    sim::runPhase(cfg, "mcf", 0, record);

    // The source itself: the record after the last recorded one.
    wl::DecodedTraceParse t =
        wl::loadDecodedTrace(wl::tracePath(dir, "mcf", 0));
    ASSERT_TRUE(t.ok()) << t.error;
    wl::Workload w = wl::makeWorkload("mcf");
    wl::ReplayTraceSource src(t.trace, w.program, "<exhaust>");
    for (size_t i = 0; i < t.trace->size(); ++i)
        src.step();
    EXPECT_DEATH(src.step(), "trace exhausted after");

    // A run sized past the recording hits the same fatal.
    sim::SimConfig longer = cfg;
    longer.measureInsts = 10 * (t.trace->size() + 1);
    sim::TraceIoOptions replay;
    replay.replayDir = dir;
    EXPECT_DEATH(sim::runPhase(longer, "mcf", 0, replay),
                 "trace exhausted after");
    fs::remove_all(dir);
}

TEST(TraceReplay, MismatchedWorkloadHashIsRejected)
{
    std::string dir = scratchDir("mismatch");
    sim::SimConfig cfg = tinyConfig();
    sim::TraceIoOptions record;
    record.recordDir = dir;
    sim::runPhase(cfg, "lbm", 0, record);

    // Tamper: rewrite the file under a different workload's name so
    // the identity echo cannot match.
    std::string path = wl::tracePath(dir, "lbm", 0);
    wl::DecodedTraceParse t = wl::loadDecodedTrace(path);
    ASSERT_TRUE(t.ok()) << t.error;
    wl::TraceHeader forged = t.trace->header;
    forged.workload = "mcf";
    std::string err;
    ASSERT_TRUE(wl::writeTraceFile(wl::tracePath(dir, "mcf", 0), forged,
                                   recordsOf(*t.trace), &err))
        << err;
    sim::TraceIoOptions replay;
    replay.replayDir = dir;
    EXPECT_DEATH(sim::runPhase(cfg, "mcf", 0, replay), "identity");
    fs::remove_all(dir);
}

TEST(TraceReplay, MissingTraceIsFatalWithoutRecordFallback)
{
    std::string dir = scratchDir("missing");
    sim::SimConfig cfg = tinyConfig();
    sim::TraceIoOptions replay;
    replay.replayDir = dir;
    EXPECT_DEATH(sim::runPhase(cfg, "mcf", 0, replay), "no trace");

    // With a record dir the cell falls back to live emulation and
    // records, making replay+record an idempotent fill mode.
    sim::TraceIoOptions fill;
    fill.replayDir = dir;
    fill.recordDir = dir;
    sim::PhaseResult first = sim::runPhase(cfg, "mcf", 0, fill);
    EXPECT_FALSE(first.replayed);
    sim::PhaseResult second = sim::runPhase(cfg, "mcf", 0, fill);
    EXPECT_TRUE(second.replayed);
    expectSamePhase(first, second);
    fs::remove_all(dir);
}

} // namespace
} // namespace rsep
