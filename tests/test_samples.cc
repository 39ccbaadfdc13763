/**
 * @file
 * Time-series sampling tests: the StatSample schema/delta machinery,
 * `.rts` round-trips and corruption rejection, the delta-sums-equal-
 * totals invariant against the pipeline's own end-of-run counters, and
 * the determinism contract — a cell's sample series is byte-identical
 * at any thread count, and sampling off leaves no files behind.
 */

#include <gtest/gtest.h>

#include <array>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "core/sampler.hh"
#include "sim/runner.hh"
#include "sim/sample_io.hh"
#include "sim/scenario.hh"
#include "sim/simulator.hh"

namespace fs = std::filesystem;

namespace rsep::sim
{
namespace
{

/** A scratch sample directory, removed on scope exit. */
struct TempDir
{
    std::string path;

    TempDir()
    {
        path = (fs::temp_directory_path() /
                ("rsep-samples-test-" + std::to_string(::getpid()) + "-" +
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

SimConfig
scenarioConfig(const std::string &name)
{
    std::optional<Scenario> s = findScenario(name);
    EXPECT_TRUE(s.has_value()) << name;
    return s->config;
}

SimConfig
shrunk(SimConfig c)
{
    c.warmupInsts = 1'000;
    c.measureInsts = 4'000;
    c.checkpoints = 2;
    c.seed = 0x5eed;
    return c;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    return buf.str();
}

SampleSeriesHeader
testHeader()
{
    SampleSeriesHeader h;
    h.workload = "mcf";
    h.scenario = "rsep";
    h.configHash = "0123456789abcdef";
    h.phase = 1;
    h.period = 2000;
    return h;
}

std::vector<core::StatSample>
testRows()
{
    std::vector<core::StatSample> rows(3);
    u64 v = 1;
    for (core::StatSample &r : rows)
        core::visitSampleFields(
            r, [&](const char *, u64 &f, core::SampleFieldKind) {
                f = v++ * 7919; // distinct values in every field.
            });
    rows[0].cycle = 2000;
    rows[1].cycle = 4000;
    rows[2].cycle = 4321; // final partial row.
    return rows;
}

// ---- schema ----

TEST(SampleSchema, FieldCountMatchesStruct)
{
    // 10 scalar fields + 3 per engine slot; a drift here means the
    // visitSampleFields enumeration missed a field (or counts one
    // twice) and every .rts consumer would silently misread columns.
    EXPECT_EQ(core::sampleFieldCount(),
              10 + 3 * core::numSampleEngineSlots);
    // The canonical name list is comma-joined with no blanks.
    const std::string &names = core::sampleFieldNames();
    EXPECT_EQ(static_cast<size_t>(
                  std::count(names.begin(), names.end(), ',') + 1),
              core::sampleFieldCount());
    EXPECT_EQ(names.rfind("cycle,", 0), 0u);
}

TEST(SampleSchema, SamplerEmitsDeltasAndFinalPartialRow)
{
    core::StatSampler s(100);
    core::StatSample cum;
    s.start(cum);

    cum.cycle = 100;
    cum.committedInsts = 40;
    cum.robOcc = 7;
    s.record(cum);

    cum.cycle = 200;
    cum.committedInsts = 90;
    cum.robOcc = 3;
    s.record(cum);

    cum.committedInsts = 95;
    s.finish(cum, 230);

    ASSERT_EQ(s.rows().size(), 3u);
    EXPECT_EQ(s.rows()[0].cycle, 100u);
    EXPECT_EQ(s.rows()[0].committedInsts, 40u); // delta from start.
    EXPECT_EQ(s.rows()[0].robOcc, 7u);          // point, not delta.
    EXPECT_EQ(s.rows()[1].cycle, 200u);
    EXPECT_EQ(s.rows()[1].committedInsts, 50u);
    EXPECT_EQ(s.rows()[1].robOcc, 3u);
    EXPECT_EQ(s.rows()[2].cycle, 230u); // partial tail window.
    EXPECT_EQ(s.rows()[2].committedInsts, 5u);
}

TEST(SampleSchema, SamplerBaselinesNonZeroStart)
{
    // Counters the run's resetStats does not zero (e.g. the branch
    // unit's) must delta from the attach-time snapshot, not from zero.
    core::StatSampler s(10);
    core::StatSample cum;
    cum.branchMispredicts = 1000;
    s.start(cum);
    cum.cycle = 10;
    cum.branchMispredicts = 1003;
    s.record(cum);
    ASSERT_EQ(s.rows().size(), 1u);
    EXPECT_EQ(s.rows()[0].branchMispredicts, 3u);
}

TEST(SampleSchema, FinishOnExactBoundaryEmitsNoExtraRow)
{
    core::StatSampler s(100);
    core::StatSample cum;
    s.start(cum);
    cum.cycle = 100;
    cum.committedInsts = 10;
    s.record(cum);
    s.finish(cum, 100); // run ended exactly on the emitted boundary.
    EXPECT_EQ(s.rows().size(), 1u);
}

// ---- .rts round-trip and rejection ----

TEST(SampleIo, RoundTripsExactly)
{
    SampleSeriesHeader h = testHeader();
    std::vector<core::StatSample> rows = testRows();
    std::string text = serializeSamples(h, rows);

    SamplesParse p = parseSamplesText(text, "<memory>");
    ASSERT_TRUE(p.ok()) << p.error;
    EXPECT_EQ(p.header.workload, h.workload);
    EXPECT_EQ(p.header.scenario, h.scenario);
    EXPECT_EQ(p.header.configHash, h.configHash);
    EXPECT_EQ(p.header.phase, h.phase);
    EXPECT_EQ(p.header.period, h.period);
    ASSERT_EQ(p.rows.size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
        core::StatSample want = rows[i], got = p.rows[i];
        std::vector<u64> wv, gv;
        core::visitSampleFields(
            want, [&](const char *, u64 &f, core::SampleFieldKind) {
                wv.push_back(f);
            });
        core::visitSampleFields(
            got, [&](const char *, u64 &f, core::SampleFieldKind) {
                gv.push_back(f);
            });
        EXPECT_EQ(wv, gv) << "row " << i;
    }
    // Serialization is canonical: re-serializing reproduces the bytes.
    SampleSeriesHeader h2 = p.header;
    h2.rows = 0; // writeSamplesFile recomputes; serialize uses rows().
    EXPECT_EQ(serializeSamples(h2, p.rows), text);
}

TEST(SampleIo, WriteAndParseFile)
{
    TempDir dir;
    SampleSeriesHeader h = testHeader();
    std::vector<core::StatSample> rows = testRows();
    std::string path = samplePath(dir.path, h.workload, h.configHash,
                                  h.phase);
    EXPECT_EQ(path, dir.path + "/mcf-0123456789abcdef-p1.rts");
    std::string err;
    ASSERT_TRUE(writeSamplesFile(path, h, rows, &err)) << err;
    SamplesParse p = parseSamplesFile(path);
    ASSERT_TRUE(p.ok()) << p.error;
    EXPECT_EQ(p.rows.size(), rows.size());
    EXPECT_EQ(p.header.rows, rows.size());
}

TEST(SampleIo, RejectsCorruption)
{
    SampleSeriesHeader h = testHeader();
    std::string good = serializeSamples(h, testRows());

    // Flipped payload byte: checksum mismatch.
    std::string flipped = good;
    flipped[good.find("payload\n") + 9] ^= 0x40;
    EXPECT_FALSE(parseSamplesText(flipped, "<t>").ok());

    // Truncation: missing trailer.
    EXPECT_FALSE(
        parseSamplesText(good.substr(0, good.size() - 10), "<t>").ok());

    // Wrong magic.
    std::string magic = good;
    magic[0] = 'x';
    EXPECT_FALSE(parseSamplesText(magic, "<t>").ok());

    // Unsupported schema version.
    std::string ver = good;
    ver.replace(0, ver.find('\n'), "rsep-samples 999");
    EXPECT_FALSE(parseSamplesText(ver, "<t>").ok());

    // A field list from a different schema is rejected, not guessed.
    std::string fields = good;
    size_t fpos = fields.find("fields = ");
    fields.replace(fpos, fields.find('\n', fpos) - fpos,
                   "fields = cycle,bogus");
    EXPECT_FALSE(parseSamplesText(fields, "<t>").ok());

    // Row-count lies: header says more rows than the payload holds.
    std::string rows_lie = good;
    size_t rpos = rows_lie.find("rows = ");
    rows_lie.replace(rpos, rows_lie.find('\n', rpos) - rpos,
                     "rows = 4000000");
    EXPECT_FALSE(parseSamplesText(rows_lie, "<t>").ok());

    EXPECT_TRUE(parseSamplesText(good, "<t>").ok());
}

TEST(SampleIo, EveryTruncatedPrefixIsRejected)
{
    std::string good = serializeSamples(testHeader(), testRows());
    // Each proper prefix — cut in the header, the payload or the
    // trailer — must come back as a diagnostic, never as a series.
    for (size_t len = 0; len < good.size(); ++len) {
        SamplesParse p = parseSamplesText(good.substr(0, len), "<prefix>");
        EXPECT_FALSE(p.ok()) << "prefix of " << len << " bytes accepted";
        EXPECT_TRUE(p.rows.empty()) << len;
        EXPECT_EQ(p.error.rfind("<prefix>: ", 0), 0u)
            << "prefix of " << len << " bytes: '" << p.error << "'";
    }
}

// ---- pipeline integration ----

/** Index of engine slot @p name in core::sampleEngineSlots. */
size_t
slotOf(const std::string &name)
{
    for (size_t e = 0; e < core::numSampleEngineSlots; ++e)
        if (name == core::sampleEngineSlots[e])
            return e;
    ADD_FAILURE() << "no sample slot " << name;
    return 0;
}

/** Per-slot {coverage, correct, mispredict} sums of @p rows. */
std::vector<std::array<u64, 3>>
slotSums(const std::vector<core::StatSample> &rows)
{
    std::vector<std::array<u64, 3>> sums(core::numSampleEngineSlots);
    for (const core::StatSample &r : rows)
        for (size_t e = 0; e < core::numSampleEngineSlots; ++e) {
            sums[e][0] += r.engCoverage[e];
            sums[e][1] += r.engCorrect[e];
            sums[e][2] += r.engMispredict[e];
        }
    return sums;
}

TEST(Sampling, DeltasSumToEndOfRunTotals)
{
    SimConfig cfg = shrunk(scenarioConfig("rsep"));
    PhaseResult plain = runPhase(cfg, "mcf", 0);
    PhaseResult sampled = runPhase(cfg, "mcf", 0, {}, 500);

    // Sampling must not perturb the simulation itself.
    EXPECT_EQ(plain.ipc, sampled.ipc);
    EXPECT_TRUE(plain.samples.empty());
    ASSERT_FALSE(sampled.samples.empty());

    // The delta columns sum exactly to the run's totals.
    u64 insts = 0, branches = 0, loads = 0, stores = 0;
    for (const core::StatSample &r : sampled.samples) {
        insts += r.committedInsts;
        branches += r.committedBranches;
        loads += r.committedLoads;
        stores += r.committedStores;
    }
    core::PipelineStats st = sampled.stats;
    EXPECT_EQ(insts, st.committedInsts.value());
    EXPECT_EQ(branches, st.committedBranches.value());
    EXPECT_EQ(loads, st.committedLoads.value());
    EXPECT_EQ(stores, st.committedStores.value());

    // The last row lands on the run's final cycle; boundaries are
    // period-aligned before it.
    EXPECT_EQ(sampled.samples.back().cycle, st.cycles.value());
    for (size_t i = 0; i + 1 < sampled.samples.size(); ++i)
        EXPECT_EQ(sampled.samples[i].cycle % 500, 0u) << i;

    // Every engine slot's summed deltas equal the run's engine.*
    // counters under this mapping (an unregistered engine has no
    // counters and its slot reads 0). zeusmp exercises every slot but
    // zero-idiom's, perlbench that one, at this size.
    std::vector<std::array<u64, 3>> exercised(core::numSampleEngineSlots);
    for (const char *bench : {"zeusmp", "perlbench"})
        for (const char *arm : {"rsep", "rsep+vpred+zp", "rsep-oracle"}) {
            SCOPED_TRACE(std::string(bench) + " " + arm);
            SimConfig c = shrunk(scenarioConfig(arm));
            c.warmupInsts = 20'000;
            c.measureInsts = 20'000;
            PhaseResult pr = runPhase(c, bench, 0, {}, 500);
            auto eng = [&](const std::string &name) {
                for (const auto &[n, v] : pr.engineStats)
                    if (n == "engine." + name)
                        return v;
                return u64{0};
            };
            const std::pair<const char *, std::array<u64, 3>> expected[] = {
                {"zero_idiom", {eng("zero-idiom.eliminated"), 0, 0}},
                {"move_elim", {eng("move-elim.eliminated"), 0, 0}},
                {"zero_pred",
                 {eng("zero-pred.predictions"), eng("zero-pred.correct"),
                  eng("zero-pred.mispredicts")}},
                {"oracle_eq",
                 {eng("oracle-eq.shared"), eng("oracle-eq.shared"), 0}},
                {"rsep",
                 {eng("rsep.shared") + eng("rsep.mispredicts"),
                  eng("rsep.shared"), eng("rsep.mispredicts")}},
                {"dvtage",
                 {eng("dvtage.predicted"), eng("dvtage.correct"),
                  eng("dvtage.mispredicts")}},
            };
            std::vector<std::array<u64, 3>> sums = slotSums(pr.samples);
            for (const auto &[slot, want] : expected) {
                size_t e = slotOf(slot);
                EXPECT_EQ(sums[e], want) << slot;
                for (size_t k = 0; k < 3; ++k)
                    exercised[e][k] += want[k];
            }
        }
    for (size_t e = 0; e < core::numSampleEngineSlots; ++e)
        EXPECT_GT(exercised[e][0], 0u) << core::sampleEngineSlots[e];
    for (const char *slot : {"zero_pred", "rsep", "dvtage"})
        EXPECT_GT(exercised[slotOf(slot)][2], 0u) << slot;

    // rsep-oracle registers no rsep engine, but the structure accessor
    // builds one on first use. It receives no hooks, so its slot stays
    // 0 while the oracle's slot counts the arm's sharings.
    SimConfig oracle = shrunk(scenarioConfig("rsep-oracle"));
    wl::Workload w = wl::makeWorkload("mcf");
    wl::Emulator em(w.program);
    em.resetArchState();
    w.init(em, 0);
    core::Pipeline pipe(oracle.core, oracle.mech, em, oracle.seed);
    pipe.distancePredictor();
    ASSERT_EQ(pipe.engineByName("rsep"), nullptr);
    pipe.run(oracle.warmupInsts);
    pipe.resetStats();
    core::StatSampler sampler(500);
    pipe.attachSampler(&sampler);
    pipe.run(oracle.measureInsts);
    pipe.finishSampling();

    std::vector<std::array<u64, 3>> sums = slotSums(sampler.rows());
    EXPECT_EQ(sums[slotOf("rsep")], (std::array<u64, 3>{0, 0, 0}));
    u64 shared = pipe.stats().rsepCorrect.value();
    EXPECT_GT(shared, 0u);
    EXPECT_EQ(sums[slotOf("oracle_eq")],
              (std::array<u64, 3>{shared, shared, 0}));
}

TEST(Sampling, MatrixSeriesIdenticalAcrossJobs)
{
    std::vector<SimConfig> configs{shrunk(scenarioConfig("baseline")),
                                   shrunk(scenarioConfig("rsep"))};
    std::vector<std::string> benches{"mcf", "hmmer"};

    auto run = [&](unsigned jobs, const TempDir &dir) {
        MatrixOptions mo;
        mo.jobs = jobs;
        mo.progress = false;
        mo.sampling.every = 500;
        mo.sampling.dir = dir.path;
        runMatrix(configs, benches, mo);
        // Collect raw .rts bytes keyed by file name.
        std::map<std::string, std::string> bytes;
        for (const auto &e : fs::directory_iterator(dir.path))
            if (e.path().extension() == ".rts")
                bytes[e.path().filename().string()] = slurp(e.path());
        return bytes;
    };

    TempDir d1, d8;
    auto base = run(1, d1);
    auto jobs8 = run(8, d8);

    // One series per (bench, config, phase) cell.
    EXPECT_EQ(base.size(),
              benches.size() * configs.size() * configs[0].checkpoints);
    EXPECT_EQ(base, jobs8); // byte-identical across thread counts.
}

TEST(Sampling, OffLeavesNoFilesAndCacheUntouched)
{
    std::vector<SimConfig> configs{shrunk(scenarioConfig("baseline"))};
    TempDir samples_dir, cache_dir;

    MatrixOptions mo;
    mo.progress = false;
    mo.cacheDir = cache_dir.path;
    mo.sampling.dir = samples_dir.path; // every == 0: off.
    runMatrix(configs, {"mcf"}, mo);
    EXPECT_FALSE(fs::exists(samples_dir.path));
    EXPECT_TRUE(fs::exists(cache_dir.path)); // cache in use when off.

    // Sampling on: bypasses the cache (results would have no rows) but
    // still produces the full series set, one .rts file per cell and
    // nothing else (rsep_samples renders CSV on demand).
    mo.sampling.every = 1000;
    auto rows = runMatrix(configs, {"mcf"}, mo);
    EXPECT_TRUE(fs::exists(samples_dir.path));
    size_t files = 0;
    for (const auto &e : fs::directory_iterator(samples_dir.path)) {
        EXPECT_EQ(e.path().extension().string(), ".rts") << e.path();
        ++files;
    }
    EXPECT_EQ(files, static_cast<size_t>(configs[0].checkpoints));
    for (const PhaseResult &ph : rows[0].byConfig[0].phases)
        EXPECT_FALSE(ph.fromCache);
}

} // namespace
} // namespace rsep::sim
