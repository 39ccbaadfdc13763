/**
 * @file
 * Cell aliasing (sim/cell_alias.hh, DESIGN.md §20): the two silence
 * proofs at their bounds, shadow engines, and the differential check
 * that a matrix which takes cells from earlier arms equals each arm
 * run alone, where nothing can be aliased.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <map>
#include <sstream>

#include "common/envelope.hh"
#include "common/prob_counter.hh"
#include "core/pipeline.hh"
#include "sim/cell_alias.hh"
#include "sim/result_cache.hh"
#include "sim/runner.hh"
#include "sim/scenario.hh"
#include "sim/stat_export.hh"
#include "sim/stat_merge.hh"
#include "wl/emulator.hh"
#include "wl/suite.hh"
#include "wl/workload_spec.hh"

namespace rsep::sim
{
namespace
{

namespace fs = std::filesystem;

// ------------------------------------------------------------ proofs

/** One of each kind of instruction the zero-run scan tells apart. */
struct ScanProgram
{
    isa::Program prog = [] {
        isa::ProgramBuilder b("scan");
        b.add(1, 2, 3);  // 0: a plain producer.
        b.eor(4, 4, 4);  // 1: a zero idiom.
        b.mov(5, 1);     // 2: an eliminable move.
        b.str(1, 2, 0);  // 3: no destination.
        return b.build();
    }();

    void
    feed(equality::ZeroRunScan &scan, u32 idx, u64 result, u64 times = 1)
    {
        wl::DynRecord rec;
        rec.staticIdx = idx;
        rec.result = result;
        for (u64 i = 0; i < times; ++i)
            scanZeroRun(scan, prog, rec);
    }
};

TEST(SilenceProof, ARunOf254ZerosIsProvableAnd255IsNot)
{
    ScanProgram sp;
    equality::ZeroRunScan scan;
    sp.feed(scan, 0, 0, 254);
    EXPECT_EQ(scan.longest(), 254u);
    EXPECT_TRUE(scan.neverPredicts(ConfidenceKind::Deterministic8));
    sp.feed(scan, 0, 0);
    EXPECT_FALSE(scan.neverPredicts(ConfidenceKind::Deterministic8));

    // The bound is the predictor's own: 254 zeros leave it silent, the
    // 255th makes it predict.
    equality::ZeroPredictor zp;
    Addr pc = isa::Program::pcOf(0);
    for (int i = 0; i < 254; ++i)
        zp.update(pc, true, nullptr);
    EXPECT_FALSE(zp.predict(pc));
    zp.update(pc, true, nullptr);
    EXPECT_TRUE(zp.predict(pc));
}

TEST(SilenceProof, ANonzeroResultResetsTheRun)
{
    ScanProgram sp;
    equality::ZeroRunScan scan;
    sp.feed(scan, 0, 0, 200);
    sp.feed(scan, 0, 7);
    sp.feed(scan, 0, 0, 200);
    EXPECT_EQ(scan.longest(), 200u);
    EXPECT_TRUE(scan.neverPredicts(ConfidenceKind::Deterministic8));
}

TEST(SilenceProof, ZeroIdiomsCountAndOnlyCertainLookupsReset)
{
    ScanProgram sp;
    equality::ZeroRunScan scan;
    // A zero idiom may reach the predictor: it counts toward the run.
    sp.feed(scan, 1, 0, 255);
    EXPECT_FALSE(scan.neverPredicts(ConfidenceKind::Deterministic8));

    // A nonzero move may be eliminated before the predictor sees it,
    // so it does not reset; a store has no destination at all.
    equality::ZeroRunScan moves;
    sp.feed(moves, 2, 0, 100);
    sp.feed(moves, 2, 9);
    sp.feed(moves, 3, 9);
    sp.feed(moves, 3, 0, 500);
    sp.feed(moves, 2, 0, 100);
    EXPECT_EQ(moves.longest(), 200u);
}

TEST(SilenceProof, FpcBoundIsSeven)
{
    EXPECT_EQ(ConfidenceCounter::saturationLevel(ConfidenceKind::Fpc3), 7u);
    ScanProgram sp;
    equality::ZeroRunScan scan;
    sp.feed(scan, 0, 0, 6);
    EXPECT_TRUE(scan.neverPredicts(ConfidenceKind::Fpc3));
    sp.feed(scan, 0, 0);
    EXPECT_FALSE(scan.neverPredicts(ConfidenceKind::Fpc3));

    // However lucky its draws, an FPC counter needs seven correct
    // outcomes in a row to saturate.
    Rng rng(1);
    for (int trial = 0; trial < 100; ++trial) {
        ConfidenceCounter c(ConfidenceKind::Fpc3);
        int n = 0;
        while (!c.saturated()) {
            c.onCorrect(&rng);
            ++n;
        }
        EXPECT_GE(n, 7);
    }
}

TEST(SilenceProof, RegisteredEngineNamesMatchThePipeline)
{
    std::vector<core::MechConfig> mechs;
    for (const ScenarioInfo &info : registeredScenarios())
        mechs.push_back(findScenario(info.name)->config.mech);
    core::MechConfig all;
    all.moveElim = all.zeroPred = all.equalityPred = all.valuePred = true;
    mechs.push_back(all);
    wl::Workload w = wl::makeWorkload("mcf");
    for (const core::MechConfig &mech : mechs) {
        wl::Emulator emu(w.program);
        core::Pipeline pipe(core::CoreParams{}, mech, emu, 1);
        std::vector<std::string> names;
        for (const core::SpeculationEngine *e : pipe.engines())
            names.push_back(e->name());
        EXPECT_EQ(names, core::registeredEngineNames(mech));
    }
}

TEST(SilenceProof, OnlyPerlbenchHoldsAnEliminableMoveAmongTheSuitesBranchySet)
{
    EXPECT_TRUE(hasEliminableMove(wl::makeWorkload("perlbench").program));
    for (const char *name : {"gobmk", "sjeng", "astar", "mcf"})
        EXPECT_FALSE(hasEliminableMove(wl::makeWorkload(name).program))
            << name;
}

// ------------------------------------------------------ the matrix

SimConfig
small(const std::string &arm)
{
    SimConfig c = findScenario(arm)->config;
    c.warmupInsts = 1'000;
    c.measureInsts = 3'000;
    c.checkpoints = 2;
    c.seed = 0x5eed;
    return c;
}

/** The Fig. 4 arms, then Fig. 6's RSEP arms. */
const std::vector<std::string> &
fig4And6Arms()
{
    static const std::vector<std::string> arms = {
        "baseline",         "zero-pred",        "move-elim",
        "rsep",             "vpred",            "rsep+vpred",
        "rsep-val-ideal",   "rsep-val-2x-lock", "rsep-val-2x-any",
        "rsep-val-2x-sample15", "rsep-val-2x-sample63"};
    return arms;
}

/** A scratch directory removed on scope exit. */
struct TempDir
{
    fs::path path = fs::temp_directory_path() /
                    ("rsep_alias_" + std::to_string(::getpid()) + "_" +
                     std::to_string(counter()++));
    TempDir() { fs::create_directories(path); }
    ~TempDir() { fs::remove_all(path); }
    static int &
    counter()
    {
        static int n = 0;
        return n;
    }
};

/** Every cell's stat record (wall time zeroed), keyed by
 *  "benchmark/label/phase". */
std::map<std::string, std::string>
records(const std::vector<SimConfig> &configs,
        const std::vector<MatrixRow> &rows)
{
    std::map<std::string, std::string> out;
    for (const MatrixRow &row : rows)
        for (size_t c = 0; c < configs.size(); ++c) {
            const RunResult &rr = row.byConfig[c];
            for (u32 p = 0; p < rr.phases.size(); ++p) {
                PhaseResult pr = rr.phases[p];
                pr.wallMicros = 0;
                out[row.benchmark + "/" + configs[c].label + "/" +
                    std::to_string(p)] = ResultCache::serializeRecord(
                    {row.benchmark, configHash(configs[c]), p,
                     configs[c].seed},
                    pr);
            }
        }
    return out;
}

size_t
aliasedCells(const std::vector<MatrixRow> &rows, bool by_shadow = false)
{
    size_t n = 0;
    for (const MatrixRow &row : rows)
        for (const RunResult &rr : row.byConfig)
            for (const PhaseResult &ph : rr.phases)
                n += !ph.aliasOf.empty() && (!by_shadow || ph.aliasByShadow);
    return n;
}

/** Every arm of @p configs run alone (nothing to alias), as records. */
std::map<std::string, std::string>
aloneRecords(const std::vector<SimConfig> &configs,
             const std::vector<std::string> &benches)
{
    std::map<std::string, std::string> alone;
    for (const SimConfig &cfg : configs) {
        MatrixOptions mo;
        mo.jobs = 4;
        mo.progress = false;
        std::vector<MatrixRow> rows = runMatrix({cfg}, benches, mo);
        EXPECT_EQ(aliasedCells(rows), 0u);
        alone.merge(records({cfg}, rows));
    }
    return alone;
}

void
expectRecords(const std::map<std::string, std::string> &got,
              const std::map<std::string, std::string> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (const auto &[key, rec] : want)
        EXPECT_EQ(got.at(key), rec) << key;
}

std::string
csvOf(const std::vector<SimConfig> &configs,
      const std::vector<MatrixRow> &rows)
{
    std::ostringstream os;
    CsvStatSink{}.write(os, collectStatRows(configs, rows));
    return os.str();
}

std::map<std::string, std::string>
filesIn(const fs::path &dir)
{
    std::map<std::string, std::string> out;
    for (const fs::directory_entry &e : fs::directory_iterator(dir)) {
        std::string bytes;
        EXPECT_TRUE(envelope::readFile(e.path().string(), bytes));
        out[e.path().filename().string()] = bytes;
    }
    return out;
}

size_t
forkedCells(const std::vector<MatrixRow> &rows)
{
    size_t n = 0;
    for (const MatrixRow &row : rows)
        for (const RunResult &rr : row.byConfig)
            for (const PhaseResult &ph : rr.phases)
                n += !ph.forkOf.empty();
    return n;
}

/** The floors of one arm set's differential run. */
struct DifferentialCase
{
    std::vector<std::string> arms;
    size_t aliased, byShadow, forked;
};

TEST(CellAlias, EveryArmEqualsItselfRunAloneLiveAndReplayed)
{
    // The Fig. 4 and Fig. 6 arms, where vpred hosts rsep+vpred's
    // shadow, and the replay sweep's arms, where vpred is shadowed.
    // When written they aliased 367 and 112 cells, 216 and 19 of them
    // from shadows, and forked 127 and 48.
    const std::vector<DifferentialCase> cases = {
        {fig4And6Arms(), 300, 180, 100},
        {{"baseline", "zero-pred", "move-elim", "vpred"}, 90, 15, 40},
    };
    std::vector<std::string> benches = wl::suiteNames();
    for (const DifferentialCase &dc : cases) {
        SCOPED_TRACE(dc.arms.back());
        TempDir tmp;
        std::vector<SimConfig> configs;
        for (const std::string &arm : dc.arms)
            configs.push_back(small(arm));

        // Alone, an arm has no earlier arm to take cells from. Baseline
        // records the traces; every arm samples its timeline.
        std::map<std::string, std::string> alone;
        for (const SimConfig &cfg : configs) {
            MatrixOptions mo;
            mo.jobs = 4;
            mo.progress = false;
            mo.sampling = {1000, (tmp.path / "alone-rts").string()};
            if (cfg.label == "baseline")
                mo.traceIo.recordDir = (tmp.path / "traces").string();
            std::vector<MatrixRow> rows = runMatrix({cfg}, benches, mo);
            EXPECT_EQ(aliasedCells(rows), 0u);
            EXPECT_EQ(forkedCells(rows), 0u);
            alone.merge(records({cfg}, rows));
        }
        ASSERT_EQ(alone.size(), benches.size() * configs.size() * 2);

        // A sampled cell never forks; without sampling the same cells
        // fork at any worker count.
        size_t shadowTaken = 0, forked = 0;
        for (bool sampled : {true, false})
            for (bool replay : {false, true})
                for (unsigned jobs : {1u, 4u}) {
                    SCOPED_TRACE(std::string(sampled ? "sampled " : "") +
                                 (replay ? "replay" : "live") + ", jobs " +
                                 std::to_string(jobs));
                    MatrixOptions mo;
                    mo.jobs = jobs;
                    mo.progress = false;
                    fs::path rts =
                        tmp.path / ("rts-" + std::to_string(replay) +
                                    std::to_string(jobs));
                    if (sampled)
                        mo.sampling = {1000, rts.string()};
                    if (replay)
                        mo.traceIo.replayDir = (tmp.path / "traces").string();
                    std::vector<MatrixRow> rows =
                        runMatrix(configs, benches, mo);
                    EXPECT_GE(aliasedCells(rows), dc.aliased);
                    EXPECT_GE(aliasedCells(rows, true), dc.byShadow);
                    if (shadowTaken == 0)
                        shadowTaken = aliasedCells(rows, true);
                    EXPECT_EQ(aliasedCells(rows, true), shadowTaken);
                    if (sampled) {
                        EXPECT_EQ(forkedCells(rows), 0u);
                    } else {
                        EXPECT_GE(forkedCells(rows), dc.forked);
                        if (forked == 0)
                            forked = forkedCells(rows);
                        EXPECT_EQ(forkedCells(rows), forked);
                    }
                    expectRecords(records(configs, rows), alone);
                    if (sampled) {
                        EXPECT_EQ(filesIn(rts),
                                  filesIn(tmp.path / "alone-rts"));
                    }
                    for (const MatrixRow &row : rows)
                        for (size_t c = 0; c < configs.size(); ++c)
                            for (const PhaseResult &ph :
                                 row.byConfig[c].phases) {
                                const core::MechConfig &m = configs[c].mech;
                                EXPECT_FALSE(row.benchmark == "perlbench" &&
                                             configs[c].label == "move-elim" &&
                                             !ph.aliasOf.empty())
                                    << "perlbench has an eliminable move";
                                // A zero-prediction proof and a shadow
                                // read the trace.
                                if (!ph.aliasOf.empty()) {
                                    EXPECT_EQ(ph.replayed,
                                              replay &&
                                                  (ph.aliasByShadow ||
                                                   configs[c].label ==
                                                       "zero-pred"));
                                }
                                // Only an arm with an engine a shadow
                                // runs has a shadow.
                                if (ph.aliasByShadow || !ph.forkOf.empty()) {
                                    EXPECT_TRUE(m.equalityPred ||
                                                m.valuePred || m.zeroPred);
                                }
                            }
                }
    }
}

TEST(CellAlias, ARepeatedConfigIsTakenWithoutProof)
{
    SimConfig a = small("rsep"), b = a;
    b.label = "rsep-again";
    MatrixOptions mo;
    mo.jobs = 2;
    mo.progress = false;
    std::vector<MatrixRow> rows = runMatrix({a, b}, {"mcf", "hmmer"}, mo);
    EXPECT_EQ(aliasedCells(rows), 4u);
    for (const MatrixRow &row : rows)
        for (u32 p = 0; p < 2; ++p) {
            EXPECT_EQ(row.byConfig[1].phases[p].aliasOf, "rsep");
            EXPECT_EQ(row.byConfig[1].phases[p].engineStats,
                      row.byConfig[0].phases[p].engineStats);
        }
}

TEST(CellAlias, AnAliasIsStoredInTheResultCache)
{
    TempDir tmp;
    std::vector<SimConfig> configs = {small("baseline"), small("zero-pred"),
                                      small("move-elim")};
    std::vector<std::string> benches = {"bwaves", "gromacs"};
    MatrixOptions mo;
    mo.jobs = 2;
    mo.progress = false;
    mo.cacheDir = (tmp.path / "cache").string();
    std::vector<MatrixRow> cold = runMatrix(configs, benches, mo);
    EXPECT_GT(aliasedCells(cold), 0u);

    // A warm rerun hits for every cell, aliases included, and dumps
    // the same bytes.
    std::vector<MatrixRow> warm = runMatrix(configs, benches, mo);
    for (const MatrixRow &row : warm)
        for (const RunResult &rr : row.byConfig)
            for (const PhaseResult &ph : rr.phases)
                EXPECT_TRUE(ph.fromCache);
    EXPECT_EQ(csvOf(configs, cold), csvOf(configs, warm));
}

TEST(CellAlias, AReferenceInAnotherShardMeansTheCandidateSimulates)
{
    // The proof candidates of zero-pred and move-elim, and the shadow
    // candidate of rsep, whose only reference is baseline.
    for (const std::vector<std::string> &arms :
         {std::vector<std::string>{"baseline", "zero-pred", "move-elim"},
          std::vector<std::string>{"baseline", "rsep"}}) {
        SCOPED_TRACE(arms.back());
        std::vector<SimConfig> configs;
        for (const std::string &arm : arms)
            configs.push_back(small(arm));
        std::vector<std::string> benches = wl::suiteNames();
        MatrixOptions mo;
        mo.jobs = 4;
        mo.progress = false;
        std::vector<MatrixRow> full = runMatrix(configs, benches, mo);
        EXPECT_GT(aliasedCells(full), 0u);

        std::vector<std::vector<StatRow>> parts;
        size_t split = 0; // candidates whose reference another shard runs.
        for (u32 i = 0; i < 2; ++i) {
            mo.shard = {i, 2};
            std::vector<MatrixRow> rows = runMatrix(configs, benches, mo);
            for (const MatrixRow &row : rows)
                for (size_t c = 1; c < configs.size(); ++c)
                    if (row.byConfig[c].inShard &&
                        !row.byConfig[0].inShard) {
                        ++split;
                        for (const PhaseResult &ph : row.byConfig[c].phases)
                            EXPECT_TRUE(ph.aliasOf.empty()) << row.benchmark;
                    }
            parts.push_back(collectStatRows(configs, rows));
        }
        EXPECT_GT(split, 0u);
        std::vector<StatRow> merged;
        ASSERT_EQ(mergeStatRows(parts, {"shard0", "shard1"}, merged), "");
        std::ostringstream os;
        CsvStatSink{}.write(os, merged);
        EXPECT_EQ(os.str(), csvOf(configs, full));
    }
}

// ---------------------------------------------------- shadow engines

/** Benchmarks on which RSEP never shares at small() sizing, and two on
 *  which it does. */
const std::vector<std::string> silentRows = {"bwaves", "gromacs", "namd"};
const std::vector<std::string> actingRows = {"mcf", "hmmer"};

TEST(ShadowEngine, AShadowLeavesItsHostCellUnchanged)
{
    // Shadows of every kind: RSEP alone, RSEP with a zero predictor,
    // and RSEP with sampled training, which draws from its Rng.
    std::vector<ShadowArm> kinds(3);
    kinds[0].mech = small("rsep").mech;
    kinds[0].engines = {"rsep"};
    kinds[1].mech = small("rsep+zp").mech;
    kinds[1].engines = {"rsep", "zero-pred"};
    kinds[2].mech = small("rsep-val-2x-sample15").mech;
    kinds[2].engines = {"rsep"};
    SimConfig host = small("baseline");
    std::vector<std::string> benches = silentRows;
    benches.insert(benches.end(), actingRows.begin(), actingRows.end());
    size_t survived = 0, retired = 0;
    for (const std::string &bench : benches)
        for (u32 p = 0; p < host.checkpoints; ++p) {
            SCOPED_TRACE(bench + "/" + std::to_string(p));
            std::vector<ShadowArm> shadows = kinds;
            PhaseResult alone = runPhase(host, bench, p);
            PhaseResult with = runPhase(host, bench, p, {}, 0, {}, &shadows);
            alone.wallMicros = with.wallMicros = 0;
            CacheKey key{bench, configHash(host), p, host.seed};
            EXPECT_EQ(ResultCache::serializeRecord(key, with),
                      ResultCache::serializeRecord(key, alone));
            for (const ShadowArm &arm : shadows)
                ++(arm.result ? survived : retired);
        }
    EXPECT_GT(survived, 0u);
    EXPECT_GT(retired, 0u);
}

TEST(ShadowEngine, AShadowThatActsLateRetiresAndItsCellForks)
{
    // At the Fig. 4 benchmark's sizing (4k warm-up + 20k measured),
    // RSEP first shares on xalancbmk past the middle of the window.
    // xalancbmk holds eliminable moves, so move-elim hosts the shadow.
    SimConfig host = small("move-elim"), arm = small("rsep");
    for (SimConfig *cfg : {&host, &arm}) {
        cfg->warmupInsts = 4'000;
        cfg->measureInsts = 20'000;
        cfg->checkpoints = 1;
    }
    const std::string bench = "xalancbmk";

    // The shadow retires late (at 13.2k of 24k when written), in a
    // pipeline seeded as runPhase seeds phase 0.
    wl::Workload w = wl::makeWorkload(bench);
    wl::Emulator emu(w.program);
    emu.resetArchState();
    w.init(emu, 0);
    core::Pipeline pipe(host.core, host.mech, emu, host.seed ^ 0x9e37);
    pipe.attachShadow(arm.mech, {"rsep"});
    u64 window = host.warmupInsts + host.measureInsts, retiredAt = 0;
    for (u64 n = 0; n < window && !retiredAt; n += 500) {
        pipe.run(500);
        if (pipe.shadowRetired(0))
            retiredAt = pipe.committedCount();
    }
    EXPECT_GT(retiredAt, window / 3);

    // Its shadow retires in the host, its cell resumes from the host's
    // snapshot, and it equals the arm run alone.
    std::vector<ShadowArm> shadows(1);
    shadows[0].mech = arm.mech;
    shadows[0].engines = {"rsep"};
    runPhase(host, bench, 0, {}, 0, {}, &shadows);
    EXPECT_FALSE(shadows[0].result);
    std::vector<SimConfig> configs = {host, arm};
    MatrixOptions mo;
    mo.jobs = 1;
    mo.progress = false;
    std::vector<MatrixRow> rows = runMatrix(configs, {bench}, mo);
    EXPECT_TRUE(rows[0].byConfig[1].phases[0].aliasOf.empty());
    EXPECT_EQ(rows[0].byConfig[1].phases[0].forkOf, "move-elim");
    expectRecords(records(configs, rows), aloneRecords(configs, {bench}));
}

TEST(ShadowEngine, ACachedHostMeansTheShadowedArmSimulates)
{
    TempDir tmp;
    std::vector<SimConfig> configs = {small("baseline"), small("rsep")};
    MatrixOptions mo;
    mo.jobs = 2;
    mo.progress = false;
    mo.cacheDir = (tmp.path / "cache").string();
    runMatrix({configs[0]}, silentRows, mo);

    std::vector<MatrixRow> rows = runMatrix(configs, silentRows, mo);
    for (const MatrixRow &row : rows)
        for (u32 p = 0; p < 2; ++p) {
            EXPECT_TRUE(row.byConfig[0].phases[p].fromCache);
            EXPECT_TRUE(row.byConfig[1].phases[p].aliasOf.empty());
        }
    // Cold, the same matrix takes rsep from baseline's shadows.
    mo.cacheDir.clear();
    std::vector<MatrixRow> cold = runMatrix(configs, silentRows, mo);
    EXPECT_EQ(aliasedCells(cold, true), silentRows.size() * 2);
    expectRecords(records(configs, rows), records(configs, cold));
    expectRecords(records(configs, cold), aloneRecords(configs, silentRows));
}

TEST(ShadowEngine, AZeroPredictorRidesItsArmsShadowUnlessItDrawsTheRng)
{
    // With a deterministic counter, rsep+zp's zero predictor is a
    // shadow beside RSEP's; an FPC counter draws from the Rng RSEP's
    // training shares, so such an arm gets no shadow.
    SimConfig fpc = small("rsep+zp");
    fpc.label = "rsep+zp-fpc";
    fpc.mech.rsep.confKind = ConfidenceKind::Fpc3;
    std::vector<SimConfig> configs = {small("baseline"), small("rsep+zp"),
                                      fpc};
    std::vector<std::string> benches = silentRows;
    benches.insert(benches.end(), actingRows.begin(), actingRows.end());
    MatrixOptions mo;
    mo.jobs = 4;
    mo.progress = false;
    std::vector<MatrixRow> rows = runMatrix(configs, benches, mo);
    size_t deterministic = 0;
    for (const MatrixRow &row : rows)
        for (u32 p = 0; p < 2; ++p) {
            deterministic += row.byConfig[1].phases[p].aliasByShadow;
            EXPECT_TRUE(row.byConfig[2].phases[p].aliasOf.empty());
        }
    EXPECT_GT(deterministic, 0u);
    expectRecords(records(configs, rows), aloneRecords(configs, benches));
}

// -------------------------------------------------------------- forks

/** A host arm and a later arm that is the host plus some engines. */
struct ForkCase
{
    std::string host;
    core::MechConfig arm;
    std::vector<std::string> engines;
};

std::vector<ForkCase>
forkCases()
{
    core::MechConfig vpredRsep = small("rsep+vpred").mech;
    vpredRsep.moveElim = false;
    core::MechConfig sampled = small("rsep-val-2x-sample15").mech;
    core::MechConfig fpc = small("zero-pred").mech;
    fpc.rsep.confKind = ConfidenceKind::Fpc3;
    return {
        {"move-elim", small("rsep").mech, {"rsep"}},
        {"move-elim", sampled, {"rsep"}},
        {"baseline", small("zero-pred").mech, {"zero-pred"}},
        {"baseline", fpc, {"zero-pred"}},
        {"baseline", small("vpred").mech, {"dvtage"}},
        {"rsep", small("rsep+vpred").mech, {"dvtage"}},
        {"vpred", vpredRsep, {"rsep"}},
    };
}

/** @p pr's record without its wall time. */
std::string
recordOf(const SimConfig &cfg, const std::string &bench, u32 p,
         PhaseResult pr)
{
    pr.wallMicros = 0;
    pr.forkOf.clear();
    pr.forkAt = 0;
    pr.replayed = pr.traceDecodeHit = false;
    pr.traceLoadMicros = 0;
    return ResultCache::serializeRecord({bench, configHash(cfg), p, cfg.seed},
                                        pr);
}

TEST(Fork, AForkedCellEqualsItsArmRunAlone)
{
    // Every kind of shadow, at 2k + 10k instructions so that most of
    // them act: each one that acts after its host's snapshot resumes
    // from it, and that cell equals its arm run alone (46 forks when
    // written).
    size_t forked = 0;
    for (const ForkCase &fc : forkCases())
        for (const std::string bench :
             {"mcf", "hmmer", "xalancbmk", "gobmk", "astar", "perlbench"})
            for (u32 p = 0; p < 2; ++p) {
                SCOPED_TRACE(fc.host + " + " + fc.engines[0] + " on " +
                             bench + "/" + std::to_string(p));
                SimConfig host = small(fc.host);
                host.warmupInsts = 2'000;
                host.measureInsts = 10'000;
                SimConfig arm = host;
                arm.mech = fc.arm;
                std::vector<ShadowArm> shadows(1);
                shadows[0].mech = fc.arm;
                shadows[0].engines = fc.engines;
                InitialStateSource initial = [&] {
                    return std::make_shared<const InitialState>(
                        wl::makeWorkload(bench), p);
                };
                runPhase(host, bench, p, {}, 0, initial, &shadows);
                if (!shadows[0].fork)
                    continue;
                ++forked;
                PhaseResult fork = shadows[0].fork->run(arm, 0);
                EXPECT_EQ(recordOf(arm, bench, p, fork),
                          recordOf(arm, bench, p, runPhase(arm, bench, p)));
            }
    EXPECT_GT(forked, 30u);
}

/** Every counter of @p pipe, its engines' included. */
std::vector<u64>
countersOf(core::Pipeline &pipe)
{
    std::vector<u64> out;
    core::visitStats(pipe.stats(), [&](const char *, StatCounter &c) {
        out.push_back(c.value());
    });
    const StatHistogram &hist = pipe.stats().commitGroupProducers;
    for (size_t b = 0; b < hist.buckets(); ++b)
        out.push_back(hist.bucket(b));
    for (const core::SpeculationEngine *e : pipe.engines())
        for (const auto &entry : e->statEntries())
            out.push_back(entry.counter->value());
    return out;
}

TEST(Fork, ACopiedPipelineRunsToTheSameStatRecord)
{
    // Every engine at once, live and replayed, copied mid-warm-up and
    // mid-measurement: the copy and the original finish alike.
    TempDir tmp;
    SimConfig cfg = small("rsep+vpred+zp");
    const std::string bench = "hmmer";
    MatrixOptions rec;
    rec.progress = false;
    rec.traceIo.recordDir = tmp.path.string();
    runMatrix({cfg}, {bench}, rec);
    wl::Workload w = wl::makeWorkload(bench);
    ReplayTrace rt = loadReplayTrace(tmp.path.string(), bench, 0,
                                     *wl::findWorkloadSpec(bench));
    ASSERT_TRUE(rt.trace) << rt.error;
    InitialState init(wl::makeWorkload(bench), 0);
    for (bool replay : {false, true})
        for (u64 at : {cfg.warmupInsts / 2,
                       cfg.warmupInsts + cfg.measureInsts / 2}) {
            SCOPED_TRACE((replay ? "replayed, at " : "live, at ") +
                         std::to_string(at));
            wl::Emulator emu(init.workload.program);
            emu.restore(init.image);
            wl::ReplayTraceSource rsrc(rt.trace, w.program, rt.path);
            wl::TraceSource &src =
                replay ? static_cast<wl::TraceSource &>(rsrc) : emu;
            core::Pipeline pipe(cfg.core, cfg.mech, src, 77);
            bool warm = at < cfg.warmupInsts;
            if (warm) {
                pipe.run(at);
            } else {
                pipe.run(cfg.warmupInsts);
                pipe.resetStats();
                pipe.run(at - cfg.warmupInsts);
            }
            core::Pipeline copy(pipe);
            for (core::Pipeline *p : {&pipe, &copy}) {
                if (warm) {
                    p->run(cfg.warmupInsts - at);
                    p->resetStats();
                    p->run(cfg.measureInsts);
                } else {
                    p->run(cfg.warmupInsts + cfg.measureInsts - at);
                }
            }
            EXPECT_EQ(countersOf(copy), countersOf(pipe));
            EXPECT_TRUE(copy.checkRegisterConservation());
        }
}

TEST(Fork, NoShadowActsBeforeItIsArmed)
{
    // For each kind of shadow engine over the suite, a shadow that
    // acts is live in the snapshot taken in the first cycle in which
    // it is armed, before that cycle's rename stage: its act comes
    // later, possibly in the same cycle.
    size_t acted = 0, sameCycle = 0;
    for (const ForkCase &fc : forkCases())
        for (const std::string &bench : wl::suiteNames()) {
            SCOPED_TRACE(fc.host + " + " + fc.engines[0] + " on " + bench);
            SimConfig host = small(fc.host);
            InitialState init(wl::makeWorkload(bench), 0);
            wl::Emulator emu(init.workload.program);
            emu.restore(init.image);
            core::Pipeline pipe(host.core, host.mech, emu, host.seed);
            pipe.attachShadow(fc.arm, fc.engines);
            pipe.requestSnapshot();
            pipe.run(host.warmupInsts);
            std::unique_ptr<core::Pipeline> snap = pipe.takeSnapshot();
            pipe.resetStats();
            pipe.run(host.measureInsts);
            if (!snap)
                snap = pipe.takeSnapshot();
            if (!pipe.shadowRetired(0))
                continue;
            ++acted;
            ASSERT_TRUE(snap);
            EXPECT_FALSE(snap->shadowRetired(0));
            bool armed = false;
            for (const core::SpeculationEngine *e : snap->shadowEngines(0))
                armed = armed || e->armed();
            EXPECT_TRUE(armed);
            EXPECT_LE(snap->cycleCount(), pipe.shadowActCycle(0));
            sameCycle += snap->cycleCount() == pipe.shadowActCycle(0);
        }
    // 82 acted, 29 of them in the snapshot's cycle, when written: a
    // snapshot one cycle late would have missed those.
    EXPECT_GT(acted, 50u);
    EXPECT_GT(sameCycle, 10u);
}

TEST(Fork, ACellThatRecordsATraceNeverForks)
{
    // The recording host takes no snapshot, so a shadow that acts
    // leaves its cell to simulate from cycle 0; without recording the
    // same cells fork. Either way the records are the arms' own, and
    // no initial state outlives the matrix (a fork holds its host's).
    TempDir tmp;
    std::vector<SimConfig> configs = {small("baseline"), small("zero-pred"),
                                      small("vpred")};
    for (SimConfig &cfg : configs) {
        cfg.warmupInsts = 2'000;
        cfg.measureInsts = 10'000;
    }
    const std::vector<std::string> benches = {"gobmk", "astar", "hmmer"};
    std::map<std::string, std::string> alone = aloneRecords(configs, benches);
    MatrixOptions mo;
    mo.jobs = 2;
    mo.progress = false;
    std::vector<MatrixRow> forked = runMatrix(configs, benches, mo);
    EXPECT_GT(forkedCells(forked), 0u);
    expectRecords(records(configs, forked), alone);
    mo.traceIo.recordDir = tmp.path.string();
    std::vector<MatrixRow> recorded = runMatrix(configs, benches, mo);
    EXPECT_EQ(forkedCells(recorded), 0u);
    expectRecords(records(configs, recorded), alone);
    EXPECT_EQ(InitialState::alive(), 0u);
}

} // namespace
} // namespace rsep::sim
