/**
 * @file
 * Tool tests of record and replay with the built binaries
 * (tests/tool_harness.hh):
 *
 *  - traces recorded during a live ci_smoke run pass `rsep_trace
 *    info`, `validate --deep` and `dump`;
 *  - a flipped payload byte and a truncated file are rejected by the
 *    validator and by a replay run, naming the fault, and a trace
 *    written by the previous format version is rejected by its version,
 *    not as corruption;
 *  - replay reproduces the live dump byte for byte, run over run, and
 *    one process decodes each trace once however many arms replay it.
 */

#include <gtest/gtest.h>

#include "common/fnv.hh"
#include "sim/stat_merge.hh"
#include "tool_harness.hh"

namespace rsep::tooltest
{
namespace
{

const std::string workloads = "mcf,hmmer,libquantum";

/** Traces recorded during the live run, shared by every case. */
struct Recording
{
    WorkDir dir;
    RunResult live = dir.run({"bench_fig4_speedup", "--scenario-file",
                              ciSmoke(), "--workload", workloads,
                              "--record-trace", "traces", "--csv",
                              "live.csv", "--jobs", "2"});
};

const Recording &
recording()
{
    static Recording r;
    return r;
}

/** Replay the ci_smoke arms from @p traces in @p dir. */
RunResult
replay(WorkDir &dir, const std::string &traces, const std::string &csv,
       const Args &extra = {})
{
    return dir.run(with({"bench_fig4_speedup", "--scenario-file", ciSmoke(),
                         "--workload", workloads, "--replay-trace", traces,
                         "--csv", csv, "--jobs", "2"},
                        extra));
}

TEST(ToolReplay, RecordedTracesInspectAndValidate)
{
    const Recording &rec = recording();
    ASSERT_EQ(rec.live.exitCode, 0) << rec.live;
    std::vector<std::string> traces = filesUnder(rec.dir / "traces", ".rtr");
    ASSERT_EQ(traces.size(), 3u);
    WorkDir dir;
    for (const Args &argv :
         {with({"rsep_trace", "info"}, traces),
          with({"rsep_trace", "validate", "--deep"}, traces),
          Args{"rsep_trace", "dump", "--limit", "8",
               rec.dir / "traces/mcf-p0.rtr"}}) {
        RunResult r = dir.run(argv);
        EXPECT_EQ(r.exitCode, 0) << r;
    }
}

TEST(ToolReplay, CorruptAndTruncatedTracesAreRejectedAtLoad)
{
    const Recording &rec = recording();
    ASSERT_EQ(rec.live.exitCode, 0) << rec.live;
    WorkDir dir;
    for (const char *bad : {"bad_flip", "bad_trunc", "bad_v2"})
        fs::copy(rec.dir / "traces", dir / bad);
    std::string flip = readFile(dir / "bad_flip/mcf-p0.rtr");
    size_t payload = flip.find("payload\n");
    ASSERT_NE(payload, std::string::npos);
    ASSERT_LT(payload + 8 + 100, flip.size());
    flip[payload + 8 + 100] ^= 0x40;
    writeFile(dir / "bad_flip/mcf-p0.rtr", flip);
    fs::resize_file(dir / "bad_trunc/hmmer-p0.rtr",
                    fs::file_size(dir / "bad_trunc/hmmer-p0.rtr") / 2);
    // The same trace as version 2 wrote it: its version line and an
    // FNV-1a 64 trailer over the unchanged payload.
    std::string v2 = readFile(dir / "bad_v2/mcf-p0.rtr");
    ASSERT_TRUE(v2.starts_with("rsep-trace 3\n"));
    v2[11] = '2';
    const size_t body = v2.find("payload\n") + 8;
    const size_t trailer = v2.size() - 29;
    ASSERT_EQ(v2.substr(trailer, 12), "\nchecksum = ");
    v2 = v2.substr(0, trailer + 12) +
         hex64(fnv1a64(std::string_view(v2).substr(body, trailer - body))) +
         "\n";
    writeFile(dir / "bad_v2/mcf-p0.rtr", v2);

    const char *stale = "unsupported rsep-trace version 2 (this build reads "
                        "version 3 only)";
    for (auto [pattern, bad, file] :
         {std::tuple{"checksum mismatch", "bad_flip", "mcf-p0.rtr"},
          std::tuple{"truncated", "bad_trunc", "hmmer-p0.rtr"},
          std::tuple{stale, "bad_v2", "mcf-p0.rtr"}}) {
        RunResult validate = dir.run(
            {"rsep_trace", "validate", std::string(bad) + "/" + file});
        EXPECT_NE(validate.exitCode, 0) << validate;
        EXPECT_TRUE(validate.mentions(pattern)) << pattern << validate;
        RunResult replayed = replay(dir, bad, "rejected.csv");
        EXPECT_NE(replayed.exitCode, 0) << replayed;
        EXPECT_TRUE(replayed.mentions(pattern)) << pattern << replayed;
        if (pattern == stale) {
            EXPECT_FALSE(validate.mentions("checksum mismatch")) << validate;
            EXPECT_FALSE(replayed.mentions("checksum mismatch")) << replayed;
        }
    }
}

TEST(ToolReplay, ReplayReproducesTheLiveDumpByteForByte)
{
    const Recording &rec = recording();
    ASSERT_EQ(rec.live.exitCode, 0) << rec.live;
    WorkDir dir;
    RunResult r = replay(dir, rec.dir / "traces", "replay.csv");
    ASSERT_EQ(r.exitCode, 0) << r;
    EXPECT_TRUE(sameFile(rec.dir / "live.csv", dir / "replay.csv"));
}

TEST(ToolReplay, SharedDecodedTraceCacheServesTheMultiArmSweep)
{
    const Recording &rec = recording();
    ASSERT_EQ(rec.live.exitCode, 0) << rec.live;
    WorkDir dir;
    // The dump is deterministic run over run (warm page cache too) ...
    RunResult cold = replay(dir, rec.dir / "traces", "replay.csv");
    ASSERT_EQ(cold.exitCode, 0) << cold;
    RunResult warm = replay(dir, rec.dir / "traces", "replay_warm.csv");
    ASSERT_EQ(warm.exitCode, 0) << warm;
    EXPECT_TRUE(sameFile(dir / "replay.csv", dir / "replay_warm.csv"));

    // ... and inside one process the second arm hits the decoded-trace
    // cache: one decode per trace file, however many arms replay it.
    RunResult timed =
        replay(dir, rec.dir / "traces", "replay_timed.csv", {"--timings"});
    ASSERT_EQ(timed.exitCode, 0) << timed;
    sim::DumpParse dump = sim::parseDumpFile(dir / "replay_timed.csv");
    ASSERT_TRUE(dump.ok()) << dump.error;
    ASSERT_FALSE(dump.rows.empty()) << "empty timed replay dump";
    u64 hits = sumCounter(dump.rows, "timing.trace_decode_hits");
    u64 misses = sumCounter(dump.rows, "timing.trace_decode_misses");
    u64 cells = sumCounter(dump.rows, "timing.cells_run");
    EXPECT_EQ(misses, 3u); // one per trace file.
    EXPECT_EQ(hits, cells - misses);
    EXPECT_GT(hits, 0u);
    sumCounter(dump.rows, "timing.trace_load_micros"); // present in every row.
}

} // namespace
} // namespace rsep::tooltest
