/**
 * @file
 * Byte pins for the persisted and wire formats: a `.rtr` v2 trace, a
 * `.rts` sample series, a `.cell` result-cache record and two
 * rsep_serve frame payloads, each built from fixed inputs and hashed
 * (FNV-1a 64); the files are also written through the format's own
 * publish path. The constants were generated once and must never move
 * with a refactor of the envelope code: any change to them is a format
 * change and needs a version bump, not a new constant.
 *
 * The `.cell` image lists every introspected pipeline counter, so
 * adding a counter legitimately moves its pin (as it moves the
 * goldens); the `.rtr`, `.rts` and frame pins depend only on their
 * codecs.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "common/fnv.hh"
#include "core/sampler.hh"
#include "serve/protocol.hh"
#include "sim/result_cache.hh"
#include "sim/sample_io.hh"
#include "wl/trace_io.hh"

namespace fs = std::filesystem;

namespace rsep
{
namespace
{

constexpr u64 rtrPin = 0x237a0fa6c644f533ull;
constexpr u64 rtsPin = 0x034883504a15ab7aull;
constexpr u64 cellPin = 0xc3fdc4e6d3620073ull;
constexpr u64 submitPin = 0xae89b2a4fee1dae9ull;
constexpr u64 cellFramePin = 0x6d0c729441bcb96eull;

std::string
scratchDir(const std::string &tag)
{
    std::string dir = (fs::temp_directory_path() /
                       ("rsep_pin_" + tag + "_" +
                        std::to_string(::getpid())))
                          .string();
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

/** Records exercising every v2 flag path: sequential and jumping
 *  control flow, zero / repeated / changing results, memory and
 *  non-memory records, and extreme values. */
std::vector<wl::DynRecord>
pinRecords()
{
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
    add(0xffffffff, 0, ~u64{0}, ~u64{0}, true);
    add(0, 0xffffffff, 0, 0, false);
    add(5, 2, 1, 8, true);
    add(2, 3, 1, 0, false);
    for (u64 i = 0; i < 400; ++i)
        add(static_cast<u32>(i % 41), static_cast<u32>((i * 7 + 1) % 41),
            i % 5 ? 0x0123456789abcdefull ^ (i << 13) : 0,
            i % 3 ? 0x10000000 + 24 * (i % 29) : 0, i % 4 == 1);
    return recs;
}

wl::TraceHeader
pinTraceHeader()
{
    wl::TraceHeader h;
    h.workload = "pin@0123456789abcdef";
    h.workloadHash = "0123456789abcdef";
    h.phase = 3;
    h.programLength = 41;
    h.records = pinRecords().size();
    return h;
}

sim::SampleSeriesHeader
pinSampleHeader()
{
    sim::SampleSeriesHeader h;
    h.workload = "mcf";
    h.scenario = "rsep";
    h.configHash = "fedcba9876543210";
    h.phase = 1;
    h.period = 500;
    return h;
}

std::vector<core::StatSample>
pinRows()
{
    std::vector<core::StatSample> rows(5);
    u64 v = 3;
    for (core::StatSample &r : rows)
        core::visitSampleFields(
            r, [&](const char *, u64 &f, core::SampleFieldKind) {
                v = v * 6364136223846793005ull + 1442695040888963407ull;
                f = v >> (v % 61); // a spread of varint widths.
            });
    return rows;
}

sim::CacheKey
pinKey()
{
    return {"mcf", "00112233445566ff", 2, 0x5eed};
}

sim::PhaseResult
pinPhase()
{
    sim::PhaseResult pr;
    pr.ipc = 1.2345678901234567;
    pr.wallMicros = 987654;
    u64 v = 11;
    visitStats(pr.stats, [&](const char *, StatCounter &c) {
        c += v;
        v = v * 31 + 7;
    });
    StatHistogram &h = pr.stats.commitGroupProducers;
    for (size_t b = 0; b < h.buckets(); ++b)
        h.sample(b, b * b + 1);
    pr.engineStats = {{"engine.rsep.shared", 4242},
                      {"engine.rsep.mispredicts", 17}};
    return pr;
}

TEST(FormatPin, RtrV2ImageAndFileBytesArePinned)
{
    std::string image = wl::serializeTrace(pinTraceHeader(), pinRecords());
    EXPECT_EQ(hex64(fnv1a64(image)), hex64(rtrPin));

    std::string dir = scratchDir("rtr");
    std::string path = wl::tracePath(dir, pinTraceHeader().workload, 3);
    EXPECT_EQ(path, dir + "/pin@0123456789abcdef-p3.rtr");
    std::string err;
    ASSERT_TRUE(
        wl::writeTraceFile(path, pinTraceHeader(), pinRecords(), &err))
        << err;
    EXPECT_EQ(slurp(path), image);
    fs::remove_all(dir);
}

TEST(FormatPin, RtsImageAndFileBytesArePinned)
{
    std::string image = sim::serializeSamples(pinSampleHeader(), pinRows());
    EXPECT_EQ(hex64(fnv1a64(image)), hex64(rtsPin));

    std::string dir = scratchDir("rts");
    sim::SampleSeriesHeader h = pinSampleHeader();
    std::string path = sim::samplePath(dir, h.workload, h.configHash,
                                       h.phase);
    std::string err;
    ASSERT_TRUE(sim::writeSamplesFile(path, h, pinRows(), &err)) << err;
    EXPECT_EQ(slurp(path), image);
    fs::remove_all(dir);
}

TEST(FormatPin, CellRecordBytesArePinned)
{
    std::string dir = scratchDir("cell");
    sim::ResultCache cache(dir);
    ASSERT_TRUE(cache.store(pinKey(), pinPhase()));
    std::string file = slurp(cache.cellPath(pinKey()));
    EXPECT_EQ(hex64(fnv1a64(file)), hex64(cellPin));
    EXPECT_EQ(cache.cellPath(pinKey()),
              dir + "/mcf/00112233445566ff-p2-s0000000000005eed.cell");
    // Cache paths keep their '@'-free spelling of custom workloads.
    EXPECT_EQ(cache.cellPath({"pin@0123456789abcdef", "00112233445566ff",
                              2, 0x5eed}),
              dir + "/pin_0123456789abcdef/"
                    "00112233445566ff-p2-s0000000000005eed.cell");
    // The file is exactly the sealed record a Cell frame carries.
    EXPECT_EQ(file, sim::ResultCache::serializeRecord(pinKey(), pinPhase()));
    fs::remove_all(dir);
}

// A change to these bytes is a wire change: bump serve::protocolVersion.
TEST(FormatPin, ServeFramePayloadsArePinned)
{
    serve::SubmitRequest sub;
    sub.benchmarks = {"mcf", "pin@0123456789abcdef"};
    sub.sampleEvery = 500;
    sub.replayDir = "traces/pin";
    sub.scnText = "[scenario]\nname = pin\nrsep = on\n";
    sub.retry = 2;
    EXPECT_EQ(hex64(fnv1a64(serve::serializeSubmit(sub))),
              hex64(submitPin));

    // A fixed record blob, so this pin moves with the frame codec only
    // (the record itself is pinned above).
    serve::CellResult cell;
    cell.benchmark = "mcf";
    cell.config = 1;
    cell.phase = 2;
    cell.fromCache = true;
    cell.replayed = false;
    cell.decodeHit = true;
    cell.traceLoadMicros = 4321;
    cell.record = "record bytes\n";
    EXPECT_EQ(hex64(fnv1a64(serve::serializeCell(cell))),
              hex64(cellFramePin));
}

} // namespace
} // namespace rsep
