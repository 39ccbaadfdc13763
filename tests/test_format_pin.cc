/**
 * @file
 * Byte pins for the persisted and wire formats: a `.rtr` v3 trace, a
 * `.rts` v2 sample series, a `.cell` v3 result-cache record and two
 * rsep_serve frame payloads (protocol 4), each built from fixed inputs
 * and hashed (FNV-1a 64, the identity hash; the images' own trailers
 * are XXH64); the files are also written through the format's own
 * publish path. The constants must never move with a refactor of the
 * envelope code: any change to them is a format change and moves only
 * together with a version bump (the XXH64 trailer moved all five, with
 * `.rtr` 2->3, `.rts` 1->2, `.cell` 2->3 and protocol 3->4). A last
 * pin holds the `.rtr` record decoder's diagnostics for every cut of
 * the pin payload.
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

#include "common/envelope.hh"
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

constexpr u64 rtrPin = 0xd6c8e76e501046e7ull;
constexpr u64 rtsPin = 0x433b72731b23c6c6ull;
constexpr u64 cellPin = 0x02a1b0ab46c6e6faull;
constexpr u64 submitPin = 0xa29f2419eb561983ull;
constexpr u64 cellFramePin = 0xccead854d0d6aad3ull;
/** Every diagnostic of the pin trace's payload cut at each offset. */
constexpr u64 payloadCutPin = 0xfccc66f120be8258ull;

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

/** Records exercising every flag path: sequential and jumping
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

TEST(FormatPin, RtrV3ImageAndFileBytesArePinned)
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

// The record decoder's diagnostics are part of the format's contract:
// every cut of the pin payload, walked by a TraceCursor and loaded as a
// sealed trace claiming all its records, must fail with the same text,
// "<what> at record N (payload offset O of B bytes)". The cuts cover
// every field of every record.
TEST(FormatPin, EveryPayloadCutIsDiagnosedAsPinned)
{
    wl::TraceHeader h = pinTraceHeader();
    wl::DecodedTraceParse full =
        wl::decodeTraceImage(wl::serializeTrace(h, pinRecords()), "<pin>");
    ASSERT_TRUE(full.ok()) << full.error;
    const std::string payload(full.trace->payload);

    std::string all;
    for (size_t len = 0; len < payload.size(); ++len) {
        const std::string cut = payload.substr(0, len);
        wl::TraceCursor cursor(cut);
        wl::DynRecord r;
        u64 decoded = 0;
        while (decoded < h.records && cursor.next(r))
            ++decoded;
        ASSERT_LT(decoded, h.records) << "cut at " << len;
        const std::string loaded =
            wl::decodeTraceImage(
                envelope::seal("rsep-trace", wl::traceFormatVersion,
                               {{"workload", h.workload},
                                {"workload_hash", h.workloadHash},
                                {"phase", std::to_string(h.phase)},
                                {"program_length",
                                 std::to_string(h.programLength)},
                                {"records", std::to_string(h.records)}},
                               cut),
                "<cut>")
                .error;
        // A cut shorter than one flag byte per record fails on the
        // header's record count; every other one reaches the walk.
        if (len >= h.records) {
            EXPECT_EQ(loaded, "<cut>: " + cursor.error());
        } else {
            EXPECT_EQ(loaded, "<cut>: truncated payload: record count " +
                                  std::to_string(h.records) +
                                  " exceeds the available bytes");
        }
        all += cursor.error() + "\n" + loaded + "\n";
    }
    // The pinned text, spelled out at a few cuts.
    auto cutError = [&](size_t len) {
        wl::TraceCursor cursor(std::string_view(payload).substr(0, len));
        wl::DynRecord r;
        while (cursor.next(r)) {
        }
        return cursor.error();
    };
    EXPECT_EQ(cutError(5), "bad staticIdx varint at record 0 "
                           "(payload offset 5 of 5 bytes)");
    EXPECT_EQ(cutError(14), "truncated payload at record 2 "
                            "(payload offset 14 of 14 bytes)");
    EXPECT_EQ(cutError(404), "bad result varint at record 56 "
                             "(payload offset 404 of 404 bytes)");
    EXPECT_EQ(hex64(fnv1a64(all)), hex64(payloadCutPin));
}

} // namespace
} // namespace rsep
