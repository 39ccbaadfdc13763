#include "sim/sample_io.hh"

#include "common/env.hh"
#include "common/envelope.hh"
#include "common/fnv.hh"

namespace rsep::sim
{

namespace
{

constexpr const char *samplesMagic = "rsep-samples";

std::string
encodeRows(const std::vector<core::StatSample> &rows)
{
    std::string payload;
    payload.reserve(rows.size() * core::sampleFieldCount());
    for (core::StatSample row : rows)
        core::visitSampleFields(
            row, [&](const char *, u64 &f, core::SampleFieldKind) {
                envelope::putVarint(payload, f);
            });
    return payload;
}

} // namespace

std::string
samplePath(const std::string &dir, const std::string &workload,
           const std::string &config_hash, u32 phase)
{
    return dir + "/" + envelope::pathComponent(workload) + "-" +
           envelope::pathComponent(config_hash) + "-p" +
           std::to_string(phase) + sampleFileExtension;
}

std::string
serializeSamples(const SampleSeriesHeader &header,
                 const std::vector<core::StatSample> &rows)
{
    return envelope::seal(samplesMagic, core::sampleSchemaVersion,
                          {{"workload", header.workload},
                           {"scenario", header.scenario},
                           {"config_hash", header.configHash},
                           {"phase", std::to_string(header.phase)},
                           {"period", std::to_string(header.period)},
                           {"fields", core::sampleFieldNames()},
                           {"rows", std::to_string(rows.size())}},
                          encodeRows(rows));
}

SamplesParse
parseSamplesText(std::string_view text, const std::string &origin)
{
    SamplesParse out;
    auto fail = [&](const std::string &msg) {
        out.error = origin + ": " + msg;
        out.rows.clear();
        return out;
    };
    envelope::Opened env = envelope::open(
        text, samplesMagic, core::sampleSchemaVersion,
        {"workload", "scenario", "config_hash", "phase", "period", "fields",
         "rows"},
        origin);
    if (!env.ok()) {
        out.error = std::move(env.error);
        return out;
    }
    const std::vector<std::string> &v = env.values;
    SampleSeriesHeader &h = out.header;
    u64 wide = 0;
    if (v[0].empty())
        return fail("bad workload header");
    h.workload = v[0];
    h.scenario = v[1];
    if (v[2].size() != 16 || !parseHex64(v[2], wide))
        return fail("bad config_hash header");
    h.configHash = v[2];
    if (!parseU64(v[3], wide) || wide > 0xffffffffull)
        return fail("bad phase header");
    h.phase = static_cast<u32>(wide);
    if (!parseU64(v[4], h.period) || h.period == 0)
        return fail("bad period header");
    // The field list pins what the payload columns mean: a reader
    // compiled with a different schema must not guess.
    if (v[5] != core::sampleFieldNames())
        return fail("field list does not match this build's sample "
                    "schema");
    if (!parseU64(v[6], h.rows))
        return fail("bad rows header");
    // Every field takes at least one varint byte; reject absurd row
    // counts before reserve() can abort on a corrupt header.
    std::string_view payload = env.payload;
    size_t fields = core::sampleFieldCount();
    if (h.rows > payload.size() / (fields ? fields : 1) + 1)
        return fail("truncated payload: row count " +
                    std::to_string(h.rows) +
                    " exceeds the available bytes");

    const char *p = payload.data();
    const char *end = p + payload.size();
    out.rows.reserve(h.rows);
    for (u64 r = 0; r < h.rows; ++r) {
        core::StatSample row;
        bool ok = true;
        core::visitSampleFields(
            row, [&](const char *, u64 &f, core::SampleFieldKind) {
                ok = ok && envelope::getVarint(p, end, f);
            });
        if (!ok)
            return fail("truncated payload at row " + std::to_string(r) +
                        " (payload offset " +
                        std::to_string(
                            static_cast<u64>(p - payload.data())) +
                        " of " + std::to_string(payload.size()) +
                        " bytes)");
        out.rows.push_back(row);
    }
    if (p != end)
        return fail("payload has " + std::to_string(end - p) +
                    " trailing bytes");
    return out;
}

SamplesParse
parseSamplesFile(const std::string &path)
{
    SamplesParse out;
    std::string image;
    if (!envelope::readFile(path, image, &out.error))
        return out;
    return parseSamplesText(image, path);
}

bool
writeSamplesFile(const std::string &path, const SampleSeriesHeader &header,
                 const std::vector<core::StatSample> &rows, std::string *err)
{
    // "rts.flush" faults: errno modes fail the flush; short fails it
    // leaving no file; truncate *publishes* a torn series — the next
    // parse must report the truncation, never assert.
    return envelope::publishFile(path, serializeSamples(header, rows),
                                 "rts.flush", nullptr, err);
}

void
writeSamplesCsv(std::ostream &os, const SampleSeriesHeader &header,
                const std::vector<core::StatSample> &rows, bool with_header)
{
    if (with_header)
        os << sampleCsvIdColumns << "," << core::sampleFieldNames() << "\n";
    for (core::StatSample row : rows) {
        os << header.workload << "," << header.scenario << ","
           << header.configHash << "," << header.phase;
        core::visitSampleFields(
            row, [&](const char *, u64 &f, core::SampleFieldKind) {
                os << "," << f;
            });
        os << "\n";
    }
}

} // namespace rsep::sim
