#include "wl/trace_io.hh"

#include <algorithm>
#include <cstring>

#include "common/env.hh"
#include "common/envelope.hh"
#include "common/fault.hh"
#include "common/fnv.hh"
#include "common/logging.hh"

namespace rsep::wl
{

namespace
{

using envelope::putVarint;
using namespace rtr;

constexpr const char *traceMagic = "rsep-trace";

u64
zigzag(u64 v)
{
    s64 sv = static_cast<s64>(v);
    return (static_cast<u64>(sv) << 1) ^ static_cast<u64>(sv >> 63);
}

std::string
encodePayload(const std::vector<DynRecord> &records)
{
    std::string payload;
    payload.reserve(records.size() * 4); // typical record: 1-4 bytes.
    u32 prev_next = 0;
    u64 prev_result = 0;
    Addr prev_eff = 0; ///< last memory record's address.
    for (const DynRecord &r : records) {
        u8 flags = 0;
        if (r.staticIdx == prev_next)
            flags |= fSameStatic;
        if (r.taken)
            flags |= fTaken;
        if (r.nextIdx == r.staticIdx + 1)
            flags |= fSeqNext;
        if (r.result == 0)
            flags |= fResultZero;
        else if (r.result == prev_result)
            flags |= fResultSame;
        if (r.effAddr == 0)
            flags |= fEffZero;
        payload.push_back(static_cast<char>(flags));
        if (!(flags & fSameStatic))
            putVarint(payload, r.staticIdx);
        if (!(flags & fSeqNext))
            putVarint(payload,
                      zigzag(static_cast<u64>(r.nextIdx) -
                             static_cast<u64>(r.staticIdx) - 1));
        if (!(flags & (fResultZero | fResultSame)))
            putVarint(payload, zigzag(r.result - prev_result));
        if (!(flags & fEffZero)) {
            putVarint(payload, zigzag(r.effAddr - prev_eff));
            prev_eff = r.effAddr;
        }
        prev_next = r.nextIdx;
        prev_result = r.result;
    }
    return payload;
}

/** An opened trace image: the validated header plus the envelope
 *  (whose payload view aliases the image). */
struct OpenedTrace
{
    TraceHeader header;
    envelope::Opened env;
    std::string error; ///< "origin: message"; empty on success.

    bool ok() const { return error.empty(); }
};

OpenedTrace
openTrace(std::string_view text, const std::string &origin)
{
    OpenedTrace out;
    out.env = envelope::open(text, traceMagic, traceFormatVersion,
                             {"workload", "workload_hash", "phase",
                              "program_length", "records"},
                             origin);
    if (!out.env.ok()) {
        out.error = out.env.error;
        return out;
    }
    auto fail = [&](const std::string &msg) {
        out.error = origin + ": " + msg;
        return out;
    };
    const std::vector<std::string> &v = out.env.values;
    TraceHeader &h = out.header;
    u64 wide = 0;
    if (v[0].empty())
        return fail("bad workload header");
    h.workload = v[0];
    if (v[1].size() != 16 || !parseHex64(v[1], wide))
        return fail("bad workload_hash header");
    h.workloadHash = v[1];
    if (!parseU64(v[2], wide) || wide > 0xffffffffull)
        return fail("bad phase header");
    h.phase = static_cast<u32>(wide);
    if (!parseU64(v[3], h.programLength))
        return fail("bad program_length header");
    if (!parseU64(v[4], h.records))
        return fail("bad records header");
    // Every record takes at least its flag byte.
    if (h.records > out.env.payload.size())
        return fail("truncated payload: record count " +
                    std::to_string(h.records) +
                    " exceeds the available bytes");
    return out;
}

/**
 * Apply an armed trace fault to a file image about to be parsed.
 * Errno modes fail the read outright ("injected <what>"); truncate and
 * short cut the image view — the envelope's size and checksum guards
 * downstream must turn that into a diagnostic, which is exactly what
 * the fault matrix asserts. Returns false when the read should fail.
 */
bool
injectTraceFault(const char *point_name, std::string_view &text,
                 const std::string &origin, std::string &error)
{
    fault::Injected inj = fault::point(point_name);
    if (!inj)
        return true;
    if (inj.kind == fault::Kind::Delay) {
        fault::sleepMicros(inj.amount);
        return true;
    }
    if (inj.kind == fault::Kind::Errno) {
        error = origin + ": " + point_name + ": injected " +
                std::strerror(inj.err);
        return false;
    }
    text = text.substr(0, std::min<size_t>(inj.amount, text.size()));
    return true;
}

} // namespace

bool
TraceCursor::fail(const char *what)
{
    // The byte offset matters: a torn download or short copy fails
    // here, and "record 48127" alone doesn't say where in the file to
    // look.
    err = std::string(what) + " at record " + std::to_string(idx) +
          " (payload offset " + std::to_string(p - base) + " of " +
          std::to_string(end - base) + " bytes)";
    return false;
}

std::string
tracePath(const std::string &dir, const std::string &workload, u32 phase)
{
    return dir + "/" + envelope::pathComponent(workload) + "-p" +
           std::to_string(phase) + traceFileExtension;
}

std::string
serializeTrace(const TraceHeader &header,
               const std::vector<DynRecord> &records)
{
    return envelope::seal(
        traceMagic, traceFormatVersion,
        {{"workload", header.workload},
         {"workload_hash", header.workloadHash},
         {"phase", std::to_string(header.phase)},
         {"program_length", std::to_string(header.programLength)},
         {"records", std::to_string(records.size())}},
        encodePayload(records));
}

DecodedTraceParse
decodeTraceImage(std::string image, const std::string &origin)
{
    DecodedTraceParse out;
    // The trace owns the image from here on, so the payload view taken
    // below stays valid for the trace's lifetime.
    auto decoded = std::make_shared<DecodedTrace>();
    decoded->image = std::move(image);
    std::string_view text = decoded->image;
    // "trace.decode" injects here so every decode path — the tooling
    // loader and the shared DecodedTraceCache alike — is covered.
    if (!injectTraceFault("trace.decode", text, origin, out.error))
        return out;
    OpenedTrace opened = openTrace(text, origin);
    if (!opened.ok()) {
        out.error = std::move(opened.error);
        return out;
    }
    // Validate every record once, here, so replay never meets a bad
    // byte; then keep the encoded payload rather than a decoded copy.
    TraceCursor cursor(opened.env.payload);
    DynRecord r;
    for (u64 i = 0; i < opened.header.records; ++i) {
        if (!cursor.next(r)) {
            out.error = origin + ": " + cursor.error();
            return out;
        }
    }
    if (cursor.remaining() != 0) {
        out.error = origin + ": payload has " +
                    std::to_string(cursor.remaining()) +
                    " trailing bytes after the last record";
        return out;
    }
    decoded->header = opened.header;
    decoded->payload = opened.env.payload;
    out.trace = std::move(decoded);
    return out;
}

TraceParse
readTraceFile(const std::string &path)
{
    TraceParse out;
    std::string image;
    if (!envelope::readFile(path, image, &out.error))
        return out;
    std::string_view view = image;
    if (!injectTraceFault("trace.read", view, path, out.error))
        return out;
    OpenedTrace opened = openTrace(view, path);
    out.header = opened.header;
    out.error = std::move(opened.error);
    return out;
}

std::string
traceIdentityMismatch(const TraceHeader &header, const std::string &workload,
                      u32 phase, const std::string &workload_hash)
{
    if (header.workload == workload && header.phase == phase &&
        header.workloadHash == workload_hash)
        return "";
    auto cell = [](const std::string &w, u32 p, const std::string &h) {
        return "(" + w + ", phase " + std::to_string(p) + ", hash " + h +
               ")";
    };
    return "trace identity " +
           cell(header.workload, header.phase, header.workloadHash) +
           " does not match the requested cell " +
           cell(workload, phase, workload_hash);
}

DecodedTraceParse
loadDecodedTrace(const std::string &path)
{
    DecodedTraceParse out;
    std::string image;
    if (!envelope::readFile(path, image, &out.error))
        return out;
    return decodeTraceImage(std::move(image), path);
}

std::shared_ptr<const DecodedTrace>
DecodedTrace::fromRecords(TraceHeader header,
                          const std::vector<DynRecord> &records)
{
    auto out = std::make_shared<DecodedTrace>();
    header.records = records.size();
    out->header = std::move(header);
    out->image = encodePayload(records);
    out->payload = out->image;
    return out;
}

bool
writeTraceFile(const std::string &path, const TraceHeader &header,
               const std::vector<DynRecord> &records, std::string *err)
{
    // "trace.write" faults: errno modes fail the write; short fails it
    // after leaving no file behind; truncate *publishes* a torn trace —
    // the checksum trailer is gone, so the next read must diagnose it.
    return envelope::publishFile(path, serializeTrace(header, records),
                                 "trace.write", nullptr, err);
}

bool
RecordingTraceSource::write(const std::string &path, TraceHeader header,
                            std::string *err) const
{
    header.records = buffer.size();
    header.programLength = program().size();
    return writeTraceFile(path, header, buffer, err);
}

ReplayTraceSource::ReplayTraceSource(
    std::shared_ptr<const DecodedTrace> decoded, const isa::Program &program,
    std::string origin_label)
    : trace(std::move(decoded)), prog(program),
      origin(std::move(origin_label))
{
    if (!trace)
        rsep_fatal("replay: %s: null decoded trace", origin.c_str());
    cursor = TraceCursor(trace->payload);
    if (trace->header.programLength != prog.size())
        rsep_fatal("replay: %s: program length %llu does not match the "
                   "registry workload's %zu instructions",
                   origin.c_str(),
                   static_cast<unsigned long long>(
                       trace->header.programLength),
                   prog.size());
}

const DynRecord &
ReplayTraceSource::step()
{
    const u64 i = cursor.index();
    if (i >= trace->size())
        rsep_fatal("replay: %s: trace exhausted after %zu records — the "
                   "trace was recorded under a smaller run sizing than "
                   "this replay needs; re-record with at least this "
                   "run's warmup+measure window",
                   origin.c_str(), trace->size());
    // The payload was validated at load; a failure here is a bug.
    if (!cursor.next(cur))
        rsep_panic("replay: %s: %s", origin.c_str(),
                   cursor.error().c_str());
    if (cur.staticIdx >= prog.size() || cur.nextIdx >= prog.size())
        rsep_fatal("replay: %s: record %llu indexes outside the program "
                   "(staticIdx %u, nextIdx %u, program %zu)",
                   origin.c_str(), static_cast<unsigned long long>(i),
                   cur.staticIdx, cur.nextIdx, prog.size());
    return cur;
}

} // namespace rsep::wl
