/**
 * @file
 * The `.rtr` recorded-trace format plus the recording/replay
 * TraceSources built on it.
 *
 * A trace is the committed-path DynRecord stream of one (workload,
 * checkpoint-phase) cell. The stream is purely architectural — it
 * depends only on the workload's program and per-phase init, never on
 * the core configuration — so one recording serves every mechanism arm
 * of a sweep (record once, replay many; warm sweeps skip functional
 * emulation entirely, stacking with the per-cell result cache).
 *
 * On-disk layout: the common/envelope.hh envelope (DESIGN.md §17)
 * with these header keys:
 *
 *     rsep-trace 3
 *     workload = mcf                 # run-cell key (name or name@hash)
 *     workload_hash = 16-hex         # workloadHash of the spec
 *     phase = 0
 *     program_length = 57            # static-instruction count echo
 *     records = 123456
 *     payload
 *     <encoded records>
 *     checksum = 16-hex
 *
 * Payload: per record, a flag byte + LEB128 varints, exploiting
 * committed-path structure to cut fleet trace-distribution cost
 * several-fold: staticIdx is usually the previous record's nextIdx (1
 * bit), nextIdx is usually staticIdx+1 (1 bit, else a zigzag delta),
 * results are often zero or repeat the previous record's (1 bit each,
 * else a zigzag delta against the previous result), and effective
 * addresses delta against the previous memory access.
 *
 * Version policy: writers emit traceFormatVersion and readers accept
 * only it; a file of any other version is rejected with a diagnostic
 * and must be re-recorded.
 *
 * The read data path (DESIGN.md §11): files are read whole with
 * envelope::readFile, validated once at load by walking every record
 * with a TraceCursor, and kept as read, payload in place; replay
 * decodes records from it on demand.
 *
 * Files are published atomically (temp + rename). A reader rejects —
 * with a diagnostic, never a partial result — version or checksum
 * mismatches, truncation, and malformed headers; replay additionally
 * validates the workload identity and program-length echo against the
 * registry spec it is asked to feed.
 */

#ifndef RSEP_WL_TRACE_IO_HH
#define RSEP_WL_TRACE_IO_HH

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/envelope.hh"
#include "wl/trace_source.hh"

namespace rsep::wl
{

/** The trace-format version: the only one written and read. Bump on
 *  any layout change; files of other versions must be re-recorded.
 *  v3: the trailer checksum is XXH64 (envelope::checksum). */
constexpr unsigned traceFormatVersion = 3;

/** Conventional file extension (tracePath appends it). */
constexpr const char *traceFileExtension = ".rtr";

/** Identity header of one `.rtr` file. */
struct TraceHeader
{
    std::string workload;     ///< run-cell key (workloadKey).
    std::string workloadHash; ///< 16-hex workloadHash of the spec.
    u32 phase = 0;
    u64 programLength = 0;    ///< static-instruction count echo.
    u64 records = 0;
};

/** Canonical on-disk location of a cell's trace under @p dir. */
std::string tracePath(const std::string &dir, const std::string &workload,
                      u32 phase);

/** Serialize a complete trace file image (header+payload+checksum). */
std::string serializeTrace(const TraceHeader &header,
                           const std::vector<DynRecord> &records);

/** Outcome of reading a trace file's header, or a diagnostic. */
struct TraceParse
{
    TraceHeader header;
    std::string error; ///< "path: message"; empty on success.

    bool ok() const { return error.empty(); }
};

/** Read a trace file's header. The whole envelope is validated and the
 *  payload checksummed, but not decoded. */
TraceParse readTraceFile(const std::string &path);

/** Why a trace with @p header cannot feed the cell (@p workload,
 *  @p phase) whose spec hashes to @p workload_hash: "trace identity
 *  (...) does not match the requested cell (...)". Empty when it
 *  matches. Hash equality implies program-length equality (the program
 *  is generated from the spec). */
std::string traceIdentityMismatch(const TraceHeader &header,
                                  const std::string &workload, u32 phase,
                                  const std::string &workload_hash);

/** The `.rtr` payload's per-record flag bits and delta coding (layout
 *  above), shared by the encoder and TraceCursor. */
namespace rtr
{

enum : u8 {
    fSameStatic = 1 << 0, ///< staticIdx == previous record's nextIdx.
    fTaken = 1 << 1,
    fSeqNext = 1 << 2,    ///< nextIdx == staticIdx + 1.
    fResultZero = 1 << 3,
    fResultSame = 1 << 4, ///< result == previous record's result.
    fEffZero = 1 << 5,    ///< effAddr == 0 (non-memory record).
};

inline u64
unzigzag(u64 v)
{
    return (v >> 1) ^ (~(v & 1) + 1);
}

} // namespace rtr

/**
 * The one `.rtr` payload decoder, one record per next() call, used by
 * load-time validation, replay and the tooling. It reads the payload
 * in place; the bytes must outlive it. next() is inline: the load-time
 * walk and ReplayTraceSource::step() call it once per record.
 */
class TraceCursor
{
  public:
    TraceCursor() = default;
    explicit TraceCursor(std::string_view payload)
        : base(payload.data()), p(payload.data()),
          end(payload.data() + payload.size())
    {}

    /** Decode the next record into @p r. False on malformed bytes;
     *  error() then says what went wrong and where. */
    bool next(DynRecord &r);

    /** Records decoded so far: the index of the next record. */
    u64 index() const { return idx; }

    /** Payload bytes not yet consumed. */
    u64 remaining() const { return static_cast<u64>(end - p); }

    /** Why next() failed: what, at which record and payload offset. */
    const std::string &error() const { return err; }

  private:
    bool fail(const char *what);

    const char *base = nullptr;
    const char *p = nullptr;
    const char *end = nullptr;
    u64 idx = 0;
    // Delta bases: the previous record's nextIdx and result, and the
    // last memory record's address.
    u32 prevNext = 0;
    u64 prevResult = 0;
    Addr prevEff = 0;
    std::string err;
};

inline bool
TraceCursor::next(DynRecord &r)
{
    using namespace rtr;
    using envelope::getVarint;
    if (p == end)
        return fail("truncated payload");
    const u8 flags = static_cast<u8>(*p++);
    u64 v = 0;
    if (flags & fSameStatic) {
        r.staticIdx = prevNext;
    } else {
        if (!getVarint(p, end, v) || v > 0xffffffffull)
            return fail("bad staticIdx varint");
        r.staticIdx = static_cast<u32>(v);
    }
    if (flags & fSeqNext) {
        r.nextIdx = r.staticIdx + 1;
    } else {
        if (!getVarint(p, end, v))
            return fail("bad nextIdx varint");
        u64 next = static_cast<u64>(r.staticIdx) + 1 + unzigzag(v);
        if ((next & 0xffffffffull) != next)
            return fail("nextIdx overflow");
        r.nextIdx = static_cast<u32>(next);
    }
    if (flags & fResultZero) {
        r.result = 0;
    } else if (flags & fResultSame) {
        r.result = prevResult;
    } else {
        if (!getVarint(p, end, v))
            return fail("bad result varint");
        r.result = prevResult + unzigzag(v);
    }
    if (flags & fEffZero) {
        r.effAddr = 0;
    } else {
        if (!getVarint(p, end, v))
            return fail("bad effAddr varint");
        r.effAddr = prevEff + unzigzag(v);
        prevEff = r.effAddr;
    }
    r.taken = (flags & fTaken) != 0;
    prevNext = r.nextIdx;
    prevResult = r.result;
    ++idx;
    return true;
}

/**
 * A trace whose every record decoded cleanly at load: its header and
 * encoded payload, which replay decodes on demand, so a cell pays only
 * for the records it consumes. The payload is a view into the image
 * the trace was loaded from, which the trace owns, so it is never
 * copied; for the same reason a DecodedTrace is not copyable.
 * Immutable; DecodedTraceCache shares one instance across every matrix
 * cell replaying the same file.
 */
struct DecodedTrace
{
    DecodedTrace() = default;
    DecodedTrace(const DecodedTrace &) = delete;
    DecodedTrace &operator=(const DecodedTrace &) = delete;

    TraceHeader header;
    /** What the payload views: the sealed image as read, or the bare
     *  payload of fromRecords(). */
    std::string image;
    std::string_view payload; ///< header.records encoded records.

    size_t size() const { return header.records; }

    /** Build from an in-memory record vector (perfbench, tests). */
    static std::shared_ptr<const DecodedTrace>
    fromRecords(TraceHeader header, const std::vector<DynRecord> &records);
};

/** Outcome of loading and validating a trace. */
struct DecodedTraceParse
{
    std::shared_ptr<const DecodedTrace> trace; ///< null on error.
    std::string error; ///< "origin: message"; empty on success.

    bool ok() const { return trace != nullptr; }
};

/** Validate a trace image (envelope, checksum, then every record
 *  through a TraceCursor). The trace keeps @p image; nothing is
 *  copied out of it. */
DecodedTraceParse decodeTraceImage(std::string image,
                                   const std::string &origin);

/** Read, validate and load a trace file. */
DecodedTraceParse loadDecodedTrace(const std::string &path);

/** Atomically write a trace file (temp + rename, directories created).
 *  False + @p err on I/O failure. */
bool writeTraceFile(const std::string &path, const TraceHeader &header,
                    const std::vector<DynRecord> &records,
                    std::string *err = nullptr);

/**
 * Pass-through TraceSource that tees every record produced by the
 * wrapped source into an in-memory buffer, for writing out once the
 * timing run completes.
 */
class RecordingTraceSource : public TraceSource
{
  public:
    explicit RecordingTraceSource(TraceSource &inner) : src(inner) {}

    const DynRecord &
    step() override
    {
        const DynRecord &r = src.step();
        buffer.push_back(r);
        return r;
    }

    const isa::Program &program() const override { return src.program(); }

    /** A recording is one stream: it is never copied. */
    std::unique_ptr<TraceSource> clone() const override { return nullptr; }

    /**
     * Pull @p n more records from the wrapped source into the buffer
     * without handing them to the consumer — slack appended after the
     * run so a replay under a config with a slightly deeper fetch
     * lookahead does not exhaust the trace.
     */
    void
    recordSlack(u64 n)
    {
        for (u64 i = 0; i < n; ++i)
            buffer.push_back(src.step());
    }

    const std::vector<DynRecord> &records() const { return buffer; }

    /** Write the buffered stream to @p path (atomic). The header's
     *  record count is filled from the buffer. */
    bool write(const std::string &path, TraceHeader header,
               std::string *err = nullptr) const;

  private:
    TraceSource &src;
    std::vector<DynRecord> buffer;
};

/**
 * TraceSource replaying a decoded `.rtr` stream against the workload's
 * registry-built Program. The trace is shared and immutable (many
 * concurrent sources can replay one DecodedTrace); each source keeps
 * a private TraceCursor and decodes one record per step(). Exhausting
 * the stream is fatal (the trace was recorded
 * under a smaller run sizing than the replay asks for); so is a
 * record indexing outside the program.
 */
class ReplayTraceSource : public TraceSource
{
  public:
    /** @p prog must outlive the source (the caller owns the built
     *  workload). @p origin labels diagnostics (e.g. the file path). */
    ReplayTraceSource(std::shared_ptr<const DecodedTrace> decoded,
                      const isa::Program &prog, std::string origin);

    const DynRecord &step() override;
    const isa::Program &program() const override { return prog; }
    /** A cursor at the same record over the same shared trace. */
    std::unique_ptr<TraceSource>
    clone() const override
    {
        return std::make_unique<ReplayTraceSource>(*this);
    }

  private:
    std::shared_ptr<const DecodedTrace> trace;
    const isa::Program &prog;
    std::string origin;
    TraceCursor cursor;
    DynRecord cur;
};

} // namespace rsep::wl

#endif // RSEP_WL_TRACE_IO_HH
