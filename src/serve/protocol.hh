/**
 * @file
 * Wire protocol of the rsep_serve simulation service (DESIGN.md §13).
 *
 * A connection is a sequence of **frames** over a Unix-domain stream
 * socket:
 *
 *     u32le payload_length | u8 frame_type | payload bytes
 *
 * The length covers the payload only. Frames above maxFramePayload,
 * unknown frame types and short reads are protocol errors — the peer
 * answers with an Error frame where it still can and closes the
 * connection; the daemon itself keeps serving other clients.
 *
 * Conversation (client view):
 *
 *     -> Hello        "rsep-serve <version>"   (must be first)
 *     <- Hello        server version echo
 *     -> Submit       run request: benchmarks, options, .scn text
 *     <- Cell         one per completed (bench, config, phase) cell,
 *                     in completion order (interleaved across configs)
 *     <- Samples      one per cell when sample_every > 0: the cell's
 *                     verbatim `.rts` image, streamed as it closes
 *     <- Done         serve.* counters + the canonical CSV dump
 *     <- Error        instead of any of the above, with a diagnostic
 *
 * Hello is the one plain-text payload. Every other payload is an
 * envelope::seal image (common/envelope.hh) under its own magic
 * (`rsep-serve-submit`, `-cell`, `-samples`, `-done`, `-busy`), version
 * 1: fixed-order `key = value` header lines, then the frame's blob
 * (`.scn` text, cell record, `.rts` image, CSV dump, busy reason) as the
 * payload, then the checksum trailer. The parsers are envelope::open,
 * so a torn, reordered or bit-flipped payload is rejected with the same
 * diagnostics as a damaged file. Cell results carry the sealed `.cell`
 * record (ResultCache::serializeRecord, the one format that round-trips
 * a PhaseResult bit-exactly) and Submit carries canonical `.scn` text,
 * so the protocol adds no serialization of simulation state.
 */

#ifndef RSEP_SERVE_PROTOCOL_HH
#define RSEP_SERVE_PROTOCOL_HH

#include <string>
#include <string_view>
#include <vector>

#include "common/types.hh"

namespace rsep::serve
{

/** Protocol version, exchanged in Hello; bump on any wire change
 *  (including the layout of the `.cell` record a Cell frame carries).
 *  v3: every payload but Hello is a sealed envelope image. */
constexpr unsigned protocolVersion = 3;

/** Hard ceiling on one frame's payload. Generous for a full-suite
 *  dump, small enough that a garbage length prefix (random 4 bytes
 *  are almost always far larger) is rejected before any allocation. */
constexpr u64 maxFramePayload = 64ull << 20;

enum class FrameType : u8 {
    Hello = 1,
    Submit = 2,
    Cell = 3,
    Samples = 4,
    Done = 5,
    Error = 6,
};

/** One decoded frame. */
struct Frame
{
    FrameType type = FrameType::Error;
    std::string payload;
};

/**
 * Blocking frame I/O on a connected socket fd. False + @p err on any
 * failure (peer closed, short read, oversized or unknown frame) —
 * never throws, never raises SIGPIPE (writes use MSG_NOSIGNAL).
 * readFrame distinguishes a clean EOF before any byte: @p clean_eof
 * (when non-null) is set and false is returned with an empty error.
 * readFrame reports a receive-timeout (SO_RCVTIMEO expired) through
 * @p timed_out when non-null, so callers can reap idle peers without
 * string-matching errno text. @p io_failed (when non-null) is set when
 * the failure was transport-level — a read error or a stream torn
 * mid-frame — as opposed to protocol garbage (oversized prefix,
 * unknown type) arriving over a healthy connection: answering an
 * Error frame down a transport that just failed is incoherent, so the
 * server closes silently instead.
 *
 * @p fault_point names the fault::point consulted before touching the
 * socket (nullptr = no injection): the server passes "serve.send" /
 * "serve.recv", the client "client.send" / "client.recv", so a test
 * running both ends in one process can fault exactly one side.
 */
bool writeFrame(int fd, FrameType type, std::string_view payload,
                std::string *err, const char *fault_point = nullptr);
bool readFrame(int fd, Frame &out, std::string *err,
               bool *clean_eof = nullptr,
               const char *fault_point = nullptr,
               bool *timed_out = nullptr,
               bool *io_failed = nullptr);

/** The Hello payload both sides send. */
std::string helloPayload();

/** Validate a Hello payload; false + @p err on magic/version mismatch. */
bool parseHello(std::string_view payload, std::string *err);

/** A Submit request: what one client run-cell request carries. */
struct SubmitRequest
{
    /** Run-cell keys, in run order (resolved through the client's
     *  workload registry; qualified `name@hash` keys must have a
     *  matching `[workload]` block in scnText). */
    std::vector<std::string> benchmarks;
    /** Sampling period (`--sample-every`); 0 = off. Sample rows come
     *  back as Samples frames; the server never writes sample files. */
    u64 sampleEvery = 0;
    /** Recorded-trace replay directory, resolved on the server host
     *  (empty = live emulation). */
    std::string replayDir;
    /** Canonical `.scn` text: `[workload]` definitions the benchmarks
     *  need, then one `[scenario]` block per experiment arm, in run
     *  order. */
    std::string scnText;
    /** 0 on the first attempt; a resubmit after a connection failure
     *  carries its attempt number so the server can count
     *  serve.retries_served (results stay byte-identical either way —
     *  the result cache answers the rerun bit-exactly). */
    u32 retry = 0;
};

std::string serializeSubmit(const SubmitRequest &req);
bool parseSubmit(std::string_view payload, SubmitRequest &out,
                 std::string *err);

/** One completed cell, streamed as it finishes. */
struct CellResult
{
    std::string benchmark;
    u32 config = 0; ///< index into the Submit scenario order.
    u32 phase = 0;
    // Transient provenance flags (ResultCache records deliberately do
    // not carry them): the client mirrors the server's RunTiming.
    bool fromCache = false;
    bool replayed = false;
    bool decodeHit = false;
    u64 traceLoadMicros = 0;
    /** ResultCache::serializeRecord image of the PhaseResult. */
    std::string record;
};

std::string serializeCell(const CellResult &cell);
bool parseCell(std::string_view payload, CellResult &out,
               std::string *err);

/** One cell's sample series (sample_every > 0 only). */
struct SamplesFrame
{
    std::string benchmark;
    u32 config = 0;
    u32 phase = 0;
    std::string rts; ///< verbatim `.rts` file image.
};

std::string serializeSamplesFrame(const SamplesFrame &sf);
bool parseSamplesFrame(std::string_view payload, SamplesFrame &out,
                       std::string *err);

/** Request completion: serve.* counters and the canonical dump. */
struct DoneSummary
{
    u64 requests = 0;          ///< server-lifetime requests served.
    u64 batchedCells = 0;      ///< this request's cells that shared the
                               ///< pool with another in-flight request.
    u64 queueWaitMicros = 0;   ///< submit-to-first-cell-start wait.
    u64 wallMicros = 0;        ///< submit-to-last-cell wall clock.
    u64 cellsRun = 0;          ///< cells simulated for this request.
    u64 cacheHits = 0;         ///< cells served from the result cache.
    u64 traceDecodeHits = 0;   ///< replayed cells with a warm decode.
    u64 traceDecodeMisses = 0;
    bool cacheEnabled = false; ///< result cache consulted (off during
                               ///< sampling, mirroring runMatrix).
    /** Canonical CSV dump of the request's stat rows (no timings) —
     *  the reference the client checks its reconstruction against. */
    std::string dump;
};

std::string serializeDone(const DoneSummary &done);
bool parseDone(std::string_view payload, DoneSummary &out,
               std::string *err);

/**
 * Structured admission-control rejection, carried in an Error frame.
 * `serializeBusy` builds the payload; `parseBusy` recognises one and
 * extracts the retry-after hint (false for ordinary Error text, which
 * callers keep treating as a plain diagnostic).
 */
std::string serializeBusy(u64 retryAfterMs, const std::string &why);
bool parseBusy(std::string_view payload, u64 &retryAfterMs,
               std::string *why = nullptr);

} // namespace rsep::serve

#endif // RSEP_SERVE_PROTOCOL_HH
