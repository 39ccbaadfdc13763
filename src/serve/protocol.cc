#include "serve/protocol.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <unistd.h>

#include "common/env.hh"
#include "common/envelope.hh"
#include "common/fault.hh"

namespace rsep::serve
{

namespace
{

/** @p inj, when armed with EINTR, makes the first iteration behave as
 *  an interrupted syscall so the retry branch is genuinely exercised
 *  (then the fault is consumed and the transfer proceeds). */
bool
writeAll(int fd, const void *data, size_t n, std::string *err,
         fault::Injected *inj = nullptr)
{
    const char *p = static_cast<const char *>(data);
    while (n > 0) {
        if (inj && inj->kind == fault::Kind::Errno && inj->err == EINTR) {
            inj->kind = fault::Kind::None;
            errno = EINTR;
            continue;
        }
        // send + MSG_NOSIGNAL: a peer that hung up must surface as an
        // error return, not a process-killing SIGPIPE in the daemon.
        ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            if (err)
                *err = std::string("write: ") + std::strerror(errno);
            return false;
        }
        p += w;
        n -= static_cast<size_t>(w);
    }
    return true;
}

/** Read exactly @p n bytes. Returns 1 on success, 0 on clean EOF
 *  before any byte, -1 on error/short read. Sets @p timed_out (when
 *  non-null) if the fd's SO_RCVTIMEO expired before any progress. */
int
readAll(int fd, void *data, size_t n, std::string *err,
        fault::Injected *inj = nullptr, bool *timed_out = nullptr)
{
    char *p = static_cast<char *>(data);
    size_t got = 0;
    while (got < n) {
        if (inj && inj->kind == fault::Kind::Errno && inj->err == EINTR) {
            inj->kind = fault::Kind::None;
            errno = EINTR;
            continue;
        }
        ssize_t r = ::read(fd, p + got, n - got);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                if (timed_out)
                    *timed_out = true;
                if (err)
                    *err = "receive timeout";
                return -1;
            }
            if (err)
                *err = std::string("read: ") + std::strerror(errno);
            return -1;
        }
        if (r == 0) {
            if (got == 0)
                return 0;
            if (err)
                *err = "connection closed mid-frame (truncated frame)";
            return -1;
        }
        got += static_cast<size_t>(r);
    }
    return 1;
}

bool
knownFrameType(u8 t)
{
    return t >= static_cast<u8>(FrameType::Hello) &&
           t <= static_cast<u8>(FrameType::Error);
}

// ---------------------------------------------- sealed payloads

/** Every payload but Hello is an envelope image of version 2 under
 *  its own magic; protocolVersion covers their layouts as a set. */
constexpr unsigned payloadVersion = 2;
constexpr std::string_view submitMagic = "rsep-serve-submit";
constexpr std::string_view cellMagic = "rsep-serve-cell";
constexpr std::string_view samplesMagic = "rsep-serve-samples";
constexpr std::string_view doneMagic = "rsep-serve-done";
constexpr std::string_view busyMagic = "rsep-serve-busy";

constexpr u64 u32Max = 0xffffffffull;

/** An opened payload whose header values are read in key order; the
 *  first bad value becomes the payload's diagnostic. */
class SealedPayload
{
  public:
    SealedPayload(std::string_view payload, std::string_view magic,
                  std::initializer_list<const char *> keys)
        : magic(magic), keys(keys),
          env(envelope::open(payload, magic, payloadVersion, keys,
                             std::string(magic)))
    {
    }

    std::string
    text()
    {
        return env.ok() ? env.values[next++] : std::string();
    }

    /** A decimal value no larger than @p max (1 for a 0/1 flag). */
    u64
    number(u64 max = ~u64{0})
    {
        if (!env.ok())
            return 0;
        const std::string &v = env.values[next];
        u64 n = 0;
        if (!parseU64(v, n) || n > max) {
            env.error = std::string(magic) + ": bad " + keys[next] +
                        " '" + v + "'";
            env.values.clear();
            return 0;
        }
        ++next;
        return n;
    }

    std::string blob() const { return std::string(env.payload); }

    /** True when the envelope and every value read were valid. */
    bool
    ok(std::string *err) const
    {
        if (!env.ok() && err)
            *err = env.error;
        return env.ok();
    }

  private:
    std::string_view magic;
    std::vector<const char *> keys;
    envelope::Opened env;
    size_t next = 0;
};

std::vector<std::string>
splitCommaList(std::string_view v)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (start <= v.size()) {
        size_t comma = v.find(',', start);
        if (comma == std::string_view::npos)
            comma = v.size();
        if (comma > start)
            out.emplace_back(v.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

std::string
joinCommaList(const std::vector<std::string> &items)
{
    std::string out;
    for (const std::string &s : items) {
        if (!out.empty())
            out += ',';
        out += s;
    }
    return out;
}

} // namespace

bool
writeFrame(int fd, FrameType type, std::string_view payload,
           std::string *err, const char *fault_point)
{
    if (payload.size() > maxFramePayload) {
        if (err)
            *err = "frame payload of " +
                   std::to_string(payload.size()) +
                   " bytes exceeds the protocol ceiling";
        return false;
    }
    u8 head[5];
    u32 len = static_cast<u32>(payload.size());
    head[0] = static_cast<u8>(len);
    head[1] = static_cast<u8>(len >> 8);
    head[2] = static_cast<u8>(len >> 16);
    head[3] = static_cast<u8>(len >> 24);
    head[4] = static_cast<u8>(type);

    fault::Injected inj;
    if (fault_point)
        inj = fault::point(fault_point);
    switch (inj.kind) {
    case fault::Kind::None:
    case fault::Kind::Errno: // EINTR is absorbed inside writeAll.
        if (inj.kind == fault::Kind::Errno && inj.err != EINTR) {
            if (err)
                *err = std::string("write (") + fault_point +
                       "): injected " + std::strerror(inj.err);
            return false;
        }
        break;
    case fault::Kind::Delay:
        fault::sleepMicros(inj.amount);
        inj.kind = fault::Kind::None;
        break;
    case fault::Kind::ShortWrite:
    case fault::Kind::Truncate: {
        // Emit a torn frame: the first `amount` bytes of header +
        // payload really reach the wire, then the operation fails so
        // the caller tears down the connection and the peer observes a
        // mid-frame EOF.
        std::string wire(reinterpret_cast<const char *>(head),
                         sizeof(head));
        wire.append(payload);
        size_t keep = static_cast<size_t>(
            std::min<u64>(inj.amount, wire.size()));
        std::string torn_err;
        writeAll(fd, wire.data(), keep, &torn_err);
        if (err)
            *err = std::string("write (") + fault_point +
                   "): injected torn frame after " +
                   std::to_string(keep) + " of " +
                   std::to_string(wire.size()) + " bytes";
        return false;
    }
    }

    if (!writeAll(fd, head, sizeof(head), err, &inj))
        return false;
    return payload.empty() ||
           writeAll(fd, payload.data(), payload.size(), err, &inj);
}

bool
readFrame(int fd, Frame &out, std::string *err, bool *clean_eof,
          const char *fault_point, bool *timed_out, bool *io_failed)
{
    if (clean_eof)
        *clean_eof = false;
    if (timed_out)
        *timed_out = false;
    if (io_failed)
        *io_failed = false;

    fault::Injected inj;
    if (fault_point)
        inj = fault::point(fault_point);
    switch (inj.kind) {
    case fault::Kind::None:
    case fault::Kind::Errno: // EINTR is absorbed inside readAll.
        if (inj.kind == fault::Kind::Errno && inj.err != EINTR) {
            if (err)
                *err = std::string("read (") + fault_point +
                       "): injected " + std::strerror(inj.err);
            if (io_failed)
                *io_failed = true;
            return false;
        }
        break;
    case fault::Kind::Delay:
        fault::sleepMicros(inj.amount);
        inj.kind = fault::Kind::None;
        break;
    case fault::Kind::ShortWrite:
    case fault::Kind::Truncate:
        // Behave as if the peer vanished mid-frame.
        if (err)
            *err = std::string("read (") + fault_point +
                   "): injected truncated frame (connection closed "
                   "mid-frame)";
        if (io_failed)
            *io_failed = true;
        return false;
    }

    u8 head[5];
    int r = readAll(fd, head, sizeof(head), err, &inj, timed_out);
    if (r == 0) {
        if (clean_eof)
            *clean_eof = true;
        if (err)
            err->clear();
        return false;
    }
    if (r < 0) {
        if (io_failed)
            *io_failed = true;
        return false;
    }
    u64 len = static_cast<u64>(head[0]) | (static_cast<u64>(head[1]) << 8) |
              (static_cast<u64>(head[2]) << 16) |
              (static_cast<u64>(head[3]) << 24);
    if (len > maxFramePayload) {
        if (err)
            *err = "oversized frame (" + std::to_string(len) +
                   " byte payload > " + std::to_string(maxFramePayload) +
                   " ceiling)";
        return false;
    }
    if (!knownFrameType(head[4])) {
        if (err)
            *err = "unknown frame type " + std::to_string(head[4]);
        return false;
    }
    out.type = static_cast<FrameType>(head[4]);
    out.payload.resize(len);
    if (len > 0 &&
        readAll(fd, out.payload.data(), len, err, &inj, timed_out) != 1) {
        if (io_failed)
            *io_failed = true;
        return false;
    }
    return true;
}

std::string
helloPayload()
{
    return "rsep-serve " + std::to_string(protocolVersion) + "\n";
}

bool
parseHello(std::string_view payload, std::string *err)
{
    if (payload != helloPayload()) {
        if (err)
            *err = "hello mismatch: expected protocol 'rsep-serve " +
                   std::to_string(protocolVersion) +
                   "' (peer built from a different tree?)";
        return false;
    }
    return true;
}

std::string
serializeSubmit(const SubmitRequest &req)
{
    return envelope::seal(submitMagic, payloadVersion,
                          {{"benchmarks", joinCommaList(req.benchmarks)},
                           {"sample_every", std::to_string(req.sampleEvery)},
                           {"replay_dir", req.replayDir},
                           {"retry", std::to_string(req.retry)}},
                          req.scnText);
}

bool
parseSubmit(std::string_view payload, SubmitRequest &out, std::string *err)
{
    SealedPayload p(payload, submitMagic,
                    {"benchmarks", "sample_every", "replay_dir", "retry"});
    out.benchmarks = splitCommaList(p.text());
    out.sampleEvery = p.number();
    out.replayDir = p.text();
    out.retry = static_cast<u32>(p.number(u32Max));
    out.scnText = p.blob();
    if (!p.ok(err))
        return false;
    if (out.benchmarks.empty()) {
        if (err)
            *err = "submit names no benchmarks";
        return false;
    }
    return true;
}

std::string
serializeCell(const CellResult &cell)
{
    return envelope::seal(
        cellMagic, payloadVersion,
        {{"bench", cell.benchmark},
         {"config", std::to_string(cell.config)},
         {"phase", std::to_string(cell.phase)},
         {"from_cache", cell.fromCache ? "1" : "0"},
         {"replayed", cell.replayed ? "1" : "0"},
         {"decode_hit", cell.decodeHit ? "1" : "0"},
         {"trace_load_micros", std::to_string(cell.traceLoadMicros)}},
        cell.record);
}

bool
parseCell(std::string_view payload, CellResult &out, std::string *err)
{
    SealedPayload p(payload, cellMagic,
                    {"bench", "config", "phase", "from_cache", "replayed",
                     "decode_hit", "trace_load_micros"});
    out.benchmark = p.text();
    out.config = static_cast<u32>(p.number(u32Max));
    out.phase = static_cast<u32>(p.number(u32Max));
    out.fromCache = p.number(1);
    out.replayed = p.number(1);
    out.decodeHit = p.number(1);
    out.traceLoadMicros = p.number();
    out.record = p.blob();
    return p.ok(err);
}

std::string
serializeSamplesFrame(const SamplesFrame &sf)
{
    return envelope::seal(samplesMagic, payloadVersion,
                          {{"bench", sf.benchmark},
                           {"config", std::to_string(sf.config)},
                           {"phase", std::to_string(sf.phase)}},
                          sf.rts);
}

bool
parseSamplesFrame(std::string_view payload, SamplesFrame &out,
                  std::string *err)
{
    SealedPayload p(payload, samplesMagic, {"bench", "config", "phase"});
    out.benchmark = p.text();
    out.config = static_cast<u32>(p.number(u32Max));
    out.phase = static_cast<u32>(p.number(u32Max));
    out.rts = p.blob();
    return p.ok(err);
}

std::string
serializeDone(const DoneSummary &done)
{
    return envelope::seal(
        doneMagic, payloadVersion,
        {{"requests", std::to_string(done.requests)},
         {"batched_cells", std::to_string(done.batchedCells)},
         {"queue_wait_micros", std::to_string(done.queueWaitMicros)},
         {"wall_micros", std::to_string(done.wallMicros)},
         {"cells_run", std::to_string(done.cellsRun)},
         {"cache_hits", std::to_string(done.cacheHits)},
         {"trace_decode_hits", std::to_string(done.traceDecodeHits)},
         {"trace_decode_misses", std::to_string(done.traceDecodeMisses)},
         {"cache_enabled", done.cacheEnabled ? "1" : "0"}},
        done.dump);
}

bool
parseDone(std::string_view payload, DoneSummary &out, std::string *err)
{
    SealedPayload p(payload, doneMagic,
                    {"requests", "batched_cells", "queue_wait_micros",
                     "wall_micros", "cells_run", "cache_hits",
                     "trace_decode_hits", "trace_decode_misses",
                     "cache_enabled"});
    out.requests = p.number();
    out.batchedCells = p.number();
    out.queueWaitMicros = p.number();
    out.wallMicros = p.number();
    out.cellsRun = p.number();
    out.cacheHits = p.number();
    out.traceDecodeHits = p.number();
    out.traceDecodeMisses = p.number();
    out.cacheEnabled = p.number(1);
    out.dump = p.blob();
    return p.ok(err);
}

std::string
serializeBusy(u64 retryAfterMs, const std::string &why)
{
    return envelope::seal(busyMagic, payloadVersion,
                          {{"retry_after_ms", std::to_string(retryAfterMs)}},
                          why);
}

bool
parseBusy(std::string_view payload, u64 &retryAfterMs, std::string *why)
{
    SealedPayload p(payload, busyMagic, {"retry_after_ms"});
    u64 hint = p.number();
    if (!p.ok(nullptr))
        return false;
    retryAfterMs = hint;
    if (why)
        *why = p.blob();
    return true;
}

} // namespace rsep::serve
