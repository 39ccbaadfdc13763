/**
 * @file
 * The one envelope behind the repo's four formats: `.rtr` traces,
 * `.rts` sample series, `.cell` result-cache records and the
 * rsep_serve frame payloads (DESIGN.md §17). It owns six things, so no
 * format carries its own copy of them:
 *
 *  - the LEB128 varint codec the binary payloads are built from;
 *  - checksum(), the payload checksum in every trailer;
 *  - seal(), which writes the checksummed layout every format shares:
 *
 *        <magic> <version>
 *        key = value            # fixed order, one line per key
 *        ...
 *        payload
 *        <payload bytes>
 *        checksum = <16-hex XXH64 of the payload bytes>
 *
 *    (the checksum line is preceded by a newline of its own, so the
 *    image always ends in a fixed 29-byte trailer and the payload is
 *    found by position; it may itself be a sealed image);
 *  - open(), the matching reader, which rejects a wrong magic, any
 *    version other than the current one, a missing or out-of-order
 *    key, truncation and checksum mismatches with byte-offset
 *    diagnostics, and never returns a partial result; plus
 *    peekChecksum(), the trailer read DecodedTraceCache keys on;
 *  - pathComponent(), the file-name sanitizer of `.rtr` and `.rts`;
 *  - publishFile(), the atomic temp-file + rename writer with its
 *    fault points, used by every file format, and readFile() /
 *    readTrailer(), the matching readers, used by every file the repo
 *    reads whole.
 *
 * What the header values and the payload mean stays with each format.
 * Header values are not checksummed.
 */

#ifndef RSEP_COMMON_ENVELOPE_HH
#define RSEP_COMMON_ENVELOPE_HH

#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hh"

namespace rsep::envelope
{

// The varint codec is defined here, inline: the payload codecs call it
// once per field, and an out-of-line call per varint made trace decode
// ~15% slower.

/** Append @p v as an LEB128 varint. */
inline void
putVarint(std::string &s, u64 v)
{
    while (v >= 0x80) {
        s.push_back(static_cast<char>((v & 0x7f) | 0x80));
        v >>= 7;
    }
    s.push_back(static_cast<char>(v));
}

/** Read one LEB128 varint at @p p (advanced past it). False on
 *  running off @p end or an over-long (> 64-bit) encoding. */
inline bool
getVarint(const char *&p, const char *end, u64 &v)
{
    // One byte is the most frequent length in a trace: skip the loop.
    if (p != end && !(static_cast<u8>(*p) & 0x80)) {
        v = static_cast<u8>(*p++);
        return true;
    }
    v = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
        if (p == end)
            return false;
        u8 byte = static_cast<u8>(*p++);
        v |= static_cast<u64>(byte & 0x7f) << shift;
        if (!(byte & 0x80))
            return true;
    }
    return false; // over-long varint.
}

/** The trailer checksum of a payload: XXH64 with seed 0, read as
 *  little-endian words whatever the alignment of @p bytes. Every byte
 *  counts; it is not an identity hash (those stay FNV-1a, fnv.hh). */
u64 checksum(std::string_view bytes);

/** A name made safe as one path component: anything but
 *  [A-Za-z0-9.+_@-] becomes '_' (`name@hash` workload keys keep their
 *  '@'); an empty name becomes "_". */
std::string pathComponent(const std::string &name);

/** One `key = value` header line. */
struct Field
{
    const char *key;
    std::string value;
};

/** The complete sealed image of @p payload under the given header. */
std::string seal(std::string_view magic, unsigned version,
                 const std::vector<Field> &fields, std::string_view payload);

/** A checksum-verified image: the header values and a payload view. */
struct Opened
{
    /** One value per requested key, in the order asked for. */
    std::vector<std::string> values;
    /** Aliases the opened image; valid only while the image lives. */
    std::string_view payload;
    std::string error; ///< "origin: message"; empty on success.

    bool ok() const { return error.empty(); }
};

/** Open a sealed @p image whose header lists exactly @p keys in that
 *  order. Only @p version is accepted. @p origin labels diagnostics. */
Opened open(std::string_view image, std::string_view magic,
            unsigned version, std::initializer_list<const char *> keys,
            const std::string &origin);

/** The checksum in a sealed image's trailer, without parsing the
 *  header or hashing the payload. False when the trailer is malformed
 *  (open() then gives the diagnostic). */
bool peekChecksum(std::string_view image, u64 &out);

/**
 * Atomically publish @p bytes at @p path: parent directories are
 * created, the bytes go to a temp file named with the pid AND a
 * per-process sequence number (concurrent writers of one path, in one
 * process or many, never share a temp file), which is then renamed
 * over @p path, so a reader sees the old file or the new one.
 *
 * Fault point @p write_point: delay sleeps; an errno mode fails before
 * any file exists; short writes a prefix, then removes it and fails;
 * truncate *publishes* a prefix (silent on-disk corruption the reader
 * must catch). Optional @p rename_point: delay sleeps, any other mode
 * fails the rename and removes the temp file. No failure leaves a
 * temp file behind. False + @p err ("path: message") on failure.
 */
bool publishFile(const std::string &path, std::string_view bytes,
                 const char *write_point, const char *rename_point = nullptr,
                 std::string *err = nullptr);

/** Read the whole file at @p path into @p bytes. False + @p err
 *  ("path: message") when it cannot be opened or read. */
bool readFile(const std::string &path, std::string &bytes,
              std::string *err = nullptr);

/** Read only the last trailer-sized bytes of the file at @p path (all
 *  of it when shorter) into @p bytes, for peekChecksum(). Errors as
 *  readFile(). */
bool readTrailer(const std::string &path, std::string &bytes,
                 std::string *err = nullptr);

} // namespace rsep::envelope

#endif // RSEP_COMMON_ENVELOPE_HH
