/**
 * @file
 * The repo's one FNV-1a 64 definition plus the 16-hex-digit spelling
 * helpers. Every stable identity key (config hash, workload hash,
 * shard assignment, the golden CSV fingerprints) is this exact hash of
 * a canonical byte string — keep one definition so they cannot drift.
 *
 * FNV-1a is only the identity hash. The envelope trailers of `.rtr`,
 * `.rts`, `.cell` and the serve frames use envelope::checksum (XXH64)
 * instead: FNV-1a consumes one byte per dependent multiply, so it
 * checked a trace at about 0.7 GB/s, a large share of every trace
 * load; XXH64 reads four independent 8-byte lanes and runs at memory
 * speed. The identity keys hash short strings, and changing their
 * function would move every config hash, cache path and golden.
 */

#ifndef RSEP_COMMON_FNV_HH
#define RSEP_COMMON_FNV_HH

#include <cstdio>
#include <string>
#include <string_view>

#include "common/types.hh"

namespace rsep
{

/** FNV-1a 64 of a byte string (string_view: hashes in place, so a
 *  payload is checksummed inside the image that holds it). */
inline u64
fnv1a64(std::string_view s)
{
    u64 h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Canonical 16-hex-digit spelling of a 64-bit value. */
inline std::string
hex64(u64 v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Strict parse of a <= 16-digit lowercase hex string. */
inline bool
parseHex64(const std::string &s, u64 &out)
{
    if (s.empty() || s.size() > 16)
        return false;
    out = 0;
    for (char c : s) {
        int d;
        if (c >= '0' && c <= '9')
            d = c - '0';
        else if (c >= 'a' && c <= 'f')
            d = c - 'a' + 10;
        else
            return false;
        out = (out << 4) | static_cast<u64>(d);
    }
    return true;
}

} // namespace rsep

#endif // RSEP_COMMON_FNV_HH
