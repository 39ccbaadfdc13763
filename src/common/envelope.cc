#include "common/envelope.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/env.hh"
#include "common/fault.hh"
#include "common/fnv.hh"

namespace fs = std::filesystem;

namespace rsep::envelope
{

namespace
{

constexpr std::string_view trailerMark = "\nchecksum = ";
/** "\nchecksum = " + 16 hex digits + "\n". */
constexpr size_t trailerBytes = trailerMark.size() + 16 + 1;

// XXH64 (seed 0). Words are read with memcpy, so a payload at any
// offset of its image is read without alignment UB. XXH64 defines its
// words as little-endian; a native load is that only on a little-endian
// host, and a big-endian build would write other sums.
static_assert(std::endian::native == std::endian::little,
              "envelope::checksum reads payload words little-endian");

constexpr u64 xxPrime1 = 0x9e3779b185ebca87ull;
constexpr u64 xxPrime2 = 0xc2b2ae3d27d4eb4full;
constexpr u64 xxPrime3 = 0x165667b19e3779f9ull;
constexpr u64 xxPrime4 = 0x85ebca77c2b2ae63ull;
constexpr u64 xxPrime5 = 0x27d4eb2f165667c5ull;

inline u64
load64(const char *p)
{
    u64 v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

inline u64
load32(const char *p)
{
    u32 v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

inline u64
xxRound(u64 acc, u64 input)
{
    acc += input * xxPrime2;
    return std::rotl(acc, 31) * xxPrime1;
}

inline u64
xxMerge(u64 acc, u64 lane)
{
    acc ^= xxRound(0, lane);
    return acc * xxPrime1 + xxPrime4;
}

/** Read the last @p limit bytes of @p path (all of it when shorter). */
bool
readTail(const std::string &path, u64 limit, std::string &bytes,
         std::string *err)
{
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    auto fail = [&](const char *what) {
        if (err)
            *err = path + ": " + what + ": " + std::strerror(errno);
        if (fd >= 0)
            ::close(fd);
        return false;
    };
    if (fd < 0)
        return fail("cannot open");
    struct stat st;
    if (::fstat(fd, &st) != 0)
        return fail("cannot stat");
    const u64 size = static_cast<u64>(st.st_size);
    const u64 start = size - std::min(size, limit);
    bytes.resize(size - start);
    size_t got = 0;
    while (got < bytes.size()) {
        ssize_t n = ::pread(fd, bytes.data() + got, bytes.size() - got,
                            static_cast<off_t>(start + got));
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0)
            return fail("read failed");
        if (n == 0)
            break; // the file shrank since fstat: keep what was read.
        got += static_cast<size_t>(n);
    }
    ::close(fd);
    bytes.resize(got);
    return true;
}

} // namespace

u64
checksum(std::string_view bytes)
{
    const char *p = bytes.data();
    const char *const end = p + bytes.size();
    u64 h;
    if (bytes.size() >= 32) {
        // Four independent lanes, one 8-byte word each per stripe.
        u64 v1 = xxPrime1 + xxPrime2, v2 = xxPrime2, v3 = 0,
            v4 = 0 - xxPrime1;
        const char *const limit = end - 32;
        do {
            v1 = xxRound(v1, load64(p));
            v2 = xxRound(v2, load64(p + 8));
            v3 = xxRound(v3, load64(p + 16));
            v4 = xxRound(v4, load64(p + 24));
            p += 32;
        } while (p <= limit);
        h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
            std::rotl(v4, 18);
        h = xxMerge(h, v1);
        h = xxMerge(h, v2);
        h = xxMerge(h, v3);
        h = xxMerge(h, v4);
    } else {
        h = xxPrime5;
    }
    h += bytes.size();
    for (; end - p >= 8; p += 8)
        h = std::rotl(h ^ xxRound(0, load64(p)), 27) * xxPrime1 + xxPrime4;
    if (end - p >= 4) {
        h = std::rotl(h ^ (load32(p) * xxPrime1), 23) * xxPrime2 +
            xxPrime3;
        p += 4;
    }
    for (; p < end; ++p)
        h = std::rotl(h ^ (static_cast<u8>(*p) * xxPrime5), 11) * xxPrime1;
    h ^= h >> 33;
    h *= xxPrime2;
    h ^= h >> 29;
    h *= xxPrime3;
    h ^= h >> 32;
    return h;
}

std::string
pathComponent(const std::string &name)
{
    std::string out;
    for (char c : name)
        out += (std::isalnum(static_cast<unsigned char>(c)) || c == '.' ||
                c == '-' || c == '+' || c == '_' || c == '@')
                   ? c
                   : '_';
    return out.empty() ? std::string("_") : out;
}

std::string
seal(std::string_view magic, unsigned version,
     const std::vector<Field> &fields, std::string_view payload)
{
    std::string out;
    out.reserve(64 + 32 * fields.size() + payload.size() + trailerBytes);
    out.append(magic).append(" ").append(std::to_string(version));
    out += '\n';
    for (const Field &f : fields)
        out.append(f.key).append(" = ").append(f.value).append("\n");
    out.append("payload\n").append(payload).append(trailerMark);
    out.append(hex64(checksum(payload))).append("\n");
    return out;
}

Opened
open(std::string_view image, std::string_view magic, unsigned version,
     std::initializer_list<const char *> keys, const std::string &origin)
{
    Opened out;
    auto fail = [&](const std::string &msg) {
        out.values.clear();
        out.error = origin + ": " + msg;
        return out;
    };
    const std::string name(magic);

    // ---- text header (line oriented, fixed order) ----
    size_t pos = 0;
    std::string_view line;
    auto nextLine = [&] {
        size_t nl = image.find('\n', pos);
        if (nl == std::string_view::npos)
            return false;
        line = image.substr(pos, nl - pos);
        pos = nl + 1;
        return true;
    };
    if (!nextLine() || line.substr(0, magic.size()) != magic ||
        line.substr(magic.size(), 1) != " ")
        return fail("not a " + name + " file");
    u64 ver = 0;
    if (!parseU64(std::string(line.substr(magic.size() + 1)), ver))
        return fail("bad " + name + " version line");
    if (ver != version)
        return fail("unsupported " + name + " version " +
                    std::to_string(ver) + " (this build reads version " +
                    std::to_string(version) + " only)");
    for (const char *key : keys) {
        const std::string prefix = std::string(key) + " = ";
        if (!nextLine() || line.substr(0, prefix.size()) != prefix)
            return fail("bad " + std::string(key) + " header");
        out.values.emplace_back(line.substr(prefix.size()));
    }
    if (!nextLine() || line != "payload")
        return fail("missing payload marker");

    // ---- binary payload + trailing checksum ----
    if (image.size() - pos < trailerBytes)
        return fail("truncated trailer: " +
                    std::to_string(image.size() - pos) +
                    " bytes after the header (offset " +
                    std::to_string(pos) + "), need at least " +
                    std::to_string(trailerBytes) +
                    " for the checksum trailer");
    const size_t payload_bytes = image.size() - pos - trailerBytes;
    u64 want = 0;
    if (!peekChecksum(image, want))
        return fail("truncated " + name +
                    " or missing checksum trailer at offset " +
                    std::to_string(pos + payload_bytes));
    std::string_view payload = image.substr(pos, payload_bytes);
    u64 got = checksum(payload);
    if (got != want)
        return fail("checksum mismatch over " +
                    std::to_string(payload_bytes) +
                    " payload bytes at offset " + std::to_string(pos) +
                    ": expected " + hex64(want) + ", computed " +
                    hex64(got));
    out.payload = payload;
    return out;
}

bool
peekChecksum(std::string_view image, u64 &out)
{
    if (image.size() < trailerBytes)
        return false;
    std::string_view t = image.substr(image.size() - trailerBytes);
    return t.substr(0, trailerMark.size()) == trailerMark &&
           t.back() == '\n' &&
           parseHex64(std::string(t.substr(trailerMark.size(), 16)), out);
}

bool
publishFile(const std::string &path, std::string_view bytes,
            const char *write_point, const char *rename_point,
            std::string *err)
{
    auto fail = [&](const std::string &msg) {
        if (err)
            *err = path + ": " + msg;
        return false;
    };
    std::error_code ec;
    fs::path parent = fs::path(path).parent_path();
    if (!parent.empty()) {
        fs::create_directories(parent, ec);
        if (ec)
            return fail(ec.message());
    }

    std::string_view out = bytes;
    fault::Injected winj = fault::point(write_point);
    if (winj.kind == fault::Kind::Delay)
        fault::sleepMicros(winj.amount);
    else if (winj.kind == fault::Kind::Errno)
        return fail(std::string("injected ") + std::strerror(winj.err));
    else if (winj.kind == fault::Kind::ShortWrite ||
             winj.kind == fault::Kind::Truncate)
        out = out.substr(0, std::min<size_t>(winj.amount, out.size()));

    static std::atomic<u64> writerSeq{0};
    const std::string tmp =
        path + ".tmp." +
        std::to_string(static_cast<unsigned long>(::getpid())) + "." +
        std::to_string(++writerSeq);
    auto discard = [&](const std::string &msg) {
        fs::remove(tmp, ec);
        return fail(msg);
    };
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            return fail("cannot open temp file for writing");
        os.write(out.data(), static_cast<std::streamsize>(out.size()));
        os.flush();
        if (!os)
            return discard("write failed");
    }
    if (winj.kind == fault::Kind::ShortWrite)
        return discard("injected short write (" +
                       std::to_string(out.size()) + " of " +
                       std::to_string(bytes.size()) + " bytes)");
    if (rename_point) {
        fault::Injected rinj = fault::point(rename_point);
        if (rinj.kind == fault::Kind::Delay)
            fault::sleepMicros(rinj.amount);
        else if (rinj)
            return discard(std::string("injected ") + rename_point +
                           " failure");
    }
    fs::rename(tmp, path, ec);
    if (ec)
        return discard("rename failed: " + ec.message());
    return true;
}

bool
readFile(const std::string &path, std::string &bytes, std::string *err)
{
    return readTail(path, ~u64{0}, bytes, err);
}

bool
readTrailer(const std::string &path, std::string &bytes, std::string *err)
{
    return readTail(path, trailerBytes, bytes, err);
}

} // namespace rsep::envelope
