#include "common/logging.hh"

#include <cstdio>
#include <vector>

namespace rsep
{

namespace
{
thread_local unsigned fatalCaptureDepth = 0;
} // namespace

ScopedFatalCapture::ScopedFatalCapture() { ++fatalCaptureDepth; }
ScopedFatalCapture::~ScopedFatalCapture() { --fatalCaptureDepth; }

namespace detail
{

std::string
vformat(const char *fmt, std::va_list ap)
{
    std::va_list ap_copy;
    va_copy(ap_copy, ap);
    int len = std::vsnprintf(nullptr, 0, fmt, ap_copy);
    va_end(ap_copy);
    if (len < 0)
        return "<format error>";
    std::vector<char> buf(static_cast<size_t>(len) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap);
    return std::string(buf.data(), static_cast<size_t>(len));
}

std::string
format(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string out = vformat(fmt, ap);
    va_end(ap);
    return out;
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s [%s:%d]\n", msg.c_str(), file, line);
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    if (fatalCaptureDepth > 0)
        throw FatalError(msg);
    std::fprintf(stderr, "fatal: %s [%s:%d]\n", msg.c_str(), file, line);
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

} // namespace detail
} // namespace rsep
