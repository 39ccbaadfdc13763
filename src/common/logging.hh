/**
 * @file
 * Minimal gem5-style status/error reporting: panic/fatal/warn/inform.
 *
 * panic() signals a simulator bug (aborts); fatal() signals a user error
 * (clean exit); warn()/inform() never stop the simulation.
 */

#ifndef RSEP_COMMON_LOGGING_HH
#define RSEP_COMMON_LOGGING_HH

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace rsep
{

namespace detail
{
std::string vformat(const char *fmt, std::va_list ap);
[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);
void warnImpl(const std::string &msg);
std::string format(const char *fmt, ...) __attribute__((format(printf, 1, 2)));
} // namespace detail

/** What rsep_fatal throws while a ScopedFatalCapture is alive on the
 *  calling thread; what() is the formatted diagnostic. */
struct FatalError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/**
 * RAII: while alive on this thread, rsep_fatal throws FatalError
 * instead of exiting the process. The rsep_serve daemon wraps each
 * request cell in one so a user error (or injected fault) that slips
 * past preflight fails that one request instead of taking the daemon —
 * and every other client — down with it. Nestable; fatal() reverts to
 * exit(1) when the outermost capture on the thread is gone.
 */
class ScopedFatalCapture
{
  public:
    ScopedFatalCapture();
    ~ScopedFatalCapture();
    ScopedFatalCapture(const ScopedFatalCapture &) = delete;
    ScopedFatalCapture &operator=(const ScopedFatalCapture &) = delete;
};

/** Abort on an internal invariant violation (simulator bug). */
#define rsep_panic(...) \
    ::rsep::detail::panicImpl(__FILE__, __LINE__, \
                              ::rsep::detail::format(__VA_ARGS__))

/** Exit cleanly on a user/configuration error. */
#define rsep_fatal(...) \
    ::rsep::detail::fatalImpl(__FILE__, __LINE__, \
                              ::rsep::detail::format(__VA_ARGS__))

/** Non-fatal warning. */
#define rsep_warn(...) \
    ::rsep::detail::warnImpl(::rsep::detail::format(__VA_ARGS__))

} // namespace rsep

#endif // RSEP_COMMON_LOGGING_HH
