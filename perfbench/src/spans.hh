/**
 * @file
 * In-memory span recorder of the traced run (`--trace 1`).
 *
 * A span brackets one of the benchmark's own calls into a simulator
 * layer: its name ("<layer>.<function>"), start, end, the span that
 * caused it (the innermost span open on the same thread), a request
 * id shared by every span of one serve request, and a work count so a
 * span around a batch of N calls yields a per-call time. Spans stay in
 * memory and are written out once when the benchmark ends.
 *
 * Disabled (the end-to-end runs), opening a span is one branch and no
 * clock read.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

class Tracer
{
  public:
    using Clock = std::chrono::steady_clock;

    explicit Tracer(bool enabled) : on(enabled), origin(Clock::now()) {}

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** RAII handle of one open span; closes on destruction. */
    class Span
    {
      public:
        Span(Tracer *t, long idx) : tracer(t), index(idx) {}
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;
        ~Span() { close(); }

        /** Set the number of calls this span covers (default 1). */
        void setCount(std::uint64_t n);
        /** End the span now instead of at scope exit. */
        void close();

      private:
        Tracer *tracer;
        long index; ///< -1 when disabled or already closed.
    };

    /** Open a span named @p name on the calling thread. */
    Span span(const std::string &name, std::uint64_t count = 1,
              std::uint64_t request_id = 0);

    /** Write every span plus a per-name summary with self time (span
     *  time not covered by its child spans) as JSON. */
    bool write(const std::string &path) const;

  private:
    struct Record
    {
        std::string name;
        long parent = -1;
        std::uint64_t requestId = 0;
        std::uint64_t count = 1;
        std::int64_t startNs = 0;
        std::int64_t endNs = -1; ///< -1 while open.
    };

    std::int64_t nowNs() const;

    bool on;
    Clock::time_point origin;
    mutable std::mutex mu;
    std::vector<Record> records; ///< guarded by mu.
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
