/**
 * @file
 * Replayable window over a TraceSource's committed-path stream (live
 * functional emulation or a recorded-trace replay). Commit-time
 * squashes (value/equality mispredictions) rewind the fetch cursor;
 * this is legal because such squashes do not change architectural
 * state, so re-reading the same records is exact.
 */

#ifndef RSEP_CORE_TRACE_BUFFER_HH
#define RSEP_CORE_TRACE_BUFFER_HH

#include "common/logging.hh"
#include "common/ring_buffer.hh"
#include "wl/trace_source.hh"

namespace rsep::core
{

/** Indexed access to the dynamic instruction stream. */
class TraceBuffer
{
  public:
    /** The window spans the ROB plus the frontend queue plus the fetch
     *  lookahead; reserve comfortably past that so the steady state
     *  never allocates (the ring still grows if a config exceeds it). */
    explicit TraceBuffer(wl::TraceSource &src) : em(&src), window(1024)
    {
    }

    /** Read further records from @p src, which continues the stream
     *  where the current source stands (a copy's own source). */
    void rebind(wl::TraceSource &src) { em = &src; }

    /** Record of dynamic instruction @p idx (0-based, grows forever). */
    const wl::DynRecord &
    at(u64 idx)
    {
        if (idx < base)
            rsep_panic("trace rewind below trimmed base (%llu < %llu)",
                       static_cast<unsigned long long>(idx),
                       static_cast<unsigned long long>(base));
        while (base + window.size() <= idx)
            window.push_back(em->step());
        return window[static_cast<size_t>(idx - base)];
    }

    /** Drop records below @p idx (the commit point). */
    void
    trimBelow(u64 idx)
    {
        while (base < idx && !window.empty()) {
            window.pop_front();
            ++base;
        }
    }

    u64 baseIndex() const { return base; }
    size_t windowSize() const { return window.size(); }

  private:
    wl::TraceSource *em;
    RingBuffer<wl::DynRecord> window;
    u64 base = 0;
};

} // namespace rsep::core

#endif // RSEP_CORE_TRACE_BUFFER_HH
