/**
 * @file
 * The committed-path instruction stream as an interface.
 *
 * The timing model is trace-driven: it consumes a sequential stream of
 * DynRecords plus the static Program they index into. TraceSource
 * abstracts where that stream comes from, so the pipeline can be fed
 * either by **live functional emulation** (wl::Emulator) or by the
 * **replay of a recorded `.rtr` trace** (trace_io.hh) — record once,
 * replay many: warm sweeps skip emulation entirely.
 *
 * The replay side of the interface is deliberately thin: a replay
 * source is a cursor over an immutable, shared, validated trace
 * payload (DecodedTrace, handed out by the process-wide
 * DecodedTraceCache), so any number of matrix cells can stream the
 * same bytes concurrently without copies. See DESIGN.md §11 for the
 * data path.
 */

#ifndef RSEP_WL_TRACE_SOURCE_HH
#define RSEP_WL_TRACE_SOURCE_HH

#include <memory>

#include "isa/program.hh"
#include "wl/dynrecord.hh"

namespace rsep::wl
{

/** A sequential producer of the committed-path record stream. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Produce the next committed-path record. The reference stays
     * valid until the next step() call (TraceBuffer copies it into
     * its window immediately). Sources are infinite (live emulation)
     * or fatal on exhaustion (replay) — they never return a sentinel.
     */
    virtual const DynRecord &step() = 0;

    /** The static program the records' indices refer to. */
    virtual const isa::Program &program() const = 0;

    /**
     * A source that continues with the records this one would produce
     * next, over the same program (which must outlive both); null when
     * the source cannot be copied.
     */
    virtual std::unique_ptr<TraceSource> clone() const = 0;
};

} // namespace rsep::wl

#endif // RSEP_WL_TRACE_SOURCE_HH
