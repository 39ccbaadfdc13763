/**
 * @file
 * Functional (architectural) executor of mini-ISA programs.
 *
 * The emulator is the source of truth for values: the timing model is
 * trace-driven and replays the committed-path stream produced here,
 * so every mechanism under study (hashing, equality, value prediction)
 * operates on organically computed values.
 */

#ifndef RSEP_WL_EMULATOR_HH
#define RSEP_WL_EMULATOR_HH

#include <array>

#include "isa/program.hh"
#include "wl/dynrecord.hh"
#include "wl/memory.hh"
#include "wl/trace_source.hh"

namespace rsep::wl
{

/**
 * An emulator's frozen architectural state: registers, next PC and
 * memory. Immutable once made, so any number of emulators on any
 * number of threads can restore from one; each reads the memory as a
 * base and copies a page only when it first writes it.
 */
struct EmulatorImage
{
    std::array<u64, isa::numArchRegs> regs{};
    u32 next = 0;
    u64 icount = 0;
    SparseMemory::Base memory;
};

/**
 * Architectural state + single-step execution of one Program — the
 * live-emulation TraceSource.
 */
class Emulator : public TraceSource
{
  public:
    explicit Emulator(const isa::Program &prog);

    /** Reset registers and PC; memory is preserved (use memory().clear()). */
    void resetArchState();

    /** Move this emulator's state into an image; its memory is left
     *  empty. */
    EmulatorImage freeze();
    /** Continue from @p image: the same records follow as from the
     *  emulator it was frozen from. */
    void restore(const EmulatorImage &image);

    /**
     * Execute the next committed-path instruction and return its
     * record. Halt wraps silently back to instruction 0 (kernels are
     * structured as endless outer loops; Halt is a safety net).
     */
    const DynRecord &step() override;

    u64 readReg(ArchReg r) const;
    void setReg(ArchReg r, u64 v);
    /** Convenience: write a double into an FP register. */
    void setFpReg(ArchReg r, double v);

    SparseMemory &memory() { return mem; }
    const SparseMemory &memory() const { return mem; }

    const isa::Program &program() const override { return prog; }
    /** Copies the registers and the private pages; the base is
     *  shared. */
    std::unique_ptr<TraceSource>
    clone() const override
    {
        return std::make_unique<Emulator>(*this);
    }
    /** Total instructions executed (excluding skipped Halts). */
    u64 instCount() const { return icount; }
    /** Static index of the next instruction to execute. */
    u32 nextIndex() const { return cur; }

  private:
    void writeReg(ArchReg r, u64 v);

    const isa::Program &prog;
    std::array<u64, isa::numArchRegs> regs{};
    SparseMemory mem;
    u32 cur = 0;
    u64 icount = 0;
    DynRecord rec;
};

} // namespace rsep::wl

#endif // RSEP_WL_EMULATOR_HH
