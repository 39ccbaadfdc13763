#include "wl/emulator.hh"

#include <bit>
#include <cmath>

#include "common/logging.hh"

namespace rsep::wl
{

using isa::Opcode;
using isa::StaticInst;

Emulator::Emulator(const isa::Program &program) : prog(program)
{
    if (prog.empty())
        rsep_fatal("emulator: empty program '%s'", prog.progName().c_str());
}

void
Emulator::resetArchState()
{
    regs.fill(0);
    cur = 0;
    icount = 0;
}

EmulatorImage
Emulator::freeze()
{
    return {regs, cur, icount, mem.freeze()};
}

void
Emulator::restore(const EmulatorImage &image)
{
    regs = image.regs;
    cur = image.next;
    icount = image.icount;
    mem = SparseMemory(image.memory);
}

u64
Emulator::readReg(ArchReg r) const
{
    if (r == isa::zeroReg)
        return 0;
    return regs.at(r);
}

void
Emulator::setReg(ArchReg r, u64 v)
{
    writeReg(r, v);
}

void
Emulator::setFpReg(ArchReg r, double v)
{
    writeReg(r, std::bit_cast<u64>(v));
}

void
Emulator::writeReg(ArchReg r, u64 v)
{
    if (r == isa::zeroReg || r == invalidArchReg)
        return;
    regs.at(r) = v;
}

namespace
{

double
asF(u64 v)
{
    return std::bit_cast<double>(v);
}

u64
asU(double v)
{
    return std::bit_cast<u64>(v);
}

} // namespace

const DynRecord &
Emulator::step()
{
    // Skip Halt by wrapping; guard against degenerate all-halt programs.
    for (unsigned guard = 0; prog.at(cur).isHalt(); ++guard) {
        cur = 0;
        if (guard > 1)
            rsep_fatal("emulator: program '%s' contains only Halt",
                       prog.progName().c_str());
    }

    const StaticInst &si = prog.at(cur);
    u32 next = (cur + 1 < prog.size()) ? cur + 1 : 0;

    rec.staticIdx = cur;
    rec.result = 0;
    rec.effAddr = 0;
    rec.taken = false;

    u64 a = si.src1 != invalidArchReg ? readReg(si.src1) : 0;
    u64 b = si.src2 != invalidArchReg ? readReg(si.src2) : 0;
    u64 res = 0;
    bool taken = false;

    switch (si.op) {
      case Opcode::Add: res = a + b; break;
      case Opcode::Sub: res = a - b; break;
      case Opcode::And: res = a & b; break;
      case Opcode::Orr: res = a | b; break;
      case Opcode::Eor: res = a ^ b; break;
      case Opcode::Lsl: res = a << (b & 63); break;
      case Opcode::Lsr: res = a >> (b & 63); break;
      case Opcode::Asr: res = static_cast<u64>(static_cast<s64>(a) >> (b & 63)); break;
      case Opcode::AddI: res = a + static_cast<u64>(si.imm); break;
      case Opcode::SubI: res = a - static_cast<u64>(si.imm); break;
      case Opcode::AndI: res = a & static_cast<u64>(si.imm); break;
      case Opcode::OrrI: res = a | static_cast<u64>(si.imm); break;
      case Opcode::EorI: res = a ^ static_cast<u64>(si.imm); break;
      case Opcode::LslI: res = a << (si.imm & 63); break;
      case Opcode::LsrI: res = a >> (si.imm & 63); break;
      case Opcode::AsrI: res = static_cast<u64>(static_cast<s64>(a) >> (si.imm & 63)); break;
      case Opcode::CmpLt: res = static_cast<s64>(a) < static_cast<s64>(b) ? 1 : 0; break;
      case Opcode::CmpLtU: res = a < b ? 1 : 0; break;
      case Opcode::CmpEq: res = a == b ? 1 : 0; break;
      case Opcode::Mul: res = a * b; break;
      case Opcode::Div:
        // Aarch64 semantics: divide by zero yields 0.
        if (b == 0)
            res = 0;
        else if (static_cast<s64>(a) == INT64_MIN && static_cast<s64>(b) == -1)
            res = a;
        else
            res = static_cast<u64>(static_cast<s64>(a) / static_cast<s64>(b));
        break;
      case Opcode::Mov: res = a; break;
      case Opcode::MovI: res = static_cast<u64>(si.imm); break;
      case Opcode::FAdd: res = asU(asF(a) + asF(b)); break;
      case Opcode::FSub: res = asU(asF(a) - asF(b)); break;
      case Opcode::FMul: res = asU(asF(a) * asF(b)); break;
      case Opcode::FDiv:
        res = asF(b) == 0.0 ? asU(0.0) : asU(asF(a) / asF(b));
        break;
      case Opcode::FMov: res = a; break;
      case Opcode::FCvtI: res = asU(static_cast<double>(static_cast<s64>(a))); break;
      case Opcode::FCvtF: {
        double d = asF(a);
        if (!std::isfinite(d))
            res = 0;
        else if (d >= 9.2233720368547758e18)
            res = static_cast<u64>(INT64_MAX);
        else if (d <= -9.2233720368547758e18)
            res = static_cast<u64>(INT64_MIN);
        else
            res = static_cast<u64>(static_cast<s64>(d));
        break;
      }
      case Opcode::FAbs: res = asU(std::fabs(asF(a))); break;
      case Opcode::FNeg: res = asU(-asF(a)); break;
      case Opcode::FMin: res = asU(std::fmin(asF(a), asF(b))); break;
      case Opcode::FMax: res = asU(std::fmax(asF(a), asF(b))); break;
      case Opcode::Ldr:
      case Opcode::FLdr:
        rec.effAddr = (a + static_cast<u64>(si.imm)) & ~Addr{7};
        res = mem.read(rec.effAddr);
        break;
      case Opcode::LdrX:
      case Opcode::FLdrX:
        rec.effAddr = (a + b * 8) & ~Addr{7};
        res = mem.read(rec.effAddr);
        break;
      case Opcode::Str:
      case Opcode::FStr:
        rec.effAddr = (a + static_cast<u64>(si.imm)) & ~Addr{7};
        res = readReg(si.srcData);
        mem.write(rec.effAddr, res);
        break;
      case Opcode::StrX:
      case Opcode::FStrX:
        rec.effAddr = (a + b * 8) & ~Addr{7};
        res = readReg(si.srcData);
        mem.write(rec.effAddr, res);
        break;
      case Opcode::B:
        taken = true;
        next = static_cast<u32>(si.imm);
        break;
      case Opcode::Beq: taken = (a == b); break;
      case Opcode::Bne: taken = (a != b); break;
      case Opcode::Blt: taken = (static_cast<s64>(a) < static_cast<s64>(b)); break;
      case Opcode::Bge: taken = (static_cast<s64>(a) >= static_cast<s64>(b)); break;
      case Opcode::Bltu: taken = (a < b); break;
      case Opcode::Bgeu: taken = (a >= b); break;
      case Opcode::Cbz: taken = (a == 0); break;
      case Opcode::Cbnz: taken = (a != 0); break;
      case Opcode::Bl:
        taken = true;
        res = isa::Program::pcOf(cur) + isa::Program::instBytes;
        next = static_cast<u32>(si.imm);
        break;
      case Opcode::Ret:
      case Opcode::BrInd:
        taken = true;
        next = static_cast<u32>(isa::Program::indexOf(a));
        if (next >= prog.size())
            rsep_fatal("emulator: indirect jump to bad pc %#llx in '%s'",
                       static_cast<unsigned long long>(a),
                       prog.progName().c_str());
        break;
      case Opcode::Nop:
        break;
      default:
        rsep_panic("emulator: unhandled opcode %d", static_cast<int>(si.op));
    }

    if (si.isCondBranch() && taken)
        next = static_cast<u32>(si.imm);

    if (si.writesReg())
        writeReg(si.dst, res);

    rec.result = res;
    rec.taken = taken;
    rec.nextIdx = next;

    cur = next;
    ++icount;
    return rec;
}

} // namespace rsep::wl
