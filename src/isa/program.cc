#include "isa/program.hh"

#include <sstream>

#include "common/logging.hh"

namespace rsep::isa
{

std::string
Program::disasm(size_t idx) const
{
    const StaticInst &si = at(idx);
    std::ostringstream os;
    os << std::hex << "0x" << pcOf(idx) << std::dec << ": "
       << mnemonic(si.op);
    // Appends rather than `"x" + std::to_string(...)`: GCC 12 at -O3
    // raises a false -Wrestrict on the prepend (GCC bug 105651).
    auto reg = [](ArchReg r) -> std::string {
        if (r == invalidArchReg)
            return "?";
        if (r == zeroReg)
            return "xzr";
        std::string name = isFpReg(r) ? "d" : "x";
        name += std::to_string(isFpReg(r) ? r - fpRegBase : r);
        return name;
    };
    switch (si.opClass()) {
      case OpClass::Load:
        os << " " << reg(si.dst) << ", [" << reg(si.src1);
        if (si.src2 != invalidArchReg)
            os << ", " << reg(si.src2) << "*8";
        else if (si.imm != 0)
            os << ", #" << si.imm;
        os << "]";
        break;
      case OpClass::Store:
        os << " " << reg(si.srcData) << ", [" << reg(si.src1);
        if (si.src2 != invalidArchReg)
            os << ", " << reg(si.src2) << "*8";
        else if (si.imm != 0)
            os << ", #" << si.imm;
        os << "]";
        break;
      case OpClass::Branch:
        if (si.src1 != invalidArchReg)
            os << " " << reg(si.src1);
        if (si.src2 != invalidArchReg)
            os << ", " << reg(si.src2);
        if (!si.isIndirect())
            os << " -> @" << si.imm;
        break;
      case OpClass::Nop:
        break;
      default:
        if (si.dst != invalidArchReg)
            os << " " << reg(si.dst);
        if (si.src1 != invalidArchReg)
            os << ", " << reg(si.src1);
        if (si.src2 != invalidArchReg)
            os << ", " << reg(si.src2);
        if (si.op == Opcode::MovI || (si.src2 == invalidArchReg &&
                                      si.opClass() == OpClass::IntAlu &&
                                      si.op != Opcode::Mov))
            os << ", #" << si.imm;
        break;
    }
    return os.str();
}

void
ProgramBuilder::label(const std::string &lbl)
{
    auto [it, inserted] = labels.emplace(lbl, insts.size());
    if (!inserted)
        rsep_fatal("duplicate label '%s' in program '%s'", lbl.c_str(),
                   name.c_str());
}

void
ProgramBuilder::emit3(Opcode op, ArchReg d, ArchReg a, ArchReg b)
{
    StaticInst si;
    si.op = op;
    si.dst = d;
    si.src1 = a;
    si.src2 = b;
    insts.push_back(si);
}

void
ProgramBuilder::emitI(Opcode op, ArchReg d, ArchReg a, s64 i)
{
    StaticInst si;
    si.op = op;
    si.dst = d;
    si.src1 = a;
    si.imm = i;
    insts.push_back(si);
}

void
ProgramBuilder::emitStore(Opcode op, ArchReg data, ArchReg base,
                          ArchReg idx, s64 off)
{
    StaticInst si;
    si.op = op;
    si.srcData = data;
    si.src1 = base;
    si.src2 = idx;
    si.imm = off;
    insts.push_back(si);
}

void
ProgramBuilder::emitBranch(Opcode op, ArchReg a, ArchReg b,
                           const std::string &lbl)
{
    StaticInst si;
    si.op = op;
    si.src1 = a;
    si.src2 = b;
    fixups.push_back({insts.size(), lbl});
    insts.push_back(si);
}

void
ProgramBuilder::bl(const std::string &lbl)
{
    StaticInst si;
    si.op = Opcode::Bl;
    si.dst = linkReg;
    fixups.push_back({insts.size(), lbl});
    insts.push_back(si);
}

void
ProgramBuilder::ret()
{
    StaticInst si;
    si.op = Opcode::Ret;
    si.src1 = linkReg;
    insts.push_back(si);
}

Program
ProgramBuilder::build()
{
    for (const Fixup &fx : fixups) {
        auto it = labels.find(fx.label);
        if (it == labels.end())
            rsep_fatal("unresolved label '%s' in program '%s'",
                       fx.label.c_str(), name.c_str());
        insts[fx.instIdx].imm = static_cast<s64>(it->second);
    }
    if (insts.empty() || insts.back().op != Opcode::Halt) {
        StaticInst si;
        si.op = Opcode::Halt;
        insts.push_back(si);
    }
    return Program(name, std::move(insts), std::move(labels));
}

size_t
Program::labelIndex(const std::string &lbl) const
{
    auto it = labels.find(lbl);
    if (it == labels.end())
        rsep_fatal("program '%s': unknown label '%s'", name.c_str(),
                   lbl.c_str());
    return it->second;
}

} // namespace rsep::isa
