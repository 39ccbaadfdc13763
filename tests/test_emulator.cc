/** @file Functional tests of the emulator's architectural semantics. */

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "wl/emulator.hh"
#include "wl/suite.hh"

namespace rsep::wl
{
namespace
{

using isa::Program;
using isa::ProgramBuilder;

Program
buildArith()
{
    ProgramBuilder b("arith");
    b.movi(1, 10);
    b.movi(2, 3);
    b.add(3, 1, 2);   // 13
    b.sub(4, 1, 2);   // 7
    b.mul(5, 1, 2);   // 30
    b.div(6, 1, 2);   // 3
    b.div(7, 1, 31);  // div by zero reg -> 0
    b.lsli(8, 1, 4);  // 160
    b.asri(9, 8, 2);  // 40
    b.cmplt(10, 2, 1);   // 1
    b.cmpltu(11, 1, 2);  // 0
    b.cmpeq(12, 1, 1);   // 1
    b.halt();
    return b.build();
}

TEST(Emulator, IntegerArithmetic)
{
    Program p = buildArith();
    Emulator em(p);
    for (size_t i = 0; i + 1 < p.size(); ++i)
        em.step();
    EXPECT_EQ(em.readReg(3), 13u);
    EXPECT_EQ(em.readReg(4), 7u);
    EXPECT_EQ(em.readReg(5), 30u);
    EXPECT_EQ(em.readReg(6), 3u);
    EXPECT_EQ(em.readReg(7), 0u);
    EXPECT_EQ(em.readReg(8), 160u);
    EXPECT_EQ(em.readReg(9), 40u);
    EXPECT_EQ(em.readReg(10), 1u);
    EXPECT_EQ(em.readReg(11), 0u);
    EXPECT_EQ(em.readReg(12), 1u);
}

TEST(Emulator, SignedDivisionSemantics)
{
    ProgramBuilder b("sdiv");
    b.movi(1, -12);
    b.movi(2, 4);
    b.div(3, 1, 2); // -3
    b.halt();
    Program p = b.build();
    Emulator em(p);
    em.step();
    em.step();
    em.step();
    EXPECT_EQ(static_cast<s64>(em.readReg(3)), -3);
}

TEST(Emulator, ZeroRegisterIsHardwired)
{
    ProgramBuilder b("z");
    b.movi(isa::zeroReg, 77); // write discarded.
    b.add(1, isa::zeroReg, isa::zeroReg);
    b.halt();
    Program p = b.build();
    Emulator em(p);
    em.step();
    em.step();
    EXPECT_EQ(em.readReg(isa::zeroReg), 0u);
    EXPECT_EQ(em.readReg(1), 0u);
}

TEST(Emulator, FloatingPoint)
{
    ProgramBuilder b("fp");
    b.fadd(33, 34, 35);
    b.fmul(36, 34, 35);
    b.fdiv(37, 34, 35);
    b.fdiv(38, 34, 63); // by zero -> 0.0
    b.halt();
    Program p = b.build();
    Emulator em(p);
    em.setFpReg(34, 6.0);
    em.setFpReg(35, 1.5);
    for (int i = 0; i < 4; ++i)
        em.step();
    EXPECT_DOUBLE_EQ(std::bit_cast<double>(em.readReg(33)), 7.5);
    EXPECT_DOUBLE_EQ(std::bit_cast<double>(em.readReg(36)), 9.0);
    EXPECT_DOUBLE_EQ(std::bit_cast<double>(em.readReg(37)), 4.0);
    EXPECT_DOUBLE_EQ(std::bit_cast<double>(em.readReg(38)), 0.0);
}

TEST(Emulator, FpIntConversion)
{
    ProgramBuilder b("cvt");
    b.movi(1, -9);
    b.fcvti(33, 1);      // int -> fp
    b.fcvtf(2, 33);      // fp -> int
    b.halt();
    Program p = b.build();
    Emulator em(p);
    em.step();
    em.step();
    em.step();
    EXPECT_DOUBLE_EQ(std::bit_cast<double>(em.readReg(33)), -9.0);
    EXPECT_EQ(static_cast<s64>(em.readReg(2)), -9);
}

TEST(Emulator, LoadsAndStores)
{
    ProgramBuilder b("mem");
    b.movi(1, 0x1000);
    b.movi(2, 1234);
    b.str(2, 1, 8);      // [0x1008] = 1234
    b.ldr(3, 1, 8);
    b.movi(4, 2);
    b.strx(2, 1, 4);     // [0x1010] = 1234
    b.ldrx(5, 1, 4);
    b.halt();
    Program p = b.build();
    Emulator em(p);
    for (int i = 0; i < 7; ++i) {
        const DynRecord &r = em.step();
        if (i == 2) {
            EXPECT_EQ(r.effAddr, 0x1008u);
            EXPECT_EQ(r.result, 1234u); // store data recorded.
        }
    }
    EXPECT_EQ(em.readReg(3), 1234u);
    EXPECT_EQ(em.readReg(5), 1234u);
    EXPECT_EQ(em.memory().read(0x1010), 1234u);
}

TEST(Emulator, UnalignedAddressesForceAlign)
{
    ProgramBuilder b("align");
    b.movi(1, 0x1003);
    b.movi(2, 55);
    b.str(2, 1, 0); // aligns down to 0x1000
    b.ldr(3, 1, 0);
    b.halt();
    Program p = b.build();
    Emulator em(p);
    for (int i = 0; i < 4; ++i)
        em.step();
    EXPECT_EQ(em.memory().read(0x1000), 55u);
    EXPECT_EQ(em.readReg(3), 55u);
}

TEST(Emulator, ConditionalBranches)
{
    ProgramBuilder b("br");
    b.movi(1, 5);
    b.movi(2, 5);
    b.beq(1, 2, "eq");    // taken
    b.movi(3, 111);       // skipped
    b.label("eq");
    b.movi(3, 222);
    b.cbnz(3, "done");    // taken
    b.movi(4, 1);         // skipped
    b.label("done");
    b.halt();
    Program p = b.build();
    Emulator em(p);
    const DynRecord *r = &em.step(); // movi
    r = &em.step();                  // movi
    r = &em.step();                  // beq
    EXPECT_TRUE(r->taken);
    r = &em.step(); // movi 222 at label eq
    EXPECT_EQ(em.readReg(3), 222u);
    r = &em.step(); // cbnz taken
    EXPECT_TRUE(r->taken);
    EXPECT_EQ(em.readReg(4), 0u);
}

TEST(Emulator, CallAndReturn)
{
    ProgramBuilder b("call");
    b.b("main");
    b.label("func");
    b.movi(5, 99);
    b.ret();
    b.label("main");
    b.bl("func");
    b.movi(6, 42);
    b.halt();
    Program p = b.build();
    Emulator em(p);
    em.step(); // b main
    const DynRecord &bl = em.step();
    EXPECT_TRUE(bl.taken);
    // Link register holds the return address.
    EXPECT_EQ(em.readReg(isa::linkReg),
              Program::pcOf(p.labelIndex("main")) + Program::instBytes);
    em.step(); // movi 99 in func
    const DynRecord &ret = em.step();
    EXPECT_TRUE(ret.taken);
    em.step(); // movi 42 after return
    EXPECT_EQ(em.readReg(6), 42u);
    EXPECT_EQ(em.readReg(5), 99u);
}

TEST(Emulator, HaltWrapsToStart)
{
    ProgramBuilder b("wrap");
    b.addi(1, 1, 1);
    b.halt();
    Program p = b.build();
    Emulator em(p);
    for (int i = 0; i < 5; ++i)
        em.step();
    EXPECT_EQ(em.readReg(1), 5u);
    EXPECT_EQ(em.instCount(), 5u);
}

TEST(Emulator, DeterministicReplay)
{
    ProgramBuilder b("det");
    b.label("top");
    b.addi(1, 1, 3);
    b.eori(2, 1, 0x55);
    b.mul(3, 1, 2);
    b.b("top");
    Program p = b.build();
    Emulator a(p), c(p);
    for (int i = 0; i < 1000; ++i) {
        const DynRecord &ra = a.step();
        const DynRecord &rc = c.step();
        ASSERT_EQ(ra.result, rc.result);
        ASSERT_EQ(ra.staticIdx, rc.staticIdx);
        ASSERT_EQ(ra.nextIdx, rc.nextIdx);
    }
}

TEST(Emulator, FpMinMaxAbsNeg)
{
    ProgramBuilder b("fpmisc");
    b.fmin(36, 34, 35);
    b.fmax(37, 34, 35);
    b.fabs_(38, 33);
    b.fneg(39, 34);
    b.halt();
    Program p = b.build();
    Emulator em(p);
    em.setFpReg(33, -2.5);
    em.setFpReg(34, 4.0);
    em.setFpReg(35, 7.0);
    for (int i = 0; i < 4; ++i)
        em.step();
    EXPECT_DOUBLE_EQ(std::bit_cast<double>(em.readReg(36)), 4.0);
    EXPECT_DOUBLE_EQ(std::bit_cast<double>(em.readReg(37)), 7.0);
    EXPECT_DOUBLE_EQ(std::bit_cast<double>(em.readReg(38)), 2.5);
    EXPECT_DOUBLE_EQ(std::bit_cast<double>(em.readReg(39)), -4.0);
}

TEST(Emulator, SignedAndUnsignedCompareBranches)
{
    ProgramBuilder b("cmpbr");
    b.movi(1, -1);
    b.movi(2, 1);
    b.blt(1, 2, "signed_lt");   // -1 < 1 signed: taken.
    b.movi(3, 0);
    b.label("signed_lt");
    b.bltu(1, 2, "unsigned_lt"); // 0xfff..f < 1 unsigned: NOT taken.
    b.movi(4, 77);
    b.label("unsigned_lt");
    b.bge(2, 1, "ge");           // 1 >= -1 signed: taken.
    b.movi(5, 0);
    b.label("ge");
    b.bgeu(1, 2, "geu");         // 0xfff..f >= 1 unsigned: taken.
    b.movi(6, 0);
    b.label("geu");
    b.halt();
    Program p = b.build();
    Emulator em(p);
    em.step(); // movi
    em.step(); // movi
    EXPECT_TRUE(em.step().taken);  // blt
    EXPECT_FALSE(em.step().taken); // bltu
    em.step();                     // movi 77 (fall-through path)
    EXPECT_EQ(em.readReg(4), 77u);
    EXPECT_TRUE(em.step().taken);  // bge
    EXPECT_TRUE(em.step().taken);  // bgeu
}

TEST(Emulator, RegisterShiftsAndLogic)
{
    ProgramBuilder b("shifts");
    b.movi(1, 0xf0);
    b.movi(2, 4);
    b.lsl(3, 1, 2);   // 0xf00
    b.lsr(4, 1, 2);   // 0x0f
    b.movi(5, -16);
    b.asr(6, 5, 2);   // shift by x2 = 4: -16 >> 4 = -1
    b.orr(7, 1, 2);   // 0xf4
    b.and_(8, 1, 3);  // 0
    b.eor(9, 1, 1);   // 0 (zero idiom semantics)
    b.halt();
    Program p = b.build();
    Emulator em(p);
    for (int i = 0; i < 8; ++i)
        em.step();
    EXPECT_EQ(em.readReg(3), 0xf00u);
    EXPECT_EQ(em.readReg(4), 0x0fu);
    EXPECT_EQ(static_cast<s64>(em.readReg(6)), -1);
    EXPECT_EQ(em.readReg(7), 0xf4u);
    EXPECT_EQ(em.readReg(8), 0u);
    EXPECT_EQ(em.readReg(9), 0u);
}

TEST(Emulator, IndirectJumpThroughRegister)
{
    ProgramBuilder b("ind");
    b.b("main");
    b.label("target");
    b.movi(5, 31337);
    b.halt();
    b.label("main");
    b.movi(1, 0); // patched below via register init instead.
    b.brind(2);
    Program p = b.build();
    Emulator em(p);
    em.setReg(2, Program::pcOf(p.labelIndex("target")));
    em.step(); // b main
    em.step(); // movi
    const DynRecord &jmp = em.step();
    EXPECT_TRUE(jmp.taken);
    em.step(); // movi 31337
    EXPECT_EQ(em.readReg(5), 31337u);
}

TEST(SparseMemory, UnwrittenReadsZero)
{
    SparseMemory m;
    EXPECT_EQ(m.read(0xdeadbeef00), 0u);
    m.write(0x100, 7);
    EXPECT_EQ(m.read(0x100), 7u);
    EXPECT_EQ(m.read(0x108), 0u);
    EXPECT_GE(m.touchedPages(), 1u);
    m.clear();
    EXPECT_EQ(m.read(0x100), 0u);
}

TEST(SparseMemory, PageBoundaryAccesses)
{
    SparseMemory m;
    constexpr Addr page = SparseMemory::pageBytes;

    // The last word of page 0 and the first word of page 1 are
    // distinct storage across the boundary.
    m.write(page - 8, 0x1111);
    m.write(page, 0x2222);
    EXPECT_EQ(m.read(page - 8), 0x1111u);
    EXPECT_EQ(m.read(page), 0x2222u);
    EXPECT_EQ(m.touchedPages(), 2u);

    // Writes near a page boundary never bleed into the neighbour.
    EXPECT_EQ(m.read(page - 16), 0u);
    EXPECT_EQ(m.read(page + 8), 0u);

    // The same word reached through different low-bit spellings is one
    // location (addresses are force-aligned down to 8 bytes).
    m.write(page + 3, 0x3333); // aligns down onto `page`.
    EXPECT_EQ(m.read(page), 0x3333u);
    EXPECT_EQ(m.read(page + 7), 0x3333u);
    EXPECT_EQ(m.touchedPages(), 2u);

    // Far-apart pages are sparse: only the touched ones materialise.
    m.write(page * 1000, 0x4444);
    EXPECT_EQ(m.read(page * 1000), 0x4444u);
    EXPECT_EQ(m.touchedPages(), 3u);
    EXPECT_EQ(m.read(page * 999), 0u);

    m.clear();
    EXPECT_EQ(m.touchedPages(), 0u);
    EXPECT_EQ(m.read(page - 8), 0u);
}

TEST(SparseMemory, WritesOverABaseStayPrivate)
{
    SparseMemory init;
    init.write(0x10000000, 11);
    init.write(0x10000008, 12);
    SparseMemory::Base image = init.freeze();
    EXPECT_EQ(init.touchedPages(), 0u); // freezing moved every page.

    SparseMemory a(image), b(image);
    a.write(0x10000000, 99);
    EXPECT_EQ(a.read(0x10000000), 99u);
    // The rest of the copied page is the image's.
    EXPECT_EQ(a.read(0x10000008), 12u);
    EXPECT_EQ(a.read(0x10000010), 0u);
    // Neither the image nor a second memory on it sees the write.
    EXPECT_EQ(b.read(0x10000000), 11u);
    EXPECT_EQ(SparseMemory(image).read(0x10000000), 11u);
    EXPECT_EQ(a.touchedPages(), 1u);
}

TEST(SparseMemory, UnwrittenPagesReadZeroAndClearDropsTheBase)
{
    SparseMemory init;
    init.write(0x20000000, 5);
    SparseMemory m(init.freeze());
    EXPECT_EQ(m.read(0x30000000), 0u);
    EXPECT_EQ(m.read(0x20000000 + SparseMemory::pageBytes), 0u);
    // A first write into an unwritten page makes a zeroed private one.
    m.write(0x30000008, 3);
    EXPECT_EQ(m.read(0x30000000), 0u);
    EXPECT_EQ(m.read(0x30000008), 3u);
    EXPECT_EQ(m.touchedPages(), 2u);
    m.clear();
    EXPECT_EQ(m.read(0x20000000), 0u);
    EXPECT_EQ(m.read(0x30000008), 0u);
    EXPECT_EQ(m.touchedPages(), 0u);
}

TEST(SparseMemory, PagesSharingACacheSlotStayDistinct)
{
    // More pages than the lookup cache has slots, laid out like the
    // kernels' data (regions 256 MiB apart, pages 1024 pages apart in
    // a region), so some pages must share a slot; cycling through them
    // must still reach each page's own words.
    SparseMemory init;
    std::vector<Addr> addrs;
    for (Addr region = 1; region <= 5; ++region)
        for (Addr page = 0; page < 128; ++page)
            addrs.push_back(region * 0x10000000 +
                            (page % 2 ? page + 1024 : page) *
                                SparseMemory::pageBytes +
                            8 * region);
    for (size_t i = 0; i < addrs.size(); ++i)
        init.write(addrs[i], i + 1);
    SparseMemory m(init.freeze());
    for (int round = 0; round < 2; ++round) {
        for (size_t i = 0; i < addrs.size(); ++i) {
            EXPECT_EQ(m.read(addrs[i]), i + 1 + round * 100);
            m.write(addrs[i], i + 1 + (round + 1) * 100);
        }
    }
}

/** The first @p n records of @p emu. */
std::vector<DynRecord>
records(Emulator &emu, size_t n)
{
    std::vector<DynRecord> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i)
        out.push_back(emu.step());
    return out;
}

bool
sameRecords(const std::vector<DynRecord> &a, const std::vector<DynRecord> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (a[i].staticIdx != b[i].staticIdx ||
            a[i].nextIdx != b[i].nextIdx || a[i].result != b[i].result ||
            a[i].effAddr != b[i].effAddr || a[i].taken != b[i].taken)
            return false;
    return true;
}

TEST(EmulatorImage, RestoredSuiteWorkloadsMatchAFreshInit)
{
    // Workload::init is a pure function of (spec, phase): an emulator
    // restored from a frozen init continues exactly as a freshly
    // initialised one, and the image is unchanged by a restored run.
    constexpr size_t n = 50'000;
    for (const std::string &name : suiteNames()) {
        Workload w = makeWorkload(name);
        for (u32 phase : {0u, 1u}) {
            SCOPED_TRACE(name + " phase " + std::to_string(phase));
            Emulator fresh(w.program);
            fresh.resetArchState();
            w.init(fresh, phase);
            std::vector<DynRecord> want = records(fresh, n);

            Emulator init(w.program);
            init.resetArchState();
            w.init(init, phase);
            EmulatorImage image = init.freeze();
            for (int restore = 0; restore < 2; ++restore) {
                Emulator emu(w.program);
                emu.restore(image);
                EXPECT_TRUE(sameRecords(records(emu, n), want))
                    << "restore " << restore;
                EXPECT_EQ(emu.instCount(), fresh.instCount());
                for (ArchReg r = 0; r < isa::numArchRegs; ++r)
                    EXPECT_EQ(emu.readReg(r), fresh.readReg(r));
            }
        }
    }
}

TEST(Emulator, HaltWrapsBackToProgramStart)
{
    // Kernels are endless outer loops; a Halt reached mid-stream must
    // silently wrap the cursor back to instruction 0 and continue.
    ProgramBuilder b("haltwrap");
    b.addi(1, 1, 1);
    b.addi(2, 2, 10);
    b.halt();
    Program p = b.build();
    Emulator em(p);

    // Two instructions execute, the Halt is skipped, and the stream
    // resumes at static index 0 — with icount never counting the Halt.
    for (int round = 0; round < 3; ++round) {
        const DynRecord &r0 = em.step();
        EXPECT_EQ(r0.staticIdx, 0u) << "round " << round;
        const DynRecord &r1 = em.step();
        EXPECT_EQ(r1.staticIdx, 1u) << "round " << round;
    }
    EXPECT_EQ(em.instCount(), 6u);
    EXPECT_EQ(em.readReg(1), 3u);
    EXPECT_EQ(em.readReg(2), 30u);
    EXPECT_EQ(em.nextIndex(), 2u); // parked on the Halt until stepped.
}

TEST(Emulator, HaltAtEndAndTrailingWrapKeepArchState)
{
    // Wrapping must not reset registers or memory (only the cursor).
    ProgramBuilder b("haltkeep");
    b.movi(5, 123);
    b.str(5, isa::zeroReg, 0x100);
    b.ldr(6, isa::zeroReg, 0x100);
    b.addi(7, 7, 1);
    b.halt();
    Program p = b.build();
    Emulator em(p);
    for (int i = 0; i < 8; ++i)
        em.step();
    EXPECT_EQ(em.readReg(6), 123u);
    EXPECT_EQ(em.readReg(7), 2u);
    EXPECT_EQ(em.memory().read(0x100), 123u);
}

} // namespace
} // namespace rsep::wl
