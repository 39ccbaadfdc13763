/**
 * @file
 * The timing-side in-flight instruction record (one per ROB entry).
 */

#ifndef RSEP_CORE_DYNINST_HH
#define RSEP_CORE_DYNINST_HH

#include <array>

#include "core/wakeup.hh"
#include "isa/static_inst.hh"
#include "pred/branch_unit.hh"
#include "pred/dvtage.hh"
#include "rsep/distance_pred.hh"
#include "wl/dynrecord.hh"

namespace rsep::core
{

/**
 * Where an unissued instruction currently lives in the event-driven
 * issue scheduler (see wakeup.hh and DESIGN.md §9).
 */
enum class SchedState : u8 {
    None,     ///< not scheduled (non-exec, or already issued).
    WaitPreg, ///< parked on a source preg whose ready time is unknown.
    WaitSeq,  ///< parked on a producing instruction's waiter chain.
    InHeap,   ///< ready time known; sleeping until that cycle.
    Ready,    ///< in the ready list, contending for issue ports.
};

/** Which mechanism (if any) handled the instruction at rename. */
enum class RenameAction : u8 {
    None,          ///< normal rename + allocation.
    ZeroIdiom,     ///< non-speculative: dest -> zero preg, no execution.
    MoveElim,      ///< non-speculative: dest -> source preg, no execution.
    ZeroPredicted, ///< speculative: dest -> zero preg, executes to check.
    RsepShared,    ///< speculative: dest -> producer preg, executes.
    OracleShared,  ///< oracle equality: dest -> producer preg, executes,
                   ///< never mispredicts (limit study).
    ValuePredicted,///< speculative: own preg, value ready at dispatch.
};

/** One in-flight instruction. */
struct InflightInst
{
    // Identity.
    u64 traceIdx = 0;      ///< == sequence number; distance unit.
    const isa::StaticInst *si = nullptr;
    Addr pc = 0;
    wl::DynRecord rec;

    // Rename results.
    RenameAction action = RenameAction::None;
    PhysReg destPreg = invalidPhysReg; ///< mapping installed for dst.
    PhysReg oldPreg = invalidPhysReg;  ///< previous mapping of dst.
    bool allocatedPreg = false;        ///< destPreg came off the free list.
    std::array<PhysReg, 3> srcPregs{invalidPhysReg, invalidPhysReg,
                                    invalidPhysReg};
    unsigned numSrcs = 0;
    bool producesReg = false;

    // Equality prediction state.
    equality::DistLookup distLk;
    u64 shareProducerSeq = 0;      ///< producer traceIdx (RsepShared).
    bool likelyCandidate = false;  ///< sampled training via validation.
    bool candidateHasPartner = false;
    PhysReg candidatePartnerPreg = invalidPhysReg;
    u64 candidateProducerSeq = 0;
    u64 candidatePartnerValue = 0; ///< producer's result (for training).
    u64 shareProducerValue = 0;    ///< producer's result (for validation).

    // Value prediction state.
    pred::VpLookup vpLk;

    // Branch state.
    pred::BranchPrediction bp;

    // History snapshots for squash restore (all instructions).
    pred::GlobalHist histFetch;
    pred::ReturnAddressStack::Snapshot rasSnap{0, 0};

    // Scheduling state.
    Cycle fetchCycle = 0;
    Cycle dispatchCycle = 0;
    Cycle completeCycle = invalidCycle; ///< result available.
    bool inIq = false;      ///< occupies an IQ entry.
    bool issued = false;
    bool needsExec = true;  ///< eliminated insts skip execution.
    SeqNum storeDepSeq = 0; ///< store-set dependence (0 = none).

    // Validation micro-op state (equality/zero prediction).
    bool needsValidation = false;
    bool validationIssued = false;
    Cycle validationCycle = invalidCycle;

    // Event-driven issue-scheduling state (core/wakeup.hh). The token
    // stamps the instruction's current scheduler membership; stale
    // heap/chain entries (e.g. orphaned by a squash whose seq was
    // re-fetched) carry an older token and are dropped at wake time.
    SchedState schedState = SchedState::None;
    u32 schedToken = 0;
    /** Head of the chain of younger instructions waiting on this one
     *  (store-set or shared-producer dependences). */
    u32 waiterHead = invalidWaiter;

    bool
    isLoad() const
    {
        return si->isLoad();
    }
    bool
    isStore() const
    {
        return si->isStore();
    }
};

} // namespace rsep::core

#endif // RSEP_CORE_DYNINST_HH
