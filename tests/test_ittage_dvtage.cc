/** @file Tests for the ITTAGE payload machinery and D-VTAGE. */

#include <gtest/gtest.h>

#include "pred/dvtage.hh"
#include "pred/ittage.hh"

namespace rsep::pred
{
namespace
{

ItageParams
smallParams()
{
    ItageParams p;
    p.baseBits = 8;
    p.numTagged = 4;
    p.taggedBits = 7;
    p.histLens = {2, 4, 8, 16, 0, 0, 0, 0};
    p.tagBits = {8, 9, 10, 11, 0, 0, 0, 0};
    p.payloadBits = 8;
    return p;
}

TEST(Itage, LearnsConstantPayloadAndGatesOnConfidence)
{
    ItageTable t(smallParams());
    GlobalHist h;
    Addr pc = 0x400010;
    // Well below the 255-threshold: never confident.
    for (int i = 0; i < 100; ++i) {
        ItageLookup lk = t.lookup(pc, h);
        EXPECT_FALSE(lk.confident);
        t.update(lk, 42);
    }
    // Enough additional correct observations to saturate (the first
    // observation replaced the payload rather than counting).
    for (int i = 0; i < 300; ++i) {
        ItageLookup lk = t.lookup(pc, h);
        t.update(lk, 42);
    }
    ItageLookup lk = t.lookup(pc, h);
    EXPECT_TRUE(lk.confident);
    EXPECT_EQ(lk.payload, 42u);
}

TEST(Itage, ConfidenceCollapsesOnWrongPayload)
{
    ItageTable t(smallParams());
    GlobalHist h;
    Addr pc = 0x400020;
    for (int i = 0; i < 300; ++i) {
        ItageLookup lk = t.lookup(pc, h);
        t.update(lk, 7);
    }
    EXPECT_TRUE(t.lookup(pc, h).confident);
    ItageLookup lk = t.lookup(pc, h);
    t.update(lk, 9); // wrong payload.
    EXPECT_FALSE(t.lookup(pc, h).confident);
}

TEST(Itage, UpdateIncorrectOnlyDropsConfidence)
{
    ItageTable t(smallParams());
    GlobalHist h;
    Addr pc = 0x400030;
    for (int i = 0; i < 300; ++i) {
        ItageLookup lk = t.lookup(pc, h);
        t.update(lk, 5);
    }
    ItageLookup lk = t.lookup(pc, h);
    EXPECT_TRUE(lk.confident);
    t.updateIncorrect(lk);
    lk = t.lookup(pc, h);
    EXPECT_FALSE(lk.confident);
    EXPECT_EQ(lk.payload, 5u); // payload preserved.
}

TEST(Itage, HistoryDisambiguatesPayloads)
{
    // Payload alternates with the last branch outcome: the tagged
    // components must separate the two contexts.
    ItageTable t(smallParams());
    Addr pc = 0x400040;
    GlobalHist taken_h, not_taken_h;
    taken_h.insert(true, 0x400000);
    not_taken_h.insert(false, 0x400000);
    for (int i = 0; i < 600; ++i) {
        ItageLookup lk = t.lookup(pc, taken_h);
        t.update(lk, 11);
        lk = t.lookup(pc, not_taken_h);
        t.update(lk, 22);
    }
    EXPECT_EQ(t.lookup(pc, taken_h).payload, 11u);
    EXPECT_EQ(t.lookup(pc, not_taken_h).payload, 22u);
    EXPECT_TRUE(t.lookup(pc, taken_h).confident);
    EXPECT_TRUE(t.lookup(pc, not_taken_h).confident);
}

TEST(Itage, UnrepresentablePayloadNeverConfident)
{
    ItageTable t(smallParams()); // 8-bit payloads.
    GlobalHist h;
    Addr pc = 0x400050;
    EXPECT_FALSE(t.representable(300));
    for (int i = 0; i < 600; ++i) {
        ItageLookup lk = t.lookup(pc, h);
        t.update(lk, 300);
    }
    EXPECT_FALSE(t.lookup(pc, h).confident);
}

TEST(Itage, StorageBitsScaleWithConfig)
{
    ItageTable small(smallParams());
    ItageParams big = smallParams();
    big.baseBits = 12;
    ItageTable large(big);
    EXPECT_GT(large.storageBits(), small.storageBits());
}

TEST(Dvtage, LearnsConstantValue)
{
    Dvtage vp;
    GlobalHist h;
    Addr pc = 0x400100;
    for (int i = 0; i < 300; ++i) {
        VpLookup lk = vp.lookup(pc, h);
        vp.commit(lk, 1234);
    }
    VpLookup lk = vp.lookup(pc, h);
    EXPECT_TRUE(lk.confident);
    EXPECT_EQ(lk.predicted, 1234u);
    vp.commit(lk, 1234);
}

TEST(Dvtage, LearnsStride)
{
    Dvtage vp;
    GlobalHist h;
    Addr pc = 0x400200;
    u64 v = 100;
    for (int i = 0; i < 400; ++i) {
        VpLookup lk = vp.lookup(pc, h);
        vp.commit(lk, v);
        v += 8;
    }
    VpLookup lk = vp.lookup(pc, h);
    EXPECT_TRUE(lk.confident);
    EXPECT_EQ(lk.predicted, v);
    vp.commit(lk, v);
}

TEST(Dvtage, InflightChainingThroughSpecWindow)
{
    // Several in-flight instances of a strided instruction: each must
    // chain off the previous *predicted* value (BeBoP spec window).
    Dvtage vp;
    GlobalHist h;
    Addr pc = 0x400300;
    u64 v = 0;
    for (int i = 0; i < 400; ++i) {
        VpLookup lk = vp.lookup(pc, h);
        vp.commit(lk, v);
        v += 4;
    }
    // Four lookups before any commit.
    VpLookup a = vp.lookup(pc, h);
    VpLookup b = vp.lookup(pc, h);
    VpLookup c = vp.lookup(pc, h);
    EXPECT_EQ(a.predicted, v);
    EXPECT_EQ(b.predicted, v + 4);
    EXPECT_EQ(c.predicted, v + 8);
    vp.commit(a, v);
    vp.commit(b, v + 4);
    vp.commit(c, v + 8);
}

TEST(Dvtage, SquashClearsSpecWindow)
{
    Dvtage vp;
    GlobalHist h;
    Addr pc = 0x400400;
    u64 v = 0;
    for (int i = 0; i < 400; ++i) {
        VpLookup lk = vp.lookup(pc, h);
        vp.commit(lk, v);
        v += 4;
    }
    VpLookup wrong = vp.lookup(pc, h); // in-flight, then squashed.
    (void)wrong;
    vp.squash();
    VpLookup lk = vp.lookup(pc, h);
    EXPECT_EQ(lk.predicted, v); // back to committed last value + stride.
    vp.commit(lk, v);
}

/** The last value @p lk chained off: its prediction minus the
 *  (zigzag-encoded) delta its provider supplied. */
u64
chainedOff(const VpLookup &lk)
{
    u64 zz = lk.itageLk.payload;
    s64 delta = static_cast<s64>((zz >> 1) ^ (~(zz & 1) + 1));
    return lk.predicted - static_cast<u64>(delta);
}

/** A predictor trained on @p value at @p pc, no lookup in flight. */
Dvtage
trainedOn(Addr pc, const GlobalHist &h, u64 value)
{
    Dvtage vp;
    for (int i = 0; i < 400; ++i) {
        VpLookup lk = vp.lookup(pc, h);
        vp.commit(lk, value);
    }
    return vp;
}

TEST(Dvtage, CommitOfASquashedLookupDropsTheNewWindowEntry)
{
    // The window counts the entry's in-flight lookups since the last
    // squash. A lookup from before the squash still commits against
    // that count: lookup A, squash, lookup B, commit A drops the entry,
    // and the next lookup reads the committed value, not B's.
    GlobalHist h;
    Addr pc = 0x400500;
    Dvtage vp = trainedOn(pc, h, 7);
    VpLookup a = vp.lookup(pc, h);
    vp.squash();
    VpLookup b = vp.lookup(pc, h);
    EXPECT_EQ(chainedOff(b), 7u);
    vp.commit(a, 1000);
    VpLookup c = vp.lookup(pc, h);
    ASSERT_NE(b.predicted, 1000u);
    EXPECT_EQ(chainedOff(c), 1000u);
}

TEST(Dvtage, SquashedLookupsNeverDecrementAnEmptyWindow)
{
    // A1 and A2 are squashed; B is the only lookup since. A1's commit
    // drops B's entry; A2's then finds nothing to decrement (a wrapped
    // count would keep B's stale value live for good), so D reads the
    // committed value and E chains off D.
    GlobalHist h;
    Addr pc = 0x400600;
    Dvtage vp = trainedOn(pc, h, 7);
    VpLookup a1 = vp.lookup(pc, h);
    VpLookup a2 = vp.lookup(pc, h);
    vp.squash();
    VpLookup b = vp.lookup(pc, h);
    vp.commit(a1, 1000);
    vp.commit(a2, 1000);
    VpLookup d = vp.lookup(pc, h);
    EXPECT_EQ(chainedOff(d), 1000u);
    VpLookup e = vp.lookup(pc, h);
    EXPECT_EQ(chainedOff(e), d.predicted);

    // A squash with nothing in flight, and a commit of a squashed
    // lookup into an empty window, leave the committed value in charge.
    vp.squash();
    vp.commit(b, 2000);
    vp.squash();
    VpLookup f = vp.lookup(pc, h);
    EXPECT_EQ(chainedOff(f), 2000u);
}

TEST(Dvtage, CountsMispredictions)
{
    Dvtage vp;
    GlobalHist h;
    Addr pc = 0x400500;
    for (int i = 0; i < 300; ++i) {
        VpLookup lk = vp.lookup(pc, h);
        vp.commit(lk, 50);
    }
    VpLookup lk = vp.lookup(pc, h);
    ASSERT_TRUE(lk.confident);
    vp.commit(lk, 999); // surprise.
    EXPECT_EQ(vp.mispredicts.value(), 1u);
    EXPECT_GT(vp.correctPreds.value(), 0u);
}

TEST(Dvtage, StorageIsHundredsOfKB)
{
    Dvtage vp;
    double kb = static_cast<double>(vp.storageBits()) / 8.0 / 1024.0;
    // The paper's comparison predictor is ~256KB.
    EXPECT_GT(kb, 150.0);
    EXPECT_LT(kb, 400.0);
}

} // namespace
} // namespace rsep::pred
