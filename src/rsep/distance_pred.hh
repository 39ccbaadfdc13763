/**
 * @file
 * The IDist (instruction distance) predictor (paper Section IV-C):
 * a TAGE-like predictor mapping (PC, branch/path history) to the
 * distance of the older instruction expected to produce the same
 * result. Two configurations from the paper:
 *  - ideal: 16K-entry base + 6 x 1K tagged, tags 13..18 bits = 42.6KB;
 *  - realistic: 2K-entry base + 6 x 512 tagged, tags 5..10 bits = 10.1KB.
 */

#ifndef RSEP_RSEP_DISTANCE_PRED_HH
#define RSEP_RSEP_DISTANCE_PRED_HH

#include "common/stats.hh"
#include "pred/ittage.hh"

namespace rsep::equality
{

/** Distance predictor configuration. */
struct DistancePredictorParams
{
    pred::ItageParams itage;

    /** 42.6KB configuration (Section IV-C). */
    static DistancePredictorParams
    ideal(ConfidenceKind kind = ConfidenceKind::Deterministic8)
    {
        DistancePredictorParams p;
        p.itage = pred::ItageParams{
            .baseBits = 14,
            .numTagged = 6,
            .taggedBits = 10,
            .histLens = {2, 4, 8, 16, 32, 64, 0, 0},
            .tagBits = {13, 14, 15, 16, 17, 18, 0, 0},
            .payloadBits = 8,
            .confKind = kind,
        };
        return p;
    }

    /** 10.1KB configuration (Section VI-B). */
    static DistancePredictorParams
    realistic(ConfidenceKind kind = ConfidenceKind::Deterministic8)
    {
        DistancePredictorParams p;
        p.itage = pred::ItageParams{
            .baseBits = 11,
            .numTagged = 6,
            .taggedBits = 9,
            .histLens = {2, 4, 8, 16, 32, 64, 0, 0},
            .tagBits = {5, 6, 7, 8, 9, 10, 0, 0},
            .payloadBits = 8,
            .confKind = kind,
        };
        return p;
    }
};

/** Lookup result carried with the instruction (largest member first —
 *  the RSEP engine keeps one per in-flight instruction, so padding
 *  matters). */
struct DistLookup
{
    pred::ItageLookup itageLk;
    u32 distance = 0;        ///< predicted IDist.
    u8 confidence = 0;       ///< effective 0..255.
    bool valid = false;
    bool usePred = false;    ///< confidence saturated (use_pred = 255).
};

/** The predictor. */
class DistancePredictor
{
  public:
    explicit DistancePredictor(
        const DistancePredictorParams &params = DistancePredictorParams::ideal(),
        u64 seed = 19)
        : p(params), table(p.itage, seed)
    {
    }

    /** Register the table's fold geometry (enables the folded lookup). */
    void registerFolds(pred::GeoFoldSpec &spec) { table.registerFolds(spec); }

    /** Rename-time lookup under the fetch-time history. */
    DistLookup
    lookup(Addr pc, const pred::GlobalHist &h) const
    {
        ++lookups;
        DistLookup lk;
        lk.valid = true;
        lk.itageLk = table.lookup(pc, h);
        lk.distance = static_cast<u32>(lk.itageLk.payload);
        lk.confidence = lk.itageLk.confidence;
        lk.usePred = lk.itageLk.confident && lk.distance != 0;
        return lk;
    }

    /** Folded-history fast path; @p folds must shadow @p h. */
    DistLookup
    lookup(Addr pc, const pred::GlobalHist &h,
           const pred::GeoFolds &folds) const
    {
        ++lookups;
        DistLookup lk;
        lk.valid = true;
        lk.itageLk = table.lookup(pc, h, folds);
        lk.distance = static_cast<u32>(lk.itageLk.payload);
        lk.confidence = lk.itageLk.confidence;
        lk.usePred = lk.itageLk.confident && lk.distance != 0;
        return lk;
    }

    /** Commit-time training with the observed distance. */
    void
    train(const DistLookup &lk, u32 actual_distance)
    {
        ++trainEvents;
        table.update(lk.itageLk, actual_distance);
    }

    /** Failed validation: collapse confidence (no distance known). */
    void
    trainIncorrect(const DistLookup &lk)
    {
        ++trainEvents;
        table.updateIncorrect(lk.itageLk);
    }

    /**
     * Storage in bits of the hardware embodiment (3-bit FPC confidence
     * as in the paper's accounting, independent of the simulated
     * confidence kind).
     */
    u64
    storageBits() const
    {
        const auto &ip = p.itage;
        u64 bits = (u64{1} << ip.baseBits) * (ip.payloadBits + 3);
        for (unsigned c = 0; c < ip.numTagged; ++c)
            bits += (u64{1} << ip.taggedBits) *
                    (ip.tagBits[c] + ip.payloadBits + 3 + 1);
        return bits;
    }

    const DistancePredictorParams &params() const { return p; }

    /** The raw confidence level at which a lookup is usable (usePred)
     *  or, when @p min_confidence > 0, reports at least that confidence
     *  (see pred::ItageTable::actLevel). */
    unsigned
    actLevel(unsigned min_confidence) const
    {
        return table.actLevel(min_confidence);
    }

    /** The highest raw confidence level any entry predicting a
     *  distance has reached: an entry predicting 0 (no partner) is
     *  never used. */
    unsigned peakLevel() const { return table.peakLevel(true); }

    mutable StatCounter lookups;
    StatCounter trainEvents;

  private:
    DistancePredictorParams p;
    pred::ItageTable table;
};

} // namespace rsep::equality

#endif // RSEP_RSEP_DISTANCE_PRED_HH
