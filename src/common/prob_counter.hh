/**
 * @file
 * Confidence estimation counters for value/distance prediction.
 *
 * The paper (footnotes 3-4, Section IV-C) uses 3-bit *probabilistic*
 * confidence counters in the style of Riley & Zilles / Perais & Seznec
 * (FPC): a narrow counter whose increments succeed only with some
 * probability, emulating a much deeper counter (effective depth ~255)
 * in 3 bits. Prediction is allowed only when the counter is saturated.
 *
 * Two embodiments are provided behind one interface:
 *  - Deterministic: a plain 8-bit counter saturating at 255 (the
 *    "effective" model the paper reasons with; default for experiments
 *    because it is noise-free).
 *  - Probabilistic (FPC): 3-bit counter with a per-level increment
 *    probability vector whose expected total trial count ~= 255.
 *
 * The *training thresholds* used for sampled training (start_train = 15
 * or 63 in Fig. 6) are expressed on the effective 0..255 scale; the FPC
 * embodiment maps them onto expected-trial equivalents.
 */

#ifndef RSEP_COMMON_PROB_COUNTER_HH
#define RSEP_COMMON_PROB_COUNTER_HH

#include <array>
#include <cassert>

#include "common/rng.hh"
#include "common/types.hh"

namespace rsep
{

/** Which confidence embodiment to simulate. */
enum class ConfidenceKind : u8 {
    Deterministic8, ///< 8-bit counter, saturates at 255.
    Fpc3,           ///< 3-bit forward probabilistic counter.
};

/**
 * FPC probability vector: probability denominator for advancing from
 * level i to i+1 (numerator is 1). Expected trials to saturate:
 * 1 + 1 + 16 + 16 + 32 + 64 + 128 = 258 ~= 255.
 */
constexpr std::array<u32, 7> fpc3Denominators = {1, 1, 16, 16, 32, 64, 128};

/** Expected effective count represented by FPC level i (cumulative). */
constexpr std::array<u32, 8>
fpc3EffectiveLevels()
{
    std::array<u32, 8> eff{};
    u32 acc = 0;
    eff[0] = 0;
    for (unsigned i = 0; i < 7; ++i) {
        acc += fpc3Denominators[i];
        eff[i + 1] = acc;
    }
    return eff;
}

/**
 * A confidence counter with an effective 0..255 scale.
 *
 * All predictors talk to this class in terms of the effective scale:
 * effectiveValue() in [0,255], saturated() meaning "predict now".
 */
class ConfidenceCounter
{
  public:
    ConfidenceCounter(ConfidenceKind kind = ConfidenceKind::Deterministic8)
        : knd(kind), level(0)
    {
    }

    /**
     * Record a correct outcome. @p rng is used only by the FPC
     * embodiment (may be null for Deterministic8).
     */
    void
    onCorrect(Rng *rng)
    {
        if (knd == ConfidenceKind::Deterministic8) {
            if (level < saturationLevel(knd))
                ++level;
        } else {
            if (level >= saturationLevel(knd))
                return;
            u32 den = fpc3Denominators[level];
            assert(den >= 1);
            if (den == 1 || (rng && rng->chance(1, den)))
                ++level;
        }
    }

    /**
     * The level saturated() asks for. onCorrect raises the level by
     * at most one and onIncorrect resets it, so a counter predicts
     * only after at least this many correct outcomes in a row.
     */
    static constexpr u32
    saturationLevel(ConfidenceKind kind)
    {
        return kind == ConfidenceKind::Deterministic8
            ? 255
            : static_cast<u32>(fpc3Denominators.size());
    }

    /** Record an incorrect outcome: confidence resets to zero. */
    void onIncorrect() { level = 0; }

    /** Reset (e.g., on entry replacement). */
    void reset() { level = 0; }

    /** True when prediction should be used. */
    bool saturated() const { return level == saturationLevel(knd); }

    /** Confidence on the effective 0..255(+) scale. */
    u32
    effectiveValue() const
    {
        if (knd == ConfidenceKind::Deterministic8)
            return level;
        constexpr auto eff = fpc3EffectiveLevels();
        return eff[level];
    }

    /** Raw stored level (for storage-cost accounting / tests). */
    u32 rawLevel() const { return level; }

    /** Storage bits needed by this embodiment. */
    unsigned
    storageBits() const
    {
        return knd == ConfidenceKind::Deterministic8 ? 8 : 3;
    }

    ConfidenceKind kind() const { return knd; }

  private:
    ConfidenceKind knd;
    u32 level;
};

} // namespace rsep

#endif // RSEP_COMMON_PROB_COUNTER_HH
