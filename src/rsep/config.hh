/**
 * @file
 * Configuration of the RSEP mechanism family (what the paper's
 * experiments toggle).
 */

#ifndef RSEP_RSEP_CONFIG_HH
#define RSEP_RSEP_CONFIG_HH

#include "common/prob_counter.hh"
#include "rsep/distance_pred.hh"

namespace rsep::equality
{

/** How equality-prediction validation consumes execution resources
 *  (paper Section IV-F / Fig. 6). */
enum class ValidationPolicy : u8 {
    Ideal,         ///< validation is free.
    Issue2xLockFu, ///< re-issue to the same FU class (loads lock ports).
    Issue2xAnyFu,  ///< re-issue to any FU via the global bypass network.
};

/** Full RSEP configuration. */
struct RsepConfig
{
    // Mechanism toggles (Fig. 4 arms).
    bool enableEquality = true;   ///< distance prediction + sharing.
    bool enableZeroPred = false;  ///< Section III zero prediction.
    bool enableMoveElim = false;  ///< move elimination (on with RSEP).

    // Pair-finding structure.
    unsigned historyDepth = 128;  ///< FIFO entries (paper: 128 suffices).
    bool useDdt = false;          ///< DDT variant instead of FIFO.
    unsigned ddtEntries = 8192;   ///< "unrealistic 16KB DDT".
    unsigned hashBits = 14;

    // Predictor.
    bool idealPredictor = true;   ///< 42.6KB vs 10.1KB distance predictor.
    ConfidenceKind confKind = ConfidenceKind::Deterministic8;

    // Sharing.
    unsigned isrbEntries = 24;
    unsigned isrbCounterBits = 6;

    // Validation & training.
    ValidationPolicy validation = ValidationPolicy::Ideal;
    bool sampling = false;        ///< one sampled FIFO probe per cycle.
    u32 startTrainThreshold = 63; ///< likely-candidate threshold.
    bool propagatePredictedDistance = true; ///< 224B distance FIFO.

    /** Preset: the Fig. 4 "ideal validation, large structures" RSEP. */
    static RsepConfig
    idealLarge()
    {
        RsepConfig c;
        c.historyDepth = 1024; ///< ">> ROB".
        c.idealPredictor = true;
        c.validation = ValidationPolicy::Ideal;
        c.sampling = false;
        return c;
    }

    /** Preset: the Fig. 7 realistic 10.8KB configuration. */
    static RsepConfig
    realistic()
    {
        RsepConfig c;
        c.historyDepth = 128;
        c.idealPredictor = false;
        c.validation = ValidationPolicy::Issue2xAnyFu;
        c.sampling = true;
        c.startTrainThreshold = 63;
        c.isrbEntries = 24;
        return c;
    }

    DistancePredictorParams
    distParams() const
    {
        return idealPredictor ? DistancePredictorParams::ideal(confKind)
                              : DistancePredictorParams::realistic(confKind);
    }
};

/** Canonical scenario-file spelling of a validation policy. */
constexpr const char *
validationPolicyName(ValidationPolicy p)
{
    switch (p) {
      case ValidationPolicy::Ideal:
        return "ideal";
      case ValidationPolicy::Issue2xLockFu:
        return "issue2x-lock-fu";
      case ValidationPolicy::Issue2xAnyFu:
        return "issue2x-any-fu";
    }
    return "ideal";
}

/** Canonical scenario-file spelling of a confidence counter kind. */
constexpr const char *
confidenceKindName(ConfidenceKind k)
{
    return k == ConfidenceKind::Fpc3 ? "fpc3" : "deterministic8";
}

/**
 * Field-introspection hook for RsepConfig (see core::visitFields on
 * CoreParams): the scenario layer's single source of `[rsep]` keys.
 */
template <class V>
void
visitFields(RsepConfig &c, V &&v)
{
    v("enable_equality", c.enableEquality);
    v("enable_zero_pred", c.enableZeroPred);
    v("enable_move_elim", c.enableMoveElim);
    v("history_depth", c.historyDepth);
    v("use_ddt", c.useDdt);
    v("ddt_entries", c.ddtEntries);
    v("hash_bits", c.hashBits);
    v("ideal_predictor", c.idealPredictor);
    v("conf_kind", c.confKind);
    v("isrb_entries", c.isrbEntries);
    v("isrb_counter_bits", c.isrbCounterBits);
    v("validation", c.validation);
    v("sampling", c.sampling);
    v("start_train_threshold", c.startTrainThreshold);
    v("propagate_predicted_distance", c.propagatePredictedDistance);
}

} // namespace rsep::equality

#endif // RSEP_RSEP_CONFIG_HH
