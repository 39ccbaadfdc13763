/**
 * @file
 * Time-series stat sampling: periodic snapshots of the live pipeline
 * counters over a measurement run (the gator/Streamline model — phase
 * behaviour over time, not just end-of-run totals).
 *
 * A StatSample is one fixed-schema row: the sample cycle, instantaneous
 * occupancies, and *deltas* of the commit/squash/predictor counters
 * since the previous sample. The schema is identical for every
 * mechanism arm — one fixed coverage/correct/mispredict slot per
 * engine, summed from the counters a registered engine tagged with
 * those roles at registerStat (zeros when the engine is not
 * registered) — so sample files from different arms merge and plot
 * against each other column for column.
 *
 * Every field is a u64 and the schema is enumerated exactly once, by
 * visitSampleFields(); the binary `.rts` encoding, the CSV columns and
 * the delta bookkeeping all derive from that enumeration (the same
 * introspection discipline as visitStats/visitFields). Derived rates
 * (window IPC, hit rates) are computed by readers from the integer
 * fields, so the files contain no floating point and stay bit-stable.
 *
 * Determinism: samples fire on the deterministic st.cycles axis of the
 * measurement run, and capture only architectural counters — never
 * wall-clock, cache-temperature or scheduling-dependent state — so a
 * cell's sample series is byte-identical at any thread count or shard
 * split (tests/test_samples.cc pins this).
 */

#ifndef RSEP_CORE_SAMPLER_HH
#define RSEP_CORE_SAMPLER_HH

#include <vector>

#include "common/types.hh"

namespace rsep::core
{

/** Sample-schema version, echoed in every `.rts` header; bump on any
 *  field addition/removal/reorder. */
constexpr unsigned sampleSchemaVersion = 1;

/** Fixed engine-slot order of the per-engine sample fields: the
 *  pipeline's construction order, independent of which engines a
 *  given arm registers. */
constexpr const char *sampleEngineSlots[] = {
    "zero_idiom", "move_elim", "zero_pred", "oracle_eq", "rsep", "dvtage",
};
constexpr size_t numSampleEngineSlots =
    sizeof(sampleEngineSlots) / sizeof(sampleEngineSlots[0]);

/** How a sample field relates to the previous sample. */
enum class SampleFieldKind : u8 {
    Point, ///< instantaneous value at the sample cycle.
    Delta, ///< increase since the previous sample row.
};

/** One time-series row (or, inside the sampler, a cumulative
 *  snapshot the next row will delta against). */
struct StatSample
{
    u64 cycle = 0; ///< measurement cycle of this sample (point).

    // Commit-stream deltas.
    u64 committedInsts = 0;
    u64 committedBranches = 0;
    u64 committedLoads = 0;
    u64 committedStores = 0;
    u64 branchMispredicts = 0; ///< cond + indirect + return redirects.
    u64 commitSquashes = 0;
    u64 memOrderSquashes = 0;

    // Instantaneous occupancies (point).
    u64 robOcc = 0;      ///< renamed, not yet committed.
    u64 frontendOcc = 0; ///< fetched, not yet renamed.

    // Per-engine coverage/correct/mispredict deltas, one fixed slot
    // per engine in sampleEngineSlots order.
    u64 engCoverage[numSampleEngineSlots] = {};
    u64 engCorrect[numSampleEngineSlots] = {};
    u64 engMispredict[numSampleEngineSlots] = {};
};

/**
 * Field-introspection hook: visit every StatSample field as
 * `v(name, u64-ref, kind)` in schema order. The `.rts` payload
 * encoding, the CSV header and the delta subtraction all walk this one
 * enumeration, so they cannot drift from each other.
 */
template <class V>
void
visitSampleFields(StatSample &s, V &&v)
{
    v("cycle", s.cycle, SampleFieldKind::Point);
    v("committed_insts", s.committedInsts, SampleFieldKind::Delta);
    v("committed_branches", s.committedBranches, SampleFieldKind::Delta);
    v("committed_loads", s.committedLoads, SampleFieldKind::Delta);
    v("committed_stores", s.committedStores, SampleFieldKind::Delta);
    v("branch_mispredicts", s.branchMispredicts, SampleFieldKind::Delta);
    v("commit_squashes", s.commitSquashes, SampleFieldKind::Delta);
    v("mem_order_squashes", s.memOrderSquashes, SampleFieldKind::Delta);
    v("rob_occ", s.robOcc, SampleFieldKind::Point);
    v("frontend_occ", s.frontendOcc, SampleFieldKind::Point);
    // Suffixed per-engine slots: <engine>_coverage/_correct/_mispredict.
    static const std::vector<std::string> engNames = [] {
        std::vector<std::string> names;
        for (const char *slot : sampleEngineSlots) {
            names.push_back(std::string(slot) + "_coverage");
            names.push_back(std::string(slot) + "_correct");
            names.push_back(std::string(slot) + "_mispredict");
        }
        return names;
    }();
    for (size_t e = 0; e < numSampleEngineSlots; ++e) {
        v(engNames[3 * e].c_str(), s.engCoverage[e],
          SampleFieldKind::Delta);
        v(engNames[3 * e + 1].c_str(), s.engCorrect[e],
          SampleFieldKind::Delta);
        v(engNames[3 * e + 2].c_str(), s.engMispredict[e],
          SampleFieldKind::Delta);
    }
}

/** Number of fields visitSampleFields enumerates. */
inline size_t
sampleFieldCount()
{
    static const size_t n = [] {
        StatSample s;
        size_t count = 0;
        visitSampleFields(s, [&](const char *, u64 &, SampleFieldKind) {
            ++count;
        });
        return count;
    }();
    return n;
}

/** Canonical comma-joined field-name list (the `.rts` schema echo). */
inline const std::string &
sampleFieldNames()
{
    static const std::string names = [] {
        StatSample s;
        std::string out;
        visitSampleFields(s, [&](const char *name, u64 &,
                                 SampleFieldKind) {
            if (!out.empty())
                out += ',';
            out += name;
        });
        return out;
    }();
    return names;
}

/**
 * The per-run sample accumulator the pipeline drives. The pipeline
 * captures *cumulative* snapshots (cheap: plain counter reads); the
 * sampler turns them into delta rows against the previous snapshot and
 * keeps the ring of finished rows for the export layer.
 */
class StatSampler
{
  public:
    explicit StatSampler(u64 period_cycles) : per(period_cycles) {}

    u64 period() const { return per; }

    /** Measurement cycle the next boundary row is due at. */
    u64 nextDue() const { return due; }

    const std::vector<StatSample> &rows() const { return out; }

    /** Begin a measurement run: @p cum is the cumulative snapshot at
     *  cycle 0 (counters the run's resetStats did not zero — e.g. the
     *  branch unit's — delta correctly from here). */
    void
    start(const StatSample &cum)
    {
        prev = cum;
        out.clear();
        due = per;
        lastCycle = 0;
    }

    /** Emit the boundary row due at nextDue() from cumulative snapshot
     *  @p cum. Boundaries crossed inside an idle fast-forward emit
     *  all-zero-delta rows from the same snapshot, identical to what
     *  single-stepping those cycles would have produced. */
    void
    record(const StatSample &cum)
    {
        emit(cum, due);
        due += per;
    }

    /** End of measurement: emit the final partial row (so the delta
     *  columns sum exactly to the run's end-of-run totals), unless the
     *  run ended exactly on an emitted boundary. */
    void
    finish(const StatSample &cum, u64 at_cycle)
    {
        if (at_cycle > lastCycle || out.empty())
            emit(cum, at_cycle);
    }

  private:
    void
    emit(const StatSample &cum, u64 at_cycle)
    {
        StatSample row = cum;
        // Subtract the previous snapshot from the delta fields; the
        // two visits see the same schema order by construction.
        u64 prev_vals[64];
        size_t i = 0;
        visitSampleFields(prev, [&](const char *, u64 &f,
                                    SampleFieldKind) {
            prev_vals[i++] = f;
        });
        i = 0;
        visitSampleFields(row, [&](const char *, u64 &f,
                                   SampleFieldKind kind) {
            if (kind == SampleFieldKind::Delta)
                f -= prev_vals[i];
            ++i;
        });
        row.cycle = at_cycle;
        prev = cum;
        lastCycle = at_cycle;
        out.push_back(row);
    }

    u64 per;
    u64 due = 0;
    u64 lastCycle = 0;
    StatSample prev{};
    std::vector<StatSample> out;
};

} // namespace rsep::core

#endif // RSEP_CORE_SAMPLER_HH
