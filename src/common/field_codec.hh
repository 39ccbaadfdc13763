/**
 * @file
 * The one `key = value` field codec. Every config section is a struct
 * with a `visitFields(obj, v)` hook that calls `v(key, field)` per
 * field; FieldWriter and FieldReader are the two visitors that hook is
 * walked with. The scenario layer (`[sim]`, `[core]`, `[mech]`,
 * `[rsep]`, `[vp]`) and the workload layer (`[workload]` parameter
 * keys) both serialize, hash and parse through them, so one spelling
 * per field type holds everywhere.
 */

#ifndef RSEP_COMMON_FIELD_CODEC_HH
#define RSEP_COMMON_FIELD_CODEC_HH

#include <array>
#include <ostream>
#include <string>

#include "common/prob_counter.hh"
#include "common/types.hh"

namespace rsep
{

namespace equality
{
enum class ValidationPolicy : u8;
} // namespace equality

/** Emits `key = value` per visited field, in canonical spelling. */
struct FieldWriter
{
    std::ostream &os;

    void operator()(const char *key, const bool &v) const;
    void operator()(const char *key, const u32 &v) const;
    void operator()(const char *key, const u64 &v) const;
    void operator()(const char *key, const s64 &v) const;
    void operator()(const char *key,
                    const equality::ValidationPolicy &v) const;
    void operator()(const char *key, const ConfidenceKind &v) const;

    /** Array-valued keys (ITTAGE per-component geometry): a full-width
     *  comma list, so the canonical form is unambiguous. */
    template <size_t N>
    void
    operator()(const char *key, const std::array<unsigned, N> &v) const
    {
        os << key << " = ";
        for (size_t i = 0; i < N; ++i)
            os << (i ? "," : "") << v[i];
        os << "\n";
    }
};

/** Applies one `key = value` to the visited field named @p key. */
struct FieldReader
{
    const std::string &key;
    const std::string &value;
    bool found = false;
    std::string expected; ///< non-empty = type error: what was expected.

    void operator()(const char *k, bool &v);
    void operator()(const char *k, u32 &v);
    void operator()(const char *k, u64 &v);
    void operator()(const char *k, s64 &v);
    void operator()(const char *k, equality::ValidationPolicy &v);
    void operator()(const char *k, ConfidenceKind &v);

    /** A comma list of up to N entries; unspecified tail entries are 0. */
    template <size_t N>
    void
    operator()(const char *k, std::array<unsigned, N> &v)
    {
        if (key != k)
            return;
        found = true;
        std::array<unsigned, N> parsed{};
        if (readList(parsed.data(), N))
            v = parsed;
    }

    /**
     * The diagnostic after a walk, empty on success: "unknown key 'k'
     * <scope>" when no field matched, "bad value 'v' for <field>
     * (expected ...)" on a type error.
     */
    std::string diagnostic(const std::string &scope,
                           const std::string &field) const;

  private:
    bool readList(unsigned *out, size_t n);
};

} // namespace rsep

#endif // RSEP_COMMON_FIELD_CODEC_HH
