#include "common/field_codec.hh"

#include <limits>
#include <sstream>

#include "common/env.hh"
#include "rsep/config.hh"

namespace rsep
{

namespace
{

using equality::ValidationPolicy;

constexpr std::array allPolicies = {ValidationPolicy::Ideal,
                                    ValidationPolicy::Issue2xLockFu,
                                    ValidationPolicy::Issue2xAnyFu};
constexpr std::array allConfidenceKinds = {ConfidenceKind::Deterministic8,
                                           ConfidenceKind::Fpc3};

/** Match @p value against every spelling of an enum; on a miss the
 *  expectation lists them, e.g. "one of deterministic8|fpc3". */
template <class E, size_t N>
void
readEnum(FieldReader &r, E &v, const std::array<E, N> &all,
         const char *(*name)(E))
{
    r.expected = "one of ";
    for (size_t i = 0; i < N; ++i) {
        if (r.value == name(all[i])) {
            v = all[i];
            r.expected.clear();
            return;
        }
        r.expected += i ? "|" : "";
        r.expected += name(all[i]);
    }
}

bool
parseU32(const std::string &s, u32 &out)
{
    u64 wide = 0;
    if (!parseU64(s, wide) || wide > std::numeric_limits<u32>::max())
        return false;
    out = static_cast<u32>(wide);
    return true;
}

} // namespace

// ------------------------------------------------------------- writer

void
FieldWriter::operator()(const char *key, const bool &v) const
{
    os << key << " = " << (v ? "true" : "false") << "\n";
}

void
FieldWriter::operator()(const char *key, const u32 &v) const
{
    os << key << " = " << v << "\n";
}

void
FieldWriter::operator()(const char *key, const u64 &v) const
{
    os << key << " = " << v << "\n";
}

void
FieldWriter::operator()(const char *key, const s64 &v) const
{
    os << key << " = " << v << "\n";
}

void
FieldWriter::operator()(const char *key, const ValidationPolicy &v) const
{
    os << key << " = " << equality::validationPolicyName(v) << "\n";
}

void
FieldWriter::operator()(const char *key, const ConfidenceKind &v) const
{
    os << key << " = " << equality::confidenceKindName(v) << "\n";
}

// ------------------------------------------------------------- reader

void
FieldReader::operator()(const char *k, bool &v)
{
    if (key != k)
        return;
    found = true;
    if (!parseBool(value, v))
        expected = "a boolean (true/false)";
}

void
FieldReader::operator()(const char *k, u32 &v)
{
    if (key != k)
        return;
    found = true;
    if (!parseU32(value, v))
        expected = "an unsigned 32-bit integer";
}

void
FieldReader::operator()(const char *k, u64 &v)
{
    if (key != k)
        return;
    found = true;
    if (!parseU64(value, v))
        expected = "an unsigned integer";
}

void
FieldReader::operator()(const char *k, s64 &v)
{
    if (key != k)
        return;
    found = true;
    if (!parseS64(value, v))
        expected = "a signed integer";
}

void
FieldReader::operator()(const char *k, ValidationPolicy &v)
{
    if (key != k)
        return;
    found = true;
    readEnum(*this, v, allPolicies, equality::validationPolicyName);
}

void
FieldReader::operator()(const char *k, ConfidenceKind &v)
{
    if (key != k)
        return;
    found = true;
    readEnum(*this, v, allConfidenceKinds, equality::confidenceKindName);
}

bool
FieldReader::readList(unsigned *out, size_t n)
{
    expected = "a comma list of up to " + std::to_string(n) +
               " unsigned 32-bit integers";
    size_t count = 0;
    std::istringstream is(value);
    std::string item;
    while (std::getline(is, item, ',')) {
        if (count >= n || !parseU32(item, out[count]))
            return false;
        ++count;
    }
    if (count == 0)
        return false;
    expected.clear();
    return true;
}

std::string
FieldReader::diagnostic(const std::string &scope,
                        const std::string &field) const
{
    if (!found)
        return "unknown key '" + key + "' " + scope;
    if (!expected.empty())
        return "bad value '" + value + "' for " + field + " (expected " +
               expected + ")";
    return {};
}

} // namespace rsep
