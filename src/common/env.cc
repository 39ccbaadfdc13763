#include "common/env.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/logging.hh"

namespace rsep
{

std::string
trimmed(const std::string &s)
{
    size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

bool
parseU64(const std::string &s, u64 &out)
{
    std::string t = trimmed(s);
    if (t.empty() || t[0] == '-')
        return false;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(t.c_str(), &end, 0);
    if (end == t.c_str() || *end != '\0' || errno == ERANGE)
        return false;
    out = v;
    return true;
}

bool
parseS64(const std::string &s, s64 &out)
{
    std::string t = trimmed(s);
    bool neg = !t.empty() && t.front() == '-';
    u64 mag = 0;
    if (!parseU64(neg ? t.substr(1) : t, mag))
        return false;
    if (neg) {
        if (mag > u64{1} << 63)
            return false;
        out = -static_cast<s64>(mag);
    } else {
        if (mag > static_cast<u64>(std::numeric_limits<s64>::max()))
            return false;
        out = static_cast<s64>(mag);
    }
    return true;
}

bool
parseScaledU64(const std::string &s, u64 &out)
{
    std::string t = trimmed(s);
    u64 scale = 1;
    if (!t.empty()) {
        switch (t.back()) {
          case 'k':
          case 'K':
            scale = 1000;
            break;
          case 'm':
          case 'M':
            scale = 1000 * 1000;
            break;
          case 'g':
          case 'G':
            scale = 1000ull * 1000 * 1000;
            break;
          default:
            break;
        }
        if (scale != 1)
            t.pop_back();
    }
    u64 mag = 0;
    if (!parseU64(t, mag))
        return false;
    if (scale != 1 && mag > std::numeric_limits<u64>::max() / scale)
        return false; // overflow.
    out = mag * scale;
    return true;
}

bool
parseDouble(const std::string &s, double &out)
{
    std::string t = trimmed(s);
    if (t.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(t.c_str(), &end);
    if (end == t.c_str() || *end != '\0' || errno == ERANGE)
        return false;
    out = v;
    return true;
}

bool
parseBool(const std::string &s, bool &out)
{
    std::string t = trimmed(s);
    for (char &c : t)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    if (t == "true" || t == "yes" || t == "on" || t == "1") {
        out = true;
        return true;
    }
    if (t == "false" || t == "no" || t == "off" || t == "0") {
        out = false;
        return true;
    }
    return false;
}

bool
envSet(const char *name)
{
    const char *v = std::getenv(name);
    return v && *v;
}

u64
envU64(const char *name, u64 def, u64 lo, u64 hi)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return def;
    u64 out = 0;
    if (!parseU64(v, out)) {
        rsep_warn("%s='%s' is not a valid unsigned integer; using %llu",
                  name, v, static_cast<unsigned long long>(def));
        return def;
    }
    if (out < lo || out > hi) {
        rsep_warn("%s='%s' is outside [%llu, %llu]; using %llu", name, v,
                  static_cast<unsigned long long>(lo),
                  static_cast<unsigned long long>(hi),
                  static_cast<unsigned long long>(def));
        return def;
    }
    return out;
}

double
envDouble(const char *name, double def)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return def;
    double out = 0.0;
    if (!parseDouble(v, out)) {
        rsep_warn("%s='%s' is not a valid number; using %g", name, v, def);
        return def;
    }
    return out;
}

double
simScale()
{
    double scale = envDouble("RSEP_SIM_SCALE", 1.0);
    if (std::isfinite(scale) && scale > 0.0)
        return scale;
    rsep_warn("RSEP_SIM_SCALE='%s' is not a positive finite number; "
              "using 1",
              std::getenv("RSEP_SIM_SCALE"));
    return 1.0;
}

} // namespace rsep
