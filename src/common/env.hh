/**
 * @file
 * Environment-variable helpers for scaling experiment sizes, plus the
 * strict scalar parsers shared by the env layer, the command-line
 * grammar (common/cli.hh) and the scenario-file parser.
 */

#ifndef RSEP_COMMON_ENV_HH
#define RSEP_COMMON_ENV_HH

#include <string>

#include "common/types.hh"

namespace rsep
{

/** Copy of @p s without leading/trailing ASCII whitespace. */
std::string trimmed(const std::string &s);

// ------------------------------------------------- strict scalar parses
// Full-string parses: leading/trailing whitespace is tolerated, any
// other trailing garbage (or an empty string, or a negative value for
// the unsigned parse) fails.

bool parseU64(const std::string &s, u64 &out);
/** Signed variant: an optional leading '-' then the parseU64 grammar. */
bool parseS64(const std::string &s, s64 &out);
/** parseU64 plus an optional k/M/G suffix (decimal powers of 1000:
 *  "10k" = 10000) for cycle-count flags like `--sample-every`. */
bool parseScaledU64(const std::string &s, u64 &out);
bool parseDouble(const std::string &s, double &out);
/** Accepts true/false, yes/no, on/off, 1/0 (case-insensitive). */
bool parseBool(const std::string &s, bool &out);

// --------------------------------------------------------- env accessors

/** True when @p name is set to a non-empty value. */
bool envSet(const char *name);

/**
 * Read an integer env var; return @p def when unset. A set-but-
 * malformed value (non-numeric, trailing garbage, negative, overflow)
 * or one outside [@p lo, @p hi] warns once on stderr and returns @p def
 * instead of being silently ignored or truncated.
 */
u64 envU64(const char *name, u64 def, u64 lo = 0, u64 hi = ~u64{0});

/** Read a floating-point env var; same malformed-value policy. */
double envDouble(const char *name, double def);

/**
 * Global simulation scale factor (RSEP_SIM_SCALE, default 1.0; a
 * malformed, non-finite or non-positive value warns and gives 1.0).
 * SimConfig::applyEnv multiplies the warmup/measure windows by this;
 * nothing else scales a run.
 */
double simScale();

} // namespace rsep

#endif // RSEP_COMMON_ENV_HH
