/**
 * @file
 * The one command-line grammar of every driver and tool: each binary
 * declares a table of Options, and parse() matches argv against it
 * while printOptions() renders the same table as the --help option
 * list, so a flag's spelling, value and help text live in one place.
 *
 * Grammar: `--name VALUE`, `--name=VALUE`, `-xVALUE` and `-x VALUE`
 * for value options (x = the option's short name); `--name` and `-x`
 * for switches; anything else not starting with '-' (and a lone "-")
 * is positional. A dangling or empty value, a value given to a switch
 * and an unknown flag are diagnostics. `--help`/`-h` stops parsing.
 */

#ifndef RSEP_COMMON_CLI_HH
#define RSEP_COMMON_CLI_HH

#include <functional>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"

namespace rsep::cli
{

/** Consume an option's value ("" for a switch). Returns a diagnostic,
 *  or an empty string on success. */
using Apply = std::function<std::string(const std::string &value)>;

/** One flag of a binary's option table. */
struct Option
{
    const char *name;    ///< long spelling without the leading "--".
    const char *metavar; ///< value placeholder for --help; null = switch.
    const char *help;    ///< one paragraph; printOptions wraps it.
    Apply apply;
    char shortName = 0; ///< `-x` spelling; 0 = none.
};

/** What parse() left over after applying every matched option. */
struct Parsed
{
    std::vector<std::string> positional;
    bool help = false;  ///< --help/-h seen; parsing stopped there.
    std::string error;  ///< usage diagnostic; empty on success.

    bool ok() const { return error.empty(); }
};

/**
 * Match argv[1..argc) against @p options in order, calling each
 * matched option's apply. Stops at the first diagnostic (an apply
 * failure is reported as "--name: <diagnostic>") or at --help/-h.
 */
Parsed parse(int argc, char **argv, const std::vector<Option> &options);

/**
 * Print @p options as an aligned, word-wrapped --help list, followed
 * by the `--help, -h` line unless @p help_line is false.
 */
void printOptions(std::ostream &os, const std::vector<Option> &options,
                  bool help_line = true);

/** Apply that stores the value in @p field. */
Apply store(std::string &field);
/** Apply of a switch: sets @p field to true. */
Apply store(bool &field);
/** Apply that stores a parseCount value in [@p lo, @p hi]. */
Apply storeCount(u64 &field, u64 lo = 0,
                 u64 hi = std::numeric_limits<u64>::max());

/** Split a NAME[,NAME...] list, dropping empty items. */
std::vector<std::string> splitList(const std::string &s);

/**
 * Strictly parse an unsigned count in [@p lo, @p hi] (parseU64: no
 * sign, no trailing garbage). Returns a diagnostic, or an empty string
 * with the value in @p out.
 */
std::string parseCount(const std::string &s, u64 &out, u64 lo = 0,
                       u64 hi = std::numeric_limits<u64>::max());

} // namespace rsep::cli

#endif // RSEP_COMMON_CLI_HH
