/**
 * @file
 * The shared command-line grammar (common/cli.hh): both long
 * spellings, short options, switches, positionals, the diagnostics for
 * dangling/empty/unknown flags, look-alike names, --help, the strict
 * count parser, list splitting and the generated option list.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/cli.hh"

namespace rsep::cli
{
namespace
{

/** A small option table recording what it was given. Its callbacks
 *  hold `this`, so it is neither copied nor moved. */
struct Table
{
    std::string scenario, scenarioFile, connect, connectTimeout, jobs;
    bool stats = false;
    int applied = 0;
    std::vector<Option> options;

    Table()
    {
        auto set = [this](std::string &field) {
            return [this, &field](const std::string &v) {
                field = v;
                ++applied;
                return std::string();
            };
        };
        options = {
            {"scenario", "NAME", "arms", set(scenario)},
            {"scenario-file", "PATH", "arm file", set(scenarioFile)},
            {"connect", "SOCK", "daemon socket", set(connect)},
            {"connect-timeout", "MS", "connect retry window",
             set(connectTimeout)},
            {"jobs", "N", "worker threads", set(jobs), 'j'},
            {"stats", nullptr, "print counters",
             [this](const std::string &v) {
                 EXPECT_TRUE(v.empty());
                 stats = true;
                 ++applied;
                 return std::string();
             }},
        };
    }

    Table(const Table &) = delete;
    Table &operator=(const Table &) = delete;

    Parsed
    run(std::vector<const char *> args)
    {
        args.insert(args.begin(), "prog");
        return parse(static_cast<int>(args.size()),
                     const_cast<char **>(args.data()), options);
    }
};

TEST(Cli, LongSpellingsSwitchesAndPositionals)
{
    Table t;
    Parsed p = t.run({"--scenario", "rsep", "first", "--connect=a=b.sock",
                      "--stats", "second"});
    ASSERT_TRUE(p.ok()) << p.error;
    EXPECT_FALSE(p.help);
    EXPECT_EQ(t.scenario, "rsep");
    EXPECT_EQ(t.connect, "a=b.sock"); // only the first '=' splits.
    EXPECT_TRUE(t.stats);
    EXPECT_EQ(p.positional, (std::vector<std::string>{"first", "second"}));
}

TEST(Cli, ShortSpellings)
{
    Table t;
    ASSERT_TRUE(t.run({"-j4"}).ok());
    EXPECT_EQ(t.jobs, "4");
    Table u;
    Parsed p = u.run({"-j", "7", "rest"});
    ASSERT_TRUE(p.ok()) << p.error;
    EXPECT_EQ(u.jobs, "7");
    EXPECT_EQ(p.positional, std::vector<std::string>{"rest"});
    // A separate value is taken verbatim, even when it looks like a
    // flag; the option's own parser judges it.
    Table v;
    ASSERT_TRUE(v.run({"-j", "-1"}).ok());
    EXPECT_EQ(v.jobs, "-1");
}

TEST(Cli, DanglingAndEmptyValuesAreDiagnostics)
{
    for (std::vector<const char *> args :
         {std::vector<const char *>{"--scenario"},
          std::vector<const char *>{"--stats", "--jobs"},
          std::vector<const char *>{"-j"}}) {
        Table t;
        Parsed p = t.run(args);
        EXPECT_NE(p.error.find("requires a value"), std::string::npos)
            << args.back() << ": " << p.error;
    }
    for (std::vector<const char *> args :
         {std::vector<const char *>{"--scenario="},
          std::vector<const char *>{"--scenario", ""},
          std::vector<const char *>{"-j", ""}}) {
        Table t;
        Parsed p = t.run(args);
        EXPECT_NE(p.error.find("empty"), std::string::npos) << p.error;
        EXPECT_EQ(t.applied, 0);
    }
}

TEST(Cli, SwitchGivenAValueIsAnError)
{
    Table t;
    Parsed p = t.run({"--stats=1"});
    EXPECT_NE(p.error.find("--stats does not take a value"),
              std::string::npos)
        << p.error;
    EXPECT_FALSE(t.stats);
}

TEST(Cli, UnknownOptionsAreDiagnostics)
{
    for (const char *bad : {"--bogus", "--bogus=1", "-x", "-x3", "--"}) {
        Table t;
        Parsed p = t.run({bad});
        EXPECT_EQ(p.error, std::string("unknown option '") + bad + "'");
    }
    // Parsing stops at the first diagnostic.
    Table t;
    EXPECT_FALSE(t.run({"--bogus", "--scenario", "rsep"}).ok());
    EXPECT_EQ(t.applied, 0);
}

TEST(Cli, LookAlikeNamesDoNotMatch)
{
    Table t;
    ASSERT_TRUE(t.run({"--scenario-file", "f.scn", "--scenario=rsep",
                       "--connect-timeout=5", "--connect", "s.sock"})
                    .ok());
    EXPECT_EQ(t.scenarioFile, "f.scn");
    EXPECT_EQ(t.scenario, "rsep");
    EXPECT_EQ(t.connectTimeout, "5");
    EXPECT_EQ(t.connect, "s.sock");

    for (const char *near : {"--jobsx", "--jobsx=2", "--scenarios",
                             "--connect-time", "--scenario-files=x"}) {
        Table u;
        Parsed p = u.run({near, "1"});
        EXPECT_NE(p.error.find("unknown option"), std::string::npos)
            << near;
        EXPECT_EQ(u.applied, 0) << near;
    }
}

TEST(Cli, LoneDashIsPositional)
{
    Table t;
    Parsed p = t.run({"-", "--stats", "-"});
    ASSERT_TRUE(p.ok()) << p.error;
    EXPECT_EQ(p.positional, (std::vector<std::string>{"-", "-"}));
}

TEST(Cli, HelpStopsTheParse)
{
    for (const char *help : {"--help", "-h"}) {
        Table t;
        Parsed p = t.run({"--scenario", "rsep", help, "--bogus", "--stats"});
        EXPECT_TRUE(p.ok()) << p.error;
        EXPECT_TRUE(p.help);
        EXPECT_EQ(t.scenario, "rsep"); // flags before it were applied,
        EXPECT_FALSE(t.stats);         // flags after it were not.
    }
}

TEST(Cli, ApplyDiagnosticsNameTheOption)
{
    std::vector<Option> options = {
        {"limit", "N", "rows",
         [](const std::string &v) {
             u64 n = 0;
             return parseCount(v, n);
         }},
    };
    std::vector<const char *> argv = {"prog", "--limit=-3"};
    Parsed p = parse(2, const_cast<char **>(argv.data()), options);
    EXPECT_EQ(p.error.rfind("--limit: invalid count '-3'", 0), 0u)
        << p.error;
}

TEST(Cli, ParseCountIsStrictAndBounded)
{
    u64 out = 99;
    EXPECT_EQ(parseCount("5", out), "");
    EXPECT_EQ(out, 5u);
    EXPECT_EQ(parseCount("18446744073709551615", out), "");
    EXPECT_EQ(out, ~0ull);
    EXPECT_EQ(parseCount("0", out), "");
    EXPECT_EQ(out, 0u);

    // Negatives, garbage, empty and overflow never parse; out is kept.
    out = 7;
    for (const char *bad :
         {"-1", "-3", "5x", "x5", "", " ", "1.5", "18446744073709551616"}) {
        std::string err = parseCount(bad, out);
        EXPECT_NE(err.find("invalid count"), std::string::npos) << bad;
        EXPECT_NE(err.find("unsigned integer"), std::string::npos) << bad;
    }
    EXPECT_EQ(out, 7u);

    // Bounds are inclusive.
    EXPECT_NE(parseCount("0", out, 1).find(">= 1"), std::string::npos);
    EXPECT_EQ(parseCount("1", out, 1), "");
    EXPECT_EQ(parseCount("100", out, 0, 100), "");
    EXPECT_NE(parseCount("101", out, 0, 100).find("0..100"),
              std::string::npos);
    EXPECT_EQ(out, 100u);
}

TEST(Cli, StoreHelpers)
{
    std::string path;
    bool on = false;
    u64 limit = 0;
    std::vector<Option> options = {
        {"out", "PATH", "output", store(path)},
        {"on", nullptr, "switch", store(on)},
        {"limit", "N", "count >= 1", storeCount(limit, 1)},
    };
    std::vector<const char *> argv = {"prog", "--out=x.csv", "--on",
                                      "--limit", "4"};
    Parsed p = parse(5, const_cast<char **>(argv.data()), options);
    ASSERT_TRUE(p.ok()) << p.error;
    EXPECT_EQ(path, "x.csv");
    EXPECT_TRUE(on);
    EXPECT_EQ(limit, 4u);

    argv = {"prog", "--limit=0"};
    p = parse(2, const_cast<char **>(argv.data()), options);
    EXPECT_NE(p.error.find("--limit: invalid count '0'"), std::string::npos)
        << p.error;
    EXPECT_EQ(limit, 4u);
}

TEST(Cli, SplitListDropsEmptyItems)
{
    EXPECT_EQ(splitList("a,,b,"), (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(splitList(",rsep"), std::vector<std::string>{"rsep"});
    EXPECT_TRUE(splitList("").empty());
    EXPECT_TRUE(splitList(",,").empty());
}

TEST(Cli, PrintOptionsRendersTheTable)
{
    Table t;
    t.options.push_back(
        {"a-very-long-option-name", "METAVAR",
         "a help text long enough that it has to wrap onto a second line "
         "of the option list, aligned under the first",
         [](const std::string &) { return std::string(); }});
    std::ostringstream os;
    printOptions(os, t.options);
    std::string out = os.str();
    EXPECT_NE(out.find("  --jobs N, -jN"), std::string::npos) << out;
    EXPECT_NE(out.find("  --stats "), std::string::npos) << out;
    EXPECT_NE(out.find("  --help, -h"), std::string::npos) << out;
    // A label too wide for the flag column puts its help on the next
    // line; every line stays within 78 columns, help aligned at 29.
    EXPECT_NE(out.find("  --a-very-long-option-name METAVAR\n" +
                       std::string(29, ' ') + "a help text"),
              std::string::npos)
        << out;
    std::istringstream lines(out);
    std::string line;
    while (std::getline(lines, line))
        EXPECT_LE(line.size(), 78u) << line;

    std::ostringstream bare;
    printOptions(bare, t.options, false);
    EXPECT_EQ(bare.str().find("--help"), std::string::npos);
}

} // namespace
} // namespace rsep::cli
