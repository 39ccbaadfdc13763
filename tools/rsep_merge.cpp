/**
 * @file
 * rsep_merge — reassemble sharded stat dumps into the unsharded table.
 *
 * Ingests the per-shard CSV dumps that `--shard i/N` driver processes
 * exported, validates that they tile the matrix (disjoint rows,
 * complete benchmark x scenario rectangle), and emits the merged
 * canonical dump plus the paper's figure summaries (per-benchmark
 * speedup bars and gmean rows). Merging the shards of a matrix yields
 * a dump byte-identical to the one an unsharded run writes.
 *
 *     rsep_merge --csv merged.csv shard0.csv shard1.csv shard2.csv
 *     rsep_merge --summary - --baseline baseline shard*.csv
 *
 * `--gc` switches to result-cache garbage collection: drop `--cache-dir`
 * records whose config hash no longer appears in the given scenario
 * set, clear quarantine debris, and optionally LRU-cap the cache size:
 *
 *     rsep_merge --gc --cache-dir cc --scenario-file sweep.scn
 *     rsep_merge --gc --cache-dir cc --scenario rsep,baseline \
 *                --max-bytes 500000000
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "sim/cache_gc.hh"
#include "sim/scenario.hh"
#include "sim/stat_merge.hh"
#include "wl/suite.hh"

namespace
{

void
printHelp(const std::vector<rsep::cli::Option> &merge_options,
          const std::vector<rsep::cli::Option> &gc_options)
{
    std::printf(
        "usage: rsep_merge [options] DUMP [DUMP ...]\n"
        "Merge per-shard CSV stat dumps (from the drivers' --csv\n"
        "--shard runs) into one canonical table.\n"
        "\noptions:\n");
    rsep::cli::printOptions(std::cout, merge_options);
    std::printf(
        "\nWith no output option, the merged CSV goes to stdout.\n"
        "Validation: duplicate (benchmark, scenario, config-hash) rows\n"
        "across inputs are always an error (shards must be disjoint).\n"
        "\ncache garbage collection (no DUMP inputs and none of the\n"
        "options above in this mode):\n");
    rsep::cli::printOptions(std::cout, gc_options, false);
    std::printf(
        "\nWithout --scenario/--scenario-file every record is considered\n"
        "live (only quarantine debris and --max-bytes apply). Records\n"
        "are matched by the <config-hash>-p<phase>-s<seed>.cell naming;\n"
        "other files are never touched.\n");
}

int
usageError(const std::string &msg)
{
    std::fprintf(stderr, "rsep_merge: %s (try --help)\n", msg.c_str());
    return 2;
}

/** Write the rows as CSV to @p path, with '-' meaning stdout. */
bool
writeOut(const std::string &path,
         const std::vector<rsep::sim::StatRow> &rows)
{
    if (path == "-") {
        rsep::sim::CsvStatSink{}.write(std::cout, rows);
        return static_cast<bool>(std::cout);
    }
    std::string err;
    if (!rsep::sim::writeStatsFile(path, rows, &err)) {
        std::fprintf(stderr, "rsep_merge: %s\n", err.c_str());
        return false;
    }
    std::fprintf(stderr, "[merge] wrote %s\n", path.c_str());
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace rsep::sim;
    namespace cli = rsep::cli;

    std::string csv_path, summary_path, baseline;
    bool allow_partial = false;
    std::vector<std::string> expect_benchmarks;

    bool gc = false, gc_dry_run = false;
    std::optional<rsep::u64> gc_seed;
    rsep::u64 gc_max_bytes = 0;
    std::string gc_cache_dir;
    std::vector<std::string> gc_scenarios, gc_scenario_files;

    std::vector<cli::Option> merge_options = {
        {"csv", "PATH", "write the merged table as CSV ('-' = stdout)",
         cli::store(csv_path)},
        {"summary", "PATH",
         "write the figure summary: per-benchmark speedup bars + gmean "
         "rows ('-' = stdout)",
         cli::store(summary_path)},
        {"baseline", "NAME",
         "baseline scenario for the summary speedups (default: "
         "'baseline' when present, else the lexicographically first "
         "scenario)",
         cli::store(baseline)},
        {"expect-benchmarks", "NAME[,NAME...]",
         "the benchmark set the matrix must cover (repeatable; 'suite' = "
         "the built-in 29-bench paper suite). Without it, a benchmark or "
         "arm missing from EVERY input is undetectable.",
         [&](const std::string &v) -> std::string {
             std::vector<std::string> items = cli::splitList(v);
             if (items.empty())
                 return "no benchmark names in '" + v + "'";
             for (const std::string &item : items) {
                 if (item != "suite")
                     expect_benchmarks.push_back(item);
                 else
                     for (const std::string &b : rsep::wl::suiteNames())
                         expect_benchmarks.push_back(b);
             }
             return std::string();
         }},
        {"allow-partial", nullptr,
         "tolerate an incomplete benchmark x scenario matrix (missing "
         "cells warn instead of fail)",
         cli::store(allow_partial)},
    };
    std::vector<cli::Option> gc_options = {
        {"gc", nullptr, "collect a result cache instead of merging",
         cli::store(gc)},
        {"cache-dir", "PATH", "the cache directory to collect (required)",
         cli::store(gc_cache_dir)},
        {"scenario", "NAME[,NAME...]",
         "registered scenarios whose records stay live (repeatable)",
         [&](const std::string &v) -> std::string {
             std::vector<std::string> names = cli::splitList(v);
             if (names.empty())
                 return "no scenario names in '" + v + "'";
             for (const std::string &name : names)
                 gc_scenarios.push_back(name);
             return {};
         }},
        {"scenario-file", "PATH",
         "scenario file whose arms' records stay live (repeatable)",
         [&](const std::string &v) {
             gc_scenario_files.push_back(v);
             return std::string();
         }},
        {"seed", "N",
         "hash the live scenarios under this [sim] seed too (mirror of "
         "the drivers' --seed)",
         [&](const std::string &v) {
             rsep::u64 seed = 0;
             std::string err = cli::parseCount(v, seed);
             gc_seed = seed;
             return err;
         }},
        {"max-bytes", "N",
         "after dropping stale records, evict the oldest surviving "
         "records (LRU by mtime) until the cache fits N bytes",
         cli::storeCount(gc_max_bytes, 1)},
        {"dry-run", nullptr,
         "report what would be removed; remove nothing",
         cli::store(gc_dry_run)},
    };
    std::vector<cli::Option> options = merge_options;
    options.insert(options.end(), gc_options.begin(), gc_options.end());

    cli::Parsed args = cli::parse(argc, argv, options);
    if (!args.ok())
        return usageError(args.error);
    if (args.help) {
        printHelp(merge_options, gc_options);
        return 0;
    }
    const std::vector<std::string> &inputs = args.positional;

    if (!gc && (!gc_cache_dir.empty() || !gc_scenarios.empty() ||
                !gc_scenario_files.empty() || gc_max_bytes > 0 ||
                gc_dry_run || gc_seed))
        return usageError("--cache-dir/--scenario/--scenario-file/--seed/"
                          "--max-bytes/--dry-run require --gc");
    if (gc && (!csv_path.empty() || !summary_path.empty() ||
               !baseline.empty() || !expect_benchmarks.empty() ||
               allow_partial))
        return usageError("--csv/--summary/--baseline/--expect-benchmarks/"
                          "--allow-partial do not apply with --gc");
    if (!baseline.empty() && summary_path.empty())
        return usageError("--baseline requires --summary");

    if (gc) {
        if (!inputs.empty())
            return usageError("unexpected DUMP input '" + inputs.front() +
                              "' in --gc mode");
        if (gc_cache_dir.empty())
            return usageError("--gc requires --cache-dir");

        std::set<std::string> live;
        auto addConfig = [&](SimConfig cfg) {
            // A --seed sweep runs beside the default-seed records: keep
            // both hashes alive (--seed is additive, as the help says).
            live.insert(configHash(cfg));
            if (gc_seed) {
                cfg.seed = *gc_seed;
                live.insert(configHash(cfg));
            }
        };
        for (const std::string &name : gc_scenarios) {
            auto sc = findScenario(name);
            if (!sc)
                return usageError("unknown scenario '" + name +
                                  "' (see the drivers' --list-scenarios)");
            addConfig(sc->config);
        }
        for (const std::string &path : gc_scenario_files) {
            ScenarioParse parsed = parseScenarioFile(path);
            if (!parsed.ok()) {
                std::fprintf(stderr, "rsep_merge: %s\n",
                             parsed.error.c_str());
                return 1;
            }
            for (const Scenario &sc : parsed.scenarios)
                addConfig(sc.config);
        }
        if (live.empty() && gc_max_bytes == 0)
            std::fprintf(stderr,
                         "rsep_merge: note: no scenario set and no "
                         "--max-bytes; only quarantine debris will be "
                         "collected\n");

        GcOptions opts;
        opts.cacheDir = gc_cache_dir;
        opts.liveHashes = std::move(live);
        opts.maxBytes = gc_max_bytes;
        opts.dryRun = gc_dry_run;
        GcReport report;
        std::string err = runCacheGc(opts, report);
        if (!err.empty()) {
            std::fprintf(stderr, "rsep_merge: %s\n", err.c_str());
            return 1;
        }
        std::fprintf(
            stderr,
            "[gc]%s %llu record(s) scanned (%llu bytes): %llu stale + "
            "%llu corrupt + %llu LRU removed (%llu bytes); %llu "
            "record(s) kept (%llu bytes)\n",
            opts.dryRun ? " (dry run)" : "",
            static_cast<unsigned long long>(report.scannedFiles),
            static_cast<unsigned long long>(report.scannedBytes),
            static_cast<unsigned long long>(report.staleRemoved),
            static_cast<unsigned long long>(report.corruptRemoved),
            static_cast<unsigned long long>(report.lruRemoved),
            static_cast<unsigned long long>(report.removedBytes),
            static_cast<unsigned long long>(report.keptFiles),
            static_cast<unsigned long long>(report.keptBytes));
        return 0;
    }

    if (inputs.empty())
        return usageError("no input dumps given");

    std::vector<std::vector<StatRow>> parsed;
    size_t total_rows = 0;
    for (const std::string &path : inputs) {
        DumpParse p = parseDumpFile(path);
        if (!p.ok()) {
            std::fprintf(stderr, "rsep_merge: %s\n", p.error.c_str());
            return 1;
        }
        total_rows += p.rows.size();
        parsed.push_back(std::move(p.rows));
    }

    std::vector<StatRow> merged;
    std::string err = mergeStatRows(parsed, inputs, merged);
    if (!err.empty()) {
        std::fprintf(stderr, "rsep_merge: %s\n", err.c_str());
        return 1;
    }

    // Unknown timing.* keys merge fine (counters are opaque here) but
    // mean the dump came from a build with a different timing schema —
    // say so instead of passing them through silently.
    for (const std::string &name : unknownTimingCounters(merged))
        std::fprintf(stderr,
                     "rsep_merge: warning: unknown timing counter '%s' "
                     "(produced by a build with a different RunTiming "
                     "schema; merged as-is)\n",
                     name.c_str());

    std::string holes = checkCompleteness(merged, expect_benchmarks);
    if (!holes.empty()) {
        std::fprintf(stderr, "rsep_merge: %s%s\n",
                     allow_partial ? "warning: " : "", holes.c_str());
        if (!allow_partial)
            return 1;
    }

    // Heuristic guard for the forgotten-shard case the rectangle check
    // cannot see: without --expect-benchmarks, a benchmark missing
    // from EVERY input leaves no hole. If the merged set is a strict
    // subset of the built-in paper suite, say so.
    if (expect_benchmarks.empty() && holes.empty()) {
        std::set<std::string> present;
        for (const StatRow &r : merged)
            present.insert(r.benchmark);
        std::vector<std::string> suite = rsep::wl::suiteNames();
        std::set<std::string> suite_set(suite.begin(), suite.end());
        bool all_from_suite = true;
        for (const std::string &b : present)
            all_from_suite = all_from_suite && suite_set.count(b);
        if (all_from_suite && !present.empty() &&
            present.size() < suite_set.size())
            std::fprintf(stderr,
                         "rsep_merge: note: rows cover %zu of the %zu "
                         "paper-suite benchmarks; if this sweep meant "
                         "to run the full suite, a shard dump is "
                         "missing (pass --expect-benchmarks suite to "
                         "enforce)\n",
                         present.size(), suite_set.size());
    }

    std::fprintf(stderr,
                 "[merge] %zu input dump(s), %zu rows, %s matrix\n",
                 inputs.size(), total_rows,
                 holes.empty() ? "complete" : "PARTIAL");

    bool ok = true;
    if (!csv_path.empty())
        ok = writeOut(csv_path, merged) && ok;
    if (!summary_path.empty()) {
        std::string serr;
        if (summary_path == "-") {
            if (!writeFigureSummary(std::cout, merged, baseline, &serr)) {
                std::fprintf(stderr, "rsep_merge: %s\n", serr.c_str());
                ok = false;
            }
        } else {
            std::ofstream os(summary_path);
            if (!os ||
                !writeFigureSummary(os, merged, baseline, &serr) ||
                !(os.flush())) {
                std::fprintf(stderr, "rsep_merge: %s\n",
                             serr.empty()
                                 ? (summary_path + ": write failed").c_str()
                                 : serr.c_str());
                ok = false;
            } else {
                std::fprintf(stderr, "[merge] wrote %s\n",
                             summary_path.c_str());
            }
        }
    }
    if (csv_path.empty() && summary_path.empty())
        ok = writeOut("-", merged) && ok;
    return ok ? 0 : 1;
}
