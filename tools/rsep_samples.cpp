/// @file
/// rsep_samples — inspect, dump, merge and summarize `.rts` time-series
/// sample files (the per-cell phase-behaviour timelines the drivers
/// write with `--sample-every`; see sim/sample_io.hh).
///
///     rsep_samples info samples/*.rts
///     rsep_samples dump --limit 40 samples/mcf-*.rts
///     rsep_samples merge --csv all.csv shard0/*.rts shard1/*.rts
///     rsep_samples summarize samples/*.rts
///     rsep_samples diff samples/mcf-A-p0.rts samples/mcf-B-p0.rts
///
/// `merge` pools many cells' series into one canonically-sorted CSV
/// (same row grammar as `dump`), erroring on a duplicate cell
/// identity — the sample-side analogue of rsep_merge over sharded stat
/// dumps. `summarize` reduces each timeline to its
/// phase-behaviour headline: mean vs peak window IPC and the number of
/// abrupt phase changes, plus per-scenario geometric means. `diff`
/// aligns two cells' timelines on their shared cycle axis and reports
/// where the runs diverge: the first divergence cycle, each contiguous
/// divergence window, and the maximum per-field delta — the tool for
/// "same benchmark, two arms: when does behaviour split?" and for
/// pinning down exactly where a replayed or served run stopped matching
/// its reference.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/stats.hh"
#include "sim/sample_io.hh"

namespace
{

using namespace rsep;

void
printHelp(const std::vector<cli::Option> &options)
{
    std::printf(
        "usage: rsep_samples COMMAND [options] FILE [FILE ...]\n"
        "Inspect, dump, merge and summarize .rts time-series sample\n"
        "files (--sample-every on the bench drivers).\n"
        "\ncommands:\n"
        "  info             print each series' header summary (verifies\n"
        "                   the payload checksum)\n"
        "  dump             print rows as CSV (identity columns + one\n"
        "                   column per sample field)\n"
        "  merge            pool many cells' series into one\n"
        "                   canonically-sorted CSV (--csv, required);\n"
        "                   duplicate cell identities are an error\n"
        "  summarize        per-cell phase-behaviour headline (mean/peak\n"
        "                   window IPC, phase changes) and per-scenario\n"
        "                   gmean rows\n"
        "  diff             align exactly two series on their shared\n"
        "                   cycle axis and report where they diverge:\n"
        "                   first divergence cycle, contiguous divergence\n"
        "                   windows, max delta per field. The periods\n"
        "                   must match (different periods cannot align).\n"
        "                   Exit 0 = identical, 1 = divergent\n"
        "\noptions:\n");
    cli::printOptions(std::cout, options);
}

int
usageError(const std::string &msg)
{
    std::fprintf(stderr, "rsep_samples: %s (try --help)\n", msg.c_str());
    return 2;
}

/** Per-window IPC series of one cell: committed-inst delta over cycle
 *  delta per sample row (the final row is usually a partial window). */
std::vector<double>
windowIpcs(const std::vector<core::StatSample> &rows)
{
    std::vector<double> out;
    out.reserve(rows.size());
    u64 prev_cycle = 0;
    for (const core::StatSample &r : rows) {
        u64 cycles = r.cycle - prev_cycle;
        out.push_back(cycles ? static_cast<double>(r.committedInsts) /
                                   static_cast<double>(cycles)
                             : 0.0);
        prev_cycle = r.cycle;
    }
    return out;
}

/** Abrupt phase changes: adjacent full windows whose IPC moved by more
 *  than 25% of the earlier window's level. */
size_t
phaseChanges(const std::vector<double> &ipcs)
{
    constexpr double threshold = 0.25;
    size_t changes = 0;
    for (size_t i = 1; i < ipcs.size(); ++i) {
        double base = ipcs[i - 1];
        double rel = base > 0.0 ? std::fabs(ipcs[i] - base) / base
                    : ipcs[i] > 0.0 ? 1.0
                                    : 0.0;
        if (rel > threshold)
            ++changes;
    }
    return changes;
}

int
cmdInfo(const std::vector<std::string> &files)
{
    bool ok = true;
    for (const std::string &path : files) {
        sim::SamplesParse p = sim::parseSamplesFile(path);
        if (!p.ok()) {
            std::fprintf(stderr, "rsep_samples: %s\n", p.error.c_str());
            ok = false;
            continue;
        }
        std::printf("%s:\n", path.c_str());
        std::printf("  version      %u\n", core::sampleSchemaVersion);
        std::printf("  workload     %s\n", p.header.workload.c_str());
        std::printf("  scenario     %s\n", p.header.scenario.c_str());
        std::printf("  config_hash  %s\n", p.header.configHash.c_str());
        std::printf("  phase        %u\n", p.header.phase);
        std::printf("  period       %llu\n",
                    static_cast<unsigned long long>(p.header.period));
        std::printf("  rows         %zu\n", p.rows.size());
        std::printf("  fields       %zu\n", core::sampleFieldCount());
        if (!p.rows.empty())
            std::printf("  last_cycle   %llu\n",
                        static_cast<unsigned long long>(
                            p.rows.back().cycle));
    }
    return ok ? 0 : 1;
}

int
cmdDump(const std::vector<std::string> &files, u64 limit)
{
    bool ok = true;
    bool header_done = false;
    for (const std::string &path : files) {
        sim::SamplesParse p = sim::parseSamplesFile(path);
        if (!p.ok()) {
            std::fprintf(stderr, "rsep_samples: %s\n", p.error.c_str());
            ok = false;
            continue;
        }
        std::vector<core::StatSample> rows = std::move(p.rows);
        if (limit && rows.size() > limit)
            rows.resize(limit);
        sim::writeSamplesCsv(std::cout, p.header, rows, !header_done);
        header_done = true;
    }
    return ok ? 0 : 1;
}

int
cmdMerge(const std::vector<std::string> &files, const std::string &csv_path)
{
    // Load everything first: duplicate-cell validation needs the full
    // set, and the canonical sort ignores argv order.
    std::vector<std::pair<sim::SampleSeriesHeader,
                          std::vector<core::StatSample>>>
        series;
    std::map<std::string, std::string> seen; // cell key -> origin path.
    for (const std::string &path : files) {
        sim::SamplesParse p = sim::parseSamplesFile(path);
        if (!p.ok()) {
            std::fprintf(stderr, "rsep_samples: %s\n", p.error.c_str());
            return 1;
        }
        std::string key = p.header.workload + "\x1f" +
                          p.header.configHash + "\x1f" +
                          std::to_string(p.header.phase);
        auto [it, inserted] = seen.emplace(key, path);
        if (!inserted) {
            std::fprintf(stderr,
                         "rsep_samples: duplicate cell (%s, %s, phase "
                         "%u) in %s and %s — shard outputs must be "
                         "disjoint\n",
                         p.header.workload.c_str(),
                         p.header.configHash.c_str(), p.header.phase,
                         it->second.c_str(), path.c_str());
            return 1;
        }
        series.emplace_back(std::move(p.header), std::move(p.rows));
    }
    // Canonical order, mirroring canonicalizeStatRows: a sharded
    // record-then-merge produces the same CSV as one unsharded run.
    std::sort(series.begin(), series.end(),
              [](const auto &a, const auto &b) {
                  if (a.first.workload != b.first.workload)
                      return a.first.workload < b.first.workload;
                  if (a.first.scenario != b.first.scenario)
                      return a.first.scenario < b.first.scenario;
                  if (a.first.configHash != b.first.configHash)
                      return a.first.configHash < b.first.configHash;
                  return a.first.phase < b.first.phase;
              });
    std::ofstream os(csv_path, std::ios::trunc);
    if (!os) {
        std::fprintf(stderr, "rsep_samples: %s: cannot open for writing\n",
                     csv_path.c_str());
        return 1;
    }
    bool header_done = false;
    size_t total_rows = 0;
    for (const auto &[header, rows] : series) {
        sim::writeSamplesCsv(os, header, rows, !header_done);
        header_done = true;
        total_rows += rows.size();
    }
    os.flush();
    if (!os) {
        std::fprintf(stderr, "rsep_samples: %s: write failed\n",
                     csv_path.c_str());
        return 1;
    }
    std::fprintf(stderr, "[merge] wrote %s (%zu series, %zu rows)\n",
                 csv_path.c_str(), series.size(), total_rows);
    return 0;
}

int
cmdSummarize(const std::vector<std::string> &files)
{
    bool ok = true;
    // Scenario -> per-cell mean IPCs, for the gmean rows.
    std::map<std::string, std::vector<double>> by_scenario;
    std::printf("%-14s %-20s %-7s %6s %9s %9s %10s %8s\n", "benchmark",
                "scenario", "phase", "rows", "mean_ipc", "peak_ipc",
                "peak/mean", "changes");
    for (const std::string &path : files) {
        sim::SamplesParse p = sim::parseSamplesFile(path);
        if (!p.ok()) {
            std::fprintf(stderr, "rsep_samples: %s\n", p.error.c_str());
            ok = false;
            continue;
        }
        if (p.rows.empty())
            continue;
        std::vector<double> ipcs = windowIpcs(p.rows);
        u64 total_insts = 0;
        for (const core::StatSample &r : p.rows)
            total_insts += r.committedInsts;
        u64 total_cycles = p.rows.back().cycle;
        double mean = total_cycles
                          ? static_cast<double>(total_insts) /
                                static_cast<double>(total_cycles)
                          : 0.0;
        double peak = *std::max_element(ipcs.begin(), ipcs.end());
        std::printf("%-14s %-20s p%-6u %6zu %9.3f %9.3f %10.2f %8zu\n",
                    p.header.workload.c_str(), p.header.scenario.c_str(),
                    p.header.phase, p.rows.size(), mean, peak,
                    mean > 0.0 ? peak / mean : 0.0, phaseChanges(ipcs));
        if (mean > 0.0)
            by_scenario[p.header.scenario].push_back(mean);
    }
    if (!by_scenario.empty()) {
        std::printf("\nper-scenario gmean of cell mean IPCs:\n");
        for (const auto &[scenario, means] : by_scenario)
            std::printf("  %-20s cells=%-4zu gmean_ipc=%.3f\n",
                        scenario.c_str(), means.size(),
                        geometricMean(means));
    }
    return ok ? 0 : 1;
}

/** Flatten one sample row into schema-order field values. */
std::vector<u64>
fieldValues(const core::StatSample &row)
{
    std::vector<u64> vals;
    vals.reserve(core::sampleFieldCount());
    core::StatSample copy = row;
    core::visitSampleFields(
        copy,
        [&](const char *, u64 &f, core::SampleFieldKind) {
            vals.push_back(f);
        });
    return vals;
}

/** Schema-order field names (mirrors fieldValues). */
std::vector<std::string>
fieldNames()
{
    std::vector<std::string> names;
    core::StatSample s;
    core::visitSampleFields(
        s, [&](const char *name, u64 &, core::SampleFieldKind) {
            names.emplace_back(name);
        });
    return names;
}

int
cmdDiff(const std::vector<std::string> &files, u64 limit)
{
    if (files.size() != 2) {
        std::fprintf(stderr,
                     "rsep_samples: diff takes exactly two files (got "
                     "%zu); try --help\n",
                     files.size());
        return 2;
    }
    sim::SamplesParse a = sim::parseSamplesFile(files[0]);
    sim::SamplesParse b = sim::parseSamplesFile(files[1]);
    for (const sim::SamplesParse *p : {&a, &b})
        if (!p->ok()) {
            std::fprintf(stderr, "rsep_samples: %s\n", p->error.c_str());
            return 2;
        }
    if (a.header.period != b.header.period) {
        std::fprintf(stderr,
                     "rsep_samples: diff: sample periods differ (%llu "
                     "vs %llu cycles) — timelines on different axes "
                     "cannot be aligned; re-sample one side\n",
                     static_cast<unsigned long long>(a.header.period),
                     static_cast<unsigned long long>(b.header.period));
        return 2;
    }

    auto cell_id = [](const sim::SamplesParse &p,
                      const std::string &path) {
        return p.header.workload + " / " + p.header.scenario +
               " (hash " + p.header.configHash + ", phase " +
               std::to_string(p.header.phase) + ")  [" + path + "]";
    };
    std::printf("A: %s\n", cell_id(a, files[0]).c_str());
    std::printf("B: %s\n", cell_id(b, files[1]).c_str());
    std::printf("period: %llu cycles; rows: %zu vs %zu\n",
                static_cast<unsigned long long>(a.header.period),
                a.rows.size(), b.rows.size());

    // The shared axis: both series sample at cycle k*period (plus one
    // final partial row), so row i of A and row i of B describe the
    // same window as long as both exist.
    size_t shared = std::min(a.rows.size(), b.rows.size());
    const std::vector<std::string> names = fieldNames();
    std::vector<u64> max_delta(names.size(), 0);
    std::vector<u64> max_delta_cycle(names.size(), 0);
    std::vector<bool> divergent(shared, false);
    size_t divergent_rows = 0;
    bool first_seen = false;
    u64 first_cycle = 0;

    for (size_t i = 0; i < shared; ++i) {
        std::vector<u64> va = fieldValues(a.rows[i]);
        std::vector<u64> vb = fieldValues(b.rows[i]);
        bool row_diff = false;
        for (size_t f = 0; f < names.size(); ++f) {
            u64 delta = va[f] > vb[f] ? va[f] - vb[f] : vb[f] - va[f];
            if (delta == 0)
                continue;
            row_diff = true;
            if (delta > max_delta[f]) {
                max_delta[f] = delta;
                max_delta_cycle[f] = a.rows[i].cycle;
            }
        }
        if (row_diff) {
            divergent[i] = true;
            ++divergent_rows;
            if (!first_seen) {
                first_seen = true;
                first_cycle = a.rows[i].cycle;
            }
        }
    }

    bool tails_differ = a.rows.size() != b.rows.size();
    if (!first_seen && !tails_differ) {
        std::printf("identical: %zu rows match across the full shared "
                    "axis\n",
                    shared);
        return 0;
    }

    if (first_seen) {
        std::printf("\nfirst divergence: cycle %llu (row %zu of the "
                    "shared axis)\n",
                    static_cast<unsigned long long>(first_cycle),
                    static_cast<size_t>(
                        std::find(divergent.begin(), divergent.end(),
                                  true) -
                        divergent.begin()));
        // Contiguous divergence windows over the shared axis.
        std::printf("divergence windows (%zu of %zu shared rows "
                    "diverge):\n",
                    divergent_rows, shared);
        size_t printed = 0;
        for (size_t i = 0; i < shared;) {
            if (!divergent[i]) {
                ++i;
                continue;
            }
            size_t j = i;
            while (j + 1 < shared && divergent[j + 1])
                ++j;
            if (limit == 0 || printed < limit)
                std::printf("  cycles %llu..%llu  (%zu row%s)\n",
                            static_cast<unsigned long long>(
                                a.rows[i].cycle),
                            static_cast<unsigned long long>(
                                a.rows[j].cycle),
                            j - i + 1, j == i ? "" : "s");
            ++printed;
            i = j + 1;
        }
        if (limit != 0 && printed > limit)
            std::printf("  ... %zu further window%s suppressed "
                        "(--limit %llu)\n",
                        printed - limit, printed - limit == 1 ? "" : "s",
                        static_cast<unsigned long long>(limit));
        std::printf("\nmax delta per field (differing fields only):\n");
        std::printf("  %-28s %14s %14s\n", "field", "max_delta",
                    "at_cycle");
        for (size_t f = 0; f < names.size(); ++f)
            if (max_delta[f] > 0)
                std::printf("  %-28s %14llu %14llu\n", names[f].c_str(),
                            static_cast<unsigned long long>(max_delta[f]),
                            static_cast<unsigned long long>(
                                max_delta_cycle[f]));
    }
    if (tails_differ) {
        const char *longer = a.rows.size() > b.rows.size() ? "A" : "B";
        size_t extra = std::max(a.rows.size(), b.rows.size()) - shared;
        std::printf("\ntail: %s has %zu row%s past the shared axis "
                    "(timelines end at cycle %llu vs %llu)\n",
                    longer, extra, extra == 1 ? "" : "s",
                    static_cast<unsigned long long>(
                        a.rows.empty() ? 0 : a.rows.back().cycle),
                    static_cast<unsigned long long>(
                        b.rows.empty() ? 0 : b.rows.back().cycle));
    }
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string csv_path;
    u64 limit = 0;

    std::vector<cli::Option> options = {
        {"limit", "N",
         "dump: stop after N rows per file (0 = all, the default); diff: "
         "print at most N divergence windows",
         cli::storeCount(limit)},
        {"csv", "PATH", "merge: output path for the pooled CSV",
         cli::store(csv_path)},
    };
    cli::Parsed args = cli::parse(argc, argv, options);
    if (!args.ok())
        return usageError(args.error);
    if (args.help) {
        printHelp(options);
        return 0;
    }
    std::string command;
    std::vector<std::string> files = std::move(args.positional);
    if (!files.empty()) {
        command = files.front();
        files.erase(files.begin());
    }

    if (command.empty())
        return usageError("no command given (info, dump, merge, "
                          "summarize or diff)");
    if (files.empty())
        return usageError("no sample files given");

    if (command == "info")
        return cmdInfo(files);
    if (command == "dump")
        return cmdDump(files, limit);
    if (command == "merge") {
        if (csv_path.empty())
            return usageError("merge requires --csv OUT");
        return cmdMerge(files, csv_path);
    }
    if (command == "summarize")
        return cmdSummarize(files);
    if (command == "diff")
        return cmdDiff(files, limit);
    return usageError("unknown command '" + command +
                      "' (expected info, dump, merge, summarize or "
                      "diff)");
}
