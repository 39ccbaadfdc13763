#include "sim/stat_merge.hh"

#include <algorithm>
#include <cstdio>
#include <iomanip>
#include <map>
#include <set>

#include "common/env.hh"
#include "common/envelope.hh"
#include "common/stats.hh"

namespace rsep::sim
{

namespace
{

// ------------------------------------------------------------ CSV parse

/**
 * Split a whole CSV text into records of fields, honouring RFC-4180
 * quoting (embedded commas, doubled quotes, embedded newlines).
 * Quoting is not preserved in the output: an empty cell parses to an
 * empty string whether quoted or not, and parseCsvDump reads every
 * empty counter cell as "this row does not carry the counter" (the
 * sinks never emit quoted empties). A quoting error names its 1-based
 * line and field ("line 7, field 3: ..."); an unterminated quote names
 * where the quoted field opened.
 */
bool
splitCsv(const std::string &text,
         std::vector<std::vector<std::string>> &records, std::string &err)
{
    std::vector<std::string> fields;
    std::string cur;
    bool in_quotes = false, was_quoted = false, any = false;
    size_t line = 1, quote_line = 0, quote_field = 0;

    auto endField = [&]() {
        fields.push_back(cur);
        cur.clear();
        was_quoted = false;
        any = true;
    };
    auto endRecord = [&]() {
        endField();
        records.push_back(std::move(fields));
        fields.clear();
        any = false;
    };
    auto position = [](size_t l, size_t f) {
        return "line " + std::to_string(l) + ", field " + std::to_string(f) +
               ": ";
    };

    for (size_t i = 0; i < text.size(); ++i) {
        char c = text[i];
        if (c == '\n')
            ++line;
        if (in_quotes) {
            if (c == '"') {
                if (i + 1 < text.size() && text[i + 1] == '"') {
                    cur += '"';
                    ++i;
                } else {
                    in_quotes = false;
                }
            } else {
                cur += c;
            }
            continue;
        }
        switch (c) {
          case '"':
            if (!cur.empty() && !was_quoted) {
                err = position(line, fields.size() + 1) +
                      "stray quote inside an unquoted field";
                return false;
            }
            in_quotes = true;
            was_quoted = true;
            quote_line = line;
            quote_field = fields.size() + 1;
            break;
          case ',':
            endField();
            break;
          case '\n':
            endRecord();
            break;
          case '\r':
            break; // tolerate CRLF dumps.
          default:
            cur += c;
        }
    }
    if (in_quotes) {
        err = position(quote_line, quote_field) + "unterminated quoted field";
        return false;
    }
    if (any || !cur.empty())
        endRecord(); // final record without a trailing newline.
    return true;
}

bool
parseSizeT(const std::string &s, size_t &out)
{
    u64 v = 0;
    if (!parseU64(s, v))
        return false;
    out = static_cast<size_t>(v);
    return true;
}

// ------------------------------------------------------------ merge key

std::string
rowKey(const StatRow &r)
{
    return r.benchmark + "\x1f" + r.scenario + "\x1f" + r.configHash;
}

std::string
prettyKey(const StatRow &r)
{
    return "(" + r.benchmark + ", " + r.scenario + ", " + r.configHash +
           ")";
}

/** @p v printed through the printf format @p f. */
std::string
fmt(const char *f, double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), f, v);
    return buf;
}

} // namespace

DumpParse
parseCsvDump(const std::string &text, const std::string &origin)
{
    DumpParse out;
    std::vector<std::vector<std::string>> records;
    std::string err;
    if (!splitCsv(text, records, err)) {
        out.error = origin + ": " + err;
        return out;
    }
    if (records.empty()) {
        out.error = origin + ": empty dump (no header)";
        return out;
    }

    const std::vector<std::string> &header = records[0];
    const char *fixed[] = {"benchmark", "scenario", "config_hash",
                           "checkpoints", "ipc_hmean"};
    constexpr size_t nFixed = 5;
    if (header.size() < nFixed) {
        out.error = origin + ": header has fewer than " +
                    std::to_string(nFixed) + " columns";
        return out;
    }
    for (size_t i = 0; i < nFixed; ++i) {
        if (header[i] != fixed[i]) {
            out.error = origin + ": header column " + std::to_string(i) +
                        " is '" + header[i] + "', expected '" + fixed[i] +
                        "'";
            return out;
        }
    }

    for (size_t r = 1; r < records.size(); ++r) {
        const std::vector<std::string> &rec = records[r];
        auto fail = [&](const std::string &msg) {
            out.error =
                origin + ": row " + std::to_string(r) + ": " + msg;
            out.rows.clear();
            return out;
        };
        if (rec.size() != header.size())
            return fail("has " + std::to_string(rec.size()) +
                        " fields, header has " +
                        std::to_string(header.size()));
        StatRow row;
        row.benchmark = rec[0];
        row.scenario = rec[1];
        row.configHash = rec[2];
        if (!parseSizeT(rec[3], row.checkpoints))
            return fail("bad checkpoints '" + rec[3] + "'");
        if (!parseDouble(rec[4], row.ipcHmean))
            return fail("bad ipc_hmean '" + rec[4] + "'");
        for (size_t i = nFixed; i < rec.size(); ++i) {
            if (rec[i].empty())
                continue; // this row does not carry the counter.
            u64 v = 0;
            if (!parseU64(rec[i], v))
                return fail("bad value '" + rec[i] + "' for counter '" +
                            header[i] + "'");
            row.counters.emplace_back(header[i], v);
        }
        // Columns are a union in first-appearance order; a row keeps
        // its own counters sorted by name, as canonical rows do.
        std::sort(row.counters.begin(), row.counters.end());
        out.rows.push_back(std::move(row));
    }
    return out;
}

DumpParse
parseDumpFile(const std::string &path)
{
    std::string text;
    if (!envelope::readFile(path, text)) {
        DumpParse out;
        out.error = path + ": cannot open";
        return out;
    }
    return parseCsvDump(text, path);
}

std::string
mergeStatRows(const std::vector<std::vector<StatRow>> &inputs,
              const std::vector<std::string> &origins,
              std::vector<StatRow> &out)
{
    out.clear();
    std::map<std::string, size_t> owner; // row key -> input index.
    auto originOf = [&](size_t i) {
        return i < origins.size() ? origins[i]
                                  : "input " + std::to_string(i);
    };
    for (size_t i = 0; i < inputs.size(); ++i) {
        for (const StatRow &row : inputs[i]) {
            auto [it, inserted] = owner.emplace(rowKey(row), i);
            if (!inserted)
                return "duplicate row " + prettyKey(row) + " in " +
                       originOf(it->second) + " and " + originOf(i) +
                       " — shard dumps must be disjoint";
            out.push_back(row);
        }
    }
    canonicalizeStatRows(out);
    return {};
}

std::string
checkCompleteness(const std::vector<StatRow> &rows,
                  const std::vector<std::string> &expected_benchmarks)
{
    // Arms are (scenario, config hash); completeness is "every
    // benchmark under every arm".
    std::set<std::string> benchmarks(expected_benchmarks.begin(),
                                     expected_benchmarks.end());
    std::set<std::pair<std::string, std::string>> arms;
    std::set<std::string> have;
    for (const StatRow &r : rows) {
        benchmarks.insert(r.benchmark);
        arms.insert({r.scenario, r.configHash});
        have.insert(rowKey(r));
    }
    if (!expected_benchmarks.empty()) {
        std::set<std::string> expected(expected_benchmarks.begin(),
                                       expected_benchmarks.end());
        for (const StatRow &r : rows)
            if (!expected.count(r.benchmark))
                return "unexpected benchmark '" + r.benchmark +
                       "' (not in the --expect-benchmarks set)";
    }

    std::string missing;
    size_t n = 0;
    for (const auto &[scenario, hash] : arms) {
        for (const std::string &bench : benchmarks) {
            if (have.count(bench + "\x1f" + scenario + "\x1f" + hash))
                continue;
            if (++n <= 8)
                missing += "\n  (" + bench + ", " + scenario + ", " +
                           hash + ")";
        }
    }
    if (n == 0)
        return {};
    if (n > 8)
        missing += "\n  ... and " + std::to_string(n - 8) + " more";
    return "incomplete matrix: " + std::to_string(n) +
           " missing cell(s) — a shard dump is absent or a sweep was "
           "interrupted:" +
           missing;
}

bool
knownTimingCounter(const std::string &name)
{
    if (name.rfind("timing.", 0) != 0)
        return false;
    // The RunTiming schema names, via the one visitStats enumeration.
    static const std::vector<std::string> known = [] {
        std::vector<std::string> names;
        RunTiming t;
        visitStats(t, [&](const char *n, StatCounter &) {
            names.emplace_back(n);
        });
        return names;
    }();
    for (const std::string &k : known)
        if (name == k)
            return true;
    // Per-checkpoint pattern: timing.phase<digits>_wall_micros.
    constexpr const char *pre = "timing.phase";
    constexpr const char *suf = "_wall_micros";
    if (name.rfind(pre, 0) != 0)
        return false;
    size_t digits_begin = std::string(pre).size();
    size_t suf_len = std::string(suf).size();
    if (name.size() <= digits_begin + suf_len ||
        name.compare(name.size() - suf_len, suf_len, suf) != 0)
        return false;
    for (size_t i = digits_begin; i < name.size() - suf_len; ++i)
        if (name[i] < '0' || name[i] > '9')
            return false;
    return true;
}

std::vector<std::string>
unknownTimingCounters(const std::vector<StatRow> &rows)
{
    std::set<std::string> unknown;
    for (const StatRow &row : rows)
        for (const auto &[name, value] : row.counters) {
            (void)value;
            if (name.rfind("timing.", 0) == 0 &&
                !knownTimingCounter(name))
                unknown.insert(name);
        }
    return {unknown.begin(), unknown.end()};
}

u64
counterOf(const StatRow &row, std::string_view name)
{
    auto it = std::lower_bound(
        row.counters.begin(), row.counters.end(), name,
        [](const auto &c, std::string_view n) { return c.first < n; });
    return it != row.counters.end() && it->first == name ? it->second : 0;
}

double
committedShare(const StatRow &row, std::string_view name)
{
    u64 insts = counterOf(row, "committed_insts");
    return insts ? static_cast<double>(counterOf(row, name)) /
                       static_cast<double>(insts)
                 : 0.0;
}

double
rowIpc(const StatRow &row)
{
    u64 cycles = counterOf(row, "cycles");
    return cycles ? static_cast<double>(counterOf(row, "committed_insts")) /
                        static_cast<double>(cycles)
                  : 0.0;
}

const StatRow *
findStatRow(const std::vector<StatRow> &rows, const std::string &benchmark,
            const std::string &scenario)
{
    auto it = std::find_if(rows.begin(), rows.end(), [&](const StatRow &r) {
        return r.benchmark == benchmark && r.scenario == scenario;
    });
    return it != rows.end() ? &*it : nullptr;
}

bool
speedupGrid(const std::vector<StatRow> &rows,
            const std::vector<std::string> &arms,
            const std::vector<std::string> &benchmarks, SpeedupGrid &grid,
            std::string *err)
{
    auto fail = [&](const std::string &msg) {
        if (err)
            *err = msg;
        return false;
    };
    grid = {};
    if (arms.empty())
        return fail("no baseline arm");
    grid.baseline = arms[0];
    if (std::none_of(rows.begin(), rows.end(), [&](const StatRow &r) {
            return r.scenario == grid.baseline;
        }))
        return fail("baseline scenario '" + grid.baseline +
                    "' has no rows");

    // (benchmark, scenario) -> row; an arm is one config hash.
    std::map<std::pair<std::string, std::string>, const StatRow *> cells;
    std::map<std::string, std::string> armHash;
    for (const StatRow &r : rows) {
        auto [it, inserted] = armHash.emplace(r.scenario, r.configHash);
        if (!inserted && it->second != r.configHash)
            return fail("scenario '" + r.scenario +
                        "' appears with two config hashes (" +
                        it->second + ", " + r.configHash +
                        "); merge inputs disagree");
        cells[{r.benchmark, r.scenario}] = &r;
    }
    for (size_t a = 1; a < arms.size(); ++a)
        grid.arms.push_back({arms[a], armHash[arms[a]]});

    std::vector<std::vector<double>> ratios(grid.arms.size());
    for (const std::string &bench : benchmarks) {
        auto base = cells.find({bench, grid.baseline});
        double base_ipc = base != cells.end() ? rowIpc(*base->second) : 0.0;
        if (base_ipc <= 0.0) {
            // No (usable) baseline row, as in a partial merge: a bar
            // would be a made-up 0.00% speedup.
            grid.skipped.push_back(bench);
            continue;
        }
        grid.benchmarks.push_back(bench);
        std::vector<SpeedupGrid::Bar> &bars = grid.bars.emplace_back();
        for (size_t a = 0; a < grid.arms.size(); ++a) {
            SpeedupGrid::Bar &bar = bars.emplace_back();
            auto it = cells.find({bench, grid.arms[a].name});
            if (it == cells.end())
                continue;
            double ratio = rowIpc(*it->second) / base_ipc;
            bar.row = it->second;
            bar.pct = (ratio - 1.0) * 100.0;
            ratios[a].push_back(ratio);
        }
    }
    for (size_t a = 0; a < grid.arms.size(); ++a) {
        double g = geometricMean(ratios[a]);
        grid.arms[a].bars = ratios[a].size();
        grid.arms[a].gmeanPct = g > 0.0 ? (g - 1.0) * 100.0 : 0.0;
    }
    return true;
}

void
writeSpeedupTable(std::ostream &os, const SpeedupGrid &grid)
{
    // The 18-character default, widened so a long header label keeps
    // at least one space before it.
    auto cell = [&](const std::string &label, const std::string &text) {
        os << std::right
           << std::setw(static_cast<int>(
                  std::max<size_t>(18, label.size() + 1)))
           << text;
    };
    auto pct = [](double v) { return fmt("%7.2f%%", v); };

    os << std::left << std::setw(12) << "benchmark";
    for (const SpeedupGrid::Arm &arm : grid.arms)
        cell(arm.name, arm.name);
    os << "\n";
    for (size_t b = 0; b < grid.benchmarks.size(); ++b) {
        os << std::left << std::setw(12) << grid.benchmarks[b];
        for (size_t a = 0; a < grid.arms.size(); ++a) {
            const SpeedupGrid::Bar &bar = grid.bars[b][a];
            cell(grid.arms[a].name, bar.row ? pct(bar.pct) : "-");
        }
        os << "\n";
    }
    os << std::left << std::setw(12) << "gmean";
    for (const SpeedupGrid::Arm &arm : grid.arms)
        cell(arm.name, pct(arm.gmeanPct));
    os << "\n";
    if (!grid.skipped.empty()) {
        os << "skipped " << grid.skipped.size()
           << " benchmark(s) with no usable '" << grid.baseline
           << "' IPC:";
        for (const std::string &bench : grid.skipped)
            os << " " << bench;
        os << "\n";
    }
}

bool
writeFigureSummary(std::ostream &os, const std::vector<StatRow> &rows,
                   const std::string &baseline_scenario, std::string *err)
{
    if (rows.empty()) {
        if (err)
            *err = "no rows to summarise";
        return false;
    }
    std::set<std::string> scenarios, benchmarks;
    for (const StatRow &r : rows) {
        scenarios.insert(r.scenario);
        benchmarks.insert(r.benchmark);
    }
    std::string base = baseline_scenario;
    if (base.empty())
        base = scenarios.count("baseline") ? "baseline" : *scenarios.begin();
    std::vector<std::string> arms{base};
    for (const std::string &s : scenarios)
        if (s != base)
            arms.push_back(s);

    SpeedupGrid grid;
    if (!speedupGrid(rows, arms,
                     {benchmarks.begin(), benchmarks.end()}, grid, err))
        return false;

    os << "# per-benchmark speedup bars over '" << base << "' (percent)\n";
    os << "benchmark,scenario,config_hash,ipc_hmean,speedup_pct\n";
    for (size_t b = 0; b < grid.benchmarks.size(); ++b)
        for (size_t a = 0; a < grid.arms.size(); ++a) {
            const SpeedupGrid::Bar &bar = grid.bars[b][a];
            if (bar.row)
                os << grid.benchmarks[b] << "," << grid.arms[a].name << ","
                   << bar.row->configHash << ","
                   << fmt("%.6f", bar.row->ipcHmean) << ","
                   << fmt("%.2f", bar.pct) << "\n";
        }
    for (const SpeedupGrid::Arm &arm : grid.arms)
        if (arm.bars > 0)
            os << "gmean," << arm.name << "," << arm.configHash << ",,"
               << fmt("%.2f", arm.gmeanPct) << "\n";
    if (!grid.skipped.empty()) {
        os << "# warning: skipped " << grid.skipped.size()
           << " benchmark(s) with no '" << base << "' row:";
        for (const std::string &bench : grid.skipped)
            os << " " << bench;
        os << "\n";
    }
    return true;
}

} // namespace rsep::sim
