#include "sim/stat_merge.hh"

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "common/env.hh"
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
 * sinks never emit quoted empties).
 */
bool
splitCsv(const std::string &text,
         std::vector<std::vector<std::string>> &records, std::string &err)
{
    std::vector<std::string> fields;
    std::string cur;
    bool in_quotes = false, was_quoted = false, any = false;

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

    for (size_t i = 0; i < text.size(); ++i) {
        char c = text[i];
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
                err = "stray quote inside an unquoted field";
                return false;
            }
            in_quotes = true;
            was_quoted = true;
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
        err = "unterminated quoted field";
        return false;
    }
    if (any || !cur.empty())
        endRecord(); // final record without a trailing newline.
    (void)was_quoted;
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
        out.rows.push_back(std::move(row));
    }
    return out;
}

DumpParse
parseDumpFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        DumpParse out;
        out.error = path + ": cannot open";
        return out;
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    return parseCsvDump(buf.str(), path);
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

bool
writeFigureSummary(std::ostream &os, const std::vector<StatRow> &rows,
                   const std::string &baseline_scenario, std::string *err)
{
    auto fail = [&](const std::string &msg) {
        if (err)
            *err = msg;
        return false;
    };
    if (rows.empty())
        return fail("no rows to summarise");

    std::set<std::string> scenarios;
    for (const StatRow &r : rows)
        scenarios.insert(r.scenario);

    std::string base = baseline_scenario;
    if (base.empty())
        base = scenarios.count("baseline") ? "baseline" : *scenarios.begin();
    if (!scenarios.count(base))
        return fail("baseline scenario '" + base +
                    "' has no rows in the merged dump");

    // benchmark -> scenario -> row (rows are canonical, keys unique).
    std::map<std::string, std::map<std::string, const StatRow *>> grid;
    std::map<std::string, std::string> armHash;
    for (const StatRow &r : rows) {
        auto [it, inserted] = armHash.emplace(r.scenario, r.configHash);
        if (!inserted && it->second != r.configHash)
            return fail("scenario '" + r.scenario +
                        "' appears with two config hashes (" +
                        it->second + ", " + r.configHash +
                        "); merge inputs disagree");
        grid[r.benchmark][r.scenario] = &r;
    }

    auto fmtIpc = [](double v) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.6f", v);
        return std::string(buf);
    };
    auto fmtPct2 = [](double v) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.2f", v);
        return std::string(buf);
    };

    os << "# per-benchmark speedup bars over '" << base << "' (percent)\n";
    os << "benchmark,scenario,config_hash,ipc_hmean,speedup_pct\n";
    std::map<std::string, std::vector<double>> ratios;
    std::vector<std::string> skipped;
    for (const auto &[bench, byScenario] : grid) {
        auto bit = byScenario.find(base);
        double base_ipc =
            bit != byScenario.end() ? bit->second->ipcHmean : 0.0;
        if (base_ipc <= 0.0) {
            // No (usable) baseline row for this benchmark — a partial
            // merge. Emitting a bar would fabricate a 0.00% speedup;
            // drop the benchmark and say so instead.
            skipped.push_back(bench);
            continue;
        }
        for (const auto &[scenario, row] : byScenario) {
            if (scenario == base)
                continue;
            double ratio = row->ipcHmean / base_ipc;
            ratios[scenario].push_back(ratio);
            os << bench << "," << scenario << "," << row->configHash
               << "," << fmtIpc(row->ipcHmean) << ","
               << fmtPct2((ratio - 1.0) * 100.0) << "\n";
        }
    }
    for (const auto &[scenario, r] : ratios) {
        double g = geometricMean(r);
        os << "gmean," << scenario << "," << armHash[scenario] << ",,"
           << fmtPct2(g > 0.0 ? (g - 1.0) * 100.0 : 0.0) << "\n";
    }
    if (!skipped.empty()) {
        os << "# warning: skipped " << skipped.size()
           << " benchmark(s) with no '" << base << "' row:";
        for (const std::string &bench : skipped)
            os << " " << bench;
        os << "\n";
    }
    return true;
}

} // namespace rsep::sim
