#include "sim/stat_export.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iomanip>

#include "sim/scenario.hh"

namespace rsep::sim
{

namespace
{

/** Sum every introspected pipeline counter plus histogram buckets and
 *  per-engine counters over the phases of one run. */
std::vector<std::pair<std::string, u64>>
flattenCounters(const RunResult &rr)
{
    std::vector<std::pair<std::string, u64>> out;
    for (const PhaseResult &ph : rr.phases) {
        core::PipelineStats stats = ph.stats; // visitStats is non-const.
        size_t i = 0;
        visitStats(stats, [&](const char *name, StatCounter &c) {
            if (i == out.size())
                out.emplace_back(name, 0);
            out[i++].second += c.value();
        });
        const StatHistogram &h = stats.commitGroupProducers;
        for (size_t b = 0; b < h.buckets(); ++b) {
            std::string name =
                "commit_group_producers_" + std::to_string(b);
            if (i == out.size())
                out.emplace_back(name, 0);
            out[i++].second += h.bucket(b);
        }
        for (const auto &[name, value] : ph.engineStats) {
            auto it = std::find_if(
                out.begin() + static_cast<long>(i), out.end(),
                [&](const auto &p) { return p.first == name; });
            if (it == out.end())
                out.emplace_back(name, value);
            else
                it->second += value;
        }
    }
    return out;
}

std::string
csvEscape(const std::string &s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

std::string
fmtDouble(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6f", v);
    return buf;
}

} // namespace

void
canonicalizeStatRows(std::vector<StatRow> &rows)
{
    for (StatRow &row : rows)
        std::sort(row.counters.begin(), row.counters.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
    std::sort(rows.begin(), rows.end(),
              [](const StatRow &a, const StatRow &b) {
                  if (a.benchmark != b.benchmark)
                      return a.benchmark < b.benchmark;
                  if (a.scenario != b.scenario)
                      return a.scenario < b.scenario;
                  return a.configHash < b.configHash;
              });
}

std::vector<StatRow>
collectStatRows(const std::vector<SimConfig> &configs,
                const std::vector<MatrixRow> &rows, bool include_timings)
{
    std::vector<std::string> hashes;
    hashes.reserve(configs.size());
    for (const SimConfig &cfg : configs)
        hashes.push_back(configHash(cfg));

    std::vector<StatRow> out;
    for (const MatrixRow &mrow : rows) {
        for (size_t c = 0; c < mrow.byConfig.size() && c < configs.size();
             ++c) {
            const RunResult &rr = mrow.byConfig[c];
            if (!rr.inShard)
                continue; // another shard's run; its dump has the row.
            StatRow row;
            row.benchmark = mrow.benchmark;
            row.scenario = configs[c].label;
            row.configHash = hashes[c];
            row.checkpoints = rr.phases.size();
            row.ipcHmean = rr.ipcHmean();
            row.counters = flattenCounters(rr);
            if (include_timings) {
                RunTiming timing = rr.timing; // visitStats is non-const.
                visitStats(timing, [&](const char *name, StatCounter &c2) {
                    row.counters.emplace_back(name, c2.value());
                });
                for (size_t p = 0; p < rr.phases.size(); ++p)
                    row.counters.emplace_back(
                        "timing.phase" + std::to_string(p) +
                            "_wall_micros",
                        rr.phases[p].wallMicros);
            }
            out.push_back(std::move(row));
        }
    }
    canonicalizeStatRows(out);
    return out;
}

void
TableStatSink::write(std::ostream &os,
                     const std::vector<StatRow> &rows) const
{
    os << std::left << std::setw(12) << "benchmark" << std::setw(22)
       << "scenario" << std::setw(18) << "config-hash" << std::right
       << std::setw(7) << "ckpts" << std::setw(9) << "ipc" << "\n";
    for (const StatRow &row : rows) {
        os << std::left << std::setw(12) << row.benchmark << std::setw(22)
           << row.scenario << std::setw(18) << row.configHash
           << std::right << std::setw(7) << row.checkpoints << std::setw(9)
           << std::fixed << std::setprecision(3) << row.ipcHmean << "\n";
        os.unsetf(std::ios::fixed);
        for (const auto &[name, value] : row.counters) {
            if (name.rfind("engine.", 0) != 0)
                continue;
            os << "    " << std::left << std::setw(40) << name
               << std::right << std::setw(16) << value << "\n";
        }
    }
}

void
CsvStatSink::write(std::ostream &os, const std::vector<StatRow> &rows) const
{
    // Column union in first-appearance order: runs under different
    // mechanism arms register different engines.
    std::vector<std::string> columns;
    for (const StatRow &row : rows)
        for (const auto &[name, value] : row.counters) {
            (void)value;
            if (std::find(columns.begin(), columns.end(), name) ==
                columns.end())
                columns.push_back(name);
        }

    os << "benchmark,scenario,config_hash,checkpoints,ipc_hmean";
    for (const std::string &col : columns)
        os << "," << csvEscape(col);
    os << "\n";

    for (const StatRow &row : rows) {
        os << csvEscape(row.benchmark) << "," << csvEscape(row.scenario)
           << "," << row.configHash << "," << row.checkpoints << ","
           << fmtDouble(row.ipcHmean);
        for (const std::string &col : columns) {
            os << ",";
            auto it = std::find_if(
                row.counters.begin(), row.counters.end(),
                [&](const auto &p) { return p.first == col; });
            if (it != row.counters.end())
                os << it->second;
        }
        os << "\n";
    }
}

void
TimeSeriesSink::add(SampleSeriesHeader header,
                    std::vector<core::StatSample> rows)
{
    if (rows.empty())
        return;
    header.rows = rows.size();
    series.emplace_back(std::move(header), std::move(rows));
}

bool
TimeSeriesSink::flush(std::string *err)
{
    for (const auto &[header, rows] : series) {
        std::string path = samplePath(outDir, header.workload,
                                      header.configHash, header.phase);
        if (!writeSamplesFile(path, header, rows, err))
            return false;
    }
    return true;
}

bool
writeStatsFile(const std::string &path, const std::vector<StatRow> &rows,
               std::string *err)
{
    std::ofstream os(path);
    if (!os) {
        if (err)
            *err = path + ": cannot open for writing";
        return false;
    }
    CsvStatSink{}.write(os, rows);
    os.flush();
    if (!os) {
        if (err)
            *err = path + ": write failed";
        return false;
    }
    return true;
}

} // namespace rsep::sim
