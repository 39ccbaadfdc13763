/// @file
/// rsep_trace — inspect, dump and validate `.rtr` recorded traces.
///
/// Traces are the committed-path streams the drivers write with
/// `--record-trace` and replay with `--replay-trace` (wl/trace_io.hh).
///
///     rsep_trace info traces/*.rtr
///     rsep_trace dump --limit 40 traces/mcf-p0.rtr
///     rsep_trace validate --deep traces/*.rtr
///
/// `validate` always checks the envelope (version, header, payload
/// size, checksum) plus — when the trace's workload resolves in the
/// registry — the workload-hash and program-length echoes and every
/// record's static-index bounds. `--deep` additionally re-runs the
/// functional emulator for the cell and requires the recorded stream to
/// match it bit for bit.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "sim/scenario.hh"
#include "wl/emulator.hh"
#include "wl/trace_io.hh"
#include "wl/workload_spec.hh"

namespace
{

using namespace rsep;

void
printHelp(const std::vector<cli::Option> &options)
{
    std::printf(
        "usage: rsep_trace COMMAND [options] FILE [FILE ...]\n"
        "Inspect and validate .rtr recorded traces (--record-trace /\n"
        "--replay-trace on the bench drivers).\n"
        "\ncommands:\n"
        "  info             print each trace's header summary\n"
        "  dump             print decoded records (with disassembly when\n"
        "                   the workload resolves in the registry)\n"
        "  validate         check version, header, checksum and record\n"
        "                   bounds; non-zero exit on any failure\n"
        "\noptions:\n");
    cli::printOptions(std::cout, options);
}

int
usageError(const std::string &msg)
{
    std::fprintf(stderr, "rsep_trace: %s (try --help)\n", msg.c_str());
    return 2;
}

/** Registry spec for a trace, when its workload is still known. */
std::optional<wl::WorkloadSpec>
specFor(const wl::TraceHeader &header)
{
    return wl::findWorkloadSpec(header.workload);
}

int
cmdInfo(const std::vector<std::string> &files)
{
    bool ok = true;
    for (const std::string &path : files) {
        wl::TraceParse t = wl::readTraceFile(path);
        if (!t.ok()) {
            std::fprintf(stderr, "rsep_trace: %s\n", t.error.c_str());
            ok = false;
            continue;
        }
        std::printf("%s:\n", path.c_str());
        std::printf("  version        %u\n", wl::traceFormatVersion);
        std::printf("  workload       %s\n", t.header.workload.c_str());
        std::printf("  workload_hash  %s%s\n",
                    t.header.workloadHash.c_str(),
                    specFor(t.header) ? "" : "  (not in this registry)");
        std::printf("  phase          %u\n", t.header.phase);
        std::printf("  records        %llu\n",
                    static_cast<unsigned long long>(t.header.records));
        std::printf("  program_length %llu\n",
                    static_cast<unsigned long long>(
                        t.header.programLength));
    }
    return ok ? 0 : 1;
}

int
cmdDump(const std::vector<std::string> &files, u64 limit)
{
    bool ok = true;
    for (const std::string &path : files) {
        wl::DecodedTraceParse d = wl::loadDecodedTrace(path);
        if (!d.ok()) {
            std::fprintf(stderr, "rsep_trace: %s\n", d.error.c_str());
            ok = false;
            continue;
        }
        const wl::DecodedTrace &t = *d.trace;
        std::optional<wl::WorkloadSpec> spec = specFor(t.header);
        std::optional<wl::Workload> w;
        if (spec)
            w = wl::buildWorkload(*spec);
        std::printf("%s: %s phase %u, %zu records\n", path.c_str(),
                    t.header.workload.c_str(), t.header.phase, t.size());
        wl::TraceCursor cursor(t.payload);
        wl::DynRecord r;
        for (size_t i = 0; i < t.size(); ++i) {
            if (limit && i >= limit) {
                std::printf("  ... (%zu more)\n", t.size() - i);
                break;
            }
            cursor.next(r); // validated at load.
            std::string disasm =
                w && r.staticIdx < w->program.size()
                    ? w->program.disasm(r.staticIdx)
                    : std::string("<unknown>");
            std::printf("  %8llu  si=%-5u next=%-5u result=%016llx "
                        "ea=%010llx %s  %s\n",
                        static_cast<unsigned long long>(i),
                        r.staticIdx, r.nextIdx,
                        static_cast<unsigned long long>(r.result),
                        static_cast<unsigned long long>(r.effAddr),
                        r.taken ? "T" : "-", disasm.c_str());
        }
    }
    return ok ? 0 : 1;
}

int
cmdValidate(const std::vector<std::string> &files, bool deep)
{
    bool ok = true;
    for (const std::string &path : files) {
        auto bad = [&](const std::string &msg) {
            std::fprintf(stderr, "rsep_trace: %s: %s\n", path.c_str(),
                         msg.c_str());
            ok = false;
        };
        wl::DecodedTraceParse d = wl::loadDecodedTrace(path);
        if (!d.ok()) {
            std::fprintf(stderr, "rsep_trace: %s\n", d.error.c_str());
            ok = false;
            continue;
        }
        const wl::DecodedTrace &t = *d.trace;
        std::optional<wl::WorkloadSpec> spec = specFor(t.header);
        if (!spec) {
            std::printf("%s: OK (envelope only; workload '%s' is not in "
                        "this registry)\n",
                        path.c_str(), t.header.workload.c_str());
            continue;
        }
        if (wl::workloadHash(*spec) != t.header.workloadHash) {
            bad("workload_hash " + t.header.workloadHash +
                " does not match the registry's " +
                wl::workloadHash(*spec) +
                " (the kernel changed since recording; re-record)");
            continue;
        }
        wl::Workload w = wl::buildWorkload(*spec);
        if (w.program.size() != t.header.programLength) {
            bad("program_length mismatch");
            continue;
        }
        bool bounds_ok = true;
        wl::TraceCursor cursor(t.payload);
        wl::DynRecord want;
        for (size_t i = 0; i < t.size() && bounds_ok; ++i) {
            cursor.next(want); // validated at load.
            if (want.staticIdx >= w.program.size() ||
                want.nextIdx >= w.program.size()) {
                bad("record " + std::to_string(i) +
                    " indexes outside the program");
                bounds_ok = false;
            }
        }
        if (!bounds_ok)
            continue;
        if (deep) {
            wl::Emulator emu(w.program);
            emu.resetArchState();
            w.init(emu, t.header.phase);
            cursor = wl::TraceCursor(t.payload);
            bool match = true;
            for (size_t i = 0; i < t.size() && match; ++i) {
                cursor.next(want);
                const wl::DynRecord &got = emu.step();
                if (got.staticIdx != want.staticIdx ||
                    got.nextIdx != want.nextIdx ||
                    got.result != want.result ||
                    got.effAddr != want.effAddr ||
                    got.taken != want.taken) {
                    bad("record " + std::to_string(i) +
                        " diverges from live emulation (re-record)");
                    match = false;
                }
            }
            if (!match)
                continue;
        }
        std::printf("%s: OK (%zu records%s)\n", path.c_str(), t.size(),
                    deep ? ", deep-verified against live emulation" : "");
    }
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    u64 limit = 32;
    bool limit_given = false;
    bool deep = false;

    std::vector<cli::Option> options = {
        {"limit", "N", "dump: stop after N records (default 32, 0 = all)",
         [&](const std::string &v) {
             limit_given = true;
             return cli::parseCount(v, limit);
         }},
        {"deep", nullptr,
         "validate: re-run the functional emulator and require a "
         "bit-exact record match",
         cli::store(deep)},
        {"workload-file", "PATH",
         "register a file's [workload] definitions so traces of custom "
         "workloads resolve (repeatable)",
         [](const std::string &v) {
             sim::ScenarioParse parsed = sim::parseScenarioFile(v);
             for (const wl::WorkloadSpec &w : parsed.workloads)
                 wl::registerWorkload(w);
             return parsed.error;
         }},
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
        return usageError("no command given (info, dump or validate)");
    if (files.empty())
        return usageError("no trace files given");
    // An option the command would ignore is a usage error.
    if (limit_given && command != "dump")
        return usageError("--limit applies to dump only");
    if (deep && command != "validate")
        return usageError("--deep applies to validate only");

    if (command == "info")
        return cmdInfo(files);
    if (command == "dump")
        return cmdDump(files, limit);
    if (command == "validate")
        return cmdValidate(files, deep);
    return usageError("unknown command '" + command +
                      "' (expected info, dump or validate)");
}
