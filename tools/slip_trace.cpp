/**
 * @file
 * slip-trace: capture, import, and inspect SLIP trace files.
 *
 *   slip-trace capture --workload NAME -o OUT [--cores N] [--refs N]
 *                      [--seed S]
 *       Dump any registered workload (or another trace: name) to a
 *       SLIPTRC2 file, interleaved round-robin across cores exactly as
 *       System::run pulls references. A ".gz" suffix compresses.
 *
 *   slip-trace import --from champsim IN -o OUT
 *       Convert a foreign trace (plain or .gz) to SLIPTRC2.
 *
 *   slip-trace info FILE
 *       Header summary plus a full-scan integrity report (record,
 *       read/write, per-core and icount totals).
 *
 *   slip-trace validate FILE
 *       Decode every record; exits 0 with "OK" or 1 with the
 *       path-and-offset-named error.
 *
 * Captured traces replay through `slip-sim --trace` (the workload
 * `trace:path`), scenario `"workload": "trace:path"` entries, and
 * slip-bench (see EXPERIMENTS.md, "Bring your own trace").
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "mem/trace_import.hh"
#include "mem/trace_io.hh"
#include "workloads/spec_suite.hh"
#include "workloads/trace_workload.hh"

namespace {

using namespace slip;

int
usage()
{
    std::fputs(
        "usage:\n"
        "  slip-trace capture --workload NAME -o OUT [--cores N]\n"
        "             [--refs N] [--seed S]\n"
        "  slip-trace import --from champsim|cpu_trace IN -o OUT\n"
        "  slip-trace info FILE\n"
        "  slip-trace validate FILE\n",
        stderr);
    return 2;
}

int
fail(const std::string &msg)
{
    std::fprintf(stderr, "slip-trace: %s\n", msg.c_str());
    return 1;
}

int
scanAndReport(const std::string &path, bool verbose)
{
    TraceScan scan;
    const std::string err = scanTrace(path, scan);
    if (!err.empty())
        return fail(err);
    if (verbose) {
        std::printf("path         %s\n", path.c_str());
        std::printf("format       %s\n",
                    traceFormatName(scan.info.format));
        std::printf("compression  %s\n",
                    traceCompressionName(scan.info.compression));
        std::printf("cores        %u\n", scan.info.coreCount);
        std::printf("records      %llu\n",
                    static_cast<unsigned long long>(scan.records));
        std::printf("reads        %llu\n",
                    static_cast<unsigned long long>(scan.reads));
        std::printf("writes       %llu\n",
                    static_cast<unsigned long long>(scan.writes));
        std::printf("icount       %llu%s\n",
                    static_cast<unsigned long long>(scan.icountTotal),
                    scan.info.hasIcount ? "" : " (implied, 1/record)");
        // Per-core breakdown, aligned for two-digit core ids so
        // 16/32/64-core captures stay column-stable.
        for (std::size_t c = 0; c < scan.perCore.size(); ++c)
            std::printf("core%-9zu%llu records\n", c,
                        static_cast<unsigned long long>(
                            scan.perCore[c]));
    } else {
        std::printf("OK %s: %llu records, %u core(s), %s%s\n",
                    path.c_str(),
                    static_cast<unsigned long long>(scan.records),
                    scan.info.coreCount,
                    traceFormatName(scan.info.format),
                    scan.info.compression == TraceCompression::None
                        ? ""
                        : " (compressed)");
    }
    return 0;
}

int
doCapture(int argc, char **argv)
{
    std::string workload, out;
    unsigned cores = 1;
    std::uint64_t refs = 1'000'000, seed = 0;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char * {
            if (++i == argc) {
                std::fprintf(stderr, "%s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[i];
        };
        if (arg == "--workload" || arg == "-w")
            workload = value();
        else if (arg == "--out" || arg == "-o")
            out = value();
        else if (arg == "--cores")
            cores = static_cast<unsigned>(
                std::strtoul(value(), nullptr, 0));
        else if (arg == "--refs")
            refs = std::strtoull(value(), nullptr, 0);
        else if (arg == "--seed")
            seed = std::strtoull(value(), nullptr, 0);
        else
            return usage();
    }
    if (workload.empty() || out.empty())
        return usage();

    const std::string err =
        captureWorkloadTrace(workload, cores, refs, seed, out);
    if (!err.empty())
        return fail(err);
    std::printf("captured %llu records (%s x %u core(s), %llu "
                "refs/core) to %s\n",
                static_cast<unsigned long long>(refs) * cores,
                workload.c_str(), cores,
                static_cast<unsigned long long>(refs), out.c_str());
    return 0;
}

int
doImport(int argc, char **argv)
{
    std::string from = "champsim", in, out;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char * {
            if (++i == argc) {
                std::fprintf(stderr, "%s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[i];
        };
        if (arg == "--from" || arg == "--format")
            from = value();
        else if (arg == "--out" || arg == "-o")
            out = value();
        else if (arg == "--in")
            in = value();
        else if (!arg.empty() && arg[0] != '-' && in.empty())
            in = arg;
        else
            return usage();
    }
    if (in.empty() || out.empty())
        return usage();
    if (from == "champsim") {
        ChampSimImportStats stats;
        const std::string err = importChampSimTrace(in, out, &stats);
        if (!err.empty())
            return fail(err);
        std::printf("imported %llu records (%llu reads, %llu writes) "
                    "from %llu instructions: %s -> %s\n",
                    static_cast<unsigned long long>(stats.records),
                    static_cast<unsigned long long>(stats.reads),
                    static_cast<unsigned long long>(stats.writes),
                    static_cast<unsigned long long>(
                        stats.instructions),
                    in.c_str(), out.c_str());
        return 0;
    }
    if (from == "cpu_trace" || from == "cpu-trace") {
        CpuTraceImportStats stats;
        const std::string err = importCpuTrace(in, out, &stats);
        if (!err.empty())
            return fail(err);
        std::printf("imported %llu records (%llu reads, %llu writes) "
                    "over %u core(s): %s -> %s\n",
                    static_cast<unsigned long long>(stats.records),
                    static_cast<unsigned long long>(stats.reads),
                    static_cast<unsigned long long>(stats.writes),
                    stats.cores, in.c_str(), out.c_str());
        return 0;
    }
    return fail("unknown import format '" + from +
                "' (supported: champsim, cpu_trace)");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    if (cmd == "capture")
        return doCapture(argc - 2, argv + 2);
    if (cmd == "import")
        return doImport(argc - 2, argv + 2);
    if (cmd == "info" && argc == 3)
        return scanAndReport(argv[2], /*verbose=*/true);
    if (cmd == "validate" && argc == 3)
        return scanAndReport(argv[2], /*verbose=*/false);
    return usage();
}
