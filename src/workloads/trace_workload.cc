#include "workloads/trace_workload.hh"

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "workloads/spec_suite.hh"

namespace slip {

bool
isTraceWorkload(const std::string &name)
{
    return name.rfind(kTraceWorkloadPrefix, 0) == 0;
}

std::string
traceWorkloadPath(const std::string &name)
{
    return name.substr(std::string(kTraceWorkloadPrefix).size());
}

std::string
validateTraceWorkload(const std::string &name, unsigned cores)
{
    const std::string path = traceWorkloadPath(name);
    if (path.empty())
        return "empty trace path (want trace:/path/to/file)";
    // A run opens the file once here and once per core, and rewinds it
    // to loop, so a pipe cannot feed it. Checked before opening, which
    // would block on a FIFO without a writer; a missing file falls
    // through to open's "cannot open" error.
    std::error_code ec;
    const std::filesystem::file_status st =
        std::filesystem::status(path, ec);
    if (!ec && !std::filesystem::is_regular_file(st))
        return path + ": not a regular file (a trace: workload reopens "
                      "and rewinds its trace; save a piped trace to a "
                      "file first)";

    TraceReader r;
    std::string err = r.open(path);
    if (!err.empty())
        return err;

    const TraceInfo &info = r.info();
    // Single-core traces replicate onto any core count; multicore
    // traces must cover every core the run demuxes.
    if (info.coreCount != 1 && cores > info.coreCount)
        return path + ": trace provides " +
               std::to_string(info.coreCount) +
               " cores but the run needs " + std::to_string(cores);

    // Legacy/text files carry no record count; probe one record so
    // an empty or immediately-malformed file fails here, not mid-run.
    if (info.recordCount == 0) {
        TraceRecord rec;
        if (!r.next(rec, err))
            return err.empty() ? path + ": no trace records" : err;
    }
    return "";
}

std::string
traceWorkloadHash(const std::vector<std::string> &workloads)
{
    std::string hashes;
    for (auto it = workloads.begin(); it != workloads.end(); ++it) {
        if (!isTraceWorkload(*it) ||
            std::find(workloads.begin(), it, *it) != it)
            continue;
        std::string err;
        const std::uint64_t h =
            traceFileHash(traceWorkloadPath(*it), &err);
        if (!err.empty())
            continue;
        std::ostringstream os;
        os << std::hex << h;
        hashes += (hashes.empty() ? "" : "+") + os.str();
    }
    return hashes;
}

std::unique_ptr<AccessSource>
makeTraceWorkloadSource(const std::string &name, unsigned core,
                        std::string *err)
{
    const std::string path = traceWorkloadPath(name);
    if (path.empty()) {
        if (err)
            *err = "empty trace path (want trace:/path/to/file)";
        return nullptr;
    }
    return TraceSource::open(path, core, /*loop=*/true, err);
}

std::string
captureWorkloadTrace(const std::string &workload, unsigned cores,
                     std::uint64_t refsPerCore,
                     std::uint64_t workloadSeed,
                     const std::string &outPath)
{
    if (cores == 0)
        return "capture needs at least one core";
    if (refsPerCore == 0)
        return "capture needs at least one reference per core";
    if (isTraceWorkload(workload)) {
        const std::string err =
            validateTraceWorkload(workload, cores);
        if (!err.empty())
            return err;
    } else if (!isKnownWorkload(workload)) {
        return "unknown workload '" + workload + "'";
    }

    std::string err;
    auto writer =
        TraceWriter::create(outPath, TraceFormat::Sliptrc2, cores, &err);
    if (!writer)
        return err;

    std::vector<std::unique_ptr<AccessSource>> sources;
    for (unsigned c = 0; c < cores; ++c)
        sources.push_back(makeMixSource(workload, c, workloadSeed));

    MemAccess a{};
    for (std::uint64_t i = 0; i < refsPerCore; ++i) {
        for (unsigned c = 0; c < cores; ++c) {
            if (!sources[c]->next(a))
                return outPath + ": workload '" + workload +
                       "' exhausted after " + std::to_string(i) +
                       " of " + std::to_string(refsPerCore) +
                       " references on core " + std::to_string(c);
            writer->append(
                TraceRecord{c, a.addr, a.isWrite(), 1});
        }
    }
    return writer->close();
}

} // namespace slip
