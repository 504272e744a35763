/**
 * @file
 * trace_report: offline validator/summarizer for the decision tracer's
 * Chrome trace-event JSON (`--trace-out`, the format Perfetto loads).
 *
 * Checks the event schema and prints a per-process, per-event-name
 * summary:
 *
 *   trace_report t.json                  # summary table
 *   trace_report --validate t.json       # schema check only
 *
 * Run reports have their own validator, `slip-report validate`.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "util/json.hh"

using slip::json::Value;

namespace {

struct NameStats
{
    std::uint64_t count = 0;
    std::uint64_t tsMin = ~0ull;
    std::uint64_t tsMax = 0;
};

int
report(const std::string &path, bool validate_only)
{
    std::ifstream is(path);
    if (!is) {
        std::fprintf(stderr, "trace_report: cannot open %s\n",
                     path.c_str());
        return 1;
    }
    std::ostringstream buf;
    buf << is.rdbuf();

    Value root;
    std::string err;
    if (!Value::parse(buf.str(), root, &err)) {
        std::fprintf(stderr, "trace_report: %s: invalid JSON: %s\n",
                     path.c_str(), err.c_str());
        return 1;
    }
    const Value *events = root.find("traceEvents");
    if (!events || !events->isArray()) {
        std::fprintf(stderr,
                     "trace_report: %s: missing traceEvents array\n",
                     path.c_str());
        return 1;
    }

    // pid -> label (from process_name metadata events).
    std::map<std::uint64_t, std::string> names;
    // (pid, event name) -> stats.
    std::map<std::pair<std::uint64_t, std::string>, NameStats> stats;
    std::uint64_t total = 0;

    for (const Value &ev : events->elements()) {
        static const char *const required[] = {"ph", "ts", "pid", "tid",
                                               "name"};
        for (const char *key : required) {
            if (!ev.find(key)) {
                std::fprintf(
                    stderr,
                    "trace_report: %s: event missing \"%s\"\n",
                    path.c_str(), key);
                return 1;
            }
        }
        const std::string ph = ev.find("ph")->asString();
        const std::uint64_t pid = ev.find("pid")->asU64();
        const std::string name = ev.find("name")->asString();
        if (ph == "M") {
            const Value *args = ev.find("args");
            if (name == "process_name" && args && args->find("name"))
                names[pid] = args->find("name")->asString();
            continue;
        }
        if (ph != "i") {
            std::fprintf(stderr,
                         "trace_report: %s: unexpected phase \"%s\"\n",
                         path.c_str(), ph.c_str());
            return 1;
        }
        const std::uint64_t ts = ev.find("ts")->asU64();
        NameStats &ns = stats[{pid, name}];
        ++ns.count;
        if (ts < ns.tsMin)
            ns.tsMin = ts;
        if (ts > ns.tsMax)
            ns.tsMax = ts;
        ++total;
    }

    std::uint64_t dropped = 0;
    if (const Value *other = root.find("otherData"))
        if (const Value *d = other->find("dropped_events"))
            dropped = d->asU64();

    if (validate_only) {
        std::printf("%s: OK (%llu events, %llu dropped)\n",
                    path.c_str(), (unsigned long long)total,
                    (unsigned long long)dropped);
        return 0;
    }

    std::printf("%-44s %-16s %10s %12s %12s\n", "process", "event",
                "count", "ts_min", "ts_max");
    for (const auto &kv : stats) {
        const auto it = names.find(kv.first.first);
        std::string label = it != names.end()
                                ? it->second
                                : std::to_string(kv.first.first);
        if (label.size() > 44)
            label.resize(44);
        std::printf("%-44s %-16s %10llu %12llu %12llu\n", label.c_str(),
                    kv.first.second.c_str(),
                    (unsigned long long)kv.second.count,
                    (unsigned long long)kv.second.tsMin,
                    (unsigned long long)kv.second.tsMax);
    }
    std::printf("total: %llu events across %zu processes"
                " (%llu dropped at capture)\n",
                (unsigned long long)total, names.size(),
                (unsigned long long)dropped);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool validate_only = false;
    std::vector<std::string> paths;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--validate") == 0) {
            validate_only = true;
        } else if (std::strcmp(argv[i], "--help") == 0 ||
                   std::strcmp(argv[i], "-h") == 0) {
            std::puts("usage: trace_report [--validate] TRACE.json...");
            return 0;
        } else if (argv[i][0] == '-') {
            std::fprintf(stderr, "trace_report: unknown option '%s'\n",
                         argv[i]);
            return 1;
        } else {
            paths.push_back(argv[i]);
        }
    }
    if (paths.empty()) {
        std::fputs("usage: trace_report [--validate] TRACE.json...\n",
                   stderr);
        return 1;
    }
    int rc = 0;
    for (const auto &p : paths)
        if (report(p, validate_only))
            rc = 1;
    return rc;
}
