/**
 * @file
 * slip-report: validate, summarize, and regression-diff run reports.
 *
 * Consumes the `slip-report-v1` artifacts written by `slip-bench
 * --report-dir` and `slip-sim --report` (src/obs/report.hh) and the
 * NDJSON status streams written by `slip-bench --status-ndjson`.
 * Commands:
 *
 *   validate FILE...
 *       Schema check: required sections and keys present, every
 *       energy and result value a number, at least one level in
 *       energy.levels, only known ledger causes, per-level wire-segment
 *       energies sum to the level total, the cause-binned ledger sums
 *       to the same total (the accounting invariant), and the level
 *       totals + core + l1 + dram sum to full_system_pj.
 *
 *   summarize FILE...
 *       One table row per report: key, policy, workload, full-system
 *       pJ, dram pJ, cached/seconds when present.
 *
 *   diff A B [--timing-tolerance SECONDS]
 *       Regression gate between two reports. The deterministic
 *       sections (provenance sans run_threads, energy, result, epochs
 *       when both sides carry them) must match exactly — equal config
 *       means byte-equal numbers, the same guarantee the sweep makes.
 *       The volatile sections (timing, metrics, perf, result_cache)
 *       are ignored unless --timing-tolerance asks for a bounded
 *       seconds comparison. Exit 1 on any difference.
 *
 *   check --baseline DIR CANDIDATE_DIR
 *       Directory-level diff: every report in DIR must exist in
 *       CANDIDATE_DIR and diff clean. Extra candidate reports are
 *       listed but not fatal (new runs are additions, not
 *       regressions). Exit 1 on missing or differing reports.
 *
 *   status FILE
 *       Validate an NDJSON status stream: every line parses, the
 *       first event is `plan`, the finish-event key set equals the
 *       plan key set, fractions are monotone in (0,1], and the stream
 *       ends with a `done` event.
 *
 * Exit codes: 0 clean, 1 findings/regression, 2 usage or I/O error.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "util/json.hh"

namespace {

using slip::json::Value;

int g_errors = 0;
std::string g_context;

void
complain(const std::string &msg)
{
    ++g_errors;
    std::cout << g_context << ": " << msg << "\n";
}

bool
loadJson(const std::string &path, Value &out)
{
    std::ifstream is(path);
    if (!is) {
        std::cerr << "slip-report: cannot open " << path << "\n";
        return false;
    }
    std::stringstream ss;
    ss << is.rdbuf();
    std::string err;
    if (!Value::parse(ss.str(), out, &err)) {
        std::cerr << "slip-report: " << path << ": parse error: " << err
                  << "\n";
        return false;
    }
    return true;
}

const Value *
needKey(const Value &obj, const std::string &key)
{
    const Value *v = obj.find(key);
    if (!v)
        complain("missing key '" + key + "'");
    return v;
}

/** Relative (or absolute near zero) agreement of two sums. */
bool
closeEnough(double a, double b, double rel = 1e-9)
{
    const double scale = std::max(std::fabs(a), std::fabs(b));
    if (scale < 1e-6)
        return std::fabs(a - b) < 1e-9;
    return std::fabs(a - b) <= rel * scale;
}

// ---------------------------------------------------------------- validate

/** Ledger cause bins the simulator can emit (obs::causeName). An
 *  unrecognized bin would silently join the cause-sum identity, so
 *  validate rejects it instead. */
bool
isKnownCause(const std::string &name)
{
    static const char *const kCauses[] = {
        "demand_hit", "metadata_read", "fill",        "move",
        "writeback",  "tag_meta",      "mq_probe",    "eou_op",
        "dram_demand", "dram_metadata", "coherence",
    };
    for (const char *c : kCauses)
        if (name == c)
            return true;
    return false;
}

/** @p v as a number. Anything else is an error, named by @p where,
 *  and reads as 0. */
double
number(const Value &v, const std::string &where)
{
    if (!v.isNumber())
        complain(where + ": expected a number");
    return v.asDouble();
}

/** Check one level's sums; returns its total_pj (0 when missing). */
double
validateLevel(const std::string &name, const Value &lvl)
{
    const std::string where = "energy.levels." + name;
    const Value *segments = needKey(lvl, "segments");
    const Value *causes = needKey(lvl, "causes");
    const Value *total = needKey(lvl, "total_pj");
    if (!segments || !causes || !total)
        return 0.0;
    double seg_sum = 0;
    for (const auto &kv : segments->members())
        seg_sum += number(kv.second, where + ".segments." + kv.first);
    double cause_sum = 0;
    for (const auto &kv : causes->members()) {
        if (!isKnownCause(kv.first))
            complain("level " + name + ": unknown ledger cause '" +
                     kv.first + "'");
        const double pj =
            number(kv.second, where + ".causes." + kv.first);
        if (!(pj >= 0.0))
            complain("level " + name + ": negative ledger cause '" +
                     kv.first + "'");
        cause_sum += pj;
    }
    // Coherence-lite traffic (directory probes + write-invalidates)
    // is charged on the metadata wire segment, so the coherence bin
    // can never exceed that segment's total.
    if (const Value *coh = causes->find("coherence")) {
        const Value *meta = segments->find("metadata");
        const double m = meta ? meta->asDouble() : 0.0;
        if (coh->asDouble() > m * (1 + 1e-9) + 1e-6)
            complain("level " + name + ": coherence cause " +
                     slip::json::formatDouble(coh->asDouble()) +
                     " exceeds the metadata segment " +
                     slip::json::formatDouble(m));
    }
    const double t = number(*total, where + ".total_pj");
    if (!closeEnough(seg_sum, t))
        complain("level " + name + ": segment sum " +
                 slip::json::formatDouble(seg_sum) +
                 " != total_pj " + slip::json::formatDouble(t));
    if (!closeEnough(cause_sum, t, 1e-6))
        complain("level " + name + ": ledger cause sum " +
                 slip::json::formatDouble(cause_sum) +
                 " != total_pj " + slip::json::formatDouble(t) +
                 " (accounting invariant)");
    return t;
}

void
validateReport(const std::string &path, const Value &r)
{
    g_context = path;
    const Value *schema = needKey(r, "schema");
    if (schema && schema->asString() != "slip-report-v1")
        complain("unknown schema '" + schema->asString() + "'");

    if (const Value *prov = needKey(r, "provenance")) {
        for (const char *k :
             {"run_key", "label", "policy", "workload", "hierarchy_key",
              "cache_key_version", "run_threads", "refs", "warmup"})
            needKey(*prov, k);
    }

    const Value *energy = needKey(r, "energy");
    if (energy) {
        const Value *levels = needKey(*energy, "levels");
        const Value *core = needKey(*energy, "core_pj");
        const Value *l1 = needKey(*energy, "l1_pj");
        const Value *dram = needKey(*energy, "dram");
        const Value *full = needKey(*energy, "full_system_pj");
        double levels_sum = 0;
        if (levels) {
            // Every hierarchy has a level past the L1; a report that
            // lists none has dropped them.
            if (levels->members().empty())
                complain("energy.levels: expected at least one level");
            for (const auto &kv : levels->members())
                levels_sum += validateLevel(kv.first, kv.second);
        }
        double dram_total = 0;
        if (dram) {
            const Value *demand = needKey(*dram, "demand_pj");
            const Value *meta = needKey(*dram, "metadata_pj");
            const Value *total = needKey(*dram, "total_pj");
            if (demand && meta && total) {
                const double d = number(*demand, "energy.dram.demand_pj");
                const double m = number(*meta, "energy.dram.metadata_pj");
                dram_total = number(*total, "energy.dram.total_pj");
                if (!closeEnough(d + m, dram_total))
                    complain("dram demand_pj + metadata_pj != total_pj");
            }
        }
        if (core && l1 && full) {
            const double c = number(*core, "energy.core_pj");
            const double l = number(*l1, "energy.l1_pj");
            const double f = number(*full, "energy.full_system_pj");
            if (!closeEnough(levels_sum + c + l + dram_total, f))
                complain("core_pj + l1_pj + levels + dram.total_pj != "
                         "full_system_pj");
        }
    }

    if (const Value *result = needKey(r, "result")) {
        for (const char *k :
             {"cycles", "instructions", "dram_reads", "dram_writes",
              "dram_metadata_accesses", "dram_traffic_lines",
              "tlb_misses", "eou_ops"})
            if (const Value *v = needKey(*result, k))
                number(*v, std::string("result.") + k);
    }
}

int
cmdValidate(const std::vector<std::string> &files)
{
    for (const std::string &f : files) {
        Value r;
        if (!loadJson(f, r))
            return 2;
        validateReport(f, r);
    }
    std::cout << "slip-report validate: " << files.size() << " file(s), "
              << g_errors << " error(s)\n";
    return g_errors ? 1 : 0;
}

// ---------------------------------------------------------------- summarize

int
cmdSummarize(const std::vector<std::string> &files)
{
    std::printf("%-44s %-10s %-18s %14s %14s %9s\n", "run_key", "policy",
                "workload", "full_system_pj", "dram_pj", "seconds");
    for (const std::string &f : files) {
        Value r;
        if (!loadJson(f, r))
            return 2;
        const Value *prov = r.find("provenance");
        const Value *energy = r.find("energy");
        const Value *timing = r.find("timing");
        const auto str = [](const Value *obj, const char *k) {
            const Value *v = obj ? obj->find(k) : nullptr;
            return v ? v->asString() : std::string("?");
        };
        const auto num = [](const Value *obj, const char *k) {
            const Value *v = obj ? obj->find(k) : nullptr;
            return v ? v->asDouble() : 0.0;
        };
        const Value *dram = energy ? energy->find("dram") : nullptr;
        std::string secs = "-";
        if (timing) {
            char buf[32];
            std::snprintf(buf, sizeof buf, "%.2f%s",
                          num(timing, "seconds"),
                          timing->find("cached") &&
                                  timing->find("cached")->asBool()
                              ? "*"
                              : "");
            secs = buf;
        }
        std::printf("%-44s %-10s %-18s %14.1f %14.1f %9s\n",
                    str(prov, "run_key").c_str(),
                    str(prov, "policy").c_str(),
                    str(prov, "workload").c_str(),
                    num(energy, "full_system_pj"), num(dram, "total_pj"),
                    secs.c_str());
    }
    return 0;
}

// ---------------------------------------------------------------- diff

/** Report every leaf path where @p a and @p b differ (exact). */
void
diffExact(const std::string &path, const Value *a, const Value *b)
{
    if (!a && !b)
        return;
    if (!a || !b) {
        complain(path + ": present only in " + (a ? "A" : "B"));
        return;
    }
    if (a->isObject() && b->isObject()) {
        std::set<std::string> keys;
        for (const auto &kv : a->members())
            keys.insert(kv.first);
        for (const auto &kv : b->members())
            keys.insert(kv.first);
        for (const std::string &k : keys)
            diffExact(path + "." + k, a->find(k), b->find(k));
        return;
    }
    if (a->isArray() && b->isArray()) {
        if (a->size() != b->size()) {
            complain(path + ": array length " +
                     std::to_string(a->size()) + " != " +
                     std::to_string(b->size()));
            return;
        }
        for (std::size_t i = 0; i < a->size(); ++i)
            diffExact(path + "[" + std::to_string(i) + "]",
                      &a->elements()[i], &b->elements()[i]);
        return;
    }
    if (a->dump() != b->dump())
        complain(path + ": " + a->dump() + " != " + b->dump());
}

int
diffReports(const std::string &pa, const Value &a, const std::string &pb,
            const Value &b, double timing_tolerance)
{
    const int before = g_errors;
    g_context = pa + " vs " + pb;

    // Provenance must agree field-wise except run_threads (the
    // pipelining width is explicitly outcome-neutral) and label
    // (cosmetic).
    const Value *prov_a = a.find("provenance");
    const Value *prov_b = b.find("provenance");
    if (prov_a && prov_b) {
        std::set<std::string> keys;
        for (const auto &kv : prov_a->members())
            keys.insert(kv.first);
        for (const auto &kv : prov_b->members())
            keys.insert(kv.first);
        for (const std::string &k : keys) {
            if (k == "run_threads" || k == "label")
                continue;
            diffExact("provenance." + k, prov_a->find(k),
                      prov_b->find(k));
        }
    } else {
        complain("provenance section missing");
    }

    // Deterministic sections: exact.
    diffExact("energy", a.find("energy"), b.find("energy"));
    diffExact("result", a.find("result"), b.find("result"));
    const Value *ea = a.find("epochs");
    const Value *eb = b.find("epochs");
    if (ea && eb)
        diffExact("epochs", ea, eb);
    else if (ea != eb)
        std::cout << g_context
                  << ": note: epochs present on one side only "
                     "(not collected for cached runs); skipping\n";

    // Volatile sections: only the optional bounded timing check.
    if (timing_tolerance >= 0) {
        const Value *ta = a.find("timing");
        const Value *tb = b.find("timing");
        if (ta && tb) {
            const double sa =
                ta->find("seconds") ? ta->find("seconds")->asDouble() : 0;
            const double sb =
                tb->find("seconds") ? tb->find("seconds")->asDouble() : 0;
            if (std::fabs(sa - sb) > timing_tolerance)
                complain("timing.seconds differ by more than " +
                         slip::json::formatDouble(timing_tolerance) +
                         "s: " + slip::json::formatDouble(sa) + " vs " +
                         slip::json::formatDouble(sb));
        }
    }
    return g_errors - before;
}

int
diffUsage()
{
    std::cerr << "usage: slip-report diff A.json B.json "
                 "[--timing-tolerance SECONDS]\n";
    return 2;
}

int
cmdDiff(std::vector<std::string> args)
{
    double timing_tolerance = -1;
    for (std::size_t i = 0; i < args.size();) {
        if (args[i] == "--timing-tolerance" && i + 1 < args.size()) {
            const char *text = args[i + 1].c_str();
            char *end = nullptr;
            timing_tolerance = std::strtod(text, &end);
            if (end == text || *end != '\0' || !(timing_tolerance >= 0)) {
                std::cerr << "slip-report: --timing-tolerance needs a "
                             "non-negative number of seconds, got '"
                          << text << "'\n";
                return diffUsage();
            }
            args.erase(args.begin() + long(i), args.begin() + long(i) + 2);
        } else {
            ++i;
        }
    }
    if (args.size() != 2)
        return diffUsage();
    Value a, b;
    if (!loadJson(args[0], a) || !loadJson(args[1], b))
        return 2;
    diffReports(args[0], a, args[1], b, timing_tolerance);
    if (g_errors) {
        std::cout << "slip-report diff: " << g_errors
                  << " difference(s)\n";
        return 1;
    }
    std::cout << "slip-report diff: reports match\n";
    return 0;
}

// ---------------------------------------------------------------- check

int
cmdCheck(std::vector<std::string> args)
{
    std::string baseline;
    for (std::size_t i = 0; i < args.size();) {
        if (args[i] == "--baseline" && i + 1 < args.size()) {
            baseline = args[i + 1];
            args.erase(args.begin() + long(i), args.begin() + long(i) + 2);
        } else {
            ++i;
        }
    }
    if (baseline.empty() || args.size() != 1) {
        std::cerr << "usage: slip-report check --baseline DIR "
                     "CANDIDATE_DIR\n";
        return 2;
    }
    const std::string candidate = args[0];
    if (!std::filesystem::is_directory(baseline) ||
        !std::filesystem::is_directory(candidate)) {
        std::cerr << "slip-report: check needs two directories\n";
        return 2;
    }

    // Sorted for deterministic output.
    std::vector<std::string> names;
    for (const auto &e : std::filesystem::directory_iterator(baseline))
        if (e.is_regular_file() && e.path().extension() == ".json")
            names.push_back(e.path().filename().string());
    std::sort(names.begin(), names.end());

    std::size_t matched = 0;
    for (const std::string &name : names) {
        const std::string base_path = baseline + "/" + name;
        const std::string cand_path = candidate + "/" + name;
        g_context = name;
        if (!std::filesystem::exists(cand_path)) {
            complain("baseline report missing from candidate dir");
            continue;
        }
        Value a, b;
        if (!loadJson(base_path, a) || !loadJson(cand_path, b))
            return 2;
        if (diffReports(base_path, a, cand_path, b, -1) == 0)
            ++matched;
    }

    // New candidate reports are informational, not regressions.
    for (const auto &e : std::filesystem::directory_iterator(candidate)) {
        if (!e.is_regular_file() || e.path().extension() != ".json")
            continue;
        const std::string name = e.path().filename().string();
        if (!std::filesystem::exists(baseline + "/" + name))
            std::cout << name << ": note: no baseline (new run)\n";
    }

    std::cout << "slip-report check: " << matched << "/" << names.size()
              << " baseline report(s) match, " << g_errors
              << " error(s)\n";
    return g_errors ? 1 : 0;
}

// ---------------------------------------------------------------- status

int
cmdStatus(const std::vector<std::string> &files)
{
    if (files.size() != 1) {
        std::cerr << "usage: slip-report status FILE\n";
        return 2;
    }
    std::ifstream is(files[0]);
    if (!is) {
        std::cerr << "slip-report: cannot open " << files[0] << "\n";
        return 2;
    }
    g_context = files[0];

    std::set<std::string> plan_keys;
    std::set<std::string> finished;
    bool saw_plan = false, saw_done = false;
    double last_fraction = 0;
    std::size_t lineno = 0;
    for (std::string line; std::getline(is, line);) {
        ++lineno;
        if (line.empty())
            continue;
        Value v;
        std::string err;
        if (!Value::parse(line, v, &err)) {
            complain("line " + std::to_string(lineno) +
                     ": not JSON: " + err);
            continue;
        }
        const Value *ev = v.find("event");
        const Value *ts = v.find("ts_ms");
        if (!ev || !ts) {
            complain("line " + std::to_string(lineno) +
                     ": missing event/ts_ms");
            continue;
        }
        const std::string kind = ev->asString();
        if (!saw_plan && kind != "plan")
            complain("line " + std::to_string(lineno) +
                     ": first event is '" + kind + "', expected 'plan'");
        if (kind == "plan") {
            saw_plan = true;
            if (const Value *keys = v.find("keys"))
                for (const Value &k : keys->elements())
                    plan_keys.insert(k.asString());
            const Value *runs = v.find("runs");
            if (runs && runs->asU64() != plan_keys.size())
                complain("plan: runs != |keys| (" +
                         std::to_string(runs->asU64()) + " vs " +
                         std::to_string(plan_keys.size()) + ")");
        } else if (kind == "finish") {
            const Value *key = v.find("key");
            if (key)
                finished.insert(key->asString());
            const Value *frac = v.find("fraction");
            if (frac) {
                const double f = frac->asDouble();
                if (f <= 0 || f > 1.0)
                    complain("line " + std::to_string(lineno) +
                             ": fraction " +
                             slip::json::formatDouble(f) +
                             " outside (0,1]");
                if (f + 1e-12 < last_fraction)
                    complain("line " + std::to_string(lineno) +
                             ": fraction went backwards");
                last_fraction = f;
            }
        } else if (kind == "done") {
            saw_done = true;
        }
    }
    if (!saw_plan)
        complain("no plan event");
    if (!saw_done)
        complain("no done event");
    if (finished != plan_keys) {
        for (const std::string &k : plan_keys)
            if (!finished.count(k))
                complain("planned run never finished: " + k);
        for (const std::string &k : finished)
            if (!plan_keys.count(k))
                complain("finish event for unplanned run: " + k);
    }
    std::cout << "slip-report status: " << finished.size() << "/"
              << plan_keys.size() << " run(s) finished, " << g_errors
              << " error(s)\n";
    return g_errors ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::cerr
            << "usage: slip-report validate FILE...\n"
               "       slip-report summarize FILE...\n"
               "       slip-report diff A.json B.json "
               "[--timing-tolerance SECONDS]\n"
               "       slip-report check --baseline DIR CANDIDATE_DIR\n"
               "       slip-report status FILE\n";
        return 2;
    }
    const std::string cmd = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);
    if (cmd == "validate")
        return cmdValidate(args);
    if (cmd == "summarize")
        return cmdSummarize(args);
    if (cmd == "diff")
        return cmdDiff(args);
    if (cmd == "check")
        return cmdCheck(args);
    if (cmd == "status")
        return cmdStatus(args);
    std::cerr << "slip-report: unknown command '" << cmd << "'\n";
    return 2;
}
