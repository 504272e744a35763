/**
 * @file
 * slip-lint: project-specific determinism and accounting linter.
 *
 * The repo's headline guarantee — byte-identical output across
 * --jobs, --run-threads, and scenario-vs-programmatic configs — rests
 * on source-level discipline that end-to-end golden fixtures can only
 * spot-check. This linter makes the discipline machine-checked on
 * every commit (ctest `slip_lint`, CI lint job). Rules:
 *
 *   nondeterminism     No rand()/srand()/std::random_device and no
 *                      wall-clock reads (system_clock,
 *                      high_resolution_clock, time(), gettimeofday,
 *                      localtime/gmtime) in src/. Seeded SplitMix/
 *                      xorshift streams are fine.
 *   monotonic-clock    steady_clock is confined to obs/telemetry.cc
 *                      (one pragma'd TU exporting monotonicNowNs()).
 *                      Durations are observation, not simulation
 *                      input, and funneling every clock read through
 *                      one function keeps that auditable.
 *   unordered-iteration No iteration over std::unordered_map/_set
 *                      (range-for or begin()/cbegin()) — hash
 *                      iteration order is libstdc++-version- and
 *                      pointer-dependent, so anything downstream of it
 *                      is not reproducible. Keyed find/emplace is fine.
 *   json-emission      All JSON is emitted through util/json (Value +
 *                      sorted keys + shortest-round-trip doubles);
 *                      hand-rolled `<< "\"key\":"` streaming silently
 *                      diverges on key order and double formatting.
 *   energy-pairing     Every mutation of a golden energyPj accumulator
 *                      is paired with an energy-ledger cause-bin add
 *                      (obs::ledgerAdd within the next three lines),
 *                      or aggregates already-attributed energy (the
 *                      right-hand side reads another energyPj), so the
 *                      per-cause ledger always sums to the golden
 *                      totals.
 *   perf-scope         perf::ScopedPhase / perf::Scope must be bound
 *                      to a named variable; a temporary destructs at
 *                      the semicolon and times nothing.
 *   spsc-confinement   pipe::SpscQueue is only referenced in
 *                      sim/pipeline.hh (the implementation) and
 *                      sim/system.cc (runWindowPipelined). The queue
 *                      discipline of DESIGN.md §5b (one producer per
 *                      core, merge pops index-major/core-minor) is
 *                      easy to break from anywhere else.
 *   raw-fopen          std::fopen/freopen only inside mem/trace_io*
 *                      (the buffered stdio/zlib byte layer). Everything
 *                      else goes through iostreams or TraceInput, so
 *                      error handling and the path-and-offset error
 *                      contract stay in one place.
 *
 * Suppression: append `// slip-lint: allow(rule)` (comma-separated
 * rules, or `allow(all)`) to the offending line or the line directly
 * above it. Suppressions are intentionally loud in review diffs.
 *
 * Usage: slip_lint <dir-or-file>... (exits 1 on findings)
 *        slip_lint --list-rules
 */

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <regex>
#include <set>
#include <string>
#include <vector>

namespace {

struct Finding
{
    std::string file;
    std::size_t line;
    std::string rule;
    std::string message;
};

struct RuleInfo
{
    const char *name;
    const char *summary;
};

constexpr RuleInfo kRules[] = {
    {"nondeterminism",
     "no rand()/random_device/wall-clock reads in src/"},
    {"monotonic-clock",
     "steady_clock confined to the obs/telemetry TU"},
    {"unordered-iteration",
     "no iteration over unordered_map/unordered_set"},
    {"json-emission", "JSON is emitted through util/json only"},
    {"energy-pairing",
     "energyPj mutations pair with a ledger cause-bin add"},
    {"perf-scope", "perf::ScopedPhase/Scope must be a named variable"},
    {"spsc-confinement",
     "SpscQueue only in sim/pipeline.hh and sim/system.cc"},
    {"raw-fopen",
     "std::fopen/freopen confined to mem/trace_io*"},
};

/** Strip line and block comment text so rules match code only.
 * Carries block-comment state across lines; string literals are left
 * in place (the json-emission rule needs them). */
std::string
stripComments(const std::string &line, bool &in_block)
{
    std::string out;
    out.reserve(line.size());
    bool in_str = false, in_chr = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
        const char c = line[i];
        const char n = i + 1 < line.size() ? line[i + 1] : '\0';
        if (in_block) {
            if (c == '*' && n == '/') {
                in_block = false;
                ++i;
            }
            continue;
        }
        if (in_str) {
            out += c;
            if (c == '\\' && n) {
                out += n;
                ++i;
            } else if (c == '"') {
                in_str = false;
            }
            continue;
        }
        if (in_chr) {
            out += c;
            if (c == '\\' && n) {
                out += n;
                ++i;
            } else if (c == '\'') {
                in_chr = false;
            }
            continue;
        }
        if (c == '/' && n == '/')
            break;
        if (c == '/' && n == '*') {
            in_block = true;
            ++i;
            continue;
        }
        if (c == '"')
            in_str = true;
        else if (c == '\'')
            in_chr = true;
        out += c;
    }
    return out;
}

/** Rules suppressed on @p line via `// slip-lint: allow(...)`. */
std::set<std::string>
allowedRules(const std::string &line)
{
    std::set<std::string> out;
    static const std::regex re(
        R"(//\s*slip-lint:\s*allow\(([^)]*)\))");
    std::smatch m;
    if (!std::regex_search(line, m, re))
        return out;
    std::string list = m[1].str();
    std::string cur;
    for (char c : list + ",") {
        if (c == ',') {
            if (!cur.empty())
                out.insert(cur);
            cur.clear();
        } else if (!std::isspace(static_cast<unsigned char>(c))) {
            cur += c;
        }
    }
    return out;
}

bool
suppressed(const std::vector<std::set<std::string>> &allows,
           std::size_t idx, const std::string &rule)
{
    const auto hit = [&](const std::set<std::string> &s) {
        return s.count(rule) != 0 || s.count("all") != 0;
    };
    if (hit(allows[idx]))
        return true;
    return idx > 0 && hit(allows[idx - 1]);
}

/** Variable/member names declared as unordered_map/unordered_set in
 * this file (heuristic: the identifier before ; = { ( on a line whose
 * type mentions unordered_). */
std::set<std::string>
unorderedNames(const std::vector<std::string> &code)
{
    std::set<std::string> names;
    static const std::regex decl(
        R"(unordered_(?:map|set)\s*<.*>\s+(\w+)\s*[;={(])");
    for (const std::string &line : code) {
        std::smatch m;
        if (std::regex_search(line, m, decl))
            names.insert(m[1].str());
    }
    return names;
}

void
lintFile(const std::filesystem::path &path, const std::string &rel,
         std::vector<Finding> &findings)
{
    std::ifstream is(path);
    if (!is) {
        findings.push_back({rel, 0, "io", "cannot open file"});
        return;
    }
    std::vector<std::string> raw;
    for (std::string line; std::getline(is, line);)
        raw.push_back(line);

    std::vector<std::string> code(raw.size());
    std::vector<std::set<std::string>> allows(raw.size());
    bool in_block = false;
    for (std::size_t i = 0; i < raw.size(); ++i) {
        allows[i] = allowedRules(raw[i]);
        code[i] = stripComments(raw[i], in_block);
    }

    const auto report = [&](std::size_t i, const char *rule,
                            const std::string &msg) {
        if (!suppressed(allows, i, rule))
            findings.push_back({rel, i + 1, rule, msg});
    };

    // nondeterminism -------------------------------------------------
    static const std::regex nondet(
        R"((^|[^\w:.])(rand|srand)\s*\(|std::random_device|random_device\s*\{|system_clock|high_resolution_clock|gettimeofday|localtime|gmtime|(^|[^\w:.])time\s*\(\s*(NULL|nullptr|0)\s*\))");
    // monotonic-clock ------------------------------------------------
    static const std::regex monoclock(R"(\bsteady_clock\b)");
    // unordered-iteration --------------------------------------------
    const std::set<std::string> unames = unorderedNames(code);
    // json-emission: a string literal that carries a JSON key
    // (`"...\"key\": ..."`) or an opening `"{"` being streamed.
    static const std::regex jsonlit(
        R"(\\\"[\w.-]+\\\"\s*:|<<\s*"\{")");
    // energy-pairing -------------------------------------------------
    static const std::regex echarge(
        R"((\w|\.|->)*energyPj\w*\s*(\[[^\]]*\])?\s*\+=)");
    // perf-scope: `perf::ScopedPhase(...)` with no variable name.
    static const std::regex perftmp(
        R"(perf::(ScopedPhase|Scope)\s*\()");
    static const std::regex spsc(R"(\bSpscQueue\b)");
    // raw-fopen: fopen/freopen outside the trace byte layer.
    static const std::regex rawfopen(
        R"((^|[^\w:.])(std::)?f(open|reopen)\s*\()");

    const bool is_json_impl = rel == "util/json.hh" ||
                              rel == "util/json.cc";
    const bool spsc_ok =
        rel == "sim/pipeline.hh" || rel == "sim/system.cc";
    const bool fopen_ok = rel.rfind("mem/trace_io", 0) == 0;

    for (std::size_t i = 0; i < code.size(); ++i) {
        const std::string &ln = code[i];
        if (ln.empty())
            continue;

        if (std::regex_search(ln, nondet))
            report(i, "nondeterminism",
                   "RNG or wall-clock primitive banned in src/ "
                   "(use seeded streams; durations via "
                   "obs::monotonicNowNs)");

        if (std::regex_search(ln, monoclock))
            report(i, "monotonic-clock",
                   "steady_clock outside obs/telemetry.cc; call "
                   "obs::monotonicNowNs() instead");

        for (const std::string &name : unames) {
            const std::regex iter(
                R"(for\s*\([^)]*:\s*)" + name + R"(\s*\)|\b)" + name +
                R"(\s*\.\s*c?begin\s*\()");
            if (std::regex_search(ln, iter))
                report(i, "unordered-iteration",
                       "iterating '" + name +
                           "' (unordered container: order is not "
                           "deterministic)");
        }

        if (!is_json_impl && std::regex_search(ln, jsonlit))
            report(i, "json-emission",
                   "hand-rolled JSON literal; emit through util/json");

        std::smatch em;
        if (std::regex_search(ln, em, echarge)) {
            const std::string rhs = em.suffix().str();
            const bool aggregates =
                rhs.find("energyPj") != std::string::npos;
            bool paired = false;
            for (std::size_t j = i; j < std::min(i + 4, code.size());
                 ++j)
                paired = paired ||
                         code[j].find("ledgerAdd") != std::string::npos;
            if (!aggregates && !paired)
                report(i, "energy-pairing",
                       "energyPj mutation without a ledgerAdd cause "
                       "bin within 3 lines");
        }

        if (std::regex_search(ln, perftmp))
            report(i, "perf-scope",
                   "perf scope temporary destructs immediately; bind "
                   "it to a named variable");

        if (!spsc_ok && std::regex_search(ln, spsc))
            report(i, "spsc-confinement",
                   "SpscQueue outside sim/pipeline.hh / sim/system.cc "
                   "(DESIGN.md §5b queue discipline)");

        if (!fopen_ok && std::regex_search(ln, rawfopen))
            report(i, "raw-fopen",
                   "raw std::fopen outside mem/trace_io* (use "
                   "iostreams, or TraceInput for trace bytes)");
    }
}

bool
isSource(const std::filesystem::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".cc" || ext == ".hh" || ext == ".cpp" ||
           ext == ".hpp";
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc >= 2 && std::string(argv[1]) == "--list-rules") {
        for (const RuleInfo &r : kRules)
            std::printf("%-20s %s\n", r.name, r.summary);
        return 0;
    }
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: slip_lint <dir-or-file>...\n"
                     "       slip_lint --list-rules\n");
        return 2;
    }

    // Collect files, sorted for deterministic output.
    std::vector<std::pair<std::filesystem::path, std::string>> files;
    for (int a = 1; a < argc; ++a) {
        const std::filesystem::path root(argv[a]);
        if (std::filesystem::is_directory(root)) {
            for (const auto &e :
                 std::filesystem::recursive_directory_iterator(root)) {
                if (e.is_regular_file() && isSource(e.path()))
                    files.emplace_back(
                        e.path(),
                        std::filesystem::relative(e.path(), root)
                            .generic_string());
            }
        } else {
            files.emplace_back(root, root.filename().string());
        }
    }
    std::sort(files.begin(), files.end(),
              [](const auto &a, const auto &b) {
                  return a.second < b.second;
              });

    std::vector<Finding> findings;
    for (const auto &[path, rel] : files)
        lintFile(path, rel, findings);

    for (const Finding &f : findings)
        std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
                  << f.message << "\n";
    std::cout << "slip-lint: " << files.size() << " files, "
              << findings.size() << " finding(s)\n";
    return findings.empty() ? 0 : 1;
}
