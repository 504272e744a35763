#include "scenario/scenario.hh"

#include <fstream>
#include <sstream>

#include "cache/replacement.hh"
#include "energy/topology.hh"
#include "workloads/spec_suite.hh"
#include "workloads/trace_workload.hh"

namespace slip {

namespace {

bool
hasKey(std::initializer_list<const char *> allowed,
       const std::string &key)
{
    for (const char *k : allowed)
        if (key == k)
            return true;
    return false;
}

std::string
checkKeys(const json::Value &obj, const std::string &path,
          std::initializer_list<const char *> allowed)
{
    for (const auto &kv : obj.members())
        if (!hasKey(allowed, kv.first))
            return path + "." + kv.first + ": unknown key";
    return "";
}

std::string
getString(const json::Value &obj, const std::string &path,
          const char *key, std::string &out)
{
    const json::Value *v = obj.find(key);
    if (!v)
        return "";
    if (!v->isString())
        return path + "." + key + ": expected a string";
    out = v->asString();
    return "";
}

std::string
getBool(const json::Value &obj, const std::string &path,
        const char *key, bool &out)
{
    const json::Value *v = obj.find(key);
    if (!v)
        return "";
    if (v->kind() != json::Value::Kind::Bool)
        return path + "." + key + ": expected true or false";
    out = v->asBool();
    return "";
}

std::string
getU64(const json::Value &obj, const std::string &path, const char *key,
       std::uint64_t &out)
{
    const json::Value *v = obj.find(key);
    if (!v)
        return "";
    if (v->kind() == json::Value::Kind::UInt) {
        out = v->asU64();
        return "";
    }
    if (v->kind() == json::Value::Kind::Int) {
        if (v->asI64() < 0)
            return path + "." + key + ": must be non-negative";
        out = v->asU64();
        return "";
    }
    return path + "." + key + ": expected a non-negative integer";
}

std::string
getUnsigned(const json::Value &obj, const std::string &path,
            const char *key, unsigned &out)
{
    std::uint64_t wide = out;
    const std::string err = getU64(obj, path, key, wide);
    if (!err.empty())
        return err;
    if (wide > 0xffffffffull)
        return path + "." + key + ": value out of range";
    out = static_cast<unsigned>(wide);
    return "";
}

/** Absent = leave unset (inherit); a bool overrides. */
std::string
getOptBool(const json::Value &obj, const std::string &path,
           const char *key, std::optional<bool> &out)
{
    bool b = false;
    const std::string err = getBool(obj, path, key, b);
    if (err.empty() && obj.find(key))
        out = b;
    return err;
}

/**
 * A name parsed by @p parse ("unknown <what> 'x'" otherwise). Absent
 * leaves @p out as it is: a system knob keeps its default, a level
 * field stays unset (inherit).
 */
template <class T, class Out>
std::string
getNamed(const json::Value &obj, const std::string &path,
         const char *key, bool (*parse)(const std::string &, T &),
         const char *what, Out &out)
{
    std::string name;
    std::string err = getString(obj, path, key, name);
    if (!err.empty() || !obj.find(key))
        return err;
    T value;
    if (!parse(name, value))
        return path + "." + key + ": unknown " + what + " '" + name +
               "'";
    out = value;
    return "";
}

std::string
parseLevel(const json::Value &v, const std::string &path, LevelSpec &l)
{
    if (!v.isObject())
        return path + ": expected an object";
    std::string err = checkKeys(
        v, path,
        {"name", "size_kb", "ways", "private", "inclusive", "policy",
         "topology", "repl", "random_victim", "energy", "latency",
         "sublevel_ways", "ways_per_row", "seed_mul", "seed_add",
         "slices", "coherence"});
    if (!err.empty())
        return err;

    if (!v.find("name"))
        return path + ".name: required";
    if (!v.find("size_kb"))
        return path + ".size_kb: required";
    if (!v.find("ways"))
        return path + ".ways: required";

    if (!(err = getString(v, path, "name", l.name)).empty())
        return err;
    std::uint64_t size_kb = 0;
    if (!(err = getU64(v, path, "size_kb", size_kb)).empty())
        return err;
    l.sizeBytes = size_kb * 1024;
    if (!(err = getUnsigned(v, path, "ways", l.ways)).empty())
        return err;
    if (!(err = getBool(v, path, "private", l.isPrivate)).empty())
        return err;
    if (!(err = getOptBool(v, path, "inclusive", l.inclusive)).empty())
        return err;
    if (!(err = getNamed(v, path, "policy", parsePolicyKind, "policy",
                         l.policy))
             .empty())
        return err;
    if (!(err = getNamed(v, path, "topology", parseTopologyKind,
                         "topology", l.topology))
             .empty())
        return err;
    if (!(err = getNamed(v, path, "repl", parseReplKind, "replacement",
                         l.repl))
             .empty())
        return err;
    if (!(err = getOptBool(v, path, "random_victim", l.randomVictim))
             .empty())
        return err;
    if (!(err = getNamed(v, path, "energy", parseEnergyRef,
                         "energy reference", l.energy))
             .empty())
        return err;
    unsigned latency = l.latency;
    if (!(err = getUnsigned(v, path, "latency", latency)).empty())
        return err;
    l.latency = latency;
    if (!(err = getUnsigned(v, path, "slices", l.slices)).empty())
        return err;
    bool coherent = l.coherent;
    if (!(err = getBool(v, path, "coherence", coherent)).empty())
        return err;
    l.coherent = coherent;

    if (const json::Value *sw = v.find("sublevel_ways")) {
        if (!sw->isArray() || sw->size() != kNumSublevels)
            return path + ".sublevel_ways: expected an array of " +
                   std::to_string(kNumSublevels) + " integers";
        // When sublevel_ways is given, ways defaults the partition —
        // validate() still checks the sum.
        for (unsigned i = 0; i < kNumSublevels; ++i) {
            const json::Value &e = sw->elements()[i];
            if (!e.isNumber() ||
                e.kind() == json::Value::Kind::Double ||
                e.asI64() < 0)
                return path + ".sublevel_ways[" + std::to_string(i) +
                       "]: expected a non-negative integer";
            l.sublevelWays[i] = static_cast<unsigned>(e.asU64());
        }
    } else {
        // Default partition: scale the classic 1/4:1/4:1/2 split.
        const unsigned q = l.ways / 4;
        if (q > 0 && l.ways % 4 == 0)
            l.sublevelWays = {q, q, l.ways - 2 * q};
        else
            l.sublevelWays = {1, 1, l.ways > 2 ? l.ways - 2 : 1};
    }
    if (v.find("ways_per_row")) {
        if (!(err = getUnsigned(v, path, "ways_per_row", l.waysPerRow))
                 .empty())
            return err;
    } else {
        l.waysPerRow = l.ways >= 4 ? l.ways / 4 : 1;
    }
    if (!(err = getU64(v, path, "seed_mul", l.seedMul)).empty())
        return err;
    if (!(err = getU64(v, path, "seed_add", l.seedAdd)).empty())
        return err;
    return "";
}

/** "level N ('name')<rest>" (hierarchy-level diagnostics) ->
 * "$.levels[N]<rest>", so "level 3 ('l4').policy: ..." names the
 * JSON path "$.levels[3].policy". */
std::string
rewriteLevelError(const std::string &msg)
{
    const std::size_t end = msg.find_first_not_of("0123456789", 6);
    if (msg.compare(0, 6, "level ") == 0 && end != 6 &&
        end != std::string::npos) {
        const std::size_t close = msg.find("')", end);
        const std::size_t rest =
            msg.compare(end, 3, " ('") == 0 && close != std::string::npos
                ? close + 2
                : end;
        return "$.levels[" + msg.substr(6, end - 6) + "]" +
               msg.substr(rest);
    }
    return "$.levels: " + msg;
}

} // namespace

std::string
parseScenario(const json::Value &root, Scenario &out)
{
    out = Scenario{};
    if (!root.isObject())
        return "$: scenario must be a JSON object";
    std::string err = checkKeys(
        root, "$",
        {"name", "description", "policy", "tech", "topology", "repl",
         "random_victim", "inclusive_llc", "cores", "workload",
         "workloads", "refs", "warmup", "rd_bin_bits", "sampling",
         "eou_include_insertion", "rd_block_pages", "seed",
         "workload_seed", "run_threads", "levels"});
    if (!err.empty())
        return err;

    if (!(err = getString(root, "$", "name", out.name)).empty())
        return err;
    if (out.name.empty())
        return "$.name: required";
    if (!(err = getString(root, "$", "description", out.description))
             .empty())
        return err;
    SystemConfig &cfg = out.config;
    std::string tech = cfg.tech.name;
    if (!(err = getNamed(root, "$", "policy", parsePolicyKind, "policy",
                         cfg.policy))
             .empty())
        return err;
    if (!(err = getString(root, "$", "tech", tech)).empty())
        return err;
    if (tech == "22nm")
        cfg.tech = tech22nm();
    else if (tech != "45nm")
        return "$.tech: unknown technology '" + tech +
               "' (want 45nm|22nm)";
    if (!(err = getNamed(root, "$", "topology", parseTopologyKind,
                         "topology", cfg.topology))
             .empty())
        return err;
    if (!(err = getNamed(root, "$", "repl", parseReplKind,
                         "replacement", cfg.repl))
             .empty())
        return err;
    if (!(err = getBool(root, "$", "random_victim",
                        cfg.randomSublevelVictim))
             .empty())
        return err;
    if (!(err = getBool(root, "$", "inclusive_llc", cfg.inclusiveL3))
             .empty())
        return err;
    if (!(err = getUnsigned(root, "$", "cores", cfg.numCores)).empty())
        return err;
    if (cfg.numCores < 1 || cfg.numCores > 64)
        return "$.cores: must be in [1, 64]";

    const json::Value *w = root.find("workload");
    const json::Value *ws = root.find("workloads");
    if (w && ws)
        return "$.workloads: give either workload or workloads, "
               "not both";
    if (w) {
        if (!w->isString())
            return "$.workload: expected a string";
        out.workloads.push_back(w->asString());
    } else if (ws) {
        if (!ws->isArray() || ws->size() == 0)
            return "$.workloads: expected a non-empty array of "
                   "strings";
        for (std::size_t i = 0; i < ws->size(); ++i) {
            const json::Value &e = ws->elements()[i];
            if (!e.isString())
                return "$.workloads[" + std::to_string(i) +
                       "]: expected a string";
            out.workloads.push_back(e.asString());
        }
    } else {
        return "$.workload: required (or $.workloads)";
    }
    if (out.workloads.size() != 1 &&
        out.workloads.size() != cfg.numCores)
        return "$.workloads: need exactly 1 entry or one per core (" +
               std::to_string(cfg.numCores) + ")";

    if (!(err = getU64(root, "$", "refs", out.refs)).empty())
        return err;
    if (!(err = getU64(root, "$", "warmup", out.warmup)).empty())
        return err;
    if (!(err = getUnsigned(root, "$", "rd_bin_bits", cfg.rdBinBits))
             .empty())
        return err;
    if (cfg.rdBinBits < 1 || cfg.rdBinBits > 16)
        return "$.rd_bin_bits: must be in [1, 16]";
    std::string sampling = "time";
    if (!(err = getString(root, "$", "sampling", sampling)).empty())
        return err;
    if (sampling != "time" && sampling != "always")
        return "$.sampling: expected \"time\" or \"always\"";
    if (sampling == "always")
        cfg.samplingMode = SamplingMode::Always;
    if (!(err = getBool(root, "$", "eou_include_insertion",
                        cfg.eouIncludeInsertion))
             .empty())
        return err;
    if (!(err = getUnsigned(root, "$", "rd_block_pages",
                            cfg.rdBlockPages))
             .empty())
        return err;
    if (cfg.rdBlockPages < 1)
        return "$.rd_block_pages: must be >= 1";
    if (!(err = getU64(root, "$", "seed", cfg.seed)).empty())
        return err;
    if (!(err = getU64(root, "$", "workload_seed", out.workloadSeed))
             .empty())
        return err;
    if (!(err = getUnsigned(root, "$", "run_threads", out.runThreads))
             .empty())
        return err;

    if (const json::Value *levels = root.find("levels")) {
        if (!levels->isArray())
            return "$.levels: expected an array";
        for (std::size_t i = 0; i < levels->size(); ++i) {
            LevelSpec l;
            err = parseLevel(levels->elements()[i],
                             "$.levels[" + std::to_string(i) + "]", l);
            if (!err.empty())
                return err;
            cfg.hierarchy.levels.push_back(std::move(l));
        }
    }
    return validateScenario(out);
}

std::string
parseScenarioText(const std::string &text, Scenario &out)
{
    json::Value root;
    std::string err;
    if (!json::Value::parse(text, root, &err))
        return "invalid JSON: " + err;
    return parseScenario(root, out);
}

std::string
loadScenarioFile(const std::string &path, Scenario &out)
{
    std::ifstream in(path);
    if (!in)
        return "cannot open scenario file '" + path + "'";
    std::ostringstream text;
    text << in.rdbuf();
    const std::string err = parseScenarioText(text.str(), out);
    if (!err.empty())
        return path + ": " + err;
    return "";
}

std::string
validateScenario(const Scenario &s)
{
    const SystemConfig &cfg = s.config;
    for (std::size_t i = 0; i < s.workloads.size(); ++i) {
        const std::string &w = s.workloads[i];
        // `trace:` workloads are validated against the file itself
        // (openable, sane header, enough cores, nonempty) so a bad
        // trace is rejected here rather than aborting mid-run.
        if (isTraceWorkload(w)) {
            const std::string terr =
                validateTraceWorkload(w, cfg.numCores);
            if (!terr.empty())
                return "$.workloads[" + std::to_string(i) +
                       "]: " + terr;
        } else if (!isKnownWorkload(w)) {
            return "$.workloads[" + std::to_string(i) +
                   "]: unknown workload '" + w + "'";
        }
    }

    std::string err;
    if (resolveLevels(cfg, &err).empty())
        return rewriteLevelError(err);
    return "";
}

SystemConfig
scenarioSystemConfig(const Scenario &s)
{
    SystemConfig cfg = s.config;
    if (s.runThreads)
        cfg.runThreads = s.runThreads;
    return cfg;
}

json::Value
scenarioJson(const Scenario &s)
{
    json::Value root = json::Value::object();
    root["name"] = s.name;
    if (!s.description.empty())
        root["description"] = s.description;
    const SystemConfig &cfg = s.config;
    root["policy"] = policyCliName(cfg.policy);
    root["tech"] = cfg.tech.name;
    root["topology"] = topologyCliName(cfg.topology);
    root["repl"] = replCliName(cfg.repl);
    if (cfg.randomSublevelVictim)
        root["random_victim"] = true;
    if (cfg.inclusiveL3)
        root["inclusive_llc"] = true;
    root["cores"] = cfg.numCores;
    if (s.workloads.size() == 1) {
        root["workload"] = s.workloads[0];
    } else {
        json::Value &ws = root["workloads"];
        ws = json::Value::array();
        for (const std::string &w : s.workloads)
            ws.push(w);
    }
    if (s.refs)
        root["refs"] = s.refs;
    if (s.warmup)
        root["warmup"] = s.warmup;
    root["rd_bin_bits"] = cfg.rdBinBits;
    root["sampling"] =
        cfg.samplingMode == SamplingMode::Always ? "always" : "time";
    if (!cfg.eouIncludeInsertion)
        root["eou_include_insertion"] = false;
    if (cfg.rdBlockPages != 1)
        root["rd_block_pages"] = cfg.rdBlockPages;
    root["seed"] = cfg.seed;
    if (s.workloadSeed)
        root["workload_seed"] = s.workloadSeed;
    if (s.runThreads)
        root["run_threads"] = s.runThreads;
    if (!cfg.hierarchy.empty()) {
        json::Value &levels = root["levels"];
        levels = json::Value::array();
        for (const LevelSpec &l : cfg.hierarchy.levels) {
            json::Value v = json::Value::object();
            v["name"] = l.name;
            v["size_kb"] = l.sizeBytes / 1024;
            v["ways"] = l.ways;
            v["private"] = l.isPrivate;
            if (l.inclusive)
                v["inclusive"] = *l.inclusive;
            if (l.policy)
                v["policy"] = policyCliName(*l.policy);
            if (l.topology)
                v["topology"] = topologyCliName(*l.topology);
            if (l.repl)
                v["repl"] = replCliName(*l.repl);
            if (l.randomVictim)
                v["random_victim"] = *l.randomVictim;
            if (l.energy)
                v["energy"] = energyRefCliName(*l.energy);
            v["latency"] = static_cast<std::uint64_t>(l.latency);
            json::Value &sw = v["sublevel_ways"];
            sw = json::Value::array();
            for (unsigned wy : l.sublevelWays)
                sw.push(wy);
            v["ways_per_row"] = l.waysPerRow;
            if (l.slices != 1)
                v["slices"] = l.slices;
            if (l.coherent)
                v["coherence"] = true;
            if (l.seedMul) {
                v["seed_mul"] = l.seedMul;
                v["seed_add"] = l.seedAdd;
            }
            levels.push(std::move(v));
        }
    }
    return root;
}

} // namespace slip
