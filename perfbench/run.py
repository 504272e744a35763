#!/usr/bin/env python3
"""The SLIP simulator benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one table
    python3 perfbench/run.py --self-check        # perturbed references fail
    python3 perfbench/run.py --pin               # default-seed output digests

The first run builds perfbench/ (which builds the simulator through the
repository's own CMakeLists.txt) into .bench_build/. Generated inputs,
reference outputs, traces and result files go there as well; nothing is
written outside the checkout.

Each invocation generates its inputs from --seed, runs the workload once
untimed as the reference (which also warms the host), then repeats it
within --seconds, one process per run, and checks every run's output against the
reference and the default seed's output against the digest pinned in
perfbench/manifest.json. With --trace 0 it prints the end-to-end metrics
(median over the runs, with quartiles and sample count); with --trace 1 it
adds one traced run and prints the per-layer metrics. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. A full record (samples, spans, provenance) is written
to .bench_build/results/.
"""

import argparse
import functools
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "manifest.json")
WORK = os.path.join(ROOT, ".bench_build")

DEFAULT_SEED = 1
MIN_RUNS = 3
# Stop starting timed runs this long after the invocation began, so it
# ends well inside three minutes even when runs are slow.
BUDGET_S = 120.0
RUN_TIMEOUT_S = 120.0

# Warm-up and measured references per core (equal), and how each
# workload is driven. --smoke divides the lengths for quick checks.
WORKLOADS = {
    "soplex_slip": {"kind": "run", "scenario": "golden_soplex_slip.json",
                    "refs": 1_000_000},
    "shared16_rt4": {"kind": "run", "scenario": "hier3_shared16.json",
                     "refs": 50_000, "reference_threads": 1},
    "trace_replay": {"kind": "trace",
                     "scenario": "golden_soplex_baseline.json",
                     "refs": 1_000_000},
    "sweep_cold": {"kind": "sweep", "refs": 30_000, "jobs": 4},
}
SMOKE_DIVISOR = 20


class BenchError(Exception):
    """A failure that ends the invocation without a result."""


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("SLIP_")}
    env["TMPDIR"] = os.path.join(WORK, "tmp")
    return env


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def sha256_file(path, h=None):
    h = h or hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h


def summary(values):
    """Median, quartiles and sample count of one metric."""
    values = sorted(values)
    if not values:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def load_manifest():
    with open(MANIFEST) as f:
        return json.load(f)


# --------------------------------------------------------------------
# Build and harness processes
# --------------------------------------------------------------------

def check_checkout():
    for rel in ("CMakeLists.txt", "src/CMakeLists.txt",
                "bench/CMakeLists.txt", "scenarios"):
        if not os.path.exists(os.path.join(ROOT, rel)):
            raise BenchError(f"not a slip checkout: {rel} is missing "
                             f"under {ROOT}")


def build():
    """Configure once, then bring slip-perfbench up to date."""
    cmake_dir = os.path.join(WORK, "cmake")
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    cache = os.path.join(cmake_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(cmake_dir)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", cmake_dir, "--target", "slip-perfbench",
              "-j", jobs]]
    if not os.path.exists(cache):
        steps.insert(0, ["cmake", "-S", HERE, "-B", cmake_dir])
    with open(os.path.join(WORK, "build.log"), "a") as out:
        for cmd in steps:
            p = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                               env=child_env(), cwd=ROOT, timeout=850)
            if p.returncode != 0:
                raise BenchError(f"build failed: {' '.join(cmd)} (see "
                                 f"{os.path.join(WORK, 'build.log')})")
    return os.path.join(cmake_dir, "slip-perfbench")


def harness(binary, sub, args, out_json, stdout_path=None):
    """Run one harness process; its result object, or None on failure."""
    if os.path.exists(out_json):
        os.remove(out_json)
    cmd = [binary, sub] + [str(a) for a in args] + ["--out", out_json]
    stdout = open(stdout_path, "w") if stdout_path else subprocess.DEVNULL
    try:
        p = subprocess.run(cmd, stdout=stdout, stderr=subprocess.PIPE,
                           env=child_env(), cwd=ROOT, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"timeout: {' '.join(cmd)}")
        return None
    finally:
        if stdout_path:
            stdout.close()
    if p.returncode != 0 or not os.path.exists(out_json):
        log(f"failed (exit {p.returncode}): {' '.join(cmd)}\n"
            f"{p.stderr[-2000:]}")
        return None
    with open(out_json) as f:
        return json.load(f)


@functools.lru_cache(maxsize=None)
def binary_hash(binary):
    """Short sha256 of the harness binary, which links the simulator
    statically: any change to the program under test changes it."""
    return sha256_file(binary).hexdigest()[:16]


def cached(key, compute):
    """compute() once per @key, kept under WORK/refcache. A key names
    everything the value depends on (see Workload.key)."""
    path = os.path.join(WORK, "refcache", f"{key}.json")
    if os.path.exists(path):
        with open(path) as f:
            return json.load(f)
    value = compute()
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path + ".part", "w") as f:
        json.dump(value, f)
    os.replace(path + ".part", path)
    return value


# --------------------------------------------------------------------
# Inputs, runs and output digests
# --------------------------------------------------------------------

class Workload:
    """One workload at one seed and length: inputs, runs and digests."""

    def __init__(self, name, seed, binary, refs=None):
        self.name = name
        self.spec = WORKLOADS[name]
        self.kind = self.spec["kind"]
        self.seed = seed
        self.refs = refs or self.spec["refs"]
        self.binary = binary
        tag = "na" if self.kind == "sweep" else f"s{seed}"
        # Per build, since the harness writes trace_replay's trace.
        self.inputs = os.path.join(
            WORK, "inputs",
            f"{name}-{tag}-r{self.refs}-{binary_hash(binary)}")
        self.runs = os.path.join(WORK, "runs", name)
        self.counter = 0

    def key(self, what):
        """The refcache key of @what computed from these inputs: the
        harness binary and every generated input file."""
        h = hashlib.sha256(binary_hash(self.binary).encode())
        for name in sorted(os.listdir(self.inputs)):
            h.update(name.encode() + b"\0")
            sha256_file(os.path.join(self.inputs, name), h)
        return f"{self.name}-{what}-r{self.refs}-{h.hexdigest()[:16]}"

    def _scenario(self, path, workload=None):
        with open(os.path.join(ROOT, "scenarios",
                               self.spec["scenario"])) as f:
            sc = json.load(f)
        sc.update(name=f"perfbench_{self.name}", refs=self.refs,
                  warmup=self.refs, seed=self.seed, workload_seed=self.seed)
        if workload:
            sc.pop("workloads", None)
            sc["workload"] = workload
        with open(path, "w") as f:
            json.dump(sc, f, indent=1, sort_keys=True)
        return path

    def make_inputs(self):
        """Scenario JSON from the checked-in scenario with this seed and
        length; for trace_replay also the gzip SLIPTRC2 trace of the
        seed's soplex stream, covering warm-up plus measured refs."""
        os.makedirs(self.inputs, exist_ok=True)
        os.makedirs(self.runs, exist_ok=True)
        if self.kind == "sweep":
            return
        if self.kind == "run":
            self.scenario = self._scenario(
                os.path.join(self.inputs, "scenario.json"))
            return
        self.synthetic = self._scenario(
            os.path.join(self.inputs, "synthetic.json"))
        trace = os.path.join(self.inputs, "soplex.trc2.gz")
        if not os.path.exists(trace):
            part = os.path.join(self.inputs, "capture.trc2.gz")
            if harness(self.binary, "capture",
                       ["--workload", "soplex", "--seed", self.seed,
                        "--refs", 2 * self.refs, "--trace", part],
                       os.path.join(self.inputs, "capture.json")) is None:
                raise BenchError(f"{self.name}: trace capture failed")
            os.replace(part, trace)
        self.scenario = self._scenario(
            os.path.join(self.inputs, "scenario.json"), "trace:" + trace)

    def run_dir(self):
        self.counter += 1
        d = os.path.join(self.runs, f"{os.getpid()}-{self.counter}")
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        return d

    def run_once(self, d, scenario=None, threads=None, jobs=None,
                 traced=False, cache=None):
        """One harness process in run directory @d; returns (result or
        None, output digest or None). A sweep uses @cache, default a
        fresh empty one in @d."""
        out = os.path.join(d, "result.json")
        extra = ["--traced", 1, "--work", d] if traced else []
        if self.kind == "sweep":
            cache = cache or os.path.join(d, "cache")
            figures = os.path.join(d, "figures.txt")
            if traced:
                extra += ["--scenarios", os.path.join(ROOT, "scenarios")]
            r = harness(self.binary, "sweep",
                        ["--cache", cache, "--refs", self.refs, "--warmup",
                         self.refs, "--jobs", jobs or self.spec["jobs"]] +
                        extra, out, figures)
            if r is None or r.get("render_rc") != 0:
                return None, None
            h = sha256_file(figures)
            for name in sorted(os.listdir(cache)):
                h.update(name.encode() + b"\0")
                sha256_file(os.path.join(cache, name), h)
            return r, h.hexdigest()
        stats = os.path.join(d, "stats.txt")
        args = ["--scenario", scenario or self.scenario, "--stats", stats]
        if threads:
            args += ["--run-threads", threads]
        if traced and self.kind == "trace":
            args += ["--stream", "soplex"]
        r = harness(self.binary, "run", args + extra, out)
        return r, (sha256_file(stats).hexdigest() if r else None)

    def run_clean(self, **kw):
        """run_once in a run directory that is removed afterwards."""
        d = self.run_dir()
        try:
            return self.run_once(d, **kw)
        finally:
            shutil.rmtree(d, ignore_errors=True)

    def reference(self):
        """The untimed reference of these inputs: the stats dump at
        --run-threads 1 (shared16_rt4), the synthetic run of the stream
        the trace was written from (trace_replay), the figures and cache
        entries at --jobs 1 (sweep_cold; kept per build, since its seeds
        are fixed), or a first run of the same inputs (soplex_slip)."""
        if self.kind == "sweep":
            return cached(self.key("reference"),
                          lambda: self._reference(jobs=1))
        if self.kind == "trace":
            return self._reference(scenario=self.synthetic)
        return self._reference(threads=self.spec.get("reference_threads"))

    def _reference(self, **kw):
        r, digest = self.run_clean(**kw)
        if r is None:
            raise BenchError(f"{self.name}: the reference run failed")
        return {"digest": digest, "refs_per_s": r["refs"] / r["run_s"],
                "run_s": r["run_s"]}


def pinned_digest(wl, reference, manifest):
    """The default-seed output digest checked against the pin. Returns
    (ok, note); a length without a pin passes with a note."""
    pin = manifest["pinned_digests"].get(wl.name)
    if not pin or pin["refs"] != wl.refs:
        return True, "no pinned digest at this length"
    if wl.kind == "sweep" or wl.seed == pin["seed"]:
        digest = reference["digest"]
    else:
        other = Workload(wl.name, pin["seed"], wl.binary, wl.refs)
        other.make_inputs()
        digest = cached(other.key(f"pin-s{pin['seed']}"),
                        other.reference)["digest"]
    if digest != pin["sha256"]:
        return False, (f"default-seed digest {digest} differs from the "
                       f"pinned {pin['sha256']}")
    return True, "default-seed digest matches the pin"


# --------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------

def e2e_values(samples):
    return {
        "refs_per_s": [s["refs"] / s["run_s"] for s in samples],
        "setup_s": [s["setup_s"] for s in samples],
        "cpu_s": [s["cpu_s"] for s in samples],
        "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
    }


def percentile(values, p):
    """Nearest-rank percentile."""
    values = sorted(values)
    rank = -(-p * len(values) // 100)
    return values[max(0, min(len(values), int(rank)) - 1)]


def per_layer(wl, t, samples, reference, warm_s):
    """Every per-layer metric from the traced run @t; 0 where the
    workload does not exercise the layer (manifest.json lists where)."""
    m = {}
    ph, refs = t["phases"], t["refs"]
    m["sim.cache_walk_ns_per_ref"] = (ph["cache_walk"] -
                                      ph["rd_profile"]) / refs
    m["sim.tlb_ns_per_ref"] = (ph["tlb"] - ph["eou"]) / refs
    m["sim.rd_profile_ns_per_ref"] = ph["rd_profile"] / refs
    m["sim.eou_ns_per_ref"] = ph["eou"] / refs
    m["sim.workload_gen_ns_per_ref"] = ph["workload_gen"] / refs
    m["sim.other_ns_per_ref"] = (ph["run"] - ph["workload_gen"] -
                                 ph["tlb"] - ph["cache_walk"]) / refs

    threads = t.get("run_threads", 1)
    workers = min(t.get("cores", 1), threads - 1) if threads > 1 else 0
    run_ns = ph["run"]
    busy = run_ns * workers
    m["pipeline.front_busy_frac"] = ph["front_end"] / busy if busy else 0.0
    m["pipeline.queue_full_frac"] = ph["queue_full"] / busy if busy else 0.0
    m["pipeline.queue_empty_frac"] = (ph["queue_empty"] / run_ns
                                      if busy else 0.0)
    m["pipeline.shared_stage_frac"] = (ph["shared_stage"] / run_ns
                                       if busy else 0.0)
    untraced_rps = statistics.median(e2e_values(samples)["refs_per_s"])
    speedup = untraced_rps / reference["refs_per_s"]
    m["pipeline.speedup"] = (speedup if wl.spec.get("reference_threads")
                             else 0.0)

    m.update((k, v) for k, v in t["replays"].items() if k != "stream_refs")

    sweep = wl.kind == "sweep"
    secs = t.get("run_seconds") or [0.0]
    m["sweep.run_p50_s"] = statistics.median(secs) if sweep else 0.0
    m["sweep.run_p95_s"] = percentile(secs, 95) if sweep else 0.0
    m["sweep.run_max_s"] = max(secs) if sweep else 0.0
    m["sweep.parallel_eff"] = (sum(secs) / (t["sweep_wall_s"] * t["jobs"])
                               if sweep else 0.0)
    m["sweep.jobs_speedup"] = speedup if sweep else 0.0
    m["sweep.warm_s"] = warm_s if sweep else 0.0

    c = t["counts"]
    measured = c["measured_refs"]
    m["tlb.miss_rate"] = c["tlb_misses"] / c["tlb_accesses"]
    levels = {lv["index"]: lv for lv in c["levels"]}
    for i in range(3):
        lv = levels.get(i, {"accesses": 0, "hits": 0, "fills": 0,
                            "movements": 0, "invalidations": 0})
        p = f"cache.l{i + 1}."
        m[p + "accesses_per_ref"] = lv["accesses"] / measured
        m[p + "hit_rate"] = (lv["hits"] / lv["accesses"]
                             if lv["accesses"] else 0.0)
        m[p + "fills_per_ref"] = lv["fills"] / measured
        m[p + "movements_per_ref"] = lv["movements"] / measured
        m[p + "invalidations_per_ref"] = lv["invalidations"] / measured
    m["coherence.write_probes_per_ref"] = (c["coherence_write_probes"] /
                                           measured)
    m["coherence.invalidations_per_ref"] = (c["coherence_invalidations"] /
                                            measured)
    m["dram.lines_per_ref"] = c["dram_lines"] / measured
    m["sweep.runs_executed"] = t.get("runs_executed", 0)
    m["sweep.memo_hits"] = t.get("memo_hits", 0)
    untraced_run_s = statistics.median(s["run_s"] for s in samples)
    m["perf.trace_overhead"] = t["run_s"] / untraced_run_s - 1.0
    return m


# --------------------------------------------------------------------
# Provenance
# --------------------------------------------------------------------

def provenance(binary):
    info = harness(binary, "info", [],
                   os.path.join(WORK, "tmp", "info.json")) or {}
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = dirty = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        def git(*args):
            return subprocess.run(["git", "-C", ROOT] + list(args),
                                  capture_output=True, text=True).stdout
        commit = git("rev-parse", "HEAD").strip() or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    tree = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "bench", "perfbench"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, n) for d, _, names in os.walk(base)
            for n in names if "__pycache__" not in d)
        for p in paths:
            tree.update(os.path.relpath(p, ROOT).encode() + b"\0")
            sha256_file(p, tree)
    events = "/sys/bus/event_source/devices"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "compiler": info.get("compiler"),
        "build_type": info.get("build_type"),
        "cxx_flags": info.get("cxx_flags"),
        "commit": commit,
        "dirty": dirty,
        "source_tree_sha256": tree.hexdigest(),
        "hardware_counters": any(
            os.path.isdir(os.path.join(events, d))
            for d in ("cpu", "cpu_core", "cpu_atom")),
    }


# --------------------------------------------------------------------
# One workload, one invocation
# --------------------------------------------------------------------

def run_workload(name, seed, seconds, trace, binary, manifest, refs=None,
                 perturb=False):
    t_begin = time.monotonic()
    wl = Workload(name, seed, binary, refs)
    wl.make_inputs()
    reference = wl.reference()
    pin_ok, pin_note = pinned_digest(wl, reference, manifest)
    if perturb:
        reference = dict(reference, digest=hashlib.sha256(
            f"{reference['digest']} perturbed".encode()).hexdigest())

    samples, attempted, failed = [], 0, 0

    def judge(r, digest):
        nonlocal attempted, failed
        attempted += 1
        if r is None or digest != reference["digest"] or not pin_ok:
            failed += 1
            return False
        return True

    # A run starts only if it is expected (at the median duration so
    # far) to end within the window, so an invocation does not overrun
    # it by most of a run.
    durations = []
    end = time.monotonic() + seconds
    while time.monotonic() - t_begin <= BUDGET_S:
        expected = statistics.median(durations) if durations else 0.0
        if attempted >= MIN_RUNS and time.monotonic() + expected > end:
            break
        t0 = time.monotonic()
        r, digest = wl.run_clean()
        durations.append(time.monotonic() - t0)
        if judge(r, digest):
            samples.append(r)

    record = {"workload": name,
              "seed": None if wl.kind == "sweep" else seed,
              "refs_per_core": wl.refs, "trace": trace,
              "reference": reference, "pin": pin_note, "samples": samples}
    if not trace:
        metrics = {k: summary(v) for k, v in e2e_values(samples).items()}
    else:
        d = wl.run_dir()
        t, digest = wl.run_once(d, traced=True)
        ok = judge(t, digest)
        warm_s = 0.0
        if ok and wl.kind == "sweep":
            # A second pass over the cache the traced sweep filled:
            # ResultCache reads plus rendering.
            warm, _ = wl.run_clean(cache=os.path.join(d, "cache"))
            warm_s = warm["setup_s"] + warm["run_s"] if warm else 0.0
        shutil.rmtree(d, ignore_errors=True)
        record["traced"] = t
        metrics = (per_layer(wl, t, samples, reference, warm_s)
                   if ok and samples else None)
    record.update(attempted=attempted, failed=failed, metrics=metrics)
    return record


# --------------------------------------------------------------------
# Output
# --------------------------------------------------------------------

def print_table(record, manifest):
    name, m = record["workload"], record["metrics"]
    lines = [f"== {name}  seed {record['seed']}  "
                 f"{record['refs_per_core']} warm-up + "
                 f"{record['refs_per_core']} refs per core  "
                 f"runs {record['attempted']} (failed {record['failed']})  "
                 f"pin: {record['pin']}"]
    if record["trace"]:
        units = {k: v["unit"] for k, v in manifest["per_layer"].items()}
        for k, v in sorted((m or {}).items()):
            lines.append(f"  {k:42s} {units.get(k, ''):6s} {v:.6g}")
    else:
        units = {k: v["unit"] for k, v in manifest["end_to_end"].items()}
        lines.append(f"  {'metric':14s} {'unit':5s} {'median':>12s} "
                         f"{'q1':>12s} {'q3':>12s} {'n':>3s}")
        for k, s in m.items():
            lines.append(f"  {k:14s} {units[k]:5s} {s['median']:12.6g} "
                             f"{s['q1']:12.6g} {s['q3']:12.6g} {s['n']:3d}")
        frac = record["failed"] / record["attempted"]
        lines.append(f"  {'failed_frac':14s} {'frac':5s} {frac:12.6g} "
                         f"{'':>12s} {'':>12s} {record['attempted']:3d}")
    print("\n".join(lines), flush=True)


def result_metrics(record, manifest, prefix=""):
    m = record["metrics"]
    if record["trace"]:
        names = manifest["per_layer"]
        get = (lambda k: (m or {}).get(k, 0.0))
    else:
        names = manifest["end_to_end"]
        get = (lambda k: m[k]["median"])
    return {prefix + k: {"value": get(k), "unit": v["unit"]}
            for k, v in names.items()}


def save_record(record, prov):
    d = os.path.join(WORK, "results")
    os.makedirs(d, exist_ok=True)
    path = os.path.join(
        d, f"{record['workload']}-s{record['seed']}-t{record['trace']}-"
           f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    with open(path, "w") as f:
        json.dump(dict(record, provenance=prov), f, indent=1)
    return path


def with_pin(manifest, name, seed, refs, digest):
    """@manifest with @name's pinned digest replaced."""
    pins = dict(manifest["pinned_digests"])
    pins[name] = {"seed": seed, "refs": refs, "sha256": digest}
    return dict(manifest, pinned_digests=pins)


def self_check(binary, manifest):
    """Every workload at smoke length passes against its reference and
    against a pin of its own default-seed digest, and fails, every run,
    against a perturbed reference or a perturbed pin; BENCHMARK.json
    agrees with the manifest."""
    ok = True
    for name, spec in WORKLOADS.items():
        refs = spec["refs"] // SMOKE_DIVISOR
        pin_seed = None if spec["kind"] == "sweep" else DEFAULT_SEED
        good = run_workload(name, DEFAULT_SEED, 0, 0, binary, manifest, refs)
        digest = good["reference"]["digest"]
        # The pin cases run another seed, so the pin is checked against
        # the default seed's reference, computed and cached on the side.
        other = DEFAULT_SEED + 1
        cases = [
            ("reference", good, False),
            ("pinned", run_workload(
                name, other, 0, 0, binary,
                with_pin(manifest, name, pin_seed, refs, digest), refs),
             False),
            ("perturbed reference", run_workload(
                name, DEFAULT_SEED, 0, 0, binary, manifest, refs,
                perturb=True), True),
            ("perturbed pin", run_workload(
                name, other, 0, 0, binary,
                with_pin(manifest, name, pin_seed, refs, "0" * 64), refs),
             True),
        ]
        parts = []
        for label, rec, should_fail in cases:
            want = rec["attempted"] if should_fail else 0
            passed = rec["attempted"] > 0 and rec["failed"] == want
            ok &= passed
            parts.append(f"{label} {rec['failed']}/{rec['attempted']}"
                         f"{'' if passed else ' WRONG'}")
        print(f"self-check {name}: failed runs: {', '.join(parts)}")
    bench_json = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(bench_json):
        with open(bench_json) as f:
            bench = json.load(f)
        for section in ("end_to_end", "per_layer"):
            listed = {e["name"]: e["unit"] for e in bench[section]}
            mapped = {k: v["unit"] for k, v in manifest[section].items()}
            same = listed == mapped
            ok &= same
            print(f"self-check BENCHMARK.json {section} matches the "
                  f"manifest: {'ok' if same else 'WRONG'}")
        # BENCHMARK.json bounds the steady workloads only; the others
        # still run by name (manifest.json says why each is left out).
        same = {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)
        ok &= same
        print(f"self-check BENCHMARK.json workloads are run.py's: "
              f"{'ok' if same else 'WRONG'}")
    return ok


def pin(binary):
    """The default-seed reference digest of every workload."""
    out = {}
    for name, spec in WORKLOADS.items():
        wl = Workload(name, DEFAULT_SEED, binary)
        wl.make_inputs()
        out[name] = {"seed": None if wl.kind == "sweep" else DEFAULT_SEED,
                     "refs": spec["refs"],
                     "sha256": wl.reference()["digest"]}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=list(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--pin", action="store_true")
    args = ap.parse_args()

    try:
        check_checkout()
        manifest = load_manifest()
        binary = build()
        if args.self_check:
            return 0 if self_check(binary, manifest) else 1
        if args.pin:
            print(json.dumps(pin(binary), indent=1, sort_keys=True))
            return 0
        prov = provenance(binary)
        print("provenance: " + json.dumps(prov, sort_keys=True), flush=True)
        names = list(WORKLOADS) if args.workload == "all" else \
            [args.workload]
        records = []
        for name in names:
            record = run_workload(name, args.seed, args.seconds, args.trace,
                                  binary, manifest)
            print_table(record, manifest)
            print(f"  record: {save_record(record, prov)}", flush=True)
            records.append(record)
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        return 1

    metrics = {}
    for record in records:
        prefix = f"{record['workload']}." if len(records) > 1 else ""
        metrics.update(result_metrics(record, manifest, prefix))
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    correct = failed == 0 and all(r["metrics"] for r in records)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
