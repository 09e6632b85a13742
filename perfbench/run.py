#!/usr/bin/env python3
"""radcrit benchmark driver.

Builds radcrit from the checkout it sits in, runs one workload through
the shipped binaries (tools/radcrit_suite, tools/radcrit_cli), checks
every output, and prints one JSON result as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (wall_s, setup_s,
peak_rss_mib, disk_mib), measured with tracing off. With
--trace 1 they are the per-layer ones, taken from a traced run plus
the tracing overhead. See perfbench/README.md for the workloads, the
metric map and the reference timings.

    python3 perfbench/run.py --workload inject_clamr --seed 1 \\
        --seconds 5 --trace 0

Everything the benchmark writes stays under .bench_build/ (builds) and
.bench_work/ (one fresh scratch directory per run, removed at exit,
plus the last trace of each workload) in the checkout.
"""

import argparse
import csv
import glob
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
RADCRIT_BUILD = os.path.join(BUILD_ROOT, "radcrit")
TRACER_BUILD = os.path.join(BUILD_ROOT, "trace")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
SUITE_BIN = os.path.join(RADCRIT_BUILD, "tools", "radcrit_suite")
CLI_BIN = os.path.join(RADCRIT_BUILD, "tools", "radcrit_cli")
TRACER_BIN = os.path.join(TRACER_BUILD, "radcrit_trace")

JOBS = max(1, min(4, os.cpu_count() or 1))
OP_TIMEOUT_S = 170
MIB = 1024.0 * 1024.0

# The warm run's golden recomputation does not depend on --runs; 20
# rather than 40 shortens the detectors loop and the cold fill.
SUITE_RUNS = 20
# One scatter figure per kernel, the serially injected CLAMR
# experiments (detectors, fig9) and sdc_crash_ratios, which shares
# its 16 campaigns with the figures: the golden recomputation, the
# serial injection and the prepass of the whole suite in about half
# its wall, so every run of every workload fits the time budget.
SUITE_EXPERIMENTS = ("fig2_dgemm_scatter", "fig4_lavamd_scatter",
                     "fig6_hotspot_scatter", "fig8_clamr_scatter",
                     "fig9_clamr_map", "detectors", "sdc_crash_ratios")
# A CLAMR run's cost is heavy-tailed (SDC runs cost far more than
# crashes), so a 200-run campaign's wall spread by up to 29% across
# seeds; 400 runs keep it inside the bound.
CLAMR_RUNS = 400
DGEMM_RUNS = 12500
DGEMM_FILLS = 2
# The host's speed jitters by ~10% from one op to the next, so a
# store_dgemm run times at least this many hits and reports their
# median.
DGEMM_MIN_HITS = 3
# inject_clamr has no cache to fill; its set-up is the build step,
# checked this many times per run (the first may compile).
BUILD_CHECKS = 3
# A timed CLAMR op past the first uses seed --seed + k * stride, so
# every op of a run is a distinct campaign.
CLAMR_SEED_STRIDE = 7919
OUTCOMES = ("Masked", "SDC", "Crash", "Hang")
STAT_OUTCOMES = ("masked", "sdc", "crash", "hang")
STAT_INFRA = ("infra_error", "infra_timeout")


class CheckFailed(Exception):
    """An output check failed: the op counts as failed, not timed."""


def log(msg):
    print("[perfbench] " + msg, file=sys.stderr, flush=True)


def clean_env():
    """The caller's environment without any RADCRIT_* variable."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("RADCRIT_")}


class Spans:
    """The driver's own spans, kept in memory, written at exit."""

    def __init__(self):
        self.epoch = time.monotonic()
        self.spans = []

    def add(self, name, start, end, **attrs):
        self.spans.append(dict(name=name, start_s=start - self.epoch,
                               dur_s=end - start, **attrs))


class Child:
    """Outcome of one child process: wall, rusage, exit status."""

    def __init__(self, wall, status, rusage):
        self.wall = wall
        self.ok = os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
        self.status = status
        self.peak_rss_mib = rusage.ru_maxrss / 1024.0
        self.cpu_s = rusage.ru_utime + rusage.ru_stime


def run_child(args, log_path, env):
    """Run one process to completion, timing it and reaping it with
    its rusage; a process over OP_TIMEOUT_S is killed."""
    with open(log_path, "ab") as out:
        start = time.monotonic()
        proc = subprocess.Popen(args, stdout=out, stderr=out, env=env,
                                cwd=ROOT)
        timer = threading.Timer(OP_TIMEOUT_S, proc.send_signal,
                                (signal.SIGKILL,))
        timer.start()
        try:
            _, status, rusage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - start
    proc.returncode = 0  # reaped by wait4; keep Popen from waiting
    return Child(wall, status, rusage)


def tail(path, lines=30):
    try:
        with open(path, errors="replace") as f:
            return "".join(f.readlines()[-lines:])
    except OSError:
        return ""


def build_step(env, args, log_path, what):
    child = run_child(args, log_path, env)
    if not child.ok:
        log("%s failed:\n%s" % (what, tail(log_path)))
        sys.exit(1)
    return child.wall


def build_radcrit(env):
    """Configure once, then build; returns the build step's wall."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "radcrit-build.log")
    start = time.monotonic()
    if not os.path.exists(os.path.join(RADCRIT_BUILD, "CMakeCache.txt")):
        build_step(env, ["cmake", "-S", ROOT, "-B", RADCRIT_BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"],
                   log_path, "radcrit configure")
    build_step(env, ["cmake", "--build", RADCRIT_BUILD, "-j", str(JOBS)],
               log_path, "radcrit build")
    return time.monotonic() - start


def build_tracer(env):
    log_path = os.path.join(BUILD_ROOT, "trace-build.log")
    build_step(env, ["cmake", "-S", os.path.join(BENCH_DIR, "tracer"),
                     "-B", TRACER_BUILD, "-DCMAKE_BUILD_TYPE=Release",
                     "-DRADCRIT_SOURCE_DIR=" + ROOT,
                     "-DRADCRIT_BUILD_DIR=" + RADCRIT_BUILD],
               log_path, "tracer configure")
    build_step(env, ["cmake", "--build", TRACER_BUILD, "-j", str(JOBS)],
               log_path, "tracer build")


# ----------------------------------------------------------------------
# Output checks. Each raises CheckFailed with the reason.


def require(cond, why):
    if not cond:
        raise CheckFailed(why)


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def tree_bytes(*paths):
    total = 0
    for path in paths:
        if os.path.isfile(path):
            total += os.path.getsize(path)
        for d, _, files in os.walk(path):
            total += sum(os.path.getsize(os.path.join(d, f))
                         for f in files)
    return total


def same_bytes(a, b):
    require(os.path.isfile(a) and os.path.isfile(b),
            "missing output to compare: %s / %s" % (a, b))
    require(sha256(a) == sha256(b),
            "%s differs from %s" % (os.path.basename(b), a))


def check_run_csv(path, runs):
    """Per-run CSV: one row per run, indices 0..runs-1, every outcome
    in the masked/SDC/crash/hang taxonomy (no infra quarantine)."""
    require(os.path.isfile(path), "no CSV at %s" % path)
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    require(len(rows) == runs, "%s has %d rows, want %d"
            % (path, len(rows), runs))
    require([int(r["run"]) for r in rows] == list(range(runs)),
            "%s run column is not 0..%d" % (path, runs - 1))
    bad = {r["outcome"] for r in rows} - set(OUTCOMES)
    require(not bad, "%s has outcomes %s" % (path, sorted(bad)))


def check_outcome_stats(stats, expect_runs=None):
    """campaign.<dev>.<wl>.* counters: outcomes sum to the run count
    and nothing was quarantined as an infra outcome."""
    prefixes = [k[:-len(".runs")] for k in stats
                if k.startswith("campaign.") and k.endswith(".runs")]
    require(prefixes, "no campaign outcome counters")
    for p in prefixes:
        value = lambda name: stats.get(p + "." + name, {}).get("value", 0)
        runs = value("runs")
        infra = sum(value(n) for n in STAT_INFRA)
        require(infra == 0, "%s: %d infra outcomes" % (p, infra))
        total = sum(value(n) for n in STAT_OUTCOMES)
        require(total == runs, "%s: outcomes sum to %d of %d runs"
                % (p, total, runs))
        if expect_runs is not None:
            require(runs == expect_runs, "%s: %d runs, want %d"
                    % (p, runs, expect_runs))


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise CheckFailed("unreadable JSON %s: %s" % (path, e))


def check_pinned_digest(name, seed, csv_path):
    """The CSV digest pinned for the default seed; other seeds get
    only the structural checks."""
    with open(os.path.join(BENCH_DIR, "digests.json")) as f:
        pinned = json.load(f)
    if seed == pinned["seed"]:
        require(sha256(csv_path) == pinned[name],
                "%s CSV digest differs from the one pinned for seed %d"
                % (name, seed))


def check_store_entries(cache):
    entries = glob.glob(os.path.join(cache, "*.beamlog"))
    aside = glob.glob(os.path.join(cache, "*.quarantined"))
    require(not aside, "store quarantined %s" % aside)
    return entries


# ----------------------------------------------------------------------
# Workloads. Each op is one child process; ops whose checks fail are
# counted as failed and give no timing.


class Run:
    def __init__(self, args, env, build_s):
        self.args = args
        self.env = env
        self.build_s = build_s
        self.seed = args.seed
        self.spans = Spans()
        self.attempted = 0
        self.failed = 0
        self.values = {"setup_s": [], "wall_s": [], "peak_rss_mib": [],
                       "disk_mib": []}
        self.work = os.path.join(WORK_ROOT, "%s-%d" % (args.workload,
                                                       os.getpid()))
        os.makedirs(self.work)

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    def op(self, name, args, check, **attrs):
        """Run one op and its checks; returns the Child, or None when
        the op failed."""
        self.attempted += 1
        log_path = self.path(name + ".log")
        start = time.monotonic()
        child = run_child(args, log_path, self.env)
        self.spans.add(name, start, time.monotonic(), **attrs)
        try:
            require(child.ok, "exit status %d" % child.status)
            check()
        except Exception as e:  # any check error fails the op
            self.failed += 1
            log("op %s failed: %s\n%s" % (name, e, tail(log_path, 10)))
            return None
        return child

    def sample(self, child, *dirs):
        """Record a timed op's end-to-end numbers; disk is what the
        given directories hold after it."""
        self.values["wall_s"].append(child.wall)
        self.values["peak_rss_mib"].append(child.peak_rss_mib)
        self.values["disk_mib"].append(tree_bytes(*dirs) / MIB)

    def timed(self, body, min_ops=1):
        """Call body(i) for i = 0, 1, ... until --seconds have passed
        and at least min_ops ops ran."""
        start = time.monotonic()
        i = 0
        while i < min_ops or time.monotonic() - start < self.args.seconds:
            body(i)
            i += 1

    def corrupt(self, kind, path):
        if self.args.corrupt != kind:
            return
        log("corrupting %s %s (check self-test)" % (kind, path))
        size = os.path.getsize(path)
        if kind == "entry":
            os.truncate(path, size // 2)
        else:
            with open(path, "r+b") as f:
                f.seek(size // 2)
                byte = f.read(1)
                f.seek(size // 2)
                f.write(bytes([byte[0] ^ 0x01]))
        self.args.corrupt = None


def run_suite(run):
    """Warm `radcrit_suite run` over SUITE_EXPERIMENTS; set-up is the
    cold run that fills the cache."""
    cache = run.path("cache")
    exps = list(SUITE_EXPERIMENTS)

    def command(name, extra=()):
        return ([SUITE_BIN, "run"] + exps +
                ["--runs", str(SUITE_RUNS), "--jobs", str(JOBS),
                 "--cache", cache, "--out", run.path(name),
                 "--json", run.path(name, "suite.json")] + list(extra))

    def suite_doc(name):
        path = run.path(name, "suite.json")
        checker = subprocess.run(
            [sys.executable, os.path.join(ROOT, "tools",
                                          "check_bench_json.py"),
             "--suite", path], env=run.env, capture_output=True,
            text=True)
        require(checker.returncode == 0,
                "check_bench_json --suite: " + checker.stdout.strip() +
                checker.stderr.strip())
        doc = load_json(path)
        check_outcome_stats(doc["stats"])
        require(doc["resilience"]["store_quarantined"] == 0,
                "store quarantined entries")
        return doc

    def outputs(name):
        return sorted(f for f in os.listdir(run.path(name))
                      if f != "suite.json")

    def check_cold():
        doc = suite_doc("cold")
        camp = doc["campaigns"]
        require(camp["simulated"] == camp["distinct"] and
                camp["store_hits"] == 0,
                "cold run did not simulate every campaign: %s" % camp)
        require(outputs("cold"), "cold run wrote no outputs")

    def check_warm(name):
        def check():
            if outputs(name):
                run.corrupt("csv", run.path(name, outputs(name)[0]))
            doc = suite_doc(name)
            camp = doc["campaigns"]
            require(camp["simulated"] == 0,
                    "warm run simulated %d campaigns" % camp["simulated"])
            require(camp["store_hits"] == camp["distinct"],
                    "warm run: %d store hits for %d distinct campaigns"
                    % (camp["store_hits"], camp["distinct"]))
            require(outputs(name) == outputs("cold"),
                    "warm outputs %s differ from cold %s"
                    % (outputs(name), outputs("cold")))
            for f in outputs("cold"):
                same_bytes(run.path("cold", f), run.path(name, f))
        return check

    cold = run.op("cold", command("cold"), check_cold)
    if cold is None:
        return None
    entries = check_store_entries(cache)
    if entries:
        run.corrupt("entry", entries[0])
    run.values["setup_s"].append(cold.wall)

    if run.args.trace:
        plain = run.op("warm0", command("warm0"), check_warm("warm0"))
        traced = run.op("traced", command(
            "traced", ["--timeline", run.path("timeline.json")]),
            check_warm("traced"))
        if plain is None or traced is None:
            return None
        doc = load_json(run.path("traced", "suite.json"))
        keep_trace(run, doc)
        return suite_layers(doc, traced, traced.wall - plain.wall,
                            tree_bytes(cache))

    def warm(i):
        name = "warm%d" % i
        child = run.op(name, command(name), check_warm(name))
        if child is not None:
            run.sample(child, cache, run.path(name))
    run.timed(warm)
    return run.values


def cli_command(run, name, device, workload, runs, seed, cache=None):
    args = [CLI_BIN, "--device", device, "--workload", workload,
            "--runs", str(runs), "--jobs", str(JOBS), "--seed", str(seed),
            "--csv", run.path(name, "runs.csv"),
            "--stats-out", run.path(name, "stats.json")]
    if cache:
        args += ["--cache", cache]
    os.makedirs(run.path(name))
    return args


def check_cli_op(run, name, runs, simulated):
    """Structural checks of one radcrit_cli campaign; `simulated`
    says whether it must have simulated (miss) or loaded (hit)."""
    def check():
        check_run_csv(run.path(name, "runs.csv"), runs)
        stats = load_json(run.path(name, "stats.json"))
        check_outcome_stats(stats, runs)
        did_simulate = "campaign.total.calls" in stats
        require(did_simulate == simulated,
                "campaign was %s, expected a %s"
                % ("simulated" if did_simulate else "loaded",
                   "simulation" if simulated else "store hit"))
    return check


def run_inject_clamr(run):
    """One uncached 400-run CLAMR campaign on the Xeon Phi per op."""
    run.values["setup_s"].append(run.build_s)
    for _ in range(BUILD_CHECKS - 1):
        run.values["setup_s"].append(build_radcrit(run.env))

    def campaign(name, seed):
        def check():
            check_cli_op(run, name, CLAMR_RUNS, True)()
            if seed == run.seed:
                run.corrupt("csv", run.path(name, "runs.csv"))
                check_pinned_digest("inject_clamr", seed,
                                    run.path(name, "runs.csv"))
        return run.op(name, cli_command(run, name, "XeonPhi", "CLAMR",
                                        CLAMR_RUNS, seed), check,
                      seed=seed)

    if run.args.trace:
        plain = campaign("op0", run.seed)
        if plain is None:
            return None
        trace = run_tracer(run, "inject_clamr", CLAMR_RUNS,
                           run.path("op0", "runs.csv"))
        if trace is None:
            return None
        return cli_layers(trace, plain.wall)

    def op(i):
        name = "op%d" % i
        child = campaign(name, run.seed + i * CLAMR_SEED_STRIDE)
        if child is not None:
            run.sample(child, run.path(name))
    run.timed(op)
    return run.values


def run_store_dgemm(run):
    """A 12500-run K40 DGEMM campaign through a fresh store: set-up
    is the cold miss that simulates and saves the entry, each timed
    op a warm hit that loads and re-analyses it."""
    fills = 1 if run.args.trace else DGEMM_FILLS
    cache = None
    for i in range(fills):
        # A fresh directory per fill, so each one is a real miss.
        if cache:
            shutil.rmtree(cache)
        cache = run.path("cache%d" % i)
        name = "fill%d" % i

        def check_fill():
            check_cli_op(run, name, DGEMM_RUNS, True)()
            require(len(check_store_entries(cache)) == 1,
                    "cold miss did not leave one store entry")
            check_pinned_digest("store_dgemm", run.seed,
                                run.path(name, "runs.csv"))
            if i:
                same_bytes(run.path("fill0", "runs.csv"),
                           run.path(name, "runs.csv"))
        child = run.op(name, cli_command(run, name, "K40", "DGEMM",
                                         DGEMM_RUNS, run.seed, cache),
                       check_fill)
        if child is None:
            return None
        run.values["setup_s"].append(child.wall)
    run.corrupt("entry", check_store_entries(cache)[0])
    # Flush the fills' dirty pages now, so their write-back does not
    # run during the timed hits.
    os.sync()
    miss_csv = run.path("fill0", "runs.csv")

    def hit(name):
        def check():
            run.corrupt("csv", run.path(name, "runs.csv"))
            check_cli_op(run, name, DGEMM_RUNS, False)()
            require(len(check_store_entries(cache)) == 1,
                    "warm hit changed the store")
            same_bytes(miss_csv, run.path(name, "runs.csv"))
        return run.op(name, cli_command(run, name, "K40", "DGEMM",
                                        DGEMM_RUNS, run.seed, cache),
                      check)

    if run.args.trace:
        plain = hit("hit0")
        if plain is None:
            return None
        trace = run_tracer(run, "store_dgemm", DGEMM_RUNS, miss_csv)
        if trace is None:
            return None
        return cli_layers(trace, plain.wall)

    def op(i):
        name = "hit%d" % i
        child = hit(name)
        if child is not None:
            run.sample(child, cache, run.path(name))
    run.timed(op, DGEMM_MIN_HITS)
    return run.values


# ----------------------------------------------------------------------
# Traced runs and per-layer metrics.


def run_tracer(run, workload, runs, reference_csv):
    """Replay the workload through the library with spans on; its CSV
    must match the untraced CLI's bytes."""
    build_tracer(run.env)
    name = "tracer"
    os.makedirs(run.path(name))
    trace_path = run.path(name, "trace.json")

    def check():
        check_run_csv(run.path(name, "runs.csv"), runs)
        same_bytes(reference_csv, run.path(name, "runs.csv"))
        trace = load_json(trace_path)
        # The registry is process-wide: store_dgemm counts the miss's
        # simulated campaign and the hit's rebuilt one.
        campaigns = 2 if workload == "store_dgemm" else 1
        check_outcome_stats(trace["stats"], runs * campaigns)
        require(trace["store_quarantined"] == 0, "tracer quarantined")

    child = run.op(name, [TRACER_BIN, "--workload=" + workload,
                          "--runs=%d" % runs, "--jobs=%d" % JOBS,
                          "--seed=%d" % run.seed,
                          "--dir=" + run.path(name),
                          "--csv=" + run.path(name, "runs.csv"),
                          "--out=" + trace_path], check)
    if child is None:
        return None
    trace = load_json(trace_path)
    keep_trace(run, trace)
    return trace


def keep_trace(run, doc):
    """Keep the last trace of each workload beside the driver's own
    spans, outside the per-run scratch directory."""
    path = os.path.join(WORK_ROOT, "trace-%s.json" % run.args.workload)
    with open(path, "w") as f:
        json.dump({"driver_spans": run.spans.spans, "trace": doc}, f,
                  indent=1)


def stat(stats, name):
    return stats.get(name, {}).get("value", 0)


def stat_sum(stats, prefix, suffix):
    return sum(v.get("value", 0) for k, v in stats.items()
               if k.startswith(prefix) and k.endswith(suffix))


def program_layers(stats):
    """Layers the program already counts, from a registry snapshot."""
    return {
        "kernels.golden_s": stat_sum(stats, "kernel.", ".golden.ns") / 1e9,
        "kernels.golden_calls": stat_sum(stats, "kernel.",
                                         ".golden.calls"),
        "kernels.inject_s": stat_sum(stats, "kernel.", ".inject.ns") / 1e9,
        "kernels.inject_calls": stat_sum(stats, "kernel.",
                                         ".inject.calls"),
        "campaign.replay_s": stat(stats, "campaign.phase.replay.ns") / 1e9,
        "campaign.sample_s": stat(stats, "campaign.phase.sample.ns") / 1e9,
        "campaign.metrics_s": stat(stats,
                                   "campaign.phase.metrics.ns") / 1e9,
        "exec.pool_utilization": stat(stats, "pool.utilization"),
        "exec.pool_idle_s": stat(stats, "pool.idle.ns") / 1e9,
    }


ZERO_SUITE = {"suite.prepass_s": 0.0, "suite.experiments_s": 0.0,
              "suite.detectors_s": 0.0, "suite.unattributed_s": 0.0,
              "suite.distinct": 0, "suite.simulated": 0}


def cli_layers(trace, plain_wall):
    spans = trace["spans"]

    def span_s(name):
        return sum(s["dur_s"] for s in spans if s["name"] == name)

    op = span_s("op")
    layers = program_layers(trace["stats"])
    layers.update(ZERO_SUITE)
    layers.update({
        "campaign.simulate_s": span_s("simulate"),
        "store.save_s": span_s("store.save"),
        "store.load_s": span_s("store.load"),
        "store.entry_mib": trace["entry_bytes"] / MIB,
        "store.hits": trace["store_hits"],
        "store.misses": trace["store_misses"],
        "store.quarantined": trace["store_quarantined"],
        "logs.write_s": span_s("logs.write"),
        "logs.parse_s": span_s("logs.parse"),
        "analysis.analyze_s": span_s("analyze"),
        "proc.cpu_s": trace["cpu_s"],
        "trace.op_s": op,
        "trace.overhead_s": op - plain_wall,
    })
    return layers


def suite_layers(doc, traced, overhead, cache_bytes):
    stats = doc["stats"]
    wall = doc["wall_ns"] / 1e9
    prepass = doc["campaigns"]["prepass_wall_ns"] / 1e9
    experiments = sum(e["wall_ns"]
                      for e in doc["experiments"].values()) / 1e9
    layers = program_layers(stats)
    layers.update({
        "campaign.simulate_s": stat(stats, "campaign.total.ns") / 1e9,
        # A warm run saves nothing; its store reads are the prepass
        # resolve. The suite JSON carries no beam-log timers.
        "store.save_s": 0.0,
        "store.load_s": prepass,
        "store.entry_mib": cache_bytes / MIB,
        "store.hits": stat(stats, "campaign.store.hit"),
        "store.misses": stat(stats, "campaign.store.miss"),
        "store.quarantined": doc["resilience"]["store_quarantined"],
        "logs.write_s": 0.0,
        "logs.parse_s": 0.0,
        "analysis.analyze_s": 0.0,
        "suite.prepass_s": prepass,
        "suite.experiments_s": experiments,
        "suite.detectors_s":
            doc["experiments"].get("detectors", {}).get("wall_ns", 0) / 1e9,
        "suite.unattributed_s": wall - prepass - experiments,
        "suite.distinct": doc["campaigns"]["distinct"],
        "suite.simulated": doc["campaigns"]["simulated"],
        "proc.cpu_s": traced.cpu_s,
        "trace.op_s": traced.wall,
        "trace.overhead_s": overhead,
    })
    return layers


# ----------------------------------------------------------------------

WORKLOADS = {"suite": run_suite, "inject_clamr": run_inject_clamr,
             "store_dgemm": run_store_dgemm}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", choices=("csv", "entry"),
                        help="self-test of the output checks: corrupt "
                        "the first timed op's CSV or the set-up's store "
                        "entry; the run must then report a failed op")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.corrupt == "entry" and args.workload == "inject_clamr":
        parser.error("inject_clamr uses no store entry to corrupt")

    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log("no radcrit sources at %s (missing %s)" % (ROOT, needed))
            return 2

    # A terminated driver still kills and reaps its current child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    env = clean_env()
    run = Run(args, env, build_radcrit(env))
    try:
        values = WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        wanted = json.load(f)["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    if values is not None:
        for m in wanted:
            v = values[m["name"]]
            if isinstance(v, list):
                if not v:
                    continue
                v = statistics.median(v)
            metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    correct = run.failed == 0 and len(metrics) == len(wanted)
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
