#!/usr/bin/env python3
"""End-to-end benchmark of `rsnsec secure`; see perfbench/README.md.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the CLI and perfbench_probe into .bench_build/ on first use,
generates the workload's cases from --seed under .bench_work/ (removed at
exit), and then either times one `rsnsec secure` process per case
(--trace 0) or runs the cases through the in-process traced probe and
cross-checks it against the CLI (--trace 1). Every case goes through the
independent output checker. The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics."""

import argparse
import concurrent.futures
import hashlib
import itertools
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
RSNSEC = os.path.join(BUILD, "rsnsec", "tools", "rsnsec")
PROBE = os.path.join(BUILD, "perfbench_probe")
NPROC = os.cpu_count() or 1
JOBS = min(4, NPROC)  # --jobs of every timed `secure`
SETUP_REPEATS = 3  # setup_s is the median of this many set-ups
CASE_TIMEOUT_S = 60  # one process; a case that needs longer has failed
# The first pass stops here, so that a run ends well within 180 s even on
# a program many times slower than today's; unrun cases count as failed.
FIRST_PASS_LIMIT_S = 100
# Children never see the caller's RSNSEC_* variables: RSNSEC_STORE would
# turn the cold workloads warm, RSNSEC_TRACE would add tracing.
CHILD_ENV = {k: v for k, v in os.environ.items()
             if not k.startswith("RSNSEC_")}


@dataclass(frozen=True)
class Workload:
    family: str
    scale: float
    designs: int  # generated designs per seed
    specs: int  # random specs per design (1: the one `generate` writes)
    trace_cases: int  # the first cases, traced in-process with --trace 1
    store: bool = False  # one artifact store, filled during set-up

    @property
    def cases(self):
        """Distinct cases per seed, run in passes until --seconds."""
        return self.designs * self.specs


# Case counts are what keeps a run's figures steady across seeds: case
# times spread widely with the random specs, so a run needs many cases.
WORKLOADS = {
    # Pure resolution dominates (rewire trials); parsing is a few percent.
    "flexscan-resolve": Workload("FlexScan", 0.02, designs=200, specs=1,
                                 trace_cases=40),
    # SoC netlists, cold: parsing and dependency analysis dominate.
    "soc-cold": Workload("q12710", 0.35, designs=30, specs=1, trace_cases=6),
    # SoCs under several specs each, one artifact store: store reads,
    # parsing, pure and hybrid resolution.
    "spec-sweep": Workload("p93791", 0.1, designs=20, specs=3,
                           trace_cases=6, store=True),
}

END_TO_END_UNITS = {
    "secure_cpu_s": "s",
    "secure_cpu_s.tail": "s",
    "peak_rss_mb": "MB",
    "changes_per_violating_register": "ratio",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "netlist.parse_s": "s",
    "netlist.parse_mb_per_s": "MB/s",
    "rsn.parse_s": "s",
    "rsn.write_s": "s",
    "spec.parse_s": "s",
    "validate_s": "s",
    "store.run_s": "s",
    "store.hits": "count",
    "store.misses": "count",
    "store.hit_ratio": "ratio",
    "store.bytes": "bytes",
    "dep.analysis_s": "s",
    "dep.one_cycle_s": "s",
    "dep.bridge_s": "s",
    "dep.closure_s": "s",
    "dep.sat_calls": "count",
    "dep.prefilter_ratio": "ratio",
    "dep.closure_deps": "count",
    "dep.matrix_bytes": "bytes",
    "security.hybrid_setup_s": "s",
    "security.static_check_s": "s",
    "security.pure_s": "s",
    "security.pure_changes": "count",
    "rewire.trials": "count",
    "resolve.delta_queries": "count",
    "security.pure_trials_per_change": "ratio",
    "security.hybrid_s": "s",
    "security.hybrid_changes": "count",
    "resolve.hybrid_iterations": "count",
    "hybrid.propagations": "count",
    "trace.total_s": "s",
    "trace.unattributed_s": "s",
    "trace.coverage": "ratio",
}

# Probe phases that make up each per-layer time. Whatever the probe process
# spends outside them (start-up, glue, teardown) is trace.unattributed_s.
LAYER_PHASES = {
    "netlist.parse_s": ["netlist_parse"],
    "rsn.parse_s": ["rsn_read", "rsn_attach"],
    "rsn.write_s": ["rsn_write"],
    "spec.parse_s": ["spec_parse"],
    "validate_s": ["validate", "final_validate"],
    "store.run_s": ["store_open", "dependency"],
    "security.hybrid_setup_s": ["hybrid_setup"],
    "security.static_check_s": ["static_check", "count_violating"],
    "security.pure_s": ["pure"],
    "security.hybrid_s": ["hybrid"],
}


def cpu_name(layer):
    """`netlist.parse_s` -> `netlist.parse_cpu_s`."""
    return layer[:-len("_s")] + "_cpu_s"


# Each layer's time also as process CPU seconds over all threads, the unit
# of secure_cpu_s; trace.total_cpu_s is the probe process's own.
PER_LAYER_UNITS.update({cpu_name(layer): "s" for layer in LAYER_PHASES})
PER_LAYER_UNITS.update({"trace.total_cpu_s": "s",
                        "trace.cpu_coverage": "ratio"})


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once and builds the CLI and probe (a no-op when current)."""
    log = os.path.join(BUILD, "build.log")
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(NPROC)])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=850, env=CHILD_ENV).returncode != 0:
                with open(log) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (" + " ".join(cmd[:2]) + ")")


def subseed(workload, seed, what):
    """Independent 60-bit generator seed per (workload, seed, item)."""
    digest = hashlib.sha256(f"{workload}/{seed}/{what}".encode()).hexdigest()
    return int(digest[:15], 16)


def check_call(argv, ok=(0,)):
    p = subprocess.run(argv, capture_output=True, text=True,
                       timeout=CASE_TIMEOUT_S, env=CHILD_ENV)
    if p.returncode not in ok:
        raise RuntimeError(f"{' '.join(argv[:2])} exited {p.returncode}: "
                           f"{p.stderr.strip()[-500:]}")
    return p.stdout


@dataclass
class Case:
    index: int
    rsn: str
    verilog: str
    spec: str


def generate(name, wl, seed, designs, directory):
    """Writes designs `designs` of `seed` as design<d>.{rsn,v,spec}, the
    files `rsnsec generate` writes, in one probe process."""
    check_call([PROBE, "generate", "--benchmark", wl.family, "--scale",
                str(wl.scale), "--dir", directory, "--designs",
                ",".join(f"design{d}={subseed(name, seed, d)}"
                         for d in designs)])


def set_up_design(name, wl, seed, design, directory, store):
    """Adds the specs and the store entry of one generated design; returns
    its cases."""
    base = os.path.join(directory, f"design{design}")
    if wl.specs == 1:
        specs = [base + ".spec"]
    else:
        check_call([PROBE, "specs", "--rsn", base + ".rsn", "--seed",
                    str(subseed(name, seed, f"{design}/specs")), "--count",
                    str(wl.specs), "--out-prefix", base + "_spec"])
        specs = [f"{base}_spec{i}.spec" for i in range(wl.specs)]
    if store:
        # The cold fill: publishes the dependency matrix that every
        # `secure` of this design reads back (2 = violations found).
        check_call([RSNSEC, "analyze", "--rsn", base + ".rsn", "--verilog",
                    base + ".v", "--spec", specs[0], "--store", store,
                    "--jobs", "1"], ok=(0, 2))
    return [Case(design * wl.specs + i, base + ".rsn", base + ".v", spec)
            for i, spec in enumerate(specs)]


def children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def set_up(name, wl, seed, work):
    """Sets up SETUP_REPEATS times from scratch and keeps the last set-up.
    Returns the cases, the store and the median CPU seconds of the set-up
    processes, which swings less than their wall time with the load other
    tenants put on a shared host."""
    cpu = []
    for attempt in range(SETUP_REPEATS):
        directory = os.path.join(work, f"inputs{attempt}")
        os.makedirs(directory)
        store = os.path.join(directory, "store") if wl.store else None
        before = children_cpu()
        # One process at a time, and one generator process for all
        # designs: CPU time of set-up processes running side by side swung
        # with how they shared the cores (soc-cold: 16% vs 5% between
        # set-ups), and a process per design added start-up cost.
        generate(name, wl, seed, range(wl.designs), directory)
        designs = [set_up_design(name, wl, seed, d, directory, store)
                   for d in range(wl.designs)]
        cpu.append(children_cpu() - before)
        if attempt + 1 < SETUP_REPEATS:
            shutil.rmtree(directory)
    cases = [c for design in designs for c in design]
    return cases, store, statistics.median(cpu)


@dataclass
class Execution:
    exit_code: int
    seconds: float  # wall
    cpu_seconds: float  # user + system, all threads
    max_rss_mb: float
    stdout: str


def run_process(argv, stdout_path, stderr_path):
    """Runs one child to completion; wall time and its own max RSS."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=out, stderr=err,
                             stdin=subprocess.DEVNULL, env=CHILD_ENV)
        timer = threading.Timer(CASE_TIMEOUT_S, p.kill)
        timer.start()
        _, status, usage = os.wait4(p.pid, 0)
        seconds = time.perf_counter() - t0
        timer.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    with open(stdout_path, errors="replace") as f:
        stdout = f.read()
    return Execution(p.returncode, seconds, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss / 1024.0, stdout)


def secure_argv(case, out, store, jobs=JOBS, extra=()):
    argv = [RSNSEC, "secure", "--rsn", case.rsn, "--verilog", case.verilog,
            "--spec", case.spec, "--out", out, "--jobs", str(jobs)]
    if store:
        argv += ["--store", store]
    return argv + list(extra)


CHANGES_RE = re.compile(r"^applied changes: (\d+) pure \+ (\d+) hybrid$",
                        re.M)
VIOLATING_RE = re.compile(r"^violating registers before: (\d+)$", re.M)


def text_changes(stdout):
    m = CHANGES_RE.search(stdout)
    return None if m is None else int(m.group(1)) + int(m.group(2))


def text_violating(stdout):
    m = VIOLATING_RE.search(stdout)
    return None if m is None else int(m.group(1))


def read_bytes(path):
    try:
        with open(path, "rb") as f:
            return f.read()
    except FileNotFoundError:
        return None


def check_case(case, exit_code, out, scratch):
    """Independent output checker. Returns None or (check, detail)."""
    argv = [PROBE, "check", "--rsn", case.rsn, "--verilog", case.verilog,
            "--spec", case.spec, "--exit", str(exit_code), "--out", out]
    try:
        verdict = json.loads(check_call(argv))
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as e:
        return "checker", str(e)
    if not verdict["ok"]:
        return verdict["check"], verdict["detail"]
    if exit_code != 0:
        return None
    # Idempotence: securing the secured network changes nothing.
    again = scratch + ".again.rsn"
    secured = Case(case.index, out, case.verilog, case.spec)
    p = run_process(secure_argv(secured, again, None, jobs=1),
                    scratch + ".again.out", scratch + ".again.err")
    if p.exit_code != 0:
        return "idempotent", f"second secure exited {p.exit_code}"
    if text_changes(p.stdout) != 0:
        return "idempotent", "second secure applied changes"
    if read_bytes(again) != read_bytes(out):
        return "idempotent", "second secure rewrote the network"
    return None


@dataclass
class Report:
    name: str
    seed: int
    attempted: int = 0
    failures: list = field(default_factory=list)
    mismatches: list = field(default_factory=list)

    def check_all(self, jobs):
        """Runs check_case over [(case, exit_code, out, scratch)]."""
        with concurrent.futures.ThreadPoolExecutor(NPROC) as pool:
            verdicts = list(pool.map(lambda j: check_case(*j), jobs))
        for (case, *_), verdict in zip(jobs, verdicts):
            self.attempted += 1
            if verdict is not None:
                self.fail(case.index, *verdict)

    def fail(self, index, check, detail):
        self.failures.append((index, check, detail))

    def mismatch(self, index, what):
        self.mismatches.append((index, what))

    def print(self):
        for index, check, detail in self.failures:
            print(f"FAILED workload={self.name} seed={self.seed} "
                  f"case={index} check={check}: {detail}")
        for index, what in self.mismatches:
            print(f"MISMATCH workload={self.name} seed={self.seed} "
                  f"case={index}: {what}")


def interquartile_mean(samples):
    """Mean of the middle half: steadier across seeds than the median on
    FlexScan's broad spread of case times, and than the mean on the few
    hybrid-heavy cases of the SoC workloads."""
    s = sorted(samples)
    quarter = len(s) // 4
    return statistics.fmean(s[quarter:len(s) - quarter])


def tail(samples):
    """Highest percentile with at least ten samples above it (the lowest
    sample when there are no more than ten)."""
    s = sorted(samples)
    if len(s) <= 10:
        return s[0], 0.0
    k = len(s) - 11
    return s[k], 100.0 * (k + 1) / len(s)


def timed_run(wl, cases, store, seconds, work, report):
    """--trace 0: passes over the cases until `seconds` have elapsed."""
    samples = {c.index: [] for c in cases}
    wall = []
    first = {}
    rss = []
    deadline = time.perf_counter() + seconds
    hard_limit = time.perf_counter() + FIRST_PASS_LIMIT_S
    for rep, c in ((r, c) for r in itertools.count() for c in cases):
        now = time.perf_counter()
        if now >= hard_limit or (rep > 0 and now >= deadline):
            break
        base = os.path.join(work, f"run{c.index}.{rep}")
        e = run_process(secure_argv(c, base + ".rsn", store), base + ".out",
                        base + ".err")
        samples[c.index].append(e.cpu_seconds)
        wall.append(e.seconds)
        out = read_bytes(base + ".rsn")
        if rep == 0:
            first[c.index] = (e, out)
            rss.append(e.max_rss_mb)
            continue
        if (e.exit_code, out) != (first[c.index][0].exit_code,
                                  first[c.index][1]):
            report.mismatch(c.index, f"pass {rep} differs from pass 0")
        for suffix in (".rsn", ".out", ".err"):
            if os.path.exists(base + suffix):
                os.remove(base + suffix)

    changes = violating = 0
    jobs = []
    for c in cases:
        if c.index not in first:
            report.attempted += 1
            report.fail(c.index, "time_limit", "not run: the first pass "
                        f"exceeded {FIRST_PASS_LIMIT_S} s")
            continue
        e, _ = first[c.index]
        if e.exit_code in (0, 3):
            n, v = text_changes(e.stdout), text_violating(e.stdout)
            if n is None or v is None:
                report.mismatch(c.index, "no 'applied changes' or "
                                "'violating registers before' line")
            changes += n or 0
            violating += v or 0
        base = os.path.join(work, f"run{c.index}.0")
        jobs.append((c, e.exit_code, base + ".rsn", base))
    report.check_all(jobs)

    # One sample per case, the median of its passes: every case weighs the
    # same however many passes the time allowed.
    per_case = [statistics.median(v) for v in samples.values() if v]
    tail_s, tail_pct = tail(per_case)
    return {
        "secure_cpu_s": interquartile_mean(per_case),
        "secure_cpu_s.tail": tail_s,
        "peak_rss_mb": statistics.median(rss),
        "changes_per_violating_register": changes / max(1, violating),
    }, (f"secure_cpu_s.tail is p{tail_pct:.1f} of {len(per_case)} case "
        f"medians ({len(wall)} runs); wall time {statistics.fmean(wall):.4f} "
        f"s mean, {statistics.median(wall):.4f} s median; rsn_changes = "
        f"{changes} for {violating} violating registers")


def cli_counters(stdout):
    report = json.loads(stdout)
    counters = report["observability"]["counters"]
    return {
        "rewire.trials": counters.get("rewire.trials", 0),
        "resolve.delta_queries": counters.get("resolve.delta_queries", 0),
        "dep.sat_calls": report["dependency"]["sat_calls"],
        "rsn_changes": report["changes"]["total"],
    }


def probe_counters(t):
    return {
        "rewire.trials": t["rewire.trials"],
        "resolve.delta_queries": t["resolve.delta_queries"],
        "dep.sat_calls": t["dep.sat_calls"],
        "rsn_changes": t["pure_changes"] + t["hybrid_changes"],
    }


def traced_run(wl, cases, seconds, work, report):
    """--trace 1: the first trace_cases cases through the in-process probe,
    in passes until `seconds` have elapsed; each pass on a fresh store, so
    the first case of each spec-sweep design writes it, the others read it."""
    cases = cases[:wl.trace_cases]
    deadline = time.perf_counter() + seconds
    passes = []
    for rep in itertools.count():
        store = os.path.join(work, f"trace_store{rep}") if wl.store else None
        traces = []
        for c in cases:
            out = os.path.join(work, f"trace{c.index}.{rep}.rsn")
            argv = [PROBE, "trace", "--rsn", c.rsn, "--verilog", c.verilog,
                    "--spec", c.spec, "--out", out, "--jobs", str(JOBS)]
            if store:
                argv += ["--store", store]
            base = os.path.join(work, f"trace{c.index}.{rep}")
            e = run_process(argv, base + ".out", base + ".err")
            if e.exit_code != 0:
                with open(base + ".err", errors="replace") as f:
                    raise RuntimeError(f"perfbench_probe trace exited "
                                       f"{e.exit_code}: {f.read()[-500:]}")
            traces.append(json.loads(e.stdout))
            # The whole probe process, timed from outside.
            traces[-1]["t.process"] = e.seconds
            traces[-1]["c.process"] = e.cpu_seconds
            if rep == 0:
                cross_check(c, traces[-1], out, store, work, report)
            elif (probe_counters(traces[-1]) != probe_counters(passes[0][c.index])
                  or read_bytes(out) != read_bytes(
                      os.path.join(work, f"trace{c.index}.0.rsn"))):
                report.mismatch(c.index, f"traced pass {rep} differs from "
                                "pass 0")
        passes.append(traces)
        if store:
            shutil.rmtree(store)
        if time.perf_counter() >= deadline:
            break
    return layer_metrics(passes, cases)


def cross_check(case, trace, out, store, work, report):
    """The traced run must match the CLI run of the same case: exit code,
    output bytes and deterministic counters; the CLI output is checked."""
    base = os.path.join(work, f"cli{case.index}")
    e = run_process(secure_argv(case, base + ".rsn", store,
                                extra=["--json", "--metrics"]),
                    base + ".out", base + ".err")
    if e.exit_code != trace["exit"]:
        report.mismatch(case.index, f"exit {trace['exit']} traced, "
                        f"{e.exit_code} from the CLI")
    elif e.exit_code in (0, 3):
        cli = cli_counters(e.stdout)
        probe = probe_counters(trace)
        for key in probe:
            if cli[key] != probe[key]:
                report.mismatch(case.index, f"{key}: {probe[key]} traced, "
                                f"{cli[key]} from the CLI")
        if read_bytes(out) != read_bytes(base + ".rsn"):
            report.mismatch(case.index, "traced output differs from the CLI")
    report.check_all([(case, e.exit_code, base + ".rsn", base)])


def layer_metrics(passes, cases):
    def seconds(*names, clock="t"):
        """Summed over cases, each the median of its passes; clock "t" is
        wall time, "c" process CPU time."""
        return sum(statistics.median(p[c.index].get(f"{clock}.{name}", 0.0)
                                     for p in passes)
                   for c in cases for name in names)

    def count(key, traces=passes[0]):
        return sum(t.get(key, 0) for t in traces)

    # Dependency work is done only where the store did not serve it.
    computed = [t for t in passes[0] if not t["store.hit"]]
    phases = [name for names in LAYER_PHASES.values() for name in names]
    for t, clock in itertools.product(itertools.chain(*passes), "tc"):
        t[f"{clock}.unattributed"] = t[f"{clock}.process"] - sum(
            t.get(f"{clock}.{name}", 0.0) for name in phases)

    m = {layer: seconds(*names) for layer, names in LAYER_PHASES.items()}
    m.update({cpu_name(layer): seconds(*names, clock="c")
              for layer, names in LAYER_PHASES.items()})
    total = seconds("process")
    unattributed = seconds("unattributed")
    total_cpu = seconds("process", clock="c")
    verilog_mb = sum(os.path.getsize(c.verilog) for c in cases) / 1e6
    pure_changes = count("pure_changes")
    pure_trials = count("pure_trials")
    sim_ternary = (count("dep.sim_resolved", computed) +
                   count("dep.ternary_resolved", computed))
    sat_calls = count("dep.sat_calls", computed)
    hits, misses = count("store.hits"), count("store.misses")
    m.update({
        "netlist.parse_mb_per_s": verilog_mb / m["netlist.parse_s"],
        "store.hits": hits,
        "store.misses": misses,
        "store.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "store.bytes": max(t.get("store.bytes", 0) for t in passes[0]),
        "dep.analysis_s": seconds("dep_one_cycle", "dep_bridge",
                                  "dep_closure"),
        "dep.one_cycle_s": seconds("dep_one_cycle"),
        "dep.bridge_s": seconds("dep_bridge"),
        "dep.closure_s": seconds("dep_closure"),
        "dep.sat_calls": sat_calls,
        "dep.prefilter_ratio": sim_ternary / max(1, sim_ternary + sat_calls),
        "dep.closure_deps": count("dep.closure_deps", computed),
        "dep.matrix_bytes": max(t["dep.matrix_bytes"] for t in passes[0]),
        "security.pure_changes": pure_changes,
        "rewire.trials": count("rewire.trials"),
        "resolve.delta_queries": count("resolve.delta_queries"),
        "security.pure_trials_per_change": pure_trials / max(1, pure_changes),
        "security.hybrid_changes": count("hybrid_changes"),
        "resolve.hybrid_iterations": count("resolve.hybrid_iterations"),
        "hybrid.propagations": count("hybrid.propagations"),
        "trace.total_s": total,
        "trace.unattributed_s": unattributed,
        "trace.coverage": 1 - unattributed / total,
        "trace.total_cpu_s": total_cpu,
        "trace.cpu_coverage":
            1 - seconds("unattributed", clock="c") / total_cpu,
    })
    return m, f"{len(cases)} cases traced, {len(passes)} passes"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no rsnsec sources next to perfbench/ (looked in {ROOT}/src)")
    build()

    wl = WORKLOADS[args.workload]
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK)
    try:
        cases, store, setup_s = set_up(args.workload, wl, args.seed, work)
        report = Report(args.workload, args.seed)
        if args.trace:
            metrics, note = traced_run(wl, cases, args.seconds, work, report)
            units = PER_LAYER_UNITS
        else:
            metrics, note = timed_run(wl, cases, store, args.seconds, work,
                                      report)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not args.trace:
        metrics["setup_s"] = setup_s
    report.print()
    print(f"workload={args.workload} seed={args.seed} jobs={JOBS} "
          f"nproc={NPROC} {note}")
    print(f"failed_ratio = {len(report.failures)}/{report.attempted} = "
          f"{len(report.failures) / report.attempted:.4f}")
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": not report.mismatches,
        "attempted": report.attempted,
        "failed": len(report.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))


if __name__ == "__main__":
    main()
