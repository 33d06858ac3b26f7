#!/usr/bin/env python3
"""The repository benchmark: Figure 6 and Figure 8 at small scale plus the
seeded synth-rw program, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig6-small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --compare OLD NEW    # result files or directories

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics` (the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`). A full record of the
run, with host, quartiles and digests, goes to `.perfbench-out/results/`.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402

WORKLOADS = ("fig6-small", "fig8-small", "synth-rw")
FIGURES = {
    "fig6-small": ("fig6_base", "app,ccnuma,scoma,rnuma"),
    "fig8-small": ("fig8_threshold", "app,t16,t64,t256,t1024"),
}
APPS = 10
# Every run ends within this many seconds of its start (after the build).
DEADLINE_S = 170
# Threads a run may use, whatever the host has: keeps numbers comparable.
MAX_JOBS = 2
# The host-speed reference: a fixed pure-Python loop, which no change to
# the repository speeds up or slows down, timed in rounds of REF_CHUNKS
# chunks on each CPU the runs use, after every run, for REF_SHARE of that
# run's time (at least one round). `wall_s` and `setup_s` are scaled to a
# host on which one chunk takes REF_NOMINAL_S (README.md, "Host-speed
# normalization").
REF_ITERATIONS = 100_000
REF_CHUNKS = 5
REF_SHARE = 0.2
REF_NOMINAL_S = 0.010


class Failure(Exception):
    """The benchmark cannot produce a result (exit non-zero, no JSON)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def host_cores():
    return len(os.sched_getaffinity(0))


def reference_chunk():
    start = time.perf_counter()
    x = 0
    for i in range(REF_ITERATIONS):
        x += i * i
    return time.perf_counter() - start


def host_speed(cpus, budget_s):
    """Mean seconds of one reference chunk, over rounds of REF_CHUNKS
    chunks pinned to each of `cpus` in turn, until `budget_s` seconds have
    passed. The process's CPU set is restored after."""
    allowed = os.sched_getaffinity(0)
    chunks = []
    start = time.perf_counter()
    try:
        while not chunks or time.perf_counter() - start < budget_s:
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                chunks += [reference_chunk() for _ in range(REF_CHUNKS)]
    finally:
        os.sched_setaffinity(0, allowed)
    return sum(chunks) / len(chunks)


def build(root, target):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    steps = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "rnuma-bench",
         "--bin", "fig6_base", "--bin", "fig8_threshold"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", "perfbench/probe/Cargo.toml"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, cwd=root, env=env).returncode != 0:
            raise Failure(f"build failed: {' '.join(cmd)}")
    return target / "release"


def child_env(jobs, results_dir):
    """The parent environment without any RNUMA_* knob, plus an explicit
    worker count and a private results directory. Returns the env and
    the inherited values that were removed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("RNUMA_")}
    removed = {k: v for k, v in os.environ.items() if k.startswith("RNUMA_")}
    env["RNUMA_JOBS"] = str(jobs)
    env["RNUMA_RESULTS_DIR"] = str(results_dir)
    return env, removed


def run_child(cmd, env, cwd, timeout):
    """Runs one process to completion. Returns (ok, wall_s, peak_rss_mb,
    cpu_s, stdout). A process past `timeout` is killed and fails."""
    timeout = max(1.0, timeout)
    out_path = Path(cwd) / "child.out"
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, env=env, cwd=cwd)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text()
    ok = proc.returncode == 0 and wall < timeout
    if not ok:
        log(f"perfbench: {' '.join(map(str, cmd))} exited {proc.returncode} after {wall:.1f} s")
    return ok, wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime, stdout


class Invocation:
    """One benchmark invocation: its inputs, child processes and checks."""

    def __init__(self, args, root, bins):
        self.args = args
        self.bins = bins
        self.start = time.monotonic()
        self.work = root / ".perfbench-out" / f"{args.workload}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.cores = host_cores()
        self.jobs = 1 if args.workload == "synth-rw" else min(MAX_JOBS, self.cores)
        # The invocation and every child it starts stay on `jobs` CPUs, so
        # the host-speed reference is timed where the runs ran.
        self.cpus = sorted(os.sched_getaffinity(0))[:self.jobs]
        os.sched_setaffinity(0, self.cpus)
        self.env, self.removed = child_env(self.jobs, self.work / "results")
        self.attempted = 0
        self.failed = 0
        self.problems = []
        # The first good run's output; every later run must match it.
        self.reference = None

    def remaining(self):
        return DEADLINE_S - (time.monotonic() - self.start)

    def probe(self, *argv):
        cmd = [str(self.bins / "perfbench-probe"), *argv, "--seed", str(self.args.seed)]
        return run_child(cmd, self.env, self.work, self.remaining())

    def setup_samples(self):
        ok, _, _, _, out = self.probe("setup", "--workload", self.args.workload)
        if not ok:
            raise Failure("setup probe failed")
        return json.loads(out)["samples"]

    def sim_digest(self):
        """Digest of every simulated statistic of every cell the workload
        runs. synth-rw prints them itself; for a figure the probe runs the
        binary's grid function and prints them, as the CSV holds only ratios."""
        if self.args.workload == "synth-rw":
            return benchlib.digest(self.reference)
        ok, _, _, _, out = self.probe("cells", "--workload", self.args.workload)
        if not ok:
            raise Failure("cells probe failed")
        return benchlib.digest(out)

    def run_once(self):
        """One run of the workload as a user runs it; checks its output.
        Returns (wall_s, peak_rss_mb) or None when the run failed."""
        self.attempted += 1
        if self.args.workload == "synth-rw":
            ok, wall, rss, _, out = self.probe("cells", "--workload", "synth-rw")
            problems = [] if ok else ["synth-rw exited non-zero"]
        else:
            binary, header = FIGURES[self.args.workload]
            csv = self.work / "results" / f"{binary}.csv"
            csv.unlink(missing_ok=True)
            cmd = [str(self.bins / binary), "--scale", "small"]
            ok, wall, rss, _, _ = run_child(cmd, self.env, self.work, self.remaining())
            out = csv.read_text() if ok and csv.exists() else ""
            problems = benchlib.validate_csv(out, header, APPS) if ok else ["exited non-zero"]
        if not problems and self.reference is not None and out != self.reference:
            problems = ["output differs from the first repetition"]
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            return None
        if self.reference is None:
            self.reference = out
        return wall, rss

    def measure(self):
        """Warm-up, then a closed loop of runs for --seconds. Set-up time is
        sampled before every run, so that it sees the host over the whole
        loop as the runs do. The host-speed reference is timed after the
        warm-up and after every run; a run and its set-up samples are
        normalized by the mean of the references just before and after.
        Returns samples by metric and the reference samples."""
        warm_up = self.run_once()
        last_wall = warm_up[0] if warm_up else 1.0
        refs = [host_speed(self.cpus, REF_SHARE * last_wall)]
        samples = {name: [] for name in ("wall_s", "raw_wall_s", "peak_rss_mb",
                                         "setup_s", "raw_setup_s")}
        # Time left for the traced run (or a last slow run) when the loop ends.
        reserve = 70 if self.args.trace else 25
        begin = time.monotonic()
        while time.monotonic() - begin < self.args.seconds and self.remaining() > reserve:
            setup = self.setup_samples()
            result = self.run_once()
            if result is not None:
                last_wall = result[0]
            refs.append(host_speed(self.cpus, REF_SHARE * last_wall))
            ref = (refs[-2] + refs[-1]) / 2
            samples["raw_setup_s"] += setup
            samples["setup_s"] += [benchlib.normalize(x, ref, REF_NOMINAL_S) for x in setup]
            if result is not None:
                samples["raw_wall_s"].append(result[0])
                samples["wall_s"].append(benchlib.normalize(result[0], ref, REF_NOMINAL_S))
                samples["peak_rss_mb"].append(result[1])
        if not samples["wall_s"]:
            raise Failure("no run succeeded: " + "; ".join(self.problems))
        return samples, refs

    def traced(self, untraced_wall, sim_digest):
        """The traced run: per-layer metrics, spans and the fidelity check.
        Stale per-layer numbers fail the run, as the result line has no
        other way to flag them."""
        out_dir = self.work / "trace"
        ok, _, _, cpu, out = self.probe("trace", "--workload", self.args.workload,
                                        "--out", str(out_dir))
        self.attempted += 1
        if not ok:
            self.failed += 1
            raise Failure("traced run failed")
        probe = json.loads(out)
        spans = [json.loads(line) for line in (out_dir / "spans.jsonl").read_text().splitlines()]
        by_name = benchlib.self_time_by_name(spans)
        cells_digest = benchlib.digest((out_dir / "cells.txt").read_bytes())
        if self.args.workload == "synth-rw":
            # Its output is its cells' statistics: the digest checks them.
            rebuilt = {"exec": self.reference}
            phases = ["experiment.exec_phase"]
        else:
            rebuilt = {"trace-once": probe["csv_trace_once"], "exec": probe["csv_exec"]}
            phases = ["experiment.capture_phase", "experiment.replay_phase"]
        fidelity = benchlib.fidelity(sim_digest, cells_digest, self.reference, rebuilt)
        if fidelity == "stale":
            self.failed += 1
            self.problems.append("per-layer numbers are stale: the traced cells match "
                                 "neither the program's output nor its sim_digest")
        traced_wall = sum(s["end"] - s["start"] for s in spans if s["name"] in phases)
        metrics = dict(probe["metrics"])
        metrics["host.cpu_s"] = cpu
        metrics["host.trace_overhead"] = traced_wall / untraced_wall
        return {
            "metrics": metrics,
            "fidelity": fidelity,
            "critical_cell": probe["critical_cell"],
            "cells_digest": cells_digest,
            "self_time_s": by_name,
        }


def rustc_version():
    try:
        return subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    except OSError:
        return "unknown"


def bench_spec(root):
    path = root / "BENCHMARK.json"
    return json.loads(path.read_text()) if path.exists() else {}


def run_benchmark(args, root):
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    bins = build(root, target if target.is_absolute() else root / target)
    inv = Invocation(args, root, bins)
    try:
        report(args, root, inv)
    finally:
        shutil.rmtree(inv.work, ignore_errors=True)


def report(args, root, inv):
    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer")
             for m in bench_spec(root).get(key, [])}

    samples, refs = inv.measure()
    sim_digest = inv.sim_digest()
    summaries = {name: benchlib.summarize(v) for name, v in samples.items()}
    summaries["host_ref_s"] = benchlib.summarize(refs)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "revision": args.revision,
        "scale": "small",
        "host": {"cores": inv.cores, "rustc": rustc_version(), "python": sys.version.split()[0]},
        "env": {"RNUMA_JOBS": inv.jobs,
                "RNUMA_RESULTS_DIR": str((inv.work / "results").relative_to(root)),
                "removed": inv.removed},
        "host_ref": {"nominal_s": REF_NOMINAL_S, "iterations": REF_ITERATIONS,
                     "chunks_per_round": REF_CHUNKS, "share": REF_SHARE,
                     "cpus": inv.cpus},
        "samples": dict(samples, host_ref_s=refs),
        "sim_digest": sim_digest,
    }
    traced = inv.traced(summaries["raw_wall_s"]["median"], sim_digest) if args.trace else None
    attempted, failed = inv.attempted, inv.failed
    summaries["ok_share"] = benchlib.summarize([1 - failed / attempted])
    record.update(attempted=attempted, failed=failed, failed_share=failed / attempted,
                  problems=inv.problems, summaries=summaries)

    print(f"workload {args.workload}  seed {args.seed}  revision {args.revision}  "
          f"host {record['host']['cores']} cores, {record['host']['rustc']}  "
          f"RNUMA_JOBS={inv.jobs}  removed {sorted(inv.removed) or 'none'}")
    for name, s in summaries.items():
        print(f"  {name:12} {s['median']:.6g} {units.get(name, 's')}  "
              f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n {s['n']})")
    print(f"  failed_share {failed / attempted:.6g}  ({failed} of {attempted} runs)")
    print(f"  sim_digest   {record['sim_digest']}")
    for problem in inv.problems:
        print(f"  FAILED: {problem}")
    if traced is None:
        metrics = {k: {"value": summaries[k]["median"], "unit": units.get(k, "")}
                   for k in ("wall_s", "peak_rss_mb", "setup_s", "ok_share")}
    else:
        record["traced"] = traced
        print(f"  fidelity     output matches the {traced['fidelity']} cells"
              if traced["fidelity"] != "stale" else
              "  fidelity     STALE (the traced run counts as failed): "
              "the per-layer numbers below do not describe what the program ran")
        print(f"  cells_digest {traced['cells_digest']}")
        print(f"  critical cell {traced['critical_cell']}")
        for name, v in traced["metrics"].items():
            print(f"  {name:38} {v:.6g} {units.get(name, '')}")
        print("  self time by span (s):")
        for name, row in traced["self_time_s"].items():
            print(f"    {name:34} self {row['self_s']:9.4f}  total {row['total_s']:9.4f}  "
                  f"x{row['count']}")
        metrics = {k: {"value": v, "unit": units.get(k, "")} for k, v in traced["metrics"].items()}

    results = root / ".perfbench-out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    if traced is not None:
        shutil.copy(inv.work / "trace" / "spans.jsonl",
                    results / f"{args.workload}-seed{args.seed}-spans.jsonl")
    print(f"  record       {path.relative_to(root)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def load_results(path):
    """Result records under `path` (one file or a directory of them), by
    (workload, trace). The records of one group, one per seed, pool into
    one summary per metric over their medians, as repeated runs are
    compared; a single record keeps its own samples' summary."""
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    groups = {}
    for f in files:
        r = json.loads(f.read_text())
        groups.setdefault((r["workload"], r["trace"]), []).append(r)
    out = {}
    for key, records in groups.items():
        if len(records) == 1:
            summaries = dict(records[0]["summaries"])
        else:
            summaries = {name: benchlib.summarize([r["summaries"][name]["median"] for r in records])
                         for name in records[0]["summaries"]}
        layer = {}
        for r in records:
            for name, value in r.get("traced", {}).get("metrics", {}).items():
                layer.setdefault(name, []).append(value)
        summaries.update({name: benchlib.summarize(v) for name, v in layer.items()})
        out[key] = {"revisions": sorted({r["revision"] for r in records}),
                    "digests": {r["seed"]: r["sim_digest"] for r in records},
                    "summaries": summaries}
    return out


def run_compare(old_path, new_path, root):
    spec = bench_spec(root)
    meta = {m["name"]: m for key in ("end_to_end", "per_layer") for m in spec.get(key, [])}
    old, new = load_results(old_path), load_results(new_path)
    for key in sorted(set(old) & set(new)):
        a, b = old[key], new[key]
        # Digests are compared seed by seed; the figures ignore the seed,
        # so without a common seed their digest sets must still agree.
        common = set(a["digests"]) & set(b["digests"])
        if common:
            digest = ("same" if all(a["digests"][s] == b["digests"][s] for s in common)
                      else "CHANGED")
        else:
            digest = ("same" if set(a["digests"].values()) == set(b["digests"].values())
                      else "differs (no common seed)")
        print(f"{key[0]} (trace {key[1]}): revision {','.join(a['revisions'])} -> "
              f"{','.join(b['revisions'])}, sim_digest {digest}")
        for name, before in a["summaries"].items():
            after = b["summaries"].get(name)
            if after is None:
                continue
            m = meta.get(name, {})
            v = benchlib.compare(before, after, m.get("bound"), m.get("better", "lower"))
            print(f"  {name:38} {before['median']:.6g} -> {after['median']:.6g} {m.get('unit', '')}"
                  f"  {v['delta']:+.2%}  (n {before['n']}/{after['n']}, bound "
                  f"{m.get('bound', '-')})  {v['verdict']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--revision", default="unknown",
                        help="caller-supplied revision string recorded with the result")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args()
    root = Path.cwd()
    try:
        if args.compare:
            run_compare(*args.compare, root)
        elif args.workload:
            run_benchmark(args, root)
        else:
            parser.error("--workload or --compare is required")
    except Failure as err:
        log(f"perfbench: {err}")
        sys.exit(2)


if __name__ == "__main__":
    main()
