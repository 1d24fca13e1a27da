#!/usr/bin/env python3
"""End-to-end benchmark of reldiv; see bench/e2e/README.md.

Run (builds build/e2e/reldiv_e2e first, then runs each workload in its own
process, checks its outputs and prints every metric with its unit):

  python3 bench/e2e/run.py [--workload NAME] [--seed N]
                           [--trace [0|1|both]] [--repeat N] [--smoke]

Every run measures run_seconds of BENCHMARK.json (1 s with --smoke).
--seconds S is accepted only with that value, so that callers which always
pass it cannot change the run length.

Compare two directories of result files (choosing-metrics rule, section 8):

  python3 bench/e2e/run.py compare PARENT_DIR CHANGE_DIR \
      [--claim METRIC@WORKLOAD ...]

The last line of a run's standard output is one JSON object with the keys
correct, attempted, failed and metrics. Each run also writes
build/e2e/results/<stamp>.json (host cores, compiler, commit, seed and
every metric) and, when traced, one chrome-trace file per workload. The
exit code is non-zero when any check fails.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build" / "e2e"
RESULTS = BUILD / "results"
BINARY = BUILD / "reldiv_e2e"
SPEC_FILE = ROOT / "BENCHMARK.json"

DEFAULT_SEED = 7
SMOKE_SECONDS = 1
RUN_TIMEOUT_S = 170
# Below these shares of traced wall time the per-layer split is too coarse
# to point at a layer; the run says so.
COVERAGE_FLOOR = {"service_mix": 0.90}
DEFAULT_COVERAGE_FLOOR = 0.95
# Environment switches of the library that would change what is measured.
LIBRARY_ENV = ("RELDIV_THREADS", "RELDIV_TELEMETRY", "RELDIV_KERNELS")


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed check)."""


def load_spec():
    with open(SPEC_FILE) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Statistics shared by runs and compare.

def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p% of the
    values at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def summary(values):
    q1, med, q3 = (percentile(values, p) for p in (25, 50, 75))
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "runs": len(values)}


# ---------------------------------------------------------------------------
# Build and run.

def sh(cmd, env=None):
    proc = subprocess.run([str(c) for c in cmd], stdout=sys.stderr,
                          stderr=sys.stderr, env=env)
    if proc.returncode != 0:
        raise BenchError("command failed: " + " ".join(map(str, cmd)))


def build():
    if not (ROOT / "src").is_dir():
        raise BenchError(f"no library sources at {ROOT / 'src'}")
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (BUILD / "CMakeCache.txt").exists():
        sh(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
           env)
    sh(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)], env)


def run_env():
    env = dict(os.environ)
    for name in LIBRARY_ENV:
        env.pop(name, None)
    return env


def run_workload(workload, seed, seconds, trace, smoke, stamp):
    cmd = [BINARY, "--workload", workload, "--seed", seed,
           "--seconds", seconds, "--trace", 1 if trace else 0]
    if smoke:
        cmd.append("--smoke")
    if trace:
        cmd += ["--trace-file", RESULTS / f"{stamp}-{workload}-trace.json"]
    try:
        proc = subprocess.run([str(c) for c in cmd], stdout=subprocess.PIPE,
                              text=True, env=run_env(),
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} ran longer than {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def apply_spec(run, spec):
    """Lists the run's metrics as BENCHMARK.json does, in its order and with
    its units. A per-layer metric the workload did not reach reads 0 (with 0
    samples). A missing end-to-end metric, or a name BENCHMARK.json does not
    list, fails the run."""
    listed = spec["per_layer"] if run["trace"] else spec["end_to_end"]
    measured = run["metrics"]
    for name in sorted(set(measured) - {m["name"] for m in listed}):
        run["errors"].append(f"metric {name} is not in BENCHMARK.json")
    metrics = {}
    for m in listed:
        got = measured.get(m["name"])
        if got is None and not run["trace"]:
            run["errors"].append(f"end-to-end metric {m['name']} is missing")
            continue
        got = got or {"value": 0, "samples": 0}
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"],
                              "samples": got["samples"]}
    run["metrics"] = metrics
    if run["attempted"] < 1:
        run["errors"].append("no operation was attempted")
    if run["errors"]:
        run["correct"] = False


def print_run(run):
    state = "correct" if run["correct"] else "FAILED"
    mode = "traced" if run["trace"] else "untraced"
    print(f"{run['workload']} ({mode}, seed {run['seed']}): {state}, "
          f"{run['attempted']} attempted, {run['failed']} failed")
    for error in run["errors"]:
        print(f"  check failed: {error}")
    for name, m in run["metrics"].items():
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']:9s}"
              f"({m['samples']} samples)")
    print("  info: " + ", ".join(f"{k} {v:.6g}"
                                 for k, v in run["info"].items()))
    if run["trace"]:
        floor = COVERAGE_FLOOR.get(run["workload"], DEFAULT_COVERAGE_FLOOR)
        coverage = run["metrics"].get("trace.coverage", {}).get("value", 0)
        if coverage < floor:
            print(f"  warning: trace.coverage {coverage:.3f} is below "
                  f"{floor}; the layer split misses part of the time")


def commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, env=env)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def compiler():
    cache = BUILD / "CMakeCache.txt"
    path = "c++"
    if cache.exists():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_CXX_COMPILER:"):
                path = line.split("=", 1)[1]
    try:
        out = subprocess.run([path, "--version"], capture_output=True,
                             text=True).stdout
    except OSError:
        return path
    return out.splitlines()[0] if out else path


def result_line(runs):
    """The benchmark's last output line. With one run its metrics keep their
    names; with several each name gets an @workload suffix (and repeats of
    one workload are reduced to their median)."""
    values = {}
    units = {}
    for run in runs:
        for name, m in run["metrics"].items():
            key = name if len(runs) == 1 else f"{name}@{run['workload']}"
            values.setdefault(key, []).append(m["value"])
            units[key] = m["unit"]
    return {
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": {key: {"value": statistics.median(v), "unit": units[key]}
                    for key, v in values.items()},
    }


def cmd_run(args):
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    chosen = args.workload or workloads
    for w in chosen:
        if w not in workloads:
            raise BenchError(f"unknown workload {w}; one of {workloads}")
    if args.seconds is not None and args.seconds != spec["run_seconds"]:
        raise BenchError(f"--seconds {args.seconds}: every run measures "
                         f"run_seconds = {spec['run_seconds']} of "
                         f"BENCHMARK.json")
    seconds = SMOKE_SECONDS if args.smoke else spec["run_seconds"]
    modes = {"0": [False], "1": [True], "both": [False, True]}[args.trace]

    build()
    RESULTS.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
    runs = []
    for repeat in range(args.repeat):
        for trace in modes:
            for workload in chosen:
                run = run_workload(workload, args.seed, seconds, trace,
                                   args.smoke, stamp)
                run["repeat"] = repeat
                apply_spec(run, spec)
                print_run(run)
                runs.append(run)
    record = {
        "stamp": stamp,
        "host": {"cores": os.cpu_count(), "machine": platform.machine(),
                 "system": platform.system()},
        "compiler": compiler(),
        "commit": commit(),
        "seed": args.seed,
        "seconds": seconds,
        "smoke": args.smoke,
        "runs": runs,
    }
    out = RESULTS / f"{stamp}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"results: {out.relative_to(ROOT)}")
    line = result_line(runs)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


# ---------------------------------------------------------------------------
# compare: the choosing-metrics section 8 rule over two result directories.

def load_values(directory, metric_names):
    """(metric, workload) -> [(seed, value)], from every result file in
    `directory` (files sorted by name, runs in file order). Raises BenchError
    unless all files were run with the same (smoke, seconds); returns that
    pair too."""
    settings = set()
    values = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if "runs" not in record:
            continue  # a chrome-trace file
        settings.add((record["smoke"], record["seconds"]))
        for run in record["runs"]:
            for name, m in run["metrics"].items():
                if name in metric_names:
                    values.setdefault((name, run["workload"]), []).append(
                        (record["seed"], m["value"]))
    if len(settings) != 1:
        found = ", ".join(f"smoke {s} for {t} s" for s, t in sorted(settings))
        raise BenchError(f"{directory}: need result files of one setting, "
                         f"found {found or 'none'}")
    return settings.pop(), values


def paired_by_seed(parent, change, key):
    """The two sides' values of one (metric, workload), ordered by seed so
    that the i-th values of both sides ran on the same inputs. Raises
    BenchError unless both sides ran the same seeds equally often."""
    parent_seeds = sorted(seed for seed, _ in parent)
    change_seeds = sorted(seed for seed, _ in change)
    if parent_seeds != change_seeds:
        raise BenchError(f"{key[0]}@{key[1]}: the parent ran seeds "
                         f"{parent_seeds}, the change {change_seeds}")
    # sorted() is stable, so runs of one seed keep their file order.
    return ([v for _, v in sorted(parent, key=lambda sv: sv[0])],
            [v for _, v in sorted(change, key=lambda sv: sv[0])])


def worse_by(parent, change, better):
    """Relative amount by which `change` is worse than `parent`."""
    if parent == 0:
        return 0.0 if change == parent else math.inf
    gap = (change - parent) / abs(parent)
    return gap if better == "lower" else -gap


def is_better(a, b, better):
    return a < b if better == "lower" else a > b


def label_pair(parent, change, metric):
    """'regressed', 'unresolved' or 'no worse' for one (metric, workload)."""
    p, c = summary(parent), summary(change)
    bound = metric["bound"]
    spread = max(p["iqr"] / abs(p["median"]) if p["median"] else 0,
                 c["iqr"] / abs(c["median"]) if c["median"] else 0)
    all_better = all(is_better(x, y, metric["better"])
                     for x in change for y in parent)
    if spread > bound and not all_better:
        return "unresolved"
    if worse_by(p["median"], c["median"], metric["better"]) > bound:
        return "regressed"
    return "no worse"


def claim_holds(parent, change, better):
    """(holds, reason): the change wins at least 9/10 of the run pairs (the
    i-th run of each side; ties count for neither) and the medians differ, in
    its favour, by more than the parent's interquartile range."""
    pairs = list(zip(parent, change))
    if len(pairs) < 10:
        return False, f"{len(pairs)} pairs, at least 10 needed"
    wins = sum(1 for p, c in pairs if is_better(c, p, better))
    p, c = summary(parent), summary(change)
    gap = p["median"] - c["median"] if better == "lower" else (
        c["median"] - p["median"])
    if wins < 0.9 * len(pairs):
        return False, f"change won {wins} of {len(pairs)} pairs"
    if gap <= p["iqr"]:
        return False, (f"median gap {gap:.6g} is not above the parent's "
                       f"IQR {p['iqr']:.6g}")
    return True, f"change won {wins} of {len(pairs)} pairs"


def compare(parent_dir, change_dir, claims, spec):
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    parent_setting, parent_runs = load_values(parent_dir, metrics)
    change_setting, change_runs = load_values(change_dir, metrics)
    if parent_setting != change_setting:
        raise BenchError(f"the parent ran (smoke, seconds) {parent_setting}, "
                         f"the change {change_setting}")
    pairs = {key: paired_by_seed(parent_runs[key], change_runs[key], key)
             for key in sorted(set(parent_runs) & set(change_runs))}
    rows = []
    for key, (parent, change) in pairs.items():
        rows.append({"metric": key[0], "workload": key[1],
                     "parent": summary(parent),
                     "change": summary(change),
                     "label": label_pair(parent, change, metrics[key[0]])})
    verdicts = []
    for claim in claims:
        name, _, workload = claim.partition("@")
        key = (name, workload)
        if key not in pairs:
            verdicts.append((claim, False, "no runs of this pair"))
            continue
        holds, reason = claim_holds(*pairs[key], metrics[name]["better"])
        verdicts.append((claim, holds, reason))
    return rows, verdicts


def cmd_compare(args):
    rows, verdicts = compare(args.parent, args.change, args.claim,
                             load_spec())
    if not rows:
        raise BenchError("no (metric, workload) pair has runs on both sides")
    print(f"{'metric@workload':36s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s}  label")
    for r in rows:
        p, c = r["parent"], r["change"]
        print(f"{r['metric'] + '@' + r['workload']:36s} "
              f"{p['median']:>12.6g} [{p['q1']:.6g}, {p['q3']:.6g}] "
              f"{c['median']:>12.6g} [{c['q1']:.6g}, {c['q3']:.6g}]  "
              f"{r['label']}")
    for claim, holds, reason in verdicts:
        print(f"claim {claim}: {'holds' if holds else 'not met'} ({reason})")
    failed = any(r["label"] == "regressed" for r in rows) or any(
        not holds for _, holds, _ in verdicts)
    return 1 if failed else 0


def main(argv):
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("parent")
        parser.add_argument("change")
        parser.add_argument("--claim", action="append", default=[],
                            metavar="METRIC@WORKLOAD")
        args = parser.parse_args(argv[1:])
        handler = cmd_compare
    else:
        parser = argparse.ArgumentParser(prog="run.py")
        parser.add_argument("--workload", action="append",
                            help="run only this workload (repeatable)")
        parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
        parser.add_argument("--seconds", type=int,
                            help="must equal run_seconds of BENCHMARK.json, "
                                 "which fixes the length of every run")
        parser.add_argument("--trace", nargs="?", const="both", default="0",
                            choices=["0", "1", "both"],
                            help="0: untraced only, 1: traced only, "
                                 "both (bare --trace): untraced then traced")
        parser.add_argument("--repeat", type=int, default=1)
        parser.add_argument("--smoke", action="store_true",
                            help=f"tiny inputs, {SMOKE_SECONDS} s per run")
        args = parser.parse_args(argv)
        handler = cmd_run
    try:
        return handler(args)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
