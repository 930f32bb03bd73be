"""The repository benchmark: four public-API workloads at full scale.

Run every workload once and print each end-to-end metric::

    python3 benchmarks/suite/run.py --seed 1990

One workload, several runs, per-layer metrics, a result file::

    python3 benchmarks/suite/run.py --workload unit-delay --runs 5 \\
        --trace 1 --out unit-delay.json

Compare two result files metric by metric against BENCHMARK.json's
bounds::

    python3 benchmarks/suite/run.py --compare before.json after.json

Each run is a fresh child process (``suite/workloads.py``) with an empty
``TMPDIR`` under ``.bench_suite/`` and a hard timeout; a child that
overruns is killed with everything it started and counted as a failed
operation.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
WORK = ROOT / ".bench_suite"

#: Default seconds a child may live, inside the 180 s a run is allowed.
TIMEOUT_S = 165.0


def load_spec(path: Path = SPEC_PATH) -> dict:
    with open(path) as handle:
        return json.load(handle)


def metric_table(spec: dict) -> dict:
    """Metric name -> declaration, end-to-end and per-layer alike."""
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else math.inf


def tail_percentile(
    samples: list[float], percent: float = 95.0, beyond: int = 10
) -> Optional[float]:
    """The nearest-rank percentile, or ``None`` when fewer than
    ``beyond`` samples lie above it (too few to say anything)."""
    ordered = sorted(samples)
    rank = math.ceil(percent / 100.0 * len(ordered))
    if rank < 1 or len(ordered) - rank < beyond:
        return None
    return ordered[rank - 1]


def verdict(base: list[float], new: list[float], better: str,
            bound: float) -> str:
    """``ok``, ``regressed`` or ``unresolved`` for one metric.

    ``regressed``: the new median is worse than the base median by more
    than ``bound`` (a share of the base median).  ``unresolved``: the
    run-to-run spread of either side is wider than ``bound``, so a
    change of that size cannot be told from noise — unless every new
    run reads better (``ok``) or, past the bound, worse (``regressed``)
    than every base run.
    """
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (statistics.median(new) - statistics.median(base))
    worse /= abs(statistics.median(base))
    if all(sign * (n - b) < 0 for n in new for b in base):
        return "ok"
    if worse > bound and all(sign * (n - b) > 0 for n in new for b in base):
        return "regressed"
    if max(relative_spread(base), relative_spread(new)) > bound:
        return "unresolved"
    return "regressed" if worse > bound else "ok"


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------
def c_compiler() -> Optional[str]:
    """The compiler ``repro`` will pick: ``$CC``, cc, gcc, clang."""
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if candidate and shutil.which(candidate):
            return shutil.which(candidate)
    return None


def _output(command: list[str]) -> Optional[str]:
    try:
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed: int, compiler: str, workloads: dict) -> dict:
    """Host, compiler, commit, and per workload its circuit and the
    flags cc was given for each compiled machine."""
    cpu = None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    status = _output(["git", "status", "--porcelain"])
    version = _output([compiler, "--version"]) or ""
    return {
        "commit": _output(["git", "rev-parse", "HEAD"]),
        "dirty": bool(status) if status is not None else None,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "compiler": compiler,
        "compiler_version": version.splitlines()[0] if version else None,
        "python": platform.python_version(),
        "seed": seed,
        "workloads": {
            name: {key: run[key] for key in ("circuit", "machines")}
            for name, summary in workloads.items()
            for run in summary["runs"][:1] if "circuit" in run
        },
    }


# ----------------------------------------------------------------------
# running
# ----------------------------------------------------------------------
def run_child(workload: str, args, index: int) -> dict:
    """One run of one workload in a fresh process with a cold cache."""
    workdir = WORK / f"run-{os.getpid()}-{workload}-{index}"
    tmp = workdir / "tmp"
    tmp.mkdir(parents=True)
    result_path = workdir / "result.json"
    command = [
        sys.executable, "-m", "suite.workloads",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scale", str(args.scale), "--workdir", str(workdir),
        "--result", str(result_path),
    ]
    if args.trace:
        command += ["--spans", str(WORK / f"spans-{workload}.json")]
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": os.pathsep.join(
            [str(ROOT / "src"), str(SUITE.parent)]
        ),
        "TMPDIR": str(tmp),
        "XDG_CACHE_HOME": str(tmp),
    })
    started = time.perf_counter()
    child = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=sys.stderr,
        start_new_session=True,
    )
    try:
        child.wait(timeout=args.timeout)
    except subprocess.TimeoutExpired:
        pass
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
    elapsed = time.perf_counter() - started
    try:
        with open(result_path) as handle:
            result = json.load(handle)
    except (OSError, ValueError):
        result = {
            "workload": workload, "seed": args.seed,
            "error": f"no result after {elapsed:.1f}s "
                     f"(exit {child.returncode}, timeout {args.timeout}s)",
            "attempted": 1, "failed": 1,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["child_wall_s"] = elapsed
    return result


def summarize_workload(runs: list[dict], table: dict) -> dict:
    """Median, quartiles and sample count per metric over the runs."""
    good = [r for r in runs if "metrics" in r]
    metrics = {}
    for name in sorted({n for r in good for n in r["metrics"]}):
        values = [r["metrics"][name] for r in good if name in r["metrics"]]
        q1, median, q3 = quartiles(values)
        metrics[name] = {
            "unit": table.get(name, {}).get("unit"),
            "median": median, "q1": q1, "q3": q3, "n": len(values),
            "values": values,
        }
    samples = [1e3 * s for r in good for s in r["call_normalized_s"]]
    digests = [r["digests"] for r in good if "digests" in r]
    return {
        "metrics": metrics,
        "pooled_call_ms": {
            "samples": len(samples),
            "p50": statistics.median(samples) if samples else None,
            "p95": tail_percentile(samples),
        },
        "digests": digests[0] if digests else None,
        "correct": bool(good) and len(good) == len(runs)
        and all(r["failed"] == 0 for r in runs)
        and all(d == digests[0] for d in digests),
        "runs": runs,
    }


def print_summary(workloads: dict) -> None:
    print(f"{'workload':<12} {'metric':<26} {'median':>14} {'unit':<7}"
          f" {'q1':>12} {'q3':>12} {'n':>3}")
    for name, summary in workloads.items():
        for metric, row in summary["metrics"].items():
            print(f"{name:<12} {metric:<26} {row['median']:>14.6g} "
                  f"{row['unit'] or '':<7} {row['q1']:>12.6g} "
                  f"{row['q3']:>12.6g} {row['n']:>3}")
        pooled = summary["pooled_call_ms"]
        if pooled["p95"] is not None:
            print(f"{name:<12} {'call_ms.p95 (pooled)':<26} "
                  f"{pooled['p95']:>14.6g} {'ms':<7} "
                  f"{'':>12} {'':>12} {pooled['samples']:>3}")
        if not summary["correct"]:
            for run in summary["runs"]:
                if run.get("error") or run.get("failed"):
                    print(f"{name:<12} FAILED: "
                          f"{run.get('error') or run.get('verify')}")


def compare(path_a: str, path_b: str, spec: dict) -> int:
    """Print one row per (workload, end-to-end metric); 1 on regression."""
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    status = 0
    print(f"{'workload':<12} {'metric':<16} {'A median':>11} "
          f"{'A q1..q3':>23} {'B median':>11} {'B q1..q3':>23} "
          f"{'change':>8} {'bound':>6}  verdict")
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        side_a = a["workloads"][workload]
        side_b = b["workloads"][workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            ra = side_a["metrics"].get(name)
            rb = side_b["metrics"].get(name)
            if ra is None or rb is None:
                continue
            label = verdict(
                ra["values"], rb["values"], metric["better"], metric["bound"]
            )
            change = (rb["median"] - ra["median"]) / abs(ra["median"])
            print(f"{workload:<12} {name:<16} {ra['median']:>11.5g} "
                  f"{ra['q1']:>11.5g}..{ra['q3']:<11.5g} "
                  f"{rb['median']:>11.5g} "
                  f"{rb['q1']:>11.5g}..{rb['q3']:<11.5g} "
                  f"{change:>+8.1%} {metric['bound']:>6.0%}  {label}")
            if label == "regressed":
                status = 1
        if side_a.get("digests") != side_b.get("digests"):
            print(f"{workload:<12} OUTPUT DIGESTS DIFFER: "
                  f"{side_a.get('digests')} vs {side_b.get('digests')}")
            status = 1
    return status


def parse_args(argv, spec: dict):
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", "--workloads", action="append",
                        choices=names, help="repeatable; default: all")
    parser.add_argument("--seed", type=int, default=1990)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="call time measured per run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer metrics instead")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, each in a fresh process")
    parser.add_argument("--out", help="write the full result file here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--timeout", type=float, default=TIMEOUT_S,
                        help="seconds before a run is killed")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="below 1.0: a smoke test, not evidence")
    args = parser.parse_args(argv)
    args.workload = args.workload or names
    return args


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no library source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    args = parse_args(argv, spec)
    if args.compare:
        return compare(*args.compare, spec)
    compiler = c_compiler()
    if compiler is None:
        print("error: no C compiler ($CC, cc, gcc or clang); the "
              "benchmark measures the C backend and never falls back",
              file=sys.stderr)
        return 2
    table = metric_table(spec)
    workloads = {}
    for workload in args.workload:
        runs = [run_child(workload, args, i) for i in range(args.runs)]
        workloads[workload] = summarize_workload(runs, table)
    attempted = sum(r["attempted"] for s in workloads.values()
                    for r in s["runs"])
    failed = sum(r["failed"] for s in workloads.values() for r in s["runs"])
    correct = all(s["correct"] for s in workloads.values())
    print_summary(workloads)
    if args.out:
        doc = {
            "schema": "repro-suite/1",
            "provenance": provenance(args.seed, compiler, workloads),
            "config": {
                "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "runs": args.runs,
                "scale": args.scale, "evidence": args.scale == 1.0,
            },
            "workloads": workloads,
            "attempted": attempted, "failed": failed, "correct": correct,
        }
        with open(args.out, "w") as handle:
            json.dump(doc, handle, indent=1)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for workload, summary in workloads.items():
        prefix = "" if len(workloads) == 1 else f"{workload}/"
        for metric in declared:
            row = summary["metrics"].get(metric["name"])
            if row is not None:
                metrics[prefix + metric["name"]] = {
                    "value": row["median"], "unit": metric["unit"],
                }
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
