"""aclab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload field|couple|queries --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding src/aclab).
Every run uses fresh interpreters, so aclab's caches start cold:

  --trace 0  one interpreter sets up and runs passes of the workload for S
             seconds of op time; twenty set-up-only interpreters, started at
             evenly spaced points of that time, give more set-up samples.
             Prints the end-to-end metrics.
  --trace 1  one interpreter runs pass-0 ops untraced for a third of S, a
             second runs the same ops with every traced aclab call wrapped.
             Prints the per-layer metrics and trace.overhead_ratio.

Times are reported at reference speed (see speed.py): an op's latency is
its thread CPU time, scaled by stdlib reference slices run between ops,
and a set-up time is scaled by slices run right after it.  The info line
also gives the three op timings from raw wall and raw CPU time.

Earlier stdout lines are for people: each metric with its unit, the
fail ratio, tail percentile, op count, machine-speed readings and known
defects.  The last line is the JSON result.  Raw results go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD_TIMEOUT_S = 170
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND_TAIL = 10


def tail_percentile(pass_ops: int) -> float:
    """Highest percentile with at least ten ops of one pass beyond it.  It
    depends only on the workload's pass size, so it is the same on every
    commit however many ops a run completes."""
    for p in TAIL_LADDER:
        if pass_ops * (100 - p) / 100 >= MIN_BEYOND_TAIL:
            return p
    return 50.0


def nearest_rank(sorted_values: list, p: float):
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


def src_loc(root: str) -> int:
    """Non-blank lines under src/aclab, for the record."""
    total = 0
    src = os.path.join(root, "src", "aclab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                total += sum(1 for line in fh if line.strip())
    return total


class ChildError(RuntimeError):
    pass


def child(root: str, deadline: float, *args) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildError("out of time before starting " + " ".join(map(str, args)))
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), *map(str, args)],
                              cwd=root, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildError(f"child {args} timed out") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildError(f"child {args} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def untraced(root: str, args, deadline: float) -> tuple[dict, dict]:
    res = child(root, deadline, "measure", args.workload, args.seed, args.seconds)
    setups = res["setup_samples_s"]
    p = tail_percentile(res["pass_ops"])
    ok_ops = res["attempted"] - res["failed"]

    def timings(latencies_ns: list, timed_s: float) -> dict:
        lat = sorted(latencies_ns)
        return {"ops_per_s": (ok_ops / timed_s, "ops/s"),
                "op_p50_ms": (statistics.median(lat) / 1e6, "ms"),
                "op_tail_ms": (nearest_rank(lat, p) / 1e6, "ms")}

    metrics = {"setup_s": (statistics.median(setups), "s"),
               **timings(res["ref_latencies_ns"], res["ref_timed_s"]),
               "peak_rss_mb": (res["peak_rss_kib"] / 1024, "MiB")}
    info = {
        "fail_ratio": res["failed"] / res["attempted"],
        "tail_percentile": p, "ops": res["attempted"], "pass_ops": res["pass_ops"],
        "passes": res["passes"], "timed_s": res["timed_s"], "setup_samples_s": setups,
        "wall": {name: v for name, (v, _) in timings(res["wall_ns"], res["timed_s"]).items()},
        "cpu": {name: v for name, (v, _) in timings(res["cpu_ns"], res["cpu_s"]).items()},
        "slices_ms": summary(res["slices_ms"]),
        "machine_loop_ms": res["machine_loop_ms"], "failures": res["failures"],
        "known_defects": res.get("known_defects", []),
    }
    return res, {"metrics": metrics, "info": info}


def summary(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "min": min(values), "q1": q1, "median": q2, "q3": q3,
            "max": max(values)}


def traced(root: str, args, deadline: float) -> tuple[dict, dict]:
    plain = child(root, deadline, "prefix", args.workload, args.seed, args.seconds / 3)
    count = plain["attempted"]
    res = child(root, deadline, "trace", args.workload, args.seed, 0, count)
    metrics = {name: tuple(v) for name, v in res["layers"].items()}
    metrics["trace.overhead_ratio"] = (plain["ref_timed_s"] / res["ref_timed_s"], "ratio")
    res["failed"] += plain["failed"]
    res["failures"] += plain["failures"]
    info = {"ops": count, "untraced_timed_s": plain["timed_s"], "traced_timed_s": res["timed_s"],
            "untraced_ref_timed_s": plain["ref_timed_s"], "traced_ref_timed_s": res["ref_timed_s"],
            "traced_wall_s": res["wall_s"],
            "module_self_s": {m: ns / 1e9 for m, ns in res["self_s"].items()},
            "span_log": res["span_log"], "failures": res["failures"]}
    return res, {"metrics": metrics, "info": info}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "aclab", "__init__.py")):
        print("perfbench: run from the root of an aclab checkout (no src/aclab here)",
              file=sys.stderr)
        return 2
    started = time.monotonic()
    deadline = started + CHILD_TIMEOUT_S
    try:
        res, report = (traced if args.trace else untraced)(root, args, deadline)
    except ChildError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    report["info"].update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                          trace=args.trace, src_loc=src_loc(root),
                          python=sys.version.split()[0], cpus=os.cpu_count(),
                          run_wall_s=time.monotonic() - started)
    for name, (value, unit) in report["metrics"].items():
        print(f"{args.workload:8s} {name:40s} {value:14.6g} {unit}")
    if "fail_ratio" in report["info"]:
        print(f"{args.workload:8s} {'fail_ratio':40s} {report['info']['fail_ratio']:14.6g} ratio")
    for defect in report["info"].get("known_defects", []):
        print(f"known defect {defect['name']}: {defect['status']}", file=sys.stderr)
    print(json.dumps({"info": report["info"]}, sort_keys=True))

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    with open(os.path.join(out_dir, f"result-{stamp}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)

    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
