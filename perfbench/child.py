"""One fresh interpreter of a benchmark run; prints one JSON line.

    python3 perfbench/child.py MODE WORKLOAD SEED SECONDS [OPS]

MODE is one of
  setup    time set-up once (see set_up) and report it;
  measure  set up, then run passes untraced for SECONDS of op time, with
           set-up probes in fresh interpreters at evenly spaced points;
  prefix   set up, then run pass-0 ops untraced until SECONDS have passed;
  trace    set up, install the tracer, run the first OPS ops of pass 0.

Every op's output is checked; checking is not part of the op's latency.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (after the path set-up; imports no aclab)

MAX_FAILURE_SAMPLES = 5
SETUP_PROBES = 20
SETUP_SLICES = 3
SLICE_EVERY_S = 0.5
SLICE_WINDOW = 10
PROBE_TIMEOUT_S = 30


def machine_loop_ms() -> float:
    """A fixed stdlib-only loop: a machine-speed reading, not a metric."""
    start = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - start) * 1e3


def set_up(workload: str, seed: int, inputs: bool = True):
    """Import aclab and build pass 0; returns (ops, set-up seconds).

    The seconds cover aclab's share of set-up: importing it, plus building
    the inputs on field and couple, where building calls aclab.  queries
    requests and their expected answers are made by the benchmark alone, so
    there the clock covers importing aclab and aclab.cli, and the requests
    are built after it stops (not at all when ``inputs`` is false)."""
    start = time.perf_counter()
    if workload == "queries":
        import aclab.cli  # noqa: F401
        seconds = time.perf_counter() - start
        ops = workloads.build(workload, seed, 0) if inputs else None
    else:
        import aclab  # noqa: F401
        ops = workloads.build(workload, seed, 0)
        seconds = time.perf_counter() - start
    return ops, seconds


def setup_probe(workload: str, seed: int) -> float:
    """One set-up sample, at reference speed, from a fresh interpreter."""
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "setup", workload,
                           str(seed), "0"], capture_output=True, text=True, check=True,
                          timeout=PROBE_TIMEOUT_S)
    return json.loads(proc.stdout)["setup_s"]


def at_reference_speed(raw_s: float) -> float:
    """Scale a set-up time by reference slices taken right after it (not
    before: a slice imports stdlib modules that set-up would then skip)."""
    import speed

    speed.slice_ms()  # warm-up, discarded
    return raw_s * speed.scale([speed.slice_ms() for _ in range(SETUP_SLICES)])


class Runner:
    """Runs ops, times each call, checks each output.

    An op's latency is its thread CPU time: on a shared host the wall clock
    also counts the moments the host runs someone else, which make up most
    of the wall clock's tail.  Wall time is kept for the record.  A
    reference slice (perfbench/speed.py) runs at the start and end of
    every ``run`` and between ops at least SLICE_EVERY_S apart; each op's
    latency is also reported at reference speed, scaled by the median of
    the two slices around it and SLICE_WINDOW more on each side.  That is
    about ten seconds: long enough that the factor's own noise does not
    pick the tail's ops, short enough to follow the host's slow and fast
    spells."""

    def __init__(self, run_op=None) -> None:
        import speed

        self.speed = speed
        self.cpu_ns: list[int] = []
        self.wall_ns: list[int] = []
        self.op_slice: list[int] = []      # per op: index of the slice before it
        self.slices_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.run_op = run_op
        speed.slice_ms()  # warm-up, discarded
        self.last_slice = 0.0

    def _slice(self) -> None:
        self.slices_ms.append(self.speed.slice_ms())
        self.last_slice = time.perf_counter()

    def run(self, ops, deadline: float | None = None) -> int:
        """Run ops in order until the deadline; returns how many ran."""
        ran = 0
        self._slice()
        for label, call, check in ops:
            if deadline is not None and time.perf_counter() >= deadline:
                break
            if time.perf_counter() - self.last_slice >= SLICE_EVERY_S:
                self._slice()
            op_id = self.attempted
            self.attempted += 1
            ran += 1
            self.op_slice.append(len(self.slices_ms) - 1)
            start, start_cpu = time.perf_counter_ns(), time.thread_time_ns()
            try:
                output = self.run_op(op_id, call) if self.run_op else call()
            except (Exception, SystemExit) as exc:  # a raising op is a failed op
                output, error = None, f"raised {type(exc).__name__}: {exc}"[:300]
            else:
                error = None
            self.cpu_ns.append(time.thread_time_ns() - start_cpu)
            self.wall_ns.append(time.perf_counter_ns() - start)
            if error is None:
                try:
                    error = check(output)
                except Exception:  # a check that cannot read the output fails the op
                    error = "check raised: " + traceback.format_exc(limit=1)[-300:]
            if error is not None:
                self.failed += 1
                if len(self.failures) < MAX_FAILURE_SAMPLES:
                    self.failures.append(f"{label}: {error}")
        self._slice()
        return ran

    def result(self) -> dict:
        slices = self.slices_ms
        ref = [ns * self.speed.scale(slices[max(0, k - SLICE_WINDOW):k + SLICE_WINDOW + 2])
               for ns, k in zip(self.cpu_ns, self.op_slice)]
        return {"attempted": self.attempted, "failed": self.failed,
                "failures": self.failures, "wall_ns": self.wall_ns, "cpu_ns": self.cpu_ns,
                "ref_latencies_ns": ref, "slices_ms": slices,
                "timed_s": sum(self.wall_ns) / 1e9, "cpu_s": sum(self.cpu_ns) / 1e9,
                "ref_timed_s": sum(ref) / 1e9}


def measure(workload: str, seed: int, seconds: float) -> dict:
    """Run passes for ``seconds`` of op time.  The set-up probes run at evenly
    spaced points of that time, so that setup_s samples the machine's speed
    over the whole run, not at one moment; the probes and the building of
    later passes are not counted as op time."""
    ops, setup_s = set_up(workload, seed)
    setups = [at_reference_speed(setup_s)]
    pass_ops = len(ops)
    loop_before = machine_loop_ms()
    runner = Runner()
    passes, next_op, paused = 1, 0, 0.0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start - paused
        if elapsed >= seconds:
            break
        probe_due = (len(setups) - 0.5) * seconds / SETUP_PROBES
        if len(setups) <= SETUP_PROBES and elapsed >= probe_due:
            t = time.perf_counter()
            setups.append(setup_probe(workload, seed))
            paused += time.perf_counter() - t
            continue
        if next_op == len(ops):
            t = time.perf_counter()
            ops, next_op = workloads.build(workload, seed, passes), 0
            passes += 1
            paused += time.perf_counter() - t
        stop = min(seconds, probe_due) if len(setups) <= SETUP_PROBES else seconds
        next_op += runner.run(ops[next_op:], deadline=time.perf_counter() + stop - elapsed)
    loop_after = machine_loop_ms()
    out = runner.result()
    out.update(setup_samples_s=setups, pass_ops=pass_ops, passes=passes,
               machine_loop_ms=[loop_before, loop_after],
               peak_rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if workload == "queries":
        with contextlib.redirect_stderr(io.StringIO()):
            out["known_defects"] = workloads.known_defects()
    return out


def prefix(workload: str, seed: int, seconds: float) -> dict:
    ops, _ = set_up(workload, seed)
    runner = Runner()
    runner.run(ops, deadline=time.perf_counter() + seconds)
    return runner.result()


def trace(workload: str, seed: int, count: int) -> dict:
    from tracer import Tracer

    ops, _ = set_up(workload, seed)
    tracer = Tracer()
    tracer.install()
    runner = Runner(run_op=tracer.run_op)
    start = time.perf_counter()
    runner.run(ops[:count])
    out = runner.result()
    out["wall_s"] = time.perf_counter() - start
    from aclab import pcseq
    info = pcseq.lambda_term.cache_info()
    lookups = info.hits + info.misses
    layers = tracer.metrics()
    layers["pcseq.lambda_term.hit_ratio"] = (info.hits / lookups if lookups else 0.0, "ratio")
    out["layers"] = layers
    out["self_s"] = dict(tracer.self_ns)
    spans = os.path.join(HERE, "out", f"spans-{workload}-{os.getpid()}.tsv")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    tracer.write_spans(spans)
    out["span_log"] = os.path.relpath(spans, ROOT)
    return out


def main(argv: list[str]) -> int:
    mode, workload, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    if mode == "setup":
        out = {"setup_s": at_reference_speed(set_up(workload, seed, inputs=False)[1])}
    elif mode == "measure":
        out = measure(workload, seed, seconds)
    elif mode == "prefix":
        out = prefix(workload, seed, seconds)
    elif mode == "trace":
        out = trace(workload, seed, int(argv[4]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
