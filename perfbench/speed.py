"""A stdlib-only reference slice that gauges the machine's speed right now.

The benchmark's machine is a few cores of a shared host, where the same
work runs up to 1.7x slower for minutes at a time, depending on what the
host's other tenants do.  In those spells CPU time slows as much as wall
time, so timing ops in CPU time (which removes the host's stops) is not
enough.
Every timing metric is therefore reported at reference speed: a raw time
is multiplied by REF_SLICE_MS over the time of a reference slice measured
next to it.  A slice does no aclab work, so a faster aclab reads faster.

A slice has three parts of about equal time, because Python code of
different kinds slows by different factors on a busy host: integer
bytecode (about 1.35x), Fraction, dict and sort work (about 1.65x), and
argparse, re and json text work (about 1.45x).  aclab's workloads slow by
1.35x to 1.5x, so the sum corrects them to within about 10 %.

Import this module only after set-up has been timed: it imports argparse,
which `import aclab.cli` would otherwise find already loaded.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import random
import re
import statistics
import time
from fractions import Fraction

# The nominal slice time: a raw time t measured beside a slice of s ms is
# reported as t * REF_SLICE_MS / s.  About the slice's median on the 2-core
# host the benchmark was defined on, so reported times read close to raw.
REF_SLICE_MS = 12.0

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|(.))")
_TEXT = "(x+l1^2)*(3*x-l2)/(x^3+1)" * 3


def _integers() -> int:
    acc = 0
    for i in range(30_000):
        acc = (acc + i * i) % 1_000_003
    return acc


def _fractions() -> int:
    rng = random.Random(1)
    table: dict = {}
    acc = Fraction(0)
    for _ in range(200):
        key = (rng.randrange(50), rng.randrange(5))
        f = Fraction(rng.randrange(1, 100), rng.randrange(1, 100))
        table[key] = table.get(key, Fraction(0)) + f
        acc += f * f
    return len(sorted(table.items())) + acc.denominator % 7


def _text() -> int:
    total = 0
    for i in range(3):
        parser = argparse.ArgumentParser(prog="ref")
        sub = parser.add_subparsers(dest="cmd")
        for name in ("val", "psi", "cmp", "set", "classify"):
            cmd = sub.add_parser(name)
            cmd.add_argument("expr")
            cmd.add_argument("--n", type=int, default=0)
        ns = parser.parse_args(["val", "--n", str(i), "x*l1^2+3"])
        tokens = [m.group(0) for m in _TOKEN.finditer(_TEXT)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            print(json.dumps({"cmd": ns.cmd, "tokens": tokens, "n": ns.n}))
        total += len(json.loads(buf.getvalue())["tokens"])
    return total


def slice_ms() -> float:
    """Time one reference slice in thread CPU time, as ops are timed, with
    the garbage collector off so that the size of aclab's heap does not
    enter it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time_ns()
        _integers()
        _fractions()
        _text()
        return (time.thread_time_ns() - start) / 1e6
    finally:
        if enabled:
            gc.enable()


def scale(slices: list[float]) -> float:
    """The factor taking raw times measured among ``slices`` to reference
    speed.  The median, because now and then one slice is hit by a stall."""
    return REF_SLICE_MS / statistics.median(slices)
