"""Spans around calls into aclab, installed from outside the package.

Every traced function is replaced by a wrapper on its class or module and
under every other name an aclab module bound it to at import (``setprops``
does ``from .acouple import psi``), so internal calls are traced too.  A
call directly nested in a call of the same op (recursion, or ``a < b``
calling ``ogroup.cmp``) is merged into the outer span.

Aggregates (calls, inclusive time, per-module self time, counters) are
updated as each span closes, from the same stack that gives every span its
parent.  Storing every span would take gigabytes on the field workload, so
only the first ``MAX_SPANS`` span records are kept in memory and written
out at the end.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter_ns

MODULES = ("ogroup", "acouple", "logts", "setprops", "extend", "pcseq", "cli")

# (module, op) -> [(owner, attribute)], owner a module or "module.Class".
# Ops listed here are reported as per-layer metrics.
REPORTED = {
    ("ogroup", "add"): [("ogroup.GroupElem", "__add__")],
    ("ogroup", "sub"): [("ogroup.GroupElem", "__sub__")],
    ("ogroup", "cmp"): [("ogroup.GroupElem", m) for m in ("__lt__", "__le__", "__gt__", "__ge__")]
    + [("ogroup", "cmp")],
    ("ogroup", "eq"): [("ogroup.GroupElem", "__eq__")],
    ("ogroup", "hash"): [("ogroup.GroupElem", "__hash__")],
    ("acouple", "psi"): [("acouple", "psi")],
    ("acouple", "der"): [("acouple", "der")],
    ("acouple", "integrate"): [("acouple", "integrate")],
    ("acouple", "successor"): [("acouple", "successor")],
    ("acouple", "chi"): [("acouple", "chi")],
    ("logts", "monomial_mul"): [("logts.Monomial", "__mul__")],
    ("logts", "series_add"): [("logts.Series", "__add__")],
    ("logts", "series_mul"): [("logts.Series", "__mul__")],
    ("logts", "series_derivative"): [("logts.Series", "derivative")],
    ("logts", "frac_add"): [("logts.Frac", "__add__")],
    ("logts", "frac_mul"): [("logts.Frac", "__mul__")],
    ("logts", "frac_eq"): [("logts.Frac", "__eq__")],
    ("logts", "frac_valuation"): [("logts.Frac", "valuation")],
    ("setprops", "verdict"): [("setprops", f) for f in ("is_jammed", "has_yardstick",
                                                        "has_derived_yardstick")],
    ("setprops", "recheck"): [("setprops", "recheck_jammed"), ("setprops", "recheck_yardstick")],
    ("setprops", "member"): [("setprops", "member")],
    ("extend", "yardstick_step"): [("extend", "yardstick_step")],
    ("extend", "chain"): [("extend", "chain")],
    ("extend", "verify_downward_no_max"): [("extend", "verify_downward_no_max")],
    ("pcseq", "kaplansky_check"): [("pcseq", "kaplansky_check")],
    ("pcseq", "is_pc_prefix"): [("pcseq", "is_pc_prefix")],
    ("pcseq", "pseudolimit_check"): [("pcseq", "pseudolimit_check")],
    ("pcseq", "width_prefix"): [("pcseq", "width_prefix")],
    ("pcseq", "lambda_free_witness"): [("pcseq", "lambda_free_witness")],
    ("cli", "main"): [("cli", "main")],
    ("cli", "build_parser"): [("cli", "build_parser")],
    ("cli", "parse"): [("cli", "parse")],
    ("cli", "evaluate"): [("cli", "evaluate")],
    ("cli", "parse_descriptor"): [("cli", "parse_descriptor")],
}

# Suite entry points the workloads call: traced only so that the work they
# do themselves counts toward their module's self time.
ENTRY_POINTS = {
    ("acouple", "suite"): [("acouple", f) for f in ("verify_couple_axioms", "identity_suite",
                                                    "conformance_grid")],
    ("logts", "suite"): [("logts", "check_axioms")],
    ("setprops", "suite"): [("setprops", "jammedness_suite"), ("setprops", "exclusion_suite")],
    ("pcseq", "suite"): [("pcseq", "lambda_suite")],
}

_FIELDS = 6
MAX_SPANS = 50_000

COUNTERS = ("logts.series_mul.term_products", "logts.series_mul.terms_out",
            "setprops.verdict.decided", "setprops.verdict.attempts")


class Tracer:
    """Span stack, per-op aggregates and a bounded span log."""

    def __init__(self) -> None:
        self.ops: list[tuple[str, str]] = [("bench", "op")]
        self.calls: list[int] = [0]
        self.incl_ns: list[int] = [0]
        self.self_ns: dict[str, int] = {"bench": 0}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.stack: list[list[int]] = []  # [op index, start ns, child ns, span id]
        self.spans = array("q")           # span id, op index, start, end, parent span, bench op id
        self.next_span = 0
        self.op_id = -1

    def _op_index(self, module: str, op: str) -> int:
        self.ops.append((module, op))
        self.calls.append(0)
        self.incl_ns.append(0)
        self.self_ns.setdefault(module, 0)
        return len(self.ops) - 1

    def _close(self, frame: list[int]) -> None:
        index, start, child_ns, span = frame
        end = perf_counter_ns()
        stack = self.stack
        stack.pop()
        dur = end - start
        self.calls[index] += 1
        self.incl_ns[index] += dur
        self.self_ns[self.ops[index][0]] += dur - child_ns
        parent = -1
        if stack:
            stack[-1][2] += dur
            parent = stack[-1][3]
        if len(self.spans) < _FIELDS * MAX_SPANS:
            self.spans.extend((span, index, start, end, parent, self.op_id))

    def _wrap(self, index: int, fn, after=None):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.stack
            if stack and stack[-1][0] == index:
                return fn(*args, **kwargs)
            frame = [index, perf_counter_ns(), 0, tracer.next_span]
            tracer.next_span += 1
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    def run_op(self, op_id: int, call):
        """Run one benchmark op as the root span of its own span tree."""
        self.op_id = op_id
        return self._wrap(0, call)()

    def install(self) -> None:
        modules = {name: importlib.import_module(f"aclab.{name}") for name in MODULES}
        package = importlib.import_module("aclab")
        namespaces = [package, *modules.values()]
        for table in (REPORTED, ENTRY_POINTS):
            for (module, op), targets in table.items():
                index = self._op_index(module, op)
                for owner, attr in targets:
                    mod_name, _, cls_name = owner.partition(".")
                    holder = getattr(modules[mod_name], cls_name) if cls_name else modules[mod_name]
                    original = getattr(holder, attr)
                    wrapper = self._wrap(index, original, _AFTER.get((module, op)))
                    setattr(holder, attr, wrapper)
                    if not cls_name:
                        # Rebind names other modules imported with `from ... import`.
                        for ns in namespaces:
                            for name, value in list(vars(ns).items()):
                                if value is original:
                                    setattr(ns, name, wrapper)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics for the reported ops, by name: (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for index, (module, op) in enumerate(self.ops):
            if (module, op) not in REPORTED:
                continue
            calls = self.calls[index]
            out[f"{module}.{op}.calls"] = (calls, "count")
            out[f"{module}.{op}.ns_per_call"] = (self.incl_ns[index] / calls if calls else 0.0, "ns")
        for module in MODULES:
            out[f"{module}.self_s"] = (self.self_ns.get(module, 0) / 1e9, "s")
        c = self.counters
        out["logts.series_mul.term_products"] = (c["logts.series_mul.term_products"], "count")
        out["logts.series_mul.terms_out"] = (c["logts.series_mul.terms_out"], "count")
        attempts = c["setprops.verdict.attempts"]
        out["setprops.verdict.decided_ratio"] = (
            c["setprops.verdict.decided"] / attempts if attempts else 0.0, "ratio")
        return out

    def write_spans(self, path: str) -> None:
        """Tab-separated span log: module, op, start ns, end ns, parent, op id."""
        spans = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tmodule\top\tstart_ns\tend_ns\tparent\top_id\n")
            for k in range(0, len(spans), _FIELDS):
                span, index, start, end, parent, op_id = spans[k:k + _FIELDS]
                module, op = self.ops[index]
                fh.write(f"{span}\t{module}\t{op}\t{start}\t{end}\t{parent}\t{op_id}\n")


def _after_series_mul(tracer: Tracer, args, result) -> None:
    if result is NotImplemented:
        return
    a, b = args
    c = tracer.counters
    c["logts.series_mul.term_products"] += len(a) * len(b)
    c["logts.series_mul.terms_out"] += len(result)


def _after_verdict(tracer: Tracer, args, result) -> None:
    c = tracer.counters
    c["setprops.verdict.attempts"] += 1
    if result.verdict in ("holds", "fails"):
        c["setprops.verdict.decided"] += 1


_AFTER = {("logts", "series_mul"): _after_series_mul,
          ("setprops", "verdict"): _after_verdict}
