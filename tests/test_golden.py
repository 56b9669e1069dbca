"""Golden corpus: exact CLI output and exit code for a fixed set of
invocations, plus the first scenario-set sample draws.

The expected bytes live in ``golden_corpus.json`` next to this file.  They
pin refactors that must keep every output the same.  To re-record after
an intended output change, run ``PYTHONPATH=src python tests/test_golden.py``.

Left out on purpose: ``suite kaplansky`` (slow here; every verdict and
witness behind it is pinned by ``test_kaplansky_pin.py``) and the
``jammed`` query on descriptors built over
``(int psidown)``.  That set is the negative cone, so jammed, but no
structural rule decides it yet; its ``unknown`` is a gap, not an answer.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

import pytest

from aclab import cli, extend, setprops
from aclab.acouple import integrate
from aclab.ogroup import vector_json

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_corpus.json")

SAMPLE_SEED = 2024
SAMPLE_DRAWS = 200

QUERIES = ["jammed", "yardstick", "derived-yardstick", "sup", "half",
           "member [2, 1]", "member [1, 50]", "member [-1, 1/2]", "member []"]


def _descriptors() -> list[str]:
    out = [
        # README and exclusion-suite descriptors.
        "(down (int (exts smallint)))",
        "(less [])",
        "(less [1])",
        "psidown",
        "(leq [0, 1])",
        "(less [1, -2, 1/2])",
        "(down psidown)",
        "(affine [0, 7] 3 psidown)",
        "(int psidown)",
        "(down (int psidown))",
    ]
    for kind in extend.KINDS:
        ext = f"(exts {kind})"
        out += [
            ext,
            f"(int {ext})",
            f"(down {ext})",
            f"(down (int {ext}))",
            f"(affine [0, 1] 2 {ext})",
            f"(affine [1] 3 (int {ext}))",
            f"(down (affine [0, 1] 2 {ext}))",
            f"(int (down {ext}))",
        ]
    return out


def corpus() -> list[list[str]]:
    runs: list[list[str]] = []
    for expr in ["x^2 + l1", "x - x", "x^-2 * l1^-1", "D(x*l1)", "(x*l1)^(1/2)",
                 "-x", "(1 + x^-1)^2 / x", "D(l1)", "1 / (x - x)", "x^(1/2",
                 "(x + 1)^(1/2)", "x ~ 2", "l0", "", "(2*x)^(1/2)"]:
        runs.append(["val", "--", expr])
    for expr in ["l2", "x", "x^-2 * l1^-1", "1/x + l3", "1 + x^-1", "x - x", "2",
                 "1 / 0"]:
        runs.append(["psi", "--", expr])
    for left, right in [("x", "l1^5"), ("x^2", "x^2 + l1"), ("D(x*l1)", "l1 + 1"),
                        ("x - x", "l2"), ("x", "x ^")]:
        runs.append(["cmp", "--", left, right])
    for n in ["0", "1", "3", "-1"]:
        runs.append(["lambda", "--", n])
    runs.append(["val", "x^2 + l1", "--pretty"])
    for couple in ["trunc:1", "trunc:3", "logfull", "loggap", "trunc:0", "mystery"]:
        runs.append(["classify", couple])
        for lam in ["yes", "no", "unknown"]:
            runs.append(["classify", couple, "--lambda-free", lam])
    for kind in extend.KINDS:
        runs.append(["extend", "step", "--kind", kind, "--iters", "3"])
        runs.append(["extend", "step", "--kind", kind])
    runs.append(["extend", "step", "--kind", "smallint", "--s", "x^-2 * l1^-1", "--iters", "2"])
    runs.append(["extend", "step", "--kind", "bigint", "--s", "x^-3"])
    for desc in _descriptors():
        for query in QUERIES:
            if query == "jammed" and "(int psidown)" in desc:
                continue
            runs.append(["set", desc, query])
    for desc, query in [("(mystery)", "half"), ("(less [1, 1]", "half"), ("(exts huge)", "half"),
                        ("psidown", "bogus"), ("psidown", "member 1, 2"),
                        ("(int (less [2]))", "member [1]"), ("(less [2])", "derived-yardstick")]:
        runs.append(["set", desc, query])
    sizes = {"couple": "40", "couple-gap": "40", "identities": "40", "grid": "0",
             "field": "4", "jammedness": "0", "exclusion": "20", "lambda": "10",
             "extend-smallint": "3", "extend-smallexpint": "3", "extend-bigint": "3"}
    for name, cases in sizes.items():
        for seed in ("3", "11"):
            runs.append(["suite", name, "--cases", cases, "--seed", seed, "--len", "6"])
    runs.append(["suite", "mystery"])
    return runs


def _run(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return {"argv": argv, "code": code, "out": buf.getvalue()}


def _sample_draws() -> dict:
    out = {}
    for kind in extend.KINDS:
        ext = extend.s_descriptor(extend.example(kind))
        rng = random.Random(SAMPLE_SEED)
        draws = [ext.sample(rng) for _ in range(SAMPLE_DRAWS)]
        out[setprops.describe(ext)] = [vector_json(g) for g in draws]
        out[setprops.describe(setprops.IntImage(ext))] = [vector_json(integrate(g)) for g in draws]
    return out


def _record() -> dict:
    return {"cli": [_run(argv) for argv in corpus()], "samples": _sample_draws()}


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(autouse=True)
def _default_seed(monkeypatch):
    monkeypatch.delenv("ACLAB_SEED", raising=False)


def test_corpus_matches_recording(golden):
    assert [entry["argv"] for entry in golden["cli"]] == corpus()


def test_cli_outputs_are_byte_identical(golden):
    for entry in golden["cli"]:
        got = _run(entry["argv"])
        assert (got["code"], got["out"]) == (entry["code"], entry["out"]), entry["argv"]


def test_scenario_sample_draws(golden):
    assert _sample_draws() == golden["samples"]


if __name__ == "__main__":
    os.environ.pop("ACLAB_SEED", None)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(_record(), fh, indent=1, sort_keys=True)
        fh.write("\n")
