"""Acceptance suite: the eleven headline checks, at full advertised sizes.

Each criterion is one test, so a verbose run prints one pass/fail line
per criterion; the trailing print gives the same line under ``-s``.
Everything here is exact arithmetic with zero failure tolerance.
"""

import json
import random

import pytest

from aclab import acouple, cli, extend, logts, pcseq, setprops
from aclab.logts import Frac, ell, x_elem
from aclab.ogroup import DELTA, GroupElem, ones
from helpers import initial_witness, print_ast

V = GroupElem.parse


def passed(n: int, message: str) -> None:
    print(f"criterion {n:02d}: PASS - {message}")


def test_criterion_01_couple_axioms():
    for couple in ("logfull", "loggap"):
        report = acouple.verify_couple_axioms(10000, 2027, couple)
        assert report.ok, report.failures[:3]
        assert report.cases == 10000
    passed(1, "AC1-AC3 + HC on 10^4 triples in both couples, 0 failures")


def test_criterion_02_identities():
    report = acouple.identity_suite(10000, 2028)
    assert report.ok, report.failures[:3]
    assert report.cases == 10000
    passed(2, "derived identity suite on 10^4 cases, 0 failures")


def test_criterion_03_formula_grid():
    report = acouple.conformance_grid()
    assert report.ok, report.failures[:3]
    assert report.cases == 343
    passed(3, "integrate/successor/chi agree on the exhaustive 7^3 grid")


def test_criterion_04_jammedness():
    shipped_fails = setprops.DownClosure(setprops.IntImage(
        extend.s_descriptor(extend.smallint_example())))
    report = setprops.jammedness_suite(seed=2029, beta_count=20, invariance_count=50,
                                       fails_descriptor=shipped_fails)
    assert report.ok, report.failures[:3]
    verdict = setprops.is_jammed(shipped_fails)
    assert verdict.verdict == setprops.FAILS
    assert setprops.recheck_jammed(shipped_fails, verdict)
    assert verdict.witness["inner_witness"]["level"] == 2
    passed(4, "PsiDown/LessThan jammed, 50 invariances, shipped Fails witness verified")


def test_criterion_05_exclusion():
    descriptors = cli._exclusion_descriptors()
    report = setprops.exclusion_suite(descriptors, probes=1000, seed=2030)
    assert report.ok, report.failures[:3]
    fails = [name for name, desc in descriptors
             if setprops.has_yardstick(desc).verdict == setprops.HOLDS
             and setprops.is_jammed(desc).verdict == setprops.FAILS]
    assert fails
    passed(5, f"yardstick/jammed exclusion on 10^3 probes; Fails shipped: {fails[0]}")


def test_criterion_06_field_suite():
    report = logts.check_axioms(1000, 2)
    assert report.ok, report.failures[:3]
    instances = [
        (ell(1), ell(1).scale(3) + Frac.from_rat(5), -x_elem().inv(), (3, 5)),
        (x_elem(), x_elem(), Frac.from_rat(0), (1, 0)),
        (x_elem() * x_elem(), x_elem() * x_elem() - Frac.from_rat(4),
         x_elem().inv(), (1, -4)),
    ]
    for y0, y1, coef, expected in instances:
        result = logts.ode_second_order_check(y0, y1, coef)
        assert (result.c0, result.c1) == expected
        assert result.dominance_agrees
    passed(6, "field/valuation axioms on 10^3 samples; 3 ode instances exact")


def test_criterion_07_lambda_sequence():
    report = pcseq.lambda_suite(prefix_len=12, corpus_size=1000, seed=31)
    assert report.ok, report.failures[:3]
    assert pcseq.is_pc_prefix(pcseq.lambda_seq(12)).index == 0
    assert pcseq.width_prefix(pcseq.lambda_seq(12)) == [ones(n + 2) for n in range(11)]
    assert pcseq.equivalent_prefix(pcseq.lambda_seq(12),
                                   pcseq.perturbed_lambda_seq(12)).status == pcseq.YES
    passed(7, "lambda prefix 12: pc Yes(0), exact widths, equivalence, corpus clean")


def test_criterion_08_kaplansky():
    report = pcseq.kaplansky_suite(max_degree=3)
    assert report.ok, report.failures[:3]
    assert report.cases == 270
    passed(8, "affine law verified for 27 rational maps over 10 pairs (270 cases)")


def test_criterion_09_yardstick_chains():
    for kind in extend.KINDS:
        sc = extend.example(kind)
        ws = extend.chain(sc, 100)
        assert len(ws) == 101
        for prev, cur in zip(ws, ws[1:]):
            gain = cur.gamma - prev.gamma
            assert gain > GroupElem.ZERO
            assert gain >= -acouple.integrate(acouple.successor(prev.gamma))
    sc = extend.smallint_example()
    first = extend.yardstick_step(sc, initial_witness(sc))
    assert first.gamma >= V("[2, 2]")
    passed(9, "3 kinds x 100 steps with exact gain bound; smallint one-step oracle")


def test_criterion_10_classification():
    grounded = acouple.classify_couple("trunc:3")
    assert (grounded.kind, grounded.max_psi) == ("grounded", ones(3))
    ai = acouple.classify_couple("logfull")
    assert ai.kind == "asymptotic-integration"
    gap = acouple.classify_couple("loggap")
    assert (gap.kind, gap.gap) == ("gap", DELTA)
    table = [
        (grounded, "no", "one"),
        (gap, "no", "two"),
        (ai, "yes", "one"),
        (ai, "no", "two"),
    ]
    for result, lam, expected in table:
        assert acouple.closure_count(result, lam) == expected
    with pytest.raises(ValueError):
        acouple.closure_count(gap, "yes")
    passed(10, "trichotomy certificates re-verified; closure table + rejection exact")


def test_criterion_11_cli(capsys):
    rng = random.Random(17)
    for _ in range(200):
        ast = cli.random_expression(rng)
        assert cli.parse(print_ast(ast)) == ast

    def run(argv):
        code = cli.main(argv)
        return code, capsys.readouterr().out

    argv = ["suite", "couple", "--cases", "60", "--seed", "5"]
    code_a, out_a = run(argv)
    code_b, out_b = run(argv)
    assert (code_a, code_b) == (0, 0)
    assert out_a == out_b

    documented = [
        (["val", "x^2 + l1"], {"valuation": [-2]}),
        (["lambda", "1"], {"expr": "x^-1 + (x*l1)^-1"}),
        (["classify", "trunc:3"], {"kind": "grounded", "max_psi": [1, 1, 1]}),
    ]
    for argv, expected in documented:
        code, out = run(argv)
        assert code == 0
        assert out == json.dumps(expected, sort_keys=True) + "\n"
    passed(11, "200 round-trips, byte-identical reruns, documented JSON exact")
