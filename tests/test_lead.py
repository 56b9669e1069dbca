"""Differential gate for ``cli.lead``: on seeded expression corpora and on
hand-picked cancellations it must give the leading term of the exact
``cli.evaluate``, or raise the same exception type with the same message."""

import importlib.util
import os
import random

import pytest

from aclab import cli

REFERENCE_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "reference.py")


def _reference():
    spec = importlib.util.spec_from_file_location("perfbench_reference", REFERENCE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _exact_lead(node):
    f = cli.evaluate(node)
    if f.is_zero():
        return None
    mono, coeff = f.num.leading()
    return mono.exponents, coeff


def _outcome(fn, node):
    try:
        return fn(node)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def _agree(node) -> bool:
    return _outcome(cli.lead, node) == _outcome(_exact_lead, node)


HAND_PICKED = [
    "x - x + l1", "D(3)", "D(x + 1) - 1", "D(1 + x^-1)", "(x-x)^0", "(x-x)^-1",
    "(x+1)^-3", "x^(1/2)*x^(-1/2) - 1",
    # Ties that cancel below the top, D of a constant-led element, rational
    # powers, zero in every position, and errors behind a zero factor.
    "(x+1)*(x-1) - x^2", "D(2 + l1) - x^-1", "D(x^(1/2)*l1) - 1/2*x^(-1/2)*l1",
    "(x+1)^(1/2)", "(x^2)^(1/2)", "0*(1/0)", "(x-x)/(l1-l1)", "D(0)", "D(1/(1+x))",
    "(x-x)^2", "-(x - x)", "(2*x)^-2", "(3/4*x+1)^3 - 27/64*x^3",
]


@pytest.mark.parametrize("text", HAND_PICKED)
def test_hand_picked_cases_agree(text):
    assert _agree(cli.parse(text))


def test_random_expression_corpus_agrees():
    rng = random.Random(28)
    nodes = [cli.random_expression(rng, 4) for _ in range(3000)]
    outcomes = [_outcome(_exact_lead, node) for node in nodes]
    assert [_outcome(cli.lead, node) for node in nodes] == outcomes
    # The corpus reaches the error paths and zero as well as nonzero leads.
    assert sum(isinstance(o, tuple) and isinstance(o[0], type) for o in outcomes) > 50
    assert outcomes.count(None) > 50


def test_reference_expression_corpus_agrees():
    ref = _reference()
    rng = random.Random(28)
    for _ in range(3000):
        text, _ = ref.random_expression(rng)
        assert _agree(cli.parse(text)), text
