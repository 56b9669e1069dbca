"""The order on Gamma_inf = Gamma with INFINITY on top, as the operators of
``ogroup`` give it, and a suite that meets INFINITY where working code
never produces it."""

from __future__ import annotations

from collections import Counter

from hypothesis import given
from hypothesis import strategies as st

from aclab import logts
from aclab.ogroup import INFINITY, cmp, vector_json

from strategies import group_elems

values = st.one_of(group_elems(), st.just(INFINITY))


def reference_min(a, b):
    """The smaller of a and b, a on ties, from the vector comparison alone."""
    if b is INFINITY or (a is not INFINITY and cmp(a, b) <= 0):
        return a
    return b


@given(values, values)
def test_trichotomy_and_weak_order(a, b):
    lt, eq, gt = a < b, a == b, a > b
    assert [lt, eq, gt].count(True) == 1
    assert (a <= b) == (lt or eq)
    assert (a >= b) == (gt or eq)
    assert (b > a) == lt and (b < a) == gt


@given(group_elems())
def test_infinity_is_on_top(g):
    assert g < INFINITY and g <= INFINITY
    assert not g > INFINITY and not g >= INFINITY
    assert INFINITY > g and INFINITY >= g
    assert not INFINITY < g and not INFINITY <= g
    assert g != INFINITY and INFINITY != g


@given(values, values)
def test_min_is_the_reference_min(a, b):
    assert min(a, b) is reference_min(a, b)


def test_vector_json_prints_infinity():
    assert vector_json(INFINITY) == "infinity"


def test_field_suite_reports_an_infinite_valuation(monkeypatch):
    # A valuation that calls every series of 3 or more terms zero: the
    # suite must report failures rather than raise on comparing with it.
    real = logts.Series.valuation
    monkeypatch.setattr(logts.Series, "valuation",
                        lambda self: INFINITY if len(self) >= 3 else real(self))
    report = logts.check_axioms(60, 5)
    fired = Counter(f["axiom"] for f in report.failures)
    assert len(report.failures) > 50
    assert fired["pre-d-valued"] > 0 and fired["v-ultrametric-strict"] > 0
