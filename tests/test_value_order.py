"""The order on Gamma_inf = Gamma with INFINITY on top, and on the delta
extension, as the operators of ``ogroup`` give it, and a suite that meets
INFINITY where working code never produces it."""

from __future__ import annotations

from collections import Counter

from hypothesis import given
from hypothesis import strategies as st
import pytest

from aclab import logts
from aclab.ogroup import DELTA, INFINITY, ExtElem, cmp, ones, vector_json

from strategies import ext_elems, group_elems

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


@given(st.one_of(group_elems(), ext_elems()))
def test_infinity_is_on_top(g):
    assert g < INFINITY and g <= INFINITY
    assert not g > INFINITY and not g >= INFINITY
    assert INFINITY > g and INFINITY >= g
    assert not INFINITY < g and not INFINITY <= g
    assert g != INFINITY and INFINITY != g


@given(values, values)
def test_min_is_the_reference_min(a, b):
    assert min(a, b) is reference_min(a, b)


def padded(x, i):
    return x.base.coeff(i) + x.dq if isinstance(x, ExtElem) else x.coeff(i)


def reference_padded_cmp(x, y):
    """Lexicographic comparison of the padded coordinate sequences.  Past
    both supports each sequence is constant, so one more index decides."""
    top = max((v.base if isinstance(v, ExtElem) else v).max_index() for v in (x, y))
    for i in range(top + 2):
        if padded(x, i) != padded(y, i):
            return -1 if padded(x, i) < padded(y, i) else 1
    return 0


@given(group_elems(), ext_elems())
def test_mixed_order_agrees_with_padded_sequences(a, e):
    for x, y in ((a, e), (e, a)):
        r = reference_padded_cmp(x, y)
        assert (x < y, x <= y, x > y, x >= y) == (r < 0, r <= 0, r > 0, r >= 0)
        assert (x == y) == (r == 0)
    entries = [padded(e, i) for i in range(e.base.max_index() + 2)]
    lead = next((i for i, c in enumerate(entries) if c), None)
    if lead is None:
        assert e.sign() == 0
        with pytest.raises(ValueError):
            e.first_index()
    else:
        assert e.first_index() == lead
        assert e.sign() == (1 if entries[lead] > 0 else -1)


@given(ext_elems(), st.one_of(ext_elems(), group_elems()))
def test_extension_operators_agree_with_the_difference(x, y):
    for left, right in ((x, y), (y, x)):
        s = (left - right).sign()
        assert s == reference_padded_cmp(left, right)
        assert (left < right, left <= right, left > right, left >= right) == (
            s < 0, s <= 0, s > 0, s >= 0)


def test_mixed_order_examples():
    assert ones(2) < DELTA and DELTA > ones(2)
    assert not ones(2) >= DELTA and not DELTA <= ones(2)
    with pytest.raises(TypeError):
        ones(2) < 3
    with pytest.raises(TypeError):
        DELTA < 3


@given(group_elems())
def test_embedded_vector_hashes_like_its_base(a):
    e = ExtElem(a, 0)
    assert e == a and hash(e) == hash(a)
    assert len({a, e}) == 1


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
