"""Differential test of ``ExtElem`` against a Fraction-based reference.

``ExtElem`` keeps q as an int pair and walks the triples of its base.  The
reference below keeps the base as an ``{index: Fraction}`` map and q as a
``Fraction``, and reads every answer off the padded coordinate sequence
``base_i + q``, so the two share no arithmetic.  Every operation must give
the same value, and ``hash``, ``str`` and ``repr`` the values they had when
q was stored as a ``Fraction``.
"""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st
import pytest

from aclab.ogroup import ExtElem, GroupElem

from strategies import ext_parts, group_elems

FACTORS = st.sampled_from([-3, -1, 0, 1, 2, 7, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)])


class Ref:
    """``base + q*delta`` as a map of nonzero Fractions and a Fraction."""

    def __init__(self, base: dict, q) -> None:
        self.base = {i: c for i, c in base.items() if c}
        self.q = Fraction(q)

    @classmethod
    def of(cls, g: GroupElem, q=0) -> "Ref":
        return cls(dict(g.items), q)

    def group(self) -> GroupElem:
        return GroupElem(self.base.items())

    def combine(self, other: "Ref", sign: int) -> "Ref":
        keys = set(self.base) | set(other.base)
        return Ref({i: self.base.get(i, 0) + sign * other.base.get(i, 0) for i in keys}, self.q + sign * other.q)

    def scale(self, k) -> "Ref":
        return Ref({i: c * k for i, c in self.base.items()}, self.q * k)

    def padded(self, i: int) -> Fraction:
        return self.base.get(i, Fraction(0)) + self.q

    def lead(self) -> tuple[int, int]:
        """First index with a nonzero padded entry and its sign; (0, 0) at zero."""
        for i in range(max(self.base, default=-1) + 2):
            v = self.padded(i)
            if v:
                return i, 1 if v > 0 else -1
        return 0, 0

    def hash(self) -> int:
        return hash((self.group(), self.q)) if self.q else hash(self.group())

    def str(self) -> str:
        if self.q == 0:
            return str(self.group())
        if not self.base and self.q == 1:
            return "delta"
        return f"{self.group()} + {self.q}*delta"


def _pair(parts) -> tuple[ExtElem, Ref]:
    base, q = parts
    return ExtElem(base, q), Ref.of(base, q)


def _same(e: ExtElem, ref: Ref) -> None:
    assert isinstance(e, ExtElem)
    assert dict(e.base.items) == ref.base
    assert type(e.dq) is Fraction and e.dq == ref.q
    # Stored in canonical form: equal to, and hashed like, the element
    # built afresh from the reference.
    assert e == ExtElem(ref.group(), ref.q) and hash(e) == ref.hash()


@given(ext_parts(), ext_parts())
def test_sum_difference_and_negation(pa, pb):
    (a, ra), (b, rb) = _pair(pa), _pair(pb)
    _same(a + b, ra.combine(rb, 1))
    _same(a - b, ra.combine(rb, -1))
    _same(-a, ra.scale(-1))
    g, rg = pb[0], Ref.of(pb[0])
    _same(a + g, ra.combine(rg, 1))
    _same(g + a, ra.combine(rg, 1))
    _same(a - g, ra.combine(rg, -1))
    _same(g - a, rg.combine(ra, -1))


@given(ext_parts(), FACTORS)
def test_scale_by_ints_and_fractions(pa, k):
    a, ra = _pair(pa)
    _same(a.scale(k), ra.scale(k))


@given(ext_parts(), ext_parts())
def test_equality_hash_and_the_four_orders(pa, pb):
    (a, ra), (b, rb) = _pair(pa), _pair(pb)
    sign = ra.combine(rb, -1).lead()[1]
    assert (a == b) == (sign == 0) == (ra.base == rb.base and ra.q == rb.q)
    assert (a < b, a <= b, a > b, a >= b) == (sign < 0, sign <= 0, sign > 0, sign >= 0)
    assert hash(a) == ra.hash()
    if a == b:
        assert hash(a) == hash(b)


@given(ext_parts(), group_elems())
def test_against_an_embedded_vector(pa, g):
    a, ra = _pair(pa)
    sign = ra.combine(Ref.of(g), -1).lead()[1]
    assert (a == g) == (g == a) == (sign == 0)
    assert (a < g, a <= g, a > g, a >= g) == (sign < 0, sign <= 0, sign > 0, sign >= 0)
    assert (g < a, g <= a, g > a, g >= a) == (sign > 0, sign >= 0, sign < 0, sign <= 0)
    embedded = ExtElem(g, 0)
    assert embedded == g and hash(embedded) == hash(g)


@given(ext_parts())
def test_lead_padded_and_printing(pa):
    a, ra = _pair(pa)
    index, sign = ra.lead()
    assert a.sign() == sign
    assert a.is_zero() == (sign == 0)
    if sign:
        assert a.first_index() == index
    else:
        with pytest.raises(ValueError):
            a.first_index()
    for i in range(a.base.max_index() + 3):
        entry = a.base.coeff(i) + a.dq
        assert entry == ra.padded(i) and type(entry) is Fraction
    assert a.dq == ra.q
    assert str(a) == ra.str()
    assert repr(a) == f"ExtElem({ra.group()!r}, {ra.q})"
