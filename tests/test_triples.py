"""The integer-triple kernel of ``ogroup.GroupElem`` against a dense
``Fraction`` reference, the canonical form of every stored vector, and the
``Fraction`` boundary of the public API."""

import random
from fractions import Fraction
from math import gcd

from hypothesis import given
from hypothesis import strategies as st

from aclab.acouple import chi, integrate, sample_elem, successor
from aclab.ogroup import ExtElem, GroupElem, cmp, ones, unit

from strategies import coeffs, group_elems

factors = st.one_of(st.integers(-7, 7), coeffs(), st.just(Fraction(0)))
divisors = st.integers(-7, 7).filter(bool)


def dense(a: GroupElem, length: int) -> list[Fraction]:
    d = a.to_list()
    return d + [Fraction(0)] * (length - len(d))


def trimmed(d: list[Fraction]) -> list[Fraction]:
    while d and not d[-1]:
        d = d[:-1]
    return d


def reference_sign(d: list[Fraction]) -> int:
    lead = next((c for c in d if c), Fraction(0))
    return (lead > 0) - (lead < 0)


def assert_canonical(r: GroupElem) -> None:
    """Sorted, one triple per index, no zero, lowest terms, positive
    denominator; equal to and hashed like the vector the public
    constructor builds from its items."""
    triples = r.key
    assert all(type(x) is int for t in triples for x in t)
    indices = [i for i, _, _ in triples]
    assert indices == sorted(set(indices))
    assert all(n and d > 0 and gcd(n, d) == 1 for _, n, d in triples)
    rebuilt = GroupElem(r.items)
    assert r == rebuilt and r.key == rebuilt.key and hash(r) == hash(rebuilt)


class TestAgainstDenseReference:
    @given(group_elems(), group_elems())
    def test_add_sub_neg(self, a, b):
        n = max(a.max_index(), b.max_index()) + 1
        da, db = dense(a, n), dense(b, n)
        for r, ref in ((a + b, [x + y for x, y in zip(da, db)]),
                       (a - b, [x - y for x, y in zip(da, db)]),
                       (-a, [-x for x in da])):
            assert r.to_list() == trimmed(ref)
            assert_canonical(r)

    @given(group_elems(), factors, divisors)
    def test_scale_and_div(self, a, q, k):
        scaled, divided = a.scale(q), a.div(k)
        assert scaled.to_list() == trimmed([c * q for c in a.to_list()])
        assert divided.to_list() == [c / k for c in a.to_list()]
        assert_canonical(scaled)
        assert_canonical(divided)

    @given(group_elems(), group_elems())
    def test_cmp_eq_hash(self, a, b):
        n = max(a.max_index(), b.max_index()) + 1
        da, db = dense(a, n), dense(b, n)
        assert cmp(a, b) == reference_sign([x - y for x, y in zip(da, db)])
        assert (a == b) == (da == db)
        assert hash(a) == hash(GroupElem(a.items))
        if a == b:
            assert hash(a) == hash(b)


def test_minus_one_and_minus_two_hash_apart():
    # CPython hashes the int -1 like -2; the vector hash must not.
    assert hash(GroupElem([(0, -1)])) != hash(GroupElem([(0, -2)]))
    assert hash(GroupElem([(0, 1), (3, -1)])) != hash(GroupElem([(0, 1), (3, -2)]))
    assert hash(GroupElem([(2, Fraction(-1, 3))])) != hash(GroupElem([(2, Fraction(-2, 3))]))


class TestBuildersStoreCanonicalTriples:
    @given(group_elems())
    def test_couple_maps(self, g):
        for r in (integrate(g), successor(g), chi(g)):
            assert_canonical(r)

    @given(st.integers(0, 40))
    def test_units_and_prefixes(self, k):
        assert_canonical(unit(k))
        assert_canonical(ones(k))

    @given(st.integers(0, 2 ** 32), st.booleans())
    def test_samples(self, seed, allow_zero):
        assert_canonical(sample_elem(random.Random(seed), allow_zero=allow_zero))


class TestFractionBoundary:
    @given(group_elems())
    def test_public_values_are_fractions(self, g):
        assert all(type(c) is Fraction for _, c in g.items)
        assert all(type(c) is Fraction for c in g.to_list())
        assert all(type(g.coeff(i)) is Fraction for i in range(g.max_index() + 2))
        if not g.is_zero():
            assert type(g.leading_coeff()) is Fraction

    @given(group_elems())
    def test_key_is_the_integer_triples(self, g):
        assert g.key == tuple((i, c.numerator, c.denominator) for i, c in g.items)

    @given(group_elems())
    def test_embedded_vector_is_the_vector(self, g):
        e = ExtElem(g, 0)
        assert e == g and g == e and hash(e) == hash(g)
