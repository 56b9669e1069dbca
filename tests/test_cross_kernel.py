"""The cross kernel behind ``vdiff`` and ``Frac.__eq__``: it must agree with
the expanded products it replaces, and it must build no monomial."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aclab import logts
from aclab.logts import INFINITY, BudgetExceeded, Frac, Monomial, Series, _cross_equal, _cross_lead, similar, vdiff
from aclab.ogroup import GroupElem, ones
from aclab.pcseq import perturbed_lambda_seq

from strategies import nonzero_series

# Indices far apart and exponents with large coprime denominators, next to
# the small ones: the packing must widen its fields and keep them apart.
WIDE_INDICES = [0, 1, 2, 9000]
WIDE_EXPONENTS = [Fraction(n, d) for n in (-3, -1, 1, 2) for d in (1, 2, 104729, 7919)]


def _wide_monomials() -> st.SearchStrategy[Monomial]:
    pair = st.tuples(st.sampled_from(WIDE_INDICES), st.sampled_from(WIDE_EXPONENTS))
    return st.lists(pair, max_size=3).map(lambda items: Monomial(GroupElem(items)))


def _wide_series(max_terms: int = 3) -> st.SearchStrategy[Series]:
    coeff = st.sampled_from([Fraction(n, d) for n in (-3, -1, 1, 2, 5) for d in (1, 2, 7)])
    terms = st.lists(st.tuples(_wide_monomials(), coeff), min_size=1, max_size=max_terms).map(Series)
    return terms.filter(lambda s: not s.is_zero())


def _any_series() -> st.SearchStrategy[Series]:
    return st.one_of(nonzero_series(), _wide_series())


@st.composite
def _factor_quadruples(draw):
    """(a, b, c, d), all nonzero: independent factors; factors whose
    products are equal (h moved from one side to the other); and c*d equal
    to a*b up to a perturbation, which keeps the leading terms equal when
    the perturbation lies below them."""
    a, b, h = draw(_any_series()), draw(_any_series()), draw(_any_series())
    mode = draw(st.sampled_from(["free", "equal", "perturbed"]))
    if mode == "free":
        return a, b, draw(_any_series()), draw(_any_series())
    if mode == "equal":
        return a, b * h, a * h, b
    c = a * b + draw(_any_series())
    return a, b, (c if not c.is_zero() else h), Series.ONE


def _expanded(a, b, c, d):
    return logts._lead_value(a * b - c * d, 1), a * b == c * d


class TestAgainstExpandedProducts:
    @given(_factor_quadruples())
    def test_lead_and_equality_match_the_expanded_forms(self, factors):
        assert (_cross_lead(*factors), _cross_equal(*factors)) == _expanded(*factors)

    def test_constant_only_factors(self):
        two, three, six, five = (Series.from_rat(q) for q in (2, 3, 6, 5))
        assert _cross_lead(two, three, six, Series.ONE) == (INFINITY, 0)
        assert _cross_equal(two, three, six, Series.ONE)
        assert _cross_lead(two, three, five, Series.ONE) == (GroupElem.ZERO, 1)
        assert not _cross_equal(two, three, five, Series.ONE)

    def test_generators_far_apart(self):
        l1 = Series.monomial(Monomial(GroupElem([(1, 1)])))
        l9000 = Series.monomial(Monomial(GroupElem([(9000, 1)])))
        a, b = l1 + l9000, Series.ONE + l9000.scale(Fraction(-1, 3))
        for factors in [(a, b, l1, b), (a, b, a, b), (a, l9000, l1, l1 + l9000)]:
            assert (_cross_lead(*factors), _cross_equal(*factors)) == _expanded(*factors)

    def test_coprime_exponent_denominators(self):
        p = Series.monomial(Monomial(GroupElem([(0, Fraction(1, 104729))])))
        q = Series.monomial(Monomial(GroupElem([(0, Fraction(1, 7919))])), 3)
        a, b = p + q, p - Series.ONE
        for factors in [(a, b, p * p, Series.ONE), (a, b, a * b, Series.ONE),
                        (a, q, p, p + q), (p, q, q, p)]:
            assert (_cross_lead(*factors), _cross_equal(*factors)) == _expanded(*factors)
        assert _cross_lead(a, b, a * b - q, Series.ONE) == (GroupElem([(0, Fraction(-1, 7919))]), 1)

    def test_total_cancellation(self):
        rng = random.Random(61)
        for _ in range(50):
            a, b, h = (logts.random_series(rng, max_terms=4) for _ in range(3))
            assert _cross_lead(a, b * h, a * h, b) == (INFINITY, 0)
            assert _cross_equal(a, b * h, a * h, b)

    def test_one_term_factors(self):
        rng = random.Random(67)
        for _ in range(100):
            a, b, c, d = (logts.random_series(rng, max_terms=1) for _ in range(4))
            assert (_cross_lead(a, b, c, d), _cross_equal(a, b, c, d)) == _expanded(a, b, c, d)

    def test_deep_cancellation_between_consecutive_perturbed_lambda_terms(self):
        # The widths of the perturbed lambda prefix, which the field workload
        # reads: equal leading terms, and term pairs that cancel down to
        # v = ones(n + 2), far below them.
        per = perturbed_lambda_seq(12)
        for n in range(11):
            f, g = per[n + 1], per[n]
            assert f.num.leading() == g.num.leading() and f._factors != g._factors
            _, cf, cg = logts._over_lcm(f, g)
            assert _cross_lead(f.num, cf, g.num, cg) == _expanded(f.num, cf, g.num, cg)[0]
            assert vdiff(per[n + 1], per[n])[0] == ones(n + 2)


def _unequal_forms(rng: random.Random, count: int, num_terms: int, den_terms: int) -> list[tuple[Frac, Frac]]:
    """Pairs with different denominators and equal leading numerator terms:
    f against itself in another form, and against f plus a smaller term in
    another form."""
    pairs = []
    while len(pairs) < count:
        f = Frac(logts.random_series(rng, max_terms=num_terms), logts.random_series(rng, max_terms=den_terms))
        h = Series.ONE + Series.monomial(Monomial(GroupElem([(rng.randint(0, 2), -1)])), rng.choice([1, -2]))
        low = Series.monomial(f.num.leading()[0] * Monomial(GroupElem([(0, -1), (1, rng.randint(-2, 2))])),
                              rng.choice(logts.COEFF_POOL))
        near = f + Frac(low)
        for g in (Frac(f.num * h, f.den * h), Frac(near.num * h, near.den * h)):
            if g.den != f.den and g.num.leading() == f.num.leading():
                pairs.append((f, g))
    return pairs


class TestFracEntryPoints:
    def test_large_comparisons_build_no_monomial(self):
        rng = random.Random(73)
        pairs = _unequal_forms(rng, 40, 12, 4) + _unequal_forms(rng, 40, 3, 2)
        sizes = [len(f.num) * len(g.den) + len(g.num) * len(f.den) for f, g in pairs]
        # Every size: pairs below 24 term pairs as well as far above them.
        assert sum(n < 24 for n in sizes) >= 20 and sum(n >= 48 for n in sizes) >= 20
        interned = dict(logts._interned)
        answers = [(f == g, f != g, f < g, f >= g, vdiff(g, f), similar(f, g)) for f, g in pairs]
        assert any(a[0] for a in answers) and not all(a[0] for a in answers)
        assert logts._interned == interned
        assert all(logts._interned[k] is m for k, m in interned.items())

    def test_cross_kernel_keeps_the_term_pair_budget(self, monkeypatch):
        f, g = next((f, g) for f, g in _unequal_forms(random.Random(79), 20, 5, 3) if len(f.num) * len(g.den) > 2)
        monkeypatch.setattr(logts, "MAX_TERM_PAIRS", 2)
        message = f"a product of {len(f.num)} by {len(g.den)} terms"
        with pytest.raises(BudgetExceeded, match=message):
            vdiff(f, g)
        with pytest.raises(BudgetExceeded, match=message):
            f == g
