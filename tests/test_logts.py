"""Derivation, valuation, and field-law tests for the logarithmic tower."""

import itertools
import random
import weakref
from collections import Counter, deque
from fractions import Fraction
from math import gcd

from hypothesis import assume, given, settings
from hypothesis import strategies as st
import pytest

from aclab import logts, ogroup
from aclab.acouple import INFINITY, der, integrate, psi
from aclab.logts import (
    Dominance,
    Frac,
    Monomial,
    Series,
    as_rational,
    check_axioms,
    dominance,
    ell,
    is_constant,
    logderiv,
    ode_second_order_check,
    random_frac,
    random_series,
    residue,
    similar,
    vdiff,
    x_elem,
)
from aclab.ogroup import GroupElem, ones, unit

from strategies import coeffs, fracs, group_elems, monomials, nonzero_fracs, nonzero_series, series

V = GroupElem.parse
ONE = Frac.from_rat(1)


def frac_of(vec: str, coeff=1) -> Frac:
    """The monomial with exponent vector ``vec``, scaled by ``coeff``."""
    return Frac(Series.monomial(Monomial(V(vec)), coeff))


class TestDerivativeOracles:
    def test_generator_derivatives(self):
        x = x_elem()
        assert x.derivative() == ONE
        assert ell(1).derivative() == x.inv()
        assert ell(2).derivative() == (x * ell(1)).inv()
        assert ell(3).derivative() == (x * ell(1) * ell(2)).inv()

    def test_product_rule_spot_case(self):
        f = x_elem() * ell(1)
        assert f.derivative() == ell(1) + ONE
        assert f.derivative().valuation() == V("[0, -1]")

    def test_constants_have_zero_derivative(self):
        assert Frac.from_rat(Fraction(-7, 3)).derivative().is_zero()
        assert Frac.from_rat(0).derivative().is_zero()

    def test_logderiv_of_generators(self):
        assert logderiv(x_elem()).valuation() == V("[1]")
        assert logderiv(ell(2)).valuation() == V("[1, 1, 1]")

    @given(monomials())
    def test_monomial_derivative_terms(self, m):
        total = Series()
        for part, n, d in m._derivative_triples():
            total = total + Series.monomial(part, Fraction(n, d))
        assert Series.monomial(m).derivative() == total


class TestValuation:
    def test_monomial_valuation_is_negated_exponent(self):
        assert x_elem().valuation() == V("[-1]")
        assert ell(1).valuation() == V("[0, -1]")
        assert frac_of("[2, -1/2]").valuation() == V("[-2, 1/2]")
        assert Frac.from_rat(0).valuation() is INFINITY

    @given(nonzero_fracs(), nonzero_fracs())
    def test_valuation_multiplicative(self, f, g):
        assert (f * g).valuation() == f.valuation() + g.valuation()

    @given(nonzero_fracs())
    def test_psi_compatibility(self, f):
        assume(f.valuation() != GroupElem.ZERO)
        assert logderiv(f).valuation() == psi(f.valuation())
        assert f.derivative().valuation() == der(f.valuation())

    @given(fracs(), fracs())
    def test_dominance_tracks_valuations(self, f, g):
        verdict = dominance(f, g)
        if verdict is Dominance.STRICTLY_DOMINATES:
            assert dominance(g, f) is Dominance.STRICTLY_DOMINATED

    def test_dominance_spot_cases(self):
        assert dominance(x_elem(), ell(1)) is Dominance.STRICTLY_DOMINATES
        assert dominance(ell(1), ell(1).scale(5)) is Dominance.ASYMPTOTIC
        assert dominance(x_elem().inv(), ONE) is Dominance.STRICTLY_DOMINATED

    def test_similar_requires_shared_leading_term(self):
        assert similar(x_elem() + ONE, x_elem())
        assert not similar(x_elem(), x_elem().scale(2))
        with pytest.raises(ValueError):
            similar(Frac.from_rat(0), ONE)


class TestFieldLaws:
    @given(fracs(), fracs(), fracs())
    def test_distributivity(self, f, g, h):
        assert f * (g + h) == f * g + f * h

    @given(fracs(), fracs())
    def test_leibniz_rule(self, f, g):
        assert (f * g).derivative() == f.derivative() * g + f * g.derivative()

    @given(nonzero_fracs())
    def test_multiplicative_inverse(self, f):
        assert f * f.inv() == ONE
        assert f / f == ONE

    @given(fracs(), nonzero_fracs())
    def test_quotient_rule(self, f, g):
        q = f / g
        assert q.derivative() == (f.derivative() * g - f * g.derivative()) / (g * g)

    @given(fracs())
    def test_denominator_normalized(self, f):
        assert f.den.valuation() == GroupElem.ZERO
        assert f.den.leading()[1] == 1

    @given(nonzero_fracs())
    def test_power_matches_repeated_product(self, f):
        assert f ** 3 == f * f * f
        assert f ** -2 == (f * f).inv()
        assert f ** 0 == ONE

    def test_division_by_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            x_elem() / Frac.from_rat(0)


def _key_terms(s: Series) -> dict:
    return {m.exponents.key: c for m, c in s.terms.items()}


def _reference_sum(s: Series, t: Series) -> dict:
    out = _key_terms(s)
    for k, c in _key_terms(t).items():
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def _reference_product(s: Series, t: Series) -> dict:
    out: dict = {}
    for ma, ca in s.terms.items():
        for mb, cb in t.terms.items():
            k = (ma.exponents + mb.exponents).key
            out[k] = out.get(k, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


class TestSparseSums:
    @given(series(), series())
    def test_sum_and_product_match_dict_reference(self, s, t):
        assert _key_terms(s + t) == _reference_sum(s, t)
        assert _key_terms(s - t) == _reference_sum(s, -t)
        assert _key_terms(s * t) == _reference_product(s, t)

    @given(series(), series(), monomials())
    def test_results_store_no_zero(self, s, t, m):
        built = Series(list(s.terms.items()) + [(m, 0)] + list(t.terms.items()))
        for r in (built, s + t, s - t, s * t, (s + t) * (s - t), s.derivative()):
            assert 0 not in r.terms.values()

    @given(series(), monomials())
    def test_explicit_cancellations_leave_no_terms(self, s, m):
        assert (s + (-s)).terms == {}
        assert Series([(m, 1), (m, -1)]).terms == {}

    def test_derivative_cancellation_leaves_no_term(self):
        # (x*l1 - x)' = (l1 + 1) - 1: the two constant terms cancel.
        s = Series([(Monomial(V("[1, 1]")), 1), (Monomial(V("[1]")), -1)])
        assert s.derivative().terms == {Monomial(V("[0, 1]")): 1}

    @given(series(), series())
    def test_cross_terms_cancel(self, a, b):
        assert (a + b) * (a - b) == a * a - b * b

    def test_cross_terms_cancel_to_two_terms(self):
        a, b = Series.monomial(Monomial(V("[1]"))), Series.monomial(Monomial(V("[0, 1]")), 3)
        assert (a + b) * (a - b) == Series([(Monomial(V("[2]")), 1), (Monomial(V("[0, 2]")), -9)])


def _reference_scale(s: Series, q: Fraction) -> dict:
    return {k: c * q for k, c in _key_terms(s).items() if c * q}


def _reference_mul_term(s: Series, m: Monomial, q: Fraction) -> dict:
    return {(n.exponents + m.exponents).key: c * q for n, c in s.terms.items() if c * q}


def _reference_truncate(s: Series, bound: GroupElem) -> dict:
    return {m.exponents.key: c for m, c in s.terms.items() if -m.exponents <= bound}


def _reference_derivative(s: Series) -> dict:
    """m' = sum_i r_i * m * (l0...li)^-1, summed over the terms of s."""
    out: dict = {}
    for m, c in s.terms.items():
        for i, r in m.exponents.items:
            k = (m.exponents - ones(i + 1)).key
            out[k] = out.get(k, 0) + c * r
    return {k: c for k, c in out.items() if c}


def _assert_canonical(s: Series) -> None:
    """Integer numerators over one positive denominator, no zero numerator,
    and no common factor; so the zero series is ({}, 1)."""
    assert type(s._den) is int and s._den > 0
    assert all(type(n) is int and n for n in s._nums.values())
    assert gcd(s._den, *s._nums.values()) == 1


# Rational exponents make derivative coefficients with several denominators.
RATIONAL_EXPONENT_SERIES = [
    [("[1/2, -5/2]", 1)],
    [("[1/2, -5/2]", 3), ("[0, 1/3, -1/4]", Fraction(2, 3))],
    [("[-3/2, 0, 5/6]", Fraction(-7, 4)), ("[1/2, -5/2]", Fraction(1, 5)), ("[]", 9)],
    [("[1, 1/2]", 2), ("[1, -1/2]", -2), ("[0, 0, 0, 2/7]", Fraction(7, 2))],
]


class TestIntegerKernel:
    @given(series(), series(), monomials(), coeffs(), group_elems(max_index=5))
    def test_every_operation_is_canonical(self, s, t, m, q, bound):
        results = [s + t, s - t, -s, s * t, s.scale(q), s.scale(0), s.mul_term(m, q),
                   s.derivative(), s.truncate_below(bound), Series.monomial(m, q),
                   Series.from_rat(q), Series(list(s.terms.items()) + list(t.terms.items()))]
        for r in results:
            _assert_canonical(r)

    @given(series(), monomials(), coeffs(), group_elems(max_index=5))
    def test_unary_operations_match_dict_reference(self, s, m, q, bound):
        assert _key_terms(s.scale(q)) == _reference_scale(s, q)
        assert _key_terms(-s) == _reference_scale(s, Fraction(-1))
        assert _key_terms(s.mul_term(m, q)) == _reference_mul_term(s, m, q)
        assert _key_terms(s.truncate_below(bound)) == _reference_truncate(s, bound)
        assert _key_terms(s.derivative()) == _reference_derivative(s)

    @pytest.mark.parametrize("spec", RATIONAL_EXPONENT_SERIES)
    def test_derivative_with_rational_exponents_matches_reference(self, spec):
        s = Series([(Monomial(V(vec)), c) for vec, c in spec])
        d = s.derivative()
        _assert_canonical(d)
        assert _key_terms(d) == _reference_derivative(s)

    def test_half_exponent_derivative(self):
        # (x^(1/2)*l1^(-5/2))' = 1/2*x^(-1/2)*l1^(-5/2) - 5/2*x^(-1/2)*l1^(-7/2)
        d = Series.monomial(Monomial(V("[1/2, -5/2]"))).derivative()
        assert d.terms == {Monomial(V("[-1/2, -5/2]")): Fraction(1, 2),
                           Monomial(V("[-1/2, -7/2]")): Fraction(-5, 2)}
        assert d._den == 2

    def test_product_over_the_term_pair_budget_raises(self, monkeypatch):
        monkeypatch.setattr(logts, "MAX_TERM_PAIRS", 6)
        two = Series.from_rat(1) + Series.monomial(Monomial(V("[1]")))
        three = two + Series.monomial(Monomial(V("[0, 1]")))
        assert len(two * three) == 5  # six term pairs, two of them both x
        with pytest.raises(logts.BudgetExceeded, match="3 by 3 terms"):
            three * three
        assert issubclass(logts.BudgetExceeded, ValueError)

    def test_power_over_the_coefficient_budget_raises(self, monkeypatch):
        monkeypatch.setattr(logts, "MAX_COEFF_BITS", 20)
        q = Frac.from_rat(Fraction(3, 4))
        # 4^10 has 21 bits; the estimate is 10 * ceil(log2 4) = 20.
        assert q ** 10 == Frac.from_rat(Fraction(3, 4) ** 10)
        assert q ** -10 == Frac.from_rat(Fraction(4, 3) ** 10)
        for power in (11, -11):
            with pytest.raises(logts.BudgetExceeded, match="a power 11 would form coefficients of up to 22 bits"):
                q ** power
        # Nested: 3^5/4^5 costs ceil(log2 1024) = 10 bits per factor.
        assert (q ** 5) ** 2 == Frac.from_rat(Fraction(3, 4) ** 10)
        with pytest.raises(logts.BudgetExceeded, match="up to 30 bits"):
            (q ** 5) ** 3
        # Coefficient-one monomials cost nothing; a term count does.
        x = Frac(Series.monomial(Monomial(V("[1]"))))
        assert (x ** 1000).valuation() == V("[-1000]")
        assert (x + Frac.ONE) ** 20 == (x + Frac.ONE) ** 10 * (x + Frac.ONE) ** 10
        with pytest.raises(logts.BudgetExceeded, match="up to 21 bits"):
            (x + Frac.ONE) ** 21


def _printer_before_integer_kernel(terms: dict) -> str:
    """The Series printer as it was when Series stored Fraction terms."""
    if not terms:
        return "0"
    parts: list[str] = []
    for mono, coeff in sorted(terms.items(), key=lambda kv: kv[0].exponents, reverse=True):
        if mono.exponents.is_zero():
            body = str(abs(coeff))
        elif abs(coeff) == 1:
            body = str(mono)
        else:
            body = f"{abs(coeff)}*{mono}"
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(parts)


class TestFractionBoundary:
    @given(nonzero_series())
    def test_api_coefficients_are_fractions(self, s):
        assert all(type(c) is Fraction for c in s.terms.values())
        assert type(s.leading()[1]) is Fraction
        assert all(type(c) is Fraction for _, c in s.sorted_terms())

    @given(monomials())
    def test_halves_sum_to_the_monomial(self, m):
        halves = Series([(m, Fraction(1, 2)), (m, Fraction(1, 2))])
        assert halves == Series.monomial(m)
        assert hash(halves) == hash(Series.monomial(m))

    def test_cancelling_sum_leaves_denominator_one(self):
        x, l1 = Monomial(V("[1]")), Monomial(V("[0, 1]"))
        s = Series([(x, Fraction(1, 2)), (l1, Fraction(3, 2))])
        t = Series([(x, Fraction(-1, 2)), (l1, Fraction(1, 2))])
        assert (s + t)._den == 1 and (s + t) == Series.monomial(l1, 2)
        assert (s - s)._nums == {} and (s - s)._den == 1

    def test_printer_unchanged_on_random_series(self):
        rng = random.Random(23)
        for _ in range(400):
            s = random_series(rng, max_terms=5, allow_zero=True)
            assert str(s) == _printer_before_integer_kernel(s.terms)


def is_in_I(f: Frac) -> bool:
    """Membership in the set of elements dominated by some derivative of a
    bounded element: zero, or valuation with strictly positive integral."""
    return f.is_zero() or integrate(f.valuation()) > GroupElem.ZERO


class TestResidueAndConstants:
    def test_residue_spot_cases(self):
        assert residue(Frac.from_rat(Fraction(5, 2))) == Fraction(5, 2)
        assert residue(ONE + x_elem().inv()) == 1
        assert residue(x_elem().inv()) == 0
        with pytest.raises(ValueError):
            residue(x_elem())

    @given(fracs())
    def test_constants_are_rationals(self, f):
        if is_constant(f) and not f.is_zero():
            c = as_rational(f)
            assert f == Frac.from_rat(c)

    def test_is_in_I_spot_cases(self):
        x = x_elem()
        assert is_in_I(Frac.from_rat(0))
        assert is_in_I((x * x).inv())
        assert is_in_I((x * ell(1) * ell(1)).inv())
        # 1/x is the derivative of the unbounded l1 and of nothing bounded.
        assert not is_in_I(x.inv())
        assert not is_in_I(ONE)
        assert not is_in_I(x)
        assert not is_in_I(logderiv(ell(2)))

    @given(nonzero_fracs())
    def test_derivatives_of_small_elements_land_in_I(self, f):
        v = f.valuation()
        if v < GroupElem.ZERO:
            f = f.inv()
        elif v == GroupElem.ZERO:
            f = f * x_elem().inv()
        assert f.valuation() > GroupElem.ZERO
        assert is_in_I(f.derivative())


class TestAxiomSuite:
    def test_seeded_suite_holds(self):
        report = check_axioms(250, 2)
        assert report.ok

    def test_small_derivative_below_logderiv(self):
        f = ONE + x_elem().inv()
        g = x_elem().inv()
        assert f.derivative().valuation() == V("[2]")
        assert logderiv(g).valuation() == V("[1]")

    def test_positive_unbounded_has_positive_derivative(self):
        assert ell(1).derivative().sign() > 0


class TestOdeComparison:
    def test_log_instance(self):
        result = ode_second_order_check(ell(1), ell(1).scale(3) + Frac.from_rat(5),
                                        -x_elem().inv())
        assert (result.c0, result.c1) == (3, 5)
        assert result.dominance_agrees

    def test_identity_instance(self):
        result = ode_second_order_check(x_elem(), x_elem(), Frac.from_rat(0))
        assert (result.c0, result.c1) == (1, 0)
        assert result.dominance_agrees

    def test_square_instance(self):
        y0 = x_elem() * x_elem()
        result = ode_second_order_check(y0, y0 - Frac.from_rat(4), x_elem().inv())
        assert (result.c0, result.c1) == (1, -4)
        assert result.dominance_agrees

    def test_rejects_constant_solution(self):
        with pytest.raises(ValueError):
            ode_second_order_check(ONE, x_elem(), Frac.from_rat(0))

    def test_rejects_wrong_equation(self):
        with pytest.raises(ValueError):
            ode_second_order_check(ell(1), x_elem(), Frac.from_rat(0))


_FRESH = itertools.count(1)


def _fresh_monomials(count: int) -> list[Monomial]:
    """``count`` monomials whose exponents no earlier call and no other test
    builds: powers l9^(k/7919) of one generator, k never repeated."""
    return [Monomial(unit(9).scale(Fraction(next(_FRESH), 7919))) for _ in range(count)]


def _leibniz_texts(seed: int, cases: int) -> list[str]:
    rng = random.Random(seed)
    out = []
    for _ in range(cases):
        f, g = random_frac(rng), random_frac(rng)
        out.append(str(f * g + f.derivative() * g))
    return out


def _live(key):
    """The monomial the intern table holds for ``key``, or None."""
    entry = logts._interned.get(key)
    return None if entry is None else entry()


# More fresh monomials than the keep-alive ring holds twice over, and more
# than the 1,024 entries a table emptied when full would hold.
FLOOD = 1025


class TestHashConsing:
    def test_equal_monomials_are_one_instance_below_the_cap(self):
        a = Monomial(V("[1, -2]"))
        assert Monomial(V("[1, -2]")) is a
        b = Monomial(V("[0, 1/2, 3]"))
        assert a * b is a * b
        assert a * b is Monomial(V("[1, -3/2, 3]"))

    def test_equal_across_a_clear(self):
        # Nothing empties the table: a monomial that a value holds is the one
        # every later construction of its exponents returns, however many
        # fresh monomials come between.
        before = Monomial(V("[3, 1/2]"))
        rng = random.Random(5)
        left, right = random_series(rng, max_terms=4), random_series(rng, max_terms=4)
        _fresh_monomials(FLOOD)
        assert Monomial(V("[3, 1/2]")) is before
        assert {before: 1}[Monomial(GroupElem(before.exponents.items))] == 1
        rebuilt = Series({Monomial(GroupElem(m.exponents.items)): c for m, c in left.terms.items()})
        assert all(m is n for m, n in zip(left.terms, rebuilt.terms))
        across = left * right
        assert across == rebuilt * right
        assert hash(across) == hash(rebuilt * right)
        assert str(across) == str(rebuilt * right)

    def test_tables_never_exceed_their_caps(self):
        # The table holds the live monomials only: those some value holds and
        # the last KEPT_ALIVE made.
        base = len(logts._interned)
        for _ in range(2 * logts.KEPT_ALIVE + 5):
            _fresh_monomials(1)
            assert len(logts._interned) <= base + logts.KEPT_ALIVE
        assert len(logts._recent) == logts.KEPT_ALIVE
        pool = _fresh_monomials(40)
        for a in pool:
            for b in pool:
                a * b
                assert len(logts._interned) <= base + len(pool) + logts.KEPT_ALIVE

    def test_tiny_caps_change_no_result(self, monkeypatch):
        expected = _leibniz_texts(seed=13, cases=40)
        monkeypatch.setattr(logts, "_recent", deque(maxlen=1))
        _fresh_monomials(1)
        got = _leibniz_texts(seed=13, cases=40)
        assert got == expected

    @given(monomials(), monomials())
    def test_product_is_the_monomial_of_the_summed_exponents(self, a, b):
        exps = a.exponents + b.exponents
        product = a * b
        assert product is Monomial(exps)
        assert product.exponents == exps

    @settings(max_examples=15)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2 ** 16)), min_size=20, max_size=40))
    def test_equal_exponents_give_one_object(self, steps):
        """Products, inverses, derivative terms and ``Monomial(g)``, mixed
        with more than twice KEPT_ALIVE fresh monomials, some results held
        and the rest dropped: a monomial built while an equal one lives is
        that same object."""
        seen: dict = {}
        held = [Monomial(V("[1, -1/2]")), Monomial(V("[0, 2, 0, 1/3]"))]
        flood = 2 * logts.KEPT_ALIVE // 20 + 1
        for op, pick in steps:
            a, b = held[pick % len(held)], held[(pick >> 8) % len(held)]
            made = ([a * b], [a.inv()], [m for m, _, _ in a._derivative_triples()],
                    [Monomial(ogroup._from_items(b.exponents.key))])[op]
            made += _fresh_monomials(flood)
            for m in made:
                key = m.exponents.key
                ref = seen.get(key)
                assert ref is None or ref() in (None, m)
                assert _live(key) is m
                seen[key] = weakref.ref(m)
            held.append(made[pick % len(made)])
            if pick % 3 == 0:
                del held[pick % len(held)]
        assert len(steps) * flood > 2 * logts.KEPT_ALIVE
        for key, ref in seen.items():
            m = ref()
            assert m is None or Monomial(ogroup._from_items(key)) is m

    def test_a_monomial_held_by_a_live_series_stays_the_one(self):
        g = GroupElem([(2, Fraction(-7, 9)), (5, 3)])
        s = Series.monomial(Monomial(g), 4)
        _fresh_monomials(FLOOD)
        (held,) = s._nums
        assert Monomial(g) is held
        assert s == Series.monomial(Monomial(g), 4)

    def test_an_entry_leaves_the_table_with_its_last_holder(self):
        (mono,) = _fresh_monomials(1)
        key, ref = mono.exponents.key, weakref.ref(mono)
        del mono
        assert _live(key) is ref()
        _fresh_monomials(logts.KEPT_ALIVE)
        assert ref() is None and key not in logts._interned


class TestFreshMonomials:
    def test_a_unit_factor_returns_the_other_factor_and_builds_nothing(self, monkeypatch):
        monos = (Monomial(V("[1, -2]")), Monomial(V("[0, 1/2, 3]")), Monomial.ONE)
        interned, recent = dict(logts._interned), list(logts._recent)
        merged = []
        monkeypatch.setattr(logts, "_merge", lambda *args: merged.append(args))
        for m in monos:
            assert m * Monomial.ONE is m and Monomial.ONE * m is m
        assert merged == [] and logts._interned == interned and list(logts._recent) == recent

    def test_a_product_that_cancels_is_the_monomial_one(self):
        x = Monomial(unit(0))
        assert x * x.inv() is Monomial.ONE and x.inv() * x is Monomial.ONE
        assert Monomial(GroupElem.ZERO) is Monomial.ONE

    def test_an_interned_product_builds_no_exponent_vector(self, monkeypatch):
        a, b = Monomial(V("[1, 1/2, 0, 0, 2/7919]")), Monomial(V("[0, -1, 3]"))
        interned = Monomial(V("[1, -1/2, 3, 0, 2/7919]"))
        built = []
        from_items = logts._from_items
        for module in (logts, ogroup):
            monkeypatch.setattr(module, "_from_items", lambda items: built.append(items) or from_items(items))
        size = len(logts._interned)
        assert a * b is interned and built == [] and len(logts._interned) == size
        fresh = interned * b
        assert built == [fresh.exponents.key] and fresh is Monomial(V("[1, -3/2, 6, 0, 2/7919]"))
        assert _live(fresh.exponents.key) is fresh

    def test_a_shift_by_the_monomial_one_makes_no_monomial_product(self, monkeypatch):
        s = Series([(Monomial(V("[1, -2]")), 3), (Monomial(V("[0, 1/2]")), Fraction(-1, 2)), (Monomial.ONE, 5)])
        three = Series.from_rat(3)
        calls = []
        real = Monomial.__mul__
        monkeypatch.setattr(Monomial, "__mul__", lambda a, b: calls.append((a, b)) or real(a, b))
        assert s.mul_term(Monomial.ONE, Fraction(2, 3)).terms == {m: c * Fraction(2, 3) for m, c in s.terms.items()}
        assert (s * three).terms == (three * s).terms == {m: 3 * c for m, c in s.terms.items()}
        assert calls == []
        assert s.mul_term(Monomial(unit(1))) == s * Series.monomial(Monomial(unit(1))) and calls


def _smaller_term(rng: random.Random, f: Frac) -> Frac:
    """One term strictly below the leading term of the nonzero f."""
    mono, _ = f.num.leading()
    below = Monomial(unit(0).scale(-rng.randint(1, 2)) + unit(rng.randint(1, 3)).scale(rng.randint(-2, 2)))
    return Frac(Series.monomial(mono * below, rng.choice(logts.COEFF_POOL)))


def _other_form(rng: random.Random, f: Frac) -> Frac:
    """f with numerator and denominator times 1 + (a smaller term): the same
    element under another denominator."""
    h = Series.ONE + Series.monomial(Monomial(unit(rng.randint(0, 2)).scale(-1)), rng.choice([1, -2]))
    return Frac(f.num * h, f.den * h)


def _vdiff_pairs(seed: int, count: int) -> list[tuple[Frac, Frac]]:
    """Random pairs, plus per draw: equal leading terms (under the same and
    under another denominator), equal denominators, zero operands, and f
    against itself in another form."""
    rng = random.Random(seed)
    pairs = [(Frac.ZERO, Frac.ZERO)]
    for _ in range(count):
        f, g = random_frac(rng, allow_zero=True), random_frac(rng, allow_zero=True)
        pairs += [(f, g), (f, Frac(g.num, f.den)), (f, Frac.ZERO), (Frac.ZERO, g)]
        if not f.is_zero():
            near = f + _smaller_term(rng, f)
            pairs += [(f, near), (near, f), (f, _other_form(rng, near)), (f, _other_form(rng, f)),
                      (f, _other_form(rng, f.scale(rng.choice(logts.COEFF_POOL))))]
    return pairs


class TestDifferenceKernel:
    def test_vdiff_is_the_valuation_and_sign_of_the_difference(self):
        leads = Counter()
        for f, g in _vdiff_pairs(seed=41, count=150):
            diff = f - g
            assert vdiff(f, g) == (diff.valuation(), diff.sign()), (f, g)
            assert (f < g, f <= g, f > g, f >= g) == (
                diff.sign() < 0, diff.sign() <= 0, diff.sign() > 0, diff.sign() >= 0)
            if not f.is_zero() and not g.is_zero():
                (mf, cf), (mg, cg) = f.num.leading(), g.num.leading()
                leads[mf != mg, cf != cg, f.den == g.den] += 1
                assert similar(f, g) == (diff.valuation() > f.valuation())
        # Every branch of the kernel is reached: monomials differ; monomials
        # agree, coefficients differ; leading terms equal, with the same and
        # with different denominators.
        assert sum(n for (mono, _, _), n in leads.items() if mono) >= 50
        assert leads[False, True, False] + leads[False, True, True] >= 50
        assert leads[False, False, True] >= 50 and leads[False, False, False] >= 50

    def test_equality_matches_the_difference(self):
        pairs = _vdiff_pairs(seed=41, count=150)
        expected = [(f - g).is_zero() for f, g in pairs]
        assert sum(expected) >= 100
        assert [f == g for f, g in pairs] == expected

    def test_equal_leading_terms_read_below_the_lead(self):
        f = Frac(Series({Monomial(V("[1]")): 2, Monomial(V("[0, 1]")): 3}))
        g = Frac(Series({Monomial(V("[1]")): 2, Monomial(V("[0, 1]")): 5}), Series.ONE)
        assert vdiff(f, g) == (V("[0, -1]"), -1)
        assert vdiff(f, f) == (INFINITY, 0)
        assert vdiff(f, Frac.ZERO) == (V("[-1]"), 1)
        assert vdiff(Frac.ZERO, f) == (V("[-1]"), -1)

    def test_logderiv_is_the_derivative_over_the_element(self):
        rng = random.Random(43)
        for _ in range(200):
            f = random_frac(rng)
            assert logderiv(f) == f.derivative() / f, f


def _unit_samples(seed: int, count: int) -> list[Series]:
    rng = random.Random(seed)
    return [random_series(rng, max_terms=4, allow_zero=True) for _ in range(count)] + [Series.ZERO]


class TestUnitFactor:
    def test_unit_factor_returns_the_operand(self):
        for s in _unit_samples(seed=29, count=300):
            for product in (s * Series.ONE, Series.ONE * s):
                assert product == s and product._den == s._den
                assert _key_terms(product) == _reference_product(s, Series.ONE)
            if not s.is_zero():
                assert s * Series.ONE is s and Series.ONE * s is s

    def test_unit_built_after_a_clear_is_a_unit(self):
        s = random_series(random.Random(31), max_terms=4)
        _fresh_monomials(FLOOD)
        unit_again = Series.monomial(Monomial(GroupElem.ZERO))
        assert unit_again.leading()[0] is Monomial.ONE
        assert s * unit_again is s and unit_again * s is s

    def test_near_units_multiply_in_full(self):
        near = [Series.from_rat(2), Series.from_rat(-1), Series.from_rat(Fraction(1, 2)),
                Series.monomial(Monomial(V("[1]"))), Series.from_rat(1) + Series.monomial(Monomial(V("[0, 1]")))]
        for s in _unit_samples(seed=37, count=100):
            for u in near:
                assert _key_terms(s * u) == _reference_product(s, u)
                assert _key_terms(u * s) == _reference_product(u, s)

    def test_frac_times_one_is_the_operand(self):
        rng = random.Random(41)
        for _ in range(300):
            f = random_frac(rng, allow_zero=True)
            for product in (f * Frac.ONE, Frac.ONE * f):
                assert product == f
                assert product.num == f.num and product.num._den == f.num._den
                assert product.den == f.den and product.den._den == f.den._den


class TestDerivativeSlot:
    def test_first_and_repeated_calls_match_the_reference(self):
        for s in _unit_samples(seed=43, count=300):
            first = s.derivative()
            assert _key_terms(first) == _reference_derivative(s)
            assert s.derivative() is first
            assert _key_terms(first.derivative()) == _reference_derivative(first)

    def test_each_result_has_its_own_derivative(self):
        rng = random.Random(47)
        for _ in range(200):
            s, t = random_series(rng, max_terms=4), random_series(rng, max_terms=4)
            m = logts.random_monomial(rng)
            s.derivative()
            for r in (s + t, s - t, -s, s.scale(3), s.mul_term(m, 2), s * t, t * s,
                      s.truncate_below(GroupElem.ZERO)):
                assert _key_terms(r.derivative()) == _reference_derivative(r)

    def test_slot_across_a_clear_with_tiny_caps(self, monkeypatch):
        # With a keep-alive ring of one, every monomial that no value holds
        # dies at once and is built again, without its derivative terms.
        monkeypatch.setattr(logts, "_recent", deque(maxlen=1))
        samples = _unit_samples(seed=53, count=80)
        firsts = [s.derivative() for s in samples]
        _fresh_monomials(2)
        for s, first in zip(samples, firsts):
            again = s.derivative()
            assert again is first
            assert _key_terms(again) == _reference_derivative(s)
            assert s.derivative() == Series(s.terms).derivative()
        assert len(logts._recent) == 1


class TestFracMemo:
    def test_derivative_and_inverse_are_built_once(self):
        rng = random.Random(89)
        for _ in range(200):
            f = random_frac(rng, allow_zero=True)
            fresh = Frac(f.num, f.den)
            assert f.derivative() is f.derivative()
            assert f.derivative() == fresh.derivative()
            if f.is_zero():
                continue
            inverse = f.inv()
            assert f.inv() is inverse and inverse == fresh.inv()
            # No link back to the source, so no reference cycle.
            assert not hasattr(inverse, "_inv") and inverse.inv() == f

    def test_the_inverse_of_zero_raises_on_every_call(self):
        for _ in range(3):
            with pytest.raises(ZeroDivisionError):
                Frac.ZERO.inv()
        assert not hasattr(Frac.ZERO, "_inv")

    def test_frac_stays_immutable(self):
        f = Frac(Series.ONE, Series.ONE + Series.monomial(Monomial(V("[-1]"))))
        f.derivative(), f.inv()
        for name in ("num", "_deriv", "_inv"):
            with pytest.raises(AttributeError):
                setattr(f, name, None)


def _form(f: Frac) -> tuple:
    """What a normal form prints and stores: text, numerator, factors."""
    return str(f), f.num, f._factors


def _several_factors(rng: random.Random, count: int) -> list[Frac]:
    """Elements whose denominators hold two or more distinct factors, one of
    them with multiplicity two."""
    out = []
    while len(out) < count:
        f = Frac(random_series(rng, max_terms=2), random_series(rng, max_terms=2))
        g = Frac(random_series(rng, max_terms=1), random_series(rng, max_terms=2))
        h = f * g * Frac(Series.ONE, f.den)
        if len(h._factors) >= 2:
            out.append(h)
    return out


class TestFracNormalForm:
    def test_a_power_is_the_left_fold_of_its_base(self):
        rng = random.Random(97)
        elems = [random_frac(rng, allow_zero=True) for _ in range(40)] + _several_factors(rng, 12)
        assert any(f.is_zero() for f in elems) and any(f._factors for f in elems[:40])
        assert all(len(f._factors) >= 2 and max(k for _, k in f._factors) == 2 for f in elems[40:])
        for f in elems:
            for k in range(-3, 7):
                if k < 0 and f.is_zero():
                    continue
                base = f.inv() if k < 0 else f
                folded = Frac.ONE
                for _ in range(abs(k)):
                    folded = folded * base
                assert _form(f ** k) == _form(folded), (str(f), k)

    def test_n_over_n_is_one(self):
        n = Series([(Monomial(V("[1, -2]")), 3), (Monomial.ONE, Fraction(-1, 2))])
        x = Series.monomial(Monomial(unit(0)))
        for s in (n, n.scale(3), n * x, Series.ONE + x):
            assert _form(Frac(s, s)) == ("1", Series.ONE, ())
            assert Frac(s, s).den == Series.ONE

    def test_zero_over_anything_has_no_factors(self):
        d = Series.ONE + Series.monomial(Monomial(V("[-1]")), 2)
        for den in (d, d.scale(Fraction(-3, 4)), Series.from_rat(5), Series.monomial(Monomial(unit(1)), 7)):
            assert _form(Frac(Series.ZERO, den)) == ("0", Series.ZERO, ())
            assert Frac(Series.ZERO, den).den == Series.ONE

    def test_a_constant_denominator_scales_the_numerator(self):
        n = Series([(Monomial(V("[1, -2]")), 3), (Monomial(V("[0, 1/2]")), Fraction(-1, 2))])
        for c in (Fraction(3), Fraction(-1), Fraction(2, 5)):
            f = Frac(n, Series.from_rat(c))
            assert _form(f) == (str(n.scale(1 / c)), n.scale(1 / c), ())
            assert f.den == Series.ONE


class TestOperandTypes:
    def test_order_and_difference_against_a_non_element_raise_type_error(self):
        for f in (Frac.ZERO, x_elem(), Frac(Series.ONE, Series.ONE + Series.monomial(Monomial(V("[-1]"))))):
            for other in (3, Fraction(1, 2), "x", None):
                for op in ("<", "<=", ">", ">="):
                    with pytest.raises(TypeError, match=f"'{op}' not supported"):
                        eval(f"f {op} other")
                with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for -"):
                    f - other

    def test_series_arithmetic_against_a_non_series_raises_type_error(self):
        for s in (Series.ZERO, Series.ONE, Series.monomial(Monomial(V("[-1, 2]")), 3)):
            for other in (3, Fraction(1, 2), "x", None, Frac.ONE):
                for op in ("+", "-"):
                    with pytest.raises(TypeError, match=rf"unsupported operand type\(s\) for \{op}"):
                        eval(f"s {op} other")


class TestCancelledQuotient:
    """A numerator equal to its lone denominator factor cancels to 1."""

    D = Series.ONE + Series.monomial(Monomial(V("[0, 3]")))

    def test_n_over_n_is_one_with_no_factors(self):
        d = self.D
        x = Series.monomial(Monomial(unit(0)))
        for f in (Frac(d, d), Frac(d.scale(-3), d.scale(-3)), Frac(d * x, d * x),
                  Frac(d) / Frac(d), Frac(d) * Frac(d).inv(), Frac(d).inv() * Frac(d)):
            assert f._factors == () and f.num == Series.ONE and f.den == Series.ONE
            assert str(f) == "1"

    def test_other_quotients_keep_their_factor(self):
        d = self.D
        for f in (Frac(d.scale(2), d), Frac(-d, d), Frac(Series.ONE, d), Frac(d) / Frac(d * d)):
            assert len(f._factors) == 1
            _assert_factors(f)

    def test_leibniz_sides_share_one_multiset(self):
        # Were g = d/d kept over d, f'g + fg' would carry {d: 1} against the
        # {d: 2} of (fg)'.
        f = Frac(Series.monomial(Monomial(V("[-6]")), -6))
        g = Frac(self.D, self.D)
        left, right = (f * g).derivative(), f.derivative() * g + f * g.derivative()
        assert left._factors == right._factors == ()
        assert left == right


def _one_factor(f: Frac) -> Frac:
    """f rebuilt with its whole denominator as one factor."""
    return Frac(f.num, f.den)


def _equal_by_expansion(a: Frac, b: Frac) -> bool:
    """a == b as n_a * d_b == n_b * d_a on the expanded series, without
    ``Frac.__eq__``."""
    return a.num * b.den == b.num * a.den


def _assert_factors(f: Frac) -> None:
    """The factor invariant: each factor leads with 1 * x^0, none is 1, no
    two are equal, multiplicities are positive, and zero has none."""
    bases = [s for s, _ in f._factors]
    assert all(k >= 1 for _, k in f._factors)
    assert all(s.leading() == (Monomial.ONE, 1) and len(s) > 1 for s in bases)
    assert all(a != b for i, a in enumerate(bases) for b in bases[:i])
    if f.is_zero():
        assert f._factors == () and f.den == Series.ONE
    expanded = Series.ONE
    for s, k in f._factors:
        for _ in range(k):
            expanded = expanded * s
    assert f.den == expanded


def _two_term_dens():
    return series(max_terms=2).filter(lambda s: len(s) == 2)


def _shared_factor_family(f: Frac, g: Frac, h: Frac, k: int) -> list[Frac]:
    """Elements whose denominators share factors (f*h, g*h), repeat one
    (f*f, f**k), divide by an element with a denominator (f/h), zero, and h
    itself."""
    return [f * h, g * h, f * f, f ** k, f / h, Frac.ZERO, h]


class TestFactorMultiset:
    @settings(max_examples=20)
    @given(fracs(), fracs(), nonzero_series(), _two_term_dens(), st.integers(2, 4))
    def test_operations_match_the_one_factor_copies(self, f, g, num, den, k):
        h = Frac(num, den)
        family = _shared_factor_family(f, g, h, k)
        flat = [_one_factor(a) for a in family]
        for a, fa in zip(family, flat):
            _assert_factors(a)
            assert _equal_by_expansion(a, fa)
            assert (a.valuation(), a.sign()) == (fa.valuation(), fa.sign())
            da = a.derivative()
            _assert_factors(da)
            assert _equal_by_expansion(da, fa.derivative())
            for b, fb in zip(family, flat):
                for got, want in ((a + b, fa + fb), (a - b, fa - fb), (a * b, fa * fb)):
                    _assert_factors(got)
                    assert _equal_by_expansion(got, want)
                if not b.is_zero():
                    q = a / b
                    _assert_factors(q)
                    assert _equal_by_expansion(q, fa / fb)
                assert (a == b) == (fa == fb) == _equal_by_expansion(fa, fb)
                assert vdiff(a, b) == vdiff(fa, fb) == ((fa - fb).valuation(), (fa - fb).sign())
                if not a.is_zero() and not b.is_zero():
                    assert similar(a, b) == similar(fa, fb)

    @given(fracs(), fracs())
    def test_leibniz_sides_carry_one_multiset(self, f, g):
        # A zero term of the sum (f or g constant) keeps no factors.
        terms = f.derivative() * g, f * g.derivative()
        assume(not any(t.is_zero() for t in terms))
        left, right = (f * g).derivative(), terms[0] + terms[1]
        if not left.is_zero():
            assert left._factors == right._factors
            assert [k for _, k in left._factors] == [k + 1 for _, k in (f * g)._factors]

    def test_leibniz_equality_never_enters_the_cross_kernel(self, monkeypatch):
        calls = []
        real = logts._cross_equal

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(logts, "_cross_equal", counted)
        rng = random.Random(59)
        checked = 0
        while checked < 60:
            f, g = random_frac(rng), random_frac(rng)
            if f.den == Series.ONE or g.den == Series.ONE:
                continue
            assert (f * g).derivative() == f.derivative() * g + f * g.derivative()
            assert (f * f).derivative() == (f.derivative() * f).scale(2)
            checked += 1
        assert calls == []
        # The kernel is still reached when the multisets differ.
        f = random_frac(random.Random(61))
        while f.den == Series.ONE:
            f = random_frac(rng)
        assert f == _other_form(rng, f) and len(calls) == 1

    def test_a_power_stores_one_factor(self):
        x = x_elem()
        f = (x + ONE) / (x + Frac.from_rat(2))
        (d, k), = (f ** 64)._factors
        assert d == f.den and k == 64
        assert (f ** 64).den == _one_factor(f ** 64).den
        assert (f ** 64).derivative()._factors == ((d, 65),)
        assert f ** 64 - f ** 63 == (f - ONE) * f ** 63
        assert [k for _, k in (f ** -3)._factors] == [3] and (f ** 3).inv() == f ** -3

    def test_shared_factors_add_over_the_lcm(self):
        x = x_elem()
        f, g = (x + ONE) / (x + Frac.from_rat(2)), x / (x + Frac.from_rat(3))
        h = ONE / (x - ONE)
        total = f * h + g * h
        assert [k for _, k in total._factors] == [1, 1, 1]
        assert total == (f + g) * h
        assert total.den == f.den * h.den * g.den

    def test_den_is_built_once(self):
        x = x_elem()
        f = (ONE / (x + ONE)) * (ONE / (x + Frac.from_rat(2)))
        assert f._den is None
        assert f.den is f.den
        assert str(f) == f"{f.num} | {f.den}"
