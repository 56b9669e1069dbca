"""Derivation, valuation, and field-law tests for the logarithmic tower."""

import random
from fractions import Fraction

from hypothesis import assume, given
import pytest

from aclab import logts
from aclab.acouple import INFINITY, der, psi
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
    is_in_I,
    logderiv,
    ode_second_order_check,
    random_frac,
    random_series,
    residue,
    similar,
    x_elem,
)
from aclab.ogroup import GroupElem, unit

from strategies import fracs, monomials, nonzero_fracs

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
        for part, coeff in m.derivative_terms():
            total = total + Series.monomial(part, coeff)
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


def _distinct_monomials(count: int, index: int = 9) -> list[Monomial]:
    """``count`` monomials no other test builds: powers of one generator."""
    return [Monomial(unit(index).scale(Fraction(k + 1, 7919))) for k in range(count)]


def _products_and_derivatives(seed: int, cases: int) -> list[str]:
    rng = random.Random(seed)
    out = []
    for _ in range(cases):
        f, g = random_frac(rng), random_frac(rng)
        out.append(str(f * g + f.derivative() * g))
    return out


class TestHashConsing:
    def test_equal_monomials_are_one_instance_below_the_cap(self):
        logts._clear_tables()
        a = Monomial(V("[1, -2]"))
        assert Monomial(V("[1, -2]")) is a
        b = Monomial(V("[0, 1/2, 3]"))
        assert a * b is a * b
        assert a * b is Monomial(V("[1, -3/2, 3]"))

    def test_equal_across_a_clear(self):
        logts._clear_tables()
        before = Monomial(V("[3, 1/2]"))
        rng = random.Random(5)
        left, right = random_series(rng, max_terms=4), random_series(rng, max_terms=4)
        _distinct_monomials(logts.INTERN_CAP + 1)
        after = Monomial(V("[3, 1/2]"))
        assert after is not before
        assert after == before and hash(after) == hash(before)
        assert hash(after) == hash(("mono", after.exponents))
        assert {before: 1}[after] == 1
        # left's monomials predate the clear; the rebuilt copy's do not.
        rebuilt = Series({Monomial(GroupElem(m.exponents.items)): c
                          for m, c in left.terms.items()})
        assert any(m is not n for m, n in zip(left.terms, rebuilt.terms))
        across = left * right
        assert across == rebuilt * right
        assert hash(across) == hash(rebuilt * right)
        assert str(across) == str(rebuilt * right)

    def test_tables_never_exceed_their_caps(self):
        for k in range(2 * logts.INTERN_CAP + 5):
            Monomial(unit(8).scale(k + 1))
            assert len(logts._interned) <= logts.INTERN_CAP
        pool = _distinct_monomials(100, index=7)
        for a in pool:
            for b in pool:
                a * b
                assert len(logts._products) <= logts.PRODUCT_CAP
                assert len(logts._interned) <= logts.INTERN_CAP

    def test_tiny_caps_change_no_result(self, monkeypatch):
        expected = _products_and_derivatives(seed=13, cases=40)
        monkeypatch.setattr(logts, "INTERN_CAP", 8)
        monkeypatch.setattr(logts, "PRODUCT_CAP", 16)
        logts._clear_tables()
        got = _products_and_derivatives(seed=13, cases=40)
        assert len(logts._interned) <= 8 and len(logts._products) <= 16
        assert got == expected

    @given(monomials(), monomials())
    def test_product_is_the_monomial_of_the_summed_exponents(self, a, b):
        exps = a.exponents + b.exponents
        product = a * b
        assert product == Monomial(exps)
        assert product.exponents == exps
        assert hash(product) == hash(("mono", exps))
