"""Operator oracles and law tests for the asymptotic couple."""

from fractions import Fraction

from hypothesis import given
import pytest

from aclab.acouple import (
    INFINITY,
    CoupleDescriptor,
    chi,
    classify_couple,
    closure_count,
    conformance_grid,
    der,
    identity_suite,
    integrate,
    psi,
    successor,
    verify_couple_axioms,
)
from aclab.cli import MAX_GENERATOR_INDEX
from aclab.ogroup import DELTA, ExtElem, GroupElem, ones, unit

from strategies import nonzero_elems

V = GroupElem.parse


class TestOperatorOracles:
    """Hand-computed values for every operator, frozen as regression anchors."""

    def test_psi(self):
        assert psi(V("[3]")) == V("[1]")
        assert psi(V("[0, 0, -1/2, 4]")) == V("[1, 1, 1]")
        assert psi(V("[0, -7]")) == V("[1, 1]")
        assert psi(GroupElem.ZERO) is INFINITY

    def test_psi_on_extension_points(self):
        assert psi(DELTA) == V("[1]")
        assert psi(ExtElem(V("[-1]"), 1)) == V("[1, 1]")
        assert psi(ExtElem(GroupElem.ZERO, 0)) is INFINITY

    def test_der(self):
        assert der(V("[1]")) == V("[2]")
        assert der(V("[0, -1]")) == V("[1]")
        assert der(V("[0, 0, 1/2]")) == V("[1, 1, 3/2]")
        with pytest.raises(ValueError):
            der(GroupElem.ZERO)

    def test_integrate(self):
        assert integrate(V("[2, 5]")) == V("[1, 5]")
        assert integrate(V("[1, 1, 3]")) == V("[0, 0, 2]")
        assert integrate(V("[1, 1, 1]")) == V("[0, 0, 0, -1]")
        assert integrate(GroupElem.ZERO) == V("[-1]")

    def test_successor(self):
        assert successor(GroupElem.ZERO) == V("[1]")
        assert successor(V("[1, 1, 3]")) == V("[1, 1, 1]")
        assert successor(V("[2]")) == V("[1]")
        assert successor(ones(4)) == ones(5)

    @pytest.mark.parametrize("n", [33, 100, 1000, MAX_GENERATOR_INDEX])
    def test_maps_at_far_first_indices(self, n):
        # The closed forms are written out coordinate by coordinate, not via ones().
        prefix = [(i, 1) for i in range(n)]
        g = GroupElem([(n, Fraction(-3, 2)), (n + 2, 1)])
        assert psi(g) == GroupElem(prefix + [(n, 1)])
        assert der(g) == GroupElem(prefix + [(n, Fraction(-1, 2)), (n + 2, 1)])
        assert integrate(der(g)) == g
        assert successor(GroupElem(prefix)) == GroupElem(prefix + [(n, 1)])

    def test_chi(self):
        assert chi(V("[3]")) == V("[0, -1]")
        assert chi(V("[0, 0, 5]")) == unit(3).scale(-1)
        assert chi(GroupElem.ZERO) == GroupElem.ZERO


class TestOperatorLaws:
    @given(nonzero_elems())
    def test_integrate_inverts_der(self, g):
        assert integrate(der(g)) == g

    @given(nonzero_elems())
    def test_der_inverts_integrate(self, g):
        assert der(integrate(g)) == g

    @given(nonzero_elems(), nonzero_elems())
    def test_der_strictly_increasing(self, a, b):
        if a < b:
            assert der(a) < der(b)
        elif b < a:
            assert der(b) < der(a)

    @given(nonzero_elems())
    def test_successor_is_psi_of_integral(self, g):
        assert successor(g) == psi(integrate(g))

    @given(nonzero_elems())
    def test_chi_integrates_psi(self, g):
        assert chi(g) == integrate(psi(g))

    @given(nonzero_elems())
    def test_psi_fixed_under_scaling(self, g):
        assert psi(g.scale(-3)) == psi(g)
        assert psi(g.scale(Fraction(2, 7))) == psi(g)

    @given(nonzero_elems())
    def test_psi_value_below_derivative_of_positive(self, g):
        pos = g if g.sign() > 0 else -g
        assert psi(pos) <= der(pos)
        assert psi(pos) != der(pos)


class TestSuites:
    def test_couple_axioms_hold(self):
        report = verify_couple_axioms(300, 11)
        assert report.ok
        assert report.cases == 300

    def test_couple_axioms_hold_on_gap_couple(self):
        assert verify_couple_axioms(200, 11, "loggap").ok

    def test_identity_suite_holds(self):
        assert identity_suite(300, 13).ok

    def test_conformance_grid_holds(self):
        report = conformance_grid()
        assert report.ok
        assert report.cases > 0

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError):
            verify_couple_axioms(0, 1)


class TestClassification:
    def test_truncated_couple_is_grounded(self):
        result = classify_couple("trunc:3")
        assert result.kind == "grounded"
        assert result.max_psi == ones(3)

    def test_full_couple_has_asymptotic_integration(self):
        result = classify_couple("logfull")
        assert result.kind == "asymptotic-integration"
        assert result.max_psi is None

    def test_extension_couple_has_gap(self):
        result = classify_couple("loggap")
        assert result.kind == "gap"
        assert result.gap == DELTA

    def test_descriptor_parse(self):
        assert CoupleDescriptor.parse("trunc:5") == CoupleDescriptor("trunc", 5)
        assert str(CoupleDescriptor.parse("logfull")) == "logfull"
        with pytest.raises(ValueError):
            CoupleDescriptor.parse("trunc:0")
        with pytest.raises(ValueError):
            CoupleDescriptor.parse("mystery")

    def test_closure_count_table(self):
        grounded = classify_couple("trunc:2")
        gap = classify_couple("loggap")
        ai = classify_couple("logfull")
        for lf in ("yes", "no", "unknown"):
            assert closure_count(grounded, lf) == "one"
        assert closure_count(gap, "no") == "two"
        assert closure_count(gap, "unknown") == "two"
        assert closure_count(ai, "yes") == "one"
        assert closure_count(ai, "no") == "two"
        assert closure_count(ai, "unknown") == "unknown"

    def test_closure_count_rejects_lambda_free_gap(self):
        gap = classify_couple("loggap")
        with pytest.raises(ValueError):
            closure_count(gap, "yes")
        with pytest.raises(ValueError):
            closure_count(gap, "maybe")
