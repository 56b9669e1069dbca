"""Step-by-step witnesses for the three non-integrability scenarios."""

from fractions import Fraction
import random

import pytest

from aclab import extend
from aclab.acouple import integrate
from aclab.extend import (
    BIG_INT,
    ExtS,
    KINDS,
    SMALL_EXP_INT,
    SMALL_INT,
    ExtScenario,
    Witness,
    _require_small,
    chain,
    chain_report,
    construct_witness,
    example,
    member,
    s_value,
    step_bound,
    verify_downward_no_max,
    yardstick_step,
)
from aclab.logts import Frac, ell, vdiff, x_elem
from aclab.ogroup import GroupElem, unit
from helpers import initial_witness

V = GroupElem.parse


class TestScenarioBasics:
    def test_shipped_valuations(self):
        assert example(SMALL_INT).s_valuation() == V("[2, 1]")
        assert example(SMALL_EXP_INT).s_valuation() == V("[2, 1]")
        assert example(BIG_INT).s_valuation() == V("[0, -1/2]")

    def test_initial_witnesses(self):
        assert initial_witness(example(SMALL_INT)) == Witness(Frac.ZERO, V("[2, 1]"))
        assert initial_witness(example(BIG_INT)).gamma == V("[0, 1/2]")

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            ExtScenario("mystery", x_elem())
        with pytest.raises(ValueError):
            ExtScenario(BIG_INT, ell(1))

    def test_membership_closed_forms(self):
        small = example(SMALL_INT)
        assert member(small, V("[2, 1]"))
        assert member(small, V("[2, -9]"))
        assert member(small, V("[1, 2]"))
        assert not member(small, V("[5/2, 1]"))
        assert not member(small, V("[0, 3]"))
        assert not member(small, V("[1]"))
        big = example(BIG_INT)
        assert member(big, V("[0, 5]"))
        assert member(big, V("[-3, 7]"))
        assert not member(big, V("[1/2]"))


class TestYardstickStep:
    def test_smallint_one_step_oracle(self):
        sc = example(SMALL_INT)
        stepped = yardstick_step(sc, initial_witness(sc))
        assert stepped.gamma == V("[2, 2]")
        assert step_bound(V("[2, 1]")) == V("[2, 2]")

    def test_steps_meet_the_exact_bound(self):
        for kind in KINDS:
            sc = example(kind)
            ws = chain(sc, 12)
            for prev, cur in zip(ws, ws[1:]):
                assert cur.gamma >= step_bound(prev.gamma)
                assert cur.gamma > prev.gamma

    def test_chain_values_are_reverified(self):
        for kind in KINDS:
            sc = example(kind)
            for w in chain(sc, 8):
                assert s_value(sc, w.eps) == w.gamma

    def test_chain_endpoints(self):
        assert chain(example(SMALL_INT), 10)[-1].gamma == V("[2, 11]")
        assert chain(example(SMALL_EXP_INT), 10)[-1].gamma == V("[2, 11]")
        assert chain(example(BIG_INT), 10)[-1].gamma == V("[0, 21/2]")

    def test_step_past_interleaved_defect_terms(self):
        # A single leading-term kill from this member lands between the
        # member and its bound; the step must keep killing until the bound.
        sc = example(SMALL_INT)
        w = construct_witness(sc, V("[2, 0, 2, -3]"))
        stepped = yardstick_step(sc, w)
        assert stepped.gamma >= V("[2, 1, 2, -3]")

    def test_rejects_non_infinitesimal_witness(self):
        sc = example(SMALL_INT)
        with pytest.raises(ValueError):
            yardstick_step(sc, Witness(x_elem(), V("[2, 1]")))

    def test_rejects_negative_steps(self):
        with pytest.raises(ValueError):
            chain(example(SMALL_INT), -1)


class TestWitnessConstruction:
    def test_realizes_targets_exactly(self):
        targets = {
            SMALL_INT: [V("[2, 5]"), V("[2]"), V("[1, 3, -2]"), V("[1, 1, 5]")],
            SMALL_EXP_INT: [V("[2, 3]"), V("[2]"), V("[1, 1, 3/2]")],
            BIG_INT: [V("[0, 9/2]"), V("[-1]"), V("[0, 0, 4]"), V("[-2, 1, 1]")],
        }
        for kind, gammas in targets.items():
            sc = example(kind)
            for gamma in gammas:
                w = construct_witness(sc, gamma)
                assert w.gamma == gamma
                assert s_value(sc, w.eps) == gamma

    def test_rejects_non_members(self):
        with pytest.raises(ValueError):
            construct_witness(example(SMALL_INT), V("[3]"))
        with pytest.raises(ValueError):
            construct_witness(example(BIG_INT), V("[1, 1]"))

    def test_agreement_with_membership(self):
        rng = random.Random(41)
        pool = [Fraction(n, 2) for n in range(-6, 7)]
        for kind in KINDS:
            sc = example(kind)
            for _ in range(25):
                gamma = GroupElem((i, rng.choice(pool)) for i in range(rng.randint(1, 4)))
                if member(sc, gamma):
                    assert construct_witness(sc, gamma).gamma == gamma
                else:
                    with pytest.raises(ValueError):
                        construct_witness(sc, gamma)


def big_form_value(sc: ExtScenario, eps: Frac) -> GroupElem:
    """v((g(1+eps))' - s) for the big-integral comparison form."""
    if sc.kind != BIG_INT:
        raise ValueError("comparison form only exists for big-integral scenarios")
    _require_small(eps)
    v = vdiff((sc.g * (Frac.ONE + eps)).derivative(), sc.s)[0]
    if not isinstance(v, GroupElem):
        raise ValueError("comparison form integrated s exactly")
    return v


class TestBigComparisonForm:
    def test_initial_form_value(self):
        sc = example(BIG_INT)
        assert big_form_value(sc, Frac.ZERO) == V("[0, 1/2]")

    def test_round_trip_through_witness(self):
        # Values above the seed are realized by candidates asymptotic to g,
        # so they reappear through the multiplicative comparison form.
        sc = example(BIG_INT)
        for target in (V("[0, 7/2]"), V("[0, 5]")):
            w = construct_witness(sc, target)
            delta = w.eps / sc.g - Frac.ONE
            assert big_form_value(sc, delta) == target

    def test_only_defined_for_big_scenarios(self):
        with pytest.raises(ValueError):
            big_form_value(example(SMALL_INT), Frac.ZERO)


class TestStructureSuite:
    def test_all_kinds_verify(self):
        for kind in KINDS:
            report = verify_downward_no_max(example(kind), probes=20, seed=7)
            assert report.ok, report.failures[:2]

    def test_second_seed_verifies(self):
        report = verify_downward_no_max(example(SMALL_EXP_INT), probes=15, seed=12)
        assert report.ok

    def test_chain_report_shape(self):
        data = chain_report(example(SMALL_INT), 4)
        assert data["kind"] == SMALL_INT
        assert data["s"] == "x^-2*l1^-1"
        assert len(data["gammas"]) == 5
        assert data["gammas"][0] == [2, 1]


def _chain_by_public_steps(kind: str, steps: int) -> list[Witness]:
    """The chain rebuilt through the public step, which re-derives and
    checks each witness's defect."""
    sc = example(kind)
    w = initial_witness(sc)
    window = None
    if kind == SMALL_EXP_INT:
        window = integrate(w.gamma + unit(1).scale(steps + 8))
    out = [w]
    for _ in range(steps):
        w = yardstick_step(sc, w, window=window)
        out.append(w)
    return out


class TestDefectPassedAlong:
    @pytest.mark.parametrize("kind", KINDS)
    def test_chain_matches_public_steps(self, kind):
        got = chain(example(kind), 40)
        expect = _chain_by_public_steps(kind, 40)
        assert [w.gamma for w in got] == [w.gamma for w in expect]
        assert [str(w.eps) for w in got] == [str(w.eps) for w in expect]

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_defect_per_kill_plus_the_seed(self, kind, monkeypatch):
        counts = {"defect": 0, "kill": 0}
        defect, monomial_frac = extend._defect, extend._monomial_frac

        def counted_defect(sc, w):
            counts["defect"] += 1
            return defect(sc, w)

        def counted_kill(valuation):
            counts["kill"] += 1
            return monomial_frac(valuation)

        monkeypatch.setattr(extend, "_defect", counted_defect)
        monkeypatch.setattr(extend, "_monomial_frac", counted_kill)
        chain(example(kind), 20)
        assert counts["kill"] >= 20
        assert counts["defect"] == counts["kill"] + 1

    @pytest.mark.parametrize("kind", KINDS)
    def test_doctored_witness_is_stale(self, kind):
        sc = example(kind)
        w = chain(sc, 5)[-1]
        with pytest.raises(ValueError, match="stale witness"):
            yardstick_step(sc, Witness(w.eps, w.gamma + unit(4)))
        with pytest.raises(ValueError, match="stale witness"):
            yardstick_step(sc, Witness(w.eps + chain(sc, 3)[-1].eps, w.gamma))


def _members_and_chain(kind: str) -> list[Witness]:
    """The witnesses of a 30-step chain and of 20 sampled members."""
    sc = example(kind)
    rng = random.Random(61)
    values = ExtS(kind)
    return chain(sc, 30) + [construct_witness(sc, values.sample(rng)) for _ in range(20)]


def _quotient_defect(sc, eps: Frac) -> Frac:
    """The defect as the scenario defines it: s - e' or s - e'/(1+e)."""
    if sc.kind == SMALL_EXP_INT:
        return sc.s - eps.derivative() / (Frac.ONE + eps)
    return sc.s - eps.derivative()


class TestStepRewrites:
    """``_defect`` and ``_kill`` read the valuation and the leading
    coefficients off closed forms; each must agree with the form it
    replaces."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_defect_leads_as_the_quotient_form(self, kind):
        sc = example(kind)
        for w in _members_and_chain(kind):
            h, text = extend._defect(sc, w.eps), _quotient_defect(sc, w.eps)
            assert h.valuation() == text.valuation() == w.gamma
            assert h.leading_coeff() == text.leading_coeff()

    @pytest.mark.parametrize("kind", KINDS)
    def test_kill_coefficient_is_read_off_the_derivative(self, kind):
        sc = example(kind)
        for w in _members_and_chain(kind):
            h = _quotient_defect(sc, w.eps)
            b = extend._monomial_frac(integrate(w.gamma))
            u = h.leading_coeff() / b.derivative().leading_coeff()
            kill = extend._kill(extend._defect(sc, w.eps), w.gamma)
            assert kill.num == b.scale(u).num and kill._factors == ()
            assert (h - kill.derivative()).valuation() > w.gamma
