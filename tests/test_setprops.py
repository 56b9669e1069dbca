"""Verdict oracles for jammedness, yardsticks, and set reductions."""

import json
import random

from hypothesis import given
import pytest

from aclab import cli, extend, setprops
from aclab.acouple import integrate
from aclab.extend import BIG_INT, SMALL_EXP_INT, SMALL_INT, example, s_descriptor
from aclab.ogroup import GroupElem, ones, unit
from aclab.setprops import (
    FAILS,
    HOLDS,
    PSI_DOWN,
    UNKNOWN,
    Affine,
    DownClosure,
    IntImage,
    LessEq,
    LessThan,
    PropertyVerdict,
    UnsupportedDescriptor,
    describe,
    exclusion_suite,
    has_derived_yardstick,
    has_yardstick,
    is_downward_closed,
    is_jammed,
    jammedness_suite,
    member,
    recheck_jammed,
    recheck_yardstick,
    sample_member,
    subset_half,
    sup_in_divhull,
)

from strategies import group_elems

V = GroupElem.parse


class TestMembership:
    def test_psidown_oracles(self):
        assert member(PSI_DOWN, GroupElem.ZERO)
        assert member(PSI_DOWN, V("[1, 1]"))
        assert member(PSI_DOWN, V("[1, 1/2, 9]"))
        assert member(PSI_DOWN, V("[0, 5]"))
        assert member(PSI_DOWN, V("[1, 1, 0, -3]"))
        assert not member(PSI_DOWN, V("[2]"))
        assert not member(PSI_DOWN, V("[1, 2]"))
        assert not member(PSI_DOWN, V("[1, 1, 3/2]"))

    @given(group_elems())
    def test_psidown_downward_closed(self, g):
        if member(PSI_DOWN, g):
            assert member(PSI_DOWN, g - unit(0))
            assert member(PSI_DOWN, g - unit(3).div(2))

    @given(group_elems())
    def test_psidown_is_the_small_derivative_half(self, g):
        assert member(PSI_DOWN, g) == (integrate(g) < GroupElem.ZERO)

    def test_affine_membership_rescales(self):
        desc = Affine(unit(0), 2, PSI_DOWN)
        assert member(desc, unit(0) + V("[0, 4]"))
        assert not member(desc, unit(0) + V("[4]"))

    def test_integral_image_membership(self):
        desc = IntImage(PSI_DOWN)
        assert member(desc, V("[0, -1]"))
        assert not member(desc, GroupElem.ZERO)
        assert not member(desc, V("[1]"))

    def test_integral_image_needs_a_half(self):
        with pytest.raises(UnsupportedDescriptor):
            member(IntImage(LessThan(V("[2]"))), unit(0))

    def test_downclosure_of_scenario_uses_coordinate_cap(self):
        desc = DownClosure(s_descriptor(example(SMALL_INT)))
        assert member(desc, V("[2, 50]"))
        assert member(desc, V("[-9]"))
        assert not member(desc, V("[5/2]"))

    @given(group_elems())
    def test_sampled_members_belong(self, g):
        rng = random.Random(hash(g) & 0xFFFF)
        for desc in (PSI_DOWN, LessThan(g), DownClosure(PSI_DOWN)):
            got = sample_member(desc, rng)
            assert member(desc, got)


class TestStructure:
    def test_downward_closure_certificates(self):
        assert is_downward_closed(PSI_DOWN)
        assert is_downward_closed(LessThan(unit(0)))
        assert is_downward_closed(DownClosure(IntImage(PSI_DOWN)))
        assert not is_downward_closed(IntImage(PSI_DOWN))

    def test_subset_half_oracles(self):
        assert subset_half(PSI_DOWN) == -1
        assert subset_half(LessThan(ones(2))) == -1
        assert subset_half(LessThan(V("[2]"))) is None
        assert subset_half(s_descriptor(example(SMALL_INT))) == 1
        assert subset_half(DownClosure(PSI_DOWN)) == -1
        assert subset_half(DownClosure(s_descriptor(example(SMALL_INT)))) is None

    def test_sup_in_divhull(self):
        beta = V("[3, -1/2]")
        assert sup_in_divhull(LessThan(beta)) == beta
        assert sup_in_divhull(LessEq(beta)) == beta
        assert sup_in_divhull(PSI_DOWN) is None
        assert sup_in_divhull(Affine(unit(0), 3, LessThan(beta))) == unit(0) + beta.scale(3)
        assert sup_in_divhull(Affine(unit(1), 2, PSI_DOWN)) is None
        with pytest.raises(UnsupportedDescriptor):
            sup_in_divhull(IntImage(PSI_DOWN))

    def test_describe_forms(self):
        assert describe(PSI_DOWN) == "psidown"
        assert describe(LessThan(ones(2))) == "(less [1, 1])"
        assert describe(DownClosure(IntImage(PSI_DOWN))) == "(down (int psidown))"
        assert describe(s_descriptor(example(BIG_INT))) == "(exts bigint)"


class TestJammedness:
    def test_psidown_is_jammed(self):
        verdict = is_jammed(PSI_DOWN)
        assert (verdict.verdict, verdict.rule) == (HOLDS, "psi-downset")
        assert recheck_jammed(PSI_DOWN, verdict)

    def test_principal_downsets_are_jammed(self):
        desc = LessThan(V("[1, -2, 1/2]"))
        verdict = is_jammed(desc)
        assert (verdict.verdict, verdict.rule) == (HOLDS, "principal-downset")
        assert recheck_jammed(desc, verdict)

    def test_greatest_element_blocks_the_question(self):
        verdict = is_jammed(LessEq(unit(0)))
        assert (verdict.verdict, verdict.rule) == (UNKNOWN, "greatest-element")

    def test_affine_images_inherit(self):
        desc = Affine(V("[0, 7]"), 3, PSI_DOWN)
        verdict = is_jammed(desc)
        assert (verdict.verdict, verdict.rule) == (HOLDS, "affine-invariance")
        assert recheck_jammed(desc, verdict)

    def test_capped_integral_closure_is_not_jammed(self):
        desc = DownClosure(IntImage(s_descriptor(example(SMALL_INT))))
        verdict = is_jammed(desc)
        assert (verdict.verdict, verdict.rule) == (FAILS, "downclosure-invariance")
        assert verdict.witness["inherited_from"] == "coordinate-cap-escape"
        assert verdict.witness["inner_witness"]["level"] == 2
        assert recheck_jammed(desc, verdict)

    def test_capped_integral_image_is_not_jammed(self):
        desc = IntImage(s_descriptor(example(SMALL_INT)))
        verdict = is_jammed(desc)
        assert (verdict.verdict, verdict.rule) == (FAILS, "coordinate-cap-escape")
        assert verdict.witness["level"] == 2
        assert recheck_jammed(desc, verdict)

    @pytest.mark.parametrize("desc", [
        IntImage(PSI_DOWN),
        DownClosure(IntImage(PSI_DOWN)),
        IntImage(LessThan(GroupElem.ZERO)),
        Affine(unit(0), 2, IntImage(LessThan(GroupElem.ZERO))),
    ], ids=describe)
    def test_sampled_escapes_do_not_refute(self, desc):
        # Each is a principal downset or an affine image of one, so jammed;
        # no structural rule says so yet, and sampled escapes must not say Fails.
        assert is_jammed(desc).verdict != FAILS

    @pytest.mark.parametrize("desc, rule", [
        (DownClosure(IntImage(PSI_DOWN)), "downclosure-invariance"),
        (Affine(V("[1]"), 2, IntImage(DownClosure(s_descriptor(example(BIG_INT))))),
         "affine-invariance"),
    ], ids=["down-int-psidown", "affine-int-down-bigint"])
    def test_unknown_names_its_transport(self, desc, rule):
        verdict = is_jammed(desc)
        assert (verdict.verdict, verdict.rule) == (UNKNOWN, rule)
        assert verdict.witness["inherited_from"] == "no-structural-rule"
        assert verdict.witness["inner_witness"] == is_jammed(desc.inner).witness
        assert recheck_jammed(desc, verdict)

    def test_recheck_uses_the_stated_bump(self):
        desc = IntImage(s_descriptor(example(SMALL_INT)))
        verdict = is_jammed(desc)
        # g + e_2 stays in g + Delta_2, so this bump escapes from no member.
        forged = PropertyVerdict(FAILS, verdict.rule, {**verdict.witness, "bump": V("[0, 0, 1]")})
        assert not recheck_jammed(desc, forged)

    def test_suite_holds(self):
        report = jammedness_suite(seed=3, beta_count=6, invariance_count=10)
        assert report.ok

    def test_recheck_rejects_doctored_fails(self):
        capped = IntImage(s_descriptor(example(SMALL_INT)))
        fails = is_jammed(capped)
        assert fails.verdict == FAILS
        # A transport rule on a descriptor that is neither affine nor a closure.
        transported = PropertyVerdict(FAILS, "affine-invariance",
                                      {"inherited_from": fails.rule, "inner_witness": fails.witness})
        assert recheck_jammed(DownClosure(capped), PropertyVerdict(
            FAILS, "downclosure-invariance", transported.witness))
        assert not recheck_jammed(capped, transported)
        for key in ("bump", "level"):
            witness = {k: v for k, v in fails.witness.items() if k != key}
            assert not recheck_jammed(capped, PropertyVerdict(FAILS, fails.rule, witness))

    def test_recheck_rejects_holds_on_a_non_member_base(self, monkeypatch):
        desc = LessThan(unit(0))
        verdict = is_jammed(desc)
        assert recheck_jammed(desc, verdict)
        monkeypatch.setattr(setprops, "_cofinal_member", lambda d, i: d.bound)
        assert not recheck_jammed(desc, verdict)

    def test_recheck_rejects_holds_on_a_set_with_escapes(self):
        desc = s_descriptor(example(BIG_INT))
        assert is_jammed(desc).verdict == FAILS
        assert not recheck_jammed(desc, PropertyVerdict(HOLDS, "principal-downset"))


class TestYardstick:
    def test_negative_cone_holds(self):
        desc = LessThan(GroupElem.ZERO)
        verdict = has_yardstick(desc)
        assert (verdict.verdict, verdict.rule) == (HOLDS, "negative-cone")
        assert recheck_yardstick(desc, verdict)

    def test_principal_downset_fails_with_cofinal_escape(self):
        desc = LessThan(unit(0))
        verdict = has_yardstick(desc)
        assert (verdict.verdict, verdict.rule) == (FAILS, "cofinal-escape")
        assert verdict.witness["witness"] == V("[1, 0, 0, 0, 0, -1/2]")
        assert recheck_yardstick(desc, verdict)

    def test_psidown_fails_with_cofinal_escape(self):
        verdict = has_yardstick(PSI_DOWN)
        assert (verdict.verdict, verdict.rule) == (FAILS, "cofinal-escape")
        assert verdict.witness["witness"] == V("[1, 1, -1/2]")
        assert recheck_yardstick(PSI_DOWN, verdict)

    def test_sampled_escapes_off_a_downset_give_unknown(self):
        # (int (less [])) is (less [-1]), which fails by cofinal-escape once
        # rewritten; here its escapes are only sampled, so they decide nothing.
        verdict = has_yardstick(IntImage(LessThan(GroupElem.ZERO)))
        assert verdict.verdict == UNKNOWN

    def test_scenario_handles_hold(self):
        for kind in (SMALL_INT, SMALL_EXP_INT, BIG_INT):
            desc = s_descriptor(example(kind))
            verdict = has_yardstick(desc)
            assert (verdict.verdict, verdict.rule) == (HOLDS, "step-closed-handle")
            assert recheck_yardstick(desc, verdict)

    def test_integral_images_transport(self):
        desc = IntImage(s_descriptor(example(SMALL_INT)))
        verdict = has_yardstick(desc)
        assert (verdict.verdict, verdict.rule) == (HOLDS, "integral-transport")
        assert recheck_yardstick(desc, verdict)

    def test_derived_yardstick_constructive(self):
        for kind in (SMALL_INT, SMALL_EXP_INT, BIG_INT):
            desc = s_descriptor(example(kind))
            verdict = has_derived_yardstick(desc)
            assert (verdict.verdict, verdict.rule) == (HOLDS, "constructive-step")
            assert recheck_yardstick(desc, verdict)

    @pytest.mark.parametrize("kind", [SMALL_INT, SMALL_EXP_INT, BIG_INT])
    def test_derived_yardstick_checks_real_steps(self, kind, monkeypatch):
        calls = []
        monkeypatch.setattr(setprops, "step_bound", lambda g: calls.append(g) or extend.step_bound(g))
        desc = s_descriptor(example(kind))
        verdict = has_derived_yardstick(desc)
        # The verdict makes no step; its check makes three.
        assert verdict.verdict == HOLDS and not calls
        assert recheck_yardstick(desc, verdict) and len(calls) == 3

    def test_derived_yardstick_requires_a_half(self):
        with pytest.raises(UnsupportedDescriptor):
            has_derived_yardstick(LessThan(V("[2]")))

    def test_refuted_step_is_a_broken_certificate(self, monkeypatch, capsys):
        monkeypatch.setattr(extend, "member", lambda sc, gamma: False)
        desc = s_descriptor(example(BIG_INT))
        verdict = has_derived_yardstick(desc)
        assert verdict.rule == "constructive-step" and not recheck_yardstick(desc, verdict)
        assert cli.main(["set", "(exts bigint)", "derived-yardstick"]) == 1
        assert json.loads(capsys.readouterr().out) == {
            "error": "constructive-step certificate failed on (exts bigint)"}

    def test_recheck_rejects_forged_yardstick_verdicts(self):
        desc = LessThan(unit(0))
        assert recheck_yardstick(desc, has_yardstick(desc))
        assert not recheck_yardstick(desc, PropertyVerdict(FAILS, "cofinal-escape"))
        assert not recheck_yardstick(desc, PropertyVerdict(FAILS, "cofinal-escape", {"family": "x"}))
        assert not recheck_yardstick(desc, PropertyVerdict(HOLDS, "negative-cone"))

    def test_unsupported_membership_in_the_search(self, capsys):
        desc = DownClosure(IntImage(LessThan(V("[2]"))))
        verdict = has_yardstick(desc)
        assert (verdict.verdict, verdict.rule) == (UNKNOWN, "unsupported-membership")
        assert cli.main(["set", describe(desc), "yardstick"]) == 0
        assert json.loads(capsys.readouterr().out) == verdict.to_dict()


class TestExclusionSuite:
    def test_probe_suite_holds(self):
        descriptors = [
            ("psidown", PSI_DOWN),
            ("smallint", s_descriptor(example(SMALL_INT))),
            ("closure", DownClosure(IntImage(s_descriptor(example(SMALL_INT))))),
        ]
        report = exclusion_suite(descriptors, probes=120, seed=9)
        assert report.ok
        assert report.cases == 360

    def test_a_holds_whose_check_fails_is_a_named_failure(self, monkeypatch):
        # No scenario set has members, so each scenario Holds fails its check.
        monkeypatch.setattr(extend, "member", lambda sc, gamma: False)
        report = exclusion_suite(cli._exclusion_descriptors(), probes=5, seed=9)
        failed = {f["descriptor"]: f["rule"] for f in report.failures
                  if f["check"] == "yardstick-certificate"}
        assert failed == {"small-integrals": "step-closed-handle",
                          "big-integrals": "step-closed-handle",
                          "integrated-small": "integral-transport",
                          "closed-small": "downward-transport"}
