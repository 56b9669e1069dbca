"""The exact certificate checker behind ``recheck_jammed`` and
``recheck_yardstick``: every real verdict passes, forged and mutated
certificates are rejected, and no certificate path draws random numbers."""

import importlib.util
import json
import os
import random

import pytest

from aclab import acouple, cli, setprops
from aclab.acouple import classify_couple
from aclab.extend import BIG_INT, KINDS, SMALL_INT, ExtS
from aclab.ogroup import GroupElem, unit, vector_json
from aclab.setprops import (
    FAILS,
    HOLDS,
    PSI_DOWN,
    Affine,
    DownClosure,
    IntImage,
    LessThan,
    PropertyVerdict,
    has_derived_yardstick,
    has_yardstick,
    is_jammed,
    member,
    recheck_jammed,
    recheck_yardstick,
)

from test_golden import GOLDEN

REFERENCE_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "reference.py")

DECIDE = {
    "jammed": (is_jammed, recheck_jammed),
    "yardstick": (has_yardstick, recheck_yardstick),
    "derived-yardstick": (has_derived_yardstick, recheck_yardstick),
}

SMALL = ExtS(SMALL_INT)
# Sets whose jammedness verdict is Fails.
NOT_JAMMED = ["(exts smallint)", "(exts smallexpint)", "(int (exts smallint))",
              "(down (int (exts smallint)))", "(down (exts bigint))"]


def _load_reference():
    spec = importlib.util.spec_from_file_location("perfbench_reference", REFERENCE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _with(verdict: PropertyVerdict, **changes) -> PropertyVerdict:
    return PropertyVerdict(verdict.verdict, verdict.rule, {**verdict.witness, **changes})


class TestRealVerdictsPass:
    def test_every_decided_golden_verdict(self):
        with open(GOLDEN, encoding="utf-8") as fh:
            entries = json.load(fh)["cli"]
        checked = 0
        for entry in entries:
            argv = [a for a in entry["argv"] if a != "--"]
            if argv[0] != "set" or argv[2] not in DECIDE or entry["code"] != 0:
                continue
            payload = json.loads(entry["out"])
            if payload["verdict"] in (HOLDS, FAILS):
                # The printed certificate itself, not a recomputed one.
                printed = PropertyVerdict(payload["verdict"], payload["rule"], payload.get("witness"))
                assert DECIDE[argv[2]][1](cli.parse_descriptor(argv[1]), printed), argv
                checked += 1
        assert checked >= 50

    def test_random_set_queries(self):
        reference = _load_reference()
        rng = random.Random(20)
        decided = 0
        for _ in range(3000):
            text, query, expected = reference.random_set_query(rng)
            desc = cli.parse_descriptor(text)
            decide, check = DECIDE[query]
            verdict = decide(desc)
            assert verdict.verdict == expected
            assert check(desc, verdict), (text, query)
            decided += verdict.verdict in (HOLDS, FAILS)
        assert decided > 2000


class TestForgedHoldsAreRejected:
    @pytest.mark.parametrize("text", NOT_JAMMED)
    def test_jammed(self, text):
        desc = cli.parse_descriptor(text)
        real = is_jammed(desc)
        assert real.verdict == FAILS and recheck_jammed(desc, real)
        borrowed = is_jammed(LessThan(GroupElem.ZERO)).witness
        for rule in ("made-up", "principal-downset", "psi-downset", "affine-invariance",
                     "downclosure-invariance", real.rule):
            for witness in (None, real.witness, borrowed):
                assert not recheck_jammed(desc, PropertyVerdict(HOLDS, rule, witness)), rule

    @pytest.mark.parametrize("text", ["psidown", "(less [1])"])
    def test_yardstick(self, text):
        desc = cli.parse_descriptor(text)
        assert has_yardstick(desc).verdict == FAILS
        forged = PropertyVerdict(HOLDS, "step-closed-handle", {"base": [5], "scenario": SMALL_INT})
        assert not recheck_yardstick(desc, forged)

    def test_a_rule_of_the_other_property(self):
        desc = LessThan(GroupElem.ZERO)
        assert not recheck_jammed(desc, has_yardstick(desc))
        assert not recheck_yardstick(desc, is_jammed(desc))


class TestMutantsAreRejected:
    def test_wrong_base(self, monkeypatch):
        cone = LessThan(GroupElem.ZERO)
        principal = LessThan(unit(0))
        jammed = is_jammed(principal)
        bases = {**jammed.witness["sample_bases"], "2": vector_json(unit(0) - unit(1))}
        derived = has_derived_yardstick(ExtS(BIG_INT))
        capped = is_jammed(IntImage(SMALL))
        for desc, verdict in [
            (cone, _with(has_yardstick(cone), base=[1])),
            # [1, 1/2] is not in the set, but its step [1, 3/2] is.
            (SMALL, _with(has_yardstick(SMALL), base=[1, "1/2"])),
            (principal, _with(jammed, sample_bases=bases)),
            (ExtS(BIG_INT), _with(derived, base=[0, 100])),
            (IntImage(SMALL), _with(has_yardstick(IntImage(SMALL)), base=[0, 100])),
            (IntImage(SMALL), _with(capped, samples=[{"base": [5], "escape": [5, 1]}])),
        ]:
            check = recheck_yardstick if "base" in verdict.witness else recheck_jammed
            assert not check(desc, verdict), verdict
        # Members as bases, as stated, that trap nothing: b - e_0 is a member
        # of (less b), but members above it differ from it in coordinate 0.
        monkeypatch.setattr(setprops, "_cofinal_member", lambda d, i: d.bound - unit(0))
        assert not recheck_jammed(principal, is_jammed(principal))

    @pytest.mark.parametrize("change", [
        {"level": 1}, {"level": 3}, {"bump": [0, 0, 1]}, {"bump": [1]}, {"bump": [0, 2]},
        {"coord0_cap": "3"},
    ], ids=str)
    def test_wrong_bump_level_or_cap(self, change):
        desc = IntImage(SMALL)
        verdict = is_jammed(desc)
        assert verdict.rule == "coordinate-cap-escape" and recheck_jammed(desc, verdict)
        # The stated instances move with the bump: 2 e_1 escapes from each of
        # them too, but only e_1 is the bump the capped-set lemma gives.
        bump = GroupElem.from_list(change.get("bump", verdict.witness["bump"]))
        samples = [{"base": s["base"], "escape": vector_json(GroupElem.from_list(s["base"]) + bump)}
                   for s in verdict.witness["samples"]]
        assert not recheck_jammed(desc, _with(verdict, samples=samples, **change))

    @pytest.mark.parametrize("desc, verdict", [
        (DownClosure(SMALL), _with(has_yardstick(DownClosure(SMALL)), base=[2, 5])),
        (PSI_DOWN, _with(has_yardstick(PSI_DOWN), stepped=[1, 2])),
        (SMALL, _with(has_yardstick(SMALL), scenario=BIG_INT)),
        (SMALL, _with(has_derived_yardstick(SMALL), scenario=BIG_INT)),
        (IntImage(SMALL), _with(has_yardstick(IntImage(SMALL)),
                                inherited_from="step-closed-handle")),
    ], ids=["transport-base", "stepped", "handle-scenario", "step-scenario", "inherited-rule"])
    def test_stated_data_that_contradicts_the_certificate(self, desc, verdict):
        assert not recheck_yardstick(desc, verdict)

    def test_witness_that_does_not_escape(self):
        desc = LessThan(GroupElem.ZERO)
        # [-1] steps to [-1, 1], still in the negative cone.
        forged = PropertyVerdict(FAILS, "escape-monotone-downset",
                                 {"witness": [-1], "stepped": [-1, 1]})
        assert not recheck_yardstick(desc, forged)

    def test_family_bound_below_first_index_plus_two(self):
        # (less [1]) has first index 0; its witness [1, -1/2] = b - e_1/2
        # escapes exactly, but the family b - e_t/2 from t = 1 does not show
        # that every member escapes.
        desc = LessThan(unit(0))
        witness = unit(0) - unit(1).div(2)
        stepped = witness - acouple.chi(witness)
        assert member(desc, witness) and not member(desc, stepped)
        forged = _with(has_yardstick(desc), witness=vector_json(witness),
                       stepped=vector_json(stepped))
        assert not recheck_yardstick(desc, forged)

    @pytest.mark.parametrize("desc, verdict, check", [
        (DownClosure(PSI_DOWN), is_jammed(PSI_DOWN), recheck_jammed),
        (DownClosure(LessThan(unit(1))), is_jammed(LessThan(unit(1))), recheck_jammed),
        # The cap a set without one would state.
        (DownClosure(IntImage(SMALL)), _with(is_jammed(IntImage(SMALL)), coord0_cap="None"),
         recheck_jammed),
        (DownClosure(LessThan(GroupElem.ZERO)), has_yardstick(LessThan(GroupElem.ZERO)),
         recheck_yardstick),
        (DownClosure(SMALL), has_yardstick(SMALL), recheck_yardstick),
        (DownClosure(PSI_DOWN), has_yardstick(PSI_DOWN), recheck_yardstick),
        (IntImage(LessThan(GroupElem.ZERO)),
         PropertyVerdict(FAILS, "escape-monotone-downset",
                         has_yardstick(IntImage(LessThan(GroupElem.ZERO))).witness),
         recheck_yardstick),
    ], ids=["psi-downset", "principal-downset", "cap-escape", "negative-cone",
            "step-closed-handle", "cofinal-escape", "escape-monotone-downset"])
    def test_rule_on_the_wrong_descriptor_class(self, desc, verdict, check):
        assert not check(desc, verdict)

    @pytest.mark.parametrize("desc, verdict, check", [
        (DownClosure(PSI_DOWN), is_jammed(Affine(unit(1), 2, PSI_DOWN)), recheck_jammed),
        (Affine(GroupElem.ZERO, 1, PSI_DOWN), is_jammed(DownClosure(PSI_DOWN)), recheck_jammed),
        (Affine(GroupElem.ZERO, 1, SMALL), has_yardstick(DownClosure(SMALL)), recheck_yardstick),
        (DownClosure(SMALL), has_yardstick(IntImage(SMALL)), recheck_yardstick),
    ], ids=["affine-on-down", "down-on-affine", "downward-on-affine", "integral-on-down"])
    def test_transport_on_the_wrong_wrapper(self, desc, verdict, check):
        assert not check(desc, verdict)


def _no_draws(*args, **kwargs):
    raise AssertionError("a certificate path drew random numbers")


def test_certificate_paths_draw_no_random_numbers(monkeypatch):
    descriptors = [cli.parse_descriptor(text) for text in
                   ["psidown", "(less [1])", "(less [])", "(affine [0, 7] 3 psidown)"] + NOT_JAMMED]
    verdicts = [(d, is_jammed(d), has_yardstick(d)) for d in descriptors]
    for module in (setprops, acouple):
        monkeypatch.setattr(module.random, "Random", _no_draws)
    for desc, jammed, yardstick in verdicts:
        assert recheck_jammed(desc, jammed) and recheck_yardstick(desc, yardstick)
    for kind in KINDS:
        verdict = has_derived_yardstick(ExtS(kind))
        assert verdict.verdict == HOLDS and recheck_yardstick(ExtS(kind), verdict)
    for couple in ("trunc:7", "logfull", "loggap"):
        classify_couple(couple)


def test_set_refuses_a_certificate_that_fails_its_check(monkeypatch, capsys):
    monkeypatch.setattr(setprops, "is_jammed", lambda desc: PropertyVerdict(HOLDS, "made-up"))
    assert cli.main(["set", "(exts smallint)", "jammed"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "error": "made-up certificate failed on (exts smallint)"}
