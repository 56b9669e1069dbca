"""The exact certificate checker behind ``recheck_jammed`` and
``recheck_yardstick``: every real verdict passes, printed certificates read
back pass and print the same bytes, forged and mutated certificates are
rejected, each ``aclab set`` request checks once, and no verdict or
certificate path draws random numbers."""

import contextlib
import importlib.util
import io
import json
import os
import random

import pytest

from aclab import acouple, cli, extend, setprops
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
    UnsupportedDescriptor,
    describe,
    has_derived_yardstick,
    has_yardstick,
    is_jammed,
    member,
    recheck_jammed,
    recheck_yardstick,
)

from test_golden import GOLDEN, _descriptors, corpus

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


def from_dict(payload: dict) -> PropertyVerdict:
    """Read a printed certificate back into values: each list becomes a
    GroupElem, except that a list of dicts stays a list."""
    return PropertyVerdict(payload["verdict"], payload["rule"], _values(payload.get("witness")))


def _values(node):
    if isinstance(node, dict):
        return {key: _values(value) for key, value in node.items()}
    if isinstance(node, list):
        if any(isinstance(item, dict) for item in node):
            return [_values(item) for item in node]
        return GroupElem.from_list(node)
    return node


def _printed(verdict: PropertyVerdict) -> str:
    """The bytes ``aclab set`` prints for the verdict."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(verdict.to_dict(), False)
    return out.getvalue()


def _with(verdict: PropertyVerdict, **changes) -> PropertyVerdict:
    """The verdict as printed, with JSON fields of its witness replaced, read back."""
    payload = json.loads(_printed(verdict))
    return from_dict({**payload, "witness": {**payload["witness"], **changes}})


def _decided_golden() -> list[tuple[str, str, str]]:
    """(descriptor, query, printed bytes) of every decided golden verdict."""
    with open(GOLDEN, encoding="utf-8") as fh:
        entries = json.load(fh)["cli"]
    out = []
    for entry in entries:
        argv = [a for a in entry["argv"] if a != "--"]
        if argv[0] == "set" and argv[2] in DECIDE and entry["code"] == 0:
            if json.loads(entry["out"])["verdict"] in (HOLDS, FAILS):
                out.append((argv[1], argv[2], entry["out"]))
    return out


class TestRealVerdictsPass:
    def test_every_decided_golden_verdict(self):
        decided = _decided_golden()
        for text, query, printed in decided:
            # The printed certificate itself, read back, not a recomputed one.
            verdict = from_dict(json.loads(printed))
            assert DECIDE[query][1](cli.parse_descriptor(text), verdict), (text, query)
            assert _printed(verdict) == printed, (text, query)
        assert len(decided) >= 50

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
            printed = _printed(verdict)
            back = from_dict(json.loads(printed))
            assert check(desc, back), (text, query)
            assert _printed(back) == printed, (text, query)
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
        forged = from_dict({"verdict": HOLDS, "rule": "step-closed-handle",
                            "witness": {"base": [5], "scenario": SMALL_INT}})
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
        bases = {**json.loads(_printed(jammed))["witness"]["sample_bases"],
                 "2": vector_json(unit(0) - unit(1))}
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
        printed = json.loads(_printed(verdict))["witness"]
        bump = GroupElem.from_list(change.get("bump", printed["bump"]))
        samples = [{"base": s["base"], "escape": vector_json(GroupElem.from_list(s["base"]) + bump)}
                   for s in printed["samples"]]
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
        forged = from_dict({"verdict": FAILS, "rule": "escape-monotone-downset",
                            "witness": {"witness": [-1], "stepped": [-1, 1]}})
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


def _vector_paths(node, path=()):
    """(key path, vector) of each GroupElem in a witness."""
    if isinstance(node, GroupElem):
        yield path, node
    elif isinstance(node, (dict, list)):
        for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _vector_paths(value, path + (key,))


def _replaced(node, path, value):
    if not path:
        return value
    copy = dict(node) if isinstance(node, dict) else list(node)
    copy[path[0]] = _replaced(node[path[0]], path[1:], value)
    return copy


class TestVectorsThatAreNotValues:
    def test_a_json_base_fails_without_raising(self):
        real = has_derived_yardstick(ExtS(BIG_INT))
        forged = PropertyVerdict(HOLDS, "constructive-step", {**real.witness, "base": [0, 1]})
        assert not recheck_yardstick(ExtS(BIG_INT), forged)

    def test_a_sample_base_outside_the_family_fails(self):
        desc = cli.parse_descriptor("(less [1])")
        real = is_jammed(desc)
        for k in ("0", "4"):
            bases = {**real.witness["sample_bases"], k: None}
            forged = PropertyVerdict(HOLDS, real.rule, {**real.witness, "sample_bases": bases})
            assert not recheck_jammed(desc, forged), k

    def test_every_vector_field_of_every_golden_certificate(self):
        # A vector left as printed, or as any other type, is refused.
        for text, query, printed in _decided_golden():
            desc, verdict = cli.parse_descriptor(text), from_dict(json.loads(printed))
            check = DECIDE[query][1]
            paths = list(_vector_paths(verdict.witness))
            assert paths, text
            for path, g in paths:
                for bad in (vector_json(g), str(g), None, 0):
                    forged = PropertyVerdict(verdict.verdict, verdict.rule,
                                             _replaced(verdict.witness, path, bad))
                    assert not check(desc, forged), (text, query, path, bad)


class TestOneCheckPerRequest:
    @pytest.mark.parametrize("kind", KINDS)
    def test_derived_yardstick_steps_three_times(self, kind, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(setprops, "step_bound",
                            lambda g: calls.append(g) or extend.step_bound(g))
        assert cli.main(["set", f"(exts {kind})", "derived-yardstick"]) == 0
        assert len(calls) == 3

    @pytest.mark.parametrize("query", ["jammed", "yardstick"])
    def test_no_vector_is_read_back(self, query, monkeypatch, capsys):
        calls = []
        from_list = GroupElem.from_list.__func__
        monkeypatch.setattr(GroupElem, "from_list",
                            classmethod(lambda cls, dense: calls.append(1) or from_list(cls, dense)))
        for text in _descriptors():
            cli.parse_descriptor(text)
            parsing, calls[:] = len(calls), []
            cli.main(["set", text, query])
            # The request builds vectors from lists only to parse its descriptor.
            assert len(calls) == parsing, text
            calls[:] = []


def _no_draws(*args, **kwargs):
    raise AssertionError("a verdict or certificate path drew random numbers")


def _golden_set_descriptors() -> list:
    """Every ``set`` descriptor of the golden corpus that parses."""
    out = []
    for text in dict.fromkeys(argv[1] for argv in corpus() if argv[0] == "set"):
        with contextlib.suppress(cli.ExprSemanticError):
            out.append(cli.parse_descriptor(text))
    return out


def test_certificate_paths_draw_no_random_numbers(monkeypatch):
    descriptors = _golden_set_descriptors()
    for module in (setprops, acouple):
        monkeypatch.setattr(module.random, "Random", _no_draws)
    # The verdict functions and their checks both run with draws forbidden.
    for desc in descriptors:
        for decide, recheck in DECIDE.values():
            try:
                verdict = decide(desc)
            except UnsupportedDescriptor:
                continue
            assert recheck(desc, verdict), (describe(desc), verdict.rule)
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
