"""Symbolic convex-set descriptors over the exponent group, with exact
membership and decision procedures for jammedness and yardstick properties.

A descriptor denotes a subset of the group.  Membership is always exact;
the property queries return three-valued verdicts carrying either a rule
name plus a checkable certificate, or Unknown with a reason.  Verdicts
never guess: Holds and Fails are produced only where the structure of the
group makes the quantifiers finite (rule layer); an escape on a set not
certified downward closed gives Unknown.

A certificate is a value: its vectors are GroupElems, and only the CLI
writes it as JSON.  The verdict functions do not check what they return.
One exact checker, behind ``recheck_jammed`` and ``recheck_yardstick``,
decides Holds and Fails certificates without sampling.  It checks that
the rule applies to the descriptor's class, checks the stated data, and
follows transports to the innermost certificate.  It trusts these lemmas:

* psi-downset: a member of psidown that is >= ones(k) agrees with ones(k)
  below index k.
* affine- and downclosure-invariance: both maps keep jammedness and its
  failure.  downward-transport: downward closure keeps a yardstick base.
* integral-transport: integrate turns the derived step on S into the step
  on its image (the yardstick telescope).
* escape-monotone-downset: both step maps are strictly increasing, so on a
  downward-closed set one escape refutes every base: below the escape
  directly, above it because larger members step above the escape's step.
* negative-cone: the step keeps a negative leading coefficient.
* coordinate-cap-escape: a capped set holds gamma + e_1 with each gamma.
* step-closed-handle, constructive-step: each shipped scenario set is
  closed under the step, and under the derived step above v(s).

The nontrivial proper convex subgroups of the group are exactly the tails
Delta_k = {gamma : gamma_i = 0 for all i < k}, k >= 1, because archimedean
classes are indexed by the first nonzero coordinate.  Jammedness therefore
quantifies over these tails only.

Extension-scenario sets enter as ``ExtS(kind)``, defined in ``extend``
and keyed by the scenario kind alone: the set of the shipped scenario of
that kind.  Membership, the cofinal family, the derivative half and the
coordinate-0 caps are read from ``extend``; the derived step is
checked with ``extend.step_bound`` on the shipped scenario.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional, Union

from . import extend
from .acouple import Report, chi, der, first_non_one, integrate, sample_elem
from .extend import ExtS, step_bound
from .ogroup import GroupElem, ones, unit
from .record import Record

HOLDS = "holds"
FAILS = "fails"
UNKNOWN = "unknown"


class UnsupportedDescriptor(Exception):
    """Raised instead of ever returning a wrong answer."""


class LessThan(Record):
    bound: GroupElem


class LessEq(Record):
    bound: GroupElem


class PsiDown(Record):
    """The downward closure of the psi image, equal to (Gamma^<)'."""


PSI_DOWN = PsiDown()


class Affine(Record):
    alpha: GroupElem
    n: int
    inner: "SetDescriptor"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("affine scale must be a positive integer")


class DownClosure(Record):
    inner: "SetDescriptor"


class IntImage(Record):
    inner: "SetDescriptor"


SetDescriptor = Union[LessThan, LessEq, PsiDown, Affine, DownClosure, IntImage, ExtS]


class PropertyVerdict(Record):
    verdict: str
    rule: str
    witness: Optional[dict] = None

    def to_dict(self) -> dict:
        out = {"verdict": self.verdict, "rule": self.rule}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def describe(desc: SetDescriptor) -> str:
    if isinstance(desc, LessThan):
        return f"(less {desc.bound})"
    if isinstance(desc, LessEq):
        return f"(leq {desc.bound})"
    if isinstance(desc, PsiDown):
        return "psidown"
    if isinstance(desc, Affine):
        return f"(affine {desc.alpha} {desc.n} {describe(desc.inner)})"
    if isinstance(desc, DownClosure):
        return f"(down {describe(desc.inner)})"
    if isinstance(desc, IntImage):
        return f"(int {describe(desc.inner)})"
    if isinstance(desc, ExtS):
        return f"(exts {desc.kind})"
    raise UnsupportedDescriptor(f"unknown descriptor {desc!r}")


def _psidown_member(gamma: GroupElem) -> bool:
    """First index whose coordinate differs from 1 carries a value < 1."""
    return gamma.coeff(first_non_one(gamma)) < 1


def member(desc: SetDescriptor, gamma: GroupElem) -> bool:
    """Exact membership; raises UnsupportedDescriptor on combinations
    whose reduction is not certified rather than guessing."""
    if isinstance(desc, LessThan):
        return gamma < desc.bound
    if isinstance(desc, LessEq):
        return gamma <= desc.bound
    if isinstance(desc, PsiDown):
        return _psidown_member(gamma)
    if isinstance(desc, Affine):
        return member(desc.inner, (gamma - desc.alpha).div(desc.n))
    if isinstance(desc, ExtS):
        return extend.member(desc.scenario, gamma)
    if isinstance(desc, IntImage):
        _require_half(desc.inner)
        if gamma.is_zero():
            # The integral map never produces zero.
            return False
        return member(desc.inner, der(gamma))
    if isinstance(desc, DownClosure):
        return _down_member(desc.inner, gamma)
    raise UnsupportedDescriptor(f"unknown descriptor {desc!r}")


def _down_member(inner: SetDescriptor, gamma: GroupElem) -> bool:
    if is_downward_closed(inner):
        return member(inner, gamma)
    if isinstance(inner, Affine):
        return _down_member(inner.inner, (gamma - inner.alpha).div(inner.n))
    cap = _coord0_capped(inner)
    if cap is not None:
        return gamma.coeff(0) <= cap
    if isinstance(inner, IntImage):
        deep = inner.inner
        half = _require_half(deep)
        if is_downward_closed(deep):
            # For downward-closed D in a single half, the strictly
            # increasing bijection gamma -> der(gamma) turns "below some
            # integral" into plain image membership away from zero.
            if gamma.is_zero():
                return half > 0
            return member(deep, der(gamma))
    raise UnsupportedDescriptor(
        f"downward closure of {describe(inner)} has no certified reduction")


def is_downward_closed(desc: SetDescriptor) -> bool:
    """Structurally certified downward closure (False means unknown)."""
    if isinstance(desc, (LessThan, LessEq, PsiDown, DownClosure)):
        return True
    if isinstance(desc, Affine):
        return is_downward_closed(desc.inner)
    return False


def subset_half(desc: SetDescriptor) -> Optional[int]:
    """+1 when the set is certified inside {integrate > 0}, -1 inside
    {integrate < 0}, None when neither is certified."""
    if isinstance(desc, (LessThan, LessEq)):
        return -1 if _psidown_member(desc.bound) else None
    if isinstance(desc, PsiDown):
        return -1
    if isinstance(desc, ExtS):
        return desc.subset_sign
    if isinstance(desc, DownClosure):
        inner = subset_half(desc.inner)
        # {integrate < 0} is downward closed, so closure stays inside it;
        # the positive half is not downward closed.
        return -1 if inner == -1 else None
    return None


def _require_half(desc: SetDescriptor, query: str = "integral image over") -> int:
    half = subset_half(desc)
    if half is None:
        raise UnsupportedDescriptor(
            f"{query} {describe(desc)}: the operand is not "
            "certified inside either derivative half")
    return half


# ---------------------------------------------------------------------------
# The cofinal family.

def _cofinal_member(desc: SetDescriptor, i: int) -> GroupElem:
    """The i-th member of a family cofinal in the set, strictly increasing
    in i unless the set has a greatest element; the yardstick search walks
    it, and rules name its first members as bases."""
    if isinstance(desc, LessThan):
        return desc.bound - unit(i + 1).div(2)
    if isinstance(desc, LessEq):
        return desc.bound
    if isinstance(desc, PsiDown):
        return ones(i + 1)
    if isinstance(desc, Affine):
        return desc.alpha + _cofinal_member(desc.inner, i).scale(desc.n)
    if isinstance(desc, DownClosure):
        return _cofinal_member(desc.inner, i)
    if isinstance(desc, IntImage):
        return integrate(_cofinal_member(desc.inner, i))
    if isinstance(desc, ExtS):
        return desc.cofinal(i)
    raise UnsupportedDescriptor(f"unknown descriptor {desc!r}")


# ---------------------------------------------------------------------------
# Jammedness.

def _has_greatest(desc: SetDescriptor) -> bool:
    # Affine maps, the integral map (a strictly increasing bijection onto the
    # nonzero vectors) and downward closure keep a maximum or its lack.
    while isinstance(desc, (Affine, DownClosure, IntImage)):
        desc = desc.inner
    return isinstance(desc, LessEq)


def _greatest_element(detail: str = "") -> PropertyVerdict:
    return PropertyVerdict(UNKNOWN, "greatest-element",
                           {"reason": "the set has a greatest element" + detail})


def _coord0_capped(desc: SetDescriptor) -> Optional[Fraction]:
    """When the set provably satisfies: gamma in S implies gamma + e_1 in S
    (membership depends on coordinate 0 only through a cap, and bumping
    coordinate 1 never leaves the set), return the cap; else None.  The
    downward closure of such a set is {gamma : gamma_0 <= cap}."""
    if isinstance(desc, ExtS):
        return desc.coord0_cap
    if isinstance(desc, IntImage) and isinstance(desc.inner, ExtS):
        return desc.inner.int_coord0_cap
    return None


def is_jammed(desc: SetDescriptor) -> PropertyVerdict:
    """Whether, for every tail subgroup Delta_k, some member gamma_0 traps
    all members above it inside gamma_0 + Delta_k."""
    if _has_greatest(desc):
        return _greatest_element("; jammedness is defined for sets without one")
    if isinstance(desc, (LessThan, PsiDown)):
        rule, family = (("principal-downset", "bound - e_k/2") if isinstance(desc, LessThan)
                        else ("psi-downset", "ones(k)"))
        bases = {str(k): _cofinal_member(desc, k - 1) for k in (1, 2, 3)}
        return PropertyVerdict(HOLDS, rule, {"base_family": family, "sample_bases": bases})
    if isinstance(desc, Affine):
        return _transport_verdict(is_jammed(desc.inner), "affine-invariance")
    if isinstance(desc, DownClosure):
        return _transport_verdict(is_jammed(desc.inner), "downclosure-invariance")

    cap = _coord0_capped(desc)
    if cap is not None:
        # Every member admits the escape gamma + e_1 at tail index 2, so no
        # base can trap; the checker verifies the recorded instances.
        samples = [{"base": b, "escape": b + unit(1)}
                   for b in (_cofinal_member(desc, i) for i in (0, 1, 2))]
        return PropertyVerdict(FAILS, "coordinate-cap-escape",
                               {"level": 2, "bump": unit(1), "coord0_cap": str(cap),
                                "samples": samples})

    # Only integral images reach this point.
    try:
        _require_half(desc.inner)
    except UnsupportedDescriptor as exc:
        return PropertyVerdict(UNKNOWN, "unsupported-membership", {"reason": str(exc)})
    return PropertyVerdict(UNKNOWN, "no-structural-rule",
                           {"reason": f"no structural rule decides jammedness of {describe(desc)}"})


def _transport_verdict(inner: PropertyVerdict, rule: str) -> PropertyVerdict:
    """The inner verdict under ``rule``, keeping the base its certificate names."""
    witness = {"inherited_from": inner.rule}
    base = (inner.witness or {}).get("base")
    if base is not None:
        witness["base"] = base
    if inner.witness:
        witness["inner_witness"] = inner.witness
    return PropertyVerdict(inner.verdict, rule, witness)


# ---------------------------------------------------------------------------
# Yardstick properties.

def _step(gamma: GroupElem) -> GroupElem:
    return gamma - chi(gamma)


def has_yardstick(desc: SetDescriptor) -> PropertyVerdict:
    """Whether some base beta in S lets every member above it step to
    gamma - chi(gamma) inside S."""
    if _has_greatest(desc):
        return _greatest_element("; the yardstick property is defined for sets without one")
    if isinstance(desc, LessThan):
        if desc.bound.is_zero():
            return PropertyVerdict(HOLDS, "negative-cone",
                                   {"base": -unit(0),
                                    "certificate": "the step keeps the leading index and "
                                                   "its negative coefficient"})
        return PropertyVerdict(FAILS, "cofinal-escape", _less_than_escape(desc.bound))
    if isinstance(desc, PsiDown):
        w = ones(2) - unit(2).div(2)
        return PropertyVerdict(FAILS, "cofinal-escape",
                               {"witness": w, "stepped": _step(w),
                                "family": "ones(n) - e_n/2 for n >= 2 is cofinal and "
                                          "steps to coordinate 2 at index 1"})
    if isinstance(desc, IntImage):
        try:
            # The set asked about is the integral image, so an operand outside
            # both halves is reported as such, not as a derived-yardstick query.
            _require_half(desc.inner)
            inner = has_derived_yardstick(desc.inner)
        except UnsupportedDescriptor as exc:
            return PropertyVerdict(UNKNOWN, "unsupported-membership", {"reason": str(exc)})
        if inner.verdict == HOLDS:
            # Only a scenario set holds (constructive-step), from the base v(s).
            base = integrate(desc.inner.scenario.s_valuation())
            return PropertyVerdict(HOLDS, "integral-transport",
                                   {"inherited_from": inner.rule, "base": base})
        return _yardstick_search(desc)
    if isinstance(desc, DownClosure):
        inner = has_yardstick(desc.inner)
        if inner.verdict == HOLDS:
            return _transport_verdict(inner, "downward-transport")
        return _yardstick_search(desc)
    if isinstance(desc, ExtS):
        return PropertyVerdict(HOLDS, "step-closed-handle",
                               {"base": desc.cofinal(0), "scenario": desc.kind})
    return _yardstick_search(desc)


def _less_than_escape(bound: GroupElem) -> dict:
    t = max(bound.first_index() + 2, 5)
    w = bound - unit(t).div(2)
    return {"witness": w, "stepped": _step(w),
            "family": f"bound - e_t/2 for t >= {t} is cofinal and steps above the bound"}


def _yardstick_search(desc: SetDescriptor, step=_step, rule_prefix: str = "") -> PropertyVerdict:
    """Walk the first 200 members of the cofinal family for one whose step
    leaves the set.  An escape decides Fails on a downward-closed set only
    (escape-monotone-downset in the module docstring); elsewhere it refutes
    only the bases below it, so it gives Unknown, as does a membership test
    the set does not support.
    """
    try:
        for i in range(200):
            g = _cofinal_member(desc, i)
            stepped = step(g)
            if not member(desc, stepped):
                payload = {"witness": g, "stepped": stepped, "frontier": i + 1}
                if is_downward_closed(desc):
                    return PropertyVerdict(FAILS, rule_prefix + "escape-monotone-downset", payload)
                return PropertyVerdict(UNKNOWN, rule_prefix + "escape-not-downset", payload)
    except UnsupportedDescriptor as exc:
        return PropertyVerdict(UNKNOWN, rule_prefix + "unsupported-membership",
                               {"reason": str(exc)})
    return PropertyVerdict(UNKNOWN, rule_prefix + "search-no-escape", {"frontier": 200})


def has_derived_yardstick(desc: SetDescriptor) -> PropertyVerdict:
    """Whether some base beta in S lets every member above it step to
    gamma - integrate(successor(gamma)) inside S.  The operand must be
    certified inside one derivative half."""
    _require_half(desc, "derived yardstick of")
    if _has_greatest(desc):
        return _greatest_element()
    if isinstance(desc, ExtS):
        return PropertyVerdict(HOLDS, "constructive-step",
                               {"base": desc.scenario.s_valuation(), "scenario": desc.kind,
                                "certificate": "each step re-verified exactly by the "
                                               "extension machinery"})
    return _yardstick_search(desc, step=step_bound, rule_prefix="derived-")


# ---------------------------------------------------------------------------
# Suprema in the divisible hull (the group is its own divisible hull).

def sup_in_divhull(desc: SetDescriptor) -> Optional[GroupElem]:
    """The supremum when it exists, None when provably absent; raises on
    descriptors whose cut is not decided here."""
    def sup(d: SetDescriptor) -> Optional[GroupElem]:
        if isinstance(d, (LessThan, LessEq)):
            return d.bound
        if isinstance(d, PsiDown):
            return None
        if isinstance(d, Affine):
            inner = sup(d.inner)
            return None if inner is None else d.alpha + inner.scale(d.n)
        if isinstance(d, DownClosure):
            return sup(d.inner)
        # Name the descriptor asked about, not the inner one with no decided cut.
        raise UnsupportedDescriptor(f"supremum of {describe(desc)} is not decided")

    return sup(desc)


# ---------------------------------------------------------------------------
# The certificate checker; the lemmas it trusts are in the module docstring.

_TRANSPORTS = {"affine-invariance": Affine, "downclosure-invariance": DownClosure,
               "downward-transport": DownClosure}
# Rule -> the verdicts it certifies, for each property.
_JAMMED_RULES = {"principal-downset": {HOLDS}, "psi-downset": {HOLDS},
                 "coordinate-cap-escape": {FAILS}, "affine-invariance": {HOLDS, FAILS},
                 "downclosure-invariance": {HOLDS, FAILS}}
_YARDSTICK_RULES = {"negative-cone": {HOLDS}, "step-closed-handle": {HOLDS},
                    "constructive-step": {HOLDS}, "integral-transport": {HOLDS},
                    "downward-transport": {HOLDS}, "cofinal-escape": {FAILS},
                    "escape-monotone-downset": {FAILS},
                    "derived-escape-monotone-downset": {FAILS}}


def _escapes(desc: SetDescriptor, w: dict, step) -> bool:
    """The stated witness is a member whose stated step leaves the set."""
    g = w["witness"]
    return member(desc, g) and not member(desc, step(g)) and w["stepped"] == step(g)


def _constructive_step(desc: SetDescriptor, base: GroupElem) -> bool:
    """The base is a member at or above v(s), and the derived step from each
    of cofinal(1..3), members above it, lands in the set above the start."""
    if not isinstance(desc, ExtS):
        return False
    steps = [(g, step_bound(g)) for g in map(desc.cofinal, (1, 2, 3))]
    return (member(desc, base) and base >= desc.scenario.s_valuation()
            and all(base < g < s and member(desc, g) and member(desc, s) for g, s in steps))


def _certified(desc: SetDescriptor, verdict: PropertyVerdict, rules: dict) -> bool:
    """Whether a Holds or Fails certificate, under a rule of ``rules``,
    proves its claim about desc; missing or mistyped data, such as a
    vector that is a JSON list and not a GroupElem, fails."""
    if verdict.verdict not in (HOLDS, FAILS):
        return True
    w, rule = verdict.witness or {}, verdict.rule
    try:
        if verdict.verdict not in rules.get(rule, ()):
            return False
        if rule in _TRANSPORTS:
            inner = PropertyVerdict(verdict.verdict, w["inherited_from"], w.get("inner_witness"))
            return (isinstance(desc, _TRANSPORTS[rule])
                    and w.get("base") == (inner.witness or {}).get("base")
                    and _certified(desc.inner, inner, rules))
        if rule in ("principal-downset", "psi-downset"):
            # The stated bases are the family's; on (less b), b minus each lies in Delta_k.
            sup = sup_in_divhull(desc)
            bases = {k: _cofinal_member(desc, k - 1) for k in (1, 2, 3)}
            return (isinstance(desc, LessThan if rule == "principal-downset" else PsiDown)
                    and all(w["sample_bases"][k] == bases[int(k)]
                            for k in w["sample_bases"])
                    and all(member(desc, b) and (sup is None or (sup - b).first_index() >= k)
                            for k, b in bases.items()))
        if rule == "coordinate-cap-escape":
            cap, bump = _coord0_capped(desc), w["bump"]
            pairs = [(s["base"], s["escape"]) for s in w["samples"]]
            return (cap is not None and w["coord0_cap"] == str(cap) and bump == unit(1)
                    and w["level"] == 2
                    and all(member(desc, b) and member(desc, e) and e == b + bump for b, e in pairs))
        if rule == "cofinal-escape":
            # The witness is top - e_t/2, top being b on (less b) or ones(t)
            # on psidown; each later member of the family steps by e_(m+1),
            # m = first_index(top), out of the set when t >= m + 2.
            g = w["witness"]
            top = desc.bound if isinstance(desc, LessThan) else ones(first_non_one(g))
            t = (top - g).first_index()
            return (isinstance(desc, (LessThan, PsiDown)) and top - g == unit(t).div(2)
                    and t >= top.first_index() + 2 and _escapes(desc, w, _step))
        if rule.endswith("escape-monotone-downset"):
            step = _step if rule == "escape-monotone-downset" else step_bound
            return is_downward_closed(desc) and _escapes(desc, w, step)
        base = w["base"]
        if rule == "negative-cone":
            return isinstance(desc, LessThan) and desc.bound.is_zero() and member(desc, base)
        if rule == "step-closed-handle":
            return isinstance(desc, ExtS) and w["scenario"] == desc.kind and member(desc, base)
        if rule == "integral-transport":
            return (isinstance(desc, IntImage) and w["inherited_from"] == "constructive-step"
                    and _constructive_step(desc.inner, der(base)))
        return _constructive_step(desc, base) and w["scenario"] == desc.kind
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError,
            UnsupportedDescriptor):
        return False


def recheck_jammed(desc: SetDescriptor, verdict: PropertyVerdict) -> bool:
    """Check a jammedness verdict's certificate exactly."""
    return _certified(desc, verdict, _JAMMED_RULES)


def recheck_yardstick(desc: SetDescriptor, verdict: PropertyVerdict) -> bool:
    """Check a yardstick or derived-yardstick verdict's certificate exactly;
    its rule names the step map."""
    return _certified(desc, verdict, _YARDSTICK_RULES)


# ---------------------------------------------------------------------------
# Suites.

def jammedness_suite(seed: int, beta_count: int = 20, invariance_count: int = 50,
                     fails_descriptor: Optional[SetDescriptor] = None) -> Report:
    """Rule-layer verdicts plus invariance under affine maps and downward
    closure, plus the shipped not-jammed example with a verified witness."""
    rng = random.Random(seed)
    cases = 1 + beta_count + invariance_count + (1 if fails_descriptor is not None else 0)
    report = Report("jammedness", seed, cases, "check")
    v = is_jammed(PSI_DOWN)
    if v.verdict != HOLDS or not recheck_jammed(PSI_DOWN, v):
        report.fail("psidown-holds", 0, verdict=v.verdict)

    for case in report.each(beta_count):
        beta = sample_elem(rng, max_index=8, max_support=4, allow_zero=True)
        d = LessThan(beta)
        vb = is_jammed(d)
        if vb.verdict != HOLDS or not recheck_jammed(d, vb):
            report.fail("lessthan-holds", case, beta=beta, verdict=vb.verdict)

    base_pool: list[SetDescriptor] = [
        PSI_DOWN,
        LessThan(GroupElem.ZERO),
        LessThan(unit(0)),
        LessThan(-unit(1).scale(Fraction(3, 2))),
    ]
    if fails_descriptor is not None:
        base_pool.append(fails_descriptor)
    for case in report.each(invariance_count):
        d = rng.choice(base_pool)
        alpha = sample_elem(rng, max_index=6, max_support=3, allow_zero=True)
        n = rng.randint(1, 5)
        before = is_jammed(d).verdict
        if is_jammed(Affine(alpha, n, d)).verdict != before:
            report.fail("affine-invariance", case, descriptor=describe(d), alpha=alpha, n=n)
        if is_jammed(DownClosure(d)).verdict != before:
            report.fail("downclosure-invariance", case, descriptor=describe(d))

    if fails_descriptor is not None:
        vf = is_jammed(fails_descriptor)
        if vf.verdict != FAILS:
            report.fail("shipped-fails", 0, descriptor=describe(fails_descriptor), verdict=vf.verdict)
        elif not recheck_jammed(fails_descriptor, vf):
            report.fail("shipped-fails-witness", 0, descriptor=describe(fails_descriptor))
    return report


def exclusion_suite(descriptors: list[tuple[str, SetDescriptor]], probes: int, seed: int) -> Report:
    """Yardstick/jammed exclusion on checked yardstick Holds: both Holds
    forces the downward closure to agree with the negative cone on probes;
    any Holds-yardstick set that differs from it must not be jammed."""
    rng = random.Random(seed)
    report = Report("yardstick-jammed-exclusion", seed, probes * max(1, len(descriptors)), "check")
    fails_seen = 0

    for name, desc in descriptors:
        y = has_yardstick(desc)
        if y.verdict != HOLDS:
            continue
        if not recheck_yardstick(desc, y):
            report.fail("yardstick-certificate", descriptor=name, rule=y.rule)
            continue
        j = is_jammed(desc)
        down = desc if isinstance(desc, DownClosure) else DownClosure(desc)
        differs = None
        for _ in report.each(probes):
            g = sample_elem(rng, max_index=8, max_support=4, allow_zero=True)
            if member(down, g) != (g.sign() < 0):
                differs = g
                if j.verdict != HOLDS:
                    break
        if j.verdict == HOLDS and differs is not None:
            # One probe violating the negative-cone agreement refutes both
            # clauses of the exclusion at once.
            report.fail("holds-holds-must-be-negative-cone", descriptor=name, probe=differs)
        if differs is not None and j.verdict == FAILS:
            fails_seen += 1
    if fails_seen == 0:
        report.fail("at-least-one-fails", got="none")
    return report
