"""Symbolic convex-set descriptors over the exponent group, with exact
membership and decision procedures for jammedness and yardstick properties.

A descriptor denotes a subset of the group.  Membership is always exact;
the property queries return three-valued verdicts carrying either a rule
name plus a checkable certificate, or Unknown with a reason.  Verdicts
never guess: Holds and Fails are produced only where the structure of the
group makes the quantifiers finite (rule layer), and sampled escapes that
no such rule backs give Unknown.

The nontrivial proper convex subgroups of the group are exactly the tails
Delta_k = {gamma : gamma_i = 0 for all i < k}, k >= 1, because archimedean
classes are indexed by the first nonzero coordinate.  Jammedness therefore
quantifies over these tails only, up to K_MAX.

Extension-scenario sets enter as ``ExtS(kind)``, defined in ``extend``
and keyed by the scenario kind alone: the set of the shipped scenario of
that kind.  Membership, sampling, the cofinal family, the derivative half
and the coordinate-0 caps are read from ``extend``; the derived step is
checked with ``extend.step_bound`` on the shipped scenario.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional, Union

from . import extend
from .acouple import Report, chi, der, first_non_one, integrate, sample_elem, sample_nonzero
from .extend import ExtS, step_bound
from .ogroup import GroupElem, ones, unit, vector_json
from .record import Record

K_MAX = 32

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
# Sampling members.

_TAIL_POOL = [Fraction(q) for q in (-3, -2, -1, 1, 2, 3, "1/2", "-1/2", "5/2")]

_SUB_ONE_POOL = [Fraction(0), Fraction(-1), Fraction(1, 2), Fraction(-3, 2), Fraction(3, 4)]


def _sample_positive(rng: random.Random) -> GroupElem:
    g = sample_nonzero(rng, max_index=8)
    return g if g.sign() > 0 else -g


def _sample_psidown(rng: random.Random) -> GroupElem:
    k = rng.randint(0, 5)
    head = rng.choice(_SUB_ONE_POOL)
    items = [(i, Fraction(1)) for i in range(k)]
    if head:
        items.append((k, head))
    for j in range(rng.randint(0, 2)):
        items.append((k + 1 + rng.randint(0, 3) + j, rng.choice(_TAIL_POOL)))
    return GroupElem(items)


def sample_member(desc: SetDescriptor, rng: random.Random) -> GroupElem:
    """A random member; used for search frontiers and probe suites."""
    if isinstance(desc, LessThan):
        return desc.bound - _sample_positive(rng)
    if isinstance(desc, LessEq):
        return desc.bound - (_sample_positive(rng) if rng.random() < 0.8 else GroupElem.ZERO)
    if isinstance(desc, PsiDown):
        return _sample_psidown(rng)
    if isinstance(desc, Affine):
        return desc.alpha + sample_member(desc.inner, rng).scale(desc.n)
    if isinstance(desc, DownClosure):
        base = sample_member(desc.inner, rng)
        return base - (_sample_positive(rng) if rng.random() < 0.5 else GroupElem.ZERO)
    if isinstance(desc, IntImage):
        return integrate(sample_member(desc.inner, rng))
    if isinstance(desc, ExtS):
        return desc.sample(rng)
    raise UnsupportedDescriptor(f"unknown descriptor {desc!r}")


def _cofinal_member(desc: SetDescriptor, i: int) -> Optional[GroupElem]:
    """The i-th element of a strictly increasing member family, when one
    is structurally available; used to anchor search frontiers."""
    if isinstance(desc, LessThan):
        return desc.bound - unit(i + 1).div(2)
    if isinstance(desc, LessEq):
        return desc.bound
    if isinstance(desc, PsiDown):
        return ones(i + 1)
    if isinstance(desc, Affine):
        inner = _cofinal_member(desc.inner, i)
        return None if inner is None else desc.alpha + inner.scale(desc.n)
    if isinstance(desc, DownClosure):
        return _cofinal_member(desc.inner, i)
    if isinstance(desc, IntImage):
        inner = _cofinal_member(desc.inner, i)
        return None if inner is None else integrate(inner)
    if isinstance(desc, ExtS):
        return desc.cofinal(i)
    return None


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


def _jam_escape_ok(desc: SetDescriptor, base: GroupElem, bump: GroupElem, k: int) -> bool:
    other = base + bump
    return (
        member(desc, base)
        and member(desc, other)
        and other >= base
        and not _in_tail(other - base, k)
    )


def _in_tail(gamma: GroupElem, k: int) -> bool:
    return gamma.is_zero() or gamma.first_index() >= k


def is_jammed(desc: SetDescriptor) -> PropertyVerdict:
    """Whether, for every tail subgroup Delta_k, some member gamma_0 traps
    all members above it inside gamma_0 + Delta_k."""
    if _has_greatest(desc):
        return _greatest_element("; jammedness is defined for sets without one")
    if isinstance(desc, (LessThan, PsiDown)):
        rule, family = (("principal-downset", "bound - e_k/2") if isinstance(desc, LessThan)
                        else ("psi-downset", "ones(k)"))
        bases = {str(k): vector_json(_cofinal_member(desc, k - 1)) for k in (1, 2, 3)}
        return PropertyVerdict(HOLDS, rule, {"base_family": family, "sample_bases": bases})
    if isinstance(desc, Affine):
        return _transport_verdict(is_jammed(desc.inner), "affine-invariance")
    if isinstance(desc, DownClosure):
        return _transport_verdict(is_jammed(desc.inner), "downclosure-invariance")

    cap = _coord0_capped(desc)
    if cap is not None:
        # Every member admits the escape gamma + e_1 at tail index 2, so no
        # base can trap; spot instances are recorded for re-verification.
        samples = []
        for i in (0, 1, 2):
            base = _cofinal_member(desc, i)
            if base is not None and _jam_escape_ok(desc, base, unit(1), 2):
                samples.append({"base": vector_json(base), "escape": vector_json(base + unit(1))})
        return PropertyVerdict(FAILS, "coordinate-cap-escape",
                               {"level": 2, "bump": vector_json(unit(1)),
                                "coord0_cap": str(cap), "samples": samples})

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


def recheck_jammed(desc: SetDescriptor, verdict: PropertyVerdict) -> bool:
    """Re-verify a jammedness verdict's certificate by sampling: for Holds,
    the stated bases trap sampled members; for Fails, the stated bump
    escapes from sampled members of the set the certificate was made for."""
    rng = random.Random(5)
    if verdict.verdict == HOLDS:
        for k in (1, 2, 3, K_MAX):
            base = _cofinal_member(desc, k - 1)
            if base is None or not member(desc, base):
                return False
            for _ in range(60):
                g = sample_member(desc, rng)
                if g >= base and not _in_tail(g - base, k):
                    return False
        return True
    if verdict.verdict == FAILS:
        w = verdict.witness or {}
        if verdict.rule in ("affine-invariance", "downclosure-invariance"):
            inner = PropertyVerdict(FAILS, w.get("inherited_from", ""), w.get("inner_witness"))
            return isinstance(desc, (Affine, DownClosure)) and recheck_jammed(desc.inner, inner)
        if "bump" not in w or "level" not in w:
            return False
        bump = GroupElem.from_list(w["bump"])
        return all(_jam_escape_ok(desc, sample_member(desc, rng), bump, int(w["level"]))
                   for _ in range(60))
    return True


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
                                   {"base": vector_json(-unit(0)),
                                    "certificate": "the step keeps the leading index and "
                                                   "its negative coefficient"})
        return PropertyVerdict(FAILS, "cofinal-escape", _less_than_escape(desc.bound))
    if isinstance(desc, PsiDown):
        w = ones(2) - unit(2).div(2)
        return PropertyVerdict(FAILS, "cofinal-escape",
                               {"witness": vector_json(w),
                                "stepped": vector_json(_step(w)),
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
            base = vector_json(integrate(desc.inner.scenario.s_valuation()))
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
                               {"base": vector_json(desc.cofinal(0)), "scenario": desc.kind})
    return _yardstick_search(desc)


def _less_than_escape(bound: GroupElem) -> dict:
    t = max(bound.first_index() + 2, 5)
    w = bound - unit(t).div(2)
    return {"witness": vector_json(w), "stepped": vector_json(_step(w)),
            "family": f"bound - e_t/2 for t >= {t} is cofinal and steps above the bound"}


def _yardstick_search(desc: SetDescriptor, step=_step, rule_prefix: str = "") -> PropertyVerdict:
    """Search for members whose step leaves the set.

    Both step maps are strictly increasing, so on a downward-closed set a
    single verified escape refutes every base: below the escape directly,
    and above it because steps of larger members dominate an element
    already outside a downward-closed set.  Elsewhere escapes only refute
    bases below them, so they give Unknown, as does a membership test the
    set does not support.
    """
    rng = random.Random(2031)
    escapes: list[GroupElem] = []
    tried = 0
    try:
        for i in range(200):
            g = _cofinal_member(desc, i) if i < 8 else None
            if g is None:
                g = sample_member(desc, rng)
            if not member(desc, g):
                continue
            tried += 1
            if not member(desc, step(g)):
                escapes.append(g)
    except UnsupportedDescriptor as exc:
        return PropertyVerdict(UNKNOWN, rule_prefix + "unsupported-membership",
                               {"reason": str(exc)})
    if escapes:
        top = max(escapes)
        payload = {"witness": vector_json(top), "stepped": vector_json(step(top)),
                   "escape_count": len(escapes), "frontier": tried}
        if is_downward_closed(desc):
            return PropertyVerdict(FAILS, rule_prefix + "escape-monotone-downset", payload)
        return PropertyVerdict(UNKNOWN, rule_prefix + "sampled-escape", payload)
    return PropertyVerdict(UNKNOWN, rule_prefix + "search-no-escape", {"frontier": tried})


def has_derived_yardstick(desc: SetDescriptor) -> PropertyVerdict:
    """Whether some base beta in S lets every member above it step to
    gamma - integrate(successor(gamma)) inside S.  The operand must be
    certified inside one derivative half."""
    _require_half(desc, "derived yardstick of")
    if _has_greatest(desc):
        return _greatest_element()
    if isinstance(desc, ExtS):
        base = desc.scenario.s_valuation()
        rng = random.Random(17)
        # The cofinal members lie above the base for every kind; the seeded
        # samples rarely do for the small kinds.
        for g in [desc.cofinal(i) for i in (1, 2, 3)] + [desc.sample(rng) for _ in range(25)]:
            if not g > base:
                continue
            stepped = step_bound(g)
            if not (stepped > g and extend.member(desc.scenario, stepped)):
                # The shipped sets are closed under the step, so this is a
                # broken certificate, not a sampled Fails.
                raise ArithmeticError(
                    f"constructive-step certificate failed: the step from {g} "
                    f"leaves (exts {desc.kind})")
        return PropertyVerdict(HOLDS, "constructive-step",
                               {"base": vector_json(base), "scenario": desc.kind,
                                "certificate": "each step re-verified exactly by the "
                                               "extension machinery"})
    return _yardstick_search(desc, step=step_bound, rule_prefix="derived-")


def recheck_yardstick(desc: SetDescriptor, verdict: PropertyVerdict,
                      probes: int = 120, derived: bool = False) -> bool:
    """Re-verify a yardstick verdict's certificate by sampling."""
    rng = random.Random(6)
    step = step_bound if derived else _step
    if verdict.verdict == HOLDS:
        base = (verdict.witness or {}).get("base")
        base = None if base is None else GroupElem.from_list(base)
        for _ in range(probes):
            g = sample_member(desc, rng)
            if base is not None and not g > base:
                continue
            if not member(desc, step(g)):
                return False
        return True
    if verdict.verdict == FAILS:
        w = (verdict.witness or {}).get("witness")
        if w is None:
            return False
        gamma = GroupElem.from_list(w)
        return member(desc, gamma) and not member(desc, step(gamma))
    return True


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
    """Yardstick/jammed exclusion: both Holds forces the downward closure
    to agree with the negative cone on probes; any Holds-yardstick set that
    differs from the negative cone must not be jammed."""
    rng = random.Random(seed)
    report = Report("yardstick-jammed-exclusion", seed, probes * max(1, len(descriptors)), "check")
    fails_seen = 0

    for name, desc in descriptors:
        y = has_yardstick(desc)
        if y.verdict != HOLDS:
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
