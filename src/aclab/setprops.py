"""Symbolic convex-set descriptors over the exponent group, with exact
membership and decision procedures for jammedness and yardstick properties.

A descriptor denotes a subset of the group.  Membership is always exact;
the property queries return three-valued verdicts carrying either a rule
name plus a checkable certificate, or Unknown with a reason.  Verdicts
never guess: Holds and Fails are produced only where the structure of the
group makes the quantifiers finite (rule layer) or where a bounded seeded
search produces witnesses the caller can re-verify (search layer).

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
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from . import extend
from .acouple import Report, chi, der, first_non_one, integrate, sample_elem, sample_nonzero
from .extend import ExtS, step_bound
from .ogroup import GroupElem, as_rat, ones, unit, vector_json

K_MAX = 32

HOLDS = "holds"
FAILS = "fails"
UNKNOWN = "unknown"


class UnsupportedDescriptor(Exception):
    """Raised instead of ever returning a wrong answer."""


@dataclass(frozen=True)
class LessThan:
    bound: GroupElem


@dataclass(frozen=True)
class LessEq:
    bound: GroupElem


@dataclass(frozen=True)
class PsiDown:
    """The downward closure of the psi image, equal to (Gamma^<)'."""


PSI_DOWN = PsiDown()


@dataclass(frozen=True)
class Affine:
    alpha: GroupElem
    n: int
    inner: "SetDescriptor"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("affine scale must be a positive integer")


@dataclass(frozen=True)
class DownClosure:
    inner: "SetDescriptor"


@dataclass(frozen=True)
class IntImage:
    inner: "SetDescriptor"


SetDescriptor = Union[LessThan, LessEq, PsiDown, Affine, DownClosure, IntImage, ExtS]


@dataclass(frozen=True)
class PropertyVerdict:
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
    if isinstance(inner, ExtS):
        return gamma.coeff(0) <= inner.coord0_cap
    if isinstance(inner, IntImage):
        deep = inner.inner
        if isinstance(deep, ExtS):
            return gamma.coeff(0) <= deep.int_coord0_cap
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

_TAIL_POOL = [Fraction(n) for n in (-3, -2, -1, 1, 2, 3)] + [
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(5, 2),
]

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

def _has_greatest(desc: SetDescriptor) -> Optional[bool]:
    """True/False when decidable, None when not."""
    if isinstance(desc, LessEq):
        return True
    if isinstance(desc, (LessThan, PsiDown)):
        return False
    if isinstance(desc, Affine):
        return _has_greatest(desc.inner)
    if isinstance(desc, DownClosure):
        return _has_greatest(desc.inner)
    if isinstance(desc, IntImage):
        # The integral map is a strictly increasing bijection onto the
        # nonzero vectors, so maxima transfer both ways.
        return _has_greatest(desc.inner)
    if isinstance(desc, ExtS):
        return False
    return None


def _coord0_capped(desc: SetDescriptor) -> Optional[Fraction]:
    """When the set provably satisfies: gamma in S implies gamma + e_1 in S
    (membership depends on coordinate 0 only through a cap, and bumping
    coordinate 1 never leaves the set), return the cap; else None."""
    if isinstance(desc, ExtS):
        return desc.coord0_cap
    if isinstance(desc, IntImage) and isinstance(desc.inner, ExtS):
        return desc.inner.int_coord0_cap
    if isinstance(desc, DownClosure):
        return _coord0_capped(desc.inner)
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
    greatest = _has_greatest(desc)
    if greatest:
        return PropertyVerdict(UNKNOWN, "greatest-element",
                               {"reason": "the set has a greatest element; jammedness "
                                          "is defined for sets without one"})

    if isinstance(desc, LessThan):
        bases = {str(k): vector_json(_cofinal_member(desc, k - 1)) for k in (1, 2, 3)}
        return PropertyVerdict(HOLDS, "principal-downset",
                               {"base_family": "bound - e_k/2", "sample_bases": bases})
    if isinstance(desc, PsiDown):
        bases = {str(k): vector_json(_cofinal_member(desc, k - 1)) for k in (1, 2, 3)}
        return PropertyVerdict(HOLDS, "psi-downset",
                               {"base_family": "ones(k)", "sample_bases": bases})
    if isinstance(desc, Affine):
        inner = is_jammed(desc.inner)
        return _transport_verdict(inner, desc, "affine-invariance")
    if isinstance(desc, DownClosure):
        inner = is_jammed(desc.inner)
        return _transport_verdict(inner, desc, "downclosure-invariance")

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

    try:
        return _jam_search(desc)
    except UnsupportedDescriptor as exc:
        return PropertyVerdict(UNKNOWN, "unsupported-membership", {"reason": str(exc)})


def _transport_verdict(inner: PropertyVerdict, desc: SetDescriptor, rule: str) -> PropertyVerdict:
    if inner.verdict == UNKNOWN:
        return inner
    witness = {"inherited_from": inner.rule}
    if inner.witness:
        witness["inner_witness"] = inner.witness
    return PropertyVerdict(inner.verdict, rule, witness)


_BUMP_SCALES = [Fraction(1), Fraction(1, 2), Fraction(2), Fraction(-1, 2)]


def _find_escape(desc: SetDescriptor, base: GroupElem, k: int) -> Optional[GroupElem]:
    """The first bump e_j * q (j < k, q in _BUMP_SCALES) that leaves base + Delta_k."""
    for j in range(1, k):
        for q in _BUMP_SCALES:
            bump = unit(j).scale(q)
            if _jam_escape_ok(desc, base, bump, k):
                return bump
    return None


def _jam_search(desc: SetDescriptor) -> PropertyVerdict:
    """Bounded falsification: at each tail index, try to escape from every
    candidate base.  All candidates escaping at some level is reported as
    Fails; a surviving candidate moves the search on; exhaustion is Unknown."""
    rng = random.Random(2029)
    candidates: list[GroupElem] = []
    for i in range(6):
        c = _cofinal_member(desc, i)
        if c is not None:
            candidates.append(c)
    for _ in range(24):
        try:
            candidates.append(sample_member(desc, rng))
        except UnsupportedDescriptor:
            break
    candidates = [c for c in candidates if member(desc, c)]
    if not candidates:
        return PropertyVerdict(UNKNOWN, "no-samples",
                               {"reason": "no members found to seed the search"})
    for k in range(2, K_MAX + 1):
        escapes = []
        all_escaped = True
        for base in candidates:
            found = _find_escape(desc, base, k)
            if found is None:
                all_escaped = False
                break
            escapes.append({"base": vector_json(base), "escape": vector_json(base + found)})
        if all_escaped:
            return PropertyVerdict(FAILS, "search-escape",
                                   {"level": k, "samples": escapes[:4],
                                    "frontier": len(candidates)})
    return PropertyVerdict(UNKNOWN, "search-exhausted",
                           {"levels_tried": K_MAX, "frontier": len(candidates)})


def recheck_jammed(desc: SetDescriptor, verdict: PropertyVerdict) -> bool:
    """Re-verify a jammedness verdict's certificate by sampling."""
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
        level = _witness_level(verdict)
        if level is None or level < 1:
            return False
        for _ in range(60):
            g = sample_member(desc, rng)
            if not member(desc, g) or _find_escape(desc, g, level) is None:
                return False
        return True
    return True


def _witness_level(verdict: PropertyVerdict) -> Optional[int]:
    w = verdict.witness or {}
    if "level" in w:
        return int(w["level"])
    if "inner_witness" in w:
        return _witness_level(PropertyVerdict(verdict.verdict, verdict.rule, w["inner_witness"]))
    return None


# ---------------------------------------------------------------------------
# Yardstick properties.

def _step(gamma: GroupElem) -> GroupElem:
    return gamma - chi(gamma)


def has_yardstick(desc: SetDescriptor) -> PropertyVerdict:
    """Whether some base beta in S lets every member above it step to
    gamma - chi(gamma) inside S."""
    greatest = _has_greatest(desc)
    if greatest:
        return PropertyVerdict(UNKNOWN, "greatest-element",
                               {"reason": "the set has a greatest element; the yardstick "
                                          "property is defined for sets without one"})

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
            base = None
            if isinstance(desc.inner, ExtS):
                base = vector_json(integrate(desc.inner.scenario.s_valuation()))
            witness = {"inherited_from": inner.rule, "base": base}
            return PropertyVerdict(HOLDS, "integral-transport", witness)
        return _yardstick_search(desc)
    if isinstance(desc, DownClosure):
        inner = has_yardstick(desc.inner)
        if inner.verdict == HOLDS:
            witness = {"inherited_from": inner.rule}
            inner_base = (inner.witness or {}).get("base")
            if inner_base is not None:
                witness["base"] = inner_base
            if inner.witness:
                witness["inner_witness"] = inner.witness
            return PropertyVerdict(HOLDS, "downward-transport", witness)
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
    bases below them, and a bounded search reports Fails only when they
    recur along the frontier.  A membership test the set does not support
    gives Unknown.
    """
    rng = random.Random(2031)
    escapes: list[GroupElem] = []
    tried = 0
    try:
        for i in range(200):
            g = _cofinal_member(desc, i) if i < 8 else None
            if g is None:
                try:
                    g = sample_member(desc, rng)
                except UnsupportedDescriptor:
                    break
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
        if len(escapes) >= 3:
            return PropertyVerdict(FAILS, rule_prefix + "search-escape", payload)
        return PropertyVerdict(UNKNOWN, rule_prefix + "search-isolated-escape",
                               {"witness": vector_json(escapes[0]), "frontier": tried})
    return PropertyVerdict(UNKNOWN, rule_prefix + "search-no-escape", {"frontier": tried})


def has_derived_yardstick(desc: SetDescriptor) -> PropertyVerdict:
    """Whether some base beta in S lets every member above it step to
    gamma - integrate(successor(gamma)) inside S.  The operand must be
    certified inside one derivative half."""
    _require_half(desc, "derived yardstick of")
    greatest = _has_greatest(desc)
    if greatest:
        return PropertyVerdict(UNKNOWN, "greatest-element",
                               {"reason": "the set has a greatest element"})
    if isinstance(desc, ExtS):
        base = desc.scenario.s_valuation()
        rng = random.Random(17)
        for _ in range(25):
            g = desc.sample(rng)
            if not g > base:
                continue
            stepped = step_bound(g)
            if not (stepped > g and extend.member(desc.scenario, stepped)):
                return PropertyVerdict(FAILS, "handle-step-refuted",
                                       {"witness": vector_json(g)})
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
        base = _verdict_base(verdict)
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
        gamma = GroupElem.from_list(as_rat(v) for v in w)
        return member(desc, gamma) and not member(desc, step(gamma))
    return True


def _verdict_base(verdict: PropertyVerdict) -> Optional[GroupElem]:
    w = verdict.witness or {}
    base = w.get("base")
    if base is None:
        return None
    return GroupElem.from_list(as_rat(v) for v in base)


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
        for case in range(probes):
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
