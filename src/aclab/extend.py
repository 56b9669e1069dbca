"""Extension scenarios: the value sets of integration and exponential
integration problems, with constructive yardstick steps executed exactly.

Each scenario fixes an element s of the field and studies the set of
valuations reachable by correcting s with a witness:

  small integral:        S = { v(s - e')        : e prec 1 }
  small exp-integral:    S = { v(s - e'/(1+e))  : e prec 1 }
  big integral:          S = { v(s - a')        : a in K  }

The exp-integral defect is computed as s(1+e) - e' = (1+e)(s - e'/(1+e)),
which builds no quotient; 1+e leads with exactly 1 for e prec 1, so both
forms have the same valuation and leading coefficient.

The shipped instances carry hand-verified non-integrability certificates,
documented on their factories: correcting terms can raise the valuation
forever but never reach infinity, which is exactly why S has no greatest
element and admits the derived yardstick.

The step procedure follows the structure of the existence proofs: choose
the monomial b whose derivative matches the current leading term of the
defect h, cancel that term, and re-verify the exact gain
``new_gamma >= gamma - integrate(successor(gamma)) > gamma``.  The
coefficient u is read off the leading coefficients (that of b' is b's
first nonzero exponent, so b' is never formed), so witnesses stay
finite sums of monomials and hundred-step chains remain exact; the full
quotient u = (s - e')/b' of the texts produces equal leading behavior but
its denominators compound quadratically along a chain.

For chains in the multiplicative scenario the witness is kept inside a
valuation window: the product (1+e)(1+ub) is truncated above the window,
which stays sound because every reported value is re-computed exactly
from the truncated witness itself; an undersized window can only fail the
gain assertion, never report a wrong valuation.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from typing import Optional

from .acouple import Report, integrate, successor
from .logts import Frac, Monomial, Series, ell, x_elem
from .ogroup import GroupElem, unit, vector_json
from .record import Record

SMALL_INT = "smallint"
SMALL_EXP_INT = "smallexpint"
BIG_INT = "bigint"

KINDS = (SMALL_INT, SMALL_EXP_INT, BIG_INT)


class ExtScenario(Record):
    kind: str
    s: Frac
    g: Optional[Frac] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if self.kind == BIG_INT and self.g is None:
            raise ValueError("big-integral scenarios need the comparison element g")

    def s_valuation(self) -> GroupElem:
        v = self.s.valuation()
        if not isinstance(v, GroupElem):
            raise ValueError("scenario element must be nonzero")
        return v


class Witness(Record):
    eps: Frac
    gamma: GroupElem


def smallint_example() -> ExtScenario:
    """s = x^-2 l1^-1.

    Non-integrability certificate: repeated integration by parts gives
    antiderivative -x^-1 l1^-1 - x^-1 l1^-2 - 2 x^-1 l1^-3 - ..., an
    infinite series, so no element of the field has derivative s.
    """
    s = (x_elem() ** 2).inv() * ell(1).inv()
    return ExtScenario(SMALL_INT, s)


def smallexpint_example() -> ExtScenario:
    """s = x^-2 l1^-1, studied multiplicatively.

    Certificate: e'/(1+e) = s would make 1+e a solution of a first-order
    equation whose formal solution exponentiates the infinite antiderivative
    above; no finite monomial sum satisfies it.
    """
    s = (x_elem() ** 2).inv() * ell(1).inv()
    return ExtScenario(SMALL_EXP_INT, s)


def bigint_example() -> ExtScenario:
    """s = l1^(1/2) with comparison element g = x l1^(1/2), g' ~ s.

    Certificate: g' - s = (1/2) l1^(-1/2), and correcting by parts again
    only produces the next power l1^(-3/2); the antiderivative of s is an
    infinite series, so v(s - a') is never infinity.
    """
    half = Fraction(1, 2)
    s = Frac(Series.monomial(Monomial(unit(1).scale(half))))
    g = Frac(Series.monomial(Monomial(unit(0) + unit(1).scale(half))))
    return ExtScenario(BIG_INT, s, g)


@cache
def example(kind: str) -> ExtScenario:
    """The shipped scenario of a kind (built once; scenarios are immutable)."""
    if kind == SMALL_INT:
        return smallint_example()
    if kind == SMALL_EXP_INT:
        return smallexpint_example()
    if kind == BIG_INT:
        return bigint_example()
    raise ValueError(f"unknown scenario kind {kind!r}")


def _require_small(w: Frac) -> None:
    if not w.valuation() > GroupElem.ZERO:
        raise ValueError("witness must be infinitesimal for this scenario kind")


def _defect(sc: ExtScenario, w: Frac) -> Frac:
    """s - w' for the additive kinds; for the multiplicative kind s(1+w) - w',
    which is (1+w)(s - w'/(1+w)).  As w is infinitesimal, 1+w leads with
    exactly 1, so both forms have the same valuation and leading coefficient,
    all that ``_step``, ``s_value`` and ``construct_witness`` read of them."""
    if sc.kind == SMALL_INT:
        _require_small(w)
        return sc.s - w.derivative()
    if sc.kind == SMALL_EXP_INT:
        _require_small(w)
        return sc.s * (Frac.ONE + w) - w.derivative()
    return sc.s - w.derivative()


def s_value(sc: ExtScenario, w: Frac) -> GroupElem:
    """The valuation realized by a witness; exact, and never infinite on
    the shipped scenarios."""
    return _realized(_defect(sc, w))


def _realized(h: Frac) -> GroupElem:
    v = h.valuation()
    if not isinstance(v, GroupElem):
        raise ValueError("witness integrates s exactly; scenario certificate violated")
    return v


def _seed(sc: ExtScenario) -> tuple[Witness, Frac]:
    """The initial witness and its defect."""
    eps = sc.g if sc.kind == BIG_INT else Frac.ZERO
    h = _defect(sc, eps)
    return Witness(eps, _realized(h)), h


def _monomial_frac(valuation: GroupElem) -> Frac:
    return Frac(Series.monomial(Monomial(-valuation)))


def _corrected(sc: ExtScenario, eps: Frac, f: Frac) -> Frac:
    """eps corrected by f: eps + f, or (1 + eps)(1 + f) - 1 for the multiplicative kind."""
    if sc.kind == SMALL_EXP_INT:
        return eps + f + eps * f
    return eps + f


def _window(sc: ExtScenario, gamma: GroupElem) -> Optional[GroupElem]:
    """The truncation window of a ladder up to gamma; additive witnesses are never truncated."""
    return integrate(gamma + unit(1).scale(8)) if sc.kind == SMALL_EXP_INT else None


def step_bound(gamma: GroupElem) -> GroupElem:
    """The exact yardstick bound gamma - integrate(successor(gamma))."""
    return gamma - integrate(successor(gamma))


def yardstick_step(sc: ExtScenario, w: Witness, window: Optional[GroupElem] = None) -> Witness:
    """One constructive step: strictly larger realized value, gain at
    least the yardstick bound, re-verified exactly.

    Killing the leading defect term can expose another defect term lying
    strictly between gamma and the bound, so kills are iterated.  Fresh
    debris from a kill at value v enters at v + e_{n(v)+1}, which is never
    below the bound, so only the finitely many original defect terms can
    be visited and the loop terminates.
    """
    return _step(sc, w, None, window)[0]


def _step(sc: ExtScenario, w: Witness, h: Optional[Frac],
          window: Optional[GroupElem]) -> tuple[Witness, Frac]:
    """``yardstick_step``, also returning the new witness's defect.  ``h`` is
    w's defect when the caller has computed it and checked it against
    w.gamma (a seed or an earlier step); None recomputes and checks it."""
    if sc.kind == BIG_INT and not w.gamma > sc.s_valuation():
        raise ValueError("big-integral steps need gamma above v(s)")
    if h is None:
        h = _defect(sc, w.eps)
        got = h.valuation()
        if got != w.gamma:
            raise ValueError(f"stale witness: realizes {got}, claims {w.gamma}")
    bound = step_bound(w.gamma)
    eps, cur = w.eps, w.gamma
    for _ in range(10000):
        eps = _corrected(sc, eps, _kill(h, cur))
        if window is not None and sc.kind == SMALL_EXP_INT:
            eps = Frac(eps.num.truncate_below(window), eps.den)
        h = _defect(sc, eps)
        new_gamma = h.valuation()
        if not (isinstance(new_gamma, GroupElem) and new_gamma > cur):
            raise ValueError(
                f"step certificate failed: kill at {cur} realized {new_gamma}")
        cur = new_gamma
        if cur >= bound:
            return Witness(eps, cur), h
    raise ValueError(f"step did not reach the bound {bound} from {w.gamma}")


def _kill(h: Frac, gamma: GroupElem) -> Frac:
    """u*b, with v(b') = gamma = v(h) and u*b' leading as h does: b has
    exponents -integrate(gamma), and b' leads with r_k * b / (l0...lk) for
    r_k the first of them, so b' is never formed."""
    target = integrate(gamma)
    return _monomial_frac(target).scale(-h.leading_coeff() / target.leading_coeff())


def chain(sc: ExtScenario, steps: int) -> list[Witness]:
    """Iterate the step from the initial witness; the returned list starts
    at the seed witness and has one entry per verified step."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    w, h = _seed(sc)
    window = _window(sc, w.gamma + unit(1).scale(steps))
    out = [w]
    for _ in range(steps):
        w, h = _step(sc, w, h, window)
        out.append(w)
    return out


# ---------------------------------------------------------------------------
# Exact membership and witness construction.

def member(sc: ExtScenario, gamma: GroupElem) -> bool:
    """Closed-form membership; each True answer is realizable by
    construct_witness and re-verified in the suites."""
    if sc.kind == BIG_INT:
        return gamma.coeff(0) <= 0
    return integrate(gamma) > GroupElem.ZERO and gamma.coeff(0) <= 2


def construct_witness(sc: ExtScenario, gamma: GroupElem) -> Witness:
    """A witness realizing the exact value gamma, by laddering past gamma
    and then placing one fresh monomial whose derivative lands on it."""
    if not member(sc, gamma):
        raise ValueError(f"{gamma} is not in the scenario set")
    w, h = _seed(sc)
    if gamma == w.gamma:
        return w
    if gamma < w.gamma:
        return _witness_below(sc, w, gamma)
    window = _window(sc, gamma)
    limit = 4096
    while w.gamma < gamma:
        w, h = _step(sc, w, h, window)
        limit -= 1
        if limit == 0:
            raise ValueError("witness ladder failed to pass the target")
    if w.gamma == gamma:
        return w
    return _witness_below(sc, w, gamma)


def _witness_below(sc: ExtScenario, w: Witness, gamma: GroupElem) -> Witness:
    eps = _corrected(sc, w.eps, _monomial_frac(integrate(gamma)))
    got = s_value(sc, eps)
    if got != gamma:
        raise ValueError(f"witness construction realized {got}, wanted {gamma}")
    return Witness(eps, got)


# ---------------------------------------------------------------------------
# The value set of a shipped scenario, as a set descriptor.

_HEAD_POOL = [Fraction(3, 2), Fraction(2), Fraction(3), Fraction(5, 2), Fraction(4)]
_CAP_POOL = [Fraction(3, 2), Fraction(2)]
_BIG_POOL = [Fraction(0), Fraction(-1), Fraction(-1, 2), Fraction(-3), Fraction(-5, 2)]
_TAIL_POOL = [Fraction(n) for n in (-3, -2, -1, 1, 2, 3)] + [Fraction(1, 2), Fraction(-5, 2)]


class ExtS(Record):
    """The set S of the shipped scenario of one kind, as a set descriptor.

    S has no greatest element and is closed under the step
    gamma -> gamma - chi(gamma).  It lies in (Gamma^>)' = {integrate > 0}
    for the small kinds and in (Gamma^<)' = {integrate < 0} for bigint
    (``subset_sign``).  Its downward closure is {gamma : gamma_0 <=
    coord0_cap}, and that of its integral image is {gamma : gamma_0 <=
    int_coord0_cap}.
    """

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}")

    @property
    def scenario(self) -> ExtScenario:
        return example(self.kind)

    @property
    def subset_sign(self) -> int:
        return -1 if self.kind == BIG_INT else 1

    @property
    def coord0_cap(self) -> Fraction:
        return Fraction(0) if self.kind == BIG_INT else Fraction(2)

    @property
    def int_coord0_cap(self) -> Fraction:
        return Fraction(-1) if self.kind == BIG_INT else Fraction(1)

    def sample(self, rng: random.Random) -> GroupElem:
        if self.kind == BIG_INT:
            items = [(0, rng.choice(_BIG_POOL))]
            for _ in range(rng.randint(0, 2)):
                items.append((rng.randint(1, 6), rng.choice(_TAIL_POOL)))
            return GroupElem(items)
        n = rng.randint(0, 3)
        items = [(i, Fraction(1)) for i in range(n)]
        items.append((n, rng.choice(_CAP_POOL if n == 0 else _HEAD_POOL)))
        for _ in range(rng.randint(0, 2)):
            items.append((n + 1 + rng.randint(0, 4), rng.choice(_TAIL_POOL)))
        return GroupElem(items)

    def cofinal(self, i: int) -> GroupElem:
        """The i-th member of a strictly increasing cofinal family."""
        if self.kind == BIG_INT:
            return unit(1).scale(Fraction(2 * i + 1, 2))
        return unit(0).scale(2) + unit(1).scale(i + 1)


def s_descriptor(sc: ExtScenario) -> ExtS:
    """The descriptor of sc's value set.  Membership is certified for the
    shipped scenarios only, so any other scenario is rejected."""
    if sc != example(sc.kind):
        raise ValueError(f"only the shipped {sc.kind} scenario has a set descriptor; "
                         f"it uses s = {example(sc.kind).s}")
    return ExtS(sc.kind)


# ---------------------------------------------------------------------------
# Structural verification.

def verify_downward_no_max(sc: ExtScenario, probes: int, seed: int = 23) -> Report:
    """Sampled members get exact witnesses; every probed smaller value in
    the right derivative half gets one too (downward closure within the
    half), and the step produces a strictly larger member (no maximum)."""
    rng = random.Random(seed)
    values = ExtS(sc.kind)
    report = Report(f"extension-structure[{sc.kind}]", seed, probes, "check")
    for case in report.each(probes):
        gamma = values.sample(rng)
        try:
            w = construct_witness(sc, gamma)
        except ValueError as exc:
            report.fail("witness", case, gamma=gamma, error=exc)
            continue
        if w.gamma != gamma:
            report.fail("witness-value", case, gamma=gamma, got=w.gamma)
            continue

        # Downward probes within the ambient derivative half.
        for delta in _downward_probes(gamma, rng):
            if integrate(delta).sign() != values.subset_sign:
                continue
            if not member(sc, delta):
                report.fail("downward-closed", case, gamma=gamma, delta=delta)
                continue
            try:
                wd = construct_witness(sc, delta)
            except ValueError as exc:
                report.fail("downward-witness", case, delta=delta, error=exc)
                continue
            if wd.gamma != delta:
                report.fail("downward-witness-value", case, delta=delta, got=wd.gamma)

        # No maximum: one verified step upward.
        if sc.kind == BIG_INT and not gamma > sc.s_valuation():
            continue
        try:
            up = yardstick_step(sc, w)
        except ValueError as exc:
            report.fail("step", case, gamma=gamma, error=exc)
            continue
        if not up.gamma > gamma:
            report.fail("no-max", case, gamma=gamma, got=up.gamma)
    return report


def _downward_probes(gamma: GroupElem, rng: random.Random) -> list[GroupElem]:
    out = [gamma - unit(gamma.max_index() + 1 + rng.randint(0, 3)).scale(rng.randint(1, 4))]
    drop = rng.choice([Fraction(1, 2), Fraction(1), Fraction(3)])
    out.append(gamma - unit(rng.randint(0, max(gamma.max_index(), 1))).scale(drop))
    return out


def chain_report(sc: ExtScenario, steps: int) -> dict:
    """JSON-ready summary of an iterated chain, for the CLI."""
    ws = chain(sc, steps)
    return {
        "kind": sc.kind,
        "s": str(sc.s),
        "steps": steps,
        "gammas": [vector_json(w.gamma) for w in ws],
    }
