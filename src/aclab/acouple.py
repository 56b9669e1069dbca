"""The asymptotic couple structure on the exponent group.

The map ``psi`` sends a nonzero vector with first nonzero index n to the
prefix vector e_0 + ... + e_n.  From it derive

* ``der``:       gamma + psi(gamma), strictly increasing on nonzero vectors,
* ``integrate``: the two-sided inverse of ``der``,
* ``successor``: psi of the integral,
* ``chi``:       the integral of psi, a contraction into later coordinates.

All four have closed vector formulas which the conformance suite pins
against independent re-derivations.  This module also classifies the
three shipped couple instances (truncated, full, gap-extended) with
machine-checked certificates, and implements the closure-count decision
table over the classification outcome.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from itertools import product, takewhile
from math import gcd
from typing import Iterator, Optional, Union

from .ogroup import (
    DELTA,
    INFINITY,
    ExtElem,
    ExtLike,
    GammaInf,
    GroupElem,
    _from_items,
    arch_cmp,
    cmp,
    ones,
    unit,
    vector_json,
)
from .record import Record


def psi(gamma: ExtLike) -> GammaInf:
    """e_0 + ... + e_n for first nonzero (padded) index n; infinity at zero."""
    if gamma.is_zero():
        return INFINITY
    return ones(gamma.first_index() + 1)


def der(gamma: ExtLike) -> ExtLike:
    """gamma + psi(gamma); undefined at zero."""
    if gamma.is_zero():
        raise ValueError("der is undefined at zero")
    return gamma + psi(gamma)


def first_non_one(gamma: GroupElem) -> int:
    """The first index whose coordinate is not 1 (absent coordinates are 0)."""
    n = 0
    for index, num, den in gamma.key:
        if index > n or not num == den == 1:
            break
        n = index + 1
    return n


def integrate(gamma: GroupElem) -> GroupElem:
    """The unique alpha with der(alpha) = gamma; total and never zero.

    With n the first index whose coefficient differs from 1, the result
    zeroes all coordinates below n, drops coordinate n by 1, and keeps
    the rest.
    """
    n = first_non_one(gamma)
    # The first n triples are the coefficients 1 at indices 0..n-1.  The
    # triple (n, num - den, den) is in lowest terms as (n, num, den) is.
    rest = gamma.key[n:]
    if rest and rest[0][0] == n:
        _, num, den = rest[0]
        return _from_items(((n, num - den, den),) + rest[1:])
    return _from_items(((n, -1, 1),) + rest)


def successor(gamma: GroupElem) -> GroupElem:
    """psi of the integral: the prefix vector at the first non-1 coefficient."""
    return ones(first_non_one(gamma) + 1)


def chi(gamma: GroupElem) -> GroupElem:
    """The integral of psi(gamma): -e_{n+1} for first nonzero index n; chi(0) = 0."""
    if gamma.is_zero():
        return GroupElem.ZERO
    return _from_items(((gamma.first_index() + 1, -1, 1),))


FAILURE_CAP = 50


class Report:
    """Outcome of a seeded verification suite, logged as it runs.  Each failure
    names its check under ``key``, its case if any, and its data as strings."""

    def __init__(self, suite: str, seed: int, cases: int, key: str) -> None:
        self.suite = suite
        self.seed = seed
        self.cases = cases
        self.key = key
        self.failures: list[dict] = []

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, name: str, case: Optional[int] = None, **data: object) -> None:
        head = {self.key: name} if case is None else {self.key: name, "case": case}
        self.failures.append({**head, **{k: str(v) for k, v in data.items()}})

    def each(self, count: int) -> Iterator[int]:
        """Cases 0..count-1, stopping after one that leaves over FAILURE_CAP
        failures.  A count below 1 raises here, before any case runs."""
        if count < 1:
            raise ValueError(f"suite {self.suite} needs at least 1 case, got {count}")
        return takewhile(lambda case: case == 0 or len(self.failures) <= FAILURE_CAP, range(count))

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "cases": self.cases,
            "failures": [dict(f) for f in self.failures],
        }


class CoupleDescriptor(Record):
    """Names one of the shipped couple instances.

    kind is one of ``trunc`` (support restricted below ``n``), ``logfull``
    (the whole group), ``loggap`` (the delta extension).
    """

    kind: str
    n: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ("trunc", "logfull", "loggap"):
            raise ValueError(f"unknown couple kind {self.kind!r}")
        if self.kind == "trunc" and (self.n is None or self.n < 1):
            raise ValueError("truncated couple needs a positive index bound")

    @classmethod
    def parse(cls, text: str) -> "CoupleDescriptor":
        name = text.strip().lower()
        if name == "logfull":
            return cls("logfull")
        if name == "loggap":
            return cls("loggap")
        if name.startswith("trunc:"):
            # ASCII digits only: int() would also read "1_0", "+3" and "٣".
            bound = name[len("trunc:"):]
            if not (bound.isascii() and bound.isdigit()):
                raise ValueError(f"couple {text!r} needs a whole-number bound after 'trunc:'")
            return cls("trunc", int(bound))
        raise ValueError(f"unknown couple name {text!r}")

    def __str__(self) -> str:
        return f"trunc:{self.n}" if self.kind == "trunc" else self.kind


class TrichotomyResult(Record):
    """Exactly one of: grounded with its maximum psi value, a gap element, or
    asymptotic integration."""

    kind: str
    max_psi: Optional[GroupElem] = None
    gap: Optional[ExtElem] = None

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.max_psi is not None:
            out["max_psi"] = vector_json(self.max_psi)
        if self.gap is not None:
            out["gap"] = str(self.gap)
        return out


# Lowest-terms (numerator, denominator) pairs.  Repeats such as 2/4 and 1/2
# stay: which coefficient a draw gives depends on the pool's length and order.
COEFF_POOL = [
    (n // gcd(n, d), d // gcd(n, d))
    for n in range(-16, 17)
    for d in (1, 2, 3, 4, 5, 7, 8, 11, 13, 16)
    if n != 0
]


def _below(bits, n: int) -> int:
    """A uniform int in [0, n) from ``bits = rng.getrandbits``, by the draws
    CPython's ``Random`` makes for ``randrange(n)``: ``getrandbits(k)`` with
    k = n.bit_length() until the value is below n."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


_POOL_BITS = len(COEFF_POOL).bit_length()


def sample_elem(
    rng: random.Random,
    max_index: int = 12,
    max_support: int = 6,
    allow_zero: bool = True,
) -> GroupElem:
    """Seeded sampling per the package-wide distribution: support size at
    most 6, indices at most 12, coefficient magnitudes at most 16.

    The draws are the ones ``randint`` (the support size), ``sample`` (the
    indices) and ``choice`` (the coefficients) make, so values and the
    generator state after each draw equal those of the stdlib calls
    (pinned by tests/test_sampling.py).  They come straight from
    ``rng.getrandbits``, each by the rejection loop of ``_below`` written
    out in place, except that index ranges wider than 21 go to
    ``rng.sample`` itself."""
    bits = rng.getrandbits
    low = 0 if allow_zero else 1
    span = max_support + 1 - low
    if span < 1:
        raise ValueError(f"empty range for the support size: [{low}, {max_support}]")
    n = max_index + 1
    width = span.bit_length()
    r = bits(width)
    while r >= span:
        r = bits(width)
    k = min(low + r, n)
    if k < 0:
        raise ValueError(f"negative index bound {max_index}")
    if n > 21:
        indices = rng.sample(range(n), k)
    else:
        # The pool swap Random.sample makes for every n <= 21.
        indices = []
        pool = list(range(n))
        for top in range(n, n - k, -1):
            width = top.bit_length()
            j = bits(width)
            while j >= top:
                j = bits(width)
            indices.append(pool[j])
            pool[j] = pool[top - 1]
    pool_len = len(COEFF_POOL)
    triples = []
    for i in indices:
        j = bits(_POOL_BITS)
        while j >= pool_len:
            j = bits(_POOL_BITS)
        num, den = COEFF_POOL[j]
        triples.append((i, num, den))
    triples.sort()
    return _from_items(tuple(triples))


def sample_nonzero(rng: random.Random, max_index: int = 12) -> GroupElem:
    while True:
        g = sample_elem(rng, max_index=max_index, allow_zero=False)
        if not g.is_zero():
            return g


DQ_POOL = [Fraction(q) for q in (0, 0, 1, -1, "1/2", "-3/2", 2)]


def sample_ext(rng: random.Random) -> ExtElem:
    """Sample in the delta extension; about half the draws leave the base group."""
    base = sample_elem(rng)
    return ExtElem(base, DQ_POOL[_below(rng.getrandbits, len(DQ_POOL))])


def _ext_psi_pair(rng: random.Random) -> ExtElem:
    g = sample_ext(rng)
    return g if not g.is_zero() else DELTA


# The nonzero integers k that AC2 scales by.
AXIOM_SCALES = (-5, -3, -2, -1, 1, 2, 3, 7)


def verify_couple_axioms(
    sample_size: int,
    seed: int,
    couple: Union[str, CoupleDescriptor] = "logfull",
) -> Report:
    """Check the four couple axioms on seeded random triples.

    AC1: psi(a + b) >= min(psi a, psi b)
    AC2: psi(k a) = psi(a) for nonzero integers k
    AC3: a > 0 implies a + psi(a) > psi(b) for nonzero b
    HC:  0 < a <= b implies psi(a) >= psi(b)
    """
    desc = CoupleDescriptor.parse(couple) if isinstance(couple, str) else couple
    rng = random.Random(seed)
    report = Report(f"couple-axioms[{desc}]", seed, sample_size, "axiom")

    def draw() -> ExtLike:
        if desc.kind == "loggap":
            return _ext_psi_pair(rng)
        bound = desc.n - 1 if desc.kind == "trunc" else 12
        return sample_nonzero(rng, max_index=bound)

    for case in report.each(sample_size):
        a, b = draw(), draw()
        k = AXIOM_SCALES[_below(rng.getrandbits, len(AXIOM_SCALES))]
        pa, pb = psi(a), psi(b)
        s = a + b
        ps = psi(s)
        if not min(pa, pb) <= ps:
            report.fail("AC1", case, a=a, b=b)
        if psi(a.scale(k)) != pa:
            report.fail("AC2", case, a=a, k=k)
        if a.sign() > 0 and not a + pa > pb:
            report.fail("AC3", case, a=a, b=b)
        lo, hi, p_lo, p_hi = (a, b, pa, pb) if a <= b else (b, a, pb, pa)
        if lo.sign() > 0 and not p_hi <= p_lo:
            report.fail("HC", case, a=lo, b=hi)
    return report


def identity_suite(sample_size: int, seed: int) -> Report:
    """Exercise the derived identities of the couple on seeded samples.

    Covers: the integral identity, the successor comparison law, the
    successor fixed-point law, successor growth, the contraction class
    bounds, contraction difference monotonicity, psi-overspill for
    n in {1, 2, 3}, the yardstick telescope, and the integral yardstick
    bound with its monotonicity.
    """
    rng = random.Random(seed)
    report = Report("couple-identities", seed, sample_size, "identity")
    for case in report.each(sample_size):
        a = sample_elem(rng)
        b = sample_elem(rng)
        g = sample_nonzero(rng)

        # Each value two checks share is computed once: a - sa, chi(g),
        # chi(a), chi(b) and the order of a and b.
        ia, sa, sb = integrate(a), successor(a), successor(b)
        a_sa = a - sa
        order = cmp(a, b)
        if ia != a_sa:
            report.fail("integral", case, a=a)
        if sa < sb and psi(b - a) != sa:
            report.fail("successor-compare", case, a=a, b=b)
        # Fixed point law: beta = psi(a - beta) exactly for beta = successor(a).
        if psi(a_sa) != sa:
            report.fail("successor-fixed-point", case, a=a)
        probe = sample_elem(rng)
        if probe != sa and psi(a - probe) == probe:
            report.fail("successor-fixed-point-converse", case, a=a, probe=probe)
        if not sa < successor(sa):
            report.fail("successor-growth", case, a=a)
        cg = chi(g)
        if arch_cmp(cg, g) != -1:
            report.fail("contraction-class", case, g=g)
        if order:
            ca, cb = chi(a), chi(b)
            if arch_cmp(ca - cb, a - b) != -1:
                report.fail("contraction-difference-class", case, a=a, b=b)
            lo, hi, c_lo, c_hi = (a, b, ca, cb) if order < 0 else (b, a, cb, ca)
            if not lo - c_lo < hi - c_hi:
                report.fail("contraction-monotone", case, a=lo, b=hi)
        # Overspill: from integrate(a) < 0, stepping by multiples of the
        # successor gap crosses to positive integrals for n >= 1.
        if ia < GroupElem.ZERO:
            gap = sa - a
            for n in (1, 2, 3):
                if not integrate(a + gap.scale(n + 1)) > GroupElem.ZERO:
                    report.fail("overspill", case, a=a, n=n)
        # Telescope: integrate(der(g) - integrate(successor(der(g)))) = g - chi(g).
        dg = der(g)
        if integrate(dg - integrate(successor(dg))) != g - cg:
            report.fail("yardstick-telescope", case, g=g)
        if ia > GroupElem.ZERO:
            neg_int_succ = -integrate(sa)
            if not (ia > neg_int_succ and neg_int_succ == -chi(ia) and neg_int_succ > GroupElem.ZERO):
                report.fail("yardstick-bound", case, a=a)
        # The gain -integrate(successor(.)) is monotone on elements whose
        # integral is positive; without that restriction it is not.
        if order <= 0:
            lo, hi, ilo, slo, shi = a, b, ia, sa, sb
        else:
            lo, hi, ilo, slo, shi = b, a, integrate(b), sb, sa
        if ilo > GroupElem.ZERO:
            if -integrate(slo) > -integrate(shi):
                report.fail("yardstick-monotone", case, a=lo, b=hi)
    return report


GRID_COEFFS = [Fraction(q) for q in (-2, -1, "-1/2", 0, "1/2", 1, 2)]


def conformance_grid() -> Report:
    """Exhaustively pin the displayed vector formulas on the small grid.

    Every vector with support inside {0, 1, 2} and coefficients from
    {-2, -1, -1/2, 0, 1/2, 1, 2} is checked against direct re-derivations
    of psi, integrate, successor and chi written out locally.
    """
    report = Report("conformance-grid", 0, len(GRID_COEFFS) ** 3, "op")
    for r0, r1, r2 in product(GRID_COEFFS, repeat=3):
        g = GroupElem.from_list([r0, r1, r2])
        dense = [r0, r1, r2, Fraction(0), Fraction(0)]
        nz = [i for i, c in enumerate(dense) if c]
        if nz:
            psi_ok = psi(g) == ones(nz[0] + 1)
        else:
            psi_ok = psi(g) is INFINITY
        if not psi_ok:
            report.fail("psi", g=g)

        non1 = [i for i, c in enumerate(dense) if c != 1][0]
        expected_int = GroupElem(
            [(non1, dense[non1] - 1)] + [(i, dense[i]) for i in range(non1 + 1, 5)]
        )
        if integrate(g) != expected_int:
            report.fail("integrate", g=g)

        if successor(g) != ones(non1 + 1):
            report.fail("successor", g=g)

        expected_chi = GroupElem.ZERO if not nz else unit(nz[0] + 1).scale(-1)
        if chi(g) != expected_chi:
            report.fail("chi", g=g)
    return report


@cache
def _check_family() -> list[GroupElem]:
    """The nonzero vectors with support in {0, 1, 2} and coefficients from
    {-1, 0, 1/2, 1}: every branch of the closed forms of der and integrate.
    Built on first use, so that importing aclab does not pay for it."""
    return [GroupElem.from_list(c) for c in product((-1, 0, Fraction(1, 2), 1), repeat=3) if any(c)]


def classify_couple(desc: Union[str, CoupleDescriptor]) -> TrichotomyResult:
    """Place the couple instance in the trichotomy, re-verifying the verdict
    exactly, without sampling.

    Grounded: psi depends only on the first index, so one vector per first
    index below the bound shows the maximum of the psi image.  Asymptotic
    integration: integrate and der are mutually inverse on _check_family().
    Gap: delta lies strictly above the psi image up to index 32 and strictly
    below the derivative of each positive vector of a fixed family.
    """
    desc = CoupleDescriptor.parse(desc) if isinstance(desc, str) else desc
    if desc.kind == "trunc":
        bound = desc.n
        top = ones(bound)
        for k in range(bound):
            if not psi(unit(k)) <= top:
                raise ArithmeticError("grounded certificate failed: psi exceeds the claimed maximum")
        if psi(unit(bound - 1)) != top:
            raise ArithmeticError("grounded certificate failed: maximum not attained")
        return TrichotomyResult("grounded", max_psi=top)
    if desc.kind == "logfull":
        for g in _check_family():
            if integrate(der(g)) != g:
                raise ArithmeticError("integration certificate failed: integrate(der(g)) != g")
            if der(integrate(g)) != g:
                raise ArithmeticError("integration certificate failed: der(integrate(g)) != g")
        return TrichotomyResult("asymptotic-integration")
    # The gap couple: psi image < delta < derivatives of positives.
    for k in range(0, 33):
        if not DELTA > ones(k + 1):
            raise ArithmeticError("gap certificate failed: delta not above the psi image")
    positives = [unit(k).scale(Fraction(1, m)) for k in range(0, 12) for m in (1, 2, 5)]
    for g in positives + [g for g in _check_family() if g.sign() > 0]:
        if not der(g) > DELTA:
            raise ArithmeticError("gap certificate failed: delta not below a derivative")
    return TrichotomyResult("gap", gap=DELTA)


def closure_count(result: TrichotomyResult, lambda_free: str) -> str:
    """How many Liouville closures the classified field admits: ``one``,
    ``two``, or ``unknown``.

    The inconsistent combination of a gap with lambda-freeness is rejected:
    a couple with a gap is never lambda-free.
    """
    if lambda_free not in ("yes", "no", "unknown"):
        raise ValueError(f"lambda_free must be yes/no/unknown, got {lambda_free!r}")
    if result.kind == "gap":
        if lambda_free == "yes":
            raise ValueError("inconsistent input: a couple with a gap cannot be lambda-free")
        return "two"
    if result.kind == "grounded":
        return "one"
    if result.kind == "asymptotic-integration":
        if lambda_free == "yes":
            return "one"
        if lambda_free == "no":
            return "two"
        return "unknown"
    raise ValueError(f"unrecognized trichotomy kind {result.kind!r}")
