"""Pseudocauchy sequences over the logarithmic field.

A finite tuple of field elements is a pseudocauchy prefix when, from some
index on, valuations of successive differences strictly increase; the
classical three-index condition v(a_k - a_j) > v(a_j - a_i) for k > j > i
then follows from the ultrametric.  The checks here work on explicit
prefixes and report verdicts with witnesses: ``yes`` carries the starting
index, ``no`` carries the violating data, and ``inconclusive`` means the
prefix is too short to decide the question either way.

The central example is the sequence lambda_n = x^-1 + (x l1)^-1 + ... +
(x l1 ... ln)^-1, equal to -(ln^dag)^dag, whose widths walk the psi set.
It has no pseudolimit in the field; the witness function below locates,
for a given element s, the first n at which s visibly parts ways with
-lambda_n.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .acouple import Report
from .logts import Frac, ell, logderiv, random_frac
from .ogroup import GammaInf, GroupElem, ones, vector_json

YES = "yes"
NO = "no"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SeqVerdict:
    status: str
    index: Optional[int] = None
    witness: dict = field(default_factory=dict, compare=False)

    def to_dict(self) -> dict:
        out = {"status": self.status}
        if self.index is not None:
            out["index"] = self.index
        if self.witness:
            out["witness"] = dict(self.witness)
        return out


@dataclass(frozen=True)
class PCSeq:
    """An explicit prefix of a sequence of field elements."""

    points: tuple[Frac, ...]

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, i: int) -> Frac:
        return self.points[i]


def _widths(seq: PCSeq, start: int = 0) -> list[GammaInf]:
    """v(a_{rho+1} - a_rho) for rho from ``start`` on."""
    return [(seq[rho + 1] - seq[rho]).valuation() for rho in range(start, len(seq) - 1)]


def _suffix_start(flags: list[bool], last: int) -> Optional[int]:
    """The least start <= last from which every flag holds, else None."""
    start = len(flags)
    while start and flags[start - 1]:
        start -= 1
    return start if start <= last else None


def _require_four(n: int) -> None:
    if n < 4:
        raise ValueError("pseudocauchy checks need at least 4 points")


def is_pc_prefix(seq: PCSeq) -> SeqVerdict:
    """The least start index making every later difference triple satisfy
    v(a_k - a_j) > v(a_j - a_i).  By the ultrametric this holds exactly when
    the successive widths v(a_{rho+1} - a_rho) strictly increase from the
    start on (infinity on top), so other differences are computed only for
    a ``no``, whose witness is the lexicographically first bad triple."""
    return _pc_verdict(seq, _widths(seq))


def _pc_verdict(seq: PCSeq, widths: list[GammaInf]) -> SeqVerdict:
    n = len(seq)
    _require_four(n)
    start = _suffix_start([b > a for a, b in zip(widths, widths[1:])], n - 3)
    if start is not None:
        return SeqVerdict(YES, start)

    @lru_cache(maxsize=None)
    def v(i: int, j: int) -> GammaInf:
        return widths[i] if j == i + 1 else (seq[j] - seq[i]).valuation()

    i, j, k = next((i, j, k) for i in range(n - 2) for j in range(i + 1, n - 1)
                   for k in range(j + 1, n) if v(j, k) <= v(i, j))
    return SeqVerdict(NO, witness={
        "indices": [i, j, k],
        "low": vector_json(v(i, j)),
        "high": vector_json(v(j, k)),
    })


def width_prefix(seq: PCSeq, start: int = 0) -> list[GroupElem]:
    """The strictly increasing valuations of successive differences from
    ``start`` on; raises if a difference vanishes or the increase fails."""
    widths = _widths(seq, start)
    for r, v in enumerate(widths):
        if not isinstance(v, GroupElem):
            raise ValueError(f"equal consecutive points at index {start + r}")
        if r and v <= widths[r - 1]:
            raise ValueError(f"widths fail to increase at index {start + r}")
    return widths


def pseudolimit_check(seq: PCSeq, x: Frac) -> SeqVerdict:
    """Decide from the prefix whether x behaves as a pseudolimit:
    v(x - a_rho) must strictly increase from some index on, with at least
    three points of evidence.  Hitting a point and moving on is a refusal;
    hitting only the final point leaves the prefix inconclusive."""
    vs = [(x - a).valuation() for a in seq.points]
    n = len(vs)
    _require_four(n)
    inf_at = [i for i, v in enumerate(vs) if not isinstance(v, GroupElem)]
    if inf_at:
        p = inf_at[0]
        if p < n - 1:
            return SeqVerdict(NO, witness={
                "reason": "x equals a point and later differences stay level",
                "index": p,
            })
        return SeqVerdict(INCONCLUSIVE, witness={
            "reason": "x equals the final point of the prefix",
            "index": p,
        })
    rising = [b > a for a, b in zip(vs, vs[1:])]
    start = _suffix_start(rising, n - 3)
    if start is not None:
        return SeqVerdict(YES, start)
    bad = rising.index(False)
    return SeqVerdict(NO, witness={
        "index": bad,
        "at": vector_json(vs[bad]),
        "next": vector_json(vs[bad + 1]),
    })


def equivalent_prefix(a: PCSeq, b: PCSeq) -> SeqVerdict:
    """Sufficient same-pseudolimit check on a common prefix: from some
    index the two width sequences agree and the cross difference lies
    strictly above the shared width, so any pseudolimit of one sequence
    is forced (ultrametrically) to be a pseudolimit of the other.  A ``no``
    reports the last index where the condition fails: it blocks every start."""
    n = min(len(a), len(b))
    _require_four(n)
    da = _widths(PCSeq(a.points[:n]))
    db = _widths(PCSeq(b.points[:n]))
    cross = [(b[r] - a[r]).valuation() for r in range(n - 1)]
    holds = [da[r] == db[r] and cross[r] > da[r] for r in range(n - 1)]
    start = _suffix_start(holds, n - 4)
    if start is not None:
        return SeqVerdict(YES, start)
    bad = max(r for r, ok in enumerate(holds) if not ok)
    return SeqVerdict(NO, witness={
        "index": bad,
        "width_a": vector_json(da[bad]),
        "width_b": vector_json(db[bad]),
        "cross": vector_json(cross[bad]),
    })


# ---------------------------------------------------------------------------
# The lambda sequence.

# Bounded, yet large enough to hold the lambda suite's default prefix (12)
# and every `aclab lambda n` up to n = 31 at once.
LAMBDA_CACHE_SIZE = 32


@lru_cache(maxsize=LAMBDA_CACHE_SIZE)
def lambda_term(n: int) -> Frac:
    """lambda_n as the explicit sum of logarithmic derivatives, checked
    against the defining form -(ln^dag)^dag."""
    if n < 0:
        raise ValueError("lambda terms are indexed from 0")
    total = Frac.ZERO
    for i in range(n + 1):
        total = total + logderiv(ell(i))
    defining = -logderiv(logderiv(ell(n)))
    if total != defining:
        raise ArithmeticError(f"lambda_{n}: sum and defining form disagree")
    return total


def lambda_seq(count: int) -> PCSeq:
    return PCSeq(tuple(lambda_term(n) for n in range(count)))


def perturbed_lambda_seq(count: int) -> PCSeq:
    """Same construction applied to m_n = ln (1 + l_{n+1}^-1); the widths
    match lambda's and the cross differences sit above them."""
    points = []
    for n in range(count):
        m = ell(n) * (Frac.ONE + ell(n + 1).inv())
        points.append(-logderiv(logderiv(m)))
    return PCSeq(tuple(points))


def lambda_free_witness(s: Frac, limit: int) -> Optional[int]:
    """The least n <= limit with v(s + lambda_n) <= ones(n + 1), i.e. the
    first stage where s visibly fails to continue the -lambda pattern;
    None when the whole range keeps canceling (never with an infinite
    valuation, which only says s + lambda_n vanished exactly)."""
    for n in range(limit + 1):
        v = (s + lambda_term(n)).valuation()
        if v <= ones(n + 1):
            return n
    return None


# ---------------------------------------------------------------------------
# Rational images of pseudocauchy sequences.

@dataclass(frozen=True)
class RatFunc:
    """A one-variable rational function with exact coefficients,
    low-degree-first."""

    num: tuple[Fraction, ...]
    den: tuple[Fraction, ...] = (Fraction(1),)

    def __post_init__(self) -> None:
        if not any(self.den):
            raise ZeroDivisionError("zero denominator polynomial")
        if not any(self.num):
            raise ValueError("the zero function has no valuation law")

    def degree(self) -> int:
        return max(_poly_deg(self.num), _poly_deg(self.den))

    def is_constant(self) -> bool:
        return _cross_proportional(self.num, self.den)

    def __call__(self, x: Frac) -> Frac:
        return _poly_eval(self.num, x) / _poly_eval(self.den, x)

    def label(self) -> str:
        return f"({_poly_str(self.num)}) / ({_poly_str(self.den)})"


def _poly_deg(coeffs: tuple[Fraction, ...]) -> int:
    deg = 0
    for i, c in enumerate(coeffs):
        if c:
            deg = i
    return deg


def _cross_proportional(p: tuple[Fraction, ...], q: tuple[Fraction, ...]) -> bool:
    width = max(len(p), len(q))
    pp = tuple(p) + (Fraction(0),) * (width - len(p))
    qq = tuple(q) + (Fraction(0),) * (width - len(q))
    return all(pp[i] * qq[j] == pp[j] * qq[i] for i in range(width) for j in range(width))


def _poly_eval(coeffs: tuple[Fraction, ...], x: Frac) -> Frac:
    acc = Frac.ZERO
    for c in reversed(coeffs):
        acc = acc * x + Frac.from_rat(c)
    return acc


def _poly_str(coeffs: tuple[Fraction, ...]) -> str:
    parts = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append(f"{c}*X" if c != 1 else "X")
        else:
            parts.append(f"{c}*X^{i}" if c != 1 else f"X^{i}")
    return " + ".join(parts) if parts else "0"


def _rat(*values: object) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


R_FAMILY: tuple[RatFunc, ...] = tuple(
    RatFunc(num, den)
    for num in (_rat(1), _rat(0, 1), _rat(5, 1), _rat(0, 0, 1),
                _rat(-1, 0, 1), _rat(0, 0, 0, 1), _rat(-2, 1, 0, 1))
    for den in (_rat(1), _rat(17, 1), _rat(1, 0, 1), _rat(29, 1, 0, 1))
    if not (num == _rat(1) and den == _rat(1))
)


def kaplansky_fit(gammas: list[GroupElem], ws: list[GroupElem]) -> Optional[tuple[int, GroupElem]]:
    """Fit w = alpha + i * gamma with a positive integer i across the whole
    prefix; the multiplier is read off the first coordinate where two
    gammas differ."""
    if len(gammas) != len(ws) or len(gammas) < 2:
        raise ValueError("need at least two matched valuation pairs")
    dg = gammas[1] - gammas[0]
    dw = ws[1] - ws[0]
    if dg.is_zero():
        return None
    j = dg.first_index()
    ratio = dw.coeff(j) / dg.coeff(j)
    if ratio.denominator != 1 or ratio < 1:
        return None
    i = int(ratio)
    alpha = ws[0] - gammas[0].scale(i)
    for g, w in zip(gammas, ws):
        if w != alpha + g.scale(i):
            return None
    return i, alpha


def kaplansky_check(seq: PCSeq, limit: Frac, rfunc: RatFunc) -> SeqVerdict:
    """Push a pseudocauchy prefix with pseudolimit through a nonconstant
    rational function: the image must again be pseudocauchy with the image
    of the limit as pseudolimit, and its widths must follow the affine law
    in the original widths."""
    if rfunc.is_constant():
        raise ValueError("constant functions collapse the sequence")
    image = PCSeq(tuple(rfunc(p) for p in seq.points))
    target = rfunc(limit)
    ws = _widths(image)
    pc = _pc_verdict(image, ws)
    if pc.status != YES:
        return SeqVerdict(NO, witness={"stage": "image-pc", **pc.to_dict()})
    pl = pseudolimit_check(image, target)
    if pl.status != YES:
        return SeqVerdict(NO, witness={"stage": "image-pseudolimit", **pl.to_dict()})
    start = max(pc.index, pl.index)
    if len(seq) - 1 - start < 2:
        return SeqVerdict(INCONCLUSIVE, witness={"stage": "affine-law", "start": start})
    # ws[start:] is what width_prefix(image, start) returns: the widths rise
    # from pc.index, and the last is finite since v(target - a_rho) rises.
    fit = kaplansky_fit(width_prefix(seq, start), ws[start:])
    if fit is None:
        return SeqVerdict(NO, witness={"stage": "affine-law", "start": start})
    i, alpha = fit
    return SeqVerdict(YES, start, witness={"multiplier": i, "offset": vector_json(alpha)})


def shipped_pairs() -> list[tuple[str, PCSeq, Frac]]:
    """Ten (sequence, pseudolimit) pairs: a_rho = a + r_rho with strictly
    increasing v(r_rho)."""
    x = ell(0)
    xi = x.inv()
    l1 = ell(1)
    one = Frac.ONE

    def seq(a: Frac, rs: list[Frac]) -> tuple[PCSeq, Frac]:
        return PCSeq(tuple(a + r for r in rs)), a

    pairs = []
    pow_x = [xi ** (k + 1) for k in range(7)]
    pairs.append(("zero-limit", *seq(Frac.ZERO, pow_x)))
    pairs.append(("unit-limit", *seq(one, pow_x)))
    pairs.append(("inverse-limit", *seq(xi, [xi ** (k + 2) for k in range(6)])))
    pairs.append(("affine-limit", *seq(Frac.from_rat(2) + xi.scale(3),
                                       [(xi ** (k + 1)) * l1.inv() for k in range(6)])))
    pairs.append(("log-limit", *seq(l1, pow_x[:6])))
    pairs.append(("large-limit", *seq(x, [l1.inv() ** (k + 1) for k in range(6)])))
    q = (one + xi) / (one - xi)
    pairs.append(("quotient-limit", *seq(q, [xi ** (2 * k + 3) for k in range(6)])))
    pairs.append(("constant-limit", *seq(Frac.from_rat(5),
                                         [(xi ** (k + 1)) * ell(2).inv() for k in range(6)])))
    pairs.append(("polynomial-limit", *seq(x * x + x, pow_x[:6])))
    pairs.append(("deep-limit", *seq(xi * (l1.inv() ** 2),
                                     [xi * (l1.inv() ** 2) * (ell(2).inv() ** (k + 1))
                                      for k in range(6)])))
    return pairs


def kaplansky_suite(max_degree: int = 3) -> Report:
    """Every nonconstant family member up to the degree bound, applied to
    every shipped pair."""
    family = [r for r in R_FAMILY if r.degree() <= max_degree and not r.is_constant()]
    pairs = shipped_pairs()
    report = Report("kaplansky", 0, len(pairs) * len(family), "pair")
    for name, seq, limit in pairs:
        for rfunc in family:
            verdict = kaplansky_check(seq, limit, rfunc)
            if verdict.status != YES:
                report.fail(name, rfunc=rfunc.label(), **verdict.to_dict())
    return report


def lambda_suite(prefix_len: int = 12, corpus_size: int = 1000, seed: int = 31) -> Report:
    """The lambda prefix is pseudocauchy from 0 with widths ones(n+2), the
    perturbed variant is equivalent, no corpus element is a pseudolimit,
    and every corpus element gets a parting witness within the prefix."""
    report = Report("lambda", seed, corpus_size + prefix_len + 2, "check")
    lam = lambda_seq(prefix_len)
    pc = is_pc_prefix(lam)
    if pc.status != YES or pc.index != 0:
        report.fail("lambda-pc", 0, verdict=pc.to_dict())
    widths = width_prefix(lam)
    for n, w in enumerate(widths):
        if w != ones(n + 2):
            report.fail("lambda-width", n, got=w, expect=ones(n + 2))
    eq = equivalent_prefix(lam, perturbed_lambda_seq(prefix_len))
    if eq.status != YES:
        report.fail("lambda-equivalent", 0, verdict=eq.to_dict())

    rng = random.Random(seed)
    for case in report.each(corpus_size):
        s = random_frac(rng)
        pl = pseudolimit_check(lam, s)
        if pl.status == YES:
            report.fail("corpus-pseudolimit", case, element=s)
        w = lambda_free_witness(s, prefix_len)
        if w is None or w > prefix_len:
            report.fail("corpus-witness", case, element=s, witness=w)
    return report
