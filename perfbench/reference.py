"""Stdlib-only reference answers for the `queries` workload.

Nothing here imports aclab: valuations, psi and the derivative on the
value group are computed from the textbook definitions, and verdicts come
from a hand-written table, so a wrong answer from the code under test
cannot also be the expected one.

Vectors are dicts from coordinate index to nonzero Fraction; the order is
lexicographic with coordinate 0 dominant.  A monomial x^r0 * l1^r1 * ...
has valuation -(r0, r1, ...); the valuation of a product is the sum, of a
sum of distinct monomials the minimum, and for v(f) != 0 the derivative
has v(f') = v(f) + psi(v(f)) with psi(g) = e0 + ... + en, n the first
nonzero index of g.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cmp_to_key

GEN_NAMES = ("x", "l1", "l2", "l3", "l4")
EXP_POOL = [Fraction(n) for n in (-3, -2, -1, 1, 2, 3)] + [
    Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(-3, 2)]
COEFF_POOL = [Fraction(n) for n in (1, 2, 3, 5, 7, 9)] + [
    Fraction(1, 2), Fraction(3, 4), Fraction(5, 3)]
VEC_POOL = [Fraction(n) for n in (-2, -1, 1, 2, 3)] + [Fraction(1, 2), Fraction(-1, 2)]


# ---------------------------------------------------------------------------
# The value group.

def vec(items) -> dict:
    return {i: Fraction(c) for i, c in items if c}


def vadd(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for i, c in b.items():
        out[i] = out.get(i, Fraction(0)) + sign * c
    return {i: c for i, c in out.items() if c}


def vscale(a: dict, k) -> dict:
    return {i: c * k for i, c in a.items() if c * k}


def vkey(a: dict) -> tuple:
    """Dense coordinates up to the last nonzero one."""
    width = max(a, default=-1) + 1
    return tuple(a.get(i, Fraction(0)) for i in range(width))


def vcmp(a: dict, b: dict) -> int:
    width = max(max(a, default=-1), max(b, default=-1)) + 1
    for i in range(width):
        x, y = a.get(i, Fraction(0)), b.get(i, Fraction(0))
        if x != y:
            return -1 if x < y else 1
    return 0


def psi(g: dict) -> dict:
    if not g:
        raise ValueError("psi is undefined at 0")
    return {i: Fraction(1) for i in range(min(g) + 1)}


def der(g: dict) -> dict:
    return vadd(g, psi(g))


def from_json(value) -> dict:
    """Parse aclab's dense JSON vector (ints and "p/q" strings)."""
    if not isinstance(value, list):
        raise ValueError(f"not a vector: {value!r}")
    return vec((i, Fraction(c)) for i, c in enumerate(value))


def vtext(a: dict) -> str:
    """Bracketed vector text as accepted by the descriptor parser."""
    return "[" + ", ".join(str(c) for c in vkey(a)) + "]"


# ---------------------------------------------------------------------------
# Expressions with known valuations.

def _exp_text(e: Fraction) -> str:
    if e == 1:
        return ""
    if e.denominator == 1:
        return f"^{e}"
    return f"^({e})"


def monomial_text(coeff: Fraction, exps: dict) -> str:
    parts = [] if coeff == 1 and exps else [str(coeff)]
    parts += [GEN_NAMES[i] + _exp_text(e) for i, e in sorted(exps.items())]
    return "*".join(parts)


def random_sum(rng: random.Random) -> tuple[str, dict]:
    """A sum of 1-3 distinct monomials with nonzero coefficients; no
    cancellation, so its valuation is the least monomial valuation."""
    seen: dict[tuple, dict] = {}
    for _ in range(rng.randint(1, 3)):
        exps = {}
        for i in rng.sample(range(len(GEN_NAMES)), rng.randint(0, 2)):
            exps[i] = rng.choice(EXP_POOL)
        seen.setdefault(vkey(exps), exps)
    text = ""
    for n, exps in enumerate(seen.values()):
        coeff = rng.choice(COEFF_POOL)
        negative = rng.random() < 0.4
        body = monomial_text(coeff, exps)
        if n == 0:
            text = ("-" if negative else "") + body
        else:
            text += (" - " if negative else " + ") + body
    val = min((vscale(e, -1) for e in seen.values()), key=cmp_to_key(vcmp))
    return text, val


def random_expression(rng: random.Random) -> tuple[str, dict | None]:
    """(text, valuation) with valuation None meaning infinity."""
    kind = rng.randrange(7)
    s1, v1 = random_sum(rng)
    if kind == 0:
        return s1, v1
    s2, v2 = random_sum(rng)
    if kind == 1:
        return f"({s1})*({s2})", vadd(v1, v2)
    if kind == 2:
        return f"({s1})/({s2})", vadd(v1, v2, -1)
    if kind == 3:
        k = rng.choice([-2, -1, 2, 3])
        return f"({s1})^{k}", vscale(v1, k)
    if kind == 4:
        prod = vadd(v1, v2)
        if not prod:
            return f"({s1})*({s2})", prod
        return f"D(({s1})*({s2}))", der(prod)
    if kind == 5:
        s3, v3 = random_sum(rng)
        return f"({s1})*({s2})/({s3})", vadd(vadd(v1, v2), v3, -1)
    return f"({s1}) - ({s1})", None


def nonzero_expression(rng: random.Random) -> tuple[str, dict]:
    while True:
        text, val = random_expression(rng)
        if val:
            return text, val


# ---------------------------------------------------------------------------
# Set verdicts and couple classes, from README, the tests and the paper.

def random_vector(rng: random.Random) -> dict:
    return vec((i, rng.choice(VEC_POOL)) for i in range(rng.randint(1, 4))
               if rng.random() < 0.8)


# Fixed (descriptor, query) -> verdict rows.  Principal downsets and the
# psi downset are jammed and stay so under affine maps and downward
# closure; a greatest element leaves both properties undefined; the
# negative cone is the one downset with a yardstick and jammedness
# (exclusion law), the psi downset and (less [1]) fail the yardstick with a
# cofinal escape; every extension scenario set has a yardstick and a
# derived yardstick; the integral image of the smallint set and its
# downward closure are not jammed (README, criterion 4).
FIXED_VERDICTS = [
    ("psidown", "jammed", "holds"),
    ("psidown", "yardstick", "fails"),
    ("(down psidown)", "jammed", "holds"),
    ("(less [])", "jammed", "holds"),
    ("(less [])", "yardstick", "holds"),
    ("(less [1])", "yardstick", "fails"),
    ("(leq [0, 1])", "jammed", "unknown"),
    ("(leq [0, 1])", "yardstick", "unknown"),
    ("(exts smallint)", "yardstick", "holds"),
    ("(exts smallexpint)", "yardstick", "holds"),
    ("(exts bigint)", "yardstick", "holds"),
    ("(exts smallint)", "derived-yardstick", "holds"),
    ("(exts smallexpint)", "derived-yardstick", "holds"),
    ("(exts bigint)", "derived-yardstick", "holds"),
    ("(int (exts smallint))", "jammed", "fails"),
    ("(int (exts smallint))", "yardstick", "holds"),
    ("(down (int (exts smallint)))", "jammed", "fails"),
    ("(down (int (exts smallint)))", "yardstick", "holds"),
]


def random_set_query(rng: random.Random) -> tuple[str, str, str]:
    """(descriptor, query, expected verdict)."""
    kind = rng.randrange(6)
    if kind == 0:
        return rng.choice(FIXED_VERDICTS)
    if kind == 1:
        return f"(less {vtext(random_vector(rng))})", "jammed", "holds"
    if kind == 2:
        return f"(leq {vtext(random_vector(rng))})", "jammed", "unknown"
    alpha = vtext(random_vector(rng))
    n = rng.randint(1, 5)
    if kind == 3:
        return f"(affine {alpha} {n} psidown)", "jammed", "holds"
    if kind == 4:
        inner = f"(less {vtext(random_vector(rng))})"
        return f"(affine {alpha} {n} {inner})", "jammed", "holds"
    return f"(down (less {vtext(random_vector(rng))}))", "jammed", "holds"


def classify_expected(couple: str, lambda_free: str | None) -> tuple[int, dict]:
    """(exit code, payload) for `aclab classify`.  A grounded couple has
    one Liouville closure, a gap couple two, and a couple with asymptotic
    integration one exactly when it is lambda-free; a gap couple cannot be
    lambda-free, so that input is rejected."""
    if couple.startswith("trunc:"):
        payload = {"kind": "grounded", "max_psi": [1] * int(couple[6:])}
        closures = "one"
    elif couple == "logfull":
        payload = {"kind": "asymptotic-integration"}
        closures = {"yes": "one", "no": "two", "unknown": "unknown"}.get(lambda_free)
    elif couple == "loggap":
        if lambda_free == "yes":
            return 2, {}
        payload = {"gap": "delta", "kind": "gap"}
        closures = "two"
    else:
        raise ValueError(couple)
    if lambda_free is not None:
        payload["closures"] = closures
    return 0, payload


def lambda_text(n: int) -> str:
    """lambda_n = 1/x + 1/(x l1) + ... + 1/(x l1 ... ln), in aclab's
    printed form (README: lambda 1 is "x^-1 + (x*l1)^-1")."""
    terms, names = ["x^-1"], ["x"]
    for k in range(1, n + 1):
        names.append(f"l{k}")
        terms.append("(" + "*".join(names) + ")^-1")
    return " + ".join(terms)
