"""A desk-scale ordered valued differential field of logarithmic monomials.

Elements are fractions of finite rational-coefficient sums of monomials
``l0^r0 * l1^r1 * ... * lk^rk`` in the iterated-logarithm generators
(``l0`` is written ``x``).  The tower is closed under differentiation
because each logarithmic derivative ``li' / li`` is itself the monomial
``(l0*...*li)^-1``; consequently

    m' = m * sum_i r_i * (l0*...*li)^-1        for m = prod li^ri.

The valuation of a monomial is minus its exponent vector, so ``x`` is
large (``v(x) = -e_0 < 0``) and ``1/x`` is small.  Ordering is by the
sign of the leading coefficient, which is the transseries ordering
restricted to this subfield; the valuation ring is convex and the
constants are exactly the rationals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Union

from .acouple import Report, integrate, psi
from .ogroup import INFINITY, GammaInf, GroupElem, RatLike, as_rat, ones, unit


# Monomials are hash-consed (Filliatre & Conchon, "Type-safe modular
# hash-consing", 2006): ``Monomial(g)`` returns the live instance for ``g``
# from an intern table, and each ordered product of two instances is memoised.
# Both tables are emptied together when either reaches its cap, which bounds
# their memory.  A monomial built before a clear is then a different object
# from an equal one built after it, so equality falls back to comparing
# exponent vectors and no result depends on which instance is used.
INTERN_CAP = 1024
PRODUCT_CAP = 4 * INTERN_CAP

# Keyed by _int_key(g), which also serves the structural equality fallback.
_interned: dict[tuple[int, ...], "Monomial"] = {}
# (id(a), id(b)) -> (a, b, a * b).  Holding the factors keeps both ids from
# being reused by other objects while the entry exists.
_products: dict[tuple[int, int], tuple["Monomial", "Monomial", "Monomial"]] = {}


def _int_key(exponents: GroupElem) -> tuple[int, ...]:
    """The exponent vector as flat integers (index, numerator, denominator,
    ...), which compare in C where the Fractions of a GroupElem do not."""
    key: list[int] = []
    for i, c in exponents.items:
        key += (i, c.numerator, c.denominator)
    return tuple(key)


def _clear_tables() -> None:
    _interned.clear()
    _products.clear()


class Monomial:
    """A single product of generator powers, keyed by its exponent vector."""

    __slots__ = ("exponents", "_key", "_hash", "_derivative")

    ONE: "Monomial"

    def __new__(cls, exponents: GroupElem = GroupElem.ZERO) -> "Monomial":
        key = _int_key(exponents)
        mono = _interned.get(key)
        if mono is None:
            if len(_interned) >= INTERN_CAP:
                _clear_tables()
            mono = object.__new__(cls)
            object.__setattr__(mono, "exponents", exponents)
            object.__setattr__(mono, "_key", key)
            object.__setattr__(mono, "_hash", hash(("mono", exponents)))
            object.__setattr__(mono, "_derivative", None)
            _interned[key] = mono
        return mono

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Monomial is immutable")

    def valuation(self) -> GroupElem:
        return -self.exponents

    def __mul__(self, other: "Monomial") -> "Monomial":
        key = (id(self), id(other))
        hit = _products.get(key)
        if hit is not None:
            return hit[2]
        if len(_products) >= PRODUCT_CAP:
            _clear_tables()
        product = Monomial(self.exponents + other.exponents)
        _products[key] = (self, other, product)
        return product

    def __pow__(self, power: RatLike) -> "Monomial":
        return Monomial(self.exponents.scale(as_rat(power)))

    def inv(self) -> "Monomial":
        return Monomial(-self.exponents)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Monomial):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def derivative_terms(self) -> tuple[tuple["Monomial", Fraction], ...]:
        """The finitely many terms of m': coefficient r_i on m * (l0...li)^-1."""
        terms = self._derivative
        if terms is None:
            exps = self.exponents
            terms = tuple((Monomial(exps - ones(i + 1)), r) for i, r in exps.items)
            object.__setattr__(self, "_derivative", terms)
        return terms

    def __str__(self) -> str:
        if self.exponents.is_zero():
            return "1"
        items = self.exponents.items
        exps = {c for _, c in items}
        if len(items) > 1 and len(exps) == 1:
            # Factored shorthand for equal powers: (x*l1*l2)^-1 instead of
            # x^-1*l1^-1*l2^-1.
            inner = "*".join(_gen_name(i) for i, _ in items)
            (e,) = exps
            if e == 1:
                return inner
            return f"({inner})^{_exp_text(e)}"
        parts = []
        for i, e in items:
            name = _gen_name(i)
            parts.append(name if e == 1 else f"{name}^{_exp_text(e)}")
        return "*".join(parts)


Monomial.ONE = Monomial()


def _gen_name(index: int) -> str:
    return "x" if index == 0 else f"l{index}"


def _exp_text(e: Fraction) -> str:
    if e.denominator == 1:
        return str(e)
    return f"({e})"


class Series:
    """A finite rational combination of monomials in canonical form.

    The term map never stores zero coefficients; the zero series is the
    empty map.  The leading term is the one of minimal valuation, i.e.
    maximal exponent vector, and is unique because the monomial order is
    total.
    """

    __slots__ = ("_terms", "_lead")

    ZERO: "Series"
    ONE: "Series"

    def __init__(self, terms: Union[Mapping[Monomial, RatLike], Iterable[tuple[Monomial, RatLike]]] = ()) -> None:
        if isinstance(terms, Mapping):
            pairs = terms.items()
        else:
            pairs = terms
        cleaned: dict[Monomial, Fraction] = {}
        for mono, raw in pairs:
            c = as_rat(raw)
            if not c:
                continue
            acc = cleaned.get(mono)
            total = c if acc is None else acc + c
            if total:
                cleaned[mono] = total
            elif acc is not None:
                del cleaned[mono]
        object.__setattr__(self, "_terms", cleaned)
        object.__setattr__(self, "_lead", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Series is immutable")

    @classmethod
    def from_rat(cls, value: RatLike) -> "Series":
        return cls(((Monomial.ONE, as_rat(value)),))

    @classmethod
    def monomial(cls, mono: Monomial, coeff: RatLike = 1) -> "Series":
        return cls(((mono, as_rat(coeff)),))

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        return dict(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def leading(self) -> tuple[Monomial, Fraction]:
        """The term of minimal valuation; error on the zero series."""
        if not self._terms:
            raise ValueError("the zero series has no leading term")
        cached = self._lead
        if cached is None:
            best = None
            for mono in self._terms:
                if best is None or mono.exponents > best.exponents:
                    best = mono
            cached = (best, self._terms[best])
            object.__setattr__(self, "_lead", cached)
        return cached

    def valuation(self) -> GammaInf:
        if not self._terms:
            return INFINITY
        return self.leading()[0].valuation()

    def __add__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        merged = dict(self._terms)
        for mono, c in other._terms.items():
            acc = merged.get(mono)
            total = c if acc is None else acc + c
            if total:
                merged[mono] = total
            elif acc is not None:
                del merged[mono]
        return _from_terms(merged)

    def __neg__(self) -> "Series":
        return self.scale(-1)

    def __sub__(self, other: "Series") -> "Series":
        return self + (-other)

    def scale(self, factor: RatLike) -> "Series":
        q = as_rat(factor)
        if not q:
            return Series.ZERO
        return _from_terms({m: c * q for m, c in self._terms.items()})

    def mul_term(self, mono: Monomial, coeff: RatLike = 1) -> "Series":
        q = as_rat(coeff)
        if not q or not self._terms:
            return Series.ZERO
        return _from_terms({m * mono: c * q for m, c in self._terms.items()})

    def __mul__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        if not self._terms or not other._terms:
            return Series.ZERO
        a, b = self._terms, other._terms
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            ((mono, coeff),) = b.items()
            if len(a) == 1:
                ((ma, ca),) = a.items()
                return Series.monomial(ma * mono, ca * coeff)
            other_only = self if a is self._terms else other
            return other_only.mul_term(mono, coeff)
        acc: dict[Monomial, Fraction] = {}
        for mb, cb in b.items():
            for ma, ca in a.items():
                key = ma * mb
                prev = acc.get(key)
                total = ca * cb if prev is None else prev + ca * cb
                if total:
                    acc[key] = total
                elif prev is not None:
                    del acc[key]
        return _from_terms(acc)

    def derivative(self) -> "Series":
        acc: dict[Monomial, Fraction] = {}
        for mono, c in self._terms.items():
            for dm, dr in mono.derivative_terms():
                contribution = c * dr
                prev = acc.get(dm)
                total = contribution if prev is None else prev + contribution
                if total:
                    acc[dm] = total
                elif prev is not None:
                    del acc[dm]
        return _from_terms(acc)

    def truncate_below(self, bound: GroupElem) -> "Series":
        """Drop terms with valuation strictly above ``bound``."""
        kept = {m: c for m, c in self._terms.items() if m.valuation() <= bound}
        return _from_terms(kept)

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in order of increasing valuation (decreasing magnitude)."""
        return sorted(self._terms.items(), key=lambda kv: kv[0].exponents, reverse=True)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for mono, coeff in self.sorted_terms():
            if mono.exponents.is_zero():
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = str(mono)
            else:
                body = f"{abs(coeff)}*{mono}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Series({str(self)})"


def _from_terms(terms: dict[Monomial, Fraction]) -> Series:
    """Wrap a term map that already holds no zero coefficients."""
    out = Series.__new__(Series)
    object.__setattr__(out, "_terms", terms)
    object.__setattr__(out, "_lead", None)
    return out


Series.ZERO = Series()
Series.ONE = Series.from_rat(1)


def ell(n: int) -> "Frac":
    """The n-th generator as a field element; ell(0) is x."""
    if n < 0:
        raise ValueError("generator index must be nonnegative")
    return Frac(Series.monomial(Monomial(unit(n))))


def x_elem() -> "Frac":
    return ell(0)


class Dominance(Enum):
    STRICTLY_DOMINATED = "strictly-dominated"
    ASYMPTOTIC = "asymptotic"
    STRICTLY_DOMINATES = "strictly-dominates"


class Frac:
    """A quotient of two series in normal form.

    Normalization divides numerator and denominator by the denominator's
    leading term, so the denominator always has valuation 0 and leading
    coefficient 1.  Valuation, sign, and leading coefficient then read
    off the numerator directly.  Equality is by cross-multiplication;
    no polynomial gcd is attempted.
    """

    __slots__ = ("num", "den")

    ZERO: "Frac"
    ONE: "Frac"

    def __init__(self, num: Series, den: Series = Series.ONE) -> None:
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            num, den = Series.ZERO, Series.ONE
        else:
            lead_mono, lead_coeff = den.leading()
            if lead_coeff != 1 or not lead_mono.exponents.is_zero():
                adjust_mono = lead_mono.inv()
                adjust_coeff = 1 / lead_coeff
                num = num.mul_term(adjust_mono, adjust_coeff)
                den = den.mul_term(adjust_mono, adjust_coeff)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Frac is immutable")

    @classmethod
    def from_rat(cls, value: RatLike) -> "Frac":
        return cls(Series.from_rat(value))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other: "Frac") -> "Frac":
        if not isinstance(other, Frac):
            return NotImplemented
        if self.den == other.den:
            return Frac(self.num + other.num, self.den)
        return Frac(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "Frac") -> "Frac":
        return self + (-other)

    def __neg__(self) -> "Frac":
        out = Frac.__new__(Frac)
        object.__setattr__(out, "num", -self.num)
        object.__setattr__(out, "den", self.den)
        return out

    def __mul__(self, other: "Frac") -> "Frac":
        if not isinstance(other, Frac):
            return NotImplemented
        return Frac(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "Frac") -> "Frac":
        if not isinstance(other, Frac):
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero element")
        return Frac(self.num * other.den, self.den * other.num)

    def inv(self) -> "Frac":
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero element")
        return Frac(self.den, self.num)

    def scale(self, factor: RatLike) -> "Frac":
        return Frac(self.num.scale(factor), self.den)

    def __pow__(self, power: int) -> "Frac":
        if power < 0:
            return self.inv() ** (-power)
        out = Frac.ONE
        base = self
        k = power
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Frac):
            if self.den == other.den:
                # Equal denominators in an integral domain: compare numerators.
                return self.num == other.num
            return self.num * other.den == other.num * self.den
        return NotImplemented

    def __hash__(self) -> int:
        raise TypeError("Frac is not hashable; normal forms are not unique")

    def derivative(self) -> "Frac":
        n, d = self.num, self.den
        if d == Series.ONE:
            return Frac(n.derivative())
        return Frac(n.derivative() * d - n * d.derivative(), d * d)

    def valuation(self) -> GammaInf:
        # The denominator is normalized to valuation 0.
        return self.num.valuation()

    def sign(self) -> int:
        if self.num.is_zero():
            return 0
        return 1 if self.num.leading()[1] > 0 else -1

    def leading_coeff(self) -> Fraction:
        if self.is_zero():
            raise ValueError("the zero element has no leading coefficient")
        return self.num.leading()[1]

    def __lt__(self, other: "Frac") -> bool:
        return (self - other).sign() < 0

    def __le__(self, other: "Frac") -> bool:
        return (self - other).sign() <= 0

    def __gt__(self, other: "Frac") -> bool:
        return (self - other).sign() > 0

    def __ge__(self, other: "Frac") -> bool:
        return (self - other).sign() >= 0

    def __str__(self) -> str:
        if self.den == Series.ONE:
            return str(self.num)
        return f"{self.num} | {self.den}"

    def __repr__(self) -> str:
        return f"Frac({str(self)})"


Frac.ZERO = Frac(Series.ZERO)
Frac.ONE = Frac(Series.ONE)


def dominance(f: Frac, g: Frac) -> Dominance:
    """Trichotomy by valuation: smaller valuation dominates."""
    vf, vg = f.valuation(), g.valuation()
    if vf > vg:
        return Dominance.STRICTLY_DOMINATED
    if vf < vg:
        return Dominance.STRICTLY_DOMINATES
    return Dominance.ASYMPTOTIC


def similar(f: Frac, g: Frac) -> bool:
    """f ~ g: the difference is strictly dominated by f."""
    if f.is_zero() or g.is_zero():
        raise ValueError("similarity is only defined for nonzero elements")
    return (f - g).valuation() > f.valuation()


def logderiv(f: Frac) -> Frac:
    """f' / f, additive across products."""
    if f.is_zero():
        raise ValueError("logarithmic derivative of zero")
    return f.derivative() / f


def is_constant(f: Frac) -> bool:
    """True exactly when the derivative vanishes; the constants are Q."""
    n, d = f.num, f.den
    return (n.derivative() * d - n * d.derivative()).is_zero()


def as_rational(f: Frac) -> Fraction:
    """The rational value of a constant element."""
    if f.is_zero():
        return Fraction(0)
    if not is_constant(f):
        raise ValueError("element is not a constant")
    return f.leading_coeff()


def residue(f: Frac) -> Fraction:
    """Image in the residue field: leading coefficient at valuation 0, else 0."""
    v = f.valuation()
    if v < GroupElem.ZERO:
        raise ValueError("residue is undefined above the valuation ring")
    if v > GroupElem.ZERO:
        return Fraction(0)
    return f.leading_coeff()


def is_in_I(f: Frac) -> bool:
    """Membership in the set of elements dominated by some derivative of a
    bounded element: zero, or valuation with strictly positive integral."""
    if f.is_zero():
        return True
    v = f.valuation()
    return integrate(v) > GroupElem.ZERO


MONOMIAL_EXP_POOL = [Fraction(n) for n in range(-4, 5) if n] + [
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(3, 2),
    Fraction(-5, 2),
    Fraction(1, 3),
]

COEFF_POOL = [Fraction(n) for n in range(-9, 10) if n] + [
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(2, 3),
    Fraction(-3, 4),
    Fraction(5, 2),
]


def random_monomial(rng: random.Random) -> Monomial:
    indices = rng.sample(range(9), rng.randint(0, 3))
    return Monomial(GroupElem((i, rng.choice(MONOMIAL_EXP_POOL)) for i in indices))


def random_series(rng: random.Random, max_terms: int = 3, allow_zero: bool = False) -> Series:
    while True:
        count = rng.randint(0 if allow_zero else 1, max_terms)
        s = Series((random_monomial(rng), rng.choice(COEFF_POOL)) for _ in range(count))
        if allow_zero or not s.is_zero():
            return s


def random_frac(rng: random.Random, allow_zero: bool = False) -> Frac:
    num = random_series(rng, allow_zero=allow_zero)
    # Mostly polynomial elements; quotients with short denominators keep the
    # exact identity checks affordable while still exercising them.
    if rng.random() < 0.7:
        return Frac(num)
    return Frac(num, random_series(rng, max_terms=2))


def check_axioms(sample_size: int, seed: int) -> Report:
    """Seeded verification of the field, derivation, valuation, ordering,
    and H-field style axioms on random elements.

    The side conditions follow the definitions: the asymptotic biconditional
    is tested on nonzero small elements, the pre-d-valued bound on bounded
    against small, positivity of derivatives above the valuation ring, and
    the residue condition on units.
    """
    if sample_size < 1:
        raise ValueError("sample_size must be at least 1")
    rng = random.Random(seed)
    report = Report("field-axioms", seed, sample_size, "axiom")
    zero_g = GroupElem.ZERO
    for case in report.each(sample_size):
        f = random_frac(rng, allow_zero=True)
        g = random_frac(rng, allow_zero=True)
        h = random_frac(rng)

        # Field and derivation algebra.
        if (f + g) * h != f * h + g * h:
            report.fail("distributivity", case, f=f, g=g, h=h)
        if ((f * g) * h) != (f * (g * h)):
            report.fail("mul-associativity", case, f=f, g=g, h=h)
        if (f * g).derivative() != f.derivative() * g + f * g.derivative():
            report.fail("leibniz", case, f=f, g=g)
        if (f + g).derivative() != f.derivative() + g.derivative():
            report.fail("additivity", case, f=f, g=g)
        if not h.is_zero():
            q = f / h
            if q * h != f:
                report.fail("division", case, f=f, h=h)

        # Valuation axioms.
        vf, vg = f.valuation(), g.valuation()
        prod_v = (f * g).valuation()
        if vf is INFINITY or vg is INFINITY:
            if prod_v is not INFINITY:
                report.fail("v-multiplicative-zero", case, f=f, g=g)
        elif prod_v != vf + vg:
            report.fail("v-multiplicative", case, f=f, g=g)
        sum_v = (f + g).valuation()
        if not min(vf, vg) <= sum_v:
            report.fail("v-ultrametric", case, f=f, g=g)
        if vf is not INFINITY and vg is not INFINITY and vf != vg and sum_v != min(vf, vg):
            report.fail("v-ultrametric-strict", case, f=f, g=g)

        # Compatibility of psi with logarithmic derivatives away from
        # valuation zero.
        if not f.is_zero() and vf is not INFINITY and vf != zero_g:
            if psi(vf) != logderiv(f).valuation():
                report.fail("psi-compat", case, f=f)

        # Asymptotic biconditional on small nonzero elements.
        small_f = _make_small(f)
        small_g = _make_small(g)
        if small_f is not None and small_g is not None:
            lhs = dominance(small_f, small_g) is Dominance.STRICTLY_DOMINATED
            rhs = dominance(small_f.derivative(), small_g.derivative()) is Dominance.STRICTLY_DOMINATED
            if lhs != rhs:
                report.fail("asymptotic", case, f=small_f, g=small_g)

        # Pre-d-valued bound: bounded f, small nonzero g.
        if small_g is not None:
            bounded = _make_bounded(f)
            if not bounded.is_zero():
                dv = bounded.derivative().valuation()
                gv = logderiv(small_g).valuation()
                if not dv > gv:
                    report.fail("pre-d-valued", case, f=bounded, g=small_g)

        # d-valued residue condition on units.
        if not f.is_zero() and f.valuation() == zero_g:
            c = Frac.from_rat(residue(f))
            if not similar(f, c):
                report.fail("residue-similar", case, f=f)

        # Convexity of the valuation ring.
        if not f.is_zero() and not g.is_zero():
            af, ag = _abs(f), _abs(g)
            lo, hi = (af, ag) if af < ag else (ag, af)
            if hi.valuation() >= zero_g and not lo.valuation() >= zero_g:
                report.fail("convexity", case, f=f, g=g)

        # Derivatives above the valuation ring are positive.
        if not f.is_zero():
            big = f if f.valuation() < zero_g else f.inv() if f.valuation() > zero_g else None
            if big is not None:
                big = big if big.sign() > 0 else -big
                if big.derivative().sign() <= 0:
                    report.fail("positive-derivative", case, f=big)
    return report


def _abs(f: Frac) -> Frac:
    return f if f.sign() >= 0 else -f


def _make_small(f: Frac) -> Optional[Frac]:
    """A nonzero element of strictly positive valuation derived from f."""
    if f.is_zero():
        return None
    v = f.valuation()
    if v > GroupElem.ZERO:
        return f
    if v < GroupElem.ZERO:
        return f.inv()
    return None


def _make_bounded(f: Frac) -> Frac:
    return f if f.valuation() >= GroupElem.ZERO else f.inv()


@dataclass(frozen=True)
class OdeComparison:
    """Result of comparing two solutions of y'' = ell * y'."""

    c0: Fraction
    c1: Fraction
    dominance_agrees: bool


def ode_second_order_check(y0: Frac, y1: Frac, ell_coef: Frac) -> OdeComparison:
    """Confirm that two nonconstant solutions of the same linear equation
    y'' = ell*y' differ by an affine constant law y1 = c0*y0 + c1.

    Raises if either argument is constant or fails the equation exactly.
    Also reports whether the two solutions agree on being unbounded.
    """
    for name, y in (("y0", y0), ("y1", y1)):
        if is_constant(y):
            raise ValueError(f"{name} is constant")
        dy = y.derivative()
        if dy.derivative() != ell_coef * dy:
            raise ValueError(f"{name} does not solve the given equation")
    c0_elem = y1.derivative() / y0.derivative()
    if not is_constant(c0_elem):
        raise ValueError("ratio of derivatives is not a constant")
    c0 = as_rational(c0_elem)
    if c0 == 0:
        raise ValueError("degenerate solution pair: zero derivative ratio")
    c1_elem = y1 - y0.scale(c0)
    if not is_constant(c1_elem):
        raise ValueError("affine comparison law failed")
    c1 = as_rational(c1_elem)
    zero_g = GroupElem.ZERO
    y0_big = y0.valuation() < zero_g
    y1_big = y1.valuation() < zero_g
    return OdeComparison(c0, c1, y0_big == y1_big)
