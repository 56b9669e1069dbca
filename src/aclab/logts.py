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
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Optional, Union

from .acouple import Report, psi
from .ogroup import INFINITY, GammaInf, GroupElem, RatLike, _from_items, _int_pair, _merge, as_rat, cmp, ones, unit
from .record import Record


# Monomials are hash-consed (Filliatre & Conchon, "Type-safe modular
# hash-consing", 2006): ``Monomial(g)`` and every monomial product return the
# live instance for their exponent vector from one intern table.  A table that
# reaches its cap is emptied, which bounds its memory.  A monomial built before
# a clear is then a different object from an equal one built after it, so
# equality falls back to comparing exponent vectors and no result depends on
# which instance is used.  In ``Monomial.__mul__`` a factor 1 returns the other
# factor; otherwise the summed exponent triples are looked up in ``_interned``,
# and a ``GroupElem`` and a ``Monomial`` are built only for a new monomial.  No
# comparison of field elements builds or interns a monomial (see ``_packing``).
INTERN_CAP = 1024

# Keyed by GroupElem.key, which also serves the structural equality fallback.
_interned: dict[tuple[tuple[int, int, int], ...], "Monomial"] = {}


class Monomial:
    """A single product of generator powers, keyed by its exponent vector."""

    __slots__ = ("exponents", "_hash", "_derivative")

    ONE: "Monomial"

    def __new__(cls, exponents: GroupElem = GroupElem.ZERO) -> "Monomial":
        return _intern(exponents)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Monomial is immutable")

    def valuation(self) -> GroupElem:
        return -self.exponents

    def __mul__(self, other: "Monomial") -> "Monomial":
        ia, ib = self.exponents._items, other.exponents._items
        if not ib:
            return self
        if not ia:
            return other
        items = _merge(ia, ib, False)
        return _interned.get(items) or _intern(_from_items(items))

    def inv(self) -> "Monomial":
        return Monomial(-self.exponents)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Monomial):
            return NotImplemented
        return self.exponents.key == other.exponents.key

    def __hash__(self) -> int:
        return self._hash

    def _derivative_triples(self) -> tuple[tuple["Monomial", int, int], ...]:
        """The finitely many terms of m': r_i, as (numerator, denominator),
        on m * (l0...li)^-1."""
        terms = self._derivative
        if terms is None:
            exps = self.exponents
            terms = tuple((Monomial(exps - ones(i + 1)), n, d) for i, n, d in exps.key)
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


def _intern(exponents: GroupElem) -> Monomial:
    """The live monomial for ``exponents``, made and registered if absent."""
    key = exponents.key
    mono = _interned.get(key)
    if mono is None:
        if len(_interned) >= INTERN_CAP:
            _interned.clear()
        mono = object.__new__(Monomial)
        object.__setattr__(mono, "exponents", exponents)
        object.__setattr__(mono, "_hash", hash(("mono", exponents)))
        object.__setattr__(mono, "_derivative", None)
        _interned[key] = mono
    return mono


Monomial.ONE = Monomial()


def _gen_name(index: int) -> str:
    return "x" if index == 0 else f"l{index}"


def _exp_text(e: Fraction) -> str:
    if e.denominator == 1:
        return str(e)
    return f"({e})"


class BudgetExceeded(ValueError):
    """A Series product would form more than MAX_TERM_PAIRS term pairs, or a
    Frac power coefficients of more than MAX_COEFF_BITS bits."""


# A Series product forms one term pair per pair of terms of its factors.  At
# this cap the largest allowed product takes 0.7-2.3 s (2 cores, CPython 3.11,
# on a shared host whose speed varies about twofold); the suites' largest
# products form a few thousand pairs.
MAX_TERM_PAIRS = 300_000

# A power f^p multiplies p copies of f, so its coefficients have at most
# p * _coeff_bits(f) bits.  At this cap the largest allowed powers take
# 1.0-2.1 s ((16/17)^120000, (3/4)^300000, (255/256)^75000; 2 cores,
# CPython 3.11), most of it in the gcds that keep each result reduced.
MAX_COEFF_BITS = 600_000


class Series:
    """A finite rational combination of monomials in canonical form.

    A series stores integer numerators ``_nums`` over one common denominator
    ``_den``: ``_den > 0``, no numerator is zero, and ``gcd(_den, *nums) ==
    1``, so equal series store equal maps and denominators; the zero series
    is ``({}, 1)``.  Arithmetic runs on ints, and ``Fraction`` appears only
    at the API (``terms``, ``leading``, ``sorted_terms`` and the printers).
    The leading term is the one of minimal valuation, i.e. maximal exponent
    vector, and is unique because the monomial order is total.  The leading
    term and the derivative are each computed once, on first use, and kept.
    """

    __slots__ = ("_nums", "_den", "_lead", "_deriv")

    ZERO: "Series"
    ONE: "Series"

    def __new__(cls, terms: Union[Mapping[Monomial, RatLike], Iterable[tuple[Monomial, RatLike]]] = ()) -> "Series":
        if isinstance(terms, Mapping):
            terms = terms.items()
        acc: dict[Monomial, Fraction] = {}
        for mono, raw in terms:
            acc[mono] = acc[mono] + as_rat(raw) if mono in acc else as_rat(raw)
        den = lcm(*(c.denominator for c in acc.values()))
        return _series({m: c.numerator * (den // c.denominator) for m, c in acc.items()}, den)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Series is immutable")

    @classmethod
    def from_rat(cls, value: RatLike) -> "Series":
        return cls.monomial(Monomial.ONE, value)

    @classmethod
    def monomial(cls, mono: Monomial, coeff: RatLike = 1) -> "Series":
        qn, qd = _int_pair(coeff)
        return _series({mono: qn}, qd)

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        den = self._den
        return {m: Fraction(n, den) for m, n in self._nums.items()}

    def __len__(self) -> int:
        return len(self._nums)

    def is_zero(self) -> bool:
        return not self._nums

    def leading(self) -> tuple[Monomial, Fraction]:
        """The term of minimal valuation; error on the zero series."""
        if not self._nums:
            raise ValueError("the zero series has no leading term")
        cached = self._lead
        if cached is None:
            monos = iter(self._nums)
            best = next(monos)
            top = best.exponents
            for mono in monos:
                if cmp(mono.exponents, top) > 0:
                    best, top = mono, mono.exponents
            cached = (best, Fraction(self._nums[best], self._den))
            object.__setattr__(self, "_lead", cached)
        return cached

    def valuation(self) -> GammaInf:
        if not self._nums:
            return INFINITY
        return self.leading()[0].valuation()

    def __add__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        return _combined(self, other, 1)

    def __neg__(self) -> "Series":
        return _series({m: -n for m, n in self._nums.items()}, self._den)

    def __sub__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        return _combined(self, other, -1)

    def scale(self, factor: RatLike) -> "Series":
        qn, qd = _int_pair(factor)
        return _series({m: n * qn for m, n in self._nums.items()}, self._den * qd)

    def mul_term(self, mono: Monomial, coeff: RatLike = 1) -> "Series":
        qn, qd = _int_pair(coeff)
        return _series(_shifted(self._nums, mono, qn), self._den * qd)

    def __mul__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        a, b = self._nums, other._nums
        if not a or not b:
            return Series.ZERO
        # 1 * s = s, and series are immutable, so the operand itself serves.
        if _is_one(other):
            return self
        if _is_one(self):
            return other
        _check_term_pairs(self, other)
        den = self._den * other._den
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            ((mb, nb),) = b.items()
            return _series(_shifted(a, mb, nb), den)
        acc: dict[Monomial, int] = {}
        get = acc.get
        for mb, nb in b.items():
            for ma, na in a.items():
                key = ma * mb
                acc[key] = get(key, 0) + na * nb
        return _series(acc, den)

    def derivative(self) -> "Series":
        out = self._deriv
        if out is None:
            nums = self._nums
            # The coefficients of m' are m's exponents: one common denominator
            # for all of them scales every term to an integer.
            scale = lcm(*(d for mono in nums for _, _, d in mono.exponents.key))
            acc: dict[Monomial, int] = {}
            for mono, n in nums.items():
                for dm, rn, rd in mono._derivative_triples():
                    acc[dm] = acc.get(dm, 0) + n * rn * (scale // rd)
            out = _series(acc, self._den * scale)
            object.__setattr__(self, "_deriv", out)
        return out

    def truncate_below(self, bound: GroupElem) -> "Series":
        """Drop terms with valuation strictly above ``bound``: keep m with
        ``m.exponents >= -bound``, since v(m) is minus m's exponents."""
        low = -bound
        return _series({m: n for m, n in self._nums.items() if cmp(m.exponents, low) >= 0}, self._den)

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in order of increasing valuation (decreasing magnitude)."""
        den = self._den
        ordered = sorted(self._nums.items(), key=lambda kv: kv[0].exponents, reverse=True)
        return [(m, Fraction(n, den)) for m, n in ordered]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._nums.items())))

    def __str__(self) -> str:
        if not self._nums:
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


def _series(nums: dict[Monomial, int], den: int) -> Series:
    """The canonical series ``sum(n * m) / den`` for ``den > 0``: zero
    numerators dropped, then everything divided by ``gcd(den, *nums)``.  The
    map is copied only when some numerator is zero or the gcd is not 1."""
    if not all(nums.values()):
        nums = {m: n for m, n in nums.items() if n}
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {m: n // g for m, n in nums.items()}
    out = object.__new__(Series)
    object.__setattr__(out, "_nums", nums)
    object.__setattr__(out, "_den", den)
    object.__setattr__(out, "_lead", None)
    object.__setattr__(out, "_deriv", None)
    return out


def _combined(a: Series, b: Series, sign: int) -> Series:
    """a + b for sign 1, a - b for sign -1."""
    if not b._nums:
        return a
    if not a._nums:
        return b if sign == 1 else -b
    da, db = a._den, b._den
    den = da if da == db else lcm(da, db)
    fa, fb = den // da, sign * (den // db)
    acc = {m: n * fa for m, n in a._nums.items()}
    for mono, n in b._nums.items():
        acc[mono] = acc.get(mono, 0) + n * fb
    return _series(acc, den)


def _check_term_pairs(a: Series, b: Series) -> None:
    if len(a) * len(b) > MAX_TERM_PAIRS:
        raise BudgetExceeded(
            f"a product of {len(a)} by {len(b)} terms is above the budget of {MAX_TERM_PAIRS} term pairs")


def _is_one(s: Series) -> bool:
    """Whether s is the unit series: one term, monomial 1, numerator 1, ``_den == 1``."""
    nums = s._nums
    return len(nums) == 1 and s._den == 1 and nums.get(Monomial.ONE) == 1


def _shifted(nums: dict[Monomial, int], mono: Monomial, factor: int) -> dict[Monomial, int]:
    """``{m * mono: n * factor}``; the products are distinct because the
    monomials of ``nums`` are.  A shift by the monomial 1 only scales."""
    if not mono.exponents._items:
        return {m: n * factor for m, n in nums.items()}
    return {m * mono: n * factor for m, n in nums.items()}


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


def _coeff_bits(f: "Frac") -> int:
    """ceil(log2) of the largest factor a power of f can put on its integers
    per copy of f: each series' denominator, or its term count times its
    largest numerator.  Zero for monomials with coefficient 1."""
    return max(
        (max(s._den, len(s._nums) * max(map(abs, s._nums.values()), default=0)) - 1).bit_length()
        for s in (f.num, f.den))


def check_power(power: int, bits: int) -> None:
    """Refuse a power ``power`` of an element whose integers grow by up to
    ``bits`` bits per copy (``_coeff_bits``, or the size of a lone
    coefficient): its coefficients would have up to power * bits bits."""
    bits *= power
    if bits > MAX_COEFF_BITS:
        raise BudgetExceeded(
            f"a power {power} would form coefficients of up to {bits} bits, "
            f"above the budget of {MAX_COEFF_BITS} bits")


# A denominator as (factor, multiplicity) pairs; see Frac.
Factors = tuple[tuple[Series, int], ...]


class Frac:
    """A quotient of two series in normal form.

    The denominator is kept as a multiset of factors: ``_factors`` is a
    tuple of ``(factor, multiplicity)`` pairs, and the element is ``num``
    over the product of each factor to its multiplicity.  No polynomial gcd
    is attempted, so equal elements may have different normal forms.

    Invariant: every factor leads with exactly ``1 * x^0``, no factor is 1,
    and no two factors are equal; zero is ``0`` with no factors.
    ``Frac(num, den)`` divides both by the leading term of ``den``, and it
    and every operation finish through ``_frac``, the one place that drops
    the factors of zero and cancels n/n to 1.  The
    product of factors that lead with 1 leads with 1, so every denominator
    has valuation 0, valuation, sign and leading coefficient read off the
    numerator, and ``lead(n_f * c) == lead(n_f)`` for any product c of
    factors, which is what ``vdiff`` (and through it the order and
    ``similar``) reads instead of forming ``f - g``.  ``den`` is the
    expanded product, built on first read and kept.  The derivative and
    the inverse are memoised in slots left unset until first use, so
    building an element costs nothing more; an inverse keeps no link back
    to its source, so no reference cycle forms.

    Products add the multisets and powers scale them, so equal factors
    merge instead of multiplying out.  Sums, differences, ``==`` and
    ``vdiff`` work over L, the lcm of the two multisets (the larger
    multiplicity of each factor): under equal multisets they add or compare
    the numerators; otherwise the numerators times the cofactors L/D_f and
    L/D_g, and equality and ``vdiff`` compare those in the cross kernel, so
    no comparison builds a monomial.  The numerator of a power is squared
    and multiplied in ``_expand``, as the expanded denominator is.
    """

    __slots__ = ("num", "_factors", "_den", "_deriv", "_inv")

    ZERO: "Frac"
    ONE: "Frac"

    def __new__(cls, num: Series, den: Series = Series.ONE) -> "Frac":
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        lead_mono, lead_coeff = den.leading()
        if lead_coeff != 1 or not lead_mono.exponents.is_zero():
            adjust_mono, adjust_coeff = lead_mono.inv(), 1 / lead_coeff
            num = num.mul_term(adjust_mono, adjust_coeff)
            den = den.mul_term(adjust_mono, adjust_coeff)
        # A series that leads with 1 * x^0 and has one term is 1.
        return _frac(num, ((den, 1),) if len(den) > 1 else ())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Frac is immutable")

    @property
    def den(self) -> Series:
        den = self._den
        if den is None:
            den = _expand(self._factors)
            object.__setattr__(self, "_den", den)
        return den

    @classmethod
    def from_rat(cls, value: RatLike) -> "Frac":
        return cls(Series.from_rat(value))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other: "Frac") -> "Frac":
        if not isinstance(other, Frac):
            return NotImplemented
        return _frac_sum(self, other, 1)

    def __sub__(self, other: "Frac") -> "Frac":
        if not isinstance(other, Frac):
            return NotImplemented
        return _frac_sum(self, other, -1)

    def __neg__(self) -> "Frac":
        return _frac(-self.num, self._factors, self._den)

    def __mul__(self, other: "Frac") -> "Frac":
        if not isinstance(other, Frac):
            return NotImplemented
        fa, fb = self._factors, other._factors
        if not fa or not fb:
            return _frac(self.num * other.num, fa or fb, self._den if fa else other._den)
        return _frac(self.num * other.num, tuple((s, ka + kb) for s, ka, kb in _aligned(fa, fb)))

    def __truediv__(self, other: "Frac") -> "Frac":
        if not isinstance(other, Frac):
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero element")
        return self * other.inv()

    def inv(self) -> "Frac":
        out = getattr(self, "_inv", None)
        if out is None:
            if self.is_zero():
                raise ZeroDivisionError("inverse of the zero element")
            out = Frac(self.den, self.num)
            object.__setattr__(self, "_inv", out)
        return out

    def scale(self, factor: RatLike) -> "Frac":
        return _frac(self.num.scale(factor), self._factors, self._den)

    def __pow__(self, power: int) -> "Frac":
        if power < 0:
            return self.inv() ** (-power)
        if power > 1:
            check_power(power, _coeff_bits(self))
        factors = tuple((s, k * power) for s, k in self._factors) if power else ()
        return _frac(_expand(((self.num, power),)), factors)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Frac):
            return NotImplemented
        nf, ng = self.num, other.num
        if self._factors == other._factors:
            # Equal denominators in an integral domain: compare numerators.
            return nf == ng
        # Zero has no factors, so at most one side is zero here; the cross
        # products lead with n_f and n_g.
        if nf.is_zero() or ng.is_zero() or nf.leading() != ng.leading():
            return False
        _, cf, cg = _over_lcm(self, other)
        return _cross_equal(nf, cf, ng, cg)

    def __hash__(self) -> int:
        raise TypeError("Frac is not hashable; normal forms are not unique")

    def derivative(self) -> "Frac":
        out = getattr(self, "_deriv", None)
        if out is not None:
            return out
        n, factors = self.num, self._factors
        if not factors:
            out = _frac(n.derivative(), ())
        else:
            # D'/D is the sum of k * d'/d over the factors d^k of D.  Over P,
            # the product of the factors taken once, f' = (n'P - n * sum(k *
            # d' * P/d)) / (D * P): every multiplicity goes up by one.  The
            # loop keeps P and the sum over the factors read so far.
            whole, logder = Series.ONE, Series.ZERO
            for d, k in factors:
                dd = d.derivative() if k == 1 else d.derivative().scale(k)
                logder = logder * d + dd * whole
                whole = whole * d
            out = _frac(n.derivative() * whole - n * logder, tuple((d, k + 1) for d, k in factors))
        object.__setattr__(self, "_deriv", out)
        return out

    def valuation(self) -> GammaInf:
        # Every denominator has valuation 0.
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
        if not isinstance(other, Frac):
            return NotImplemented
        return vdiff(self, other)[1] < 0

    def __le__(self, other: "Frac") -> bool:
        if not isinstance(other, Frac):
            return NotImplemented
        return vdiff(self, other)[1] <= 0

    def __gt__(self, other: "Frac") -> bool:
        if not isinstance(other, Frac):
            return NotImplemented
        return vdiff(self, other)[1] > 0

    def __ge__(self, other: "Frac") -> bool:
        if not isinstance(other, Frac):
            return NotImplemented
        return vdiff(self, other)[1] >= 0

    def __str__(self) -> str:
        if not self._factors:
            return str(self.num)
        return f"{self.num} | {self.den}"

    def __repr__(self) -> str:
        return f"Frac({str(self)})"


def _frac(num: Series, factors: Factors, den: Optional[Series] = None) -> Frac:
    """``num`` over ``factors``, which keep the ``Frac`` invariant; ``den``
    is their expanded product when the caller has it.  Zero keeps no
    factors, and a numerator equal to a lone factor d (d/d) cancels to 1."""
    if not num._nums:
        num, factors = Series.ZERO, ()
    elif len(factors) == 1 and factors[0][1] == 1:
        if num == factors[0][0]:
            num, factors = Series.ONE, ()
        else:
            den = factors[0][0]
    if not factors:
        den = Series.ONE
    out = object.__new__(Frac)
    object.__setattr__(out, "num", num)
    object.__setattr__(out, "_factors", factors)
    object.__setattr__(out, "_den", den)
    return out


def _frac_sum(f: Frac, g: Frac, sign: int) -> Frac:
    """f + g for sign 1, f - g for sign -1."""
    if f._factors == g._factors:
        return _frac(_combined(f.num, g.num, sign), f._factors, f._den)
    factors, cf, cg = _over_lcm(f, g)
    return _frac(_combined(f.num * cf, g.num * cg, sign), factors)


def _aligned(a: Factors, b: Factors) -> list[tuple[Series, int, int]]:
    """The factors of a and then those only in b, each with its
    multiplicity in a and in b (0 where absent)."""
    rows = [(s, k, 0) for s, k in a]
    for s, k in b:
        for i, (r, ka, _) in enumerate(rows[:len(a)]):
            if r is s or r == s:
                rows[i] = (r, ka, k)
                break
        else:
            rows.append((s, 0, k))
    return rows


def _over_lcm(f: Frac, g: Frac) -> tuple[Factors, Series, Series]:
    """L, the lcm of the denominators of f and g, with the cofactors L/D_f
    and L/D_g.  With no factor in common these are D_g and D_f."""
    fa, fb = f._factors, g._factors
    for r, _ in fa:
        for s, _ in fb:
            if r is s or r == s:
                rows = _aligned(fa, fb)
                return (tuple((s, max(kf, kg)) for s, kf, kg in rows),
                        _expand((s, kg - kf) for s, kf, kg in rows if kg > kf),
                        _expand((s, kf - kg) for s, kf, kg in rows if kf > kg))
    return fa + fb, g.den, f.den


def _expand(factors: Iterable[tuple[Series, int]]) -> Series:
    """The product of each factor to its multiplicity, by squaring."""
    out = Series.ONE
    for s, k in factors:
        while k:
            if k & 1:
                out = out * s
            s = s * s if k > 1 else s
            k >>= 1
    return out


Frac.ZERO = Frac(Series.ZERO)
Frac.ONE = Frac(Series.ONE)


def dominance(f: Frac, g: Frac) -> Dominance:
    """Trichotomy by valuation: smaller valuation dominates."""
    return value_dominance(f.valuation(), g.valuation())


def value_dominance(vf: GammaInf, vg: GammaInf) -> Dominance:
    """The trichotomy of two elements with valuations vf and vg."""
    if vf > vg:
        return Dominance.STRICTLY_DOMINATED
    if vf < vg:
        return Dominance.STRICTLY_DOMINATES
    return Dominance.ASYMPTOTIC


def similar(f: Frac, g: Frac) -> bool:
    """f ~ g: the difference is strictly dominated by f."""
    if f.is_zero() or g.is_zero():
        raise ValueError("similarity is only defined for nonzero elements")
    return vdiff(f, g)[0] > f.valuation()


def vdiff(f: Frac, g: Frac) -> tuple[GammaInf, int]:
    """v(f - g) and the sign of f - g, exactly, without forming f - g.

    By the ``Frac`` invariant the numerator of f - g leads with the larger
    of lead(n_f) and -lead(n_g), or with their sum when the monomials agree,
    so those cases cost O(1).  Only equal leading terms need the numerator
    n_f*c_f - n_g*c_g over L, the lcm of the denominators, with c_f = L/D_f
    and c_g = L/D_g (n_f - n_g over a shared denominator), and never L,
    which leads with 1: the valuation and sign are the numerator's.  Under
    different denominators the cross kernel finds that numerator's leading
    term without forming it: it sums the term pairs of both products on
    packed keys and reads the largest key that does not cancel.
    """
    nf, ng = f.num, g.num
    if ng.is_zero():
        return _lead_value(nf, 1)
    if nf.is_zero():
        return _lead_value(ng, -1)
    mf, cf = nf.leading()
    mg, cg = ng.leading()
    if mf != mg:
        if mf.exponents > mg.exponents:
            return mf.valuation(), 1 if cf > 0 else -1
        return mg.valuation(), -1 if cg > 0 else 1
    if cf != cg:
        return mf.valuation(), 1 if cf > cg else -1
    if f._factors == g._factors:
        return _lead_value(nf - ng, 1)
    _, c_f, c_g = _over_lcm(f, g)
    return _cross_lead(nf, c_f, ng, c_g)


def _lead_value(s: Series, sign: int) -> tuple[GammaInf, int]:
    """v(s) and the sign of ``sign * s``."""
    if s.is_zero():
        return INFINITY, 0
    mono, coeff = s.leading()
    return mono.valuation(), sign if coeff > 0 else -sign


# The cross kernel answers v(a*b - c*d) with its sign, and a*b == c*d, with
# no Monomial built or interned.  Each monomial of the four factors becomes
# one int: its exponents times L, the lcm of their denominators, packed into
# signed fields of W bits over the sorted union of the factors' supports,
# lowest index most significant.  W keeps every field of a product of two
# monomials below 2**(W-1) in magnitude, so int order is the monomial order,
# equal ints are equal monomials, and the key of a product is the sum of the
# keys (Monagan & Pearce, "Polynomial division using dynamic arrays, heaps,
# and packed exponent vectors", CASC 2007).

def _packing(a: Series, b: Series, c: Series, d: Series) -> tuple[dict[Monomial, int], int, int]:
    """The packed key of every monomial of the four factors, and the
    factors fa and fc that put a*b and -(c*d) over one denominator."""
    _check_term_pairs(a, b)
    _check_term_pairs(c, d)
    dab, dcd = a._den * b._den, c._den * d._den
    g = gcd(dab, dcd)
    fa, fc = dcd // g, -(dab // g)
    monos = {**a._nums, **b._nums, **c._nums, **d._nums}
    triples = [t for m in monos for t in m.exponents._items]
    if not triples:
        return dict.fromkeys(monos, 0), fa, fc
    indices, nums, dens = zip(*triples)
    scale = lcm(*dens)
    width = (2 * scale * max(map(abs, nums))).bit_length() + 1
    order = sorted(set(indices))
    weight = {i: scale << s for i, s in zip(order, range(width * (len(order) - 1), -1, -width))}
    keys = {m: sum([n * weight[i] // den for i, n, den in m.exponents._items]) for m in monos}
    return keys, fa, fc


def _cross_sums(a: Series, b: Series, c: Series, d: Series) -> tuple[dict[int, int], dict[Monomial, int]]:
    """The numerators of a*b - c*d over one denominator, by packed key, with
    the packed key of every monomial of the factors."""
    keys, fa, fc = _packing(a, b, c, d)
    acc: dict[int, int] = {}
    get = acc.get
    for x, y, f in ((a, b, fa), (c, d, fc)):
        cols = [(keys[m], n * f) for m, n in y._nums.items()]
        for m, n in x._nums.items():
            ki = keys[m]
            for kj, nj in cols:
                k = ki + kj
                acc[k] = get(k, 0) + n * nj
    return acc, keys


def _cross_lead(a: Series, b: Series, c: Series, d: Series) -> tuple[GammaInf, int]:
    """v(a*b - c*d) and its sign, for nonzero factors: the largest packed
    key whose sum is not zero."""
    acc, keys = _cross_sums(a, b, c, d)
    top = max(filter(acc.get, acc), default=None)
    if top is None:
        return INFINITY, 0
    # Any two monomials of the factors whose keys sum to ``top`` multiply to
    # its monomial, since ``_packing`` sizes the fields for every such pair.
    by_key = {k: m for m, k in keys.items()}
    m, o = next((m, by_key[top - k]) for m, k in keys.items() if top - k in by_key)
    return -(m.exponents + o.exponents), 1 if acc[top] > 0 else -1


def _cross_equal(a: Series, b: Series, c: Series, d: Series) -> bool:
    """Whether a*b == c*d: both products summed into one dict on packed keys."""
    return not any(_cross_sums(a, b, c, d)[0].values())


def logderiv(f: Frac) -> Frac:
    """f' / f, additive across products: (n'd - nd') / (nd) for f = n/d,
    which takes three Series products."""
    if f.is_zero():
        raise ValueError("logarithmic derivative of zero")
    n, d = f.num, f.den
    if d == Series.ONE:
        return Frac(n.derivative(), n)
    return Frac(n.derivative() * d - n * d.derivative(), n * d)


def is_constant(f: Frac) -> bool:
    """True exactly when the derivative vanishes; the constants are Q."""
    return f.derivative().is_zero()


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


# Exponents as (numerator, denominator) pairs in lowest terms.
MONOMIAL_EXP_POOL = [(n, 1) for n in range(-4, 5) if n] + [(1, 2), (-1, 2), (3, 2), (-5, 2), (1, 3)]

COEFF_POOL = [Fraction(q) for q in (*range(-9, 0), *range(1, 10), "1/2", "-1/2", "2/3", "-3/4", "5/2")]


def random_monomial(rng: random.Random) -> Monomial:
    indices = rng.sample(range(9), rng.randint(0, 3))
    return Monomial(_from_items(tuple(sorted((i, *rng.choice(MONOMIAL_EXP_POOL)) for i in indices))))


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
    rng = random.Random(seed)
    report = Report("field-axioms", seed, sample_size, "axiom")
    zero_g = GroupElem.ZERO
    for case in report.each(sample_size):
        f = random_frac(rng, allow_zero=True)
        g = random_frac(rng, allow_zero=True)
        h = random_frac(rng)

        # Field and derivation algebra.
        fg, f_plus_g = f * g, f + g
        if f_plus_g * h != f * h + g * h:
            report.fail("distributivity", case, f=f, g=g, h=h)
        if fg * h != f * (g * h):
            report.fail("mul-associativity", case, f=f, g=g, h=h)
        if fg.derivative() != f.derivative() * g + f * g.derivative():
            report.fail("leibniz", case, f=f, g=g)
        if f_plus_g.derivative() != f.derivative() + g.derivative():
            report.fail("additivity", case, f=f, g=g)
        if not h.is_zero():
            q = f / h
            if q * h != f:
                report.fail("division", case, f=f, h=h)

        # Valuation axioms.
        vf, vg = f.valuation(), g.valuation()
        prod_v = fg.valuation()
        if vf is INFINITY or vg is INFINITY:
            if prod_v is not INFINITY:
                report.fail("v-multiplicative-zero", case, f=f, g=g)
        elif prod_v != vf + vg:
            report.fail("v-multiplicative", case, f=f, g=g)
        sum_v = f_plus_g.valuation()
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


class OdeComparison(Record):
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
