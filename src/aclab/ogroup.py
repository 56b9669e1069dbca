"""Finite-support rational exponent vectors under the lexicographic order.

Everything else in this package is built over one ordered abelian group:
formal sums ``sum_i r_i * e_i`` with rational coefficients, almost all
zero.  Lower indices dominate, and each generator is positive, so an
element is positive exactly when its lowest-index nonzero coefficient is.
The group is divisible (coefficients are rational), and its archimedean
class is determined by the first nonzero index alone.

A vector stores ``(index, numerator, denominator)`` integer triples sorted
by index, none zero, each in lowest terms with a positive denominator, so
equal vectors have equal triples and arithmetic runs on plain ints.
``Fraction`` appears only at the API (``items``, ``coeff``, ``to_list``).
Coefficients come in as ints, ``p/q`` strings or ``Fraction``; a float is
a ``TypeError``.

A second element type adjoins a single extra point ``delta`` whose
coordinate sequence is constant 1.  Sums ``base + q*delta`` are compared
through their padded, eventually constant coordinate sequences; this
places ``delta`` above every finite prefix ``e_0 + ... + e_n`` but below
anything with a head start at an earlier coordinate.  q is stored like a
coefficient, as a lowest-terms int pair, and read as a ``Fraction``
through ``dq``.

Valuations take values in Gamma with a top point ``INFINITY`` adjoined,
the value of zero, and ``vector_json`` prints it as ``"infinity"``.
``INFINITY`` is the top of the value order: vectors, extension elements
and ``INFINITY`` compare with one another through their operators, each
type accepting the other two on either side.  ``cmp`` compares vectors
only.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import ge, gt, le, lt
from typing import Callable, Iterable, Optional, Union

RatLike = Union[int, str, Fraction]
Triples = tuple[tuple[int, int, int], ...]


def as_rat(value: RatLike) -> Fraction:
    """Coerce ints and ``p/q`` strings to an exact rational; a float is a
    TypeError, as its binary value is seldom the rational meant."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError(f"exact rational expected, got the float {value!r}")
    return Fraction(value)


def _int_pair(value: RatLike) -> tuple[int, int]:
    """An int or rational as (numerator, denominator) in lowest terms."""
    q = value if isinstance(value, int) else as_rat(value)
    return q.numerator, q.denominator


class GroupElem:
    """An exponent vector: sparse map from index to nonzero rational.

    Instances are immutable and hashable; all arithmetic returns fresh
    values.  The comparison operators implement the lexicographic order
    with coordinate 0 dominant.  They accept INFINITY, which is above every
    vector, and ExtElem on either side: against those they return
    NotImplemented, so the other operand's operator decides.
    """

    __slots__ = ("_items",)

    ZERO: "GroupElem"

    def __init__(self, coeffs: Iterable[tuple[int, RatLike]] = ()) -> None:
        cleaned: dict[int, Fraction] = {}
        for index, raw in coeffs:
            if index < 0:
                raise ValueError(f"negative coordinate index {index}")
            value = as_rat(raw)
            if value:
                cleaned[index] = cleaned.get(index, 0) + value
        self._items = tuple(sorted((i, c.numerator, c.denominator) for i, c in cleaned.items() if c))

    @classmethod
    def from_list(cls, dense: Iterable[RatLike]) -> "GroupElem":
        """Build from a dense coefficient list ``[r0, r1, ...]``."""
        return cls(enumerate(dense))

    @classmethod
    def parse(cls, text: str) -> "GroupElem":
        """Parse the textual form ``[r0, r1, ..., rk]``."""
        body = text.strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ValueError(f"expected a bracketed vector, got {text!r}")
        inner = body[1:-1].strip()
        if not inner:
            return cls.ZERO
        try:
            return cls.from_list(Fraction(part.strip()) for part in inner.split(","))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in vector {text!r}") from None

    @property
    def items(self) -> tuple[tuple[int, Fraction], ...]:
        return tuple((i, Fraction(n, d)) for i, n, d in self._items)

    @property
    def key(self) -> Triples:
        """The stored (index, numerator, denominator) triples."""
        return self._items

    def coeff(self, index: int) -> Fraction:
        for i, n, d in self._items:
            if i == index:
                return Fraction(n, d)
            if i > index:
                break
        return Fraction(0)

    def is_zero(self) -> bool:
        return not self._items

    def first_index(self) -> int:
        """Lowest index carrying a nonzero coefficient; error on zero."""
        if not self._items:
            raise ValueError("the zero vector has no leading index")
        return self._items[0][0]

    def leading_coeff(self) -> Fraction:
        if not self._items:
            raise ValueError("the zero vector has no leading coefficient")
        _, n, d = self._items[0]
        return Fraction(n, d)

    def max_index(self) -> int:
        """Highest index in the support, -1 for the zero vector."""
        return self._items[-1][0] if self._items else -1

    def sign(self) -> int:
        if not self._items:
            return 0
        return 1 if self._items[0][1] > 0 else -1

    def __add__(self, other: "GroupElem") -> "GroupElem":
        if not isinstance(other, GroupElem):
            return NotImplemented
        if not self._items:
            return other
        if not other._items:
            return self
        out = object.__new__(GroupElem)
        out._items = _merge(self._items, other._items, False)
        return out

    def __sub__(self, other: "GroupElem") -> "GroupElem":
        if not isinstance(other, GroupElem):
            return NotImplemented
        if not other._items:
            return self
        out = object.__new__(GroupElem)
        out._items = _merge(self._items, other._items, True)
        return out

    def __neg__(self) -> "GroupElem":
        return _from_items(tuple((i, -n, d) for i, n, d in self._items))

    def scale(self, factor: RatLike) -> "GroupElem":
        return self._scaled(*_int_pair(factor))

    def div(self, n: int) -> "GroupElem":
        """Exact division witnessing divisibility of the group."""
        if n == 0:
            raise ZeroDivisionError("division of a vector by zero")
        return self._scaled(1, n) if n > 0 else self._scaled(-1, -n)

    def _scaled(self, qn: int, qd: int) -> "GroupElem":
        """Multiply by qn/qd, given in lowest terms with qd > 0."""
        if not qn:
            return GroupElem.ZERO
        out = []
        for i, n, d in self._items:
            n *= qn
            d *= qd
            g = gcd(n, d)
            out.append((i, n // g, d // g))
        return _from_items(tuple(out))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GroupElem):
            return self._items == other._items
        return NotImplemented

    def __hash__(self) -> int:
        # Doubled numerators: CPython hashes -1 like -2, so hashing the stored
        # triples would collide for vectors that differ only there.
        return hash(tuple([(i, n + n, d) for i, n, d in self._items]))

    def __lt__(self, other: "GroupElem") -> bool:
        if isinstance(other, GroupElem):
            return cmp(self, other) < 0
        return NotImplemented

    def __le__(self, other: "GroupElem") -> bool:
        if isinstance(other, GroupElem):
            return cmp(self, other) <= 0
        return NotImplemented

    def __gt__(self, other: "GroupElem") -> bool:
        if isinstance(other, GroupElem):
            return cmp(self, other) > 0
        return NotImplemented

    def __ge__(self, other: "GroupElem") -> bool:
        if isinstance(other, GroupElem):
            return cmp(self, other) >= 0
        return NotImplemented

    def to_list(self) -> list[Fraction]:
        """Dense coefficient list through the highest supported index."""
        dense = [Fraction(0)] * (self.max_index() + 1)
        for i, n, d in self._items:
            dense[i] = Fraction(n, d)
        return dense

    def __str__(self) -> str:
        return "[" + ", ".join(str(c) for c in self.to_list()) + "]"

    def __repr__(self) -> str:
        return f"GroupElem({str(self)})"


def _from_items(items: Triples) -> GroupElem:
    """Internal constructor for triples that already hold the invariant."""
    out = object.__new__(GroupElem)
    out._items = items
    return out


GroupElem.ZERO = _from_items(())


class _Infinity:
    """The top point adjoined to the value group; compares above everything."""

    _instance: Optional["_Infinity"] = None

    def __new__(cls) -> "_Infinity":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other: object) -> bool:
        return False

    def __le__(self, other: object) -> bool:
        return other is self

    def __gt__(self, other: object) -> bool:
        return other is not self

    def __ge__(self, other: object) -> bool:
        return True

    def __repr__(self) -> str:
        return "Infinity"

    def __str__(self) -> str:
        return "infinity"


INFINITY = _Infinity()

GammaInf = Union[GroupElem, _Infinity]


def _merge(ia: Triples, ib: Triples, negate: bool) -> Triples:
    """The triples of ``a + b``, or ``a - b`` when negate, from two sorted
    triple tuples in one walk."""
    out: list[tuple[int, int, int]] = []
    pa = pb = 0
    na, nb = len(ia), len(ib)
    while pa < na and pb < nb:
        a = ia[pa]
        b = ib[pb]
        if a[0] < b[0]:
            out.append(a)
            pa += 1
        elif b[0] < a[0]:
            out.append((b[0], -b[1], b[2]) if negate else b)
            pb += 1
        else:
            i, an, ad = a
            _, bn, bd = b
            if negate:
                bn = -bn
            if ad == bd:
                n, d = an + bn, ad
            else:
                n, d = an * bd + bn * ad, ad * bd
            if n:
                g = gcd(n, d)
                out.append((i, n // g, d // g))
            pa += 1
            pb += 1
    out.extend(ia[pa:])
    out.extend([(i, -n, d) for i, n, d in ib[pb:]] if negate else ib[pb:])
    return tuple(out)


def unit(index: int) -> GroupElem:
    """The generator e_index."""
    if index < 0:
        raise ValueError(f"negative coordinate index {index}")
    return _from_items(((index, 1, 1),))


def _prefix(length: int) -> GroupElem:
    return _from_items(tuple([(i, 1, 1) for i in range(length)]))


# psi and successor ask for short prefixes in every suite; a longer one is
# built per call, so memory does not grow with the largest index asked for.
ONES_TABLE_SIZE = 64
_ONES = tuple(_prefix(n) for n in range(ONES_TABLE_SIZE + 1))


def ones(length: int) -> GroupElem:
    """The prefix vector e_0 + ... + e_{length-1} (zero for length 0)."""
    if length < 0:
        raise ValueError("prefix length must be nonnegative")
    return _ONES[length] if length <= ONES_TABLE_SIZE else _prefix(length)


def cmp(a: GroupElem, b: GroupElem) -> int:
    """Three-way comparison: sign of ``a - b``.

    Walks both supports in step instead of materialising the difference;
    this is the innermost loop of every suite in the package.
    """
    ia, ib = a._items, b._items
    na, nb = len(ia), len(ib)
    pa = pb = 0
    while pa < na and pb < nb:
        ta = ia[pa]
        tb = ib[pb]
        if ta != tb:
            if ta[0] < tb[0]:
                return 1 if ta[1] > 0 else -1
            if tb[0] < ta[0]:
                return -1 if tb[1] > 0 else 1
            return 1 if ta[1] * tb[2] > tb[1] * ta[2] else -1
        pa += 1
        pb += 1
    if pa < na:
        return 1 if ia[pa][1] > 0 else -1
    if pb < nb:
        return -1 if ib[pb][1] > 0 else 1
    return 0


def arch_cmp(a: GroupElem, b: GroupElem) -> int:
    """Compare archimedean classes: [a] against [b].

    The class of a nonzero vector is determined by its first nonzero
    index, with lower index meaning strictly larger class; the class of
    zero is below every other.
    """
    if a.is_zero() or b.is_zero():
        return b.is_zero() - a.is_zero()
    fa, fb = a.first_index(), b.first_index()
    return (fa < fb) - (fb < fa)


class ExtElem:
    """A point of the extension: ``base + q*delta``.

    ``delta`` stands for the constant-1 coordinate sequence, so the
    element's padded coordinates are ``base_i + q`` for every i.  The
    sequence is eventually constant ``q``; comparisons read the first
    nonzero entry of the difference, and leave INFINITY to its operators.

    q is stored as an int pair ``(_qn, _qd)`` in lowest terms with
    ``_qd > 0``, as the vector stores its coefficients, so arithmetic and
    comparison run on ints.  ``base`` and ``dq`` (q as a ``Fraction``) are
    read-only properties.
    """

    __slots__ = ("_base", "_qn", "_qd")

    def __init__(self, base: GroupElem = GroupElem.ZERO, dq: RatLike = 0) -> None:
        q = as_rat(dq)
        self._base = base
        self._qn = q.numerator
        self._qd = q.denominator

    @property
    def base(self) -> GroupElem:
        return self._base

    @property
    def dq(self) -> Fraction:
        return Fraction(self._qn, self._qd)

    def is_zero(self) -> bool:
        return not self._qn and not self._base._items

    def first_index(self) -> int:
        """First index with nonzero padded entry; error on the zero element."""
        i, sign = _padded_lead(self._base._items, self._qn, self._qd, (), 0, 1)
        if not sign:
            raise ValueError("the zero element has no leading index")
        return i

    def sign(self) -> int:
        return _padded_lead(self._base._items, self._qn, self._qd, (), 0, 1)[1]

    def __add__(self, other: object) -> "ExtElem":
        if isinstance(other, ExtElem):
            return _ext(self._base + other._base, *_q_add(self._qn, self._qd, other._qn, other._qd))
        if isinstance(other, GroupElem):
            return _ext(self._base + other, self._qn, self._qd)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> "ExtElem":
        return _ext(-self._base, -self._qn, self._qd)

    def __sub__(self, other: object) -> "ExtElem":
        if isinstance(other, ExtElem):
            return _ext(self._base - other._base, *_q_add(self._qn, self._qd, -other._qn, other._qd))
        if isinstance(other, GroupElem):
            return _ext(self._base - other, self._qn, self._qd)
        return NotImplemented

    def __rsub__(self, other: object) -> "ExtElem":
        if isinstance(other, GroupElem):
            return _ext(other - self._base, -self._qn, self._qd)
        return NotImplemented

    def scale(self, factor: RatLike) -> "ExtElem":
        fn, fd = _int_pair(factor)
        n, d = self._qn * fn, self._qd * fd
        g = gcd(n, d)
        return _ext(self._base._scaled(fn, fd), n // g, d // g)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ExtElem):
            return self._qn == other._qn and self._qd == other._qd and self._base == other._base
        if isinstance(other, GroupElem):
            return not self._qn and self._base == other
        return NotImplemented

    def __hash__(self) -> int:
        # With q == 0 it equals its base, so it hashes like it.
        return hash((self._base, self.dq)) if self._qn else hash(self._base)

    def _order(self, other: object, op: Callable[[int, int], bool]) -> bool:
        """``op(sign of self - other, 0)``, walking both operands in step;
        NotImplemented unless other is an ExtElem or a GroupElem."""
        if isinstance(other, ExtElem):
            ib, qn, qd = other._base._items, other._qn, other._qd
        elif isinstance(other, GroupElem):
            ib, qn, qd = other._items, 0, 1
        else:
            return NotImplemented
        return op(_padded_lead(self._base._items, self._qn, self._qd, ib, qn, qd)[1], 0)

    def __lt__(self, other: object) -> bool:
        return self._order(other, lt)

    def __le__(self, other: object) -> bool:
        return self._order(other, le)

    def __gt__(self, other: object) -> bool:
        return self._order(other, gt)

    def __ge__(self, other: object) -> bool:
        return self._order(other, ge)

    def _q_text(self) -> str:
        return str(self._qn) if self._qd == 1 else f"{self._qn}/{self._qd}"

    def __str__(self) -> str:
        if not self._qn:
            return str(self._base)
        if self._qn == self._qd == 1 and not self._base._items:
            return "delta"
        return f"{self._base} + {self._q_text()}*delta"

    def __repr__(self) -> str:
        return f"ExtElem({self._base!r}, {self._q_text()})"


def _ext(base: GroupElem, qn: int, qd: int) -> ExtElem:
    """Internal constructor: q = qn/qd already in lowest terms, qd > 0."""
    out = object.__new__(ExtElem)
    out._base = base
    out._qn = qn
    out._qd = qd
    return out


def _q_add(an: int, ad: int, bn: int, bd: int) -> tuple[int, int]:
    """an/ad + bn/bd in lowest terms, from two lowest-terms pairs."""
    if not bn:
        return an, ad
    if not an:
        return bn, bd
    n, d = an * bd + bn * ad, ad * bd
    g = gcd(n, d)
    return n // g, d // g


def _padded_lead(ia: Triples, qan: int, qad: int, ib: Triples, qbn: int, qbd: int) -> tuple[int, int]:
    """Where the padded sequences ``a_i + qa`` and ``b_i + qb`` first differ,
    and the sign of ``a - b`` there (0 when they are equal), for qa = qan/qad
    and qb = qbn/qbd.  Walks both supports in step, like ``cmp``; past them
    the difference is qa - qb."""
    qn = qan * qbd - qbn * qad
    qd = qad * qbd
    pa = pb = i = 0
    na, nb = len(ia), len(ib)
    while pa < na or pb < nb:
        if pb == nb or (pa < na and ia[pa][0] < ib[pb][0]):
            index, n, d = ia[pa]
            pa += 1
        elif pa == na or ib[pb][0] < ia[pa][0]:
            index, n, d = ib[pb]
            n = -n
            pb += 1
        else:
            index, an, ad = ia[pa]
            _, bn, bd = ib[pb]
            n, d = an * bd - bn * ad, ad * bd
            pa += 1
            pb += 1
        if qn and index > i:
            break
        entry = n * qd + qn * d
        if entry:
            return index, (entry > 0) - (entry < 0)
        i = index + 1
    return i, (qn > 0) - (qn < 0)


DELTA = _ext(GroupElem.ZERO, 1, 1)

ExtLike = Union[GroupElem, ExtElem]


def rat_json(q: Fraction) -> Union[int, str]:
    """JSON-safe exact rational: a plain int when integral, else ``p/q``."""
    return int(q) if q.denominator == 1 else str(q)


def vector_json(g: GammaInf) -> Union[list[Union[int, str]], str]:
    """Dense JSON form of a vector, exact coefficients throughout; "infinity" for INFINITY."""
    if g is INFINITY:
        return "infinity"
    return [rat_json(c) for c in g.to_list()]
