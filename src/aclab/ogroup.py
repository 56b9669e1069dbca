"""Finite-support rational exponent vectors under the lexicographic order.

Everything else in this package is built over one ordered abelian group:
formal sums ``sum_i r_i * e_i`` with rational coefficients, almost all
zero.  Lower indices dominate, and each generator is positive, so an
element is positive exactly when its lowest-index nonzero coefficient is.
The group is divisible (coefficients are rational), and its archimedean
class is determined by the first nonzero index alone.

A second element type adjoins a single extra point ``delta`` whose
coordinate sequence is constant 1.  Sums ``base + q*delta`` are compared
through their padded, eventually constant coordinate sequences; this
places ``delta`` above every finite prefix ``e_0 + ... + e_n`` but below
anything with a head start at an earlier coordinate.

Valuations take values in Gamma with a top point ``INFINITY`` adjoined,
the value of zero, and ``vector_json`` prints it as ``"infinity"``.
``INFINITY`` is the top of the value order: vectors, extension elements
and ``INFINITY`` compare with one another through their operators, each
type accepting the other two on either side.  ``cmp`` compares vectors
only.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Optional, Union

Rat = Fraction

RatLike = Union[int, str, Fraction]


def as_rat(value: RatLike) -> Fraction:
    """Coerce ints and ``p/q`` strings to an exact rational."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


class GroupElem:
    """An exponent vector: sparse map from index to nonzero rational.

    Instances are immutable and hashable; all arithmetic returns fresh
    values.  The comparison operators implement the lexicographic order
    with coordinate 0 dominant.  They accept INFINITY, which is above every
    vector, and ExtElem on either side: against those they return
    NotImplemented, so the other operand's operator decides.
    """

    __slots__ = ("_items", "_hash")

    ZERO: "GroupElem"

    def __init__(self, coeffs: Union[Mapping[int, RatLike], Iterable[tuple[int, RatLike]]] = ()) -> None:
        if isinstance(coeffs, Mapping):
            pairs = coeffs.items()
        else:
            pairs = coeffs
        cleaned: dict[int, Fraction] = {}
        for index, raw in pairs:
            if index < 0:
                raise ValueError(f"negative coordinate index {index}")
            value = as_rat(raw)
            if value:
                cleaned[index] = cleaned.get(index, Fraction(0)) + value
        items = tuple(sorted((i, c) for i, c in cleaned.items() if c))
        object.__setattr__(self, "_items", items)
        object.__setattr__(self, "_hash", None)

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
        return cls.from_list(Fraction(part.strip()) for part in inner.split(","))

    @property
    def items(self) -> tuple[tuple[int, Fraction], ...]:
        return self._items

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self._items)

    def coeff(self, index: int) -> Fraction:
        for i, c in self._items:
            if i == index:
                return c
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
        return self._items[0][1]

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
        ia, ib = self._items, other._items
        if not ia:
            return other
        if not ib:
            return self
        out: list[tuple[int, Fraction]] = []
        pa = pb = 0
        na, nb = len(ia), len(ib)
        while pa < na and pb < nb:
            a_i, a_c = ia[pa]
            b_i, b_c = ib[pb]
            if a_i < b_i:
                out.append(ia[pa])
                pa += 1
            elif b_i < a_i:
                out.append(ib[pb])
                pb += 1
            else:
                s = a_c + b_c
                if s:
                    out.append((a_i, s))
                pa += 1
                pb += 1
        out.extend(ia[pa:])
        out.extend(ib[pb:])
        return _from_items(tuple(out))

    def __radd__(self, other: object) -> "GroupElem":
        if other == 0:
            return self
        return NotImplemented

    def __sub__(self, other: "GroupElem") -> "GroupElem":
        if not isinstance(other, GroupElem):
            return NotImplemented
        ia, ib = self._items, other._items
        if not ib:
            return self
        out: list[tuple[int, Fraction]] = []
        pa = pb = 0
        na, nb = len(ia), len(ib)
        while pa < na and pb < nb:
            a_i, a_c = ia[pa]
            b_i, b_c = ib[pb]
            if a_i < b_i:
                out.append(ia[pa])
                pa += 1
            elif b_i < a_i:
                out.append((b_i, -b_c))
                pb += 1
            else:
                s = a_c - b_c
                if s:
                    out.append((a_i, s))
                pa += 1
                pb += 1
        out.extend(ia[pa:])
        for i in range(pb, nb):
            b_i, b_c = ib[i]
            out.append((b_i, -b_c))
        return _from_items(tuple(out))

    def __neg__(self) -> "GroupElem":
        return _from_items(tuple((i, -c) for i, c in self._items))

    def scale(self, factor: RatLike) -> "GroupElem":
        q = as_rat(factor)
        if not q:
            return GroupElem.ZERO
        return _from_items(tuple((i, c * q) for i, c in self._items))

    def div(self, n: int) -> "GroupElem":
        """Exact division witnessing divisibility of the group."""
        if n == 0:
            raise ZeroDivisionError("division of a vector by zero")
        return self.scale(Fraction(1, n))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GroupElem):
            return self._items == other._items
        return NotImplemented

    def __hash__(self) -> int:
        # Hash over integer triples: Fraction.__hash__ is slow enough to
        # dominate profiles when vectors are used as dictionary keys.
        h = self._hash
        if h is None:
            h = hash(tuple((i, c.numerator, c.denominator) for i, c in self._items))
            object.__setattr__(self, "_hash", h)
        return h

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
        for i, c in self._items:
            dense[i] = c
        return dense

    def __str__(self) -> str:
        return "[" + ", ".join(str(c) for c in self.to_list()) + "]"

    def __repr__(self) -> str:
        return f"GroupElem({str(self)})"


GroupElem.ZERO = GroupElem()


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


def _from_items(items: tuple[tuple[int, Fraction], ...]) -> GroupElem:
    """Internal constructor for already sorted, duplicate-free, zero-free items."""
    out = GroupElem.__new__(GroupElem)
    object.__setattr__(out, "_items", items)
    object.__setattr__(out, "_hash", None)
    return out


def unit(index: int) -> GroupElem:
    """The generator e_index."""
    return GroupElem(((index, 1),))


_ONES_CACHE: list[GroupElem] = [GroupElem.ZERO]


def ones(length: int) -> GroupElem:
    """The prefix vector e_0 + ... + e_{length-1} (zero for length 0)."""
    if length < 0:
        raise ValueError("prefix length must be nonnegative")
    while len(_ONES_CACHE) <= length:
        _ONES_CACHE.append(GroupElem((i, 1) for i in range(len(_ONES_CACHE))))
    return _ONES_CACHE[length]


def cmp(a: GroupElem, b: GroupElem) -> int:
    """Three-way comparison: sign of ``a - b``.

    Walks both supports in step instead of materialising the difference;
    this is the innermost loop of every suite in the package.
    """
    ia, ib = a._items, b._items
    na, nb = len(ia), len(ib)
    pa = pb = 0
    while pa < na and pb < nb:
        idx_a, ca = ia[pa]
        idx_b, cb = ib[pb]
        if idx_a < idx_b:
            return 1 if ca > 0 else -1
        if idx_b < idx_a:
            return -1 if cb > 0 else 1
        if ca != cb:
            return 1 if ca > cb else -1
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
    if a.is_zero() and b.is_zero():
        return 0
    if a.is_zero():
        return -1
    if b.is_zero():
        return 1
    fa, fb = a.first_index(), b.first_index()
    if fa == fb:
        return 0
    return 1 if fa < fb else -1


class ExtElem:
    """A point of the extension: ``base + q*delta``.

    ``delta`` stands for the constant-1 coordinate sequence, so the
    element's padded coordinates are ``base_i + q`` for every i.  The
    sequence is eventually constant ``q``; comparisons read the first
    nonzero entry of the difference, and leave INFINITY to its operators.
    """

    __slots__ = ("base", "dq")

    def __init__(self, base: GroupElem = GroupElem.ZERO, dq: RatLike = 0) -> None:
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "dq", as_rat(dq))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ExtElem is immutable")

    def padded(self, index: int) -> Fraction:
        return self.base.coeff(index) + self.dq

    def is_zero(self) -> bool:
        return self.dq == 0 and self.base.is_zero()

    def _lead(self) -> tuple[int, Fraction]:
        """The first index with nonzero padded entry and that entry, 0 only at zero."""
        i = 0
        for index, c in self.base.items:
            if self.dq and index > i:
                return i, self.dq
            entry = c + self.dq
            if entry:
                return index, entry
            i = index + 1
        return i, self.dq

    def first_index(self) -> int:
        """First index with nonzero padded entry; error on the zero element."""
        i, entry = self._lead()
        if not entry:
            raise ValueError("the zero element has no leading index")
        return i

    def sign(self) -> int:
        entry = self._lead()[1]
        return (entry > 0) - (entry < 0)

    def __add__(self, other: object) -> "ExtElem":
        if isinstance(other, ExtElem):
            return ExtElem(self.base + other.base, self.dq + other.dq)
        if isinstance(other, GroupElem):
            return ExtElem(self.base + other, self.dq)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> "ExtElem":
        return ExtElem(-self.base, -self.dq)

    def __sub__(self, other: object) -> "ExtElem":
        if isinstance(other, ExtElem):
            return ExtElem(self.base - other.base, self.dq - other.dq)
        if isinstance(other, GroupElem):
            return ExtElem(self.base - other, self.dq)
        return NotImplemented

    def __rsub__(self, other: object) -> "ExtElem":
        if isinstance(other, GroupElem):
            return ExtElem(other - self.base, -self.dq)
        return NotImplemented

    def scale(self, factor: RatLike) -> "ExtElem":
        q = as_rat(factor)
        return ExtElem(self.base.scale(q), self.dq * q)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ExtElem):
            return self.dq == other.dq and self.base == other.base
        if isinstance(other, GroupElem):
            return self.dq == 0 and self.base == other
        return NotImplemented

    def __hash__(self) -> int:
        # With dq == 0 it equals its base, so it hashes like it.
        return hash((self.base, self.dq)) if self.dq else hash(self.base)

    def __lt__(self, other: object) -> bool:
        diff = self.__sub__(other)
        return diff if diff is NotImplemented else diff.sign() < 0

    def __le__(self, other: object) -> bool:
        diff = self.__sub__(other)
        return diff if diff is NotImplemented else diff.sign() <= 0

    def __gt__(self, other: object) -> bool:
        diff = self.__sub__(other)
        return diff if diff is NotImplemented else diff.sign() > 0

    def __ge__(self, other: object) -> bool:
        diff = self.__sub__(other)
        return diff if diff is NotImplemented else diff.sign() >= 0

    def __str__(self) -> str:
        if self.dq == 0:
            return str(self.base)
        if self.base.is_zero() and self.dq == 1:
            return "delta"
        return f"{self.base} + {self.dq}*delta"

    def __repr__(self) -> str:
        return f"ExtElem({self.base!r}, {self.dq})"

    @classmethod
    def parse(cls, text: str) -> "ExtElem":
        """Parse ``[..] + q*delta``, bare ``delta``, or a plain vector."""
        body = text.strip()
        if body == "delta":
            return DELTA
        if "delta" not in body:
            return cls(GroupElem.parse(body), 0)
        head, _, tail = body.rpartition("+")
        tail = tail.strip()
        if not tail.endswith("delta"):
            raise ValueError(f"malformed extension element {text!r}")
        coeff_text = tail[: -len("delta")].rstrip()
        if coeff_text.endswith("*"):
            coeff_text = coeff_text[:-1].rstrip()
        dq = Fraction(coeff_text) if coeff_text else Fraction(1)
        base = GroupElem.parse(head) if head.strip() else GroupElem.ZERO
        return cls(base, dq)


DELTA = ExtElem(GroupElem.ZERO, 1)

ExtLike = Union[GroupElem, ExtElem]


def rat_json(q: Fraction) -> Union[int, str]:
    """JSON-safe exact rational: a plain int when integral, else ``p/q``."""
    if q.denominator == 1:
        return int(q)
    return str(q)


def vector_json(g: GammaInf) -> Union[list[Union[int, str]], str]:
    """Dense JSON form of a vector, exact coefficients throughout; "infinity" for INFINITY."""
    if g is INFINITY:
        return "infinity"
    return [rat_json(c) for c in g.to_list()]
