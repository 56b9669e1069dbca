"""Shared hypothesis strategies for the exact-arithmetic domain."""

from fractions import Fraction

from hypothesis import strategies as st

from aclab.logts import Frac, Monomial, Series
from aclab.ogroup import ExtElem, GroupElem

SMALL_RATS = [Fraction(n, d) for n in range(-6, 7) for d in (1, 2, 3, 4) if n]


def coeffs() -> st.SearchStrategy[Fraction]:
    return st.sampled_from(SMALL_RATS)


def group_elems(max_index: int = 8, max_support: int = 4) -> st.SearchStrategy[GroupElem]:
    pair = st.tuples(st.integers(0, max_index), coeffs())
    return st.lists(pair, max_size=max_support).map(GroupElem)


def nonzero_elems() -> st.SearchStrategy[GroupElem]:
    return group_elems().filter(lambda g: not g.is_zero())


def ext_parts() -> st.SearchStrategy[tuple[GroupElem, object]]:
    """(base, q) pairs for ``ExtElem(base, q)``, q an int or a Fraction."""
    return st.tuples(group_elems(), st.sampled_from([0, 0, 1, -1, Fraction(1, 2), 2, Fraction(-3, 2)]))


def ext_elems() -> st.SearchStrategy[ExtElem]:
    return ext_parts().map(lambda t: ExtElem(t[0], t[1]))


def monomials(max_index: int = 5) -> st.SearchStrategy[Monomial]:
    return group_elems(max_index=max_index, max_support=3).map(Monomial)


def series(max_terms: int = 3) -> st.SearchStrategy[Series]:
    pair = st.tuples(monomials(), coeffs())
    return st.lists(pair, max_size=max_terms).map(Series)


def nonzero_series() -> st.SearchStrategy[Series]:
    return series().filter(lambda s: not s.is_zero())


def fracs() -> st.SearchStrategy[Frac]:
    polynomial = series().map(Frac)
    small_dens = series(max_terms=2).filter(lambda s: not s.is_zero())
    quotient = st.tuples(series(), small_dens).map(lambda t: Frac(t[0], t[1]))
    return st.one_of(polynomial, polynomial, quotient)


def nonzero_fracs() -> st.SearchStrategy[Frac]:
    return fracs().filter(lambda f: not f.is_zero())
