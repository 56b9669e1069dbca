"""Scenario-set descriptors compare and hash by kind, and exist only for
the shipped scenarios."""

from fractions import Fraction
import itertools

import pytest

from aclab.extend import (
    BIG_INT,
    KINDS,
    SMALL_INT,
    ExtS,
    ExtScenario,
    example,
    s_descriptor,
    smallint_example,
)
from aclab.logts import Frac, Monomial, Series, x_elem
from aclab.ogroup import unit
from aclab.setprops import DownClosure, IntImage
from aclab import setprops


def test_distinct_kinds_compare_unequal():
    for a, b in itertools.combinations(KINDS, 2):
        da, db = s_descriptor(example(a)), s_descriptor(example(b))
        assert da != db
        assert DownClosure(da) != DownClosure(db)
        assert IntImage(da) != IntImage(db)
        assert DownClosure(IntImage(da)) != DownClosure(IntImage(db))


def test_one_kind_built_twice_is_equal_and_hashes_equal():
    for kind in KINDS:
        first, second = s_descriptor(example(kind)), ExtS(kind)
        assert first == second
        assert hash(first) == hash(second)
        assert hash(IntImage(first)) == hash(IntImage(second))
    assert s_descriptor(smallint_example()) == s_descriptor(example(SMALL_INT))
    assert len({DownClosure(ExtS(kind)) for kind in KINDS + KINDS}) == len(KINDS)


def test_setprops_reexports_the_descriptor():
    assert setprops.ExtS is ExtS


def test_non_shipped_scenario_has_no_descriptor():
    with pytest.raises(ValueError):
        s_descriptor(ExtScenario(SMALL_INT, x_elem().inv()))
    shipped = example(BIG_INT)
    other_g = Frac(Series.monomial(Monomial(unit(0) + unit(1).scale(Fraction(3, 2)))))
    with pytest.raises(ValueError):
        s_descriptor(ExtScenario(BIG_INT, shipped.s, other_g))


def test_unknown_kind_is_rejected():
    with pytest.raises(ValueError):
        ExtS("mystery")
