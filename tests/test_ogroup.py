"""Order and group laws for the exponent vectors and the delta extension."""

from fractions import Fraction

from hypothesis import assume, given
import pytest

from aclab import ogroup
from aclab.ogroup import (
    DELTA,
    ExtElem,
    GroupElem,
    arch_cmp,
    cmp,
    ones,
    rat_text,
    unit,
    vector_json,
)

from strategies import coeffs, ext_elems, group_elems, nonzero_elems


class TestGroupLaws:
    @given(group_elems(), group_elems(), group_elems())
    def test_addition_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(group_elems(), group_elems())
    def test_addition_commutative(self, a, b):
        assert a + b == b + a

    @given(group_elems())
    def test_zero_is_identity(self, a):
        assert a + GroupElem.ZERO == a
        assert GroupElem.ZERO + a == a

    @given(group_elems())
    def test_negation_inverts(self, a):
        assert a + (-a) == GroupElem.ZERO
        assert a - a == GroupElem.ZERO

    @given(group_elems(), group_elems())
    def test_subtraction_matches_negated_addition(self, a, b):
        assert a - b == a + (-b)

    @given(group_elems(), coeffs(), coeffs())
    def test_scaling_distributes(self, a, p, q):
        assert a.scale(p) + a.scale(q) == a.scale(p + q)
        assert a.scale(p).scale(q) == a.scale(p * q)

    @given(group_elems())
    def test_divisibility(self, a):
        for n in (2, 3, 7):
            assert a.div(n).scale(n) == a


class TestLexOrder:
    @given(group_elems(), group_elems())
    def test_trichotomy(self, a, b):
        assert (a < b) + (a == b) + (a > b) == 1

    @given(group_elems(), group_elems(), group_elems())
    def test_translation_invariance(self, a, b, c):
        assume(a < b)
        assert a + c < b + c

    @given(group_elems(), group_elems())
    def test_cmp_is_sign_of_difference(self, a, b):
        assert cmp(a, b) == (a - b).sign()

    @given(nonzero_elems())
    def test_sign_reads_leading_coefficient(self, a):
        assert a.sign() == (1 if a.leading_coeff() > 0 else -1)

    def test_lower_index_dominates(self):
        assert unit(0) > unit(1).scale(1000)
        assert unit(2).scale(Fraction(1, 5)) > unit(3).scale(900)
        assert unit(1).scale(-1) < unit(4)

    @given(nonzero_elems(), nonzero_elems())
    def test_arch_cmp_reads_first_index(self, a, b):
        expected = (b.first_index() > a.first_index()) - (a.first_index() > b.first_index())
        assert arch_cmp(a, b) == expected


def _dense_reference(a: GroupElem, b: GroupElem, sign: int) -> GroupElem:
    """a + sign*b, coordinate by coordinate on dense lists."""
    da, db = a.to_list(), b.to_list()
    n = max(len(da), len(db))
    da += [Fraction(0)] * (n - len(da))
    db += [Fraction(0)] * (n - len(db))
    return GroupElem.from_list(x + sign * y for x, y in zip(da, db))


class TestSparseSums:
    @given(group_elems(), group_elems())
    def test_add_and_sub_match_dense_reference(self, a, b):
        assert a + b == _dense_reference(a, b, 1)
        assert a - b == _dense_reference(a, b, -1)

    @given(group_elems(), group_elems())
    def test_results_store_no_zero(self, a, b):
        for r in (a + b, a - b, a - a, b - a):
            assert all(c for _, c in r.items)
            indices = [i for i, _ in r.items]
            assert indices == sorted(set(indices))

    def test_shared_index_cancels(self):
        a = GroupElem([(0, 1), (2, Fraction(1, 2))])
        assert (a - a).items == ()
        assert (a + -a).items == ()
        assert (a + GroupElem([(2, Fraction(-1, 2)), (3, 1)])).items == ((0, 1), (3, 1))


class TestParseFormat:
    @given(group_elems())
    def test_round_trip(self, a):
        assert GroupElem.parse(str(a)) == a

    def test_parse_fractions(self):
        g = GroupElem.parse("[2, -1/2, 0, 3]")
        assert g.coeff(0) == 2
        assert g.coeff(1) == Fraction(-1, 2)
        assert g.coeff(2) == 0
        assert g.coeff(3) == 3

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            GroupElem.parse("2, 3")
    def test_constructor_merges_and_drops(self):
        g = GroupElem([(1, Fraction(1, 2)), (1, Fraction(1, 2)), (3, 1), (3, -1)])
        assert g == unit(1)

    def test_constructor_rejects_negative_index(self):
        with pytest.raises(ValueError):
            GroupElem([(-1, 1)])

    @given(group_elems())
    def test_json_vector_is_exact(self, a):
        dense = vector_json(a)
        rebuilt = GroupElem.from_list(Fraction(v) for v in dense)
        assert rebuilt == a

    def test_rat_json_forms(self):
        assert vector_json(GroupElem.from_list([3, Fraction(-5, 2)])) == [3, "-5/2"]
        assert rat_text(3, 1) == "3"
        assert rat_text(-5, 2) == "-5/2"


class TestOnesAndUnits:
    def test_ones_prefixes(self):
        assert ones(0) == GroupElem.ZERO
        assert ones(1) == unit(0)
        assert ones(3) == unit(0) + unit(1) + unit(2)

    def test_ones_rejects_negative(self):
        with pytest.raises(ValueError):
            ones(-1)

    def test_long_prefixes_are_not_kept(self):
        table, top = ogroup._ONES, ogroup.ONES_TABLE_SIZE
        assert ones(50_000) == GroupElem.from_list([1] * 50_000)
        assert ones(top + 1) == ones(top) + unit(top)
        assert ogroup._ONES is table and len(table) == top + 1

    def test_zero_vector_queries(self):
        assert GroupElem.ZERO.max_index() == -1
        with pytest.raises(ValueError):
            GroupElem.ZERO.first_index()
        with pytest.raises(ValueError):
            GroupElem.ZERO.leading_coeff()


class TestDeltaExtension:
    @given(ext_elems(), ext_elems())
    def test_addition_commutative(self, a, b):
        assert a + b == b + a

    @given(ext_elems())
    def test_negation_inverts(self, a):
        assert (a + (-a)).is_zero()

    @given(ext_elems(), ext_elems())
    def test_order_total(self, a, b):
        assert (a < b) + (a == b) + (a > b) == 1

    @given(group_elems())
    def test_embedding_preserves_order(self, a):
        assume(not a.is_zero())
        emb = ExtElem(a, 0)
        assert (emb.sign() > 0) == (a.sign() > 0)
        assert emb == a

    def test_delta_sits_above_every_prefix(self):
        for k in range(12):
            assert DELTA > ones(k)

    def test_delta_below_head_start(self):
        assert DELTA < ones(2) + unit(2).scale(Fraction(3, 2))
        assert DELTA < unit(0).scale(2)

    def test_base_and_dq_are_read_only(self):
        e = ExtElem(unit(1), Fraction(1, 2))
        for name, value in (("base", unit(0)), ("dq", 1), ("extra", 0)):
            with pytest.raises(AttributeError):
                setattr(e, name, value)
        assert e == ExtElem(unit(1), Fraction(1, 2))

    def test_padded_coordinates(self):
        e = ExtElem(unit(1).scale(Fraction(1, 2)), Fraction(1, 3))
        assert [e.base.coeff(i) + e.dq for i in (0, 1, 7)] == [
            Fraction(1, 3), Fraction(5, 6), Fraction(1, 3)]



class TestNoFloats:
    @pytest.mark.parametrize("build", [
        lambda: GroupElem([(0, 0.1)]),
        lambda: GroupElem.from_list([1, 0.5]),
        lambda: unit(1).scale(0.5),
        lambda: ExtElem(GroupElem.ZERO, 0.1),
        lambda: ExtElem(unit(0), 1).scale(0.5),
        lambda: ogroup.as_rat(2.0),
    ])
    def test_a_float_is_a_type_error(self, build):
        with pytest.raises(TypeError, match="float"):
            build()

    def test_exact_values_still_pass(self):
        q = Fraction(1, 3)
        assert ogroup.as_rat(q) is q
        assert ogroup.as_rat("3/4") == Fraction(3, 4) and ogroup.as_rat(2) == 2
        assert ExtElem(unit(0), "1/2").dq == Fraction(1, 2) and unit(1).scale(True) == unit(1)
