"""The printers render from the stored ints: byte for byte what the
``Fraction``-based renderers in ``helpers`` print, and an interned monomial
keeps its text once printed."""

import random
from fractions import Fraction

from aclab import acouple, extend, logts, pcseq
from aclab.logts import Frac, Monomial, random_frac
from aclab.ogroup import DELTA, INFINITY, ExtElem, GroupElem, vector_json

from helpers import ext_text, frac_text, monomial_text, series_text, vector_json_text, vector_text


def _assert_prints_like_oracle(f: Frac) -> None:
    assert str(f) == frac_text(f)
    assert str(f.num) == series_text(f.num)
    for mono in f.num._nums:
        assert str(mono) == monomial_text(mono)


def test_random_elements_print_as_the_oracle():
    rng = random.Random(29)
    elems = [random_frac(rng, allow_zero=True) for _ in range(3000)]
    # Products of quotients have denominators of two or three factors.
    quotients = [f for f in elems if f._factors]
    elems += [f * g for f, g in zip(quotients, quotients[1:])]
    elems += [f * g * h for f, g, h in zip(quotients, quotients[7:], quotients[13:50])]
    assert sum(f.is_zero() for f in elems) >= 10
    assert sum(len(f._factors) >= 2 for f in elems) >= 200
    assert sum(len(f._factors) >= 3 for f in elems) >= 20
    assert sum(" | " in str(f) for f in elems) >= 500
    for f in elems:
        _assert_prints_like_oracle(f)


def test_lambda_terms_and_scenarios_print_as_the_oracle():
    for n in range(32):
        _assert_prints_like_oracle(pcseq.lambda_term(n))
    for kind in extend.KINDS:
        sc = extend.example(kind)
        _assert_prints_like_oracle(sc.s)
        if sc.g is not None:
            _assert_prints_like_oracle(sc.g)


def test_equal_fractional_powers_print_factored():
    cases = {
        ((0, "1/2"), (1, "1/2")): "(x*l1)^(1/2)",
        ((0, "-1/3"), (2, "-1/3"), (5, "-1/3")): "(x*l2*l5)^(-1/3)",
        ((0, -1), (1, -1)): "(x*l1)^-1",
        ((1, 1), (3, 1)): "l1*l3",
        ((0, "1/2"), (1, "-1/2")): "x^(1/2)*l1^(-1/2)",
        ((4, "5/2"),): "l4^(5/2)",
        ((0, 1),): "x",
        (): "1",
    }
    for coeffs, text in cases.items():
        mono = Monomial(GroupElem(coeffs))
        assert str(mono) == monomial_text(mono) == text
    s = logts.Series([(Monomial(GroupElem([(0, "1/2"), (1, "1/2")])), "-3/4"), (Monomial.ONE, 2)])
    assert str(s) == series_text(s) == "-3/4*(x*l1)^(1/2) + 2"


def test_vectors_and_extension_elements_print_as_the_oracle():
    rng = random.Random(7)
    for _ in range(1000):
        g = acouple.sample_elem(rng, max_index=40)
        assert str(g) == vector_text(g)
        assert vector_json(g) == vector_json_text(g)
        assert [type(c) for c in vector_json(g)] == [type(c) for c in vector_json_text(g)]
    exts = [acouple.sample_ext(rng) for _ in range(1000)]
    exts += [DELTA, -DELTA, ExtElem(GroupElem.ZERO, "-7/3"), ExtElem(GroupElem([(2, 5)]), 0)]
    for e in exts:
        assert str(e) == ext_text(e)
        assert repr(e) == f"ExtElem(GroupElem({vector_text(e.base)}), {e.dq})"
    assert vector_json(INFINITY) == vector_json_text(INFINITY) == "infinity"
    assert str(INFINITY) == "infinity"


def test_a_monomial_keeps_its_text_once_printed():
    exps = GroupElem([(0, "7/13"), (9_999, -2)])
    mono = Monomial(exps)
    assert getattr(mono, "_text", None) is None
    text = str(mono)
    assert text == "x^(7/13)*l9999^-2"
    assert mono._text is text
    assert str(mono) is text


def test_a_rebuilt_monomial_prints_the_same_bytes():
    exps = GroupElem([(1, "-5/11"), (8_888, "-5/11")])
    text = str(Monomial(exps))
    # Nothing holds the printed monomial once the keep-alive ring has moved
    # past it, so it dies and is built again without its text.
    for k in range(logts.KEPT_ALIVE):
        Monomial(GroupElem([(7_777, Fraction(k + 1, 13))]))
    assert exps.key not in logts._interned
    rebuilt = Monomial(exps)
    assert getattr(rebuilt, "_text", None) is None
    assert str(rebuilt) == text == "(l1*l8888)^(-5/11)"
