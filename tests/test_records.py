"""What every frozen record class keeps: its constructor, its checks,
equality only within its class, the hash of its compared fields, its repr,
and immutability."""

from fractions import Fraction
import itertools
import os
import subprocess
import sys

import pytest

import aclab
from aclab import acouple, cli, extend, logts, pcseq, setprops
from aclab.ogroup import ExtElem, unit

G = unit(1)
F = logts.x_elem()
SIX = Fraction(6)

# (class, arguments by position, field names in order, defaults of the
# trailing fields left out of the required-only call)
RECORDS = [
    (acouple.CoupleDescriptor, ("loggap", 3), ("kind", "n"), {"n": None}),
    (acouple.TrichotomyResult, ("gap", G, ExtElem(G, 1)), ("kind", "max_psi", "gap"),
     {"max_psi": None, "gap": None}),
    (cli.Num, (SIX,), ("value",), {}),
    (cli.Gen, (2,), ("index",), {}),
    (cli.Neg, (cli.Gen(1),), ("a",), {}),
    (cli.Add, (cli.Gen(0), cli.Num(SIX)), ("a", "b"), {}),
    (cli.Sub, (cli.Gen(0), cli.Num(SIX)), ("a", "b"), {}),
    (cli.Mul, (cli.Gen(0), cli.Num(SIX)), ("a", "b"), {}),
    (cli.Div, (cli.Gen(0), cli.Num(SIX)), ("a", "b"), {}),
    (cli.Pow, (cli.Gen(0), Fraction(2, 3)), ("base", "exp"), {}),
    (cli.Der, (cli.Gen(1),), ("a",), {}),
    (cli._Token, ("num", "12", 4), ("kind", "text", "pos"), {}),
    (extend.ExtScenario, (extend.SMALL_INT, F, F), ("kind", "s", "g"), {"g": None}),
    (extend.Witness, (F, G), ("eps", "gamma"), {}),
    (extend.ExtS, (extend.SMALL_INT,), ("kind",), {}),
    (logts.OdeComparison, (SIX, Fraction(-1), True), ("c0", "c1", "dominance_agrees"), {}),
    (pcseq.SeqVerdict, ("yes", 3, {"k": 1}), ("status", "index", "witness"),
     {"index": None, "witness": {}}),
    (pcseq.RatFunc, ((Fraction(1), SIX), (Fraction(2),)), ("num", "den"),
     {"den": (Fraction(1),)}),
    (setprops.LessThan, (G,), ("bound",), {}),
    (setprops.LessEq, (G,), ("bound",), {}),
    (setprops.PsiDown, (), (), {}),
    (setprops.Affine, (G, 2, setprops.PSI_DOWN), ("alpha", "n", "inner"), {}),
    (setprops.DownClosure, (setprops.PSI_DOWN,), ("inner",), {}),
    (setprops.IntImage, (setprops.PSI_DOWN,), ("inner",), {}),
    (setprops.PropertyVerdict, ("holds", "rule", None), ("verdict", "rule", "witness"),
     {"witness": None}),
]
IDS = [entry[0].__name__ for entry in RECORDS]


def _compared(cls, args):
    """The fields that equality and hashing read: all but SeqVerdict's witness."""
    return args[:2] if cls is pcseq.SeqVerdict else args


@pytest.mark.parametrize("cls, args, names, defaults", RECORDS, ids=IDS)
def test_constructor_by_position_and_keyword(cls, args, names, defaults):
    rec = cls(*args)
    assert [getattr(rec, name) for name in names] == list(args)
    assert cls(**dict(zip(names, args))) == rec
    required = args[:len(args) - len(defaults)]
    bare = cls(*required)
    for name, value in defaults.items():
        assert getattr(bare, name) == value
    with pytest.raises(TypeError):
        cls(*args, None)
    with pytest.raises(TypeError):
        cls(*args, not_a_field=1)
    if args:
        with pytest.raises(TypeError):
            cls(*args, **{names[0]: args[0]})


@pytest.mark.parametrize("cls, args, names, defaults", RECORDS, ids=IDS)
def test_repr_names_every_field(cls, args, names, defaults):
    rec = cls(*args)
    inner = ", ".join(f"{name}={value!r}" for name, value in zip(names, args))
    assert repr(rec) == f"{cls.__name__}({inner})"
    if cls.__str__ is object.__str__:
        assert str(rec) == repr(rec)


@pytest.mark.parametrize("cls, args, names, defaults", RECORDS, ids=IDS)
def test_equality_within_the_class_and_hash_of_compared_fields(cls, args, names, defaults):
    rec = cls(*args)
    assert rec == cls(*args) and not rec != cls(*args)
    assert rec != _compared(cls, args)
    for other_cls, other_args, _, _ in RECORDS:
        if other_cls is not cls:
            assert rec.__eq__(other_cls(*other_args)) is NotImplemented
    try:
        expected = hash(tuple(_compared(cls, args)))
    except TypeError:  # a Frac field is unhashable, and so is the record
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(rec) == expected


def test_same_fields_in_another_class_differ():
    a, b = cli.Gen(0), cli.Num(SIX)
    nodes = [kind(a, b) for kind in (cli.Add, cli.Sub, cli.Mul, cli.Div)]
    assert all(x != y for x, y in itertools.combinations(nodes, 2))
    assert setprops.LessThan(G) != setprops.LessEq(G)
    assert cli.Neg(a) != cli.Der(a)
    assert setprops.DownClosure(setprops.PSI_DOWN) != setprops.IntImage(setprops.PSI_DOWN)


@pytest.mark.parametrize("cls, args, names, defaults", RECORDS, ids=IDS)
def test_records_are_frozen(cls, args, names, defaults):
    rec = cls(*args)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.not_a_field = 1
    assert [getattr(rec, name) for name in names] == list(args)


@pytest.mark.parametrize("cls, args, error", [
    (acouple.CoupleDescriptor, ("spiral",), ValueError),
    (acouple.CoupleDescriptor, ("trunc",), ValueError),
    (acouple.CoupleDescriptor, ("trunc", 0), ValueError),
    (setprops.Affine, (G, 0, setprops.PSI_DOWN), ValueError),
    (pcseq.RatFunc, ((Fraction(1),), (Fraction(0),)), ZeroDivisionError),
    (pcseq.RatFunc, ((Fraction(0),),), ValueError),
    (extend.ExtScenario, ("spiral", F), ValueError),
    (extend.ExtScenario, (extend.BIG_INT, F), ValueError),
    (extend.ExtS, ("spiral",), ValueError),
], ids=lambda v: getattr(v, "__name__", None))
def test_post_init_checks(cls, args, error):
    with pytest.raises(error):
        cls(*args)


def test_seq_verdict_witness_is_fresh_and_not_compared():
    a, b = pcseq.SeqVerdict("no"), pcseq.SeqVerdict("no")
    assert a.witness == {} and a.witness is not b.witness
    marked = pcseq.SeqVerdict("no", witness={"stage": "x"})
    assert marked == a and hash(marked) == hash(a) == hash(("no", None))
    assert pcseq.SeqVerdict("no", 1) != a


def test_records_work_as_dict_keys():
    table = {setprops.LessThan(G): 1, setprops.LessEq(G): 2, setprops.PSI_DOWN: 3}
    assert table[setprops.LessThan(unit(1))] == 1
    assert table[setprops.LessEq(unit(1))] == 2
    assert table[setprops.PsiDown()] == 3


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # A fresh interpreter: pytest itself has imported both modules.
    code = ("import sys, aclab.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(aclab.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
