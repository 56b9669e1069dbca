"""Parser, printer, and command-level tests for the aclab CLI."""

from fractions import Fraction
import json
import os
import random
import subprocess
import sys

import pytest

import aclab
from aclab.cli import (
    Add,
    Der,
    Div,
    ExprSemanticError,
    ExprSyntaxError,
    Gen,
    Mul,
    Num,
    Pow,
    build_parser,
    evaluate,
    main,
    parse,
    parse_descriptor,
    random_expression,
)
from aclab.logts import ell, x_elem
from aclab.ogroup import GroupElem, ones
from aclab.setprops import PSI_DOWN, LessThan, member
from helpers import print_ast

V = GroupElem.parse


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


class TestParser:
    def test_documented_asts(self):
        assert parse("D(x*l1)") == Der(Mul(Gen(0), Gen(1)))
        assert parse("x^-2 * l1^-1") == Mul(Pow(Gen(0), Fraction(-2)),
                                            Pow(Gen(1), Fraction(-1)))

    def test_bare_exponents_are_integers(self):
        assert parse("x^2/3") == Div(Pow(Gen(0), Fraction(2)), Num(Fraction(3)))
        assert parse("x^(2/3)") == Pow(Gen(0), Fraction(2, 3))

    def test_unary_minus_at_head(self):
        assert parse("-x + 2") == Add(parse("-x"), Num(Fraction(2)))

    def test_syntax_error_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("x^(1/2")
        assert err.value.pos == 6
        assert "offset 6" in str(err.value)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse("x + ")
        with pytest.raises(ExprSyntaxError):
            parse("x ~ 2")

    def test_round_trip_on_corpus(self):
        rng = random.Random(5)
        for _ in range(80):
            ast = random_expression(rng)
            assert parse(print_ast(ast)) == ast


class TestEvaluate:
    def test_generators_and_powers(self):
        assert evaluate(parse("x")) == x_elem()
        assert evaluate(parse("l2^3")) == ell(2) ** 3
        assert evaluate(parse("x^(1/2) * x^(1/2)")) == x_elem()

    def test_derivative_operator(self):
        assert evaluate(parse("D(x*l1)")) == ell(1) + evaluate(parse("1"))
        assert evaluate(parse("D(l1)")) == x_elem().inv()

    def test_rational_arithmetic(self):
        assert evaluate(parse("2^3 / 4")) == evaluate(parse("2"))
        assert evaluate(parse("(1 + x^-1)^2")) == evaluate(parse("1 + 2*x^-1 + x^-2"))

    def test_fractional_power_needs_monomial_base(self):
        evaluate(parse("(x*l1)^(1/2)"))
        with pytest.raises(ExprSemanticError):
            evaluate(parse("(x + 1)^(1/2)"))
        with pytest.raises(ExprSemanticError):
            evaluate(parse("(2*x)^(1/2)"))

    def test_division_by_zero(self):
        with pytest.raises(ExprSemanticError):
            evaluate(parse("1 / (x - x)"))


class TestDescriptors:
    def test_parse_forms(self):
        assert parse_descriptor("psidown") == PSI_DOWN
        assert parse_descriptor("(less [1, 1])") == LessThan(ones(2))
        desc = parse_descriptor("(down (int (exts smallint)))")
        assert member(desc, V("[1, 50]"))
        assert not member(desc, V("[2, 50]"))

    def test_malformed_descriptor(self):
        with pytest.raises(ValueError):
            parse_descriptor("(less [1, 1]")
        with pytest.raises(ValueError):
            parse_descriptor("(mystery)")


class TestCommands:
    def test_documented_val(self, capsys):
        code, out = run(capsys, ["val", "x^2 + l1"])
        assert code == 0
        assert json.loads(out) == {"valuation": [-2]}

    def test_documented_lambda(self, capsys):
        code, out = run(capsys, ["lambda", "1"])
        assert code == 0
        assert json.loads(out) == {"expr": "x^-1 + (x*l1)^-1"}

    def test_documented_classify(self, capsys):
        code, out = run(capsys, ["classify", "trunc:3"])
        assert code == 0
        assert json.loads(out) == {"kind": "grounded", "max_psi": [1, 1, 1]}

    def test_val_of_zero(self, capsys):
        code, out = run(capsys, ["val", "x - x"])
        assert code == 0
        assert json.loads(out) == {"valuation": "infinity"}

    def test_psi_command(self, capsys):
        code, out = run(capsys, ["psi", "l2"])
        assert code == 0
        assert json.loads(out) == {"psi": [1, 1, 1]}

    def test_psi_rejects_units(self, capsys):
        code, out = run(capsys, ["psi", "1 + x^-1"])
        assert code == 2
        assert "error" in json.loads(out)

    def test_cmp_command(self, capsys):
        code, out = run(capsys, ["cmp", "x", "l1^5"])
        assert code == 0
        payload = json.loads(out)
        assert payload["dominance"] == "strictly-dominates"
        assert payload["equal"] is False

    def test_classify_with_closure_count(self, capsys):
        code, out = run(capsys, ["classify", "logfull", "--lambda-free", "yes"])
        assert code == 0
        assert json.loads(out)["closures"] == "one"

    def test_classify_rejects_inconsistency(self, capsys):
        code, out = run(capsys, ["classify", "loggap", "--lambda-free", "yes"])
        assert code == 2
        assert "error" in json.loads(out)

    def test_syntax_error_exit_code(self, capsys):
        code, out = run(capsys, ["val", "x^(1/2"])
        assert code == 2
        assert "offset 6" in json.loads(out)["error"]

    def test_suite_command(self, capsys):
        code, out = run(capsys, ["suite", "grid"])
        assert code == 0
        payload = json.loads(out)
        assert payload["failures"] == []

    def test_suite_unknown_name(self, capsys):
        code, out = run(capsys, ["suite", "mystery"])
        assert code == 2

    def test_extend_step(self, capsys):
        code, out = run(capsys, ["extend", "step", "--kind", "smallint", "--iters", "3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["gammas"] == [[2, 1], [2, 2], [2, 3], [2, 4]]

    def test_extend_step_checks_s(self, capsys):
        code, out = run(capsys, ["extend", "step", "--kind", "smallint",
                                 "--s", "x^-2 * l1^-1", "--iters", "1"])
        assert code == 0
        code, out = run(capsys, ["extend", "step", "--kind", "smallint",
                                 "--s", "x^-3", "--iters", "1"])
        assert code == 2

    def test_set_queries(self, capsys):
        code, out = run(capsys, ["set", "psidown", "jammed"])
        assert code == 0
        assert json.loads(out)["verdict"] == "holds"
        code, out = run(capsys, ["set", "psidown", "yardstick"])
        assert json.loads(out)["verdict"] == "fails"
        code, out = run(capsys, ["set", "(less [1, 1])", "member [0, 5]"])
        assert json.loads(out) == {"member": True}
        code, out = run(capsys, ["set", "psidown", "sup"])
        assert json.loads(out) == {"sup": None}

    def test_set_unsupported_is_a_usage_error(self, capsys):
        code, out = run(capsys, ["set", "(int (less [2]))", "member [1]"])
        assert code == 2

    def test_determinism(self, capsys):
        argv = ["suite", "couple", "--cases", "40", "--seed", "3"]
        _, first = run(capsys, argv)
        _, second = run(capsys, argv)
        assert first == second

    def test_pretty_flag_changes_layout_only(self, capsys):
        _, flat = run(capsys, ["val", "x^2 + l1"])
        _, pretty = run(capsys, ["val", "x^2 + l1", "--pretty"])
        assert flat != pretty
        assert json.loads(flat) == json.loads(pretty)

    def test_seed_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("ACLAB_SEED", "99")
        args = build_parser().parse_args(["suite", "couple"])
        assert args.seed == 99
        monkeypatch.delenv("ACLAB_SEED")
        args = build_parser().parse_args(["suite", "couple"])
        assert args.seed == 17


# Monomials hash by identity, that is by address, so a printer that iterated
# over a set of them would print in an order that varies between runs.
PRINTING_REQUESTS = (
    ["val", "--", "x^2*l1 + 3*l2^(1/2) - 5*x*l3 + l1^-1"],
    ["lambda", "12"],
    ["extend", "step", "--kind", "smallexpint", "--iters", "5"],
    ["psi", "--", "(x + l1)/(l2^2 - 1)"],
)


def test_printed_bytes_do_not_depend_on_the_interpreter():
    code = f"from aclab import cli\nfor argv in {PRINTING_REQUESTS!r}:\n    cli.main(list(argv))\n"
    src = os.path.dirname(os.path.dirname(os.path.abspath(aclab.__file__)))
    outs = [subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src,
                                                                "PYTHONHASHSEED": seed},
                           capture_output=True, check=True).stdout
            for seed in ("1", "2718")]
    assert outs[0] == outs[1]
    assert outs[0].count(b"\n") == len(PRINTING_REQUESTS)
