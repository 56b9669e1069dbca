"""Every failure of the aclab command ends in one JSON object."""

import json
import time

import pytest

from aclab import acouple, cli, logts, pcseq
from aclab.cli import build_parser, main


def test_bad_seed_variable_is_a_json_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("ACLAB_SEED", "abc")
    code = main(["lambda", "1"])
    out = capsys.readouterr().out
    assert code == 2
    assert out.count("\n") == 1
    assert "ACLAB_SEED" in json.loads(out)["error"]


def test_json_flag_is_gone(monkeypatch):
    monkeypatch.delenv("ACLAB_SEED", raising=False)
    with pytest.raises(SystemExit):
        build_parser().parse_args(["val", "x", "--json"])


@pytest.mark.parametrize("argv, needle", [
    (["val", "-x"], "required: expr"),
    (["mystery"], "invalid choice"),
    (["extend", "step"], "--kind"),
    (["suite", "couple", "--bogus"], "unrecognized arguments: --bogus"),
    (["lambda", "1", "-y"], "unrecognized arguments: -y"),
    (["val", "x", "--seed", "3"], "unrecognized arguments: --seed"),
    (["set", "(less [1", "half"], "unclosed '['"),
    (["set", "(less [1/0])", "half"], "zero denominator in vector"),
    (["set", "psidown", "member [1/0]"], "zero denominator in vector"),
    (["suite", "exclusion", "--cases", "-3"], "needs at least 1 case, got -3"),
    (["suite", "lambda", "--cases", "-1"], "needs at least 1 case, got -1"),
    (["suite", "couple", "--cases", "0"], "needs at least 1 case, got 0"),
    (["lambda", "301"], "lambda index 301 is above the limit 300"),
    (["extend", "step", "--kind", "smallint", "--iters", "351"], "step count 351 is above the limit 350"),
    (["suite", "lambda", "--len", "65"], "lambda prefix length 65 is above the limit 64"),
    (["classify", "trunc:2", "--seed", "5"], "unrecognized arguments: --seed 5"),
    (["classify", "trunc:"], "couple 'trunc:' needs a whole-number bound after 'trunc:'"),
    (["classify", "trunc:1.5"], "couple 'trunc:1.5' needs a whole-number bound after 'trunc:'"),
    (["classify", "trunc:x"], "couple 'trunc:x' needs a whole-number bound after 'trunc:'"),
    (["classify", "trunc:1_0"], "couple 'trunc:1_0' needs a whole-number bound after 'trunc:'"),
    (["classify", "trunc:+3"], "couple 'trunc:+3' needs a whole-number bound after 'trunc:'"),
    (["set", "(less [a])", "jammed"], "coefficient 'a' of vector '[a]' is not a rational number"),
    (["set", "psidown", "member [x]"], "coefficient 'x' of vector '[x]' is not a rational number"),
    (["set", "psidown", "member [1, , 2]"], "coefficient '' of vector '[1, , 2]' is not a rational number"),
])
def test_usage_errors_are_json(capsys, monkeypatch, argv, needle):
    monkeypatch.delenv("ACLAB_SEED", raising=False)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out.count("\n") == 1
    assert needle in json.loads(captured.out)["error"]
    assert captured.err == ""


def test_lambda_suite_checks_the_count_before_the_prefix(capsys, monkeypatch):
    def no_prefix(count):
        raise AssertionError("the lambda prefix was built")
    monkeypatch.delenv("ACLAB_SEED", raising=False)
    monkeypatch.setattr(pcseq, "lambda_seq", no_prefix)
    code = main(["suite", "lambda", "--cases", "0", "--len", "60"])
    assert code == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "suite lambda needs at least 1 case, got 0"}


@pytest.mark.parametrize("argv", [["val", "-x"], ["psi", "-x"], ["cmp", "x", "-y"],
                                  ["val", "x", "-y"], ["psi", "x", "-y"], ["cmp", "x", "-y", "z"]])
def test_dash_expression_error_points_to_separator(capsys, monkeypatch, argv):
    monkeypatch.delenv("ACLAB_SEED", raising=False)
    code = main(argv)
    assert code == 2
    assert "goes after '--', as in 'aclab val -- -x'" in json.loads(capsys.readouterr().out)["error"]


@pytest.mark.parametrize("argv", [["suite", "couple", "--bogus"], ["lambda", "1", "-y"]])
def test_other_commands_get_no_separator_hint(capsys, monkeypatch, argv):
    monkeypatch.delenv("ACLAB_SEED", raising=False)
    code = main(argv)
    assert code == 2
    assert "'--'" not in json.loads(capsys.readouterr().out)["error"]


def test_help_still_prints_text(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: aclab")


def test_failed_certificate_is_a_json_error(capsys, monkeypatch):
    # With der the identity, e_0 no longer derives above delta, so the gap
    # certificate fails; that must end in JSON with exit 1, not a traceback.
    monkeypatch.delenv("ACLAB_SEED", raising=False)
    monkeypatch.setattr(acouple, "der", lambda gamma: gamma)
    code = main(["classify", "loggap"])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out) == {
        "error": "gap certificate failed: delta not below a derivative"}
    assert captured.err == ""


@pytest.mark.parametrize("expr, needle", [
    ("(" * 300 + "x" + ")" * 300, "more than 400 tokens"),
    ("(" * 2000 + "x" + ")" * 2000, "more than 400 tokens"),
    ("+".join(["x"] * 3000), "more than 400 tokens"),
    ("D(" * 400 + "x" + ")" * 400, "more than 400 tokens"),
    ("(" * 51 + "x" + ")" * 51, "nested deeper than 50"),
], ids=["300-parentheses", "2000-parentheses", "3000-terms", "400-derivatives", "51-parentheses"])
def test_deep_or_long_expression_is_a_json_syntax_error(capsys, monkeypatch, expr, needle):
    monkeypatch.delenv("ACLAB_SEED", raising=False)
    code = main(["val", "--", expr])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out.count("\n") == 1
    assert needle in json.loads(captured.out)["error"]
    assert captured.err == ""


def test_power_over_the_term_pair_budget_is_a_json_error(capsys, monkeypatch):
    # The leading terms tie, so cmp expands both sides for the exact
    # comparison; val reads the leading term alone and answers.
    monkeypatch.delenv("ACLAB_SEED", raising=False)
    code = main(["cmp", "--", "(x+l1+1)^200", "(x+l1+1)^200"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out.count("\n") == 1
    assert json.loads(captured.out) == {
        "error": f"a product of 561 by 561 terms is above the budget of {logts.MAX_TERM_PAIRS} term pairs"}
    assert captured.err == ""


@pytest.mark.parametrize("expr, valuation", [
    ("(x+l1+1)^200", [-200]),
    ("(x+l1+l2+l3+1)^20", [-20]),
    ("D(D(l600))", [2] + [1] * 599),
])
def test_valuation_reads_the_leading_term_without_expanding(capsys, monkeypatch, expr, valuation):
    monkeypatch.delenv("ACLAB_SEED", raising=False)
    start = time.perf_counter()
    code = main(["val", "--", expr])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {"valuation": valuation}
    assert elapsed < 0.1


def test_cmp_finishes_the_left_side_before_parsing_the_right(capsys, monkeypatch):
    monkeypatch.delenv("ACLAB_SEED", raising=False)
    assert main(["cmp", "--", "1/0", "x ^"]) == 2
    assert json.loads(capsys.readouterr().out) == {"error": "division by zero"}


@pytest.mark.parametrize("expr, power", [("(3/4)^1000000", 1000000), ("((3/4)^1000)^1000", 1000)])
def test_power_over_the_coefficient_budget_is_a_json_error(capsys, monkeypatch, expr, power):
    monkeypatch.delenv("ACLAB_SEED", raising=False)
    start = time.perf_counter()
    code = main(["val", "--", expr])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out.count("\n") == 1
    assert json.loads(captured.out) == {
        "error": f"a power {power} would form coefficients of up to 2000000 bits, "
                 f"above the budget of {logts.MAX_COEFF_BITS} bits"}
    assert captured.err == ""
    assert elapsed < 1.0


def test_expression_at_the_bounds_is_evaluated(capsys, monkeypatch):
    monkeypatch.delenv("ACLAB_SEED", raising=False)
    assert main(["val", "--", "(" * 50 + "x" + ")" * 50]) == 0
    assert main(["val", "--", "+".join(["x"] * 200)]) == 0
    assert [json.loads(line) for line in capsys.readouterr().out.splitlines()] == [
        {"valuation": [-1]}, {"valuation": [-1]}]


def test_step_and_prefix_caps_admit_their_bound(capsys, monkeypatch):
    monkeypatch.delenv("ACLAB_SEED", raising=False)
    defaults = build_parser().parse_args(["suite", "lambda"])
    # perfbench asks for up to 20 steps and for prefixes of 12, the default.
    assert defaults.len == 12
    assert cli.MAX_STEP_ITERS >= 20 and cli.MAX_LAMBDA_PREFIX >= 12
    monkeypatch.setattr(cli, "MAX_STEP_ITERS", 2)
    monkeypatch.setattr(cli, "MAX_LAMBDA_PREFIX", 6)
    codes = [main(["extend", "step", "--kind", "smallexpint", "--iters", "2"]),
             main(["extend", "step", "--kind", "smallexpint", "--iters", "3"]),
             main(["suite", "lambda", "--len", "6", "--cases", "2"]),
             main(["suite", "lambda", "--len", "7", "--cases", "2"])]
    outs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert codes == [0, 2, 0, 2]
    assert outs[0]["steps"] == 2 and outs[2]["failures"] == []
    assert outs[1] == {"error": "step count 3 is above the limit 2"}
    assert outs[3] == {"error": "lambda prefix length 7 is above the limit 6"}


def test_suite_case_caps_admit_their_bound(capsys, monkeypatch):
    monkeypatch.delenv("ACLAB_SEED", raising=False)
    # Defaults stay inside the caps, and so do perfbench's chunks: 25 cases of
    # couple, couple-gap and identities, 1 of field, 100 of exclusion and
    # lambda, and 5 of each extend suite.
    for name, (_, default, cap) in cli.SUITES.items():
        assert cap is None or max(default, 100) <= cap, name
    capped = [name for name, (_, _, cap) in cli.SUITES.items() if cap is not None]
    assert "grid" not in capped and "couple" in capped
    for name in capped:
        run, default, _ = cli.SUITES[name]
        monkeypatch.setitem(cli.SUITES, name, (run, default, 2))
        codes = [main(["suite", name, "--cases", "2"]), main(["suite", name, "--cases", "3"])]
        ran, refused = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert codes == [0, 2], name
        assert ran["failures"] == [], name
        assert refused == {"error": f"case count 3 is above the limit 2 of suite {name}"}


def test_case_cap_is_a_json_usage_error(capsys, monkeypatch):
    monkeypatch.delenv("ACLAB_SEED", raising=False)
    code = main(["suite", "couple", "--cases", "10000000"])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    assert json.loads(captured.out) == {
        "error": f"case count 10000000 is above the limit {cli.SUITES['couple'][2]} of suite couple"}


def test_fixed_size_suites_ignore_the_case_count(capsys, monkeypatch):
    monkeypatch.delenv("ACLAB_SEED", raising=False)
    assert main(["suite", "grid", "--cases", "10000000"]) == 0
    assert json.loads(capsys.readouterr().out)["cases"] == 343


def test_generator_and_truncation_caps_admit_their_bound(capsys, monkeypatch):
    monkeypatch.delenv("ACLAB_SEED", raising=False)
    # `aclab lambda n` prints generators up to ln, so every answer parses back.
    assert cli.MAX_GENERATOR_INDEX >= cli.MAX_LAMBDA_INDEX + 1
    top = cli.MAX_GENERATOR_INDEX
    monkeypatch.setattr(cli, "MAX_TRUNC_BOUND", 30)
    codes = [main(["val", "--", f"l{top}"]), main(["val", "--", f"x*l{top + 1}"]),
             main(["classify", "trunc:30"]), main(["classify", "trunc:31"])]
    outs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert codes == [0, 2, 0, 2]
    assert outs[0] == {"valuation": [0] * top + [-1]}
    assert outs[1] == {"error": f"generator index {top + 1} is above the limit {top} at offset 2"}
    assert outs[2] == {"kind": "grounded", "max_psi": [1] * 30}
    assert outs[3] == {"error": "truncation bound 31 is above the limit 30"}


@pytest.mark.parametrize("argv, error", [
    (["val", "--", "D(l100000)"],
     f"generator index 100000 is above the limit {cli.MAX_GENERATOR_INDEX} at offset 2"),
    (["psi", "--", "l100000"],
     f"generator index 100000 is above the limit {cli.MAX_GENERATOR_INDEX} at offset 0"),
    (["classify", "trunc:100000"], f"truncation bound 100000 is above the limit {cli.MAX_TRUNC_BOUND}"),
])
def test_index_over_a_cap_is_refused_at_once(capsys, monkeypatch, argv, error):
    monkeypatch.delenv("ACLAB_SEED", raising=False)
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, json.dumps({"error": error}) + "\n", "")
    assert elapsed < 1.0
