"""Every failure of the aclab command ends in one JSON object."""

import json

import pytest

from aclab import acouple
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
])
def test_usage_errors_are_json(capsys, monkeypatch, argv, needle):
    monkeypatch.delenv("ACLAB_SEED", raising=False)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out.count("\n") == 1
    assert needle in json.loads(captured.out)["error"]
    assert captured.err == ""


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


def test_expression_at_the_bounds_is_evaluated(capsys, monkeypatch):
    monkeypatch.delenv("ACLAB_SEED", raising=False)
    assert main(["val", "--", "(" * 50 + "x" + ")" * 50]) == 0
    assert main(["val", "--", "+".join(["x"] * 200)]) == 0
    assert [json.loads(line) for line in capsys.readouterr().out.splitlines()] == [
        {"valuation": [-1]}, {"valuation": [-1]}]
