"""Every failure of the aclab command ends in one JSON object."""

import json

import pytest

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
])
def test_usage_errors_are_json(capsys, monkeypatch, argv, needle):
    monkeypatch.delenv("ACLAB_SEED", raising=False)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out.count("\n") == 1
    assert needle in json.loads(captured.out)["error"]
    assert captured.err == ""


def test_help_still_prints_text(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: aclab")
