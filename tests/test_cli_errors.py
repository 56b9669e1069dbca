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
