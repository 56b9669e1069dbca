"""The parser ``main`` builds for each request.

``main`` builds only the named command's subparser when ``argv[0]`` names a
command, and the full parser otherwise.  These tests check that this gives
the same exit code, stdout and stderr as parsing with the full parser,
that the console-script path (``main()`` reading ``sys.argv``) takes the
same route, and that ``ACLAB_SEED`` is validated whichever command runs.
"""

import contextlib
import io
import json
import sys

import pytest

from aclab import cli
from test_golden import corpus

EDGE_CASES = [
    [], ["-h"], ["mystery"], ["va", "x"], ["--", "val", "x"], ["--pretty", "val", "x"],
    ["val"], ["val", "--help"], ["extend"], ["extend", "bogus"], ["extend", "step", "--help"],
    ["val", "x", "-y"], ["lambda", "1", "-y"], ["classify", "trunc:2", "--seed", "x"],
    ["set", "(less [1])", "half", "extra"],
]

# One cheap request per command, each of which succeeds under a valid seed.
ONE_PER_COMMAND = {
    "val": ["val", "--", "x+1"],
    "psi": ["psi", "--", "l2"],
    "cmp": ["cmp", "--", "x", "l1"],
    "lambda": ["lambda", "1"],
    "classify": ["classify", "trunc:2"],
    "suite": ["suite", "grid"],
    "extend": ["extend", "step", "--kind", "smallint"],
    "set": ["set", "(less [1])", "half"],
}


def _full_parser_main(argv: list[str]) -> int:
    """``main`` as it reads with the full parser built for every request."""
    try:
        args = cli.build_parser().parse_args(argv)
        return args.fn(args)
    except (cli.UsageError, ValueError, ZeroDivisionError) as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True))
        return 2
    except ArithmeticError as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True))
        return 1


def _outcome(run, argv: list[str]) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = ("return", run(list(argv)))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


@pytest.fixture(autouse=True)
def _default_seed(monkeypatch):
    monkeypatch.delenv("ACLAB_SEED", raising=False)


@pytest.mark.parametrize("argv", EDGE_CASES, ids=repr)
def test_edge_cases_match_the_full_parser(argv):
    assert _outcome(cli.main, argv) == _outcome(_full_parser_main, argv)


def test_golden_corpus_matches_the_full_parser():
    for argv in corpus():
        assert _outcome(cli.main, argv) == _outcome(_full_parser_main, argv), argv


def test_help_text_matches_the_full_parser():
    for argv in [["-h"], *([name, "--help"] for name in cli.COMMANDS)]:
        named = _outcome(cli.main, argv)
        assert named == _outcome(_full_parser_main, argv)
        assert named[0] == ("exit", 0) and named[1].startswith("usage: aclab")


@pytest.mark.parametrize("argv, code, needle", [
    (["aclab", "val", "--", "x+1"], 0, '{"valuation": [-1]}'),
    (["aclab", "mystery"], 2, "invalid choice: 'mystery'"),
])
def test_console_script_reads_sys_argv(capsys, monkeypatch, argv, code, needle):
    monkeypatch.setattr(sys, "argv", argv)
    assert cli.main() == code
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and needle in out


@pytest.mark.parametrize("command", sorted(ONE_PER_COMMAND))
def test_bad_seed_variable_fails_every_command(capsys, monkeypatch, command):
    argv = ONE_PER_COMMAND[command]
    assert cli.main(argv) == 0
    capsys.readouterr()
    monkeypatch.setenv("ACLAB_SEED", "abc")
    assert cli.main(argv) == 2
    assert json.loads(capsys.readouterr().out) == {"error": "ACLAB_SEED must be an integer, got 'abc'"}
