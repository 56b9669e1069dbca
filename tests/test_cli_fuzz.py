"""Fuzzed command lines: every argv ends in exactly one JSON object on
stdout, with exit code 0, 1 or 2, inside a time bound.

Generator indices and truncation bounds are drawn on both sides of their
caps.  Inside composite expressions generators stay small and exponents
stay in [-3, 3]: nested derivatives of large generators and large powers
are bounded by no budget yet (see ROADMAP item 2), and this test checks
the output contract, not those budgets.
"""

import contextlib
import io
import json
import time

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aclab import cli

CALL_SECONDS = 2.0

GEN = cli.MAX_GENERATOR_INDEX
TRUNC = cli.MAX_TRUNC_BOUND
BIG_INDEX = st.sampled_from([0, 1, 2, 12, GEN - 1, GEN, GEN + 1, 10 * GEN, 10 ** 30])
BOUND = st.sampled_from([-1, 0, 1, 2, 5, 22, 40, TRUNC + 1, 10 * TRUNC, 10 ** 30])

_leaf = st.one_of(
    st.integers(0, 9).map(str),
    st.just("x"),
    st.integers(0, 6).map(lambda n: f"l{n}"),
)


def _grow(inner):
    exponent = st.sampled_from(["2", "-1", "3", "0", "(1/2)", "(-3/2)", "(1/0)", "-"])
    return st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda t: f"{t[0]}{t[1]}{t[2]}"),
        inner.map(lambda e: f"({e})"),
        inner.map(lambda e: f"D({e})"),
        inner.map(lambda e: f"-{e}"),
        st.tuples(inner, exponent).map(lambda t: f"{t[0]}^{t[1]}"),
    )


EXPRS = st.recursive(_leaf, _grow, max_leaves=6)
JUNK = st.text(alphabet="xlD0123456789+-*/^() ", max_size=12)
DESCRIPTORS = st.sampled_from([
    "psidown", "(less [])", "(less [1, -1/2])", "(leq [0, 1])", "(int psidown)",
    "(down (int (exts smallint)))", "(affine [1] 2 (less [-1]))", "(exts bigint)",
    "(int (less [2]))", "(down (exts smallexpint))", "(less [1/0])", "(bogus)", "(less",
])
QUERIES = st.sampled_from(["jammed", "yardstick", "derived-yardstick", "sup", "half",
                           "member [0, 1]", "member [", "other"])
WORDS = st.sampled_from(["val", "psi", "cmp", "lambda", "classify", "suite", "extend", "set",
                         "step", "x", "--", "--pretty", "--seed", "3", "-x", "--cases", "--bogus"])

ARGV = st.one_of(
    st.tuples(st.sampled_from(["val", "psi"]), st.one_of(EXPRS, JUNK)).map(lambda t: [t[0], "--", t[1]]),
    st.tuples(EXPRS, EXPRS).map(lambda t: ["cmp", "--", t[0], t[1]]),
    st.tuples(st.sampled_from(["l{}", "D(l{})", "x*l{}^2"]), BIG_INDEX).map(
        lambda t: ["val", "--", t[0].format(t[1])]),
    BIG_INDEX.map(lambda n: ["psi", "--", f"l{n}"]),
    st.tuples(BOUND, st.sampled_from([[], ["--lambda-free", "yes"], ["--seed", "5"]])).map(
        lambda t: ["classify", f"trunc:{t[0]}"] + t[1]),
    st.sampled_from(["logfull", "loggap", "trunc:", "trunc:x", "bogus"]).map(lambda c: ["classify", c]),
    st.sampled_from(["-1", "0", "7", str(cli.MAX_LAMBDA_INDEX + 1), "x"]).map(lambda n: ["lambda", n]),
    st.tuples(st.sampled_from(["smallint", "smallexpint", "bigint", "huge"]),
              st.sampled_from(["0", "2", str(cli.MAX_STEP_ITERS + 1), "-1"])).map(
        lambda t: ["extend", "step", "--kind", t[0], "--iters", t[1]]),
    st.tuples(DESCRIPTORS, QUERIES).map(lambda t: ["set", t[0], t[1]]),
    st.tuples(st.sampled_from(["couple", "couple-gap", "identities", "grid", "field", "exclusion",
                               "extend-bigint", "nosuch"]),
              st.sampled_from(["-1", "0", "3", "1000000"])).map(
        lambda t: ["suite", t[0], "--cases", t[1]]),
    st.lists(WORDS, max_size=5),
)


@settings(max_examples=250, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ARGV)
def test_every_command_line_ends_in_one_json_object(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    elapsed = time.perf_counter() - start
    assert code in (0, 1, 2), argv
    lines = out.getvalue().splitlines()
    assert len(lines) == 1, argv
    assert isinstance(json.loads(lines[0]), dict), argv
    assert err.getvalue() == "", argv
    assert elapsed < CALL_SECONDS, (argv, elapsed)
