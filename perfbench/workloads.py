"""The three workloads, each as one pass of seeded ops with checks.

An op is ``(label, call, check)``: ``call()`` does the work timed as the
op's latency and returns its output; ``check(output)`` returns None when
the output is right and a short reason otherwise.  Calls look aclab names
up on the module at call time, so a traced run sees the wrapped versions.

aclab is imported inside the builders and calls, never at module level:
importing it is part of the set-up that ``setup_s`` measures.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

import reference as ref


def _report_check(cases: int, suite: str = ""):
    """A suite report passes when it has no failures, counts exactly the
    cases requested, and names the suite that was asked for."""
    def check(report) -> str | None:
        if report.failures:
            return f"{len(report.failures)} failures, first {report.failures[0]}"
        if report.cases != cases:
            return f"cases {report.cases} != {cases}"
        if suite not in report.suite:
            return f"suite {report.suite!r} is not {suite!r}"
        return None
    return check


def _seeds(rng: random.Random, count: int) -> list[int]:
    return [rng.randrange(2 ** 31) for _ in range(count)]


# ---------------------------------------------------------------------------
# field: the logts and pcseq suites at default size.

KAPLANSKY_CALLS = 270   # 10 shipped pairs x 27 rational maps of degree <= 3
AXIOM_CASES = 1000
LAMBDA_CORPUS, LAMBDA_CHUNK, LAMBDA_PREFIX = 1000, 100, 12


def field_ops(rng: random.Random) -> list:
    from aclab import logts, pcseq

    def kaplansky(name, seq, limit, rfunc):
        return (f"kaplansky[{name}]", lambda: pcseq.kaplansky_check(seq, limit, rfunc),
                lambda v: None if v.status == "yes" else f"verdict {v.status}: {v.witness}")

    ops = []
    for name, seq, limit in pcseq.shipped_pairs():
        for rfunc in pcseq.R_FAMILY:
            if rfunc.degree() <= 3 and not rfunc.is_constant():
                ops.append(kaplansky(name, seq, limit, rfunc))
    if len(ops) != KAPLANSKY_CALLS:
        raise RuntimeError(f"expected {KAPLANSKY_CALLS} Kaplansky calls, built {len(ops)}")
    for s in _seeds(rng, AXIOM_CASES):
        ops.append(("field-axioms", lambda s=s: logts.check_axioms(1, s),
                    _report_check(1, "field-axioms")))
    for s in _seeds(rng, LAMBDA_CORPUS // LAMBDA_CHUNK):
        ops.append(("lambda", lambda s=s: pcseq.lambda_suite(LAMBDA_PREFIX, LAMBDA_CHUNK, s),
                    _report_check(LAMBDA_CHUNK + LAMBDA_PREFIX + 2, "lambda")))
    return ops


# ---------------------------------------------------------------------------
# couple: the group-side suites at default size.

COUPLE_CASES, COUPLE_CHUNK = 10000, 25
EXCLUSION_PROBES, EXCLUSION_CHUNK = 1000, 100
EXTEND_PROBES, EXTEND_CHUNK = 50, 5
GRID_CASES = 7 ** 3          # support-3 vectors over 7 coefficient values
JAMMEDNESS_CASES = 1 + 20 + 50 + 1


def couple_ops(rng: random.Random) -> list:
    from aclab import acouple, extend, setprops
    from aclab.ogroup import GroupElem

    small = extend.s_descriptor(extend.smallint_example())
    big = extend.s_descriptor(extend.bigint_example())
    closed_small = setprops.DownClosure(setprops.IntImage(small))
    descriptors = [
        ("negative-cone", setprops.LessThan(GroupElem.ZERO)),
        ("principal", setprops.LessThan(GroupElem([(0, 1)]))),
        ("psi-down", setprops.PSI_DOWN),
        ("small-integrals", small),
        ("big-integrals", big),
        ("integrated-small", setprops.IntImage(small)),
        ("closed-small", closed_small),
        ("capped", setprops.LessEq(GroupElem([(1, 1)]))),
    ]
    scenarios = [extend.example(kind) for kind in extend.KINDS]

    chunks = COUPLE_CASES // COUPLE_CHUNK
    ops = []
    for couple in ("logfull", "loggap"):
        for s in _seeds(rng, chunks):
            ops.append((f"couple-axioms[{couple}]",
                        lambda s=s, c=couple: acouple.verify_couple_axioms(COUPLE_CHUNK, s, c),
                        _report_check(COUPLE_CHUNK, couple)))
    for s in _seeds(rng, chunks):
        ops.append(("identities", lambda s=s: acouple.identity_suite(COUPLE_CHUNK, s),
                    _report_check(COUPLE_CHUNK)))
    ops.append(("grid", lambda: acouple.conformance_grid(), _report_check(GRID_CASES)))
    ops.append(("jammedness",
                lambda s=rng.randrange(2 ** 31): setprops.jammedness_suite(
                    seed=s, fails_descriptor=closed_small),
                _report_check(JAMMEDNESS_CASES, "jammedness")))
    for s in _seeds(rng, EXCLUSION_PROBES // EXCLUSION_CHUNK):
        ops.append(("exclusion",
                    lambda s=s: setprops.exclusion_suite(descriptors, EXCLUSION_CHUNK, s),
                    _report_check(EXCLUSION_CHUNK * len(descriptors), "exclusion")))
    for sc in scenarios:
        for s in _seeds(rng, EXTEND_PROBES // EXTEND_CHUNK):
            ops.append((f"extend[{sc.kind}]",
                        lambda s=s, sc=sc: extend.verify_downward_no_max(sc, EXTEND_CHUNK, s),
                        _report_check(EXTEND_CHUNK, sc.kind)))
    return ops


# ---------------------------------------------------------------------------
# queries: one closed-loop client sending in-process `aclab` requests.

# Requests per pass by command.  No measured aclab traffic exists to weight
# the commands by, so each gets an equal share; fixed counts keep every pass
# the same mix, and 7 x 150 puts ten requests beyond p99 in each pass.
QUERY_MIX = dict.fromkeys(("val", "psi", "cmp", "set", "classify", "lambda", "extend"), 150)
COUPLES = ("trunc:1", "trunc:2", "trunc:3", "trunc:4", "trunc:5", "logfull", "loggap")
LAMBDA_FREE = (None, "yes", "no", "unknown")
KINDS = ("smallint", "smallexpint", "bigint")


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One request: `aclab argv` in process, stdout captured."""
    from aclab import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _one_json(out: str):
    lines = out.splitlines()
    if len(lines) != 1:
        raise ValueError(f"expected one JSON line, got {len(lines)}")
    payload = json.loads(lines[0])
    if not isinstance(payload, dict):
        raise ValueError("output is not a JSON object")
    return payload


def _cli_check(expect_code: int, judge):
    """Checks exit code, exactly one JSON object, then ``judge(payload)``."""
    def check(result) -> str | None:
        code, out = result
        if code != expect_code:
            return f"exit {code} != {expect_code}: {out.strip()[:200]}"
        try:
            payload = _one_json(out)
        except ValueError as exc:
            return f"bad output: {exc}"
        return judge(payload)
    return check


def _request(argv: list[str], judge, expect_code: int = 0):
    return (argv[0], lambda: run_cli(argv), _cli_check(expect_code, judge))


def _same_vector(got, want: dict) -> bool:
    try:
        return ref.from_json(got) == want
    except (ValueError, ZeroDivisionError):
        return False


def _expect_vector(key: str, expected: dict | None):
    def judge(payload):
        got = payload.get(key)
        if expected is None:
            return None if got == "infinity" else f"{key} {got} != infinity"
        return None if _same_vector(got, expected) else f"{key} {got} != {ref.vkey(expected)}"
    return judge


def _val(rng):
    text, v = ref.random_expression(rng)
    return _request(["val", "--", text], _expect_vector("valuation", v))


def _psi(rng):
    text, v = ref.nonzero_expression(rng)
    return _request(["psi", "--", text], _expect_vector("psi", ref.psi(v)))


def _cmp(rng):
    if rng.random() < 0.3:
        # The same product with its factors swapped: equal elements.
        a, _ = ref.random_sum(rng)
        b, _ = ref.random_sum(rng)
        left, right = f"({a})*({b})", f"({b})*({a})"
        expected = {"equal": True, "dominance": "asymptotic"}
    else:
        while True:
            left, vl = ref.random_expression(rng)
            right, vr = ref.random_expression(rng)
            if vl is not None and vr is not None and ref.vcmp(vl, vr) != 0:
                break
        expected = {"equal": False,
                    "dominance": "strictly-dominates" if ref.vcmp(vl, vr) < 0
                    else "strictly-dominated",
                    "left": vl, "right": vr}

    def judge(payload):
        for key, want in expected.items():
            got = payload.get(key)
            if not (_same_vector(got, want) if isinstance(want, dict) else got == want):
                return f"{key} {got!r} != {want!r}"
        return None
    return _request(["cmp", "--", left, right], judge)


def _set(rng):
    desc, query, verdict = ref.random_set_query(rng)

    def judge(payload):
        got = payload.get("verdict")
        return None if got == verdict else f"{desc} {query}: {got} != {verdict}"
    return _request(["set", "--", desc, query], judge)


def _classify(rng):
    couple, lam = rng.choice(COUPLES), rng.choice(LAMBDA_FREE)
    argv = ["classify", couple] + ([] if lam is None else ["--lambda-free", lam])
    code, expected = ref.classify_expected(couple, lam)
    if code:
        return _request(argv, lambda p: None if "error" in p else f"no error: {p}", code)
    return _request(argv, lambda p: None if p == expected else f"{p} != {expected}")


def _lambda(rng):
    n = rng.randint(0, 24)
    expected = {"expr": ref.lambda_text(n)}
    return _request(["lambda", str(n)],
                    lambda p: None if p == expected else f"lambda {n}: {p}")


def _extend(rng):
    kind, iters = rng.choice(KINDS), rng.randint(1, 20)

    def judge(payload):
        if payload.get("kind") != kind or payload.get("steps") != iters:
            return f"kind/steps {payload.get('kind')}/{payload.get('steps')}"
        gammas = [ref.from_json(g) for g in payload.get("gammas", [])]
        if len(gammas) != iters + 1:
            return f"{len(gammas)} gammas for {iters} steps"
        if any(ref.vcmp(a, b) >= 0 for a, b in zip(gammas, gammas[1:])):
            return "gammas are not strictly increasing"
        return None
    return _request(["extend", "step", "--kind", kind, "--iters", str(iters)], judge)


_MAKERS = {"val": _val, "psi": _psi, "cmp": _cmp, "set": _set,
           "classify": _classify, "lambda": _lambda, "extend": _extend}


def queries_ops(rng: random.Random) -> list:
    return [_MAKERS[cmd](rng) for cmd, count in QUERY_MIX.items() for _ in range(count)]


BUILDERS = {"field": field_ops, "couple": couple_ops, "queries": queries_ops}


def build(workload: str, seed: int, pass_index: int) -> list:
    """The ops of one pass; the same workload, seed and pass give the same ops."""
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    return _spread(BUILDERS[workload](rng), rng)


def _spread(ops: list, rng: random.Random) -> list:
    """Seeded order in which every label keeps its share in each stretch of
    the pass: the k-th of a label's n ops (shuffled) lands at a random point
    of [k/n, (k+1)/n).  A run cut at its deadline, or a traced prefix, then
    holds the pass's mix, including the rare expensive ops such as the
    quotient-limit Kaplansky checks."""
    strata: dict[str, list] = {}
    for op in ops:
        strata.setdefault(op[0], []).append(op)
    keyed = []
    for group in strata.values():
        rng.shuffle(group)
        keyed += [((k + rng.random()) / len(group), op) for k, op in enumerate(group)]
    keyed.sort(key=lambda pair: pair[0])
    return [op for _, op in keyed]


# ---------------------------------------------------------------------------
# Known defects: run once per `queries` run, outside the timed ops.

DEEP_PARENS = 2000


def known_defects() -> list[dict]:
    """Requests that today give a wrong answer or no JSON.  They are kept
    out of the timed mix, where no op may fail, and reported every run so
    that a fix shows up as a status change."""
    probes = [
        ("psidown-integral-jammed", ["set", "--", "(int psidown)", "jammed"],
         "verdict holds or unknown: (int psidown) is the negative cone",
         lambda code, p: code == 0 and p.get("verdict") in ("holds", "unknown")),
        ("deep-parentheses", ["val", "--", "(" * DEEP_PARENS + "x" + ")" * DEEP_PARENS],
         "JSON valuation [-1] or a JSON error",
         lambda code, p: p.get("valuation") == [-1] or "error" in p),
        ("dash-expression-without-separator", ["val", "-x"],
         "JSON valuation [-1] or a JSON error",
         lambda code, p: p.get("valuation") == [-1] or "error" in p),
    ]
    out = []
    for name, argv, expected, ok in probes:
        try:
            code, text = run_cli(argv)
            payload = _one_json(text)
            observed = {"exit": code, **{k: payload[k] for k in ("verdict", "rule", "valuation",
                                                                 "error") if k in payload}}
            fixed = ok(code, payload)
        except SystemExit as exc:
            observed, fixed = {"system_exit": exc.code}, False
        except (ValueError, RecursionError) as exc:
            observed, fixed = {"raised": type(exc).__name__}, False
        out.append({"name": name, "expected": expected, "observed": observed,
                    "status": "fixed" if fixed else "present"})
    return out
