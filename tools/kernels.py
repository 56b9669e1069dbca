"""ns/op medians for the kernels under the field and couple suites and CLI.

    python3 tools/kernels.py --out BENCH.json [--src DIR]

Imports aclab from DIR (default: this checkout's src/), so the same script
times another checkout.  The process pins itself to one CPU, so that it
does not migrate between cores while it runs.  Each kernel runs a batch of
ops per repeat; the printed and written figure is the median over REPEATS
repeats of the batch's thread CPU time divided by its op count (CPU time,
so that time the thread spends preempted on a shared host does not count).
Inputs are seeded and the same on every checkout.  Kernels:

  series_mul_unit       s * 1 on random series of up to 4 terms
  series_mul_general    s * t on random series of up to 4 terms, timed on
                        the batch's second pass while the first pass's
                        products are held, so that every term product finds
                        its monomial in the intern table (30 pairs)
  monomial_mul_fresh    a * b whose product no earlier call built: a's
                        exponents count up over all calls
  monomial_mul_interned the same a * b again, with the first products held,
                        so that the intern table holds each product
  derivative_first      s.derivative() on a series not differentiated yet
  derivative_repeat     the same call again on the same series
  frac_eq_cross         f == g for f (up to 8 numerator and 4 denominator
                        terms) against itself over another denominator
                        (30 pairs; two thirds form 24 term pairs or more)
  frac_eq_small         the same with up to 2 numerator and 2 denominator
                        terms, at most 16 term pairs: the cross kernel
                        packs the monomials of small calls too
  vdiff_cross           vdiff(f, g) for g = f plus a smaller term, over
                        another denominator (30 pairs, built as above)
  frac_leibniz          the Leibniz line of check_axioms, (f*g)' != f'*g +
                        f*g', on seeded f and g that both have denominators
                        (30 pairs, fresh elements per repeat, every exponent
                        vector scaled by a prime above 1,000 that no earlier
                        repeat used, so that no monomial they make was made
                        before; a positive scale keeps the monomial order)
  frac_add_shared       f*h + g*h for seeded f, g and h, h with a
                        denominator (30 triples, built as above)
  kaplansky_check       pcseq.kaplansky_check on the quotient-limit pair
                        and the last rational map of R_FAMILY, after one
                        warm-up
  lambda_chunk          pcseq.lambda_suite(12, 100, seed), after one warm-up
  pc_prefix_lambda      pcseq.is_pc_prefix on lambda_seq(12), built fresh
                        (untimed) for each repeat
  equivalent_lambda     pcseq.equivalent_prefix(lambda_seq(12),
                        perturbed_lambda_seq(12)), the same way: eleven
                        deep-cancelling cross kernel calls
  frac_inverse_derivative
                        f.inv().derivative() twice on each seeded f with
                        v(f) < 0, as check_axioms' small and bounded lines
                        do (fresh elements per repeat, scaled as above)
  print_lambda_warm     str(pcseq.lambda_term(n)) for n = 0..24, terms taken
                        from the cache and printed once before the batch
  print_lambda_cold     the same on terms rebuilt after both lambda caches
                        are cleared and KEPT_ALIVE fresh monomials are made
                        (untimed): no live value holds the old terms'
                        monomials, so the rebuilt ones have no text yet
  sample_elem           acouple.sample_elem(rng) at its defaults
  vector_json           ogroup.vector_json(g) on sampled vectors
  vector_add            a + b on sampled vectors (GroupElem.__add__ over
                        ogroup._merge)
  integrate             acouple.integrate(g) on sampled vectors
  psi                   acouple.psi(g) on sampled vectors
  identity_chunk        acouple.identity_suite(25, seed), after one warm-up
  couple_chunk          acouple.verify_couple_axioms(25, seed, "logfull"),
                        after one warm-up
  couple_gap_chunk      the same on "loggap": sums, scales, psi and orders
                        of ExtElem
  ext_order             a < b on pairs of acouple.sample_ext draws, about
                        half of them off the base group
  cli_val               cli.main(["val", "--", "x+1"]) in process, stdout
                        captured, after one warm-up: parser, parse, output
  cli_val_power         cli.main(["val", "--", "(x+l1+1)^60"]), the same way,
                        one request per batch: a valuation whose expansion
                        forms tens of thousands of term pairs
  cli_cmp               cli.main(["cmp", "--", CMP_LEFT, CMP_RIGHT]), the
                        same way: two sums whose leading terms differ
  cli_cmp_equal         cli.main(["cmp", "--", "(A)*(B)", "(B)*(A)"]), the
                        same way: equal products, compared exactly
  cli_classify          cli.main(["classify", "trunc:3"]), the same way
  cli_set               cli.main(["set", "(less [1])", "jammed"]), the same
                        way: the verdict and the check of its certificate
  cli_set_derived       cli.main(["set", "(exts bigint)", "derived-yardstick"]),
                        the same way: three derived steps and their
                        membership tests, in the certificate's one check
  cli_lambda            cli.main(["lambda", "3"]), the same way
  cli_extend            cli.main(["extend", "step", "--kind", "smallexpint",
                        "--iters", "15"]), the same way, batches of 20: the
                        slowest request of the queries workload
  extend_chain          extend.chain(example("smallexpint"), 20), after one
                        warm-up, batches of 10: the yardstick step alone
  jammed_recheck        setprops.recheck_jammed on a (less ...) Holds and on
                        the shipped Fails, (down (int (exts smallint))),
                        alternately
  yardstick_recheck     setprops.recheck_yardstick on the cofinal-escape
                        Fails of (less [1]) and the integral-transport
                        Holds of (int (exts smallint)), alternately
  jammedness_suite      setprops.jammedness_suite as `aclab suite
                        jammedness` runs it (with the shipped Fails), one
                        run per repeat, after one warm-up
  record_new            one cli._Token, one cli.Add and one pcseq.SeqVerdict
                        built: the records the CLI parser and the pcseq
                        checks make most often
  import_cli            import aclab.cli in a fresh interpreter that neither
                        writes bytecode (-B) nor finds any: it imports a
                        copy of the package made without __pycache__, so
                        the row includes compiling aclab's source (one
                        import per repeat)
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPEATS = 21
BATCH = 200
GENERAL_BATCH = 30
CHAIN_BATCH = 10
CLI_EXTEND_BATCH = 20
CLI_POWER_BATCH = 1
CMP_LEFT, CMP_RIGHT = "3/4*x^2*l1 + l2 - 5", "x^2*l1^(1/2) - 2*l1"
CMP_A, CMP_B = "x + 2*l1^(1/2)", "l2^-1 - 3"


def _series_batch(logts, seed: int, count: int = BATCH) -> list:
    rng = random.Random(seed)
    return [logts.random_series(rng, max_terms=4) for _ in range(count)]


def _timed(ops) -> float:
    """CPU ns per op of one batch: ``ops`` is a list of zero-argument calls."""
    start = time.thread_time_ns()
    for op in ops:
        op()
    return (time.thread_time_ns() - start) / len(ops)


def _timed_again(ops) -> float:
    """``_timed`` on a second batch of ``ops``, the first batch's results
    held meanwhile, so that the second finds every monomial they made."""
    held = [op() for op in ops]
    ns = _timed(ops)
    del held
    return ns


def _series_mul_unit(logts, rep: int) -> float:
    one = logts.Series.ONE
    return _timed([lambda s=s: s * one for s in _series_batch(logts, rep)])


def _series_mul_general(logts, rep: int) -> float:
    left = _series_batch(logts, rep, GENERAL_BATCH)
    right = _series_batch(logts, rep + 10_000, GENERAL_BATCH)
    return _timed_again([lambda s=s, t=t: s * t for s, t in zip(left, right)])


# Counts the calls of _monomial_pairs, so that each call's products are new.
_PAIR_CALLS = itertools.count()


def _monomial_pairs(logts, rep: int) -> list:
    """Factor pairs with exponents no other kernel builds, whose products no
    earlier call built."""
    from aclab.ogroup import GroupElem
    first = next(_PAIR_CALLS) * BATCH
    pairs = []
    for k in range(BATCH):
        a = logts.Monomial(GroupElem([(0, 1), (5, Fraction(first + k + 1, 104729))]))
        b = logts.Monomial(GroupElem([(1, -1), (6, Fraction(k + 1, 7919))]))
        pairs.append((a, b))
    return pairs


def _monomial_mul_fresh(logts, rep: int) -> float:
    return _timed([lambda a=a, b=b: a * b for a, b in _monomial_pairs(logts, rep)])


def _monomial_mul_interned(logts, rep: int) -> float:
    return _timed_again([lambda a=a, b=b: a * b for a, b in _monomial_pairs(logts, rep)])


def _fresh_copies(logts, rep: int) -> list:
    return [logts.Series(s.terms) for s in _series_batch(logts, rep)]


def _derivative_first(logts, rep: int) -> float:
    return _timed([s.derivative for s in _fresh_copies(logts, rep)])


def _derivative_repeat(logts, rep: int) -> float:
    ops = [s.derivative for s in _fresh_copies(logts, rep)]
    _timed(ops)
    return _timed(ops)


def _cross_pairs(logts, rep: int, perturb: bool, num_terms: int = 8, den_terms: int = 4) -> list:
    """f and f (plus a term below its leading one, when perturb) over
    another denominator: equal leading terms, unequal denominators."""
    from aclab.ogroup import GroupElem
    rng = random.Random(rep)
    pairs = []
    for _ in range(GENERAL_BATCH):
        f = logts.Frac(logts.random_series(rng, max_terms=num_terms),
                       logts.random_series(rng, max_terms=den_terms))
        h = logts.Series.ONE + logts.Series.monomial(
            logts.Monomial(GroupElem([(rng.randint(0, 2), -1)])), rng.choice([1, -2]))
        g = f
        if perturb:
            below = f.num.leading()[0] * logts.Monomial(GroupElem([(0, -1)]))
            g = f + logts.Frac(logts.Series.monomial(below, rng.choice(logts.COEFF_POOL)))
        pairs.append((f, logts.Frac(g.num * h, g.den * h)))
    return pairs


def _frac_eq_cross(logts, rep: int) -> float:
    return _timed([lambda f=f, g=g: f == g for f, g in _cross_pairs(logts, rep, False)])


def _frac_eq_small(logts, rep: int) -> float:
    return _timed([lambda f=f, g=g: f == g for f, g in _cross_pairs(logts, rep, False, 2, 2)])


def _vdiff_cross(logts, rep: int) -> float:
    return _timed([lambda f=f, g=g: logts.vdiff(f, g) for f, g in _cross_pairs(logts, rep, True)])


def _primes_from(n: int):
    """The primes above n, in increasing order."""
    while True:
        n += 1
        if all(n % k for k in range(2, int(n ** 0.5) + 1)):
            yield n


# One scale per call of _unseen.  A vector scaled by a prime p above 1,000 has
# every numerator a multiple of p, since no seeded denominator is; the seeded
# vectors and their sums have numerators far below 1,000, so no other scale
# gives the same vector.
_SCALES = _primes_from(1_000)


def _unseen(logts, elems: list) -> list:
    """``elems`` with every exponent vector times the next prime of
    ``_SCALES``: the same shapes and order, on monomials no earlier call
    made."""
    p = next(_SCALES)

    def scaled(s):
        return logts.Series({logts.Monomial(m.exponents.scale(p)): c for m, c in s.terms.items()})
    return [logts.Frac(scaled(f.num), scaled(f.den)) for f in elems]


def _quotients(logts, rep: int, count: int) -> list:
    """Seeded elements that have denominators, made unseen."""
    rng = random.Random(rep)
    out = []
    while len(out) < count:
        f = logts.random_frac(rng)
        if len(f.den) > 1:
            out.append(f)
    return _unseen(logts, out)


def _frac_leibniz(logts, rep: int) -> float:
    elems = _quotients(logts, rep, 2 * GENERAL_BATCH)
    return _timed([lambda f=f, g=g: (f * g).derivative() != f.derivative() * g + f * g.derivative()
                   for f, g in zip(elems[::2], elems[1::2])])


def _frac_add_shared(logts, rep: int) -> float:
    elems = _quotients(logts, rep, 3 * GENERAL_BATCH)
    return _timed([lambda f=f, g=g, h=h: f * h + g * h
                   for f, g, h in zip(elems[::3], elems[1::3], elems[2::3])])


def _kaplansky_check(pcseq, rep: int) -> float:
    _, seq, limit = next(p for p in pcseq.shipped_pairs() if p[0] == "quotient-limit")
    rfunc = pcseq.R_FAMILY[-1]
    if rep == 0:
        pcseq.kaplansky_check(seq, limit, rfunc)
    return _timed([lambda: pcseq.kaplansky_check(seq, limit, rfunc)])


def _lambda_chunk(pcseq, rep: int) -> float:
    if rep == 0:
        pcseq.lambda_suite(12, 100, 1)
    return _timed([lambda: pcseq.lambda_suite(12, 100, rep + 2)])


def _pc_prefix_lambda(pcseq, rep: int) -> float:
    seq = pcseq.lambda_seq(12)
    return _timed([lambda: pcseq.is_pc_prefix(seq)])


def _equivalent_lambda(pcseq, rep: int) -> float:
    seq, perturbed = pcseq.lambda_seq(12), pcseq.perturbed_lambda_seq(12)
    return _timed([lambda: pcseq.equivalent_prefix(seq, perturbed)])


def _frac_inverse_derivative(logts, rep: int) -> float:
    rng = random.Random(rep)
    large = []
    while len(large) < GENERAL_BATCH:
        f = logts.random_frac(rng)
        if f.valuation() < logts.GroupElem.ZERO:
            large.append(f)
    return _timed([lambda f=f: (f.inv().derivative(), f.inv().derivative()) for f in _unseen(logts, large)])


LAMBDA_PRINTED = 25


def _print_lambda_warm(pcseq, rep: int) -> float:
    terms = [pcseq.lambda_term(n) for n in range(LAMBDA_PRINTED)]
    for t in terms:
        str(t)
    return _timed([lambda t=t: str(t) for t in terms])


def _print_lambda_cold(pcseq, rep: int) -> float:
    from aclab import logts
    from aclab.ogroup import GroupElem
    pcseq.lambda_term.cache_clear()
    pcseq._perturbed_term.cache_clear()
    first = (rep + 1) * 1_000
    for k in range(getattr(logts, "KEPT_ALIVE", 0)):
        logts.Monomial(GroupElem([(3, Fraction(first + k, 7919))]))
    return _timed([lambda t=pcseq.lambda_term(n): str(t) for n in range(LAMBDA_PRINTED)])


def _vectors(acouple, seed: int) -> list:
    rng = random.Random(seed)
    return [acouple.sample_elem(rng) for _ in range(BATCH)]


def _sample_elem(acouple, rep: int) -> float:
    rng = random.Random(rep)
    return _timed([lambda: acouple.sample_elem(rng)] * BATCH)


def _vector_add(acouple, rep: int) -> float:
    pairs = zip(_vectors(acouple, rep), _vectors(acouple, rep + 10_000))
    return _timed([lambda a=a, b=b: a + b for a, b in pairs])


def _vector_json(acouple, rep: int) -> float:
    from aclab.ogroup import vector_json
    return _timed([lambda g=g: vector_json(g) for g in _vectors(acouple, rep)])


def _integrate(acouple, rep: int) -> float:
    return _timed([lambda g=g: acouple.integrate(g) for g in _vectors(acouple, rep)])


def _psi(acouple, rep: int) -> float:
    return _timed([lambda g=g: acouple.psi(g) for g in _vectors(acouple, rep)])


def _identity_chunk(acouple, rep: int) -> float:
    if rep == 0:
        acouple.identity_suite(25, 1)
    return _timed([lambda: acouple.identity_suite(25, rep + 2)])


def _couple_chunk(couple: str):
    def kernel(acouple, rep: int) -> float:
        if rep == 0:
            acouple.verify_couple_axioms(25, 1, couple)
        return _timed([lambda: acouple.verify_couple_axioms(25, rep + 2, couple)])
    return kernel


def _ext_order(acouple, rep: int) -> float:
    rng = random.Random(rep)
    pairs = [(acouple.sample_ext(rng), acouple.sample_ext(rng)) for _ in range(BATCH)]
    return _timed([lambda a=a, b=b: a < b for a, b in pairs])


def _cli_request(cli, argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)


def _cli_kernel(argv: list[str], count: int = BATCH):
    def kernel(cli, rep: int) -> float:
        if rep == 0:
            _cli_request(cli, argv)
        return _timed([lambda: _cli_request(cli, argv)] * count)
    return kernel


def _extend_chain(extend, rep: int) -> float:
    sc = extend.example("smallexpint")
    if rep == 0:
        extend.chain(sc, 20)
    return _timed([lambda: extend.chain(sc, 20)] * CHAIN_BATCH)


def _jammed_recheck(cli, rep: int) -> float:
    from aclab import setprops
    from aclab.ogroup import GroupElem
    pairs = []
    for desc in (setprops.LessThan(GroupElem.parse("[1, -2, 1/2]")), cli._CLOSED_SMALL):
        pairs.append((desc, setprops.is_jammed(desc)))
    return _timed([lambda d=d, v=v: setprops.recheck_jammed(d, v) for d, v in pairs] * (BATCH // 2))


def _yardstick_recheck(cli, rep: int) -> float:
    from aclab import setprops
    pairs = []
    for text in ("(less [1])", "(int (exts smallint))"):
        desc = cli.parse_descriptor(text)
        pairs.append((desc, setprops.has_yardstick(desc)))
    return _timed([lambda d=d, v=v: setprops.recheck_yardstick(d, v) for d, v in pairs] * (BATCH // 2))


def _jammedness_suite(cli, rep: int) -> float:
    from aclab import setprops
    if rep == 0:
        setprops.jammedness_suite(0, fails_descriptor=cli._CLOSED_SMALL)
    return _timed([lambda: setprops.jammedness_suite(rep + 1, fails_descriptor=cli._CLOSED_SMALL)])


def _record_new(cli, rep: int) -> float:
    from aclab.pcseq import SeqVerdict
    token, add, x = cli._Token, cli.Add, cli.Gen(0)
    return _timed([lambda: (token("num", "12", 4), add(x, x), SeqVerdict("yes", 3))] * BATCH)


def _import_kernel(src: str):
    """CPU ns of ``import aclab.cli`` in a fresh interpreter, on a copy of
    the package made without its bytecode cache."""
    code = ("import time; start = time.thread_time_ns(); import aclab.cli; "
            "print(time.thread_time_ns() - start)")

    def kernel(module, rep: int) -> float:
        with tempfile.TemporaryDirectory(prefix="aclab-import-") as copy:
            shutil.copytree(os.path.join(src, "aclab"), os.path.join(copy, "aclab"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = {**os.environ, "PYTHONPATH": copy}
            out = subprocess.run([sys.executable, "-B", "-c", code], cwd=copy, env=env,
                                 capture_output=True, text=True, check=True).stdout
        return float(out)
    return kernel


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the aclab package to time")
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, os.path.abspath(args.src))
    from aclab import acouple, cli, extend, logts, pcseq

    kernels = {
        "series_mul_unit": (logts, _series_mul_unit),
        "series_mul_general": (logts, _series_mul_general),
        "monomial_mul_fresh": (logts, _monomial_mul_fresh),
        "monomial_mul_interned": (logts, _monomial_mul_interned),
        "derivative_first": (logts, _derivative_first),
        "derivative_repeat": (logts, _derivative_repeat),
        "frac_eq_cross": (logts, _frac_eq_cross),
        "frac_eq_small": (logts, _frac_eq_small),
        "vdiff_cross": (logts, _vdiff_cross),
        "frac_leibniz": (logts, _frac_leibniz),
        "frac_add_shared": (logts, _frac_add_shared),
        "kaplansky_check": (pcseq, _kaplansky_check),
        "lambda_chunk": (pcseq, _lambda_chunk),
        "pc_prefix_lambda": (pcseq, _pc_prefix_lambda),
        "equivalent_lambda": (pcseq, _equivalent_lambda),
        "frac_inverse_derivative": (logts, _frac_inverse_derivative),
        "print_lambda_warm": (pcseq, _print_lambda_warm),
        "print_lambda_cold": (pcseq, _print_lambda_cold),
        "sample_elem": (acouple, _sample_elem),
        "vector_json": (acouple, _vector_json),
        "vector_add": (acouple, _vector_add),
        "integrate": (acouple, _integrate),
        "psi": (acouple, _psi),
        "identity_chunk": (acouple, _identity_chunk),
        "couple_chunk": (acouple, _couple_chunk("logfull")),
        "couple_gap_chunk": (acouple, _couple_chunk("loggap")),
        "ext_order": (acouple, _ext_order),
        "cli_val": (cli, _cli_kernel(["val", "--", "x+1"])),
        "cli_val_power": (cli, _cli_kernel(["val", "--", "(x+l1+1)^60"], CLI_POWER_BATCH)),
        "cli_cmp": (cli, _cli_kernel(["cmp", "--", CMP_LEFT, CMP_RIGHT])),
        "cli_cmp_equal": (cli, _cli_kernel(["cmp", "--", f"({CMP_A})*({CMP_B})",
                                            f"({CMP_B})*({CMP_A})"])),
        "cli_classify": (cli, _cli_kernel(["classify", "trunc:3"])),
        "cli_set": (cli, _cli_kernel(["set", "(less [1])", "jammed"])),
        "cli_set_derived": (cli, _cli_kernel(["set", "(exts bigint)", "derived-yardstick"])),
        "cli_lambda": (cli, _cli_kernel(["lambda", "3"])),
        "cli_extend": (cli, _cli_kernel(["extend", "step", "--kind", "smallexpint", "--iters", "15"],
                                        CLI_EXTEND_BATCH)),
        "extend_chain": (extend, _extend_chain),
        "jammed_recheck": (cli, _jammed_recheck),
        "yardstick_recheck": (cli, _yardstick_recheck),
        "jammedness_suite": (cli, _jammedness_suite),
        "record_new": (cli, _record_new),
        "import_cli": (None, _import_kernel(os.path.abspath(args.src))),
    }
    results = {}
    for name, (module, kernel) in kernels.items():
        samples = [kernel(module, rep) for rep in range(REPEATS)]
        batch = {"lambda_chunk": 1, "identity_chunk": 1, "couple_chunk": 1,
                 "couple_gap_chunk": 1, "kaplansky_check": 1, "import_cli": 1,
                 "jammedness_suite": 1, "pc_prefix_lambda": 1, "equivalent_lambda": 1,
                 "frac_inverse_derivative": GENERAL_BATCH,
                 "series_mul_general": GENERAL_BATCH, "frac_eq_cross": GENERAL_BATCH,
                 "frac_eq_small": GENERAL_BATCH, "vdiff_cross": GENERAL_BATCH,
                 "frac_leibniz": GENERAL_BATCH, "frac_add_shared": GENERAL_BATCH,
                 "print_lambda_warm": LAMBDA_PRINTED, "print_lambda_cold": LAMBDA_PRINTED,
                 "cli_extend": CLI_EXTEND_BATCH, "cli_val_power": CLI_POWER_BATCH,
                 "extend_chain": CHAIN_BATCH}.get(name, BATCH)
        results[name] = {"ns_per_op": statistics.median(samples), "repeats": REPEATS,
                         "batch": batch}
        print(f"{name:23s} {results[name]['ns_per_op']:14,.0f} ns/op")
    payload = {
        "src": os.path.relpath(os.path.abspath(args.src), ROOT),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "kernels": results,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
