"""Command-line front end: expression parsing, field and couple queries,
lambda terms, couple classification, set-property queries, extension
chains, and the verification suites, all reporting JSON.

Exit codes: 0 success, 1 failing suite or internal delegate error,
2 usage, syntax, or semantic input error.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction
from typing import Callable, Optional, Union

from . import extend, pcseq, setprops
from .acouple import (
    CoupleDescriptor,
    Report,
    classify_couple,
    closure_count,
    conformance_grid,
    identity_suite,
    psi,
    verify_couple_axioms,
)
from .logts import Frac, Monomial, Series, check_axioms, dominance, ell
from .ogroup import GroupElem, vector_json
from .record import Record, setfield

DEFAULT_SEED = 17
# Expression bounds: parse recurses 4 frames per nesting level, evaluate 1 per
# operator of a chain, so both stay far below the default recursion limit.
MAX_DEPTH = 50
MAX_TOKENS = 400
# lambda_n sums n + 1 terms and checks them against its defining form: the
# time grows faster than linearly, about 1.6 s at 300 (2 cores, CPython 3.11).
MAX_LAMBDA_INDEX = 300
# At these caps `extend step --kind smallexpint` (the slowest kind) took
# 1.5-2.3 s and `suite lambda` at its default 1000 cases 1.9-2.3 s (same
# host); both times grow faster than linearly in the count.
MAX_STEP_ITERS = 350
MAX_LAMBDA_PREFIX = 64
# `classify trunc:N` takes time quadratic in N: 1.9-2.5 s at this cap.  D(lN)
# is dense in N coordinates: near this cap a 400-token sum or product of 80 of
# them took 1.1-1.3 s (same host); `aclab lambda 300` names generators to l300.
MAX_TRUNC_BOUND = 4000
MAX_GENERATOR_INDEX = 10_000


class ExprSyntaxError(ValueError):
    """Malformed expression text; carries the offset of the problem."""

    def __init__(self, message: str, pos: int) -> None:
        super().__init__(f"{message} at offset {pos}")
        self.pos = pos


class ExprSemanticError(ValueError):
    """Well-formed text denoting nothing in the field."""


class UsageError(SystemExit):
    """An argparse usage error.  It exits with status 2 as argparse's own
    does, and keeps the message so that ``main`` can report it as JSON."""

    def __init__(self, message: str) -> None:
        super().__init__(2)
        self.message = message

    def __str__(self) -> str:
        return self.message


class _ArgParser(argparse.ArgumentParser):
    """Raises UsageError instead of printing usage to stderr, followed by
    the parser's ``hint`` if it has one; subparsers inherit the class.
    A parser with a hint also reports its own unrecognized arguments.
    ``--help`` still prints help and exits 0."""

    hint = ""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras and self.hint:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras

    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message}{self.hint}")


# argparse reads an expression such as -x as an unknown option.
DASH_HINT = "; an expression starting with '-' goes after '--', as in 'aclab val -- -x'"


# ---------------------------------------------------------------------------
# Expression AST.

# The parser builds a node per token, so each node class sets its fields
# directly instead of through Record's generic constructor.

class Num(Record):
    value: Fraction

    def __init__(self, value: Fraction) -> None:
        setfield(self, "value", value)


class Gen(Record):
    index: int

    def __init__(self, index: int) -> None:
        setfield(self, "index", index)


class _Unary(Record):
    a: "Ast"

    def __init__(self, a: "Ast") -> None:
        setfield(self, "a", a)


class _Binary(Record):
    a: "Ast"
    b: "Ast"

    def __init__(self, a: "Ast", b: "Ast") -> None:
        setfield(self, "a", a)
        setfield(self, "b", b)


class Neg(_Unary):
    pass


class Add(_Binary):
    pass


class Sub(_Binary):
    pass


class Mul(_Binary):
    pass


class Div(_Binary):
    pass


class Pow(Record):
    base: "Ast"
    exp: Fraction

    def __init__(self, base: "Ast", exp: Fraction) -> None:
        setfield(self, "base", base)
        setfield(self, "exp", exp)


class Der(_Unary):
    pass


Ast = Union[Num, Gen, Neg, Add, Sub, Mul, Div, Pow, Der]


# ---------------------------------------------------------------------------
# Tokenizer and recursive-descent parser.

class _Token(Record):
    kind: str
    text: str
    pos: int

    def __init__(self, kind: str, text: str, pos: int) -> None:
        setfield(self, "kind", kind)
        setfield(self, "text", text)
        setfield(self, "pos", pos)


def _tokenize(text: str) -> list[_Token]:
    out: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(_Token("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum()):
                j += 1
            out.append(_Token("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^()":
            out.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    out.append(_Token("end", "", n))
    return out


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        if len(self.tokens) > MAX_TOKENS + 1:
            raise ExprSyntaxError(f"more than {MAX_TOKENS} tokens", self.tokens[MAX_TOKENS].pos)
        self.i = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self, kind: str) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != kind:
            want = "end of input" if kind == "end" else repr(kind)
            raise ExprSyntaxError(f"expected {want}", tok.pos)
        self.i += 1
        return tok

    def parse(self) -> Ast:
        node = self.expr()
        self.take("end")
        return node

    def expr(self) -> Ast:
        if self.peek().kind == "-":
            self.take("-")
            node: Ast = Neg(self.term())
        else:
            node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.take(self.peek().kind)
            rhs = self.term()
            node = Add(node, rhs) if op.kind == "+" else Sub(node, rhs)
        return node

    def term(self) -> Ast:
        node = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.take(self.peek().kind)
            rhs = self.factor()
            node = Mul(node, rhs) if op.kind == "*" else Div(node, rhs)
        return node

    def factor(self) -> Ast:
        node = self.base()
        if self.peek().kind == "^":
            self.take("^")
            node = Pow(node, self.exponent())
        return node

    def nested(self) -> Ast:
        tok = self.take("(")
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ExprSyntaxError(f"parentheses nested deeper than {MAX_DEPTH}", tok.pos)
        inner = self.expr()
        self.take(")")
        self.depth -= 1
        return inner

    def exponent(self) -> Fraction:
        # A bare exponent is a possibly signed integer; anything with a
        # denominator needs parentheses, else it would swallow a division.
        if self.peek().kind != "(":
            return self.signed_integer()
        self.take("(")
        value = self.signed_integer()
        if self.peek().kind == "/":
            self.take("/")
            den = self.take("num")
            if int(den.text) == 0:
                raise ExprSyntaxError("zero denominator in exponent", den.pos)
            value /= int(den.text)
        self.take(")")
        return value

    def signed_integer(self) -> Fraction:
        sign = 1
        if self.peek().kind == "-":
            self.take("-")
            sign = -1
        return Fraction(sign * int(self.take("num").text))

    def base(self) -> Ast:
        tok = self.peek()
        if tok.kind == "num":
            self.take("num")
            return Num(Fraction(int(tok.text)))
        if tok.kind == "name":
            self.take("name")
            if tok.text == "x":
                return Gen(0)
            if tok.text == "D":
                return Der(self.nested())
            if tok.text.startswith("l") and tok.text[1:].isdigit():
                index = int(tok.text[1:])
                if index < 1:
                    raise ExprSyntaxError("generator indices start at l1", tok.pos)
                if index > MAX_GENERATOR_INDEX:
                    raise ExprSyntaxError(
                        f"generator index {index} is above the limit {MAX_GENERATOR_INDEX}", tok.pos)
                return Gen(index)
            raise ExprSyntaxError(f"unknown name {tok.text!r}", tok.pos)
        if tok.kind == "(":
            return self.nested()
        raise ExprSyntaxError("expected a value", tok.pos)


def parse(text: str) -> Ast:
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Printing and evaluation.

_PREC = {Add: 1, Sub: 1, Neg: 1, Mul: 2, Div: 2, Pow: 3, Num: 4, Gen: 4, Der: 4}


def print_ast(node: Ast) -> str:
    return _print(node, 0)


def _print(node: Ast, parent_prec: int) -> str:
    prec = _PREC[type(node)]
    if isinstance(node, Num):
        text = str(node.value)
    elif isinstance(node, Gen):
        text = "x" if node.index == 0 else f"l{node.index}"
    elif isinstance(node, Der):
        text = f"D({_print(node.a, 0)})"
    elif isinstance(node, Neg):
        text = f"-{_print(node.a, 2)}"
    elif isinstance(node, Pow):
        exp = node.exp
        etext = f"^{exp}" if exp.denominator == 1 and exp >= 0 else f"^({exp})"
        text = f"{_print(node.base, 4)}{etext}"
    elif isinstance(node, (Add, Sub)):
        op = "+" if isinstance(node, Add) else "-"
        text = f"{_print(node.a, 1)} {op} {_print(node.b, 2)}"
    else:
        op = "*" if isinstance(node, Mul) else "/"
        text = f"{_print(node.a, 2)}{op}{_print(node.b, 3)}"
    return f"({text})" if prec < parent_prec else text


def evaluate(node: Ast) -> Frac:
    if isinstance(node, Num):
        return Frac.from_rat(node.value)
    if isinstance(node, Gen):
        return ell(node.index)
    if isinstance(node, Neg):
        return -evaluate(node.a)
    if isinstance(node, Add):
        return evaluate(node.a) + evaluate(node.b)
    if isinstance(node, Sub):
        return evaluate(node.a) - evaluate(node.b)
    if isinstance(node, Mul):
        return evaluate(node.a) * evaluate(node.b)
    if isinstance(node, Div):
        den = evaluate(node.b)
        if den.is_zero():
            raise ExprSemanticError("division by zero")
        return evaluate(node.a) / den
    if isinstance(node, Der):
        return evaluate(node.a).derivative()
    if isinstance(node, Pow):
        base = evaluate(node.base)
        if node.exp.denominator == 1:
            return base ** int(node.exp)
        mono = _as_pure_monomial(base)
        if mono is None:
            raise ExprSemanticError(
                "rational exponents need a coefficient-one monomial base")
        return Frac(Series.monomial(Monomial(mono.exponents.scale(node.exp))))
    raise TypeError(f"unknown node {node!r}")


def _as_pure_monomial(f: Frac) -> Optional[Monomial]:
    if f.den != Series.ONE or len(f.num) != 1:
        return None
    mono, coeff = f.num.leading()
    return mono if coeff == 1 else None


def random_expression(rng: random.Random, depth: int = 3) -> Ast:
    """Corpus generator for round-trip checks; stays inside the printable
    fragment (integer literals, negation only at expression heads)."""
    if depth <= 0 or rng.random() < 0.3:
        pick = rng.random()
        if pick < 0.3:
            return Num(Fraction(rng.randint(0, 9)))
        if pick < 0.8:
            return Gen(rng.randint(0, 4))
        base = Gen(rng.randint(0, 3))
        exp = rng.choice([Fraction(q) for q in (2, -1, -2, "1/2", "-3/2", 5)])
        return Pow(base, exp)
    kind = rng.randint(0, 5)
    a = random_expression(rng, depth - 1)
    b = random_expression(rng, depth - 1)
    if kind < 4:
        return (Add, Sub, Mul, Div)[kind](a, b)
    if kind == 4:
        return Der(a)
    return Neg(a) if rng.random() < 0.5 else Mul(a, b)


# ---------------------------------------------------------------------------
# Set-descriptor s-expressions.

def parse_descriptor(text: str) -> setprops.SetDescriptor:
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    node, rest = _sexpr(tokens)
    if rest:
        raise ExprSemanticError(f"trailing descriptor tokens: {' '.join(rest)}")
    return node


def _sexpr(tokens: list[str]) -> tuple[setprops.SetDescriptor, list[str]]:
    if not tokens:
        raise ExprSemanticError("empty descriptor")
    head, rest = tokens[0], tokens[1:]
    if head == "psidown":
        return setprops.PSI_DOWN, rest
    if head != "(":
        raise ExprSemanticError(f"unexpected descriptor token {head!r}")
    if not rest:
        raise ExprSemanticError("unclosed descriptor")
    op, rest = rest[0], rest[1:]
    if op in ("less", "leq"):
        vec, rest = _sexpr_vector(rest)
        rest = _expect_close(rest)
        return (setprops.LessThan(vec) if op == "less" else setprops.LessEq(vec)), rest
    if op == "affine":
        vec, rest = _sexpr_vector(rest)
        if not rest or not rest[0].lstrip("-").isdigit():
            raise ExprSemanticError("affine descriptor needs an integer scale")
        n = int(rest[0])
        inner, rest = _sexpr(rest[1:])
        return setprops.Affine(vec, n, inner), _expect_close(rest)
    if op in ("down", "int"):
        inner, rest = _sexpr(rest)
        rest = _expect_close(rest)
        return (setprops.DownClosure(inner) if op == "down" else setprops.IntImage(inner)), rest
    if op == "exts":
        if not rest or rest[0] not in extend.KINDS:
            raise ExprSemanticError(
                f"exts descriptor needs one of {', '.join(extend.KINDS)}")
        sc = extend.example(rest[0])
        return extend.s_descriptor(sc), _expect_close(rest[1:])
    raise ExprSemanticError(f"unknown descriptor operator {op!r}")


def _expect_close(tokens: list[str]) -> list[str]:
    if not tokens or tokens[0] != ")":
        raise ExprSemanticError("expected ')' in descriptor")
    return tokens[1:]


def _sexpr_vector(tokens: list[str]) -> tuple[GroupElem, list[str]]:
    text = " ".join(tokens)
    if not text.startswith("["):
        raise ExprSemanticError("expected a bracketed vector")
    end = text.find("]")
    if end < 0:
        raise ExprSemanticError("unclosed '[' in descriptor vector")
    vec = GroupElem.parse(text[:end + 1])
    rest = text[end + 1:].split()
    return vec, rest


def parse_vector(text: str) -> GroupElem:
    try:
        return GroupElem.parse(text)
    except ValueError as exc:
        raise ExprSemanticError(str(exc)) from None


# ---------------------------------------------------------------------------
# Suites registry: name -> (runner over the parsed arguments, default --cases,
# largest --cases, or None where the suite has a fixed size and ignores it).
# At each largest count the suite took 1.0-2.3 s in-process, depending on the
# seed (2 cores, CPython 3.11); `lambda` was timed at `--len 64`, its largest.

_CLOSED_SMALL = setprops.DownClosure(setprops.IntImage(extend.ExtS(extend.SMALL_INT)))


def _exclusion_descriptors() -> list[tuple[str, setprops.SetDescriptor]]:
    small = extend.ExtS(extend.SMALL_INT)
    return [
        ("negative-cone", setprops.LessThan(GroupElem.ZERO)),
        ("principal", setprops.LessThan(GroupElem([(0, 1)]))),
        ("psi-down", setprops.PSI_DOWN),
        ("small-integrals", small),
        ("big-integrals", extend.ExtS(extend.BIG_INT)),
        ("integrated-small", setprops.IntImage(small)),
        ("closed-small", _CLOSED_SMALL),
        ("capped", setprops.LessEq(GroupElem([(1, 1)]))),
    ]


def _lambda_suite(args: argparse.Namespace) -> Report:
    if args.len > MAX_LAMBDA_PREFIX:
        raise ExprSemanticError(f"lambda prefix length {args.len} is above the limit {MAX_LAMBDA_PREFIX}")
    return pcseq.lambda_suite(prefix_len=args.len, corpus_size=args.cases, seed=args.seed)


SUITES = {
    "couple": (lambda a: verify_couple_axioms(a.cases, a.seed, "logfull"), 10000, 60000),
    "couple-gap": (lambda a: verify_couple_axioms(a.cases, a.seed, "loggap"), 10000, 30000),
    "identities": (lambda a: identity_suite(a.cases, a.seed), 10000, 20000),
    "grid": (lambda a: conformance_grid(), 0, None),
    "field": (lambda a: check_axioms(a.cases, a.seed), 1000, 1200),
    "jammedness": (lambda a: setprops.jammedness_suite(seed=a.seed,
                                                       fails_descriptor=_CLOSED_SMALL), 0, None),
    "exclusion": (lambda a: setprops.exclusion_suite(_exclusion_descriptors(), a.cases, a.seed),
                  1000, 150000),
    "lambda": (_lambda_suite, 1000, 1000),
    "kaplansky": (lambda a: pcseq.kaplansky_suite(), 0, None),
    **{f"extend-{kind}": (lambda a, kind=kind: extend.verify_downward_no_max(
        extend.example(kind), a.cases, a.seed), 50, 4000) for kind in extend.KINDS},
}


# ---------------------------------------------------------------------------
# Commands.

def _emit(payload: dict, pretty: bool) -> None:
    print(json.dumps(payload, indent=2 if pretty else None, sort_keys=True, default=vector_json))


def _cmd_val(args: argparse.Namespace) -> int:
    f = evaluate(parse(args.expr))
    _emit({"valuation": f.valuation()}, args.pretty)
    return 0


def _cmd_psi(args: argparse.Namespace) -> int:
    f = evaluate(parse(args.expr))
    v = f.valuation()
    if not isinstance(v, GroupElem) or v.is_zero():
        raise ExprSemanticError("psi needs an element with nonzero finite valuation")
    _emit({"psi": psi(v)}, args.pretty)
    return 0


def _cmd_cmp(args: argparse.Namespace) -> int:
    f = evaluate(parse(args.left))
    g = evaluate(parse(args.right))
    _emit({
        "left": f.valuation(),
        "right": g.valuation(),
        "dominance": dominance(f, g).value,
        "equal": f == g,
    }, args.pretty)
    return 0


def _cmd_lambda(args: argparse.Namespace) -> int:
    if args.n < 0:
        raise ExprSemanticError("lambda index must be nonnegative")
    if args.n > MAX_LAMBDA_INDEX:
        raise ExprSemanticError(f"lambda index {args.n} is above the limit {MAX_LAMBDA_INDEX}")
    _emit({"expr": str(pcseq.lambda_term(args.n))}, args.pretty)
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    couple = CoupleDescriptor.parse(args.couple)
    if couple.kind == "trunc" and couple.n > MAX_TRUNC_BOUND:
        raise ExprSemanticError(f"truncation bound {couple.n} is above the limit {MAX_TRUNC_BOUND}")
    result = classify_couple(couple)
    payload = result.to_dict()
    if args.lambda_free is not None:
        payload["closures"] = closure_count(result, args.lambda_free)
    _emit(payload, args.pretty)
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    if args.name not in SUITES:
        raise ExprSemanticError(
            f"unknown suite {args.name!r}; choices: {', '.join(sorted(SUITES))}")
    run, default_cases, max_cases = SUITES[args.name]
    if args.cases is None:
        args.cases = default_cases
    if max_cases is not None and args.cases > max_cases:
        raise ExprSemanticError(
            f"case count {args.cases} is above the limit {max_cases} of suite {args.name}")
    report = run(args)
    _emit(report.to_dict(), args.pretty)
    return 0 if report.ok else 1


def _cmd_extend(args: argparse.Namespace) -> int:
    if args.iters > MAX_STEP_ITERS:
        raise ExprSemanticError(f"step count {args.iters} is above the limit {MAX_STEP_ITERS}")
    sc = extend.example(args.kind)
    if args.s is not None:
        given = evaluate(parse(args.s))
        if given != sc.s:
            raise ExprSemanticError(
                "custom scenario elements are not supported; the shipped "
                f"{args.kind} scenario uses s = {sc.s}")
    _emit(extend.chain_report(sc, args.iters), args.pretty)
    return 0


def _cmd_set(args: argparse.Namespace) -> int:
    desc = parse_descriptor(args.descriptor)
    query = args.query.strip()
    try:
        if query in ("jammed", "yardstick", "derived-yardstick"):
            decide, check = {"jammed": (setprops.is_jammed, setprops.recheck_jammed),
                             "yardstick": (setprops.has_yardstick, setprops.recheck_yardstick),
                             "derived-yardstick": (setprops.has_derived_yardstick,
                                                   setprops.recheck_yardstick)}[query]
            verdict = decide(desc)
            if not check(desc, verdict):
                raise ArithmeticError(
                    f"{verdict.rule} certificate failed on {setprops.describe(desc)}")
            payload = verdict.to_dict()
        elif query == "sup":
            payload = {"sup": setprops.sup_in_divhull(desc)}
        elif query == "half":
            payload = {"half": setprops.subset_half(desc)}
        elif query.startswith("member"):
            vec = parse_vector(query[len("member"):].strip())
            payload = {"member": setprops.member(desc, vec)}
        else:
            raise ExprSemanticError(
                f"unknown query {query!r}; choices: jammed, yardstick, "
                "derived-yardstick, sup, half, member [vector]")
    except setprops.UnsupportedDescriptor as exc:
        raise ExprSemanticError(str(exc)) from None
    _emit(payload, args.pretty)
    return 0


def _common(p: argparse.ArgumentParser,
            fn: Callable[[argparse.Namespace], int]) -> argparse.ArgumentParser:
    p.add_argument("--pretty", action="store_true", help="indent the JSON output")
    p.set_defaults(fn=fn)
    return p


def _expression_command(fn: Callable[[argparse.Namespace], int], *operands: str) -> Callable:
    """The adder of a command whose operands are expressions (val, psi, cmp)."""
    def add(p: argparse.ArgumentParser, seed: int) -> None:
        for operand in operands:
            p.add_argument(operand)
        p.hint = DASH_HINT
        _common(p, fn)
    return add


def _add_lambda(p: argparse.ArgumentParser, seed: int) -> None:
    p.add_argument("n", type=int)
    _common(p, _cmd_lambda)


def _add_classify(p: argparse.ArgumentParser, seed: int) -> None:
    p.add_argument("couple", help="logfull, loggap, or trunc:N")
    p.add_argument("--lambda-free", choices=["yes", "no", "unknown"], default=None)
    _common(p, _cmd_classify)


def _add_suite(p: argparse.ArgumentParser, seed: int) -> None:
    p.add_argument("name")
    p.add_argument("--cases", type=int, default=None)
    p.add_argument("--len", type=int, default=12, help="prefix length where applicable")
    _common(p, _cmd_suite).add_argument("--seed", type=int, default=seed)


def _add_extend(p: argparse.ArgumentParser, seed: int) -> None:
    esub = p.add_subparsers(dest="extend_command", required=True)
    ps = esub.add_parser("step", help="iterate the yardstick step")
    ps.add_argument("--kind", choices=list(extend.KINDS), required=True)
    ps.add_argument("--s", default=None, help="scenario element (must match the shipped one)")
    ps.add_argument("--iters", type=int, default=1)
    _common(ps, _cmd_extend)


def _add_set(p: argparse.ArgumentParser, seed: int) -> None:
    p.add_argument("descriptor", help="s-expression, e.g. (down (int (exts smallint)))")
    p.add_argument("query", help="jammed, yardstick, derived-yardstick, sup, half, member [v]")
    _common(p, _cmd_set)


# Command name -> (help text, the function that adds the command's arguments
# to its own parser, given that parser and the default seed); the order is
# the order of the help text.
COMMANDS = {
    "val": ("valuation of an expression", _expression_command(_cmd_val, "expr")),
    "psi": ("psi of the valuation of an expression", _expression_command(_cmd_psi, "expr")),
    "cmp": ("compare two expressions", _expression_command(_cmd_cmp, "left", "right")),
    "lambda": ("the n-th lambda term", _add_lambda),
    "classify": ("trichotomy class of a couple", _add_classify),
    "suite": ("run a verification suite", _add_suite),
    "extend": ("extension scenario operations", _add_extend),
    "set": ("query a set descriptor", _add_set),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of one request.  When ``command`` names a command it is
    that command's parser alone, ``aclab <command>``, which parses the
    arguments after the command name as the full parser's subparser does;
    otherwise it is the full ``aclab`` parser, with every command's."""
    seed_text = os.environ.get("ACLAB_SEED", str(DEFAULT_SEED))
    try:
        default_seed = int(seed_text)
    except ValueError:
        raise ExprSemanticError(f"ACLAB_SEED must be an integer, got {seed_text!r}") from None
    if command in COMMANDS:
        parser = _ArgParser(prog=f"aclab {command}")
        COMMANDS[command][1](parser, default_seed)
        return parser
    parser = _ArgParser(
        prog="aclab",
        description="Exact computations in the logarithmic asymptotic couple and field.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add) in COMMANDS.items():
        add(sub.add_parser(name, help=help_text), default_seed)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        command = argv[0] if argv and argv[0] in COMMANDS else None
        parser = build_parser(command)
        args, extras = parser.parse_known_args(argv[1:] if command else argv)
        if extras:
            # What the full parser reports for the arguments a command's
            # parser leaves over (one with a hint has reported them itself).
            raise UsageError(f"aclab: unrecognized arguments: {' '.join(extras)}")
        return args.fn(args)
    except (UsageError, ValueError, ZeroDivisionError) as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True))
        return 2
    except ArithmeticError as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True))
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
