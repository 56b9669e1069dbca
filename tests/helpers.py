"""Test-only views of aclab values: an expression printer, the first
witness of an extension chain, and reference renderers of monomials,
series, field elements and vectors that read every coefficient as a
``Fraction`` (the oracle of the int-based printers)."""

from fractions import Fraction

from aclab import extend
from aclab.ogroup import INFINITY
from aclab.cli import Add, Ast, Der, Div, Gen, Mul, Neg, Num, Pow, Sub

_PREC = {Add: 1, Sub: 1, Neg: 1, Mul: 2, Div: 2, Pow: 3, Num: 4, Gen: 4, Der: 4}


def print_ast(node: Ast) -> str:
    """Expression text that ``cli.parse`` reads back as ``node``."""
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


def initial_witness(sc: extend.ExtScenario) -> extend.Witness:
    """The witness an extension chain starts from."""
    return extend._seed(sc)[0]


def _gen_name(index: int) -> str:
    return "x" if index == 0 else f"l{index}"


def _exp_text(e: Fraction) -> str:
    return str(e) if e.denominator == 1 else f"({e})"


def monomial_text(mono) -> str:
    if mono.exponents.is_zero():
        return "1"
    items = mono.exponents.items
    exps = {c for _, c in items}
    if len(items) > 1 and len(exps) == 1:
        inner = "*".join(_gen_name(i) for i, _ in items)
        (e,) = exps
        return inner if e == 1 else f"({inner})^{_exp_text(e)}"
    return "*".join(_gen_name(i) if e == 1 else f"{_gen_name(i)}^{_exp_text(e)}" for i, e in items)


def series_text(s) -> str:
    if s.is_zero():
        return "0"
    parts: list[str] = []
    for mono, coeff in s.sorted_terms():
        if mono.exponents.is_zero():
            body = str(abs(coeff))
        elif abs(coeff) == 1:
            body = monomial_text(mono)
        else:
            body = f"{abs(coeff)}*{monomial_text(mono)}"
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(parts)


def frac_text(f) -> str:
    if not f._factors:
        return series_text(f.num)
    return f"{series_text(f.num)} | {series_text(f.den)}"


def vector_text(g) -> str:
    return "[" + ", ".join(str(c) for c in g.to_list()) + "]"


def vector_json_text(g):
    """What ``ogroup.vector_json`` returns, from ``Fraction`` coefficients."""
    if g is INFINITY:
        return "infinity"
    return [int(c) if c.denominator == 1 else str(c) for c in g.to_list()]


def ext_text(e) -> str:
    q = e.dq
    if not q:
        return vector_text(e.base)
    if q == 1 and e.base.is_zero():
        return "delta"
    return f"{vector_text(e.base)} + {q}*delta"
