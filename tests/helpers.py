"""Test-only views of aclab values: an expression printer, and the first
witness of an extension chain."""

from aclab import extend
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
