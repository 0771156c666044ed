"""A small expression language for metrics, warping functions and immersions.

Grammar (stability contract — config files written today must parse
identically in future versions)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?          # '^' is right-associative
    atom   := number | ident | func '(' expr ')' | '(' expr ')'

    number := digits ['.' digits?] [('e'|'E') ['+'|'-'] digits]
            | '.' digits [('e'|'E') ['+'|'-'] digits]
    ident  := 'x' digits | 'p' digits     # variables x1..xn, parameters p1..pk
    func   := 'sin' | 'cos' | 'exp' | 'ln' | 'sqrt'

Notes on binding:

* ``-2^2`` parses as ``-(2^2) = -4``: exponentiation binds tighter than the
  unary minus of its base, matching common mathematical convention.
* The exponent position accepts a signed factor, so ``2^-3`` is valid.
* ``f ^ g`` takes its rule from the syntax of ``g``, once for every point.
  With no variable in ``g`` (numbers and parameters only) it is a constant
  power: an integer ``g`` takes any base (a zero base only for ``g >= 0``),
  any other ``g`` a positive base.  With a variable in ``g`` it is
  ``exp(g ln f)``, which needs ``f > 0``, whatever ``g``'s value.
* There is no implicit multiplication; ``2x1`` is a parse error.

Parsing is total: any non-grammatical input raises :class:`ParseError` with
the byte offset of the offending token, never any other exception.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from . import jets
from .errors import JetDomainError, WarpcheckError
from .jets import Jet3, Point, coordinate_jets, jet_const

FUNCTIONS = ("sin", "cos", "exp", "ln", "sqrt")


class ParseError(WarpcheckError):
    """Syntax error with position and expectation info."""

    def __init__(self, offset: int, expected: str, found: str):
        self.offset = offset
        self.expected = expected
        self.found = found
        super().__init__(f"at offset {offset}: expected {expected}, found {found}")


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Var:
    index: int  # 0-based; source form is x<index+1>
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Param:
    index: int  # 0-based; source form is p<index+1>
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Neg:
    arg: "Expr"
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"
    pos: int = field(default=0, compare=False)


Expr = Union[Num, Var, Param, Neg, BinOp, Call]


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # num | ident | op | lparen | rparen | end
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    out: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c in "+-*/^":
            out.append(_Token("op", c, i))
            i += 1
        elif c == "(":
            out.append(_Token("lparen", c, i))
            i += 1
        elif c == ")":
            out.append(_Token("rparen", c, i))
            i += 1
        elif c.isdigit() or c == ".":
            start = i
            while i < n and text[i].isdigit():
                i += 1
            if i < n and text[i] == ".":
                i += 1
                while i < n and text[i].isdigit():
                    i += 1
            if i - start == 1 and text[start] == ".":
                raise ParseError(start, "number", repr("."))
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j >= n or not text[j].isdigit():
                    raise ParseError(i, "exponent digits", _describe(text, j))
                i = j
                while i < n and text[i].isdigit():
                    i += 1
            out.append(_Token("num", text[start:i], start))
        elif c.isalpha() or c == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            out.append(_Token("ident", text[start:i], start))
        else:
            raise ParseError(i, "token", repr(c))
    out.append(_Token("end", "", n))
    return out


def _describe(text: str, i: int) -> str:
    return "end of input" if i >= len(text) else repr(text[i])


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token], dim: int, n_params: int):
        self.toks = tokens
        self.i = 0
        self.dim = dim
        self.n_params = n_params

    @property
    def cur(self) -> _Token:
        return self.toks[self.i]

    def advance(self) -> _Token:
        t = self.cur
        self.i += 1
        return t

    def fail(self, expected: str) -> ParseError:
        t = self.cur
        found = "end of input" if t.kind == "end" else repr(t.text)
        return ParseError(t.pos, expected, found)

    def parse(self) -> Expr:
        e = self.expr()
        if self.cur.kind != "end":
            raise self.fail("operator or end of input")
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.cur.kind == "op" and self.cur.text in "+-":
            op = self.advance()
            e = BinOp(op.text, e, self.term(), pos=op.pos)
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.cur.kind == "op" and self.cur.text in "*/":
            op = self.advance()
            e = BinOp(op.text, e, self.factor(), pos=op.pos)
        return e

    def factor(self) -> Expr:
        if self.cur.kind == "op" and self.cur.text == "-":
            t = self.advance()
            return Neg(self.factor(), pos=t.pos)
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.cur.kind == "op" and self.cur.text == "^":
            op = self.advance()
            return BinOp("^", base, self.factor(), pos=op.pos)
        return base

    def atom(self) -> Expr:
        t = self.cur
        if t.kind == "num":
            self.advance()
            try:
                v = float(t.text)
            except ValueError:
                raise ParseError(t.pos, "number", repr(t.text)) from None
            return Num(v, pos=t.pos)
        if t.kind == "lparen":
            self.advance()
            e = self.expr()
            if self.cur.kind != "rparen":
                raise self.fail("')'")
            self.advance()
            return e
        if t.kind == "ident":
            self.advance()
            name = t.text
            if name in FUNCTIONS:
                if self.cur.kind != "lparen":
                    raise self.fail("'(' after function name")
                self.advance()
                arg = self.expr()
                if self.cur.kind != "rparen":
                    raise self.fail("')'")
                self.advance()
                return Call(name, arg, pos=t.pos)
            if name[0] in "xp" and name[1:].isascii() and name[1:].isdigit():
                k = int(name[1:])
                bound = self.dim if name[0] == "x" else self.n_params
                label = "variable" if name[0] == "x" else "parameter"
                if not 1 <= k <= bound:
                    raise ParseError(t.pos, f"{label} index in 1..{bound}", repr(name))
                return (Var if name[0] == "x" else Param)(k - 1, pos=t.pos)
            raise ParseError(t.pos, "known identifier", repr(name))
        raise self.fail("atom")


def parse(text: str, dim: int, n_params: int = 0) -> Expr:
    """Parse ``text`` against a chart of ``dim`` variables and ``n_params`` parameters."""
    return _Parser(_tokenize(text), dim, n_params).parse()


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def eval_jets(e: Expr, bindings: Sequence[Jet3], params: Sequence[float] = (),
              order: int = 3) -> Jet3:
    """Evaluate with jet-valued variable bindings (exact chain rule) to ``order``.

    ``bindings[i]`` is the jet of variable ``x<i+1>``.  Binding variables to
    jets over another chart realizes composition, e.g. pulling an ambient
    field back through an immersion.  Bindings over a block of points walk
    the tree once for the whole block; a domain error is then the one the
    first failing point raises on its own.
    """
    return evaluator(bindings, params, order)(e)


def evaluator(bindings: Sequence[Jet3], params: Sequence[float] = (), order: int = 3):
    """:func:`eval_jets` on these bindings as a function of the expression,
    the bindings truncated to ``order`` once."""
    bindings = [b.truncated(order) for b in bindings]

    def evaluate(e: Expr) -> Jet3:
        try:
            return _eval(e, bindings, params)
        except JetDomainError:
            batch = np.broadcast_shapes(*(b.batch for b in bindings))
            for k in np.ndindex(batch) if batch else ():  # the first failing point raises alone
                _eval(e, [b.view(k) if b.batch else b for b in bindings], params)
            raise
    return evaluate


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
           "^": operator.pow}


def _eval(e: Expr, bindings, params) -> Jet3:
    if isinstance(e, Var):
        return bindings[e.index]
    if isinstance(e, (Num, Param)):
        value = e.value if isinstance(e, Num) else float(params[e.index])
        return jet_const(value, bindings[0].dim, bindings[0].order)
    if isinstance(e, Neg):
        return -_eval(e.arg, bindings, params)
    if isinstance(e, BinOp):
        fn = _BINARY[e.op]
        args = (_eval(e.left, bindings, params), _eval(e.right, bindings, params))
        if e.op == "^" and max_var(e.right) < 0:
            args = args[0], args[1].value  # no variable in the exponent: a constant power
    elif isinstance(e, Call):
        fn, args = getattr(jets, e.func), (_eval(e.arg, bindings, params),)
    else:
        raise TypeError(f"not an expression node: {e!r}")
    try:
        return fn(*args)
    except JetDomainError as err:
        err.pos = e.pos
        raise


def eval_expr(e: Expr, x: Point, params: Sequence[float] = ()) -> Jet3:
    """Jet of the denoted function at chart point x."""
    return eval_jets(e, coordinate_jets(jets.as_point(x)), params)


def eval_value(e: Expr, x: Point, params: Sequence[float] = ()) -> float:
    return eval_expr(e, x, params).value


def matrix_jets(entries, bindings: Sequence[Jet3], params: Sequence[float] = (),
                symmetric: bool = False, order: int = 3):
    """(indices, jet) for each entry of a matrix of expressions, row by row,
    one evaluation to ``order`` per entry; ``symmetric`` evaluates the upper
    triangle and places each jet at (i, j) and (j, i)."""
    evaluate = evaluator(bindings, params, order)
    for i, row in enumerate(entries):
        for j in range(i if symmetric else 0, len(row)):
            yield {(i, j), (j, i)} if symmetric else {(i, j)}, evaluate(row[j])


def eval_matrix(entries, x, params: Sequence[float] = (), order: int = 2,
                symmetric: bool = False) -> list[np.ndarray]:
    """Values and partials ``[V, D1, ..., D_order]`` of a matrix of
    expressions at chart points x, one point (dim,) or a block (B, dim).

    ``V[..., i, j]`` is entry (i, j) and ``Dk[..., a1..ak, i, j]`` its k-th
    partials; each entry is evaluated to ``order`` and packed at once.
    """
    x = jets.as_point(x, block=True)
    return jets.pack(matrix_jets(entries, coordinate_jets(x), params, symmetric, order),
                     x.shape[:-1], x.shape[-1], (len(entries), len(entries[0])), order)


# ---------------------------------------------------------------------------
# Printing and AST utilities
# ---------------------------------------------------------------------------


def pretty(e: Expr) -> str:
    """Fully parenthesized source form; reparses to an equal AST."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return f"x{e.index + 1}"
    if isinstance(e, Param):
        return f"p{e.index + 1}"
    if isinstance(e, Neg):
        return f"(-{pretty(e.arg)})"
    if isinstance(e, BinOp):
        return f"({pretty(e.left)} {e.op} {pretty(e.right)})"
    if isinstance(e, Call):
        return f"{e.func}({pretty(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")


def max_var(e: Expr) -> int:
    """Largest 0-based variable index used, or -1 for an expression in
    numbers and parameters only."""
    if isinstance(e, Var):
        return e.index
    if isinstance(e, (Num, Param)):
        return -1
    if isinstance(e, (Neg, Call)):
        return max_var(e.arg)
    if isinstance(e, BinOp):
        return max(max_var(e.left), max_var(e.right))
    raise TypeError(f"not an expression node: {e!r}")


def shift_vars(e: Expr, offset: int) -> Expr:
    """Re-index every variable by ``offset`` (used to embed factor charts
    into a product chart)."""
    if isinstance(e, Var):
        return Var(e.index + offset, pos=e.pos)
    if isinstance(e, (Num, Param)):
        return e
    if isinstance(e, Neg):
        return Neg(shift_vars(e.arg, offset), pos=e.pos)
    if isinstance(e, BinOp):
        return BinOp(e.op, shift_vars(e.left, offset), shift_vars(e.right, offset),
                     pos=e.pos)
    if isinstance(e, Call):
        return Call(e.func, shift_vars(e.arg, offset), pos=e.pos)
    raise TypeError(f"not an expression node: {e!r}")


def const(value: float) -> Num:
    return Num(float(value))
