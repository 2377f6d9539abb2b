"""Expression trees for problem definitions and symbolic transform output.

One node family serves both uses: problem files parse into trees over the
time variable, unknowns and elementary functions, while the symbolic
recurrence engine builds trees over named Symbol atoms (t0 and the
transform coefficients).  Trees are immutable; the parser and both
evaluators are pure functions.

Grammar (whitespace-insensitive)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?           # '^' binds tighter than unary '-'
    atom   := NUMBER | 't' | IDENT | IDENT '(' NUMBER '*' 't' ')'
            | FUNC '(' expr ')' | 'integral' '(' expr ')'
            | 'diff' '(' IDENT ',' INT (',' 'scale' '=' expr)? ')'
            | '(' expr ')'
    FUNC   := exp | ln | sin | cos | tan | sec | asin | atan | sqrt | nsqrt

IDENT must be a declared unknown name.  '^' is right-associative and its
exponent must constant-fold to a number.  Inside integral(...) the time
variable denotes the integration dummy; factors in the outer variable
must multiply the integral from outside.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

from . import series
from .errors import (
    DomainError,
    DtmError,
    ParseError,
    SeriesMismatchError,
    UnboundSymbol,
    UnsupportedNode,
)
from .series import TruncatedSeries


class _Ops:
    """Operator sugar so trees can be built like ordinary arithmetic."""

    def __add__(self, other):
        return Binary("add", self, as_expr(other))

    def __radd__(self, other):
        return Binary("add", as_expr(other), self)

    def __sub__(self, other):
        return Binary("sub", self, as_expr(other))

    def __rsub__(self, other):
        return Binary("sub", as_expr(other), self)

    def __mul__(self, other):
        return Binary("mul", self, as_expr(other))

    def __rmul__(self, other):
        return Binary("mul", as_expr(other), self)

    def __truediv__(self, other):
        return Binary("div", self, as_expr(other))

    def __rtruediv__(self, other):
        return Binary("div", as_expr(other), self)

    def __pow__(self, other):
        return Binary("pow", self, as_expr(other))

    def __neg__(self):
        return Unary("neg", self)


@dataclass(frozen=True)
class Number(_Ops):
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))


@dataclass(frozen=True)
class Time(_Ops):
    """The independent variable t (the dummy variable inside integrals)."""


@dataclass(frozen=True)
class Unknown(_Ops):
    """An unknown y(scale * t); scale 1 is the plain unknown."""

    name: str
    scale: float = 1.0


@dataclass(frozen=True)
class Symbol(_Ops):
    """A named symbolic atom such as t0 or a transform coefficient."""

    name: str


@dataclass(frozen=True)
class Unary(_Ops):
    op: str
    child: "Expr"


@dataclass(frozen=True)
class Binary(_Ops):
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Integral(_Ops):
    """Integral of the body from the expansion point to t."""

    body: "Expr"


@dataclass(frozen=True)
class Deriv(_Ops):
    """Equation-level atom: m-th derivative of unknown(scale * t)."""

    name: str
    order: int
    scale: float = 1.0


Expr = Number | Time | Unknown | Symbol | Unary | Binary | Integral | Deriv


def as_expr(x) -> Expr:
    if isinstance(x, (Number, Time, Unknown, Symbol, Unary, Binary, Integral, Deriv)):
        return x
    if isinstance(x, (int, float)):
        return Number(float(x))
    raise TypeError(f"cannot treat {x!r} as an expression")


def walk(e: Expr) -> Iterator[Expr]:
    """Yield every distinct node, parents before children.

    Trees built by repeated differentiation share subtrees; each shared
    node is visited once.
    """
    seen: set[int] = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node
        if isinstance(node, Unary):
            stack.append(node.child)
        elif isinstance(node, Binary):
            stack.append(node.right)
            stack.append(node.left)
        elif isinstance(node, Integral):
            stack.append(node.body)


def contains(e: Expr, kinds: type | tuple) -> bool:
    return any(isinstance(node, kinds) for node in walk(e))


def unknown_occurrences(e: Expr) -> list[tuple[str, float]]:
    """Distinct (name, scale) pairs in order of first appearance."""
    seen: list[tuple[str, float]] = []
    for node in walk(e):
        if isinstance(node, Unknown) and (node.name, node.scale) not in seen:
            seen.append((node.name, node.scale))
    return seen


def symbol_names(e: Expr) -> set[str]:
    return {node.name for node in walk(e) if isinstance(node, Symbol)}


def _keep(x):
    return x


def rewrite(e: Expr, atom=_keep, op=_keep) -> Expr:
    """Rebuild the tree with each leaf mapped by ``atom``, each op name by ``op``."""
    if isinstance(e, Unary):
        return Unary(op(e.op), rewrite(e.child, atom, op))
    if isinstance(e, Binary):
        return Binary(op(e.op), rewrite(e.left, atom, op), rewrite(e.right, atom, op))
    if isinstance(e, Integral):
        return Integral(rewrite(e.body, atom, op))
    return atom(e)


# ---------------------------------------------------------------------------
# the operator table: every layer dispatches through OPS

_PREC_ADD, _PREC_NEG, _PREC_MUL, _PREC_POW, _PREC_ATOM = 10, 15, 20, 30, 40
_PREC_CALL = _PREC_ATOM + 1  # a function argument is always parenthesised


@dataclass(frozen=True)
class Op:
    """One operator as every layer sees it.

    ``spelling`` is the printed function name or symbol; ``prec`` binds the
    printed node and ``operand_prec`` is the weakest binding each operand
    prints with unparenthesised (its length is the arity).  ``value`` is
    the pointwise rule; it raises DomainError outside its domain or on
    overflow.  ``jet(tape, node, *operands)`` adds the nodes of the node's
    series to a :class:`~dtm.series.Tape`, given its operands' coefficient
    lists, and returns the result's list.  ``deriv(builder, node,
    *derivatives)`` builds the node's symbolic derivative from its
    operands' through the Builder's constructors, so it comes out
    simplified; ``Builder.diff`` calls it only when some operand's
    derivative is nonzero.  A ``const_exponent``
    op (pow) reads its right operand from the node.
    """

    name: str
    spelling: str
    prec: int
    operand_prec: tuple[int, ...]
    value: Callable[..., float]
    jet: Callable[..., list]
    deriv: Callable[..., "Expr"]
    const_exponent: bool = False


def _is_num(e: Expr, v: float) -> bool:
    return isinstance(e, Number) and e.value == v


def _exponent(e: Binary) -> float:
    if not isinstance(e.right, Number):
        raise UnsupportedNode("pow exponent must be a number")
    return e.right.value


# pointwise rules beyond the builtins


def _exp(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        raise DomainError(f"exp of {v!r} overflows") from None


def _ln(v: float) -> float:
    if v <= 0:
        raise DomainError(f"ln of non-positive value {v!r}")
    return math.log(v)


def _sec(v: float) -> float:
    c = math.cos(v)
    if abs(c) <= series.SINGULAR_TOL:
        raise DomainError(f"sec undefined where cos vanishes (t={v!r})")
    return 1.0 / c


def _asin(v: float) -> float:
    if abs(v) > 1:
        raise DomainError(f"asin of value {v!r} outside [-1, 1]")
    return math.asin(v)


def _sqrt(v: float) -> float:
    if v < 0:
        raise DomainError(f"sqrt of negative value {v!r}")
    return math.sqrt(v)


def _div(a: float, b: float) -> float:
    if b == 0.0:
        raise DomainError("division by zero")
    return a / b


def _pow(a: float, b: float) -> float:
    try:
        if b == int(b):
            if a == 0.0 and b < 0:
                raise DomainError("zero base with negative exponent")
            return a ** int(b)
        if a <= 0.0:
            raise DomainError(f"non-integer power of non-positive base {a!r}")
        return math.pow(a, b)
    except OverflowError:
        raise DomainError(f"power {a!r}^{b!r} overflows") from None


# jet rules: tape nodes built from the coefficient rules in ``series``


def _elementary_jet(tape: series.Tape, e: Unary, u) -> list:
    return series.ELEMENTARY[e.op](tape, u)


def _sec_jet(tape: series.Tape, e: Unary, u) -> list:
    return tape.node(series.div_coeff, tape.constant(1.0), series.ELEMENTARY["cos"](tape, u))


def _pow_jet(tape: series.Tape, e: Binary, base) -> list:
    c = _exponent(e)
    if c == int(c):
        k = int(c)
        one = out = tape.constant(1.0)
        for _ in range(abs(k)):
            out = tape.node(series.mul_coeff, out, base)
        return tape.node(series.div_coeff, one, out) if k < 0 else out
    ln = series.ELEMENTARY["ln"](tape, base)
    return series.ELEMENTARY["exp"](tape, tape.node(series.scale_coeff, ln, c))


def _rule_jet(rule) -> Callable[..., list]:
    """One node of ``rule`` over the operands."""
    return lambda tape, e, *operands: tape.node(rule, *operands)


# derivative rules beyond one-liners; ``b`` is the Builder they build through


def _d_sqrt(b: "Builder", e: Unary, du: Expr) -> Expr:
    return b.binary("div", du, b.binary("mul", b.num(2.0), e))


def _d_div(b: "Builder", e: Binary, da: Expr, db: Expr) -> Expr:
    if _is_num(db, 0.0):
        return b.binary("div", da, e.right)
    num = b.binary("sub", b.binary("mul", da, e.right), b.binary("mul", e.left, db))
    return b.binary("div", num, b.binary("pow", e.right, b.num(2.0)))


def _d_pow(b: "Builder", e: Binary, da: Expr, db: Expr) -> Expr:
    c = _exponent(e)
    inner = b.binary("pow", e.left, b.num(c - 1.0))
    return b.binary("mul", b.binary("mul", b.num(c), inner), da)


def _function(name, spelling, value, deriv, jet=_elementary_jet) -> Op:
    return Op(name, spelling, _PREC_ATOM, (_PREC_CALL,), value, jet, deriv)


OPS: dict[str, Op] = {op.name: op for op in (
    Op("neg", "-", _PREC_NEG, (_PREC_POW,), operator.neg,
       _rule_jet(series.neg_coeff), lambda b, e, du: b.unary("neg", du)),
    _function("exp", "exp", _exp, lambda b, e, du: b.binary("mul", e, du)),
    _function("ln", "ln", _ln, lambda b, e, du: b.binary("div", du, e.child)),
    _function("sin", "sin", math.sin,
              lambda b, e, du: b.binary("mul", b.unary("cos", e.child), du)),
    _function("cos", "cos", math.cos, lambda b, e, du: b.unary(
        "neg", b.binary("mul", b.unary("sin", e.child), du))),
    _function("tan", "tan", math.tan, lambda b, e, du: b.binary(
        "mul", b.binary("add", b.num(1.0), b.binary("pow", e, b.num(2.0))), du)),
    _function("sec", "sec", _sec, lambda b, e, du: b.binary(
        "mul", b.binary("mul", e, b.unary("tan", e.child)), du), jet=_sec_jet),
    _function("asin", "asin", _asin, lambda b, e, du: b.binary("div", du, b.unary(
        "sqrt_pos", b.binary("sub", b.num(1.0), b.binary("pow", e.child, b.num(2.0)))))),
    _function("atan", "atan", math.atan, lambda b, e, du: b.binary(
        "div", du, b.binary("add", b.num(1.0), b.binary("pow", e.child, b.num(2.0))))),
    _function("sqrt_pos", "sqrt", _sqrt, _d_sqrt),
    _function("sqrt_neg", "nsqrt", lambda v: -_sqrt(v), _d_sqrt),
    # a right operand binds tighter than its parent: a + (b + c) keeps its
    # parentheses, so the text parses back to the same tree
    Op("add", " + ", _PREC_ADD, (_PREC_ADD, _PREC_ADD + 1), operator.add,
       _rule_jet(series.add_coeff), lambda b, e, da, db: b.binary("add", da, db)),
    Op("sub", " - ", _PREC_ADD, (_PREC_ADD, _PREC_NEG), operator.sub,
       _rule_jet(series.sub_coeff), lambda b, e, da, db: b.binary("sub", da, db)),
    Op("mul", "*", _PREC_MUL, (_PREC_MUL, _PREC_MUL + 1), operator.mul,
       _rule_jet(series.mul_coeff), lambda b, e, da, db: b.binary(
           "add", b.binary("mul", da, e.right), b.binary("mul", e.left, db))),
    Op("div", "/", _PREC_MUL, (_PREC_MUL, _PREC_POW), _div,
       _rule_jet(series.div_coeff), _d_div),
    Op("pow", "^", _PREC_POW, (_PREC_ATOM, _PREC_ATOM), _pow, _pow_jet, _d_pow,
       const_exponent=True),
)}

# surface name -> node op
FUNC_NAMES = {op.spelling: op.name for op in OPS.values() if op.spelling.isidentifier()}
RESERVED = set(FUNC_NAMES) | {"t", "integral", "diff", "scale"}
_INFIX = {op.spelling.strip(): op.name for op in OPS.values() if len(op.operand_prec) == 2}


# ---------------------------------------------------------------------------
# printing


def _fmt_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _prec(e: Expr) -> int:
    if isinstance(e, (Unary, Binary)):
        return OPS[e.op].prec
    if isinstance(e, Number) and e.value < 0:
        return _PREC_NEG
    return _PREC_ATOM


def to_text(e: Expr) -> str:
    """Render a parsed tree so that parsing it back gives an identical tree."""
    if isinstance(e, Number):
        return _fmt_number(e.value)
    if isinstance(e, Time):
        return "t"
    if isinstance(e, Symbol):
        return e.name
    if isinstance(e, Unknown):
        if e.scale == 1.0:
            return e.name
        return f"{e.name}({_fmt_number(e.scale)}*t)"
    if isinstance(e, Deriv):
        if e.scale == 1.0:
            return f"diff({e.name}, {e.order})"
        return f"diff({e.name}, {e.order}, scale={_fmt_number(e.scale)})"
    if isinstance(e, Integral):
        return f"integral({to_text(e.body)})"
    if isinstance(e, Unary):
        op = OPS[e.op]
        inner = to_text(e.child)
        if _prec(e.child) < op.operand_prec[0]:
            inner = f"({inner})"
        return f"{op.spelling}{inner}"
    if isinstance(e, Binary):
        op = OPS[e.op]
        left_prec, right_prec = op.operand_prec
        left = to_text(e.left)
        if _prec(e.left) < left_prec:
            left = f"({left})"
        right = to_text(e.right)
        if _prec(e.right) < right_prec:
            right = f"({right})"
        return f"{left}{op.spelling}{right}"
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# parsing

_NUM_RE = re.compile(r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_OP_CHARS = "+-*/^(),="


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        m = _NUM_RE.match(text, pos)
        if m:
            tokens.append(("num", m.group(0), pos))
            pos = m.end()
            continue
        m = _NAME_RE.match(text, pos)
        if m:
            tokens.append(("name", m.group(0), pos))
            pos = m.end()
            continue
        if ch in _OP_CHARS:
            tokens.append(("op", ch, pos))
            pos += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, unknowns):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.unknowns = tuple(unknowns)

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, ch: str):
        kind, val, pos = self.peek()
        if kind != "op" or val != ch:
            raise ParseError(f"expected {ch!r}, found {val!r}", pos)
        return self.advance()

    def at_op(self, *chars) -> bool:
        kind, val, _ = self.peek()
        return kind == "op" and val in chars

    def parse(self) -> Expr:
        e = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}", pos)
        return e

    def expr(self) -> Expr:
        left = self.term()
        while self.at_op("+", "-"):
            op = _INFIX[self.advance()[1]]
            left = Binary(op, left, self.term())
        return left

    def term(self) -> Expr:
        left = self.factor()
        while self.at_op("*", "/"):
            op = _INFIX[self.advance()[1]]
            left = Binary(op, left, self.factor())
        return left

    def factor(self) -> Expr:
        if self.at_op("-"):
            self.advance()
            inner = self.factor()
            # a negated bare literal is just a negative number; keeping it
            # folded lets printed trees reparse to identical structure
            if isinstance(inner, Number):
                return Number(-inner.value)
            return Unary("neg", inner)
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.at_op("^"):
            _, _, pos = self.advance()
            raw = self.factor()
            expo = simplify(raw)
            if not isinstance(expo, Number):
                raise ParseError("exponent must be a numeric constant", pos)
            return Binary("pow", base, expo)
        return base

    def number(self) -> float:
        kind, val, pos = self.peek()
        if kind != "num":
            raise ParseError(f"expected a number, found {val!r}", pos)
        self.advance()
        v = float(val)
        if not math.isfinite(v):
            raise ParseError(f"number {val} does not fit a float", pos)
        return v

    def constant_expr(self) -> Number:
        _, _, pos = self.peek()
        folded = simplify(self.expr())
        if not isinstance(folded, Number):
            raise ParseError("expected a constant expression", pos)
        return folded

    def atom(self) -> Expr:
        kind, val, pos = self.peek()
        if kind == "num":
            return Number(self.number())
        if kind == "op" and val == "(":
            self.advance()
            e = self.expr()
            self.expect_op(")")
            return e
        if kind == "name":
            self.advance()
            if val == "t":
                return Time()
            if val in FUNC_NAMES:
                self.expect_op("(")
                child = self.expr()
                self.expect_op(")")
                return Unary(FUNC_NAMES[val], child)
            if val == "integral":
                self.expect_op("(")
                body = self.expr()
                self.expect_op(")")
                return Integral(body)
            if val == "diff":
                return self.diff_atom(pos)
            if val in self.unknowns:
                if self.at_op("("):
                    self.advance()
                    q = self.number()
                    self.expect_op("*")
                    nkind, nval, npos = self.advance()
                    if nkind != "name" or nval != "t":
                        raise ParseError("scaled unknown must be written name(q*t)", npos)
                    self.expect_op(")")
                    return Unknown(val, q)
                return Unknown(val, 1.0)
            raise ParseError(
                f"unknown identifier {val!r}; declare it as an unknown", pos
            )
        raise ParseError(f"expected an expression, found {val!r}", pos)

    def diff_atom(self, pos: int) -> Deriv:
        self.expect_op("(")
        kind, val, npos = self.advance()
        if kind != "name" or val not in self.unknowns:
            raise ParseError(f"diff expects a declared unknown, found {val!r}", npos)
        name = val
        self.expect_op(",")
        mpos = self.peek()[2]
        m = self.number()
        if m != int(m) or m < 1:
            raise ParseError("derivative order must be a positive integer", mpos)
        q = 1.0
        if self.at_op(","):
            self.advance()
            kind2, val2, spos = self.advance()
            if kind2 != "name" or val2 != "scale":
                raise ParseError(f"expected 'scale', found {val2!r}", spos)
            self.expect_op("=")
            q = self.constant_expr().value
            if q == 0.0:
                raise ParseError("scale must be nonzero", spos)
        self.expect_op(")")
        return Deriv(name, int(m), q)


def parse(text: str, unknowns=()) -> Expr:
    """Parse an expression over the given declared unknown names."""
    return _Parser(text, unknowns).parse()


def scan_unknowns(text: str) -> list[str]:
    """Candidate unknown names: identifiers that are not reserved words."""
    names = []
    for kind, val, _ in _tokenize(text):
        if kind == "name" and val not in RESERVED and val not in names:
            names.append(val)
    return names


# ---------------------------------------------------------------------------
# building: simplification and symbolic differentiation (over Symbol atoms)

def _fold(op: str, *values: float) -> float | None:
    """The constant a node folds to, or None where the rule raises or overflows."""
    try:
        v = OPS[op].value(*values)
    except DomainError:
        return None
    return v if math.isfinite(v) else None


class Builder:
    """Hash-consing smart constructors that simplify as they build.

    ``num``, ``unary`` and ``binary`` fold constants and drop 0/1 identities
    until no rule applies, and return one shared object per distinct node.
    ``run`` rebuilds any tree through them; ``diff``'s derivative rules
    build through them too.  Node keys hold the ``id`` of children; each
    entry keeps its raw node, and so those children and their ids, alive.
    """

    def __init__(self):
        self.numbers: dict[float, Number] = {}
        self.nodes: dict[tuple, tuple[Expr, Expr]] = {}

    def num(self, v: float) -> Number:
        hit = self.numbers.get(v)
        if hit is None:
            hit = self.numbers[v] = Number(v)
        return hit

    def unary(self, op: str, child: Expr) -> Expr:
        key = (op, id(child))
        hit = self.nodes.get(key)
        if hit is None:
            node = Unary(op, child)
            hit = self.nodes[key] = (self._unary_rules(node), node)
        return hit[0]

    def binary(self, op: str, left: Expr, right: Expr) -> Expr:
        key = (op, id(left), id(right))
        hit = self.nodes.get(key)
        if hit is None:
            node = Binary(op, left, right)
            # a rule that rebuilds this very node gets it back unchanged
            self.nodes[key] = (node, node)
            hit = self.nodes[key] = (self._binary_rules(node), node)
        return hit[0]

    def run(self, e: Expr) -> Expr:
        """The tree rebuilt through the constructors: simplified and shared."""
        memo: dict[int, Expr] = {}

        def build(x: Expr) -> Expr:
            out = memo.get(id(x))
            if out is None:
                if isinstance(x, Number):
                    out = self.num(x.value)
                elif isinstance(x, Unary):
                    out = self.unary(x.op, build(x.child))
                elif isinstance(x, Binary):
                    out = self.binary(x.op, build(x.left), build(x.right))
                elif isinstance(x, Integral):
                    out = Integral(build(x.body))
                else:
                    out = x
                memo[id(x)] = out
            return out

        return build(e)

    def diff(self, e: Expr, name: str) -> Expr:
        """Partial derivative by Symbol ``name`` of ``e``, a tree this builder built."""
        memo: dict[int, Expr] = {}

        def d(x: Expr) -> Expr:
            out = memo.get(id(x))
            if out is not None:
                return out
            if isinstance(x, Number):
                out = self.num(0.0)
            elif isinstance(x, Symbol):
                out = self.num(1.0 if x.name == name else 0.0)
            else:
                if isinstance(x, Unary):
                    derivs = (d(x.child),)
                elif isinstance(x, Binary):
                    derivs = (d(x.left), d(x.right))
                else:
                    raise UnsupportedNode(
                        f"symbolic differentiation does not support {type(x).__name__} nodes"
                    )
                if all(_is_num(du, 0.0) for du in derivs):
                    out = self.num(0.0)
                else:
                    out = OPS[x.op].deriv(self, x, *derivs)
            memo[id(x)] = out
            return out

        return d(e)

    def _unary_rules(self, e: Unary) -> Expr:
        if e.op == "neg" and isinstance(e.child, Unary) and e.child.op == "neg":
            return e.child.child
        if isinstance(e.child, Number):
            v = _fold(e.op, e.child.value)
            if v is not None:
                return self.num(v)
        return e

    def _binary_rules(self, e: Binary) -> Expr:
        a, b = e.left, e.right
        if isinstance(a, Number) and isinstance(b, Number):
            v = _fold(e.op, a.value, b.value)
            if v is not None:
                return self.num(v)
        if e.op == "add":
            if _is_num(a, 0.0):
                return b
            if _is_num(b, 0.0):
                return a
        elif e.op == "sub":
            if _is_num(b, 0.0):
                return a
            if _is_num(a, 0.0):
                return self.unary("neg", b)
        elif e.op == "mul":
            if _is_num(a, 0.0) or _is_num(b, 0.0):
                return self.num(0.0)
            if _is_num(a, 1.0):
                return b
            if _is_num(b, 1.0):
                return a
            # keep numeric factors left and merged, unless the merge overflows
            if isinstance(b, Number):
                return self.binary("mul", b, a)
            if (
                isinstance(a, Number)
                and isinstance(b, Binary)
                and b.op == "mul"
                and isinstance(b.left, Number)
                and (v := _fold("mul", a.value, b.left.value)) is not None
            ):
                return self.binary("mul", self.num(v), b.right)
            # a * (1/b) reads better as a quotient
            if isinstance(b, Binary) and b.op == "div" and _is_num(b.left, 1.0):
                return self.binary("div", a, b.right)
            if isinstance(a, Binary) and a.op == "div" and _is_num(a.left, 1.0):
                return self.binary("div", b, a.right)
        elif e.op == "div":
            if _is_num(b, 1.0):
                return a
            if _is_num(a, 0.0) and not _is_num(b, 0.0):
                return self.num(0.0)
            if (
                isinstance(b, Number)
                and isinstance(a, Binary)
                and a.op == "mul"
                and isinstance(a.left, Number)
                and (v := _fold("div", a.left.value, b.value)) is not None
            ):
                return self.binary("mul", self.num(v), a.right)
        elif e.op == "pow":
            if _is_num(b, 1.0):
                return a
            if _is_num(b, 0.0):
                return self.num(1.0)
            # collapse nested constant powers
            if (
                isinstance(a, Binary)
                and a.op == "pow"
                and isinstance(b, Number)
                and isinstance(a.right, Number)
                and (v := _fold("mul", a.right.value, b.value)) is not None
            ):
                return self.binary("pow", a.left, self.num(v))
        return e


def simplify(e: Expr) -> Expr:
    """Constant folding and 0/1 identity elimination; idempotent."""
    return Builder().run(e)


def diff_sym(e: Expr, name: str) -> Expr:
    """Exact partial derivative with respect to Symbol ``name``, simplified."""
    b = Builder()
    return b.diff(b.run(e), name)


def substitute(e: Expr, mapping: Mapping[str, Expr | float]) -> Expr:
    """Replace Symbol atoms by expressions or numbers."""

    def atom(a: Expr) -> Expr:
        if isinstance(a, Symbol) and a.name in mapping:
            return as_expr(mapping[a.name])
        return a

    return rewrite(e, atom)


_OTHER_BRANCH = {"sqrt_pos": "sqrt_neg", "sqrt_neg": "sqrt_pos"}


def flip_sqrt_branch(e: Expr) -> Expr:
    """Swap the positive and negative square-root branches everywhere."""
    return rewrite(e, op=lambda name: _OTHER_BRANCH.get(name, name))


# ---------------------------------------------------------------------------
# numeric (pointwise) evaluation


def eval_numeric(
    e: Expr, binding: Mapping[str, float], memo: dict[int, float] | None = None
) -> float:
    """IEEE evaluation with every atom bound; sec evaluates as 1/cos.

    Each distinct node evaluates once.  Pass one ``memo`` to several calls
    over the same binding, and trees that share nodes evaluate each shared
    node once; it is keyed by ``id``, so the trees must outlive it.
    """
    return _eval_numeric(e, binding, {} if memo is None else memo)


def _eval_numeric(e: Expr, binding: Mapping[str, float], memo: dict[int, float]) -> float:
    hit = memo.get(id(e))
    if hit is None:
        hit = _eval_numeric_node(e, binding, memo)
        memo[id(e)] = hit
    return hit


def _eval_numeric_node(e: Expr, binding: Mapping[str, float], memo) -> float:
    if isinstance(e, Number):
        return e.value
    if isinstance(e, Time):
        try:
            return float(binding["t"])
        except KeyError:
            raise UnboundSymbol("the time variable 't' is not bound") from None
    if isinstance(e, Symbol):
        try:
            return float(binding[e.name])
        except KeyError:
            raise UnboundSymbol(f"symbol {e.name!r} is not bound") from None
    if isinstance(e, Unknown):
        if e.scale != 1.0:
            raise UnsupportedNode(
                f"scaled unknown {e.name}({e.scale}*t) has no pointwise value"
            )
        try:
            return float(binding[e.name])
        except KeyError:
            raise UnboundSymbol(f"unknown {e.name!r} is not bound") from None
    if isinstance(e, Unary):
        return OPS[e.op].value(_eval_numeric(e.child, binding, memo))
    if isinstance(e, Binary):
        return OPS[e.op].value(
            _eval_numeric(e.left, binding, memo), _eval_numeric(e.right, binding, memo)
        )
    raise UnsupportedNode(
        f"{type(e).__name__} nodes cannot be evaluated pointwise"
    )


# ---------------------------------------------------------------------------
# series (jet) evaluation


def eval_series(
    e: Expr,
    binding: Mapping[str, TruncatedSeries],
    t0: float,
    n: int,
) -> TruncatedSeries:
    """Truncated series of the expression along the bound trajectory.

    The expression is compiled onto a :class:`~dtm.series.Tape` and run to
    order n (see :func:`compile_series`).  Coefficient k of the result is
    the k-th differential transform of the expression at t0, up to
    truncation.  A domain failure names the innermost failing subtree.
    """
    tape = series.Tape(n, describe=to_text)
    out = compile_series(tape, e, lambda name: _bound_series(name, binding, t0, n).coeffs, t0)
    tape.run_to(n)
    return TruncatedSeries(t0, tuple(out))


def _bound_series(name, binding, t0, n) -> TruncatedSeries:
    try:
        s = binding[name]
    except KeyError:
        raise UnboundSymbol(f"unknown {name!r} has no bound series") from None
    if s.base_point != t0 or s.order != n:
        raise SeriesMismatchError(
            f"series bound to {name!r} has base {s.base_point}, order {s.order}; "
            f"expected base {t0}, order {n}"
        )
    return s


# errors met while compiling a node; they are raised when a run reaches it
_DEFERRED = (DtmError, ArithmeticError, LookupError, ValueError)


def _raise(k: int, out, exc: Exception) -> float:
    raise exc


def compile_series(
    tape: series.Tape, e: Expr, read: Callable[[str], Sequence[float]], t0: float
) -> Sequence[float]:
    """Add the nodes of the expression's series to ``tape``; returns its coefficients.

    ``read(name)`` gives the coefficients bound to an unknown.  The time
    variable maps to the jet of t about t0 (also inside integral bodies,
    where it plays the dummy variable), unknowns to their bound
    coefficients (argument-rescaled when a scale is present), and every
    operator to its jet rule's nodes.  Equal subtrees share their nodes.
    A ``diff(y, m)`` node is tagged ``(y, m)``.  An error met while
    compiling a node is raised when a run of the tape reaches the node,
    where a walk of the tree would have met it.
    """
    memo: dict[int, Sequence[float]] = {}

    def build(x: Expr) -> Sequence[float]:
        out = memo.get(id(x))
        if out is not None:
            return out
        try:
            if isinstance(x, Number):
                out = tape.constant(x.value)
            elif isinstance(x, Time):
                out = tape.node(series.time_coeff, float(t0), tape.n)
            elif isinstance(x, Symbol):
                raise UnboundSymbol(f"symbol {x.name!r} cannot appear in a series evaluation")
            elif isinstance(x, (Unknown, Deriv)):
                out = _bound_jet(tape, x, read(x.name), t0)
            elif isinstance(x, Integral):
                out = tape.node(series.integral_coeff, build(x.body))
            elif isinstance(x, (Unary, Binary)):
                op = OPS[x.op]
                if isinstance(x, Unary):
                    operands = (build(x.child),)
                elif op.const_exponent:
                    operands = (build(x.left),)
                else:
                    operands = (build(x.left), build(x.right))
                tape.owner = x
                out = op.jet(tape, x, *operands)
            else:
                raise UnsupportedNode(f"cannot evaluate {type(x).__name__} as a series")
        except _DEFERRED as exc:
            out = tape.node(_raise, exc)
        finally:
            tape.owner = None
        memo[id(x)] = out
        return out

    return build(e)


def _bound_jet(tape: series.Tape, x: Unknown | Deriv, v: Sequence[float], t0: float):
    """An unknown's bound coefficients, argument-rescaled; a diff atom's derivative of them."""
    q = float(x.scale)
    if isinstance(x, Unknown):
        if q == 1.0:
            return v
        series.require_zero_base(t0)
        return tape.node(series.rescaled_coeff, v, q)
    if x.order < 0:
        raise ValueError("derivative order must be non-negative")
    d = tape.node(series.derivative_coeff, v, x.order, tape.n, tag=(x.name, x.order))
    if q == 1.0:
        return d
    beta = float(x.scale ** x.order)  # chain-rule factor of d^m/dt^m y(q t)
    series.require_zero_base(t0)
    return tape.node(series.scale_coeff, tape.node(series.rescaled_coeff, d, q), beta)
