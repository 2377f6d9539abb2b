"""Truncated power-series (jet) arithmetic about a movable expansion point.

A :class:`TruncatedSeries` holds the first N+1 Taylor coefficients of an
analytic function about a base point t0; coefficient i multiplies
``(t - t0)**i``.  Every recurrence (Cauchy product, quotient, the
elementary functions) is one coefficient rule: coefficient k of the result
from the operands' coefficients 0..k.  A :class:`Tape` evaluates a graph
of such rules online, one coefficient of every node per pass; the batch
operations return whole series of the same order and base point, looping
over the same rules.  Nothing extends the order implicitly: callers pick N
once per problem.  Series values are immutable and the batch operations
are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

from .errors import (
    DivisionBySingularSeries,
    DomainError,
    NonzeroBasePointScaling,
    SeriesMismatchError,
)

# |constant term| at or below this counts as a singular denominator.  No
# attempt is made to cancel removable singularities.
SINGULAR_TOL = 1e-300


@dataclass(frozen=True)
class TruncatedSeries:
    """Taylor coefficients ``coeffs[0..N]`` about ``base_point``."""

    base_point: float
    coeffs: tuple[float, ...]

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise ValueError("a series needs at least its constant coefficient")
        object.__setattr__(self, "base_point", float(self.base_point))
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def eval(self, t: float) -> float:
        """Horner evaluation of the polynomial in ``t - base_point``."""
        lam = t - self.base_point
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * lam + c
        return acc

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return add(self, other)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return sub(self, other)

    def __neg__(self) -> "TruncatedSeries":
        return negate(self)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            return mul(self, other)
        return scale(other, self)

    def __rmul__(self, other):
        return scale(other, self)

    def __truediv__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return div(self, other)


def _check_pair(a: TruncatedSeries, b: TruncatedSeries) -> None:
    if a.base_point != b.base_point:
        raise SeriesMismatchError(
            f"base points differ: {a.base_point} vs {b.base_point}"
        )
    if a.order != b.order:
        raise SeriesMismatchError(f"orders differ: {a.order} vs {b.order}")


def constant(c: float, t0: float, n: int) -> TruncatedSeries:
    """Series of the constant function c: [c, 0, ..., 0]."""
    if n < 0:
        raise ValueError("order must be non-negative")
    return TruncatedSeries(t0, (float(c),) + (0.0,) * n)


def time_var(t0: float, n: int) -> TruncatedSeries:
    """Series of t itself about t0: [t0, 1, 0, ..., 0].  Needs n >= 1."""
    return TruncatedSeries(t0, [time_coeff(k, None, float(t0), n) for k in range(n + 1)])


def require_zero_base(t0: float) -> None:
    """Argument rescaling moves any expansion point but 0."""
    if t0 != 0.0:
        raise NonzeroBasePointScaling(f"cannot rescale argument of a series based at {t0}")


# ---------------------------------------------------------------------------
# coefficient rules
#
# ``rule(k, out, *operands)`` is coefficient k of a result, from its
# operands' coefficients 0..k (a derivative reads m further) and its own
# coefficients ``out[0..k-1]``.  The batch functions below and the online
# Tape both evaluate through these rules, so each recurrence is written
# once.  Domain conditions are checked at k = 0.


def const_coeff(k: int, out, c: float) -> float:
    return c if k == 0 else 0.0


def time_coeff(k: int, out, t0: float, n: int) -> float:
    if n < 1:
        raise ValueError("order 0 cannot represent the time variable")
    return t0 if k == 0 else 1.0 if k == 1 else 0.0


def neg_coeff(k: int, out, a) -> float:
    return -a[k]


def scale_coeff(k: int, out, a, beta: float) -> float:
    return beta * a[k]


def add_coeff(k: int, out, a, b) -> float:
    return a[k] + b[k]


def sub_coeff(k: int, out, a, b) -> float:
    return a[k] - b[k]


def integral_coeff(k: int, out, v) -> float:
    """Running integral from the base point."""
    return v[k - 1] / k if k else 0.0


def derivative_coeff(k: int, out, v, m: int, n: int) -> float:
    """(k+1)...(k+m) * v[k+m]; zero where k+m exceeds the truncation order n."""
    if k + m > n:
        return 0.0
    fac = 1.0
    for r in range(1, m + 1):
        fac *= k + r
    return fac * v[k + m]


def rescaled_coeff(k: int, out, v, q: float) -> float:
    """q**k * v[k], the power taken by repeated products."""
    p = 1.0
    for _ in range(k):
        p *= q
    return p * v[k]


def mul_coeff(k: int, out, a, b) -> float:
    """Cauchy product; zero coefficients of ``a`` are skipped."""
    acc = 0.0
    for ai, bj in zip(a[: k + 1], b[k::-1]):
        if ai != 0.0:
            acc += ai * bj
    return acc


def div_coeff(k: int, q, a, b) -> float:
    """Quotient q with mul(q, b) == a."""
    b0 = b[0]
    if k == 0 and abs(b0) <= SINGULAR_TOL:
        raise DivisionBySingularSeries(
            f"denominator constant term {b0!r} is numerically zero"
        )
    acc = a[k]
    for qj, bj in zip(q[:k], b[k:0:-1]):
        acc -= qj * bj
    return acc / b0


def _weighted(k: int, u, x) -> float:
    """The sum of j * u[j] * x[k-j] over j = 1..k, the chain rule's convolution."""
    acc = 0.0
    for j, uj, xj in zip(range(1, k + 1), u[1 : k + 1], x[k - 1 :: -1]):
        acc += j * uj * xj
    return acc


def exp_coeff(k: int, e, u) -> float:
    if k == 0:
        try:
            return math.exp(u[0])
        except OverflowError:
            raise DomainError(f"exp overflows at constant term {u[0]!r}") from None
    return _weighted(k, u, e) / k


def ln_coeff(k: int, w, u) -> float:
    u0 = u[0]
    if k == 0:
        if u0 <= 0.0:
            raise DomainError(f"ln requires a positive constant term, got {u0!r}")
        return math.log(u0)
    acc = k * u[k]
    for j, wj, uj in zip(range(1, k), w[1:k], u[k - 1 : 0 : -1]):
        acc -= j * wj * uj
    return acc / (k * u0)


def sqrt_coeff(k: int, s, u) -> float:
    if k == 0:
        u0 = u[0]
        if u0 <= 0.0:
            raise DomainError(f"sqrt requires a positive constant term, got {u0!r}")
        return math.sqrt(u0)
    acc = u[k]
    for si, sj in zip(s[1:k], s[k - 1 : 0 : -1]):
        acc -= si * sj
    return acc / (2.0 * s[0])


def sin_coeff(k: int, s, u, c) -> float:
    """sin(u), coupled to the coefficients ``c`` of cos(u)."""
    return math.sin(u[0]) if k == 0 else _weighted(k, u, c) / k


def cos_coeff(k: int, c, u, s) -> float:
    """cos(u), coupled to the coefficients ``s`` of sin(u)."""
    return math.cos(u[0]) if k == 0 else -_weighted(k, u, s) / k


def tan_coeff(k: int, out, s, c, u) -> float:
    """sin(u) / cos(u), refused where cos of the constant term vanishes."""
    if k == 0 and abs(c[0]) <= SINGULAR_TOL:
        raise DomainError(
            f"tan requires cos of the constant term to be nonzero, got cos({u[0]!r}) = {c[0]!r}"
        )
    return div_coeff(k, out, s, c)


def asin_coeff(k: int, out, integrand, u) -> float:
    """asin(u(t0)) plus the integral of u' / sqrt(1 - u^2)."""
    if k:
        return integral_coeff(k, out, integrand)
    if abs(u[0]) >= 1.0:
        raise DomainError(
            f"asin requires |constant term| < 1, got {u[0]!r} (derivative singular at 1)"
        )
    return math.asin(u[0])


def atan_coeff(k: int, out, integrand, u) -> float:
    """atan(u(t0)) plus the integral of u' / (1 + u^2)."""
    return integral_coeff(k, out, integrand) if k else math.atan(u[0])


# ---------------------------------------------------------------------------
# the online evaluator


class _Node(NamedTuple):
    rule: Callable[..., float]
    coeffs: list
    args: tuple
    lag: int
    owner: object
    tag: object


def _arg_key(a) -> object:
    if isinstance(a, float):
        return ("f", a.hex())  # 0.0 and -0.0 stay apart
    if isinstance(a, (int, str)):
        return ("v", a)
    return ("id", id(a))  # coefficient lists, kept alive by the tape


class Tape:
    """Jet nodes in dependency order, extended one coefficient at a time.

    ``node(rule, *args)`` adds a node whose coefficient k is
    ``rule(k, coeffs, *args)`` and returns its coefficient list; sequence
    arguments are the lists of earlier nodes or bound coefficients.  A node
    built twice with the same rule, lag and arguments is built once.  A
    node with ``lag`` 1 takes coefficient k - 1 on pass k, so it may read
    one coefficient ahead of its operands.  ``run(k)`` takes coefficient k
    of every node, or of the given nodes, which replaces the one taken
    before; a pass costs O(k) per node.  A DomainError or
    DivisionBySingularSeries is annotated with the failing node's
    ``owner``, the object ``owner`` held when the node was added, as
    rendered by ``describe``.
    """

    def __init__(self, n: int, describe: Callable[[object], str] = repr):
        self.n = n
        self.describe = describe
        self.nodes: list[_Node] = []
        self.index: dict[tuple, object] = {}
        self.owner = None

    def append(self, coeffs: list, rule, *args, lag: int = 0, tag=None) -> list:
        self.nodes.append(_Node(rule, coeffs, args, lag, self.owner, tag))
        return coeffs

    def node(self, rule, *args, lag: int = 0, tag=None) -> list:
        key = (rule, lag) + tuple(map(_arg_key, args))
        coeffs = self.index.get(key)
        if coeffs is None:
            coeffs = self.index[key] = self.append([], rule, *args, lag=lag, tag=tag)
        return coeffs

    def constant(self, c: float) -> list:
        return self.node(const_coeff, float(c))

    def downstream(self, tag) -> list[_Node]:
        """The nodes tagged ``tag`` and every node that reads one, in order."""
        hit: set[int] = set()
        out = []
        for node in self.nodes:
            if node.tag == tag or any(id(a) in hit for a in node.args):
                hit.add(id(node.coeffs))
                out.append(node)
        return out

    def run(self, k: int, nodes=None) -> None:
        owner = None
        try:
            for rule, c, args, lag, owner, _ in self.nodes if nodes is None else nodes:
                i = k - lag
                if i >= 0:
                    v = rule(i, c, *args)
                    if i < len(c):
                        c[i] = v
                    else:
                        c.append(v)
        except (DomainError, DivisionBySingularSeries) as err:
            if err.node is None and owner is not None:
                err.node = owner
                err.args = (f"{err} in '{self.describe(owner)}'",)
            raise

    def run_to(self, n: int) -> None:
        for k in range(n + 1):
            self.run(k)


def _sin_cos(tape: Tape, u) -> tuple[list, list]:
    key = (sin_coeff, id(u))
    pair = tape.index.get(key)
    if pair is None:
        s, c = [], []
        tape.append(s, sin_coeff, u, c)
        tape.append(c, cos_coeff, u, s)
        pair = tape.index[key] = (s, c)
    return pair


def _tan(tape: Tape, u) -> list:
    s, c = _sin_cos(tape, u)
    return tape.node(tan_coeff, s, c, u)


def _asin(tape: Tape, u) -> list:
    radicand = tape.node(sub_coeff, tape.constant(1.0), tape.node(mul_coeff, u, u))
    du = tape.node(derivative_coeff, u, 1, tape.n, lag=1)
    root = tape.node(sqrt_coeff, radicand, lag=1)
    return tape.node(asin_coeff, tape.node(div_coeff, du, root, lag=1), u)


def _atan(tape: Tape, u) -> list:
    den = tape.node(add_coeff, tape.constant(1.0), tape.node(mul_coeff, u, u))
    du = tape.node(derivative_coeff, u, 1, tape.n, lag=1)
    return tape.node(atan_coeff, tape.node(div_coeff, du, den, lag=1), u)


# kind -> recipe(tape, u) adding the nodes of kind(u); returns its coefficients
ELEMENTARY: dict[str, Callable[[Tape, list], list]] = {
    "exp": lambda tape, u: tape.node(exp_coeff, u),
    "ln": lambda tape, u: tape.node(ln_coeff, u),
    "sin": lambda tape, u: _sin_cos(tape, u)[0],
    "cos": lambda tape, u: _sin_cos(tape, u)[1],
    "tan": _tan,
    "asin": _asin,
    "atan": _atan,
    "sqrt_pos": lambda tape, u: tape.node(sqrt_coeff, u),
    "sqrt_neg": lambda tape, u: tape.node(neg_coeff, tape.node(sqrt_coeff, u)),
}


# ---------------------------------------------------------------------------
# batch operations: whole series at once, through the same rules


def _batch(rule, like: TruncatedSeries, *operands) -> TruncatedSeries:
    out: list[float] = []
    for k in range(like.order + 1):
        out.append(rule(k, out, *operands))
    return TruncatedSeries(like.base_point, tuple(out))


def add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    _check_pair(a, b)
    return _batch(add_coeff, a, a.coeffs, b.coeffs)


def sub(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    _check_pair(a, b)
    return _batch(sub_coeff, a, a.coeffs, b.coeffs)


def negate(a: TruncatedSeries) -> TruncatedSeries:
    return _batch(neg_coeff, a, a.coeffs)


def scale(beta: float, a: TruncatedSeries) -> TruncatedSeries:
    return _batch(scale_coeff, a, a.coeffs, float(beta))


def mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated at the common order."""
    _check_pair(a, b)
    return _batch(mul_coeff, a, a.coeffs, b.coeffs)


def div(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Quotient q with mul(q, b) == a up to the truncation order."""
    _check_pair(a, b)
    return _batch(div_coeff, a, a.coeffs, b.coeffs)


def integrate(v: TruncatedSeries) -> TruncatedSeries:
    """Running integral from the base point; top input coefficient drops."""
    return _batch(integral_coeff, v, v.coeffs)


def formal_derivative(v: TruncatedSeries, m: int = 1) -> TruncatedSeries:
    """Coefficient shift (i+1)...(i+m) * v[i+m]; indices above N-m are zero.

    The top m output coefficients would need information beyond the
    truncation order and are padded with zeros; consumers must not rely
    on indices above N-m.
    """
    if m < 0:
        raise ValueError("derivative order must be non-negative")
    return _batch(derivative_coeff, v, v.coeffs, m, v.order)


def rescale_argument(v: TruncatedSeries, q: float) -> TruncatedSeries:
    """Series of t -> v(q t); coefficient i becomes q**i * v[i].

    Only valid about base point 0 (scaling moves any other expansion
    point), except for the identity scale q == 1.
    """
    q = float(q)
    if q == 1.0:
        return v
    require_zero_base(v.base_point)
    return _batch(rescaled_coeff, v, v.coeffs, q)


def sin_cos(u: TruncatedSeries) -> tuple[TruncatedSeries, TruncatedSeries]:
    """sin(u) and cos(u), each computed with the other as a coupled pair."""
    return elementary("sin", u), elementary("cos", u)


def elementary(kind: str, u: TruncatedSeries) -> TruncatedSeries:
    """Taylor coefficients of kind(u) to the order of u.

    ``kind`` is one of exp, ln, sin, cos, tan, asin, atan, sqrt_pos,
    sqrt_neg (the negative branch -sqrt).  Domain conditions on the
    constant term, and an exp that overflows, raise DomainError naming
    the violated condition.
    """
    try:
        recipe = ELEMENTARY[kind]
    except KeyError:
        raise ValueError(f"unknown elementary kind {kind!r}") from None
    tape = Tape(u.order)
    out = recipe(tape, u.coeffs)
    tape.run_to(u.order)
    return TruncatedSeries(u.base_point, tuple(out))


def from_coeffs(t0: float, coeffs: Iterable[float]) -> TruncatedSeries:
    return TruncatedSeries(t0, tuple(coeffs))
