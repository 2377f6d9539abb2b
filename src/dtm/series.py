"""Truncated power-series (jet) arithmetic about a movable expansion point.

A :class:`TruncatedSeries` holds the first N+1 Taylor coefficients of an
analytic function about a base point t0; coefficient i multiplies
``(t - t0)**i``.  All operations combine coefficient vectors directly
(Cauchy products, quotient and elementary-function recurrences) and return
a series with the same order and base point.  Nothing extends the order
implicitly: callers pick N once per problem.  Values are immutable and all
operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

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
    if n < 1:
        raise ValueError("order 0 cannot represent the time variable")
    return TruncatedSeries(t0, (float(t0), 1.0) + (0.0,) * (n - 1))


def add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    _check_pair(a, b)
    return TruncatedSeries(a.base_point, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))


def sub(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    _check_pair(a, b)
    return TruncatedSeries(a.base_point, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))


def negate(a: TruncatedSeries) -> TruncatedSeries:
    return TruncatedSeries(a.base_point, tuple(-x for x in a.coeffs))


def scale(beta: float, a: TruncatedSeries) -> TruncatedSeries:
    beta = float(beta)
    return TruncatedSeries(a.base_point, tuple(beta * x for x in a.coeffs))


def mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated at the common order."""
    _check_pair(a, b)
    n = a.order
    out = [0.0] * (n + 1)
    for i in range(n + 1):
        ai = a.coeffs[i]
        if ai == 0.0:
            continue
        for j in range(n + 1 - i):
            out[i + j] += ai * b.coeffs[j]
    return TruncatedSeries(a.base_point, tuple(out))


def div(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Quotient q with mul(q, b) == a up to the truncation order."""
    _check_pair(a, b)
    b0 = b.coeffs[0]
    if abs(b0) <= SINGULAR_TOL:
        raise DivisionBySingularSeries(
            f"denominator constant term {b0!r} is numerically zero"
        )
    n = a.order
    q = [0.0] * (n + 1)
    for k in range(n + 1):
        acc = a.coeffs[k]
        for j in range(k):
            acc -= q[j] * b.coeffs[k - j]
        q[k] = acc / b0
    return TruncatedSeries(a.base_point, tuple(q))


def integrate(v: TruncatedSeries) -> TruncatedSeries:
    """Running integral from the base point; top input coefficient drops."""
    out = (0.0,) + tuple(v.coeffs[i - 1] / i for i in range(1, v.order + 1))
    return TruncatedSeries(v.base_point, out)


def formal_derivative(v: TruncatedSeries, m: int = 1) -> TruncatedSeries:
    """Coefficient shift (i+1)...(i+m) * v[i+m]; indices above N-m are zero.

    The top m output coefficients would need information beyond the
    truncation order and are padded with zeros; consumers must not rely
    on indices above N-m.
    """
    if m < 0:
        raise ValueError("derivative order must be non-negative")
    n = v.order
    out = [0.0] * (n + 1)
    for i in range(n + 1 - m):
        fac = 1.0
        for r in range(1, m + 1):
            fac *= i + r
        out[i] = fac * v.coeffs[i + m]
    return TruncatedSeries(v.base_point, tuple(out))


def rescale_argument(v: TruncatedSeries, q: float) -> TruncatedSeries:
    """Series of t -> v(q t); coefficient i becomes q**i * v[i].

    Only valid about base point 0 (scaling moves any other expansion
    point), except for the identity scale q == 1.
    """
    q = float(q)
    if q == 1.0:
        return v
    if v.base_point != 0.0:
        raise NonzeroBasePointScaling(
            f"cannot rescale argument of a series based at {v.base_point}"
        )
    p = 1.0
    out = []
    for c in v.coeffs:
        out.append(p * c)
        p *= q
    return TruncatedSeries(0.0, tuple(out))


def sin_cos(u: TruncatedSeries) -> tuple[TruncatedSeries, TruncatedSeries]:
    """sin(u) and cos(u) computed as a coupled pair."""
    n = u.order
    s = [0.0] * (n + 1)
    c = [0.0] * (n + 1)
    s[0] = math.sin(u.coeffs[0])
    c[0] = math.cos(u.coeffs[0])
    for k in range(1, n + 1):
        sacc = 0.0
        cacc = 0.0
        for j in range(1, k + 1):
            ju = j * u.coeffs[j]
            sacc += ju * c[k - j]
            cacc += ju * s[k - j]
        s[k] = sacc / k
        c[k] = -cacc / k
    t0 = u.base_point
    return TruncatedSeries(t0, tuple(s)), TruncatedSeries(t0, tuple(c))


def _exp(u: TruncatedSeries) -> TruncatedSeries:
    n = u.order
    e = [0.0] * (n + 1)
    try:
        e[0] = math.exp(u.coeffs[0])
    except OverflowError:
        raise DomainError(f"exp overflows at constant term {u.coeffs[0]!r}") from None
    for k in range(1, n + 1):
        acc = 0.0
        for j in range(1, k + 1):
            acc += j * u.coeffs[j] * e[k - j]
        e[k] = acc / k
    return TruncatedSeries(u.base_point, tuple(e))


def _ln(u: TruncatedSeries) -> TruncatedSeries:
    u0 = u.coeffs[0]
    if u0 <= 0.0:
        raise DomainError(f"ln requires a positive constant term, got {u0!r}")
    n = u.order
    w = [0.0] * (n + 1)
    w[0] = math.log(u0)
    for k in range(1, n + 1):
        acc = k * u.coeffs[k]
        for j in range(1, k):
            acc -= j * w[j] * u.coeffs[k - j]
        w[k] = acc / (k * u0)
    return TruncatedSeries(u.base_point, tuple(w))


def _sqrt(u: TruncatedSeries) -> TruncatedSeries:
    u0 = u.coeffs[0]
    if u0 <= 0.0:
        raise DomainError(f"sqrt requires a positive constant term, got {u0!r}")
    n = u.order
    s = [0.0] * (n + 1)
    s[0] = math.sqrt(u0)
    for k in range(1, n + 1):
        acc = u.coeffs[k]
        for j in range(1, k):
            acc -= s[j] * s[k - j]
        s[k] = acc / (2.0 * s[0])
    return TruncatedSeries(u.base_point, tuple(s))


def _tan(u: TruncatedSeries) -> TruncatedSeries:
    c0 = math.cos(u.coeffs[0])
    if abs(c0) <= SINGULAR_TOL:
        raise DomainError(
            f"tan requires cos of the constant term to be nonzero, got cos({u.coeffs[0]!r}) = {c0!r}"
        )
    s, c = sin_cos(u)
    return div(s, c)


def _with_constant(v: TruncatedSeries, c0: float) -> TruncatedSeries:
    return TruncatedSeries(v.base_point, (c0,) + v.coeffs[1:])


def _asin(u: TruncatedSeries) -> TruncatedSeries:
    u0 = u.coeffs[0]
    if abs(u0) >= 1.0:
        raise DomainError(
            f"asin requires |constant term| < 1, got {u0!r} (derivative singular at 1)"
        )
    n = u.order
    one = constant(1.0, u.base_point, n)
    radicand = sub(one, mul(u, u))
    integrand = div(formal_derivative(u), _sqrt(radicand))
    return _with_constant(integrate(integrand), math.asin(u0))


def _atan(u: TruncatedSeries) -> TruncatedSeries:
    n = u.order
    one = constant(1.0, u.base_point, n)
    integrand = div(formal_derivative(u), add(one, mul(u, u)))
    return _with_constant(integrate(integrand), math.atan(u.coeffs[0]))


_KERNELS = {
    "exp": _exp,
    "ln": _ln,
    "sin": lambda u: sin_cos(u)[0],
    "cos": lambda u: sin_cos(u)[1],
    "tan": _tan,
    "asin": _asin,
    "atan": _atan,
    "sqrt_pos": _sqrt,
    "sqrt_neg": lambda u: negate(_sqrt(u)),  # the negative branch -sqrt
}


def elementary(kind: str, u: TruncatedSeries) -> TruncatedSeries:
    """Taylor coefficients of kind(u) to the order of u.

    ``kind`` is one of exp, ln, sin, cos, tan, asin, atan, sqrt_pos,
    sqrt_neg (the negative branch -sqrt).  Domain conditions on the
    constant term, and an exp that overflows, raise DomainError naming
    the violated condition.
    """
    try:
        kernel = _KERNELS[kind]
    except KeyError:
        raise ValueError(f"unknown elementary kind {kind!r}") from None
    return kernel(u)


def from_coeffs(t0: float, coeffs: Iterable[float]) -> TruncatedSeries:
    return TruncatedSeries(t0, tuple(coeffs))
