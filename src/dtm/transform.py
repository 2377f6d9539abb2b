"""Differential transforms of nonlinear non-autonomous terms.

Two independent routes compute the transform coefficients F(0..n) of an
analytic term f(t, y_1, ..., y_m) about a point t0, given the transform
coefficients of the unknowns:

* :func:`dt_compose` substitutes the jet of t and the seed jets of the
  unknowns into f and reads the coefficients off the composed series.
* :func:`dt_recurrence` builds closed-form expressions for F(n) over
  symbolic atoms t0 and Y_j(i), by repeated partial differentiation:
  F(n) = (1/n) * (dF(n-1)/dt0 + sum_j sum_{i<n} (i+1) Y_j(i+1) dF(n-1)/dY_j(i))
  with F(0) = f(t0, Y_j(0)).

The two routes are mutual oracles; :func:`dt_cross_validate` runs both and
reports the largest discrepancy.  For terms without the time variable the
recurrence loses its t0 derivative and coincides in structure with the
Adomian polynomials evaluated at constant components
(:func:`dt_autonomous`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from . import expr as ex
from .errors import DomainError, NotAutonomous, UnsupportedNode, ValidationError
from .expr import Expr, Symbol, eval_numeric, eval_series
from .series import TruncatedSeries

# Symbolic expression growth is unbounded in n; the closed-form route is
# capped and larger orders go through the composition route.
MAX_RECURRENCE_ORDER = 12


@dataclass(frozen=True)
class TransformRequest:
    """A term, an expansion point, per-unknown seed coefficients, an order."""

    f: Expr
    t0: float
    seeds: Mapping[str, Sequence[float]]
    n: int


@dataclass(frozen=True)
class Family:
    """One transform-coefficient symbol family Y_j(i) or W_j(i).

    ``prefix`` names the symbols; a family with scale q stands for the
    composition t -> y(q t), whose coefficients are q**i * Y_j(i).
    """

    unknown: str
    scale: float
    prefix: str


@dataclass(frozen=True)
class SymbolicTransform:
    """Closed-form transform coefficients F(0..n) over Symbol atoms."""

    terms: tuple[Expr, ...]
    families: tuple[Family, ...]

    @property
    def order(self) -> int:
        return len(self.terms) - 1


@dataclass(frozen=True)
class CrossValidation:
    compose: tuple[float, ...]
    recurrence: tuple[float, ...]
    max_discrepancy: float


def _reject_nodes(f: Expr, what: str) -> None:
    for node in ex.walk(f):
        if isinstance(node, (ex.Integral, ex.Deriv)):
            raise UnsupportedNode(
                f"{type(node).__name__} nodes are not allowed in {what}"
            )


def _finite(values: list[float]) -> list[float]:
    for k, v in enumerate(values):
        if not math.isfinite(v):
            raise DomainError(f"F({k}) = {v!r} is not finite")
    return values


def _validate_request(req: TransformRequest) -> None:
    _reject_nodes(req.f, "transform requests")
    if req.n < 0:
        raise ValidationError("transform order must be non-negative")
    for name, _ in ex.unknown_occurrences(req.f):
        if name not in req.seeds:
            raise ValidationError(f"unknown {name!r} has no seed coefficients")
        if len(req.seeds[name]) < req.n + 1:
            raise ValidationError(
                f"seed list for {name!r} must have at least {req.n + 1} entries"
            )


def dt_compose(req: TransformRequest) -> list[float]:
    """Transform coefficients by jet composition (first route).

    F(k) is the k-th coefficient of f evaluated along the seed jets; it
    depends only on seed entries with index at most k.  A coefficient
    that overflows raises DomainError.
    """
    _validate_request(req)
    binding = {
        name: TruncatedSeries(req.t0, tuple(req.seeds[name][: req.n + 1]))
        for name in req.seeds
    }
    composed = eval_series(req.f, binding, req.t0, req.n)
    return _finite(list(composed.coeffs))


def _families_for(f: Expr, unknowns: Sequence[str]) -> tuple[Family, ...]:
    occurrences = ex.unknown_occurrences(f)
    for name, _ in occurrences:
        if name not in unknowns:
            raise ValidationError(f"unknown {name!r} is not declared")
    by_name: dict[str, float] = {}
    for name, q in occurrences:
        if name in by_name and by_name[name] != q:
            raise UnsupportedNode(
                f"unknown {name!r} appears with two argument scales; "
                "the closed-form route supports one scale per unknown"
            )
        by_name[name] = q
    single = len(unknowns) == 1
    families = []
    for j, name in enumerate(unknowns, start=1):
        if name not in by_name:
            continue
        q = by_name[name]
        letter = "Y" if q == 1.0 else "W"
        prefix = letter if single else f"{letter}{j}"
        families.append(Family(name, q, prefix))
    return tuple(families)


def dt_recurrence(f: Expr, unknowns: Sequence[str], n: int) -> SymbolicTransform:
    """Closed-form transform coefficients by the recurrence (second route).

    Returns simplified expressions F(0..n) over the symbols "t0" and
    "Y(i)" ("Yj(i)" when there are several unknowns; "W..." families for
    argument-scaled occurrences, standing for q**i Y(i)).  F(k) only
    references coefficient symbols with index at most k.

    One :class:`~dtm.expr.Builder` builds every F(k) and the partials of
    F(k-1) in it: they come out simplified, with no separate pass, and share
    their equal subtrees.
    """
    if n < 0:
        raise ValidationError("transform order must be non-negative")
    if n > MAX_RECURRENCE_ORDER:
        raise ValidationError(
            f"closed-form route is capped at order {MAX_RECURRENCE_ORDER}; "
            "use the composition route beyond that"
        )
    _reject_nodes(f, "transform requests")
    families = _families_for(f, unknowns)

    heads = {fam.unknown: f"{fam.prefix}(0)" for fam in families}

    def atom(a: Expr) -> Expr:
        if isinstance(a, ex.Time):
            return Symbol("t0")
        if isinstance(a, ex.Unknown):
            return Symbol(heads[a.name])
        return a

    b = ex.Builder()
    terms = [b.run(ex.rewrite(f, atom))]
    for k in range(1, n + 1):
        update = b.diff(terms[-1], "t0")
        for fam in families:
            for i in range(k):
                partial = b.diff(terms[-1], f"{fam.prefix}({i})")
                if partial == ex.Number(0.0):
                    continue
                weight = b.binary("mul", b.num(i + 1), Symbol(f"{fam.prefix}({i + 1})"))
                update = b.binary("add", update, b.binary("mul", weight, partial))
        terms.append(b.binary("div", update, b.num(k)))
    return SymbolicTransform(tuple(terms), families)


def dt_autonomous(
    f: Expr, n: int, unknowns: Sequence[str] | None = None
) -> SymbolicTransform:
    """Closed-form route for terms without the time variable.

    The t0 derivative vanishes identically, so the recurrence reduces to
    the Adomian-polynomial shape with constant components; the absence of
    t0 in the output is verified.  Unknowns default to their order of
    first appearance in the term.
    """
    if ex.contains(f, ex.Time):
        raise NotAutonomous("the term depends explicitly on the time variable")
    if unknowns is None:
        unknowns = [name for name, _ in ex.unknown_occurrences(f)]
    st = dt_recurrence(f, unknowns, n)
    for k, term in enumerate(st.terms):
        if "t0" in ex.symbol_names(term):
            raise ValidationError(
                f"autonomous reduction failed: F({k}) still references t0"
            )
    return st


def instantiate(
    st: SymbolicTransform, t0: float, seeds: Mapping[str, Sequence[float]]
) -> list[float]:
    """Evaluate closed-form coefficients at concrete seeds.

    The terms share subtrees (one Builder built them all), so they are
    evaluated with one memo: each shared node once.  A coefficient that
    overflows raises DomainError.
    """
    binding: dict[str, float] = {"t0": float(t0)}
    for fam in st.families:
        values = seeds[fam.unknown]
        if len(values) < st.order + 1:
            raise ValidationError(
                f"seed list for {fam.unknown!r} must have at least {st.order + 1} entries"
            )
        p = 1.0
        for i in range(st.order + 1):
            binding[f"{fam.prefix}({i})"] = p * float(values[i])
            p *= fam.scale
    memo: dict[int, float] = {}
    return _finite([eval_numeric(term, binding, memo) for term in st.terms])


def max_discrepancy(a: Sequence[float], b: Sequence[float]) -> float:
    """The largest |a_k - b_k| / max(1, |a_k|, |b_k|) over the coefficients."""
    worst = 0.0
    for x, y in zip(a, b):
        worst = max(worst, abs(x - y) / max(1.0, abs(x), abs(y)))
    return worst


def dt_cross_validate(req: TransformRequest) -> CrossValidation:
    """Run both routes and report the largest per-coefficient discrepancy."""
    composed = dt_compose(req)
    st = dt_recurrence(req.f, list(req.seeds), req.n)
    recurred = instantiate(st, req.t0, req.seeds)
    worst = max_discrepancy(composed, recurred)
    return CrossValidation(tuple(composed), tuple(recurred), worst)
