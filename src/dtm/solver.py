"""Coefficient-recurrence driver for series solutions of problem files.

A problem couples equations ``lhs = rhs`` over declared unknowns, each
solved for one unknown's coefficients.  At step k the one undetermined
coefficient Y_j(k + m_j) is found by probing coefficient k of the residual
at trial values 0 and 1 and solving the affine relation (a probe at 2
guards the affinity assumption).  This one mechanism covers
variable-coefficient left sides, proportional delays and integral terms
alike.

Each equation is compiled once per solve onto a :class:`~dtm.series.Tape`
over the coefficient state.  A step takes coefficient k of every node once
and re-runs only the nodes downstream of the solved ``diff`` atom for the
other probes, so a step costs O(k) per node and a solve to order N costs
O(N^2), where evaluating every series afresh for each probe cost O(N^3).
A ``diff(u, d)`` atom may only read coefficients that are final when its
equation is solved: d below the order m of u's equation, or d = m when
u's equation is this one or declared before it.

Problem-file format (line oriented, '#' starts a comment)::

    name: <text>
    t0: <real>
    order: <integer>
    unknown: <ident>                  # repeatable
    eq: <expr> = <expr> solves <ident> order <m> [scale <q>]
    init <ident>: <real>[, <real> ...]    # exactly m values Y(0..m-1)
    exact <ident>: <expr>             # optional closed-form solution
    points: <real>[, <real> ...]

The left side may use ``diff(<ident>, <m>[, scale=<q>])`` atoms;
``integral(...)`` bodies use t as the integration dummy and may reference
unknowns but not their derivatives.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from importlib import resources
from typing import Mapping, Sequence

from . import expr as ex
from .errors import (
    DivisionBySingularSeries,
    DomainError,
    NonlinearStep,
    ParseError,
    ResidualError,
    SingularStep,
    ValidationError,
)
from .expr import Expr, eval_numeric, eval_series
from .reference import RefSolution, sample
from .series import Tape, TruncatedSeries

AFFINITY_TOL = 1e-9
SINGULAR_SLOPE_TOL = 1e-12
RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class Equation:
    lhs: Expr
    rhs: Expr
    solves_for: str
    order: int
    lhs_scale: float = 1.0


@dataclass(frozen=True)
class ProblemSpec:
    name: str
    t0: float
    order: int
    unknowns: tuple[str, ...]
    equations: tuple[Equation, ...]
    init: Mapping[str, tuple[float, ...]]
    exact: Mapping[str, Expr]
    points: tuple[float, ...]

    def equation_for(self, unknown: str) -> Equation:
        for eq in self.equations:
            if eq.solves_for == unknown:
                return eq
        raise KeyError(unknown)

    def with_order(self, order: int) -> "ProblemSpec":
        return replace(self, order=order)

    def with_flipped_sqrt(self) -> "ProblemSpec":
        flipped = tuple(
            replace(
                eq,
                lhs=ex.flip_sqrt_branch(eq.lhs),
                rhs=ex.flip_sqrt_branch(eq.rhs),
            )
            for eq in self.equations
        )
        return replace(self, equations=flipped)


@dataclass
class SolutionSeries:
    """Per-unknown series plus the residual diagnostics of the solve."""

    series: dict[str, TruncatedSeries]
    residuals: dict[str, float]
    residual_bound: float

    def coeffs(self, unknown: str) -> tuple[float, ...]:
        return self.series[unknown].coeffs


# ---------------------------------------------------------------------------
# problem files

_EQ_TAIL_RE = re.compile(
    r"^(?P<rhs>.+?)\s+solves\s+(?P<who>\w+)\s+order\s+(?P<m>\d+)"
    r"(?:\s+scale\s+(?P<q>\S+))?\s*$"
)


def _split_sides(text: str) -> tuple[str, str] | None:
    """Split at the first '=' outside parentheses (scale=... stays intact)."""
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "=" and depth == 0:
            return text[:i], text[i + 1 :]
    return None


def _floats(text: str, lineno: int) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ParseError(f"line {lineno}: expected comma-separated reals") from None


def load_problem(text: str) -> ProblemSpec:
    """Parse and validate a problem file."""
    name = ""
    t0: float | None = None
    order: int | None = None
    unknowns: list[str] = []
    raw_eqs: list[tuple[int, str]] = []
    raw_init: dict[str, tuple[float, ...]] = {}
    raw_exact: dict[str, str] = {}
    points: tuple[float, ...] = ()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition(":")
        key, value = key.strip(), value.strip()
        if not _:
            raise ParseError(f"line {lineno}: expected 'key: value'")
        if key == "name":
            name = value
        elif key == "t0":
            t0 = float(value)
        elif key == "order":
            order = int(value)
        elif key == "unknown":
            if value in unknowns:
                raise ValidationError(f"line {lineno}: unknown {value!r} declared twice")
            unknowns.append(value)
        elif key == "eq":
            raw_eqs.append((lineno, value))
        elif key.startswith("init "):
            raw_init[key[5:].strip()] = _floats(value, lineno)
        elif key.startswith("exact "):
            raw_exact[key[6:].strip()] = value
        elif key == "points":
            points = _floats(value, lineno)
        else:
            raise ParseError(f"line {lineno}: unrecognised key {key!r}")

    if t0 is None or order is None:
        raise ValidationError("problem file must set both t0 and order")
    if not unknowns:
        raise ValidationError("problem file declares no unknowns")

    equations = tuple(_parse_equation(lineno, text, unknowns, t0) for lineno, text in raw_eqs)
    _validate(name, order, unknowns, equations, raw_init)
    early = _lookahead(equations)
    if early is not None:
        i, message = early
        raise ValidationError(f"line {raw_eqs[i][0]}: {message}")

    init = {u: raw_init[u] for u in unknowns}
    exact = {u: ex.parse(text, unknowns) for u, text in raw_exact.items()}
    for u in exact:
        if u not in unknowns:
            raise ValidationError(f"exact solution given for undeclared unknown {u!r}")
    return ProblemSpec(
        name=name,
        t0=t0,
        order=order,
        unknowns=tuple(unknowns),
        equations=equations,
        init=init,
        exact=exact,
        points=points,
    )


def _parse_equation(lineno: int, text: str, unknowns: Sequence[str], t0: float) -> Equation:
    sides = _split_sides(text)
    m = _EQ_TAIL_RE.match(sides[1]) if sides else None
    if m is None:
        raise ParseError(
            f"line {lineno}: equation must read '<expr> = <expr> solves <unknown> "
            "order <m> [scale <q>]'"
        )
    who = m.group("who")
    if who not in unknowns:
        raise ValidationError(f"line {lineno}: equation solves undeclared unknown {who!r}")
    order = int(m.group("m"))
    if order < 1:
        raise ValidationError(f"line {lineno}: derivative order must be at least 1")
    lhs = ex.parse(sides[0], unknowns)
    rhs = ex.parse(m.group("rhs"), unknowns)
    for side in (lhs, rhs):
        for node in ex.walk(side):
            if isinstance(node, ex.Integral) and ex.contains(node.body, ex.Deriv):
                raise ValidationError(
                    f"line {lineno}: integral bodies may reference unknowns, "
                    "not their derivatives"
                )
            # rescaling the argument moves any expansion point but 0
            if isinstance(node, (ex.Unknown, ex.Deriv)) and node.scale != 1.0 and t0 != 0.0:
                raise ValidationError(
                    f"line {lineno}: {ex.to_text(node)} rescales the argument, "
                    f"which needs t0 = 0, not {t0!r}"
                )
    declared = None
    if m.group("q") is not None:
        folded = ex.simplify(ex.parse(m.group("q"), ()))
        if not isinstance(folded, ex.Number):
            raise ParseError(f"line {lineno}: scale must be a numeric constant")
        declared = folded.value
    atom_scales = {
        node.scale
        for node in ex.walk(lhs)
        if isinstance(node, ex.Deriv) and node.name == who and node.order == order
    }
    if len(atom_scales) > 1:
        raise ValidationError(
            f"line {lineno}: conflicting scales on the solved derivative"
        )
    inferred = atom_scales.pop() if atom_scales else None
    if declared is not None and inferred is not None and declared != inferred:
        raise ValidationError(
            f"line {lineno}: declared scale {declared} disagrees with the "
            f"diff atom's scale {inferred}"
        )
    q = inferred if inferred is not None else (declared if declared is not None else 1.0)
    return Equation(lhs, rhs, who, order, q)


def _validate(name, order, unknowns, equations, init) -> None:
    if len(equations) != len(unknowns):
        raise ValidationError(
            f"{name!r}: {len(unknowns)} unknowns need exactly one equation each, "
            f"got {len(equations)}"
        )
    solved = [eq.solves_for for eq in equations]
    if sorted(solved) != sorted(unknowns):
        raise ValidationError(f"{name!r}: equations must solve each unknown exactly once")
    for eq in equations:
        got = init.get(eq.solves_for)
        if got is None:
            raise ValidationError(f"{name!r}: missing init for {eq.solves_for!r}")
        if len(got) != eq.order:
            raise ValidationError(
                f"{name!r}: init for {eq.solves_for!r} needs exactly {eq.order} "
                f"values, got {len(got)}"
            )
    max_m = max(eq.order for eq in equations)
    if order < max_m:
        raise ValidationError(f"{name!r}: order {order} is below the top derivative {max_m}")


def _lookahead(equations: Sequence[Equation]) -> tuple[int, str] | None:
    """The first diff atom that reads a coefficient before it is final.

    Returns the index of the equation that holds it and a message.
    """
    solved_by = {eq.solves_for: (j, eq.order) for j, eq in enumerate(equations)}
    for i, eq in enumerate(equations):
        for side in (eq.lhs, eq.rhs):
            for node in ex.walk(side):
                if not isinstance(node, ex.Deriv):
                    continue
                j, m = solved_by[node.name]
                if node.order > m or (node.order == m and j > i):
                    return i, (
                        f"{ex.to_text(node)} reads a coefficient of {node.name!r} "
                        "before its equation determines it"
                    )
    return None


def load_problem_file(path) -> ProblemSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return load_problem(fh.read())


def bundled_names() -> list[str]:
    root = resources.files("dtm").joinpath("problems")
    return sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".dtm"))


def load_bundled(name: str) -> ProblemSpec:
    if name.endswith(".dtm"):
        name = name[:-4]
    path = resources.files("dtm").joinpath(f"problems/{name}.dtm")
    return load_problem(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# the recurrence driver


def equation_series(
    eq: Equation,
    coeffs: Mapping[str, Sequence[float]],
    t0: float,
    n: int,
) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Both equation sides as series along the given coefficient state."""
    binding = {}
    for name, values in coeffs.items():
        if len(values) != n + 1:
            raise ValidationError(
                f"coefficient list for {name!r} must be zero-padded to length {n + 1}"
            )
        binding[name] = TruncatedSeries(t0, tuple(values))
    lhs = eval_series(eq.lhs, binding, t0, n)
    rhs = eval_series(eq.rhs, binding, t0, n)
    return lhs, rhs


class EquationTape:
    """One equation compiled once: both sides on one tape over the state.

    The tape's unknowns are the coefficient lists of ``coeffs`` themselves,
    so it sees each trial value as it is set.  ``trial`` holds the nodes
    downstream of the solved ``diff`` atom.
    """

    def __init__(self, eq: Equation, coeffs: dict[str, list[float]], t0: float, n: int):
        self.eq = eq
        self.state = coeffs[eq.solves_for]
        self.tape = Tape(n, describe=ex.to_text)
        self.lhs = ex.compile_series(self.tape, eq.lhs, coeffs.__getitem__, t0)
        self.rhs = ex.compile_series(self.tape, eq.rhs, coeffs.__getitem__, t0)
        self.trial = self.tape.downstream((eq.solves_for, eq.order))
        self.deferred: Exception | None = None

    def residual(self, k: int, nodes=None) -> float:
        """Coefficient k of lhs - rhs, after running the given nodes (all by default)."""
        self.tape.run(k, nodes)
        return self.lhs[k] - self.rhs[k]


def compile_equations(spec: ProblemSpec, coeffs: dict[str, list[float]]) -> list[EquationTape]:
    """One tape per equation, in declaration order, over the zero-padded state."""
    early = _lookahead(spec.equations)
    if early is not None:
        raise ValidationError(f"{spec.name!r}: {early[1]}")
    return [EquationTape(eq, coeffs, spec.t0, spec.order) for eq in spec.equations]


def step(spec: ProblemSpec, tapes: Sequence[EquationTape], k: int) -> None:
    """Determine Y_j(k + m_j) for every equation, in declaration order.

    ``tapes`` come from :func:`compile_equations` and hold coefficients
    0..k-1 of every node.  The probe at 0 takes coefficient k of every
    node; the probes at 1 and 2, and the chosen value, re-run only the
    nodes downstream of the trial coefficient, so a step costs O(k) per
    node.  The residual's k-th coefficient must be finite, affine in the
    trial, and its slope nonzero, or the step fails with ResidualError /
    NonlinearStep / SingularStep.
    """
    for tape in tapes:
        eq = tape.eq
        idx = k + eq.order
        state = tape.state
        if tape.deferred is not None:
            raise tape.deferred

        def residual(c: float, nodes=None) -> float:
            state[idx] = c
            return tape.residual(k, nodes)

        r0 = residual(0.0)
        r1 = residual(1.0, tape.trial)
        r2 = residual(2.0, tape.trial)
        if not all(map(math.isfinite, (r0, r1, r2))):
            state[idx] = 0.0
            raise ResidualError(f"{spec.name!r}: residual for Y({idx}) is not finite", k=k)
        scale = max(1.0, abs(r0))
        if abs(r2 - 2.0 * r1 + r0) > AFFINITY_TOL * scale:
            state[idx] = 0.0
            raise NonlinearStep(
                f"{spec.name!r}: residual of equation for {eq.solves_for!r} is "
                f"not affine in Y({idx})",
                k=k,
            )
        slope = r1 - r0
        if abs(slope) <= SINGULAR_SLOPE_TOL * scale:
            state[idx] = 0.0
            raise SingularStep(
                f"{spec.name!r}: equation for {eq.solves_for!r} does not "
                f"determine Y({idx})",
                k=k,
            )
        try:
            residual(-r0 / slope, tape.trial)
        except (DomainError, DivisionBySingularSeries, ValueError) as exc:
            # the chosen value is outside a node's domain; a fresh evaluation
            # meets this at this equation's next step, so raise it there
            tape.deferred = exc


def solve(spec: ProblemSpec, order: int | None = None) -> SolutionSeries:
    """Run the recurrence for k = 0..N-max(m) and check residuals.

    The initial coefficients are kept verbatim; every higher coefficient
    comes out of the per-step probe solve, on tapes compiled once (see
    :func:`step`), so the solve costs O(N^2).  The final check evaluates
    both sides afresh over the final state: a residual above
    RESIDUAL_TOL * (1 + max|Y|) aborts with ResidualError instead of
    returning untrustworthy coefficients.
    """
    if order is not None:
        spec = spec.with_order(order)
    max_m = max(eq.order for eq in spec.equations)
    if spec.order < max_m:
        raise ValidationError(
            f"order {spec.order} is below the top derivative {max_m}"
        )
    n = spec.order
    coeffs: dict[str, list[float]] = {}
    for u in spec.unknowns:
        values = [0.0] * (n + 1)
        for i, v in enumerate(spec.init[u]):
            values[i] = v
        coeffs[u] = values

    tapes = compile_equations(spec, coeffs)
    for k in range(n - max_m + 1):
        step(spec, tapes, k)

    top = max(abs(c) for values in coeffs.values() for c in values)
    bound = RESIDUAL_TOL * (1.0 + top)
    residuals: dict[str, float] = {}
    for eq in spec.equations:
        lhs, rhs = equation_series(eq, coeffs, spec.t0, n)
        worst = max(
            abs(lhs.coeffs[k] - rhs.coeffs[k]) for k in range(n - max_m + 1)
        )
        residuals[eq.solves_for] = worst
        if not worst <= bound:
            raise ResidualError(
                f"{spec.name!r}: residual {worst:.3e} for {eq.solves_for!r} "
                f"exceeds {bound:.3e}; coefficients are not trustworthy"
            )
    solution = {
        u: TruncatedSeries(spec.t0, tuple(coeffs[u])) for u in spec.unknowns
    }
    return SolutionSeries(solution, residuals, bound)


def error_table(
    spec: ProblemSpec,
    sol: SolutionSeries,
    reference: Mapping[str, Expr] | RefSolution,
) -> dict[str, list[tuple[float, float, float, float]]]:
    """Rows (t, approx, reference, abs_error) per unknown at the spec points.

    The reference is either a closed-form expression per unknown or a
    sampled integrator trajectory.
    """
    table: dict[str, list[tuple[float, float, float, float]]] = {}
    for j, u in enumerate(spec.unknowns):
        rows = []
        for t in spec.points:
            approx = sol.series[u].eval(t)
            if isinstance(reference, RefSolution):
                refv = sample(reference, t)[j]
            else:
                refv = eval_numeric(reference[u], {"t": t})
            rows.append((t, approx, refv, abs(approx - refv)))
        table[u] = rows
    return table
