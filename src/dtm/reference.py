"""High-accuracy numeric trajectory oracle for first-order ODE systems.

An explicit adaptive Dormand-Prince 5(4) integrator with the classical
7-stage tableau (FSAL), the standard err**(-1/5) step-size update, and a
quartic dense-output interpolant for sampling between accepted steps.
The right-hand sides are expression trees in t and the unknowns; the
corpus supplies systems already converted to explicit first-order form.

The interpolant weights are not hard-coded: they are solved once from
the continuous fourth-order conditions plus continuity with the
propagating weights, which pins the companion quartic of this tableau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import expr as ex
from .errors import (
    DomainError,
    MaxStepsExceeded,
    OutOfSpan,
    StepUnderflow,
    ValidationError,
)
from .expr import Expr, eval_numeric

# Dormand-Prince 5(4) tableau
C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
A = np.array(
    [
        [0, 0, 0, 0, 0, 0, 0],
        [1 / 5, 0, 0, 0, 0, 0, 0],
        [3 / 40, 9 / 40, 0, 0, 0, 0, 0],
        [44 / 45, -56 / 15, 32 / 9, 0, 0, 0, 0],
        [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0, 0],
        [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0, 0],
        [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0],
    ]
)
B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
# difference between the 5th- and embedded 4th-order weights
E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)

MIN_FACTOR, MAX_FACTOR = 0.2, 5.0
SAFETY = 0.9


def _interpolant_matrix() -> np.ndarray:
    """Stage weights of the quartic dense output, column j for theta**(j+1).

    Solves the continuous order conditions through order four together
    with BI @ [1,1,1,1] = B (so the interpolant lands on the accepted
    step endpoint).  The system is solved in lstsq form; the residual is
    at rounding level because this tableau admits such an extension.
    """
    ac = A @ C
    functionals = np.vstack(
        [
            np.ones(7),
            C,
            C**2,
            ac,
            C**3,
            C * ac,
            A @ C**2,
            A @ ac,
        ]
    )
    targets = np.zeros((8, 4))
    targets[0, 0] = 1.0
    targets[1, 1] = 1 / 2
    targets[2, 2] = 1 / 3
    targets[3, 2] = 1 / 6
    targets[4, 3] = 1 / 4
    targets[5, 3] = 1 / 8
    targets[6, 3] = 1 / 12
    targets[7, 3] = 1 / 24
    rows = []
    rhs = []
    for j in range(4):
        for m in range(8):
            row = np.zeros(28)
            row[j * 7 : (j + 1) * 7] = functionals[m]
            rows.append(row)
            rhs.append(targets[m, j])
    for i in range(7):  # endpoint continuity with the propagating weights
        row = np.zeros(28)
        row[i::7] = 1.0
        rows.append(row)
        rhs.append(B[i])
    sol, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
    return sol.reshape(4, 7).T


BI = _interpolant_matrix()


@dataclass(frozen=True)
class RefConfig:
    """Integrator knobs; the defaults match a tight reference run."""

    atol: float = 1e-12
    rtol: float = 1e-8
    max_steps: int = 100_000

    def __post_init__(self):
        if self.atol <= 0 or self.rtol <= 0:
            raise ValidationError("tolerances must be positive")


@dataclass(frozen=True)
class _Segment:
    t: float
    h: float
    y: tuple[float, ...]
    stages: tuple[tuple[float, ...], ...]  # 7 x n


@dataclass
class RefSolution:
    """Sampled trajectory plus step accounting and dense segments."""

    names: tuple[str, ...]
    t0: float
    t_end: float
    points: tuple[float, ...]
    states: tuple[tuple[float, ...], ...]
    n_accepted: int
    n_rejected: int
    max_error_estimate: float
    mean_error_estimate: float
    segments: tuple[_Segment, ...] = field(repr=False, default=())


def _compile_rhs(rhs: Mapping[str, Expr]):
    names = tuple(rhs)
    exprs = tuple(rhs.values())
    for e in exprs:
        for node in ex.walk(e):
            if isinstance(node, (ex.Integral, ex.Deriv)):
                raise ValidationError(
                    "right-hand sides must be explicit first-order: no "
                    "integral or derivative atoms"
                )
            if isinstance(node, ex.Unknown) and node.name not in names:
                raise ValidationError(f"right-hand side references {node.name!r}")

    def f(t: float, y: np.ndarray) -> np.ndarray:
        binding = {"t": t}
        for name, v in zip(names, y):
            binding[name] = v
        return np.array([eval_numeric(e, binding) for e in exprs])

    return names, f


def _error_norm(err: np.ndarray, y0: np.ndarray, y1: np.ndarray, cfg: RefConfig) -> float:
    tol = cfg.atol + cfg.rtol * np.maximum(np.abs(y0), np.abs(y1))
    return float(np.sqrt(np.mean((err / tol) ** 2)))


def _initial_step(f, t0, y0, f0, t_end, cfg: RefConfig) -> float:
    span = t_end - t0
    tol = cfg.atol + cfg.rtol * np.abs(y0)
    d0 = float(np.sqrt(np.mean((y0 / tol) ** 2)))
    d1 = float(np.sqrt(np.mean((f0 / tol) ** 2)))
    h0 = 1e-6 * span if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    f1 = f(t0 + h0, y0 + h0 * f0)
    d2 = float(np.sqrt(np.mean(((f1 - f0) / tol) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6 * span, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, span)


def rk45_solve(
    rhs: Mapping[str, Expr],
    y0: Sequence[float],
    t0: float,
    t_end: float,
    points: Sequence[float],
    cfg: RefConfig | None = None,
) -> RefSolution:
    """Integrate the system and sample it at the requested points."""
    cfg = cfg or RefConfig()
    names, f = _compile_rhs(rhs)
    if len(y0) != len(names):
        raise ValidationError("initial state length must match the system size")
    if t_end <= t0:
        raise ValidationError("t_end must lie beyond t0")
    for p in points:
        if p < t0 or p > t_end:
            raise OutOfSpan(f"requested point {p} outside [{t0}, {t_end}]")

    t = float(t0)
    y = np.asarray(y0, dtype=float)
    k1 = f(t, y)
    if not np.all(np.isfinite(k1)):
        raise DomainError(f"initial slope {k1.tolist()} at t={t!r} is not finite")
    h = _initial_step(f, t, y, k1, t_end, cfg)
    segments: list[_Segment] = []
    accepted = rejected = 0
    err_acc: list[float] = []
    tiny = 1e-14

    while t < t_end:
        if accepted + rejected >= cfg.max_steps:
            raise MaxStepsExceeded(
                f"no convergence within {cfg.max_steps} step attempts"
            )
        h = min(h, t_end - t)
        if h <= tiny * max(1.0, abs(t)):
            raise StepUnderflow(f"step size {h:.3e} underflowed at t={t!r}")
        K = np.empty((7, y.size))
        K[0] = k1
        for s in range(1, 7):
            K[s] = f(t + C[s] * h, y + h * (A[s, :s] @ K[:s]))
        y1 = y + h * (B @ K)
        err = h * (E @ K)
        norm = _error_norm(err, y, y1, cfg)
        if not math.isfinite(norm):
            rejected += 1
            h *= MIN_FACTOR
            continue
        if norm <= 1.0:
            segments.append(
                _Segment(t, h, tuple(y), tuple(tuple(row) for row in K))
            )
            t += h
            y = y1
            k1 = K[6]  # FSAL
            accepted += 1
            err_acc.append(norm)
            factor = MAX_FACTOR if norm == 0 else min(
                MAX_FACTOR, SAFETY * norm ** -0.2
            )
            h *= max(1.0, factor)
        else:
            rejected += 1
            h *= max(MIN_FACTOR, SAFETY * norm ** -0.2)

    sol = RefSolution(
        names=names,
        t0=float(t0),
        t_end=float(t_end),
        points=tuple(float(p) for p in points),
        states=(),
        n_accepted=accepted,
        n_rejected=rejected,
        max_error_estimate=max(err_acc, default=0.0),
        mean_error_estimate=float(np.mean(err_acc)) if err_acc else 0.0,
        segments=tuple(segments),
    )
    sol.states = tuple(sample(sol, p) for p in sol.points)
    return sol


def sample(sol: RefSolution, t: float) -> tuple[float, ...]:
    """Interpolated state at t inside the integrated span."""
    if t < sol.t0 or t > sol.t_end:
        raise OutOfSpan(f"sample point {t} outside [{sol.t0}, {sol.t_end}]")
    segments = sol.segments
    if t == sol.t0:
        return segments[0].y
    # binary search for the segment whose [t_i, t_i + h) contains t
    lo, hi = 0, len(segments) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if segments[mid].t <= t:
            lo = mid
        else:
            hi = mid - 1
    seg = segments[lo]
    if t == seg.t:
        return seg.y
    theta = (t - seg.t) / seg.h
    powers = np.array([theta, theta**2, theta**3, theta**4])
    K = np.array(seg.stages)
    y = np.array(seg.y) + seg.h * (K.T @ BI @ powers)
    return tuple(float(v) for v in y)


def solve_fixed_step(
    rhs: Mapping[str, Expr],
    y0: Sequence[float],
    t0: float,
    t_end: float,
    n_steps: int,
) -> tuple[float, ...]:
    """Fixed-step propagation with the same tableau (order checks only)."""
    _, f = _compile_rhs(rhs)
    h = (t_end - t0) / n_steps
    t = float(t0)
    y = np.asarray(y0, dtype=float)
    for _ in range(n_steps):
        K = np.empty((7, y.size))
        K[0] = f(t, y)
        for s in range(1, 7):
            K[s] = f(t + C[s] * h, y + h * (A[s, :s] @ K[:s]))
        y = y + h * (B @ K)
        t += h
    return tuple(float(v) for v in y)
