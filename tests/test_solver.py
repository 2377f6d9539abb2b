import math
from dataclasses import replace

import numpy as np
import pytest

from dtm import expr as E
from dtm import solver as S
from dtm.errors import (
    DomainError,
    NonlinearStep,
    ParseError,
    ResidualError,
    SingularStep,
    ValidationError,
)
from dtm.solver import (
    compile_equations,
    error_table,
    equation_series,
    load_bundled,
    load_problem,
    solve,
    step,
)

EX1_TEXT = """\
name: ex1
t0: 1
order: 10
unknown: y
eq: diff(y, 1) - y = ln(t + y) solves y order 1
init y: 0
exact y: exp(t - 1) - t
points: 1.0, 1.2, 1.4, 1.6, 1.8, 2.0
"""


# ---------------------------------------------------------------------------
# loading and validation


def test_load_problem_fields():
    spec = load_problem(EX1_TEXT)
    assert spec.name == "ex1"
    assert spec.t0 == 1.0
    assert spec.order == 10
    assert spec.unknowns == ("y",)
    eq = spec.equations[0]
    assert eq.solves_for == "y"
    assert eq.order == 1
    assert eq.lhs_scale == 1.0
    assert spec.init["y"] == (0.0,)
    assert spec.points == (1.0, 1.2, 1.4, 1.6, 1.8, 2.0)
    assert "y" in spec.exact


def test_load_problem_delay_scale():
    spec = load_bundled("ex6")
    assert spec.equations[0].lhs_scale == 0.5
    assert spec.equations[0].lhs == E.Deriv("y", 1, 0.5)


def test_load_problem_declared_scale_clause():
    # argument scaling needs expansion point 0
    at_zero = EX1_TEXT.replace("t0: 1", "t0: 0")
    text = at_zero.replace(
        "eq: diff(y, 1) - y = ln(t + y) solves y order 1",
        "eq: diff(y, 1, scale=0.5) - y = ln(t + y) solves y order 1 scale 1/2",
    )
    assert load_problem(text).equations[0].lhs_scale == 0.5
    conflicting = at_zero.replace(
        "eq: diff(y, 1) - y = ln(t + y) solves y order 1",
        "eq: diff(y, 1, scale=0.25) - y = ln(t + y) solves y order 1 scale 1/2",
    )
    with pytest.raises(ValidationError):
        load_problem(conflicting)


@pytest.mark.parametrize(
    "eq",
    [
        "diff(y, 1, scale=0.5) - y = ln(t + y) solves y order 1",
        "diff(y, 1) - y = ln(t + y(0.5*t)) solves y order 1",
    ],
)
def test_load_problem_rejects_rescaling_away_from_zero(eq):
    text = EX1_TEXT.replace("eq: diff(y, 1) - y = ln(t + y) solves y order 1", f"eq: {eq}")
    with pytest.raises(ValidationError, match="line 5: .* needs t0 = 0"):
        load_problem(text)


def test_load_problem_missing_init():
    with pytest.raises(ValidationError, match="init"):
        load_problem(EX1_TEXT.replace("init y: 0\n", ""))


def test_load_problem_wrong_init_count():
    with pytest.raises(ValidationError, match="exactly 1"):
        load_problem(EX1_TEXT.replace("init y: 0", "init y: 0, 2"))


def test_load_problem_order_below_derivative():
    with pytest.raises(ValidationError):
        load_problem(EX1_TEXT.replace("order: 10", "order: 0"))


def test_load_problem_rejects_derivative_inside_integral():
    bad = EX1_TEXT.replace("ln(t + y)", "integral(diff(y, 1))")
    with pytest.raises(ValidationError, match="integral bodies"):
        load_problem(bad)


def test_load_problem_bad_equation_line():
    with pytest.raises(ParseError):
        load_problem(EX1_TEXT.replace(" solves y order 1", ""))


def test_bundled_corpus_complete():
    names = S.bundled_names()
    for expected in ("ex1", "ex2_paper", "ex2_literal", "ex3", "ex4", "ex5", "ex6", "ex7"):
        assert expected in names


# ---------------------------------------------------------------------------
# equation series


def test_equation_series_residual_at_exact_coefficients():
    # exact solution: Y(0)=Y(1)=0, Y(k)=1/k! for k >= 2
    spec = load_problem(EX1_TEXT)
    n = spec.order
    coeffs = {"y": [0.0, 0.0] + [1 / math.factorial(k) for k in range(2, n + 1)]}
    lhs, rhs = equation_series(spec.equations[0], coeffs, spec.t0, n)
    for k in range(n):
        assert lhs.coeffs[k] - rhs.coeffs[k] == pytest.approx(0.0, abs=1e-12)


def test_equation_series_variable_coefficient_lhs():
    spec = load_bundled("ex3")
    n = spec.order
    coeffs = {"y": [0.0, 0.5] + [0.0] * (n - 1)}
    lhs, _ = equation_series(spec.equations[0], coeffs, spec.t0, n)
    assert lhs.coeffs[0] == pytest.approx(1.0, abs=1e-15)


def test_equation_series_source_only_rhs():
    text = """\
name: src
t0: 0
order: 4
unknown: y
eq: diff(y, 1) = cos(t) - t^2/2 + 1 solves y order 1
init y: 0
"""
    spec = load_problem(text)
    coeffs = {"y": [0.0] * 5}
    _, rhs = equation_series(spec.equations[0], coeffs, 0.0, 4)
    # cos: 1, 0, -1/2, 0, 1/24; minus t^2/2; plus 1
    assert rhs.coeffs == pytest.approx([2.0, 0.0, -1.0, 0.0, 1 / 24], abs=1e-15)


def test_equation_series_demands_padding():
    spec = load_problem(EX1_TEXT)
    with pytest.raises(ValidationError, match="padded"):
        equation_series(spec.equations[0], {"y": [0.0]}, 1.0, 10)


def test_delay_lhs_transform_factor():
    # lhs coefficients of d/dt y(t/2) must be (k+1) (1/2)^(k+1) Y(k+1)
    spec = load_bundled("ex6")
    rng = np.random.default_rng(3)
    n = spec.order
    values = list(rng.uniform(-1, 1, n + 1))
    lhs, _ = equation_series(spec.equations[0], {"y": values}, 0.0, n)
    for k in range(n):
        want = (k + 1) * 0.5 ** (k + 1) * values[k + 1]
        assert lhs.coeffs[k] == pytest.approx(want, rel=1e-14, abs=1e-16)


# ---------------------------------------------------------------------------
# stepping


def _fresh_state(spec, order=None):
    n = order if order is not None else spec.order
    state = {}
    for u in spec.unknowns:
        values = [0.0] * (n + 1)
        for i, v in enumerate(spec.init[u]):
            values[i] = v
        state[u] = values
    return state


def test_step_log_problem_first_coefficient():
    spec = load_problem(EX1_TEXT)
    state = _fresh_state(spec)
    step(spec, compile_equations(spec, state), 0)
    assert state["y"][1] == pytest.approx(0.0, abs=1e-15)


def test_step_tangent_problem_third_coefficient():
    spec = load_bundled("ex5")
    state = _fresh_state(spec)
    tapes = compile_equations(spec, state)
    step(spec, tapes, 0)
    step(spec, tapes, 1)
    assert state["y"][3] == pytest.approx(1 / 3, rel=1e-14)


def test_step_damped_problem_third_coefficient():
    spec = load_bundled("ex2_paper")
    state = _fresh_state(spec)
    tapes = compile_equations(spec, state)
    for k in range(3):
        step(spec, tapes, k)
    assert state["y"][3] == pytest.approx(-23 / 3000, rel=1e-13)


def test_step_singular_when_coefficient_unconstrained():
    text = """\
name: singular
t0: 0
order: 4
unknown: y
eq: 0*diff(y, 1) = y solves y order 1
init y: 1
"""
    spec = load_problem(text)
    state = _fresh_state(spec)
    with pytest.raises(SingularStep):
        step(spec, compile_equations(spec, state), 0)


def test_step_nonlinear_in_top_coefficient():
    text = """\
name: quadratic
t0: 0
order: 4
unknown: y
eq: diff(y, 1)^2 = t solves y order 1
init y: 1
"""
    spec = load_problem(text)
    state = _fresh_state(spec)
    with pytest.raises(NonlinearStep):
        step(spec, compile_equations(spec, state), 0)


# ---------------------------------------------------------------------------
# full solves against the published coefficient lists


def assert_prefix(got, want, zero_tol=1e-13):
    for g, w in zip(got, want):
        if w == 0.0:
            assert abs(g) <= zero_tol, (got, want)
        else:
            assert g == pytest.approx(w, rel=1e-12), (got, want)


def test_solve_log_problem_series():
    sol = solve(load_problem(EX1_TEXT))
    assert_prefix(sol.coeffs("y")[:6], [0, 0, 1 / 2, 1 / 6, 1 / 24, 1 / 120])


def test_solve_damped_problem_series():
    sol = solve(load_bundled("ex2_paper"))
    want = [1, -1 / 10, 3 / 50, -23 / 3000, -119 / 60000, 247 / 300000, -2233 / 4500000]
    assert_prefix(sol.coeffs("y")[:7], want)


def test_solve_square_root_branches():
    spec = load_bundled("ex3")
    pos = solve(spec)
    assert pos.coeffs("y")[1] == pytest.approx(0.5, rel=1e-13)
    assert max(abs(c) for c in pos.coeffs("y")[2:]) <= 1e-13
    neg = solve(spec.with_flipped_sqrt())
    assert neg.coeffs("y")[1] == pytest.approx(-0.5, rel=1e-13)
    assert max(abs(c) for c in neg.coeffs("y")[2:]) <= 1e-13


def test_solve_arcsine_integro_differential_series():
    sol = solve(load_bundled("ex4"))
    want = [-1, 2, 0, -1 / 6, 0, 1 / 120, 0, -1 / 5040]
    assert_prefix(sol.coeffs("y")[:8], want)


def test_solve_tangent_integro_differential_series():
    sol = solve(load_bundled("ex5"))
    want = [0, 1, 0, 1 / 3, 0, 2 / 15, 0, 17 / 315, 0, 62 / 2835]
    assert_prefix(sol.coeffs("y")[:10], want)


def test_solve_delay_problem_is_exact_line():
    sol = solve(load_bundled("ex6"))
    got = sol.coeffs("y")
    assert got[0] == 1.0 and got[1] == pytest.approx(1.0, rel=1e-14)
    assert max(abs(c) for c in got[2:]) <= 1e-13


def test_solve_coupled_system_series():
    sol = solve(load_bundled("ex7"))
    want1 = [2, -2, 1, -1 / 3, 1 / 12, -1 / 60]
    want2 = [1, 0, 1 / 2, 1 / 6, 1 / 24, 1 / 120]
    assert_prefix(sol.coeffs("y1")[:6], want1)
    assert_prefix(sol.coeffs("y2")[:6], want2)


def test_solve_keeps_prescribed_initial_coefficients():
    spec = load_bundled("ex5")
    sol = solve(spec)
    assert sol.coeffs("y")[0] == 0.0
    assert sol.coeffs("y")[1] == 1.0


def test_solve_residuals_within_bound_on_corpus():
    for name in S.bundled_names():
        spec = load_bundled(name)
        sol = solve(spec)
        top = max(abs(c) for u in spec.unknowns for c in sol.coeffs(u))
        bound = 1e-10 * (1.0 + top)
        for u, worst in sol.residuals.items():
            assert worst <= bound, (name, u, worst, bound)


def test_solve_residual_failure_aborts():
    # an inconsistent over-determination cannot satisfy the residual check:
    # the probe fixes coefficient k from equation coefficient k, but the
    # unsatisfiable source leaks into later residual coefficients
    text = """\
name: broken
t0: 0
order: 4
unknown: y
eq: diff(y, 1)*0 + y = t + 1/(1 - t) solves y order 1
init y: 1
"""
    spec = load_problem(text)
    with pytest.raises((ResidualError, SingularStep)):
        solve(spec)


def test_order_monotonicity_on_corpus():
    for name in ("ex1", "ex4", "ex5", "ex7"):
        spec = load_bundled(name)
        worst = []
        for order in (5, 10, 15):
            sol = solve(spec, order=order)
            table = error_table(spec.with_order(order), sol, spec.exact)
            worst.append(max(r[3] for u in spec.unknowns for r in table[u]))
        assert worst[0] >= worst[1] >= worst[2], (name, worst)


def _bits(values):
    return [c.hex() for c in values]


@pytest.mark.parametrize("name", S.bundled_names())
def test_solve_coefficients_do_not_depend_on_the_order(name):
    # ex6 stops with SingularStep from N = 48 on (ROADMAP item 4b)
    spec = load_bundled(name)
    top = 40 if name == "ex6" else 80
    full = solve(spec, order=top)
    for n in (5, 10, 15, 40):
        if n >= top:
            continue
        sol = solve(spec, order=n)
        for u in spec.unknowns:
            assert _bits(sol.coeffs(u)) == _bits(full.coeffs(u)[: n + 1]), (name, n, u)


def test_solve_evaluates_each_equation_once(monkeypatch):
    # the steps run on tapes; only the final residual check evaluates the
    # equations afresh
    calls = []
    real = S.equation_series
    monkeypatch.setattr(S, "equation_series", lambda eq, *a: calls.append(eq) or real(eq, *a))
    spec = load_bundled("ex7")
    solve(spec, order=20)
    assert calls == list(spec.equations)


_LOOKAHEAD = """\
name: lookahead
t0: 0
order: 6
unknown: y
eq: diff(y, 1) = y*diff(y, 2) + 1 solves y order 1
init y: 1
"""

_COUPLED = """\
name: coupled
t0: 0
order: 6
unknown: a
unknown: b
eq: diff(a, 1) = {first} solves a order 1
eq: diff(b, 1) = {second} solves b order 1
init a: 1
init b: 1
"""


def test_load_rejects_a_diff_atom_that_reads_ahead():
    with pytest.raises(ValidationError, match="line 5: diff\\(y, 2\\) reads a coefficient"):
        load_problem(_LOOKAHEAD)
    # b's coefficient k+1 is determined after a's equation needs it
    with pytest.raises(ValidationError, match="line 6: diff\\(b, 1\\)"):
        load_problem(_COUPLED.format(first="diff(b, 1)", second="a"))
    # a's coefficient k+1 is final by the time b's equation reads it
    sol = solve(load_problem(_COUPLED.format(first="b", second="diff(a, 1)")))
    assert sol.coeffs("a")[:3] == pytest.approx([1.0, 1.0, 0.5], rel=1e-14)
    assert sol.coeffs("b")[:3] == pytest.approx([1.0, 1.0, 0.5], rel=1e-14)


def test_solve_fails_where_a_fresh_evaluation_would():
    # a's chosen Y(1) = 5 puts ln(3 - diff(a, 1)) out of its domain, which a
    # fresh evaluation first meets at a's next step; b's equation fails at
    # step 0 before that
    text = _COUPLED.format(first="a + 0*ln(3 - diff(a, 1))", second="diff(b, 1) + b")
    text = text.replace("init a: 1", "init a: 5")
    with pytest.raises(SingularStep, match="'b' does not determine Y\\(1\\) \\(step k=0\\)"):
        solve(load_problem(text))
    with pytest.raises(DomainError, match="got -2.0 in 'ln\\(3 - diff\\(a, 1\\)\\)'"):
        solve(load_problem(text.replace("diff(b, 1) + b", "a")))


def test_solve_refuses_a_lookahead_built_in_code():
    spec = load_problem(_COUPLED.format(first="b", second="a"))
    eq_a = replace(spec.equations[0], rhs=E.Deriv("b", 1))
    with pytest.raises(ValidationError, match="'coupled': diff\\(b, 1\\)"):
        solve(replace(spec, equations=(eq_a, spec.equations[1])))


# ---------------------------------------------------------------------------
# error tables


def test_error_table_zero_at_expansion_point():
    for name in ("ex1", "ex4", "ex5", "ex7"):
        spec = load_bundled(name)
        sol = solve(spec)
        table = error_table(spec, sol, spec.exact)
        for u in spec.unknowns:
            t, _, _, delta = table[u][0]
            assert t == spec.t0
            assert delta == 0.0


def test_error_table_published_rows():
    spec = load_bundled("ex1")
    sol = solve(spec, order=5)
    table = error_table(spec.with_order(5), sol, spec.exact)
    assert table["y"][-1][0] == 2.0
    assert table["y"][-1][3] == pytest.approx(1.6152e-3, abs=5e-8)

    spec4 = load_bundled("ex4")
    sol4 = solve(spec4, order=10)
    table4 = error_table(spec4.with_order(10), sol4, spec4.exact)
    assert table4["y"][-1][3] == pytest.approx(2.4892e-8, rel=5e-3)


def test_error_table_with_reference_trajectory():
    from dtm.reference import RefConfig, rk45_solve

    spec = load_bundled("ex2_literal")
    sol = solve(spec)
    rhs = {"y": spec.equations[0].rhs}
    ref = rk45_solve(
        rhs, [1.0], 0.0, 1.0, spec.points, RefConfig(atol=1e-13, rtol=1e-12)
    )
    table = error_table(spec, sol, ref)
    # the literal-model series against its own tight trajectory: pure
    # truncation error, small on [0, 1]
    assert table["y"][0][3] == 0.0
    assert all(r[3] < 1e-9 for r in table["y"])
