import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dtm import expr as E
from dtm import series
from dtm.errors import (
    DivisionBySingularSeries,
    DomainError,
    DtmError,
    ParseError,
    UnboundSymbol,
    UnsupportedNode,
)
from dtm.expr import (
    Binary,
    Deriv,
    Integral,
    Number,
    Symbol,
    Time,
    Unary,
    Unknown,
    diff_sym,
    eval_numeric,
    eval_series,
    parse,
    simplify,
    substitute,
    to_text,
)


def jet(coeffs, t0=0.0):
    return series.from_coeffs(t0, coeffs)


# ---------------------------------------------------------------------------
# parsing


def test_parse_log_sum():
    got = parse("ln(t + y)", ["y"])
    assert got == Unary("ln", Binary("add", Time(), Unknown("y", 1.0)))


def test_parse_sec_quotient():
    got = parse("sec(t)^2/(1 + y^2)", ["y"])
    want = Binary(
        "div",
        Binary("pow", Unary("sec", Time()), Number(2)),
        Binary("add", Number(1), Binary("pow", Unknown("y", 1.0), Number(2))),
    )
    assert got == want


def test_parse_scaled_unknown_quotient():
    got = parse("y1(3*t)^2/(3*t+1)^2", ["y1"])
    want = Binary(
        "div",
        Binary("pow", Unknown("y1", 3.0), Number(2)),
        Binary(
            "pow",
            Binary("add", Binary("mul", Number(3), Time()), Number(1)),
            Number(2),
        ),
    )
    assert got == want


def test_parse_precedence_and_associativity():
    assert parse("1 - 2 - 3") == Binary(
        "sub", Binary("sub", Number(1), Number(2)), Number(3)
    )
    assert parse("1 + 2*3^2") == Binary(
        "add", Number(1), Binary("mul", Number(2), Binary("pow", Number(3), Number(2)))
    )
    # unary minus binds looser than '^'
    assert parse("-t^2") == Unary("neg", Binary("pow", Time(), Number(2)))
    # right-associative exponent folds to a single number
    assert parse("2^3^2") == Binary("pow", Number(2), Number(9))


def test_parse_diff_atoms():
    assert parse("diff(y, 2)", ["y"]) == Deriv("y", 2, 1.0)
    assert parse("diff(y, 1, scale=1/2)", ["y"]) == Deriv("y", 1, 0.5)
    assert parse("diff(y, 1, scale=0.5)", ["y"]) == Deriv("y", 1, 0.5)
    with pytest.raises(ParseError):
        parse("diff(z, 1)", ["y"])
    with pytest.raises(ParseError):
        parse("diff(y, 0)", ["y"])
    with pytest.raises(ParseError):
        parse("diff(y, 1, scale=0)", ["y"])


def test_parse_integral():
    got = parse("integral(t)", [])
    assert got == Integral(Time())


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as info:
        parse("ln(t + ", [])
    assert "position" in str(info.value)
    with pytest.raises(ParseError) as info:
        parse("1 + $", [])
    assert "position 4" in str(info.value)
    with pytest.raises(ParseError, match="unknown identifier"):
        parse("z + 1", [])
    with pytest.raises(ParseError, match="exponent"):
        parse("y^t", ["y"])
    with pytest.raises(ParseError, match="trailing"):
        parse("1 2", [])


def test_parse_numbers():
    assert parse("1.5e-3") == Number(1.5e-3)
    assert parse(".25") == Number(0.25)
    assert parse("2E2") == Number(200.0)


ROUND_TRIP_CASES = [
    "ln(t + y)",
    "sec(t)^2/(1 + y^2)",
    "y1(3*t)^2/(3*t + 1)^2",
    "-y^2 + exp(-t)",
    "1 - 2 - 3",
    "t/(2*t)/t",
    "(t + 1)*diff(y, 1)",
    "diff(y, 1, scale=0.5) - y",
    "sin(t)*integral(y(3*t)^2/(3*t + 1)^2)",
    "cos(t) - t^2/2 + 1 + integral(asin(1 - t + y))",
    "4/y1 - ln(t + y2)",
    "nsqrt(t + y^2)",
    "-(t + 1)^2",
    "2 - (t - 1)",
]


@pytest.mark.parametrize("text", ROUND_TRIP_CASES)
def test_print_parse_round_trip(text):
    unknowns = ["y", "y1", "y2"]
    tree = parse(text, unknowns)
    printed = to_text(tree)
    assert parse(printed, unknowns) == tree


def test_round_trip_of_constructed_trees():
    y = Unknown("y", 1.0)
    trees = [
        Unary("neg", Binary("mul", y, Time())),
        Binary("sub", Number(1), Unary("neg", y)),
        Binary("pow", Unary("neg", y), Number(2)),
        Binary("div", Number(1), Binary("div", y, Time())),
        Binary("mul", Binary("add", y, Number(1)), Binary("sub", y, Number(1))),
    ]
    for tree in trees:
        assert parse(to_text(tree), ["y"]) == tree


# ---------------------------------------------------------------------------
# simplify


def test_simplify_identities():
    y1 = Symbol("Y(1)")
    assert simplify(Binary("mul", Binary("add", y1, Number(0)), Number(1))) == y1
    assert simplify(Binary("mul", Number(2), Number(3))) == Number(6)
    assert simplify(Unary("sin", Number(0))) == Number(0)
    assert simplify(Binary("pow", y1, Number(1))) == y1
    assert simplify(Binary("div", Number(0), y1)) == Number(0)
    assert simplify(Binary("sub", Number(0), y1)) == Unary("neg", y1)
    assert simplify(Unary("neg", Unary("neg", y1))) == y1


def test_simplify_idempotent():
    rng = np.random.default_rng(31)
    cases = [parse(text, ["y", "y1", "y2"]) for text in ROUND_TRIP_CASES]
    y = Symbol("Y(0)")
    for _ in range(30):
        a, b = rng.uniform(-3, 3, 2)
        cases.append(
            Binary(
                "add",
                Binary("mul", Number(a), Binary("pow", y, Number(2))),
                Binary("div", Binary("sub", y, Number(b)), Binary("add", y, Number(1))),
            )
        )
    for tree in cases:
        once = simplify(tree)
        assert simplify(once) == once


# ---------------------------------------------------------------------------
# symbolic differentiation


def test_diff_sym_examples():
    t0, y0 = Symbol("t0"), Symbol("Y(0)")
    e = Unary("ln", Binary("add", t0, y0))
    got = diff_sym(e, "t0")
    assert got == Binary("div", Number(1), Binary("add", t0, y0))
    assert diff_sym(Number(4.2), "s") == Number(0)
    prod = Binary("mul", y0, Binary("pow", Symbol("Y(1)"), Number(2)))
    d = diff_sym(prod, "Y(1)")
    binding = {"Y(0)": 1.7, "Y(1)": -0.6}
    assert eval_numeric(d, binding) == pytest.approx(2 * 1.7 * -0.6, rel=1e-14)


def test_diff_sym_rejects_unknowns_and_integrals():
    with pytest.raises(UnsupportedNode):
        diff_sym(Unknown("y", 1.0), "y")
    with pytest.raises(UnsupportedNode):
        diff_sym(Integral(Symbol("x")), "x")
    with pytest.raises(UnsupportedNode):
        diff_sym(Time(), "t0")


def _random_symbolic_tree(rng):
    x, y = Symbol("x"), Symbol("y")
    leaves = [x, y, Number(rng.uniform(0.5, 2.0))]
    e = leaves[rng.integers(0, len(leaves))]
    for _ in range(rng.integers(2, 5)):
        pick = rng.integers(0, 8)
        other = leaves[rng.integers(0, len(leaves))]
        if pick == 0:
            e = Binary("add", e, other)
        elif pick == 1:
            e = Binary("mul", e, other)
        elif pick == 2:
            e = Binary("sub", e, other)
        elif pick == 3:
            e = Binary("div", e, Binary("add", Binary("pow", other, Number(2)), Number(1.5)))
        elif pick == 4:
            e = Unary("sin", e)
        elif pick == 5:
            e = Unary("exp", Binary("mul", Number(0.3), Unary("sin", e)))
        elif pick == 6:
            e = Unary("atan", e)
        else:
            e = Binary("pow", e, Number(2.0))
    return e


def test_diff_sym_matches_finite_differences():
    rng = np.random.default_rng(37)
    checked = 0
    while checked < 25:
        tree = _random_symbolic_tree(rng)
        d = diff_sym(tree, "x")
        x = rng.uniform(-1.5, 1.5)
        y = rng.uniform(-1.5, 1.5)
        h = 1e-6 * max(1.0, abs(x))
        mid = eval_numeric(tree, {"x": x, "y": y})
        up = eval_numeric(tree, {"x": x + h, "y": y})
        dn = eval_numeric(tree, {"x": x - h, "y": y})
        fd = (up - dn) / (2 * h)
        an = eval_numeric(d, {"x": x, "y": y})
        # keep only well-conditioned samples: the quotient is dominated by
        # cancellation noise when |f| is much larger than |f'|
        if abs(fd) < 1e-2 or abs(mid) > 50 * abs(fd):
            continue
        assert an == pytest.approx(fd, rel=1e-6)
        checked += 1


def test_substitute():
    e = Binary("div", Binary("add", Number(1), Symbol("Y(1)")), Binary("add", Symbol("t0"), Symbol("Y(0)")))
    at1 = simplify(substitute(e, {"t0": 1.0}))
    assert "t0" not in E.symbol_names(at1)
    assert eval_numeric(at1, {"Y(0)": 0.0, "Y(1)": 1.0}) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# numeric evaluation


def test_eval_numeric_examples():
    exact = parse("exp(t - 1) - t", [])
    assert eval_numeric(exact, {"t": 2.0}) == pytest.approx(math.e - 2.0, rel=1e-15)
    f = parse("4/y1 - ln(t + y2)", ["y1", "y2"])
    assert eval_numeric(f, {"t": 0.0, "y1": 2.0, "y2": 1.0}) == pytest.approx(2.0)
    sym = Binary(
        "div",
        Binary("add", Number(1), Symbol("Y1")),
        Binary("add", Number(1), Symbol("Y0")),
    )
    assert eval_numeric(sym, {"Y0": 0.0, "Y1": 1.0}) == pytest.approx(2.0)


def test_eval_numeric_errors():
    with pytest.raises(UnboundSymbol):
        eval_numeric(Symbol("nope"), {})
    with pytest.raises(UnboundSymbol):
        eval_numeric(Time(), {})
    with pytest.raises(DomainError):
        eval_numeric(parse("ln(t)", []), {"t": -1.0})
    with pytest.raises(DomainError):
        eval_numeric(parse("1/t", []), {"t": 0.0})
    with pytest.raises(UnsupportedNode):
        eval_numeric(Unknown("y", 2.0), {"y": 1.0})


def test_eval_numeric_sec_is_one_over_cos():
    f = parse("sec(t)", [])
    assert eval_numeric(f, {"t": 0.7}) == pytest.approx(1 / math.cos(0.7), rel=1e-15)


# ---------------------------------------------------------------------------
# series evaluation


def test_eval_series_time_at_base_5():
    got = eval_series(parse("t", []), {}, 5.0, 3)
    assert got.coeffs == (5, 1, 0, 0)


def test_eval_series_sqrt_jet():
    f = parse("sqrt(t + y^2)", ["y"])
    y = jet([0.0, 0.5, 0.0, 0.0, 0.0], t0=1.0)
    got = eval_series(f, {"y": y}, 1.0, 4)
    assert got.coeffs[0] == pytest.approx(1.0, abs=1e-15)
    assert got.coeffs[1] == pytest.approx(0.5, abs=1e-15)
    assert got.coeffs[2:] == pytest.approx([0, 0, 0], abs=1e-14)


def test_eval_series_integral_collapses_to_time():
    # integrand sec(t)^2/(1+tan(t)^2) is identically 1, so the integral is t
    n = 6
    f = parse("integral(sec(t)^2/(1 + y^2))", ["y"])
    tan_jet = series.elementary("tan", series.time_var(0.0, n))
    got = eval_series(f, {"y": tan_jet}, 0.0, n)
    want = series.integrate(series.constant(1.0, 0.0, n))
    assert got.coeffs == pytest.approx(want.coeffs, abs=1e-13)


def test_eval_series_integral_dummy_variable():
    got = eval_series(parse("integral(t)", []), {}, 0.0, 4)
    assert got.coeffs == pytest.approx([0, 0, 0.5, 0, 0], abs=0.0)


def test_eval_series_scaled_unknown():
    y = jet([1.0, 1.0, 0.0])
    got = eval_series(parse("y(3*t)", ["y"]), {"y": y}, 0.0, 2)
    assert got.coeffs == (1.0, 3.0, 0.0)


def test_eval_series_deriv_atom_with_scale():
    rng = np.random.default_rng(41)
    y = jet(rng.uniform(-1, 1, 7))
    got = eval_series(Deriv("y", 1, 0.5), {"y": y}, 0.0, 6)
    for i in range(6):
        assert got.coeffs[i] == pytest.approx(
            (i + 1) * 0.5 ** (i + 1) * y.coeffs[i + 1], rel=1e-14, abs=1e-16
        )


def test_eval_series_pow_variants():
    y = jet([2.0, 1.0, 0.0, 0.0])
    cube = eval_series(parse("y^3", ["y"]), {"y": y}, 0.0, 3)
    assert cube.coeffs == pytest.approx([8, 12, 6, 1], rel=1e-14)
    inv = eval_series(parse("y^-2", ["y"]), {"y": y}, 0.0, 3)
    direct = series.div(
        series.constant(1.0, 0.0, 3), series.mul(y, y)
    )
    assert inv.coeffs == pytest.approx(direct.coeffs, rel=1e-14)
    frac = eval_series(parse("y^0.5", ["y"]), {"y": y}, 0.0, 3)
    root = series.elementary("sqrt_pos", y)
    assert frac.coeffs == pytest.approx(root.coeffs, rel=1e-13)


def _fd_derivative(func, t0, k, h=0.5, points=9):
    """k-th derivative by a dense central stencil (exact on low-degree polys).

    Stencil weights come from solving the Vandermonde moment conditions,
    so the formula is exact for polynomials of degree < points.
    """
    xs = (np.arange(points) - (points - 1) / 2) * h
    vander = np.vander(xs, points, increasing=True).T
    rhs = np.zeros(points)
    rhs[k] = math.factorial(k)
    weights = np.linalg.solve(vander, rhs)
    return sum(w * func(t0 + x) for w, x in zip(weights, xs))


def test_eval_series_polynomial_matches_derivatives():
    # coefficient i should equal the i-th derivative / i! (finite differences)
    f = parse("t^3 - 2*t*y + y^2", ["y"])
    t0, n = 0.7, 4
    yj = jet([0.4, -1.1, 0.35, 0.0, 0.2], t0=t0)

    def value(t):
        yv = yj.eval(t)
        return t**3 - 2 * t * yv + yv**2

    got = eval_series(f, {"y": yj}, t0, n)
    want = [_fd_derivative(value, t0, k) / math.factorial(k) for k in range(n + 1)]
    assert list(got.coeffs) == pytest.approx(want, rel=1e-6, abs=1e-8)


def test_eval_series_annotates_failing_subtree():
    f = parse("ln(y - 2)", ["y"])
    y = jet([1.0, 1.0, 0.0])
    with pytest.raises(DomainError) as info:
        eval_series(f, {"y": y}, 0.0, 2)
    assert "ln(y - 2)" in str(info.value)


def test_eval_series_unbound_unknown():
    with pytest.raises(UnboundSymbol):
        eval_series(parse("y", ["y"]), {}, 0.0, 2)


# ---------------------------------------------------------------------------
# the operator table

# in-domain constant terms per operator (operands default to [-2, 2])
_DOMAIN = {
    "ln": (0.2, 3.0),
    "asin": (-0.9, 0.9),
    "sqrt_pos": (0.2, 3.0),
    "sqrt_neg": (0.2, 3.0),
    "tan": (-1.2, 1.2),
    "sec": (-1.2, 1.2),
    "pow": (0.2, 3.0),
}


@pytest.mark.parametrize("name", sorted(E.OPS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_op_rules_agree(name, data):
    """Jet coefficient 0 is the pointwise value, coefficient 1 the chain rule."""
    op = E.OPS[name]
    lo, hi = _DOMAIN.get(name, (-2.0, 2.0))
    unit = st.floats(-1.0, 1.0)
    heads = [data.draw(st.floats(lo, hi))]
    if op.const_exponent:
        expo = Number(data.draw(st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.0, 1.5, 3.0])))
        values = (heads[0], expo.value)
    elif len(op.operand_prec) == 2:
        # a divisor stays away from zero
        b0 = data.draw(st.floats(0.5, 2.0)) * data.draw(st.sampled_from([-1.0, 1.0]))
        heads.append(b0 if name == "div" else data.draw(st.floats(lo, hi)))
        values = tuple(heads)
    else:
        values = tuple(heads)
    jets = {
        u: jet([h, data.draw(unit), data.draw(unit), data.draw(unit)])
        for u, h in zip("ab", heads)
    }
    if op.const_exponent:
        node, sym = Binary(name, Unknown("a"), expo), Binary(name, Symbol("a"), expo)
    elif len(heads) == 2:
        node = Binary(name, Unknown("a"), Unknown("b"))
        sym = Binary(name, Symbol("a"), Symbol("b"))
    else:
        node, sym = Unary(name, Unknown("a")), Unary(name, Symbol("a"))
    got = eval_series(node, jets, 0.0, 3).coeffs

    assert got[0] == pytest.approx(op.value(*values), rel=1e-12, abs=1e-15)
    at = {u: h for u, h in zip("ab", heads)}
    slope = 0.0
    for i, u in enumerate("ab"[: len(heads)]):
        seeds = [Number(1.0 if j == i else 0.0) for j in range(len(op.operand_prec))]
        slope += eval_numeric(op.deriv(E.Builder(), sym, *seeds), at) * jets[u].coeffs[1]
    assert got[1] == pytest.approx(slope, rel=1e-12, abs=1e-15)


def _parseable_trees():
    """Random trees in the parser's image, over every operator spelling.

    Right-nested sums and products are included: the printer keeps their
    parentheses.  A negated bare number parses as a negative literal.
    """
    leaves = st.one_of(
        st.floats(-100.0, 100.0).map(Number),
        st.just(Time()),
        st.just(Unknown("y")),
        st.floats(0.1, 10.0).map(lambda q: Unknown("z", q)),
        st.builds(Deriv, st.just("y"), st.integers(1, 3), st.floats(0.1, 2.0)),
    )
    unary = [n for n, op in E.OPS.items() if len(op.operand_prec) == 1]
    infix = [
        n for n, op in E.OPS.items() if len(op.operand_prec) == 2 and not op.const_exponent
    ]
    powers = [n for n, op in E.OPS.items() if op.const_exponent]

    def extend(children):
        return st.one_of(
            st.builds(Unary, st.sampled_from(unary), children).filter(
                lambda e: not (e.op == "neg" and isinstance(e.child, Number))
            ),
            st.builds(Binary, st.sampled_from(infix), children, children),
            st.builds(Binary, st.sampled_from(powers), children,
                      st.floats(-4.0, 4.0).map(Number)),
            st.builds(Integral, children),
        )

    return st.recursive(leaves, extend, max_leaves=12)


def _symbolic_trees():
    """Random trees over Symbol atoms and the numbers the rules act on."""
    leaves = st.one_of(
        st.sampled_from([0.0, 1.0, -1.0, 2.0, 0.5, 3.0]).map(Number),
        st.sampled_from([Symbol("x"), Symbol("y")]),
    )
    unary = [n for n, op in E.OPS.items() if len(op.operand_prec) == 1]
    binary = [n for n, op in E.OPS.items() if len(op.operand_prec) == 2]

    def extend(children):
        return st.one_of(
            st.builds(Unary, st.sampled_from(unary), children),
            st.builds(Binary, st.sampled_from(binary), children, children),
        )

    return st.recursive(leaves, extend, max_leaves=8)


@pytest.mark.parametrize("name", sorted(E.OPS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_constructor_matches_simplify(name, data):
    """A smart constructor over simplified operands builds what simplify
    makes of the raw node."""
    operands = [simplify(data.draw(_symbolic_trees())) for _ in E.OPS[name].operand_prec]
    b = E.Builder()
    if len(operands) == 1:
        built, raw = b.unary(name, *operands), Unary(name, *operands)
    else:
        built, raw = b.binary(name, *operands), Binary(name, *operands)
    assert built == simplify(raw)


def test_builder_keeps_its_keys_alive():
    # a * (1/u) builds a/u, which does not hold the node 1/u; once the
    # caller drops it, a fresh node could take its id unless the table
    # keeps it alive
    b = E.Builder()
    a = Symbol("a")
    for i in range(200):
        got = b.binary("mul", a, Binary("div", Number(1.0), Symbol(f"u{i}")))
        assert got == Binary("div", a, Symbol(f"u{i}"))


@settings(max_examples=300, deadline=None)
@given(tree=_parseable_trees())
@example(tree=Binary("add", Time(), Binary("sub", Unknown("y"), Number(1.0))))
@example(tree=Binary("mul", Time(), Binary("div", Unknown("y"), Number(2.0))))
def test_print_parse_round_trip_random(tree):
    assert parse(to_text(tree), ["y", "z"]) == tree


def test_parser_names_come_from_the_table():
    assert E.FUNC_NAMES == {
        "exp": "exp", "ln": "ln", "sin": "sin", "cos": "cos", "tan": "tan",
        "sec": "sec", "asin": "asin", "atan": "atan",
        "sqrt": "sqrt_pos", "nsqrt": "sqrt_neg",
    }
    assert E.RESERVED == set(E.FUNC_NAMES) | {"t", "integral", "diff", "scale"}


def test_fold_skips_rules_that_raise_or_overflow():
    y = Symbol("Y(0)")
    for text in ("exp(1000)", "ln(-1)", "0^0.5", "1e200*1e200", "1e200*2e200", "10^400",
                 "1e200*(1e200*t)", "1e200*t/1e-200", "(t^1e200)^1e200"):
        tree = Binary("add", parse(text, []), y)
        assert simplify(tree).left == parse(text, [])
    with pytest.raises(ParseError, match="does not fit a float"):
        parse("1e999 + y", ["y"])


def test_overflow_is_a_domain_error():
    with pytest.raises(DomainError, match="overflows"):
        eval_numeric(parse("exp(t)", []), {"t": 1000.0})
    with pytest.raises(DomainError, match="overflows"):
        eval_numeric(parse("t^3", []), {"t": 1e200})
    with pytest.raises(DomainError, match="in 'exp\\(y\\)'"):
        eval_series(parse("exp(y)", ["y"]), {"y": jet([1000.0, 1.0])}, 0.0, 1)


# ---------------------------------------------------------------------------
# the tape against the batch kernels


def _one(u):
    return series.constant(1.0, u.base_point, u.order)


def _with_constant(v, c0):
    return series.from_coeffs(v.base_point, (c0,) + v.coeffs[1:])


def _batch_tan(e, u):
    if abs(math.cos(u.coeffs[0])) <= series.SINGULAR_TOL:
        raise DomainError(
            f"tan requires cos of the constant term to be nonzero, "
            f"got cos({u.coeffs[0]!r}) = {math.cos(u.coeffs[0])!r}"
        )
    return series.div(*series.sin_cos(u))


def _batch_asin(e, u):
    if abs(u.coeffs[0]) >= 1.0:
        raise DomainError(
            f"asin requires |constant term| < 1, got {u.coeffs[0]!r} (derivative singular at 1)"
        )
    radicand = series.sub(_one(u), series.mul(u, u))
    integrand = series.div(series.formal_derivative(u), series.elementary("sqrt_pos", radicand))
    return _with_constant(series.integrate(integrand), math.asin(u.coeffs[0]))


def _batch_atan(e, u):
    integrand = series.div(series.formal_derivative(u), series.add(_one(u), series.mul(u, u)))
    return _with_constant(series.integrate(integrand), math.atan(u.coeffs[0]))


def _batch_pow(e, base):
    c = e.right.value
    if c != int(c):
        return series.elementary("exp", series.scale(c, series.elementary("ln", base)))
    out = _one(base)
    for _ in range(abs(int(c))):
        out = series.mul(out, base)
    return series.div(_one(base), out) if c < 0 else out


# each operator's series as the batch kernels compose it
_BATCH = {
    "neg": lambda e, u: series.negate(u),
    "sec": lambda e, u: series.div(_one(u), series.sin_cos(u)[1]),
    "tan": _batch_tan,
    "asin": _batch_asin,
    "atan": _batch_atan,
    "sqrt_neg": lambda e, u: series.negate(series.elementary("sqrt_pos", u)),
    "pow": _batch_pow,
    "add": lambda e, a, b: series.add(a, b),
    "sub": lambda e, a, b: series.sub(a, b),
    "mul": lambda e, a, b: series.mul(a, b),
    "div": lambda e, a, b: series.div(a, b),
}


def _batch_walk(e, binding, t0, n):
    """A tree walk that evaluates whole series with the batch kernels."""
    if isinstance(e, Number):
        return series.constant(e.value, t0, n)
    if isinstance(e, Time):
        return series.time_var(t0, n)
    if isinstance(e, Unknown):
        return series.rescale_argument(binding[e.name], e.scale)
    if isinstance(e, Deriv):
        d = series.formal_derivative(binding[e.name], e.order)
        if e.scale != 1.0:
            d = series.scale(e.scale**e.order, series.rescale_argument(d, e.scale))
        return d
    if isinstance(e, Integral):
        return series.integrate(_batch_walk(e.body, binding, t0, n))
    if isinstance(e, Unary):
        operands = (_batch_walk(e.child, binding, t0, n),)
    elif e.op == "pow":
        operands = (_batch_walk(e.left, binding, t0, n),)
    else:
        operands = (_batch_walk(e.left, binding, t0, n), _batch_walk(e.right, binding, t0, n))
    rule = _BATCH.get(e.op, lambda e, u: series.elementary(e.op, u))
    try:
        return rule(e, *operands)
    except (DomainError, DivisionBySingularSeries) as err:
        if err.node is None:
            err.node = e
            err.args = (f"{err} in '{to_text(e)}'",)
        raise


def _outcome(evaluate):
    """Coefficients as exact bit patterns, or the error's type and text."""
    try:
        return [c.hex() for c in evaluate().coeffs]
    except (DtmError, ValueError) as err:
        return type(err).__name__, str(err)


def _random_jet(data, n, head):
    tail = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    return jet([data.draw(st.floats(*head))] + tail)


@pytest.mark.parametrize("name", sorted(E.OPS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_tape_matches_batch_kernels(name, data):
    """Every operator's tape nodes give the batch composition's bits."""
    op = E.OPS[name]
    n = data.draw(st.integers(1, 40))
    a = _random_jet(data, n, _DOMAIN.get(name, (-2.0, 2.0)))
    if op.const_exponent:
        expo = data.draw(st.sampled_from([-3.0, -1.0, 0.0, 0.5, 1.0, 2.0, 2.5]))
        node = Binary(name, Unknown("a"), Number(expo))
    elif len(op.operand_prec) == 2:
        node = Binary(name, Unknown("a"), Unknown("b"))
    else:
        node = Unary(name, Unknown("a"))
    binding = {"a": a, "b": _random_jet(data, n, (0.5, 2.0))}
    want = _outcome(lambda: _batch_walk(node, binding, 0.0, n))
    assert isinstance(want, list)
    assert _outcome(lambda: eval_series(node, binding, 0.0, n)) == want


@settings(max_examples=300, deadline=None)
@given(tree=_parseable_trees(), data=st.data())
def test_tape_matches_batch_walk_on_random_trees(tree, data):
    """Random trees, shared subtrees and all: the same bits or the same error."""
    n = data.draw(st.integers(1, 12))
    binding = {u: _random_jet(data, n, (0.1, 0.9)) for u in "yz"}
    want = _outcome(lambda: _batch_walk(tree, binding, 0.0, n))
    assert _outcome(lambda: eval_series(tree, binding, 0.0, n)) == want


def test_tape_shares_equal_subtrees():
    tape = series.Tape(4)
    y = (0.5, 1.0, 0.0, 0.0, 0.0)
    f = parse("ln(1 + y)*ln(1 + y) + sin(y) + cos(y) + 0*y + -0*y", ["y"])
    E.compile_series(tape, f, {"y": y}.__getitem__, 0.0)
    # 1, 1 + y, ln, the product, sin/cos as one pair, 0 and -0 apart, 0*y, -0*y
    # and the four sums
    assert len(tape.nodes) == 14


def test_tape_defers_errors_to_their_node():
    # the walk meets ln(-1) before the unbound unknown on its right
    f = Binary("add", parse("ln(0 - 1)", []), Unknown("w"))
    with pytest.raises(DomainError, match="in 'ln\\(0 - 1\\)'"):
        eval_series(f, {}, 0.0, 2)
    with pytest.raises(UnboundSymbol):
        eval_series(Binary("add", Unknown("w"), parse("ln(0 - 1)", [])), {}, 0.0, 2)
