import math

import numpy as np
import pytest

from dtm.errors import (
    DivisionBySingularSeries,
    DomainError,
    NonzeroBasePointScaling,
    SeriesMismatchError,
)
from dtm.series import (
    add,
    constant,
    div,
    elementary,
    formal_derivative,
    from_coeffs,
    integrate,
    mul,
    negate,
    rescale_argument,
    scale,
    sin_cos,
    sub,
    time_var,
)


def s(coeffs, t0=0.0):
    return from_coeffs(t0, coeffs)


def brute_product(a, b, n):
    """Independent full polynomial product, truncated to order n."""
    out = [0.0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out[: n + 1]


def test_constant_examples():
    assert constant(0, 0, 3).coeffs == (0, 0, 0, 0)
    assert constant(2, 1, 2).coeffs == (2, 0, 0)
    assert constant(math.pi, 0, 0).coeffs == (math.pi,)
    with pytest.raises(ValueError):
        constant(1, 0, -1)


def test_time_var_examples():
    assert time_var(1, 3).coeffs == (1, 1, 0, 0)
    assert time_var(0, 2).coeffs == (0, 1, 0)
    assert time_var(-2, 1).coeffs == (-2, 1)
    with pytest.raises(ValueError):
        time_var(0, 0)


def test_linear_ops():
    a = s([1, 2])
    b = s([3, 4])
    assert add(a, b).coeffs == (4, 6)
    assert scale(3, s([1, 0, 2])).coeffs == (3, 0, 6)
    assert sub(a, a).coeffs == (0, 0)
    assert negate(b).coeffs == (-3, -4)
    assert (a + b).coeffs == (4, 6)
    assert (2 * a).coeffs == (2, 4)


def test_mismatch_rejected():
    with pytest.raises(SeriesMismatchError):
        add(s([1, 2], t0=0), s([1, 2], t0=1))
    with pytest.raises(SeriesMismatchError):
        mul(s([1, 2]), s([1, 2, 3]))


def test_mul_examples():
    assert mul(s([1, 1]), s([1, 1])).coeffs == (1, 2)
    assert mul(s([0, 1, 0]), s([0, 1, 0])).coeffs == (0, 0, 1)


def test_mul_skips_zero_left_coefficients():
    # a zero coefficient of the left operand contributes no 0 * inf = nan
    assert mul(s([0.0, 1.0]), s([math.inf, 1.0])).coeffs == (0.0, math.inf)


def test_mul_matches_brute_force_convolution():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.uniform(-1, 1, 6)
        b = rng.uniform(-1, 1, 6)
        got = mul(s(a), s(b)).coeffs
        want = brute_product(a, b, 5)
        assert got == pytest.approx(want, rel=1e-13, abs=1e-13)


def test_ring_axioms():
    rng = np.random.default_rng(11)
    for _ in range(25):
        a, b, c = (s(rng.uniform(-1, 1, 8)) for _ in range(3))
        comm_l, comm_r = mul(a, b).coeffs, mul(b, a).coeffs
        assert comm_l == pytest.approx(comm_r, rel=1e-13, abs=1e-14)
        assoc_l = mul(mul(a, b), c).coeffs
        assoc_r = mul(a, mul(b, c)).coeffs
        assert assoc_l == pytest.approx(assoc_r, rel=1e-13, abs=1e-14)
        dist_l = mul(a, add(b, c)).coeffs
        dist_r = add(mul(a, b), mul(a, c)).coeffs
        assert dist_l == pytest.approx(dist_r, rel=1e-13, abs=1e-14)


def test_div_identity_and_geometric():
    a = s([2.0, -1.0, 0.5, 3.0])
    q = div(a, a)
    assert q.coeffs == pytest.approx([1, 0, 0, 0], abs=1e-15)
    # 1/(1+3x) = sum (-3x)^k
    geo = div(s([1, 0, 0]), s([1, 3, 0]))
    assert geo.coeffs == pytest.approx([1, -3, 9], abs=1e-13)


def test_div_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = s(rng.uniform(-1, 1, 7))
        b_coeffs = rng.uniform(-1, 1, 7)
        b_coeffs[0] = rng.uniform(0.5, 2.0) * (1 if b_coeffs[0] >= 0 else -1)
        b = s(b_coeffs)
        back = div(mul(a, b), b).coeffs
        assert back == pytest.approx(a.coeffs, rel=1e-12, abs=1e-12)


def test_div_singular_rejected():
    with pytest.raises(DivisionBySingularSeries):
        div(s([1, 0]), s([0, 1]))


def test_exp_of_lambda():
    e = elementary("exp", s([0, 1, 0, 0]))
    assert e.coeffs == pytest.approx([1, 1, 0.5, 1 / 6], abs=1e-15)


def test_exp_ln_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(20):
        u_coeffs = rng.uniform(-1, 1, 7)
        u_coeffs[0] = rng.uniform(0.1, 10.0)
        u = s(u_coeffs)
        back = elementary("ln", elementary("exp", u))
        assert back.coeffs == pytest.approx(u.coeffs, rel=1e-12, abs=1e-12)
        back2 = elementary("exp", elementary("ln", u))
        assert back2.coeffs == pytest.approx(u.coeffs, rel=1e-12, abs=1e-12)


def test_sqrt_round_trip_and_branches():
    rng = np.random.default_rng(9)
    for _ in range(20):
        u_coeffs = rng.uniform(-1, 1, 7)
        u_coeffs[0] = rng.uniform(0.1, 10.0)
        u = s(u_coeffs)
        r = elementary("sqrt_pos", u)
        assert mul(r, r).coeffs == pytest.approx(u.coeffs, rel=1e-12, abs=1e-12)
        nr = elementary("sqrt_neg", u)
        assert nr.coeffs == pytest.approx([-x for x in r.coeffs], abs=0.0)
    with pytest.raises(DomainError):
        elementary("sqrt_pos", s([-1.0, 0.0]))
    with pytest.raises(DomainError):
        elementary("ln", s([0.0, 1.0]))


def test_sqrt_jet_near_example_point():
    # f = sqrt(t + y^2) about t0=1 with y = [0, y1]: constant 1, slope 1/2
    y1 = 0.37
    t = time_var(1.0, 4)
    y = s([0.0, y1, 0.0, 0.0, 0.0], t0=1.0)
    u = add(t, mul(y, y))
    r = elementary("sqrt_pos", u)
    assert r.coeffs[0] == pytest.approx(1.0, abs=1e-15)
    assert r.coeffs[1] == pytest.approx(0.5, abs=1e-15)
    rn = elementary("sqrt_neg", u)
    assert rn.coeffs[0] == pytest.approx(-1.0, abs=1e-15)
    assert rn.coeffs[1] == pytest.approx(-0.5, abs=1e-15)


def test_sin_cos_pythagorean_identity():
    rng = np.random.default_rng(13)
    for _ in range(20):
        u = s(rng.uniform(-1, 1, 8))
        sn, cs = sin_cos(u)
        total = add(mul(sn, sn), mul(cs, cs)).coeffs
        want = [1.0] + [0.0] * 7
        assert total == pytest.approx(want, abs=1e-12)


def test_tan_matches_sin_over_cos_and_domain():
    u = s([0.3, 1.0, -0.5, 0.2])
    t = elementary("tan", u)
    sn, cs = sin_cos(u)
    assert t.coeffs == pytest.approx(div(sn, cs).coeffs, rel=1e-14)
    assert t.coeffs[0] == pytest.approx(math.tan(0.3), rel=1e-15)


def test_asin_maclaurin():
    w = elementary("asin", s([0, 1, 0, 0, 0]))
    assert w.coeffs == pytest.approx([0, 1, 0, 1 / 6, 0], abs=1e-14)
    with pytest.raises(DomainError):
        elementary("asin", s([1.0, 1.0]))


def test_atan_maclaurin():
    w = elementary("atan", s([0, 1, 0, 0, 0]))
    assert w.coeffs == pytest.approx([0, 1, 0, -1 / 3, 0], abs=1e-14)


def test_asin_atan_inverse_of_sin_tan():
    rng = np.random.default_rng(17)
    for _ in range(10):
        u_coeffs = rng.uniform(-0.4, 0.4, 7)
        u = s(u_coeffs)
        back = elementary("asin", elementary("sin", u)).coeffs
        assert back == pytest.approx(u.coeffs, rel=1e-11, abs=1e-11)
        back2 = elementary("atan", elementary("tan", u)).coeffs
        assert back2 == pytest.approx(u.coeffs, rel=1e-11, abs=1e-11)


def test_integrate_examples():
    assert integrate(s([1, 0, 0])).coeffs == (0, 1, 0)
    assert integrate(s([0, 0, 0])).coeffs == (0, 0, 0)
    # integral of cos about 0 is sin: coefficients must line up
    n = 9
    cs = elementary("cos", time_var(0.0, n))
    sn = elementary("sin", time_var(0.0, n))
    got = integrate(cs).coeffs
    assert got == pytest.approx(sn.coeffs, abs=1e-15)


def test_integrate_then_derivative_recovers_input():
    rng = np.random.default_rng(19)
    v = s(rng.uniform(-2, 2, 8))
    back = formal_derivative(integrate(v))
    assert back.coeffs[:-1] == v.coeffs[:-1]
    assert back.coeffs[-1] == 0.0  # top coefficient is lost by design


def test_rescale_argument():
    assert rescale_argument(s([1, 1, 0]), 3).coeffs == (1, 3, 0)
    v = s([0.3, -1.2, 2.2], t0=1.0)
    assert rescale_argument(v, 1) is v
    assert rescale_argument(s([1, 1, 1]), 0.5).coeffs == (1, 0.5, 0.25)
    with pytest.raises(NonzeroBasePointScaling):
        rescale_argument(s([1, 1], t0=2.0), 3)


def test_eval():
    v = s([0, 0, 0.5, 1 / 6, 1 / 24, 1 / 120], t0=1.0)
    assert v.eval(1.0) == 0.0
    # truncation error of the degree-5 jet of exp(t-1)-t at t=2
    err = abs(v.eval(2.0) - (math.e - 2.0))
    assert err == pytest.approx(1.6152e-3, abs=5e-8)
    c = constant(4.25, 0.7, 5)
    assert c.eval(-3.0) == 4.25


def test_table_rows_sin_cos_exponential():
    # sin(w t + b) about t0: coefficient i is w^i/i! * sin(w t0 + b + i pi/2)
    w, b, t0, n = 0.7, 0.3, 1.3, 8
    arg = add(scale(w, time_var(t0, n)), constant(b, t0, n))
    sn = elementary("sin", arg)
    cs = elementary("cos", arg)
    for i in range(n + 1):
        want_s = w**i / math.factorial(i) * math.sin(w * t0 + b + i * math.pi / 2)
        want_c = w**i / math.factorial(i) * math.cos(w * t0 + b + i * math.pi / 2)
        assert sn.coeffs[i] == pytest.approx(want_s, abs=1e-12)
        assert cs.coeffs[i] == pytest.approx(want_c, abs=1e-12)
    lam = -0.9
    ex = elementary("exp", scale(lam, time_var(t0, n)))
    for i in range(n + 1):
        want = lam**i / math.factorial(i) * math.exp(lam * t0)
        assert ex.coeffs[i] == pytest.approx(want, rel=1e-12)


def test_table_row_shifted_power():
    # (beta + t)^m by repeated multiplication: binomial coefficients
    beta, t0, n = 1.7, 0.4, 8
    base = add(constant(beta, t0, n), time_var(t0, n))
    for m in range(7):
        p = constant(1.0, t0, n)
        for _ in range(m):
            p = mul(p, base)
        for i in range(n + 1):
            want = math.comb(m, i) * (beta + t0) ** (m - i) if i <= m else 0.0
            assert p.coeffs[i] == pytest.approx(want, rel=1e-13, abs=1e-13)


def test_table_row_scaled_argument_with_derivative():
    # d/dt v(q t) has transform (i+1) q^(i+1) V(i+1)
    rng = np.random.default_rng(23)
    v = s(rng.uniform(-1, 1, 7))
    q = 0.5
    d = scale(q, rescale_argument(formal_derivative(v), q))
    for i in range(6):
        want = (i + 1) * q ** (i + 1) * v.coeffs[i + 1]
        assert d.coeffs[i] == pytest.approx(want, rel=1e-13, abs=1e-15)


def test_immutability():
    v = s([1, 2, 3])
    with pytest.raises(Exception):
        v.coeffs = (0,)
