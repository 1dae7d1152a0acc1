"""Rate functions: closed forms, convexity, zero sets, the printed h."""

import math
import sys

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from betaspectra.equilibria import (
    ARCSINE_01, ARCSINE_SYM, SC, EquilibriumLaw, Family, kmk_of_slopes, mp_edges,
)
from betaspectra.errors import ParameterError
from betaspectra.jacobi import JacobiCoeffs, VerblunskyCoeffs, ds_assemble
from betaspectra.rates import (
    _kmk_scale,
    beta_h,
    big_g,
    hermite_rate,
    jacobi_ensemble_rate,
    laguerre_rate,
    outlier_cost,
    rate_fg,
    rate_fj,
    rate_fl,
    small_g,
)
from betaspectra.sumrule import TailJacobiModel, _jost, measure_side_rate

INF = float("inf")


def test_rate_fg_values():
    assert rate_fg(1.5) == 0.0
    assert rate_fg(2.0) == 0.0
    assert rate_fg(-2.0) == 0.0
    direct, _ = quad(lambda t: math.sqrt(t * t - 4.0), 2.0, 3.0)
    assert rate_fg(3.0) == pytest.approx(direct, abs=1e-10)
    assert rate_fg(-3.0) == rate_fg(3.0)
    # monotone increasing outside the bulk
    xs = np.linspace(2.0, 6.0, 40)
    vals = [rate_fg(x) for x in xs]
    assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))


def test_rate_fl_values():
    a, b = mp_edges(0.5)
    assert rate_fl(0.5 * (a + b), 0.5) == 0.0
    assert rate_fl(-1.0, 0.5) == INF
    assert rate_fl(0.0, 0.5) == INF
    direct, _ = quad(lambda t: math.sqrt((t - a) * (t - b)) / t, b, b + 1.0)
    assert rate_fl(b + 1.0, 0.5) == pytest.approx(direct, abs=1e-10)
    lower, _ = quad(lambda t: math.sqrt((a - t) * (b - t)) / t, a / 2.0, a)
    assert rate_fl(a / 2.0, 0.5) == pytest.approx(lower, abs=1e-10)
    with pytest.raises(ParameterError):
        rate_fl(1.0, 1.5)


def test_rate_fj_values():
    assert rate_fj(0.5, 0.25, 0.75) == 0.0
    assert rate_fj(0.0, 0.25, 0.75) == INF
    assert rate_fj(1.0, 0.25, 0.75) == INF
    assert rate_fj(0.9, 0.25, 0.75) == pytest.approx(0.23438, abs=5e-6)
    with pytest.raises(ParameterError):
        rate_fj(0.5, 0.75, 0.25)


def test_outlier_costs_at_non_finite_thresholds():
    # the costs grow without bound; NaN is refused by name, not returned
    assert rate_fg(INF) == INF and rate_fg(-INF) == INF
    assert rate_fl(INF, 0.5) == INF and rate_fl(-INF, 0.5) == INF
    assert rate_fj(INF, 0.25, 0.75) == INF and rate_fj(-INF, 0.25, 0.75) == INF
    for call in (lambda: rate_fg(math.nan), lambda: rate_fl(math.nan, 0.5),
                 lambda: rate_fj(math.nan, 0.25, 0.75)):
        with pytest.raises(ParameterError, match="NaN"):
            call()


def _oracle(x, lo, hi, weight):
    """50-digit tanh-sinh quadrature of sqrt(|(t - lo)(t - hi)|) * weight(t)
    from the nearer edge of [lo, hi] to x."""
    with mpmath.workdps(50):
        lo, hi, x = mpmath.mpf(lo), mpmath.mpf(hi), mpmath.mpf(x)
        edge = hi if x > hi else lo
        val, err = mpmath.quad(
            lambda t: mpmath.sqrt(abs((t - lo) * (t - hi))) * weight(t),
            sorted([edge, x]), error=True,
        )
        assert err < mpmath.mpf(10) ** -25 * val
        return float(val)


FL_ORACLE_CASES = [
    # tau = 1: lower edge a = 0, upper leg only
    (4.0 + 1e-12, 1.0), (4.0 + 1e-8, 1.0), (4.5, 1.0), (50.0, 1.0),
    (mp_edges(0.5)[1] + 1e-12, 0.5), (mp_edges(0.5)[1] + 1e-8, 0.5),
    (mp_edges(0.5)[1] + 1.0, 0.5), (mp_edges(0.5)[1] + 1e4, 0.5),
    (mp_edges(0.5)[0] - 1e-12, 0.5), (mp_edges(0.5)[0] - 1e-8, 0.5),
    (mp_edges(0.5)[0] / 2.0, 0.5), (1e-6, 0.5), (1e-12, 0.5),
    (mp_edges(0.05)[1] + 1e-8, 0.05), (mp_edges(0.05)[0] - 1e-8, 0.05),
]

FJ_ORACLE_CASES = [
    (0.6 + 1e-12, 0.2, 0.6), (0.6 + 1e-8, 0.2, 0.6), (0.8, 0.2, 0.6),
    (1.0 - 1e-6, 0.2, 0.6), (1.0 - 1e-12, 0.2, 0.6),
    (0.2 - 1e-12, 0.2, 0.6), (0.2 - 1e-8, 0.2, 0.6), (0.1, 0.2, 0.6), (1e-12, 0.2, 0.6),
    # u_- = 0: upper leg only
    (0.5 + 1e-8, 0.0, 0.5), (0.9, 0.0, 0.5), (1.0 - 1e-12, 0.0, 0.5),
    # u_+ = 1: lower leg only
    (0.3 - 1e-8, 0.3, 1.0), (0.1, 0.3, 1.0), (1e-12, 0.3, 1.0),
    # narrow bulk
    (0.5005, 0.499, 0.5), (0.4985, 0.499, 0.5),
]


@pytest.mark.parametrize("x,tau", FL_ORACLE_CASES)
def test_rate_fl_mpmath_oracle(x, tau):
    a, b = mp_edges(tau)
    ref = _oracle(x, a, b, lambda t: 1 / t)
    assert rate_fl(x, tau) == pytest.approx(ref, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("x,u_minus,u_plus", FJ_ORACLE_CASES)
def test_rate_fj_mpmath_oracle(x, u_minus, u_plus):
    ref = _oracle(x, u_minus, u_plus, lambda t: 1 / (t * (1 - t)))
    assert rate_fj(x, u_minus, u_plus) == pytest.approx(ref, rel=1e-10, abs=0.0)


HUGE_X = [1e150, 1.3e154, 1.8e154, 1e200, 1e300]


def _as_double(val) -> float:
    """The double nearest an mpmath value, +inf past the largest double."""
    return INF if val > sys.float_info.max else float(val)


def _huge_oracles(x, tau):
    """F_G, F_L(tau) and G at x > 2, (1 + sqrt(tau))^2 from their closed
    antiderivatives in 60 digits."""
    with mpmath.workdps(60):
        x = mpmath.mpf(x)
        r = mpmath.sqrt(x * x - 4)
        fg = x / 2 * r - 2 * mpmath.log((x + r) / 2)
        a, b = (1 - mpmath.sqrt(tau)) ** 2, (1 + mpmath.sqrt(tau)) ** 2
        rab = mpmath.sqrt(a * b)

        def prim(t):  # an antiderivative of sqrt((t - a)(t - b))/t for t >= b
            q = mpmath.sqrt((t - a) * (t - b))
            return (q - (a + b) / 2 * mpmath.log(2 * q + 2 * t - (a + b))
                    - rab * mpmath.log(abs((2 * rab * q - (a + b) * t + 2 * a * b) / t)))

        g = x * x - 1 - 2 * mpmath.log(x)
        return _as_double(fg), _as_double(prim(x) - prim(b)), _as_double(g)


@pytest.mark.parametrize("x", HUGE_X)
def test_costs_at_huge_thresholds(x):
    # the finite value wherever it fits in a double, +inf beyond, never NaN
    fg, fl, g = _huge_oracles(x, 0.5)
    _, fl1, _ = _huge_oracles(x, 1.0)
    for got, ref in ((rate_fg(x), fg), (rate_fg(-x), fg), (rate_fl(x, 0.5), fl),
                     (rate_fl(x, 1.0), fl1), (big_g(x), g)):
        if ref == INF:
            assert got == INF
        else:
            assert got == pytest.approx(ref, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("x", [1e-150, 1.4e-154, 1.5e-154, 1e-160, 1e-170, 1e-200, 1e-250, 1e-300])
def test_big_g_where_the_square_underflows(x):
    # below about 1.5e-154, x^2 is subnormal or 0; G stays -1 - 2 log x
    mx = mpmath.mpf(x)
    with mpmath.workdps(40):
        ref = float(mx * mx - 1 - mpmath.log(mx * mx))
    assert big_g(x) == pytest.approx(ref, rel=1e-15, abs=0.0)


def test_g_at_infinity():
    assert small_g(INF) == INF and big_g(INF) == INF
    assert small_g(1e300) == pytest.approx(1e300, rel=1e-14)


def test_outlier_cost_dispatch():
    assert outlier_cost(SC, -2.7) == rate_fg(-2.7)
    assert outlier_cost(EquilibriumLaw(Family.MARCHENKO_PASTUR, tau=0.3), 2.5) == rate_fl(2.5, 0.3)
    # KMK: F_J times the law's normalising constant 2/(1 - sqrt(u_- u_+) -
    # sqrt((1 - u_-)(1 - u_+))). This corrects the unscaled rate_fj that this
    # test pinned before: the exact beta = 2 tail of the Jacobi ensemble (a
    # Gram determinant, fitted over N = 50..800) gives -log P/N -> 0.11471 at
    # kappa = (1, 0.5), u = 0.98664, against F_J = 0.03254 (ratio 3.525,
    # 2 + kappa1 + kappa2 = 3.5), and 0.49417 at kappa = (0.3, 2),
    # u = 0.86939, against F_J = 0.11486 (ratio 4.302); ROADMAP item 1
    kmk = EquilibriumLaw(Family.KESTEN_MCKAY, u_minus=0.2, u_plus=0.7)
    scale = 2.0 / (1.0 - math.sqrt(0.2 * 0.7) - math.sqrt(0.8 * 0.3))
    assert outlier_cost(kmk, 0.9) == pytest.approx(scale * rate_fj(0.9, 0.2, 0.7), rel=1e-15)
    for k1, k2, u, oracle in ((1.0, 0.5, 0.98664, 0.11471), (0.3, 2.0, 0.86939, 0.49417)):
        assert outlier_cost(kmk_of_slopes(k1, k2), u) == pytest.approx(oracle, rel=0.01)
    # the arcsine law is KMK(0, 1), whose constant is 2; on [-2, 2] through
    # s(y) = (y + 2)/4
    assert outlier_cost(ARCSINE_01, 0.5) == 0.0 and outlier_cost(ARCSINE_01, 1.2) == INF
    assert outlier_cost(ARCSINE_SYM, -1.9) == 0.0 and outlier_cost(ARCSINE_SYM, 2.1) == INF
    with pytest.raises(ParameterError, match="NaN"):
        outlier_cost(ARCSINE_SYM, math.nan)


@pytest.mark.parametrize("kappa", [(0.0, 0.0), (1.0, 0.5), (0.3, 2.0), (1.5, 0.0), (0.7, 1.3)])
def test_kmk_scale_is_two_plus_slopes(kappa):
    # the KMK normalising constant depends on the support alone, and on the
    # law of the slopes it is 2 + kappa1 + kappa2
    law = kmk_of_slopes(*kappa)
    assert _kmk_scale(law.u_minus, law.u_plus) == pytest.approx(2.0 + sum(kappa), rel=2e-15)


def test_small_big_g():
    assert small_g(1.0) == 0.0
    assert small_g(0.0) == INF
    assert small_g(-1.0) == INF
    assert big_g(1.0) == 0.0
    assert big_g(0.0) == INF
    assert big_g(2.0) == pytest.approx(3.0 - math.log(4.0), abs=1e-14)
    # strict convexity of g on a grid
    xs = np.linspace(0.1, 5.0, 50)
    vals = np.array([small_g(x) for x in xs])
    assert np.all(np.diff(vals, 2) > 0.0)


def test_beta_h_corrected_zero_and_convexity():
    for u, v in [(1.0, 1.0), (2.0, 1.0), (0.5, 1.7), (3.0, 0.2)]:
        qstar = (v - u) / (u + v)
        assert beta_h(u, v, qstar) == pytest.approx(0.0, abs=1e-12)
        qs = np.linspace(-0.99, 0.99, 199)
        vals = np.array([beta_h(u, v, q) for q in qs])
        assert np.min(vals) >= -1e-12
        assert np.all(np.diff(vals, 2) > 0.0)
    assert beta_h(1.0, 1.0, 1.0) == INF
    assert beta_h(1.0, 1.0, -1.0) == INF
    with pytest.raises(ParameterError):
        beta_h(0.0, 1.0, 0.0)


def test_beta_h_literal_example():
    # h_{2,1}(-1/3) = 0 in the corrected variant
    assert beta_h(2.0, 1.0, -1.0 / 3.0) == pytest.approx(0.0, abs=1e-10)


def _printed_h(u, v, q):
    # the source's display of h, in the package's sign convention
    return q * (v - u) - u * math.log1p(-q) - v * math.log1p(q)


def test_beta_h_variants_differ_by_affine():
    for u, v in [(1.5, 1.0), (2.0, 3.0)]:
        qs = np.linspace(-0.9, 0.9, 181)
        diff = np.array([_printed_h(u, v, q) - beta_h(u, v, q) for q in qs])
        assert np.max(np.abs(np.diff(diff, 2))) < 1e-12


def test_beta_h_equal_parameters_symmetric_log():
    # u = v reduces both h and the printed formula to -u log(1 - q^2)
    for q in (-0.5, 0.0, 0.3, 0.8):
        expect = -1.0 * math.log(1.0 - q * q)
        assert beta_h(1.0, 1.0, q) == pytest.approx(expect, abs=1e-13)
        assert _printed_h(1.0, 1.0, q) == pytest.approx(expect, abs=1e-13)


def test_hermite_rate():
    coeffs = JacobiCoeffs([0.0, 0.0], [1.0])
    assert hermite_rate(coeffs).value == 0.0
    coeffs = JacobiCoeffs([0.5], [])
    assert hermite_rate(coeffs).value == pytest.approx(0.125, abs=1e-15)
    coeffs = JacobiCoeffs([0.3, -0.2], [1.4])
    report = hermite_rate(coeffs)
    expect = 0.5 * 0.09 + 0.5 * 0.04 + big_g(1.4)
    assert report.value == pytest.approx(expect, abs=1e-14)
    assert len(report.terms) == 3
    assert not report.flags


def test_laguerre_rate_zero_at_limits():
    # d_k = 1, s_k = sqrt(tau) is the zero-cost configuration
    for tau in (1.0, 0.5, 0.25):
        d = np.ones(6)
        s = np.full(5, math.sqrt(tau))
        assert laguerre_rate(d, s, tau).value == pytest.approx(0.0, abs=1e-14)


def test_laguerre_rate_example():
    d = np.array([1.2, 1.0])
    s = np.array([1.0, 1.0])
    report = laguerre_rate(d, s, 1.0)
    assert report.value == pytest.approx(big_g(1.2), abs=1e-12)


def test_laguerre_tau1_identity_random():
    # at tau = 1 the rate equals b_0 - 1 + sum(b_k - 2) - 2 sum log a_k plus
    # the boundary term s_L^2 - 1, from the assembled Jacobi coefficients
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = rng.integers(2, 9)
        d = rng.uniform(0.3, 2.0, n)
        s = rng.uniform(0.3, 2.0, n)
        total = laguerre_rate(d, s, 1.0).value
        coeffs = ds_assemble(d, s)
        alt = (
            coeffs.b[0] - 1.0
            + float(np.sum(coeffs.b[1:n] - 2.0))
            + (s[-1] ** 2 - 1.0)
            - 2.0 * float(np.sum(np.log(coeffs.a)))
        )
        assert abs(alt - total) <= 1e-10 * (1.0 + abs(total))


def test_jacobi_ensemble_rate_zero_slopes():
    alpha = VerblunskyCoeffs(np.array([0.3, -0.2, 0.5]))
    expect = -float(np.sum(np.log(1.0 - alpha.alpha**2)))
    got = jacobi_ensemble_rate(alpha, 0.0, 0.0).value
    assert got == pytest.approx(expect, abs=1e-13)


def test_jacobi_ensemble_rate_structure():
    alpha = VerblunskyCoeffs(np.array([0.1, 0.2, 0.3]))
    k1, k2 = 0.7, 0.4
    report = jacobi_ensemble_rate(alpha, k1, k2)
    # even index (u, v) = (1 + kappa2, 1 + kappa1): the orientation whose
    # minimizer (kappa1 - kappa2)/(2 + kappa1 + kappa2) is the sampler's mean
    expect = (
        beta_h(1.0 + k2, 1.0 + k1, 0.1)
        + beta_h(1.0 + k1 + k2, 1.0, 0.2)
        + beta_h(1.0 + k2, 1.0 + k1, 0.3)
    )
    assert report.value == pytest.approx(expect, abs=1e-13)
    assert len(report.terms) == 3


def test_jacobi_ensemble_rate_outside_interval_and_nan():
    # |alpha_k| >= 1 is a sequence of zero probability: +inf, reported
    for bad in (1.0, -1.5, math.inf):
        report = jacobi_ensemble_rate([0.1, bad], 1.0, 0.5)
        assert report.value == math.inf and report.flags == ["infinite"]
    # a NaN is no sequence at all: it was reported as +inf too
    with pytest.raises(ParameterError, match="NaN"):
        jacobi_ensemble_rate([0.1, math.nan], 1.0, 0.5)


def test_jacobi_ensemble_rate_vanishes_at_limits():
    from betaspectra.sumrule import jacobi_limit_alphas

    for k1, k2 in ((1.0, 0.3), (0.3, 1.0), (0.7, 0.4), (1.5, 0.0)):
        even, odd = jacobi_limit_alphas(k1, k2)
        alpha = VerblunskyCoeffs(np.array([even if k % 2 == 0 else odd for k in range(9)]))
        assert jacobi_ensemble_rate(alpha, k1, k2).value == pytest.approx(0.0, abs=1e-13)


def test_jacobi_ensemble_rate_nonnegative_near_limits():
    from betaspectra.sumrule import jacobi_limit_alphas

    # the single-log form gave -1.2e-13 at (0.7, 1.3) and -8.0e-13 at (2, 5)
    rng = np.random.default_rng(31)
    kappas = [(0.7, 1.3), (2.0, 5.0)] + [tuple(rng.uniform(0.0, 6.0, 2)) for _ in range(30)]
    for k1, k2 in kappas:
        even, odd = jacobi_limit_alphas(k1, k2)
        limits = np.array([even if k % 2 == 0 else odd for k in range(599)])
        for shift in (0.0, 1e-15, -1e-15, 1e-9, -1e-9):
            report = jacobi_ensemble_rate(limits + shift, k1, k2)
            assert report.value >= 0.0
            assert all(t >= 0.0 for _, t in report.terms)


def _beta_h_single_log(u, v, q):
    uv = u + v
    return (u * math.log(u) + v * math.log(v) - uv * math.log(uv / 2.0)
            - u * math.log1p(-q) - v * math.log1p(q))


def test_beta_h_matches_single_log_form():
    rng = np.random.default_rng(32)
    for _ in range(2000):
        u, v = rng.uniform(0.05, 10.0, 2)
        q = rng.uniform(-0.999, 0.999)
        old = _beta_h_single_log(u, v, q)
        assert beta_h(u, v, q) == pytest.approx(old, abs=1e-12 * (1.0 + abs(old)))


def kullback_term(model, law):
    (label, value), *_ = measure_side_rate(model, law).terms
    assert label == "kullback"
    return value


def test_kullback():
    assert kullback_term(SC.model, SC) == pytest.approx(0.0, abs=1e-12)
    # K(SC | arcsine on [-2,2]) = int sc log(sc/arcsine) = 1 - log 2
    arc = EquilibriumLaw(Family.ARCSINE)
    assert kullback_term(arc.model, SC) == pytest.approx(1.0 - math.log(2.0), abs=1e-6)
    # a reference on another support is refused, not integrated
    mp = EquilibriumLaw(Family.MARCHENKO_PASTUR, tau=0.5)
    with pytest.raises(ParameterError):
        measure_side_rate(SC.model, mp)


NONNEGATIVE_LAWS = [
    SC,
    ARCSINE_SYM,
    ARCSINE_01,
    EquilibriumLaw(Family.MARCHENKO_PASTUR, tau=0.3),
    EquilibriumLaw(Family.MARCHENKO_PASTUR, tau=1.0),
    EquilibriumLaw(Family.KESTEN_MCKAY, u_minus=0.1, u_plus=0.95),
    EquilibriumLaw(Family.KESTEN_MCKAY, u_minus=0.25, u_plus=0.75),
]


def test_kullback_nonnegative():
    # the exact Jost-root sum K(law | nu) on each law's own tail: zero at
    # nu = law and never below rounding, also for heads within 1e-8..1e-2
    # of the law's own head, where K is of the order of the squared distance
    rng = np.random.default_rng(13)
    for law in NONNEGATIVE_LAWS:
        own = law.model
        assert _jost(own).kullback(law) == pytest.approx(0.0, abs=1e-15)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            b = own.b_inf + own.a_inf * rng.uniform(-1.5, 1.5, n)
            a = own.a_inf * rng.uniform(0.5, 1.8, n)
            model = TailJacobiModel(a_inf=own.a_inf, b_inf=own.b_inf, head=JacobiCoeffs(b, a))
            assert _jost(model).kullback(law) >= -1e-14
            n = int(rng.integers(1, 4))
            near = own.coefficients(n + 1)
            eps = own.a_inf * 10.0 ** rng.uniform(-8.0, -2.0)
            head = JacobiCoeffs(near.b[:n] + eps * rng.uniform(-1.0, 1.0, n),
                                near.a[:n] + eps * rng.uniform(-1.0, 1.0, n))
            model = TailJacobiModel(a_inf=own.a_inf, b_inf=own.b_inf, head=head)
            assert _jost(model).kullback(law) >= -1e-14
