"""Acceptance suite: eleven end-to-end criteria, one printed verdict each.

Each test prints a single pass/fail line (visible even under capture) and
then asserts, so a red run still shows which criterion broke.
"""

import math
import time

import numpy as np
from scipy.optimize import minimize_scalar

from betaspectra.ensembles import EnsembleSpec, Kind
from betaspectra.equilibria import ARCSINE_SYM, SC, sigma_pm, u_pm
from betaspectra.jacobi import (
    DiscreteMeasure,
    JacobiCoeffs,
    VerblunskyCoeffs,
    ds_assemble,
    ds_factorize,
    geronimus,
    jacobi_moments,
    measure_to_jacobi,
    spectral_decompose,
)
from betaspectra.moments_opt import (
    MomentConstraint,
    constrained_rate_dual,
    constrained_rate_primal,
    moments_to_jacobi,
)
from betaspectra.montecarlo import McExperiment, mc_tail_rate, stat_suite
from betaspectra.rates import (
    beta_h,
    hermite_rate,
    jacobi_ensemble_rate,
    laguerre_rate,
    rate_fg,
    small_g,
)
from betaspectra.sumrule import (
    TailJacobiModel,
    conjecture_probe_jacobi,
    conjecture_probe_laguerre,
    measure_side_rate,
    outliers,
    sumrule_verify,
)


def verdict(capsys, num, name, ok):
    with capsys.disabled():
        print(f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def head_model(b, a):
    return TailJacobiModel(head=JacobiCoeffs(np.asarray(b, float), np.asarray(a, float)))


def test_criterion_1_sumrule_random_heads(capsys):
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        nb = int(rng.integers(0, 6))
        na = int(rng.integers(0, 6))
        model = head_model(rng.uniform(-1.5, 1.5, nb), rng.uniform(0.5, 1.8, na))
        report = sumrule_verify(model)
        rel = abs(report.gap) / (1.0 + abs(report.jacobi_side))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    verdict(capsys, 1, "sum rule on 100 random heads",
            worst < 1e-6 and elapsed < 60.0)


def test_criterion_2_golden_triangle(capsys):
    golden = 1.0 - math.log(2.0)
    via_coeffs = hermite_rate(JacobiCoeffs(np.zeros(1), np.array([math.sqrt(2.0)]))).value
    # K(SC | arcsine): the Kullback term of the arcsine law's own model against SC
    (label, via_kullback), *_ = measure_side_rate(ARCSINE_SYM.model, SC).terms
    ok = (
        label == "kullback"
        and abs(via_coeffs - golden) < 1e-8
        and abs(via_kullback - golden) < 1e-8
        and abs(via_coeffs - via_kullback) < 1e-8
    )
    verdict(capsys, 2, "golden value 1 - ln 2 three ways", ok)


def test_criterion_3_outlier_closed_forms(capsys):
    ok = True
    for eps in (1.25, 2.0):
        model = head_model([eps], [])
        (e, _), = outliers(model)
        ok &= abs(e - (eps + 1.0 / eps)) < 1e-10
        trunc = spectral_decompose(model.coefficients(2000))
        ok &= abs(trunc.locations[-1] - (eps + 1.0 / eps)) < 1e-6
    a0 = 1.6
    model = head_model([], [a0])
    outs = outliers(model)
    expect = a0**2 / math.sqrt(a0**2 - 1.0)
    ok &= len(outs) == 2
    ok &= abs(outs[0][0] + expect) < 1e-10 and abs(outs[1][0] - expect) < 1e-10
    trunc = spectral_decompose(model.coefficients(2000))
    ok &= abs(trunc.locations[-1] - expect) < 1e-6
    ok &= abs(trunc.locations[0] + expect) < 1e-6
    verdict(capsys, 3, "outlier closed forms", ok)


def test_criterion_4_moment_identities(capsys):
    rng = np.random.default_rng(104)
    ok = True
    for _ in range(50):
        coeffs = JacobiCoeffs(rng.uniform(-1, 1, 12), rng.uniform(0.3, 1.6, 11))
        for j in (2, 4, 6):
            small = jacobi_moments(coeffs, j, 2 * j - 1)
            big = jacobi_moments(coeffs, 12, 2 * j - 1)
            ok &= bool(np.max(np.abs(small - big)) < 1e-12)
    free = JacobiCoeffs(np.zeros(9), np.ones(8))
    m = jacobi_moments(free, 9, 8)
    ok &= list(m[1::2]) == [1.0, 2.0, 5.0, 14.0]
    ok &= list(m[0::2]) == [0.0, 0.0, 0.0, 0.0]
    verdict(capsys, 4, "section moment identity and Catalan values", ok)


def test_criterion_5_round_trips(capsys):
    ok = True
    rng = np.random.default_rng(105)
    loc = np.sort(rng.uniform(-2, 2, 10))
    w = rng.uniform(0.2, 1.0, 10)
    w /= w.sum()
    mu = DiscreteMeasure(loc, w)
    back = spectral_decompose(measure_to_jacobi(mu))
    ok &= bool(np.max(np.abs(back.locations - mu.locations)) < 1e-8)
    ok &= bool(np.max(np.abs(back.weights - mu.weights)) < 1e-8)

    coeffs = geronimus(VerblunskyCoeffs(np.zeros(13)), 7)
    expect_a = np.array([math.sqrt(2.0)] + [1.0] * 5)
    ok &= bool(np.max(np.abs(coeffs.b)) < 1e-12)
    ok &= bool(np.max(np.abs(coeffs.a - expect_a)) < 1e-12)

    d = rng.uniform(0.3, 1.5, 8)
    s = rng.uniform(0.3, 1.5, 7)
    d2, s2 = ds_factorize(ds_assemble(d, s))
    ok &= bool(np.max(np.abs(d2 - d)) < 1e-12 and np.max(np.abs(s2 - s)) < 1e-12)

    # u_pm is invariant under (x, y) -> (1-x, 1-y); sigma_pm returns the
    # branch with sigma_- + sigma_+ >= 1, so accept either representative
    for x, y in [(0.2, 0.7), (0.45, 0.56), (0.8, 0.15)]:
        um, up = u_pm(x, y)
        bx, by = sigma_pm(um, up)
        direct = (min(x, y), max(x, y))
        mirror = (1.0 - max(x, y), 1.0 - min(x, y))
        ok &= any(
            abs(bx - lo) < 1e-12 and abs(by - hi) < 1e-12
            for lo, hi in (direct, mirror)
        )
        # and sigma_pm -> u_pm closes exactly
        ok &= all(abs(g - w) < 1e-12 for g, w in zip(u_pm(bx, by), (um, up)))
    verdict(capsys, 5, "round trips", ok)


def _beta_h_oracle(u, v, q):
    # contraction of the two gamma rates along (y - x)/(x + y) = q
    def f(t):
        return u * small_g(t * (1.0 - q) / (2.0 * u)) + v * small_g(t * (1.0 + q) / (2.0 * v))

    res = minimize_scalar(f, bounds=(1e-8, 50.0 * (u + v)), method="bounded",
                          options={"xatol": 1e-12})
    return res.fun


def test_criterion_6_corrected_coordinate_rate(capsys):
    ok = True
    qs = np.linspace(-0.99, 0.99, 101)
    for u, v in [(1.0, 1.0), (2.0, 1.0), (0.7, 1.8)]:
        for q in qs:
            ok &= abs(beta_h(u, v, float(q)) - _beta_h_oracle(u, v, float(q))) < 1e-8
    ok &= abs(beta_h(2.0, 1.0, -1.0 / 3.0)) < 1e-10
    alpha = VerblunskyCoeffs(np.array([0.4, -0.25, 0.6, 0.0]))
    expect = 0.0
    for al in alpha.alpha:
        expect += -(math.log1p(-al) + math.log1p(al))
    ok &= jacobi_ensemble_rate(alpha, 0.0, 0.0).value == expect
    verdict(capsys, 6, "corrected symmetric-beta rate vs contraction oracle", ok)


def test_criterion_7_laguerre_tau1_identity(capsys):
    rng = np.random.default_rng(107)
    ok = True
    for _ in range(50):
        n = int(rng.integers(2, 10))
        d = rng.uniform(0.3, 2.0, n)
        s = rng.uniform(0.3, 2.0, n)
        direct = laguerre_rate(d, s, 1.0).value
        coeffs = ds_assemble(d, s)
        alt = (
            coeffs.b[0] - 1.0
            + float(np.sum(coeffs.b[1:n] - 2.0))
            + (s[-1] ** 2 - 1.0)
            - 2.0 * float(np.sum(np.log(coeffs.a)))
        )
        ok &= abs(direct - alt) < 1e-10 * (1.0 + abs(direct))
    verdict(capsys, 7, "Laguerre rate identity at tau = 1", ok)


def test_criterion_8_primal_dual(capsys):
    ok = True
    free = MomentConstraint(np.array([0.0, 1.0, 0.0]))
    ok &= constrained_rate_primal(free) == 0.0
    ok &= abs(constrained_rate_dual(free).value) < 1e-8

    rng = np.random.default_rng(108)
    count = 0
    while count < 20:
        level = 2 if count % 2 == 0 else 3
        base = np.zeros(2 * level - 1)
        base[1::2] = [1.0, 2.0][: level - 1]  # leading SC moments
        c_try = base + rng.uniform(-0.1, 0.1, len(base))
        try:
            coeffs = moments_to_jacobi(MomentConstraint(c_try))
        except Exception:
            continue
        if outliers(TailJacobiModel(head=coeffs)):
            continue
        c = MomentConstraint(c_try)
        gap = abs(constrained_rate_primal(c) - constrained_rate_dual(c).value)
        ok &= gap < 1e-4
        count += 1
    verdict(capsys, 8, "primal-dual gap on interior constraints", ok)


def test_criterion_9_mc_ldp_trend(capsys):
    start = time.perf_counter()
    spec = EnsembleSpec(kind=Kind.HERMITE, n=2, beta=2.0)
    exp = McExperiment(spec=spec, x=2.2, n_list=(20, 40, 80), samples=100000, seed=42)
    res = mc_tail_rate(exp)
    theory = rate_fg(2.2)
    errs = [abs(r.rate_hat - theory) for r in res.rows]
    final = res.rows[-1].rate_hat
    ok = (
        abs(final - theory) <= 0.40 * theory
        and all(e2 <= e1 + 1e-12 for e1, e2 in zip(errs, errs[1:]))
        and time.perf_counter() - start < 600.0
    )
    verdict(capsys, 9, "Monte Carlo rate trend at x = 2.2", ok)


def test_criterion_10_distributional_checks(capsys):
    hermite = EnsembleSpec(kind=Kind.HERMITE, n=40, beta=2.0)
    laguerre = EnsembleSpec(kind=Kind.LAGUERRE, n=40, beta=2.0, m=40)
    ok = stat_suite(hermite, seed=42).all_passed
    ok &= stat_suite(laguerre, seed=42).all_passed
    control = stat_suite(hermite, seed=42, wrong_marginal=True)
    ok &= not control.all_passed
    verdict(capsys, 10, "sampler distributional checks", ok)


def test_criterion_11_conjecture_probes(capsys):
    ok = True
    tau = 0.6
    mp_model = TailJacobiModel(
        a_inf=math.sqrt(tau), b_inf=1.0 + tau,
        head=JacobiCoeffs(np.array([1.0]), np.empty(0)),
    )
    rep = conjecture_probe_laguerre(mp_model, tau)
    ok &= rep.label == "CONJECTURE" and abs(rep.gap) < 1e-8
    for k1, k2 in ((0.0, 0.0), (1.0, 0.0), (0.7, 1.3)):
        rep = conjecture_probe_jacobi(np.empty(0), k1, k2)
        ok &= rep.label == "CONJECTURE" and abs(rep.gap) < 1e-8
    # a perturbed probe still reports a finite gap, labeled, with no verdict
    rep = conjecture_probe_jacobi(np.array([0.3]), 0.5, 0.0)
    ok &= rep.label == "CONJECTURE" and math.isfinite(rep.gap)
    ok &= not hasattr(rep, "passed")
    verdict(capsys, 11, "conjecture probes at the minimizers", ok)
