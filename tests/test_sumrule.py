"""Constant-tail Jacobi models: transform, spectral decomposition,
sum-rule identity and the conjectured analogues."""

import ast
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

from betaspectra.equilibria import (
    ARCSINE_01,
    ARCSINE_SYM,
    SC,
    EquilibriumLaw,
    Family,
    kmk_of_slopes,
    u_pm,
)
from betaspectra.errors import (
    BetaSpectraError,
    DomainError,
    InvalidMatrixError,
    NotPositiveDefiniteError,
    ParameterError,
    RangeError,
)
from betaspectra.jacobi import (
    JacobiCoeffs,
    VerblunskyCoeffs,
    ds_factorize,
    geronimus,
    spectral_decompose,
)
from betaspectra.rates import (
    big_g,
    hermite_rate,
    jacobi_ensemble_rate,
    laguerre_rate,
    outlier_cost,
)
from betaspectra import sumrule as sumrule_module
from betaspectra.sumrule import (
    JOST_EDGE_DELTA,
    TailJacobiModel,
    _jost,
    ac_density,
    conjecture_probe_jacobi,
    conjecture_probe_laguerre,
    jacobi_limit_alphas,
    m_function,
    measure_side_rate,
    outliers,
    sumrule_verify,
)

FREE = TailJacobiModel()


def head(b, a):
    return TailJacobiModel(head=JacobiCoeffs(np.asarray(b, float), np.asarray(a, float)))


def test_model_basics():
    model = head([0.5], [])
    assert model.bulk == (-2.0, 2.0)
    assert model.b_at(0) == 0.5
    assert model.b_at(3) == 0.0
    assert model.a_at(0) == 1.0
    trunc = model.coefficients(4)
    assert trunc.b == pytest.approx([0.5, 0.0, 0.0, 0.0])
    assert trunc.a == pytest.approx([1.0, 1.0, 1.0])
    with pytest.raises(ParameterError):
        TailJacobiModel(a_inf=0.0)
    back = TailJacobiModel.from_json(model.to_json())
    assert back.bulk == model.bulk
    assert np.array_equal(back.head.b, model.head.b)


def test_m_function_free_closed_form():
    z = complex(0.4, 1.3)
    m = m_function(FREE, z)
    # fixed point of the free recursion
    assert abs(m - 1.0 / (-z - m)) < 1e-13
    assert m.imag > 0.0
    x = 3.0
    assert m_function(FREE, x) == pytest.approx((-3.0 + math.sqrt(5.0)) / 2.0, abs=1e-14)
    with pytest.raises(DomainError):
        m_function(FREE, 1.5)


def test_m_function_vectorised_over_real_and_complex_z():
    # a real array gives the real values of its points one at a time
    m = m_function(FREE, np.array([3.0, 4.0]))
    assert m.dtype == float
    assert m.tolist() == [m_function(FREE, 3.0), m_function(FREE, 4.0)]
    # a real point of the bulk is refused inside an array as it is alone
    with pytest.raises(DomainError):
        m_function(FREE, np.array([1.5 + 0j, 1j]))


def test_m_function_matches_truncation():
    rng = np.random.default_rng(14)
    model = head(rng.uniform(-0.5, 0.5, 3), rng.uniform(0.6, 1.4, 2))
    big = model.coefficients(4000)
    diag = big.b
    off = big.a
    for z in (complex(0.3, 0.9), complex(-1.0, 0.4), 2.7, -2.5):
        zc = complex(z)
        # resolvent (1,1) entry by the same continued fraction on the
        # truncated matrix, run from the far end
        m = 0.0
        for bj, aj in zip(diag[::-1], np.concatenate([[0.0], off[::-1]])):
            m = 1.0 / (bj - zc - aj**2 * m)
        got = m_function(model, z)
        assert abs(complex(got) - m) < 1e-8


def test_ac_density_free_is_semicircle():
    xs = np.linspace(-1.9, 1.9, 21)
    expect = np.sqrt(4.0 - xs * xs) / (2.0 * math.pi)
    assert ac_density(FREE, xs) == pytest.approx(expect, abs=1e-13)
    with pytest.raises(DomainError):
        ac_density(FREE, 2.5)


def test_outlier_single_diagonal_bump():
    # head b_0 = t > 1 creates one eigenvalue at t + 1/t with mass 1 - 1/t^2
    for t in (1.25, 2.0, 5.0):
        model = head([t], [])
        outs = outliers(model)
        assert len(outs) == 1
        e, mass = outs[0]
        assert e == pytest.approx(t + 1.0 / t, abs=1e-14)
        assert mass == pytest.approx(1.0 - 1.0 / t**2, abs=1e-15)


def test_outlier_single_offdiagonal_bump():
    # head a_0 = s > sqrt(2) creates a symmetric pair at +-s^2/sqrt(s^2-1)
    model = head([], [1.6])
    outs = outliers(model)
    assert len(outs) == 2
    expect = 1.6**2 / math.sqrt(1.6**2 - 1.0)
    assert outs[0][0] == pytest.approx(-expect, abs=1e-10)
    assert outs[1][0] == pytest.approx(expect, abs=1e-10)
    assert outs[0][1] == pytest.approx(outs[1][1], abs=1e-9)
    # below the threshold there are none
    assert outliers(head([], [1.2])) == []


def test_outliers_match_truncation_eigenvalues():
    rng = np.random.default_rng(15)
    model = head(rng.uniform(-1.2, 1.2, 4), rng.uniform(0.5, 1.8, 3))
    outs = outliers(model)
    trunc = spectral_decompose(model.coefficients(2000))
    delta = 1e-3
    lam_out = trunc.locations[(trunc.locations > 2.0 + delta) | (trunc.locations < -2.0 - delta)]
    mine = [e for e, _ in outs if abs(e) > 2.0 + delta]
    assert len(mine) == len(lam_out)
    for e, le in zip(sorted(mine), np.sort(lam_out)):
        assert e == pytest.approx(le, abs=1e-5)


# A head from the wide-range long-head generator (b in +-1.5, a in [0.5,
# 1.8], L = 35, rounded to 4 digits) with a pair of outliers 1e-4 apart near
# 2.6517: a sign-change scan of the secular function steps over both.
CLOSE_PAIR_B = [
    -1.0182, 0.386, -1.3025, -0.1451, -1.2049, -1.2706, 1.0734, -1.2654, 0.5168, 0.1374,
    -0.9831, 0.3949, -1.144, 0.7011, -0.7611, 0.7961, -1.115, 1.2477, -0.3045, -0.2087,
    1.3503, -1.1425, 1.2737, -1.1047, -0.9318, 0.1669, 0.5862, 1.2093, 0.9185, 0.5353,
    0.2935, 0.9303, -0.3673, -1.0487, 0.677,
]
CLOSE_PAIR_A = [
    1.3442, 1.3004, 1.4961, 1.0658, 0.9157, 1.2474, 1.6974, 1.6093, 0.8727, 0.5005,
    0.7712, 1.3301, 1.2139, 0.5608, 0.6774, 0.7381, 1.4987, 0.6558, 1.2934, 1.5067,
    0.9337, 0.6283, 0.5187, 1.2863, 0.9888, 0.5856, 1.7734, 1.1215, 1.5547, 1.7684,
    1.3011, 1.0619, 1.4528, 0.8499, 1.5652,
]


def outlier_mismatches(model, found, margin=1e-3, tol=1e-8):
    """Outliers farther than margin from the bulk against the eigenvalues of
    the (head + 400) truncation, both ways."""
    coeffs = model.coefficients(model.head_len + 400)
    ev = eigvalsh_tridiagonal(coeffs.b, coeffs.a)
    lib = np.array([e for e, _ in found])
    far = lambda xs: xs[np.abs(xs) > 2.0 + margin]
    bad = [e for e in far(lib) if np.min(np.abs(ev - e)) > tol * abs(e)]
    bad += [e for e in far(ev) if lib.size == 0 or np.min(np.abs(lib - e)) > tol * abs(e)]
    return bad


def test_outliers_close_pair():
    model = head(CLOSE_PAIR_B, CLOSE_PAIR_A)
    outs = outliers(model)
    assert outlier_mismatches(model, outs) == []
    pair = [e for e, _ in outs if 2.6516 < e < 2.6519]
    assert len(pair) == 2 and pair[1] - pair[0] == pytest.approx(1.03e-4, rel=1e-2)
    # masses are the first-row weights of the truncation's eigenvectors
    coeffs = model.coefficients(model.head_len + 600)
    ev, vec = eigh_tridiagonal(coeffs.b, coeffs.a)
    for e, mass in outs:
        assert mass == pytest.approx(vec[0, np.argmin(np.abs(ev - e))] ** 2, abs=1e-12)
    report = sumrule_verify(model)
    assert abs(report.gap) < 1e-12 * (1.0 + report.jacobi_side)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    nb=st.integers(0, 100),
    na=st.integers(0, 100),
    data=st.data(),
)
def test_sumrule_exact_on_random_heads(nb, na, data):
    coord = lambda lo, hi: st.floats(lo, hi, allow_nan=False, allow_infinity=False)
    b = data.draw(st.lists(coord(-1.5, 1.5), min_size=nb, max_size=nb))
    a = data.draw(st.lists(coord(0.5, 1.8), min_size=na, max_size=na))
    model = head(b, a)
    report = sumrule_verify(model)
    assert abs(report.gap) <= 1e-10 * (1.0 + abs(report.jacobi_side))
    assert outlier_mismatches(model, report.outlier_list) == []


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    nb=st.integers(1, 100),
    na=st.integers(0, 100),
    data=st.data(),
)
def test_outlier_masses_match_truncation(nb, na, data):
    # the first-row weights of the (head + 600) truncation's eigenvectors; an
    # outlier 1e-3 past the edge has |w| > 1.03, so its tail past 600 rows
    # is below 1e-16
    coord = lambda lo, hi: st.floats(lo, hi, allow_nan=False, allow_infinity=False)
    b = data.draw(st.lists(coord(-1.5, 1.5), min_size=nb, max_size=nb))
    a = data.draw(st.lists(coord(0.5, 1.8), min_size=na, max_size=na))
    model = head(b, a)
    coeffs = model.coefficients(model.head_len + 600)
    ev, vec = eigh_tridiagonal(coeffs.b, coeffs.a)
    for e, mass in outliers(model):
        if abs(e) > 2.0 + 1e-3:
            assert mass == pytest.approx(vec[0, np.argmin(np.abs(ev - e))] ** 2, abs=1e-11)


def eigenvector_outliers(model):
    """Outliers and masses from the eigenvectors of the 2K x 2K companion
    matrix of `sumrule._jost`: the head of each outlier's eigenvector is
    the top half of the companion eigenvector, plus the geometric tail."""
    k = model.head_len
    b = (np.array([model.b_at(j) for j in range(k)]) - model.b_inf) / model.a_inf
    a = np.array([model.a_at(j) for j in range(k)]) / model.a_inf
    comp = np.zeros((2 * k, 2 * k))
    comp[:k, k:] = np.eye(k)
    comp[k:, :k] = -np.eye(k)
    comp[-1, k - 1] += a[-1] ** 2
    comp[k:, k:] = np.diag(b) + np.diag(a[:-1], 1) + np.diag(a[:-1], -1)
    w, vecs = np.linalg.eig(comp)
    bound = (w.imag == 0.0) & (np.abs(w) > 1.0 + JOST_EDGE_DELTA)
    wr = w[bound].real
    v = vecs[:k, bound].real
    tail = (a[-1] * v[-1] / wr) ** 2 / (1.0 - wr**-2.0)
    mass = v[0] ** 2 / (np.sum(v * v, axis=0) + tail)
    energy = model.b_inf + model.a_inf * (wr + 1.0 / wr)
    return sorted(zip(energy.tolist(), mass.tolist()))


def test_twisted_masses_match_eigenvectors():
    rng = np.random.default_rng(11)
    count = 0
    for _ in range(60):
        n = int(rng.integers(1, 120))
        model = head(rng.uniform(-1.5, 1.5, n), rng.uniform(0.5, 1.8, int(rng.integers(0, n + 1))))
        got, expect = outliers(model), eigenvector_outliers(model)
        assert len(got) == len(expect)
        for (e, mass), (e_ref, mass_ref) in zip(got, expect):
            assert e == pytest.approx(e_ref, rel=1e-13)
            assert mass == pytest.approx(mass_ref, abs=1e-11)
        count += len(got)
    assert count > 500


def twisted_mass_50(b, a, energy):
    """Mass of the outlier near `energy` of the free-tail head (b, a), all
    in 50 digits: the Jost root w refined as a zero of the determinant of
    the section minus E = w + 1/w with the tail's a_{K-1}^2/w added to its
    last entry, then the twisted factorisation of `sumrule._outlier_mass`."""
    with mpmath.workdps(50):
        b, a = [mpmath.mpf(x) for x in b], [mpmath.mpf(x) for x in a]
        k = len(b)

        def diagonal(w):
            return [b[i] - w - 1 / w + (a[-1] ** 2 / w if i == k - 1 else 0) for i in range(k)]

        def det(w):
            # the three-term recurrence of the tridiagonal determinant
            diag = diagonal(w)
            prev, cur = 1, diag[0]
            for i in range(1, k):
                prev, cur = cur, diag[i] * cur - a[i - 1] ** 2 * prev
            return cur

        e = mpmath.mpf(energy)
        w = mpmath.findroot(det, (e + mpmath.sqrt(e * e - 4)) / 2)
        diag = diagonal(w)
        d, p = diag[:], diag[:]
        for i in range(1, k):
            d[i] -= a[i - 1] ** 2 / d[i - 1]
        for i in range(k - 2, -1, -1):
            p[i] -= a[i] ** 2 / p[i + 1]
        r = min(range(k), key=lambda i: abs(d[i] + p[i] - diag[i]))
        u = [mpmath.mpf(0)] * k
        u[r] = 1
        for i in range(r - 1, -1, -1):
            u[i] = -a[i] * u[i + 1] / d[i]
        for i in range(r + 1, k):
            u[i] = -a[i - 1] * u[i - 1] / p[i]
        tail = (a[-1] * u[-1] / w) ** 2 / (1 - w**-2)
        return u[0] ** 2 / (mpmath.fsum(x * x for x in u) + tail)


@pytest.mark.parametrize("k", [2, 4, 6, 8])
def test_tiny_outlier_masses_to_relative_precision(k):
    # a_0 = 1e-k decouples b_0 from the outlier near 5.2: its mass is about
    # 3.55e-(2k + 2), which an absolute bound of 1e-11 cannot see
    (e, mass), = outliers(head([0.0, 5.0, 0.0], [10.0**-k, 1.0, 1.0]))
    expect = twisted_mass_50([0.0, 5.0, 0.0], [10.0**-k, 1.0, 1.0], e)
    assert mass == pytest.approx(float(expect), rel=1e-12)
    assert float(expect) == pytest.approx(3.55 * 10.0 ** -(2 * k + 2), rel=0.01)


def test_sumrule_forms_no_eigenvector():
    with open(sumrule_module.__file__) as fh:
        tree = ast.parse(fh.read())
    attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "eig" not in attrs and "eigh" not in attrs


def test_edge_resonance_is_flagged_not_counted():
    # b_0 = t puts a Jost root at w = t: an eigenvalue t + 1/t at distance
    # (t - 1)^2 / t from the edge. Within JOST_EDGE_DELTA of the circle it is
    # reported as an edge resonance instead of an outlier.
    near = head([1.0 + 1e-8], [])
    assert outliers(near) == []
    (flag,) = measure_side_rate(near, SC).flags
    assert flag.startswith("edge resonance at 2:")
    far = head([1.0 + 1e-5], [])
    assert len(outliers(far)) == 1
    assert measure_side_rate(far, SC).flags == []
    # a_0 = sqrt(2): threshold resonances at w = +-1, never outliers
    assert outliers(head([], [math.sqrt(2.0)])) == []


def test_decompose_total_mass():
    # a.c. mass on an 8192-node Gauss-Chebyshev rule (Lebesgue weights
    # (pi/n) * 2 sin(theta) on [-2, 2]) plus the outlier masses is 1
    n = 8192
    theta = (2.0 * np.arange(1, n + 1) - 1.0) * math.pi / (2.0 * n)
    nodes, weights = 2.0 * np.cos(theta), (math.pi / n) * 2.0 * np.sin(theta)
    rng = np.random.default_rng(16)
    for _ in range(5):
        model = head(rng.uniform(-1.0, 1.0, 3), rng.uniform(0.5, 1.6, 3))
        outs = outliers(model)
        ac_mass = float(np.dot(weights, ac_density(model, nodes)))
        assert ac_mass + sum(m for _, m in outs) == pytest.approx(1.0, abs=1e-8)
        assert all(abs(e) > 2.0 for e, _ in outs)


def test_sumrule_examples():
    # single diagonal entry 0.3: both sides equal 0.3^2/2 = 0.045
    report = sumrule_verify(head([0.3], []))
    assert report.jacobi_side == pytest.approx(0.045, abs=1e-15)
    assert report.measure_side == pytest.approx(0.045, abs=1e-8)
    assert abs(report.gap) < 1e-8
    assert report.outlier_list == []

    # b_0 = 1.25: coefficient side 0.78125, one outlier at 2.05 with mass 0.36
    report = sumrule_verify(head([1.25], []))
    assert report.jacobi_side == pytest.approx(0.78125, abs=1e-15)
    assert abs(report.gap) < 1e-8
    (e, mass), = report.outlier_list
    assert e == pytest.approx(2.05, abs=1e-10)
    assert mass == pytest.approx(0.36, rel=1e-7)

    # a_0 = sqrt(2): no outliers, both sides equal 1 - log 2
    report = sumrule_verify(head([], [math.sqrt(2.0)]))
    assert report.jacobi_side == pytest.approx(1.0 - math.log(2.0), abs=1e-14)
    assert abs(report.gap) < 1e-7
    assert report.outlier_list == []


def test_sumrule_random_heads():
    rng = np.random.default_rng(17)
    for _ in range(10):
        model = head(rng.uniform(-1.0, 1.0, 3), rng.uniform(0.5, 1.7, 2))
        report = sumrule_verify(model)
        assert abs(report.gap) < 1e-6 * (1.0 + abs(report.jacobi_side))


def test_sumrule_requires_free_tail():
    with pytest.raises(ParameterError):
        sumrule_verify(TailJacobiModel(a_inf=0.5))


# Each entry point against its reference's tail (a_inf, b_inf), moved by an
# offset in one coordinate: 1e-9 is refused and 1e-13 accepted (tolerance
# 1e-12, absolute). The Jacobi probe builds its model from the Geronimus
# relations, so there the reference KMK law is moved instead, by the same
# offset in b_inf = (u_- + u_+)/2 or in a_inf = (u_+ - u_-)/4.
def _moved_tail(a_inf, b_inf, coordinate, offset):
    return (a_inf + offset, b_inf) if coordinate == "a" else (a_inf, b_inf + offset)


def _free_head(a_inf, b_inf):
    return TailJacobiModel(a_inf=a_inf, b_inf=b_inf,
                           head=JacobiCoeffs(np.array([b_inf + 2.5]), np.array([0.8])))


def _mp_head(a_inf, b_inf):
    return TailJacobiModel(a_inf=a_inf, b_inf=b_inf,
                           head=JacobiCoeffs(np.array([b_inf + 2.0]), np.array([0.6])))


def _jacobi_probe_with_moved_law(coordinate, offset, monkeypatch):
    law = kmk_of_slopes(1.0, 0.5)
    um, up = law.u_minus, law.u_plus
    moved = (um, up + 4.0 * offset) if coordinate == "a" else (um + offset, up + offset)
    monkeypatch.setattr(sumrule_module, "kmk_of_slopes",
                        lambda k1, k2: EquilibriumLaw(Family.KESTEN_MCKAY, u_minus=moved[0],
                                                      u_plus=moved[1]))
    return conjecture_probe_jacobi([0.9, -0.5], 1.0, 0.5)


TAIL_RULE_CALLS = {
    "sumrule_verify": lambda c, off, _: sumrule_verify(_free_head(*_moved_tail(1.0, 0.0, c, off))),
    "measure_side_rate": lambda c, off, _: measure_side_rate(
        _free_head(*_moved_tail(1.0, 0.0, c, off)), SC),
    "laguerre_probe": lambda c, off, _: conjecture_probe_laguerre(
        _mp_head(*_moved_tail(math.sqrt(0.5), 1.5, c, off)), 0.5),
    "jacobi_probe": _jacobi_probe_with_moved_law,
}


@pytest.mark.parametrize("call", TAIL_RULE_CALLS)
@pytest.mark.parametrize("coordinate", ["a", "b"])
def test_tail_rule_on_every_entry_point(call, coordinate, monkeypatch):
    for offset in (1e-9, -1e-9):
        with pytest.raises(ParameterError, match="more than 1e-12 from the"):
            TAIL_RULE_CALLS[call](coordinate, offset, monkeypatch)
    exact = TAIL_RULE_CALLS[call](coordinate, 0.0, monkeypatch)
    for offset in (1e-13, -1e-13):
        near = TAIL_RULE_CALLS[call](coordinate, offset, monkeypatch)
        if call == "measure_side_rate":
            assert near.value == pytest.approx(exact.value, abs=1e-11)
        else:
            assert near.gap == pytest.approx(exact.gap, abs=1e-11)


def _floats_of(report):
    """Every number of a report: values, term values, gaps, outlier energies
    and masses, sides."""
    if hasattr(report, "outlier_list"):  # SumRuleReport
        return [report.jacobi_side, report.measure_side, report.gap,
                *(x for pair in report.outlier_list for x in pair)]
    if hasattr(report, "coefficient_side"):  # ConjectureReport
        return [report.gap, *_floats_of(report.coefficient_side), *_floats_of(report.measure_side)]
    return [report.value, *(value for _, value in report.terms)]


def test_reports_hold_python_floats():
    # numpy scalars used to reach the reports: the Laguerre and Jacobi rates
    # summed numpy entries, and the Jacobi probe's outlier energies came from
    # a model whose tail was the last entry of a numpy array
    alpha = np.array([0.9, -0.5])
    d, s = np.array([1.2, 0.9]), np.array([0.7])
    jacobi_probe = conjecture_probe_jacobi(alpha, 1.0, 0.5)
    model = TailJacobiModel(a_inf=np.float64(1.0), b_inf=np.float64(0.0),
                            head=JacobiCoeffs(np.array([2.5, 0.1]), np.array([1.3])))
    reports = [
        hermite_rate(model.head),
        laguerre_rate(d, s, 0.5),
        jacobi_ensemble_rate(alpha, 1.0, 0.5),
        measure_side_rate(model, SC),
        sumrule_verify(model),
        conjecture_probe_laguerre(laguerre_model(0.5, [4.0], []), 0.5),
        jacobi_probe,
    ]
    assert len(jacobi_probe.measure_side.terms) > 1  # the probe has an outlier
    assert type(model.a_inf) is float and type(model.b_inf) is float
    numbers = [x for report in reports for x in _floats_of(report)]
    assert len(numbers) > 25
    assert [type(x) for x in numbers] == [float] * len(numbers)


def test_measure_side_support_mismatch():
    from betaspectra.equilibria import EquilibriumLaw, Family

    mp = EquilibriumLaw(Family.MARCHENKO_PASTUR, tau=0.5)
    with pytest.raises(ParameterError):
        measure_side_rate(FREE, mp)


# Each law's measure-side terms on the head (b_0, b_1) = tail + (2.8, 0.1) a_inf,
# a_0 = 1.1 a_inf: one outlier above the support, its cost picked by the law.
# Two values are corrected from what this test pinned before, at the speed
# of each law's coefficient side (ROADMAP item 1):
# - MP(0.3): the Kullback term is tau K = 0.3 * 2.3078908452048488. The
#   Laguerre coefficient side equals tau K + sum F_L to rounding, because the
#   m Dirichlet weights move at speed beta' m = tau beta' n.
# - KMK(0.2, 0.7): the cost is 2/(1 - sqrt(u_- u_+) - sqrt((1 - u_-)(1 - u_+)))
#   times F_J = 0.19574274492249122. The exact beta = 2 Jacobi tail (a Gram
#   determinant fitted over N = 50..800) is 3.525 and 4.302 times F_J at
#   kappa = (1, 0.5) and (0.3, 2), where this constant is 3.5 and 4.3.
OUTLIER_TERMS = [
    (SC, 1.9557403434972065, 1.9886392968941444),
    (EquilibriumLaw(Family.MARCHENKO_PASTUR, tau=0.3), 0.6923672535614546, 0.21339244380907996),
    (EquilibriumLaw(Family.KESTEN_MCKAY, u_minus=0.2, u_plus=0.7),
     1.9806609553632066, 2.8799184109029734),
    (ARCSINE_SYM, 2.62348307849693, math.inf),
]


@pytest.mark.parametrize("law, kullback, cost", OUTLIER_TERMS,
                         ids=["sc", "mp0.3", "kmk", "arcsine[-2,2]"])
def test_measure_side_outlier_cost_terms(law, kullback, cost):
    # compared exactly; the cost is the one rates.outlier_cost picks
    base = law.model
    model = TailJacobiModel(a_inf=base.a_inf, b_inf=base.b_inf, head=JacobiCoeffs(
        base.b_inf + base.a_inf * np.array([2.8, 0.1]), base.a_inf * np.array([1.1])))
    terms = measure_side_rate(model, law).terms
    (energy, _), = outliers(model)
    assert [value for _, value in terms] == [kullback, cost]
    assert terms[1][1] == outlier_cost(law, energy)


def test_huge_heads():
    # b_0 = 1e200: both sides are +inf (b_0^2/2 and F_G(E) overflow), so the gap is 0
    report = sumrule_verify(TailJacobiModel(head=JacobiCoeffs(np.array([1e200]), np.empty(0))))
    assert report.jacobi_side == math.inf and report.measure_side == math.inf
    assert report.gap == 0.0
    # a_0^2 overflows in the Jost companion matrix: refused by name
    with pytest.raises(ParameterError, match="overflows"):
        sumrule_verify(TailJacobiModel(head=JacobiCoeffs(np.array([0.0]), np.array([1e160]))))


NONFINITE = [("b", math.nan), ("b", math.inf), ("b", -math.inf), ("a", math.nan), ("a", math.inf)]
NONFINITE_CALLS = {
    "sumrule_verify": lambda b, a, _: sumrule_verify(TailJacobiModel(head=JacobiCoeffs(b, a))),
    "outliers": lambda b, a, _: outliers(TailJacobiModel(head=JacobiCoeffs(b, a))),
    "measure_side_rate": lambda b, a, _: measure_side_rate(
        TailJacobiModel(head=JacobiCoeffs(b, a)), SC),
    "laguerre_probe": lambda b, a, _: conjecture_probe_laguerre(
        TailJacobiModel(a_inf=1.0, b_inf=2.0, head=JacobiCoeffs(b, a)), 1.0),
    "jacobi_probe": lambda _b, _a, bad: conjecture_probe_jacobi([0.1, bad], 1.0, 0.5),
}


@pytest.mark.parametrize("call", NONFINITE_CALLS)
@pytest.mark.parametrize("where, bad", NONFINITE)
def test_nonfinite_head_refused(call, where, bad):
    # refused by type, never numpy's LinAlgError from the companion matrix:
    # a head is refused when its coefficients are built, a NaN Verblunsky
    # coefficient by the Jacobi rate and an infinite one by VerblunskyCoeffs
    b, a = [0.1, 0.2], [0.9]
    (b if where == "b" else a)[0] = bad
    with pytest.raises(BetaSpectraError) as info:
        NONFINITE_CALLS[call](b, a, bad)
    if call != "jacobi_probe":
        assert info.type is InvalidMatrixError and "finite" in str(info.value)
    else:
        assert info.type is (ParameterError if math.isnan(bad) else RangeError)


@pytest.mark.parametrize("key, bad", [("a", math.nan), ("a", math.inf), ("b", math.nan),
                                      ("b", -math.inf)])
def test_nonfinite_tail_refused(key, bad):
    # a NaN a_inf passed the test a_inf <= 0, and m_function then reported a pole
    with pytest.raises(ParameterError, match="finite"):
        TailJacobiModel(**{f"{key}_inf": bad})
    with pytest.raises(ParameterError, match="finite"):
        TailJacobiModel.from_json({"tail": {"a": 1.0, "b": 0.0, key: bad}})


@pytest.mark.parametrize("call", [outliers, lambda m: measure_side_rate(m, SC)],
                         ids=["outliers", "measure_side_rate"])
@pytest.mark.parametrize("model, reason", [
    (TailJacobiModel(a_inf=1e-300, head=JacobiCoeffs([1e10], [])), "overflows"),
    (TailJacobiModel(b_inf=-1e308, head=JacobiCoeffs([1e308, 0.0], [0.5])), "overflows"),
    (TailJacobiModel(a_inf=1e10, head=JacobiCoeffs([0.0, 0.0], [1e-320])), "underflows"),
], ids=["b/a_inf", "b-b_inf", "a/a_inf-underflow"])
def test_reduced_head_overflow_refused(call, model, reason):
    # a finite head whose reduced entry (b - b_inf)/a_inf overflows reached
    # the Jost companion matrix, and numpy's LinAlgError; an a/a_inf that
    # rounds to 0 (1e-330) raised a bare ValueError from log(0)
    with pytest.raises(ParameterError, match=reason):
        call(model)


# (len(b), len(a)): the 14 short shapes of the sumrule_heads workload, then longer heads
REFERENCE_SHAPES = (
    (1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (2, 3), (3, 3),
    (4, 3), (3, 4), (4, 4), (5, 4), (5, 5), (0, 6), (7, 0), (2, 9), (11, 4),
)


def test_sumrule_verify_sums_as_the_reports_do():
    # sumrule_verify sums both sides without building the labelled reports;
    # those stay the reference, to the last bit
    rng = np.random.default_rng(24)
    models = [
        head(rng.uniform(-blo, blo, nb), rng.uniform(alo, ahi, na))
        for blo, alo, ahi in ((0.5, 0.6, 1.4), (1.5, 0.5, 1.8))  # HEAD and WIDE ranges
        for nb, na in REFERENCE_SHAPES
        for _ in range(25)
    ]
    models += [head([1.25], []), head([1.0 + 1e-7], []), head([0.0], [math.sqrt(2.0)]),
               head([1e200], []), head([0.0, 0.0], [1e-170])]
    seen_outliers = 0
    for model in models:
        report = sumrule_verify(model)
        assert report.jacobi_side == hermite_rate(model.head).value
        assert report.measure_side == measure_side_rate(model, SC).value
        assert report.outlier_list == outliers(model)
        seen_outliers += bool(report.outlier_list)
    assert seen_outliers > 100


def test_conjecture_probe_laguerre_at_minimizer():
    # the Jacobi matrix of MP(tau) itself (b_0 = 1, then 1 + tau, a = sqrt(tau))
    # has zero cost on both sides
    tau = 0.7
    model = TailJacobiModel(
        a_inf=math.sqrt(tau), b_inf=1.0 + tau,
        head=JacobiCoeffs(np.array([1.0]), np.empty(0)),
    )
    report = conjecture_probe_laguerre(model, tau)
    assert report.label == "CONJECTURE"
    assert report.coefficient_side.value == pytest.approx(0.0, abs=1e-8)
    assert abs(report.gap) < 1e-8


def test_conjecture_probe_laguerre_perturbed():
    # tau = 1 with d_1 = 1.2: coefficient side is G(1.2) and the gap is small
    tau = 1.0
    d1 = 1.2
    model = TailJacobiModel(
        a_inf=1.0, b_inf=2.0,
        head=JacobiCoeffs(np.array([d1**2]), np.array([d1])),
    )
    report = conjecture_probe_laguerre(model, tau)
    assert report.coefficient_side.value == pytest.approx(big_g(d1), abs=1e-9)
    assert abs(report.gap) < 1e-6
    assert report.label == "CONJECTURE"


def test_conjecture_probe_laguerre_wrong_tail():
    with pytest.raises(ParameterError):
        conjecture_probe_laguerre(FREE, 0.5)


def test_jacobi_limit_alphas():
    assert jacobi_limit_alphas(0.0, 0.0) == (0.0, 0.0)
    e, o = jacobi_limit_alphas(1.0, 0.0)
    assert e == pytest.approx(1.0 / 3.0)
    assert o == pytest.approx(-1.0 / 3.0)
    e, o = jacobi_limit_alphas(0.7, 1.3)
    assert e == pytest.approx(-0.6 / 4.0)
    assert o == pytest.approx(-2.0 / 4.0)


def test_conjecture_probe_jacobi_at_minimizer():
    for k1, k2 in ((0.0, 0.0), (1.0, 0.0), (0.7, 1.3)):
        report = conjecture_probe_jacobi(np.empty(0), k1, k2)
        assert report.label == "CONJECTURE"
        assert report.coefficient_side.value == pytest.approx(0.0, abs=1e-10)
        assert abs(report.gap) < 1e-8


def test_conjecture_probe_jacobi_perturbed_head():
    report = conjecture_probe_jacobi(np.array([0.4, -0.1]), 0.5, 0.25)
    assert report.coefficient_side.value > 0.0
    assert math.isfinite(report.measure_side.value)
    # both sides are exact finite sums, so they agree to rounding
    assert abs(report.gap) < 1e-13 * (1.0 + report.coefficient_side.value)


def hard_end_allowance(energies, scale, singular_points):
    """What an outlier's location error of about 4 eps (|J| <= 4) costs
    through the cost's log singularity: |F'(E)| <= scale/|E - s| at the
    nearest singular point s (0 for F_L; 0 and 1 for F_J)."""
    return sum(1e-15 * scale / min(abs(e - p) for p in singular_points) for e in energies)


def test_conjecture_probe_jacobi_is_an_identity():
    # with the KMK cost scaled by 2 + kappa1 + kappa2 the Verblunsky side
    # equals K(KMK | nu) + sum of outlier costs; unscaled, the gap was
    # (1 + kappa1 + kappa2) sum F_J. An outlier within about 1e-6 of the
    # hard ends 0 and 1 is ill-conditioned, which hard_end_allowance bounds
    rng = np.random.default_rng(27)
    with_outliers = 0
    for _ in range(300):
        k1, k2 = rng.uniform(0.0, 1.5, 2)
        alpha = rng.uniform(-0.95, 0.95, int(rng.integers(1, 8)))
        report = conjecture_probe_jacobi(alpha, k1, k2)
        _, model = jacobi_probe_case(alpha, k1, k2)
        found = [e for e, _ in outliers(model)]
        with_outliers += bool(found)
        coeff = report.coefficient_side.value
        tol = 1e-11 * (1.0 + coeff) + hard_end_allowance(found, 2.0 + k1 + k2, (0.0, 1.0))
        assert report.label == "CONJECTURE" and not hasattr(report, "passed")
        assert abs(report.gap) <= tol
    assert with_outliers >= 200


def test_conjecture_probe_laguerre_is_an_identity():
    # with K weighted by tau the coefficient side equals
    # tau K(MP(tau) | nu) + sum F_L; unweighted, the gap was (tau - 1) K
    rng = np.random.default_rng(28)
    compared = with_outliers = 0
    for _ in range(400):
        tau = rng.uniform(0.3, 1.0)
        rt = math.sqrt(tau)
        nb, na = int(rng.integers(1, 5)), int(rng.integers(0, 5))
        model = laguerre_model(tau, 1.0 + tau + rt * rng.uniform(-1.5, 2.5, nb),
                               rt * rng.uniform(0.5, 1.6, na))
        try:
            report = conjecture_probe_laguerre(model, tau)
        except NotPositiveDefiniteError:
            continue
        found = [e for e, _ in outliers(model)]
        with_outliers += bool(found)
        coeff = report.coefficient_side.value
        tol = 1e-13 * (1.0 + coeff) + hard_end_allowance(found, 1.0, (0.0,))
        assert report.label == "CONJECTURE" and not hasattr(report, "passed")
        assert abs(report.gap) <= tol
        compared += 1
    assert compared >= 200 and with_outliers >= 100


def kullback_oracle(law, model, pieces=8):
    """K(law | nu) at 40 digits: tanh-sinh in theta, x = b + 2a cos(theta) on
    the law's tail, the law's textbook density and nu's from its continued
    fraction ended by the free tail's boundary value -exp(-i theta)/a."""
    with mpmath.workdps(40):
        f, mpf = law.family, mpmath.mpf
        if f is Family.MARCHENKO_PASTUR:
            a_inf, b_inf = mpmath.sqrt(mpf(law.tau)), 1 + mpf(law.tau)
        elif f is Family.KESTEN_MCKAY:
            um, up = mpf(law.u_minus), mpf(law.u_plus)
            a_inf, b_inf = (up - um) / 4, (up + um) / 2
        else:
            a_inf, b_inf = mpf(1), mpf(0)
        lo, hi = b_inf - 2 * a_inf, b_inf + 2 * a_inf
        head_b = [mpf(float(v)) for v in model.head.b]
        head_a = [mpf(float(v)) for v in model.head.a]

        def reference(t):
            root = 2 * a_inf * mpmath.sin(t)  # sqrt((x - lo)(hi - x)), exact at the edges
            x = lo + 4 * a_inf * mpmath.cos(t / 2) ** 2
            if f is Family.SEMICIRCLE:
                return root / (2 * mpmath.pi)
            if f is Family.MARCHENKO_PASTUR:
                return root / (2 * mpmath.pi * law.tau * x)
            if f is Family.ARCSINE:  # on [-2, 2]; on [0, 1] it is KMK(0, 1)
                return 1 / (mpmath.pi * root)
            c = 2 / (1 - mpmath.sqrt(um * up) - mpmath.sqrt((1 - um) * (1 - up)))
            one_minus_x = (1 - hi) + 4 * a_inf * mpmath.sin(t / 2) ** 2
            return c * root / (2 * mpmath.pi * x * one_minus_x)

        def nu(t):
            x = b_inf + 2 * a_inf * mpmath.cos(t)
            m = -mpmath.exp(-1j * t) / a_inf
            for j in range(model.head_len - 1, -1, -1):
                bj = head_b[j] if j < len(head_b) else b_inf
                aj = head_a[j] if j < len(head_a) else a_inf
                m = 1 / (bj - x - aj**2 * m)
            return mpmath.im(m) / mpmath.pi

        def integrand(t):
            p = reference(t)
            return p * mpmath.log(p / nu(t)) * 2 * a_inf * mpmath.sin(t)

        return float(mpmath.quad(integrand, mpmath.linspace(0, mpmath.pi, pieces + 1)))


def law_head(law, seed, length):
    """A random head of the given length on the law's tail."""
    rng = np.random.default_rng(seed)
    tail = law.model
    b = tail.b_inf + tail.a_inf * rng.uniform(-0.6, 0.6, length)
    a = tail.a_inf * rng.uniform(0.6, 1.4, length)
    return TailJacobiModel(a_inf=tail.a_inf, b_inf=tail.b_inf, head=JacobiCoeffs(b, a))


def kmk(u_minus, u_plus):
    return EquilibriumLaw(Family.KESTEN_MCKAY, u_minus=u_minus, u_plus=u_plus)


def mp_law(tau):
    return EquilibriumLaw(Family.MARCHENKO_PASTUR, tau=tau)


def jacobi_probe_case(alpha_head, kappa1, kappa2):
    """The model and reference that conjecture_probe_jacobi compares: the
    Geronimus model on [0, 1] and KMK(u_pm(...)). At kappa1 = 0 or kappa2 = 0
    the model has a threshold resonance at a hard edge of the reference."""
    report = conjecture_probe_jacobi(np.asarray(alpha_head, float), kappa1, kappa2)
    d = 2.0 + kappa1 + kappa2
    law = kmk(*u_pm((1.0 + kappa1) / d, (1.0 + kappa1 + kappa2) / d))
    span = len(alpha_head) // 2 + 2
    al_even, al_odd = jacobi_limit_alphas(kappa1, kappa2)
    alpha = np.where(np.arange(2 * span + 1) % 2 == 0, al_even, al_odd)
    alpha[: len(alpha_head)] = alpha_head
    full = geronimus(VerblunskyCoeffs(alpha), span + 1)
    b, a = 0.25 * (full.b + 2.0), 0.25 * full.a
    model = TailJacobiModel(a_inf=a[-1], b_inf=b[-1], head=JacobiCoeffs(b[:-1], a[:-1]))
    assert measure_side_rate(model, law).value == report.measure_side.value
    return law, model


def mp_resonance(tau):
    # b_0 = b_inf - a_inf: the reduced head (-1, 1), a Jost root at -1, so
    # nu's density blows up at the lower edge of MP(tau)
    tail = mp_law(tau).model
    head = JacobiCoeffs(np.array([tail.b_inf - tail.a_inf, 1.1 + tau]), np.array([tail.a_inf]))
    return mp_law(tau), TailJacobiModel(a_inf=tail.a_inf, b_inf=tail.b_inf, head=head)


ORACLE_CASES = {
    "sc": lambda: (SC, law_head(SC, 1, 3)),
    "mp0.3": lambda: (mp_law(0.3), law_head(mp_law(0.3), 2, 2)),
    "mp0.5": lambda: (mp_law(0.5), law_head(mp_law(0.5), 3, 4)),
    "mp1": lambda: (mp_law(1.0), law_head(mp_law(1.0), 4, 3)),
    "mp1e-4": lambda: (mp_law(1e-4), law_head(mp_law(1e-4), 11, 3)),  # small Jost root
    "mp1-own-law": lambda: (mp_law(1.0), mp_law(1.0).model),
    "arcsine[-2,2]": lambda: (ARCSINE_SYM, law_head(ARCSINE_SYM, 5, 2)),
    "arcsine[0,1]": lambda: (ARCSINE_01, law_head(ARCSINE_01, 6, 3)),
    "kmk": lambda: (kmk(0.1, 0.95), law_head(kmk(0.1, 0.95), 7, 3)),
    "kmk-hard-lower": lambda: (kmk(0.0, 0.6), law_head(kmk(0.0, 0.6), 8, 2)),
    "kmk-hard-upper": lambda: (kmk(0.3, 1.0), law_head(kmk(0.3, 1.0), 9, 4)),
    "probe-kappa00": lambda: jacobi_probe_case([0.3, -0.2, 0.1], 0.0, 0.0),
    "probe-kappa00-minimizer": lambda: jacobi_probe_case([], 0.0, 0.0),
    "probe-kappa1=0": lambda: jacobi_probe_case([0.2, 0.35], 0.0, 1.2),
    "probe-kappa2=0": lambda: jacobi_probe_case([-0.1, 0.25, 0.3], 0.5, 0.0),
    "probe-soft": lambda: jacobi_probe_case([0.4, -0.1], 0.5, 0.25),
    "mp0.5-resonance": lambda: mp_resonance(0.5),
    "sc-resonance": lambda: (SC, head([0.2], [math.sqrt(2.0), 0.9])),
}


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_kullback_exact_against_mpmath(case):
    law, model = ORACLE_CASES[case]()
    got = _jost(model).kullback(law)
    assert math.isfinite(got)
    assert got == pytest.approx(kullback_oracle(law, model), abs=1e-13)
    # the measure side's first term is K, weighted by tau for MP(tau)
    report = measure_side_rate(model, law)
    assert report.truncation == 0
    if law.family is Family.MARCHENKO_PASTUR:
        assert report.terms[0] == ("tau*kullback", law.tau * got)
    else:
        assert report.terms[0] == ("kullback", got)


def vectorised_phi(w0, w1, z):
    """Re Phi(z) over an array z, with the 27-term array Horner series
    (`sumrule._phi` in scalar form)."""
    def log1p_minus_id(t):
        acc = np.zeros_like(t)
        for k in range(26, -1, -1):
            acc = acc * -t + 1.0 / (k + 2)
        return np.where(np.abs(t) <= 0.25, (-t * t * acc).real, np.log(np.abs(1.0 + t)) - t.real)

    if w0 == w1:
        return -0.5 * (z * z).real

    def g(w):
        return 0.0 if w == 0.0 or w * w == 1.0 else (1.0 - w * w) / w * log1p_minus_id(-w * z)

    return (w0 + w1) * z.real + (g(w0) - g(w1)) / (w0 - w1)


@pytest.mark.parametrize("law", [mp_law(0.3), mp_law(1.0), mp_law(1e-4),
                                 kmk(0.1, 0.95), kmk(0.0, 0.6), kmk(0.3, 1.0),
                                 ARCSINE_01, ARCSINE_SYM], ids=str)
def test_kullback_scalar_phi_matches_vectorised(law):
    rng = np.random.default_rng(12)
    tail = law.model
    for _ in range(20):
        n = int(rng.integers(1, 12))
        model = TailJacobiModel(
            a_inf=tail.a_inf, b_inf=tail.b_inf,
            head=JacobiCoeffs(tail.b_inf + tail.a_inf * rng.uniform(-1.5, 1.5, n),
                              tail.a_inf * rng.uniform(0.5, 1.8, n)),
        )
        roots = _jost(model)
        w0, w1 = law.jost_roots
        phi = vectorised_phi(w0, w1, np.array([*roots.zeta, w0, w1], dtype=complex))
        expect = roots.c0 + math.log1p(-w0 * w1) - float(np.sum(phi[:-2])) + float(phi[-2] + phi[-1])
        assert roots.kullback(law) == pytest.approx(expect, rel=1e-14)


def test_conjecture_probe_laguerre_exact_at_tau_one():
    # the MP(1) hard edge: a generic head, and the semicircle on [0, 4], for
    # which K(MP(1) | SC) = 1; 2048-node quadrature missed both by ~2e-4
    tau = 1.0
    generic = TailJacobiModel(a_inf=1.0, b_inf=2.0,
                              head=JacobiCoeffs(np.array([1.3]), np.array([0.8])))
    report = conjecture_probe_laguerre(generic, tau)
    assert report.label == "CONJECTURE" and not hasattr(report, "passed")
    assert report.measure_side.truncation == 0
    assert report.measure_side.value == pytest.approx(
        kullback_oracle(mp_law(tau), generic), abs=1e-13
    )
    free = TailJacobiModel(a_inf=1.0, b_inf=2.0)
    assert conjecture_probe_laguerre(free, tau).measure_side.value == pytest.approx(1.0, abs=1e-14)


# sqrt(tau) and 1 + tau are exact in binary, so the float tail is MP(tau)
# itself; with fl(1 + tau) != 1 + tau a float truncation settles on a
# shifted fixed point and drifts from the MP tail by about 2e-15 absolute
DYADIC_TAUS = (0.25, 0.5625, 0.765625, 0.87890625)


def laguerre_model(tau, b, a):
    return TailJacobiModel(a_inf=math.sqrt(tau), b_inf=1.0 + tau,
                           head=JacobiCoeffs(np.asarray(b, float), np.asarray(a, float)))


def truncated_laguerre_sum(model, tau, rows=20000):
    """sum G(d_k) + tau sum G(s_k/sqrt(tau)) over the rows x rows truncation."""
    d, s = ds_factorize(model.coefficients(rows))
    x, y = d * d, s * s / tau
    return math.fsum(x - 1.0 - np.log(x)) + tau * math.fsum(y - 1.0 - np.log(y))


def mp_tail_sum(x, tau, rows=1500):
    """The same sum from d_1^2 = x on the exact MP(tau) tail, in 50 digits."""
    with mpmath.workdps(50):
        x, tau = mpmath.mpf(x), mpmath.mpf(tau)
        total = mpmath.mpf(0)
        for _ in range(rows):
            total += x - 1 - mpmath.log(x) + tau * (1 / x - 1 + mpmath.log(x))
            x = 1 + tau - tau / x
        return float(total)


def test_conjecture_probe_laguerre_tail_matches_truncation():
    # the closed-form tail against 20000 factorised rows, and the head terms
    # as laguerre_rate reports them; a head the probe refuses as not
    # positive definite fails the long factorisation too
    rng = np.random.default_rng(11)
    compared = refused = 0
    for tau in DYADIC_TAUS:
        for _ in range(40):
            nb, na = (int(v) for v in rng.integers(0, 5, 2))
            model = laguerre_model(tau, rng.uniform(0.4, 3.0, nb),
                                   math.sqrt(tau) * rng.uniform(0.2, 1.5, na))
            try:
                coeff = conjecture_probe_laguerre(model, tau).coefficient_side
            except NotPositiveDefiniteError:
                refused += 1
                with pytest.raises(NotPositiveDefiniteError):
                    ds_factorize(model.coefficients(20000))
                continue
            expect = truncated_laguerre_sum(model, tau)
            assert abs(coeff.value - expect) <= 1e-13 * abs(expect)
            k = max(na, nb - 1)
            d, s = ds_factorize(model.coefficients(k + 1))
            assert coeff.terms[:-1] == laguerre_rate(d[:k], s, tau).terms
            assert coeff.terms[-1][0].startswith("tail")
            assert coeff.truncation == k and not coeff.flags
            compared += 1
    assert compared >= 100 and refused >= 10


def test_conjecture_probe_laguerre_closes_tau_one_gap():
    # a truncation misses 1/rows of the tau = 1 tail: -5.0e-4 on this head
    # at 2000 rows; the closed form d_{K+1}^2 - 1 leaves rounding only
    rng = np.random.default_rng(13)
    models = [laguerre_model(1.0, [1.3], [0.8])]
    models += [laguerre_model(1.0, rng.uniform(1.0, 4.0, nb), rng.uniform(0.2, 1.5, na))
               for nb, na in rng.integers(0, 5, (100, 2))]
    closed = 0
    for model in models:
        try:
            report = conjecture_probe_laguerre(model, 1.0)
        except NotPositiveDefiniteError:
            continue
        assert abs(report.gap) <= 1e-13 * (1.0 + abs(report.coefficient_side.value))
        closed += 1
    assert closed >= 50
    # at tau = 1 the pivots stay positive exactly when d_{K+1}^2 >= 1
    with pytest.raises(NotPositiveDefiniteError):
        conjecture_probe_laguerre(laguerre_model(1.0, [1.0 - 1e-12], []), 1.0)


@pytest.mark.parametrize("tau", DYADIC_TAUS)
def test_conjecture_probe_laguerre_positivity_boundary(tau):
    # from d_1^2 = b_0 the tail pivots stay positive exactly when b_0 >= tau;
    # at b_0 = tau every pivot stays at tau and each pair costs
    # -(1 - tau) log tau > 0, so the sum is infinite
    with pytest.raises(NotPositiveDefiniteError):
        conjecture_probe_laguerre(laguerre_model(tau, [tau * (1.0 - 1e-9)], []), tau)
    report = conjecture_probe_laguerre(laguerre_model(tau, [tau], []), tau)
    edge = report.coefficient_side
    assert edge.value == math.inf and edge.flags == ["infinite"]
    # the outlier sits at E = 0, where F_L is +inf, and rounds to 0 or to
    # +-2.2e-16; where both sides are +inf the gap is 0, not inf - inf = NaN
    assert report.gap == (0.0 if report.measure_side.value == math.inf else math.inf)
    for b0 in (tau * (1.0 + 1e-12), tau * (1.0 + 1e-9), tau * 1.5):
        coeff = conjecture_probe_laguerre(laguerre_model(tau, [b0], []), tau).coefficient_side
        expect = mp_tail_sum(b0, tau)
        assert abs(coeff.value - expect) <= 1e-13 * expect


@pytest.mark.parametrize("tau", (0.3, 0.7, *DYADIC_TAUS, 1.0))
def test_conjecture_probe_laguerre_zero_at_mp(tau):
    report = conjecture_probe_laguerre(laguerre_model(tau, [1.0], []), tau)
    assert report.coefficient_side.value == 0.0
    assert [value for _, value in report.coefficient_side.terms] == [0.0]


def test_conjecture_probe_jacobi_long_head():
    # 620 coefficients near the limits: the coefficient side sums all of
    # them, and without outliers the two sides agree
    rng = np.random.default_rng(5)
    al_even, al_odd = jacobi_limit_alphas(0.5, 0.25)
    alpha = np.where(np.arange(620) % 2 == 0, al_even, al_odd) + rng.uniform(-0.005, 0.005, 620)
    report = conjecture_probe_jacobi(alpha, 0.5, 0.25)
    assert report.coefficient_side.value == jacobi_ensemble_rate(alpha, 0.5, 0.25).value
    assert report.coefficient_side.truncation == 620
    assert report.measure_side.truncation == 0
    assert len(report.measure_side.terms) == 1  # the Kullback term, no outlier
    assert abs(report.gap) < 1e-10


def test_conjecture_probe_jacobi_hard_edges():
    # kappa1 = 0 puts the lower KMK edge at 0 and kappa2 = 0 the upper at 1;
    # rounding in u_pm once pushed u_- below 0 (ParameterError) or moved the
    # edge off the model's threshold resonance
    for k in np.random.default_rng(0).uniform(0.0, 5.0, 50):
        for k1, k2 in ((0.0, k), (k, 0.0)):
            assert abs(conjecture_probe_jacobi(np.empty(0), k1, k2).gap) < 1e-13
