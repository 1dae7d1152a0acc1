"""Reference laws: densities, transforms, moments, the Chebyshev rule."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from betaspectra.equilibria import (
    ARCSINE_01,
    ARCSINE_SYM,
    SC,
    ChebGrid,
    EquilibriumLaw,
    Family,
    density,
    kmk_of_slopes,
    moment,
    sigma_pm,
    stieltjes,
    u_pm,
)
from betaspectra.errors import DomainError, ParameterError
from betaspectra.jacobi import jacobi_moments

ALL_LAWS = [
    SC,
    ARCSINE_SYM,
    ARCSINE_01,
    EquilibriumLaw(Family.MARCHENKO_PASTUR, tau=1.0),
    EquilibriumLaw(Family.MARCHENKO_PASTUR, tau=0.35),
    EquilibriumLaw(Family.KESTEN_MCKAY, u_minus=0.25, u_plus=0.75),
    EquilibriumLaw(Family.KESTEN_MCKAY, u_minus=0.1, u_plus=0.95),
]


def test_density_point_values():
    assert density(SC, 0.0) == pytest.approx(1.0 / math.pi, abs=1e-14)
    assert density(SC, 3.0) == 0.0
    mp1 = EquilibriumLaw(Family.MARCHENKO_PASTUR, tau=1.0)
    assert density(mp1, 4.0) == pytest.approx(0.0, abs=1e-15)
    assert density(mp1, 2.0) == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-14)
    kmk01 = EquilibriumLaw(Family.KESTEN_MCKAY, u_minus=0.0, u_plus=1.0)
    assert density(kmk01, 0.5) == pytest.approx(2.0 / math.pi, rel=1e-12)
    # the arcsine law on [0,1] is KMK(0,1), the image of the one on [-2,2]
    assert ARCSINE_01 == kmk01
    xs = np.linspace(0.05, 0.95, 19)
    assert np.allclose(density(kmk01, xs), 4.0 * density(ARCSINE_SYM, 4.0 * xs - 2.0), rtol=1e-12)


def test_invalid_parameters():
    with pytest.raises(ParameterError):
        EquilibriumLaw(Family.MARCHENKO_PASTUR, tau=1.5)
    with pytest.raises(ParameterError):
        EquilibriumLaw(Family.KESTEN_MCKAY, u_minus=0.8, u_plus=0.3)


@pytest.mark.parametrize("make", [
    lambda: EquilibriumLaw(Family.SEMICIRCLE, tau=0.5),
    lambda: EquilibriumLaw(Family.ARCSINE, u_minus=0.0),
    lambda: EquilibriumLaw(Family.MARCHENKO_PASTUR, tau=0.5, u_plus=1.0),
    lambda: EquilibriumLaw(Family.KESTEN_MCKAY, tau=0.5, u_minus=0.1, u_plus=0.9),
], ids=["sc-tau", "arcsine-u_minus", "mp-u_plus", "kmk-tau"])
def test_foreign_law_parameter_is_refused(make):
    # a parameter of another family would be ignored by every computation
    with pytest.raises(ParameterError, match="takes no"):
        make()


@pytest.mark.parametrize("law", ALL_LAWS)
def test_density_integrates_to_one(law):
    grid = ChebGrid.for_interval(*law.edges, 2048)
    total = float(np.dot(grid.weights, density(law, grid.nodes)))
    assert total == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("law", ALL_LAWS)
def test_density_nonnegative(law):
    lo, hi = law.edges
    xs = np.linspace(lo + 1e-9 * (hi - lo), hi - 1e-9 * (hi - lo), 501)
    assert np.all(density(law, xs) >= 0.0)


@pytest.mark.parametrize("law", ALL_LAWS)
def test_edges_are_the_support_in_closed_form(law):
    assert law.edges == pytest.approx(law.model.bulk, abs=1e-15)
    if law.family is Family.MARCHENKO_PASTUR:
        assert law.edges == ((1.0 - math.sqrt(law.tau)) ** 2, (1.0 + math.sqrt(law.tau)) ** 2)
    if law.family is Family.KESTEN_MCKAY:
        assert law.edges == (law.u_minus, law.u_plus)


def test_kmk_of_slopes():
    for k1, k2 in [(0.0, 0.0), (1.0, 0.5), (0.3, 2.0), (0.0, 1.7)]:
        d = 2.0 + k1 + k2
        u_minus, u_plus = u_pm((1.0 + k1) / d, (1.0 + k1 + k2) / d)
        assert kmk_of_slopes(k1, k2) == EquilibriumLaw(
            Family.KESTEN_MCKAY, u_minus=u_minus, u_plus=u_plus)
    assert kmk_of_slopes(0.0, 0.0).edges == (0.0, 1.0)


def test_stieltjes_sc_closed_form():
    assert stieltjes(SC, 3.0) == pytest.approx((-3.0 + math.sqrt(5.0)) / 2.0, abs=1e-14)
    # fixed point m = 1/(-z - m) off the support
    rng = np.random.default_rng(11)
    for _ in range(50):
        z = complex(rng.uniform(-4, 4), rng.uniform(0.2, 3.0))
        m = stieltjes(SC, z)
        assert abs(m - 1.0 / (-z - m)) < 1e-12


def test_stieltjes_asymptotics_and_branch():
    for law in ALL_LAWS:
        y = 1e5
        assert abs(stieltjes(law, 1j * y) - (-1.0 / (1j * y))) < 1e-8
        z = complex(0.3, 0.8)
        assert stieltjes(law, z).imag > 0.0


@pytest.mark.parametrize("law", ALL_LAWS)
def test_stieltjes_matches_quadrature(law):
    lo, hi = law.edges
    for z in (hi + 0.5, lo - 0.7, hi + 3.0):
        direct, _ = quad(lambda x: density(law, x) / (x - z), lo, hi, limit=200)
        assert stieltjes(law, z) == pytest.approx(direct, abs=1e-8)


def test_stieltjes_inside_support_rejected():
    with pytest.raises(DomainError):
        stieltjes(SC, 0.5)


def test_stieltjes_boundary_imag_matches_density():
    for law in ALL_LAWS:
        lo, hi = law.edges
        xs = np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 7)
        for x in xs:
            m = stieltjes(law, complex(x, 1e-9))
            assert m.imag / math.pi == pytest.approx(density(law, x), rel=1e-5, abs=1e-8)


def test_sigma_u_inversion():
    assert u_pm(0.5, 0.5) == pytest.approx((0.0, 1.0), abs=1e-14)
    b, c = 0.2, 0.7
    x, y = sigma_pm(b, c)
    assert u_pm(x, y) == pytest.approx((b, c), abs=1e-12)
    grid = np.linspace(0.05, 0.95, 20)
    for xx in grid:
        for yy in grid:
            um, up = u_pm(xx, yy)
            expand = (
                (math.sqrt((1 - xx) * (1 - yy)) - math.sqrt(xx * yy)) ** 2,
                (math.sqrt((1 - xx) * (1 - yy)) + math.sqrt(xx * yy)) ** 2,
            )
            assert (um, up) == pytest.approx(expand, abs=1e-14)
    with pytest.raises(ParameterError):
        u_pm(0.0, 0.5)


def test_moments_catalan():
    catalan = [1, 1]
    for k in range(1, 10):
        catalan.append(sum(catalan[i] * catalan[k - i] for i in range(k + 1)))
    for k in range(1, 9):
        assert moment(SC, 2 * k) == pytest.approx(catalan[k], abs=1e-9)
        assert moment(SC, 2 * k - 1) == 0.0


def test_chebgrid_polynomial_exactness():
    # what constrained_rate_dual relies on: the Lebesgue weights times the
    # semicircle density integrate x^j exactly for j < 2n - 2, giving the
    # Catalan numbers at even j and 0 at odd j
    for n in (16, 512):
        grid = ChebGrid.for_interval(-2.0, 2.0, n)
        w_sc = grid.weights * density(SC, grid.nodes)
        for j in range(min(2 * n - 2, 40)):
            exact = math.comb(j, j // 2) // (j // 2 + 1) if j % 2 == 0 else 0.0
            got = float(np.dot(w_sc, grid.nodes**j))
            scale = float(np.dot(w_sc, np.abs(grid.nodes) ** j))
            assert got == pytest.approx(exact, abs=1e-14 * scale)
    # the Lebesgue weights integrate the arcsine density to exactly 1
    grid = ChebGrid.for_interval(-2.0, 2.0, 16)
    dens = 1.0 / (math.pi * np.sqrt(4.0 - grid.nodes**2))
    assert float(np.dot(grid.weights, dens)) == pytest.approx(1.0, abs=1e-14)


def test_family_given_by_its_value():
    # "sc" once read as the arcsine law
    assert EquilibriumLaw("sc") == SC
    assert density(EquilibriumLaw("sc"), 0.0) == density(SC, 0.0)


def closed_form_density(law, x, root, one_minus_x):
    """The families' textbook densities, independent of the Jacobi models;
    root = sqrt((x - lo)(hi - x)) and 1 - x are passed in so that a caller
    can keep them exact near an edge."""
    if law.family is Family.SEMICIRCLE:
        return root / (2.0 * math.pi)
    if law.family is Family.MARCHENKO_PASTUR:
        return root / (2.0 * math.pi * law.tau * x)
    if law.family is Family.ARCSINE:  # on [-2, 2]; on [0, 1] it is KMK(0, 1)
        return 1.0 / (math.pi * root)
    um, up = law.u_minus, law.u_plus
    c = 2.0 / (1.0 - math.sqrt(um * up) - math.sqrt((1.0 - um) * (1.0 - up)))
    return c * root / (2.0 * math.pi * x * one_minus_x)


KMK_HARD = [
    EquilibriumLaw(Family.KESTEN_MCKAY, u_minus=0.0, u_plus=0.6),
    EquilibriumLaw(Family.KESTEN_MCKAY, u_minus=0.3, u_plus=1.0),
]


@pytest.mark.parametrize("law", ALL_LAWS + KMK_HARD)
def test_model_density_matches_closed_form(law):
    # the model's own edges: the density is taken from the distances to them
    lo, hi = law.model.bulk
    xs = lo + (hi - lo) * np.concatenate(([1e-9, 1e-6], np.linspace(1e-3, 1.0 - 1e-3, 201),
                                          [1.0 - 1e-6, 1.0 - 1e-9]))
    expect = closed_form_density(law, xs, np.sqrt((xs - lo) * (hi - xs)), 1.0 - xs)
    assert density(law, xs) == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("law", ALL_LAWS + KMK_HARD)
def test_model_head_is_first_two_moments(law):
    # b_0 = m_1 and a_0^2 = m_2 - m_1^2, against Gauss-Chebyshev quadrature of
    # the closed-form density in x = (lo + hi)/2 + r cos(theta), where it is smooth
    lo, hi = law.edges
    r, n = 0.5 * (hi - lo), 4096
    theta = (np.arange(n) + 0.5) * math.pi / n
    x = lo + 2.0 * r * np.cos(theta / 2) ** 2
    one_minus_x = (1.0 - hi) + 2.0 * r * np.sin(theta / 2) ** 2
    root = r * np.sin(theta)
    w = (math.pi / n) * root * closed_form_density(law, x, root, one_minus_x)
    m1 = float(np.dot(w, x))
    m2 = float(np.dot(w, x * x))
    head = law.model.head
    assert head.b[0] == pytest.approx(m1, abs=1e-13)
    assert head.a[0] == pytest.approx(math.sqrt(m2 - m1 * m1), abs=1e-13)
    assert [moment(law, 1), moment(law, 2)] == pytest.approx([m1, m2], abs=1e-13)


def test_kmk_head_from_limit_alphas():
    # the head in the Verblunsky parametrisation: with (x, y) = sigma_pm(u-, u+),
    # d = 1/(1 - y), kappa1 = x d - 1, kappa2 = y d - 1 - kappa1 and the limit
    # alphas of (kappa1, kappa2), b_0 = (1 + a_e)/2 and
    # a_0 = sqrt(2 (1 - a_e^2)(1 + a_o))/4
    law = EquilibriumLaw(Family.KESTEN_MCKAY, u_minus=0.1, u_plus=0.95)
    x, y = sigma_pm(0.1, 0.95)
    d = 1.0 / (1.0 - y)
    k1 = x * d - 1.0
    k2 = y * d - 1.0 - k1
    ae, ao = (k1 - k2) / (2.0 + k1 + k2), -(k1 + k2) / (2.0 + k1 + k2)
    head = law.model.head
    assert head.b[0] == pytest.approx((1.0 + ae) / 2.0, abs=1e-15)
    assert head.a[0] == pytest.approx(math.sqrt(2.0 * (1.0 - ae**2) * (1.0 + ao)) / 4.0, abs=1e-15)
    assert (head.b[0], head.a[0]) == pytest.approx((0.548044332896242, 0.243725939092311), abs=1e-15)


def test_hard_edges_have_unit_jost_roots():
    assert ARCSINE_SYM.jost_roots == (-1.0, 1.0)
    assert ARCSINE_01.jost_roots == (-1.0, 1.0)
    assert EquilibriumLaw(Family.MARCHENKO_PASTUR, tau=1.0).jost_roots == (-1.0, 0.0)
    assert KMK_HARD[0].jost_roots[0] == -1.0 and abs(KMK_HARD[0].jost_roots[1]) < 1.0
    assert KMK_HARD[1].jost_roots[1] == 1.0 and abs(KMK_HARD[1].jost_roots[0]) < 1.0
    assert SC.jost_roots == (0.0, 0.0)


@pytest.mark.parametrize("tau", [0.2, 0.35, 0.7, 1.0])
def test_mp_moments_are_narayana_sums(tau):
    for k in range(1, 13):
        narayana = sum(
            math.comb(k, j) * math.comb(k, j - 1) // k * tau ** (j - 1) for j in range(1, k + 1)
        )
        law = EquilibriumLaw(Family.MARCHENKO_PASTUR, tau=tau)
        assert moment(law, k) == pytest.approx(narayana, rel=1e-13)


def test_moment_vector_of_law_is_exact():
    # each moment from the shortest section that has it equals the one from
    # a longer section bit for bit, and the arcsine's odd moments are 0
    law = EquilibriumLaw(Family.KESTEN_MCKAY, u_minus=0.25, u_plus=0.75)
    long_section = jacobi_moments(law.model.coefficients(5), 5, 9)
    assert [moment(law, k) for k in range(1, 10)] == list(long_section)
    assert [moment(ARCSINE_SYM, k) for k in (1, 3, 5, 7)] == [0.0] * 4


def test_u_pm_hard_edges():
    # x = y gives u_+ = 1 and x + y = 1 gives u_- = 0, up to the rounding of
    # x and y themselves: never outside [0, 1]
    for k in np.random.default_rng(1).uniform(0.0, 5.0, 200):
        d = 2.0 + k
        assert u_pm((1.0 + k) / d, (1.0 + k) / d)[1] == 1.0
        assert 0.0 <= u_pm(1.0 / d, (1.0 + k) / d)[0] < 1e-30
