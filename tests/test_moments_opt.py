"""Moment-constrained rate minimization: primal map, dual ascent, duality."""

import hashlib

import numpy as np
import pytest

from betaspectra.errors import NotPositiveDefiniteError, ParameterError
from betaspectra.moments_opt import (
    MomentConstraint,
    constrained_rate_dual,
    constrained_rate_primal,
    moment_opt_report,
    moments_to_jacobi,
)
from betaspectra.jacobi import JacobiCoeffs, jacobi_moments
from betaspectra.sumrule import TailJacobiModel


def test_constraint_validation():
    with pytest.raises(ParameterError):
        MomentConstraint(np.array([0.1, 0.2]))
    c = MomentConstraint(np.array([0.0, 1.0, 0.0]))
    assert c.level == 2
    assert c.order == 3
    assert np.array_equal(c.extended, [1.0, 0.0, 1.0, 0.0])
    assert np.array_equal(c.hankel(), [[1.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(c.shifted_hankel(), [[0.0, 1.0], [1.0, 0.0]])
    back = MomentConstraint.from_json(c.to_json())
    assert np.array_equal(back.c, c.c)
    for bad in ([np.inf], [0.0, np.nan, 0.0], [0.0, 1.0, -np.inf]):
        with pytest.raises(ParameterError, match="finite"):
            MomentConstraint(np.array(bad))


def test_moments_to_jacobi_free_moments():
    # SC moments (0, 1, 0) give the free coefficients b = (0, 0), a = (1,)
    coeffs = moments_to_jacobi(MomentConstraint(np.array([0.0, 1.0, 0.0])))
    assert coeffs.b == pytest.approx([0.0, 0.0], abs=1e-14)
    assert coeffs.a == pytest.approx([1.0], abs=1e-14)


def test_moments_to_jacobi_round_trip():
    rng = np.random.default_rng(18)
    for _ in range(20):
        loc = np.sort(rng.uniform(-1.8, 1.8, 4))
        if np.min(np.diff(loc)) < 0.05:
            continue
        w = rng.uniform(0.1, 1.0, 4)
        w /= w.sum()
        c = MomentConstraint(np.array([float(np.dot(w, loc**k)) for k in range(1, 6)]))
        coeffs = moments_to_jacobi(c)
        got = jacobi_moments(coeffs, 3, 5)
        assert got == pytest.approx(c.c, abs=1e-9)


def test_boundary_moments_rejected():
    # a point mass at 0 has singular Hankel matrix
    with pytest.raises(NotPositiveDefiniteError):
        moments_to_jacobi(MomentConstraint(np.array([0.0, 0.0, 0.0])))


def test_primal_zero_at_free_moments():
    assert constrained_rate_primal(MomentConstraint(np.array([0.0, 1.0, 0.0]))) == 0.0
    dual = constrained_rate_dual(MomentConstraint(np.array([0.0, 1.0, 0.0])))
    assert dual.value == pytest.approx(0.0, abs=1e-10)
    assert dual.certified


def test_primal_single_moment():
    # only c_1 = t prescribed: minimizer shifts b_0 = t, value t^2/2
    for t in (0.0, 0.3, -0.7):
        val = constrained_rate_primal(MomentConstraint(np.array([t])))
        assert val == pytest.approx(0.5 * t * t, abs=1e-12)


def test_primal_dual_agreement_interior():
    rng = np.random.default_rng(19)
    count = 0
    while count < 10:
        eps = rng.uniform(-0.15, 0.15, 3)
        c = MomentConstraint(np.array([0.0, 1.0, 0.0]) + eps)
        try:
            coeffs = moments_to_jacobi(c)
        except NotPositiveDefiniteError:
            continue
        if TailJacobiModel(head=coeffs).bulk != (-2.0, 2.0):
            continue
        from betaspectra.sumrule import outliers

        if outliers(TailJacobiModel(head=coeffs)):
            continue
        primal = constrained_rate_primal(c)
        dual = constrained_rate_dual(c)
        assert dual.value <= primal + 1e-8
        assert dual.value == pytest.approx(primal, abs=1e-4)
        count += 1


@pytest.mark.parametrize("c", [[3.0], [2.0], [-2.0], [0.0, 4.0, 0.0], [1.0, 2.0, 4.0]])
def test_dual_infeasible_moments(c):
    # no measure on [-2, 2] with an a.c. part has these moments: m_1 not inside
    # (-2, 2), or m_2 = 4 (the atoms at -+2 only), or a localizing Hankel
    # matrix that is not positive definite. The dual is unbounded, and no
    # Newton step is taken
    constraint = MomentConstraint(np.array(c))
    assert not constraint.fits_interval()
    dual = constrained_rate_dual(constraint)
    assert dual.value == np.inf and not dual.certified
    assert dual.flags and dual.flags[0].startswith("infeasible")
    assert not np.any(dual.v)


@pytest.mark.parametrize("c", [[0.1], [1.999], [0.0, 1.0, 0.0], [0.0, 3.9, 0.0]])
def test_fits_interval_interior(c):
    assert MomentConstraint(np.array(c)).fits_interval()


def test_report_flags_outliers():
    # a large first moment forces an achiever with an outlier
    report = moment_opt_report(MomentConstraint(np.array([3.0])))
    assert any("outlier" in f for f in report["flags"])
    report = moment_opt_report(MomentConstraint(np.array([0.1])))
    assert report["primal"] == pytest.approx(report["dual"], abs=1e-6)
    assert "coeffs" in report


def workload_constraints(seed, count):
    """Level-2 and level-3 constraints drawn as the sumrule_heads benchmark
    draws them: the moments of a random section b in (-0.3, 0.3),
    a in (0.75, 1.2)."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        level = 2 + i % 2
        b = rng.uniform(-0.3, 0.3, level)
        a = rng.uniform(0.75, 1.2, level - 1)
        out.append(MomentConstraint(jacobi_moments(JacobiCoeffs(b, a), level, 2 * level - 1)))
    return out


# sha256 of every DualResult field of the 60 constraints below, bit for bit.
# It pins the Newton iteration, its trial steps and the feasibility scans;
# another BLAS build may round the products differently and change it.
DUAL_DIGEST = "a61e84b606080e75569181599df20edfa6a673fb74f65114d312718152dfe047"


def test_dual_bit_identical_on_workload_constraints():
    digest = hashlib.sha256()
    uncertified = 0
    for c in workload_constraints(0, 60):
        r = constrained_rate_dual(c)
        uncertified += not r.certified
        fields = (r.value.hex(), r.v.tobytes().hex(), r.grad_norm.hex(), r.certified, r.flags)
        digest.update(repr(fields).encode())
    assert uncertified >= 5
    assert digest.hexdigest() == DUAL_DIGEST


def test_dual_data_built_once_and_read_only():
    from betaspectra.moments_opt import _dual_data

    arrays = _dual_data(5)
    assert _dual_data(5) is arrays
    w_sc, powers, hankel_index, check_powers = arrays
    assert powers.shape == (11, 512) and check_powers.shape == (6, 4097)
    assert hankel_index.shape == (6, 6) and w_sc.shape == (512,)
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
