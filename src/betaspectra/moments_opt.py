"""Constrained minimization of the Hermite coefficient rate over measures
with prescribed leading moments.

The primal value comes from the moments -> Jacobi map (the minimizer keeps
the prescribed coefficients and continues with the free tail); the dual is a
concave log-integral maximization solved by damped Newton ascent.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .equilibria import SC, ChebGrid, TailJacobiModel, density
from .errors import NotPositiveDefiniteError, ParameterError, read_fields
from .jacobi import JacobiCoeffs
from .rates import hermite_rate
from .sumrule import outliers

__all__ = [
    "MomentConstraint",
    "moments_to_jacobi",
    "constrained_rate_primal",
    "constrained_rate_dual",
    "DualResult",
    "moment_opt_report",
]

HANKEL_MIN_EIG_REL = 1e-10


@dataclass(frozen=True)
class MomentConstraint:
    """Prescribed moments c_1..c_{2l-1} (odd length; c_0 = 1 implicit)."""

    c: np.ndarray

    def __post_init__(self) -> None:
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        if c.size % 2 == 0 or c.size < 1:
            raise ParameterError("need an odd number of moments c_1..c_{2l-1}")
        if not np.all(np.isfinite(c)):
            raise ParameterError(f"moments must be finite, got {c.tolist()}")
        object.__setattr__(self, "c", c)

    @property
    def order(self) -> int:
        return len(self.c)

    @property
    def level(self) -> int:
        """l with 2l - 1 prescribed moments."""
        return (len(self.c) + 1) // 2

    @property
    def extended(self) -> np.ndarray:
        """(1, c_1, ..., c_{2l-1})."""
        return np.concatenate(([1.0], self.c))

    def hankel(self) -> np.ndarray:
        ext = self.extended
        l = self.level
        return np.array([[ext[i + j] for j in range(l)] for i in range(l)])

    def shifted_hankel(self) -> np.ndarray:
        ext = self.extended
        l = self.level
        return np.array([[ext[i + j + 1] for j in range(l)] for i in range(l)])

    def fits_interval(self) -> bool:
        """Whether a measure on [-2, 2] with an a.c. part has these moments:
        both localizing Hankel matrices [2 m_{i+j} -+ m_{i+j+1}] (of 2 - x
        and 2 + x) are positive definite, at `HANKEL_MIN_EIG_REL`."""
        h, h1 = self.hankel(), self.shifted_hankel()
        return _is_interior(2.0 * h - h1) and _is_interior(2.0 * h + h1)

    def to_json(self) -> dict:
        return {"c": self.c.tolist()}

    @staticmethod
    def from_json(obj: dict) -> "MomentConstraint":
        return MomentConstraint(**read_fields(
            obj, "moment constraint", {"c": lambda v: np.asarray(v, dtype=float)}, ("c",)))


def _is_interior(h: np.ndarray) -> bool:
    return bool(np.linalg.eigvalsh(h).min() > HANKEL_MIN_EIG_REL * np.trace(h))


def _check_interior(h: np.ndarray) -> None:
    if not _is_interior(h):
        raise NotPositiveDefiniteError(
            "Hankel matrix is singular or indefinite: moments on or outside the boundary"
        )


def moments_to_jacobi(c: MomentConstraint) -> JacobiCoeffs:
    """Jacobi coefficients b_0..b_{l-1}, a_0..a_{l-2} reproducing the moments.

    Orthogonalizes the monomial basis against the Hankel Gram matrix: with
    H = L L^T, the l x l section is J = L^{-1} H1 L^{-T} where H1 is the
    shifted Hankel matrix.
    """
    h = c.hankel()
    _check_interior(h)
    try:
        low = np.linalg.cholesky(h)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc
    h1 = c.shifted_hankel()
    tmp = np.linalg.solve(low, h1)
    j = np.linalg.solve(low, tmp.T).T
    b = np.diag(j).copy()
    a = np.diag(j, 1).copy()
    if a.size and a.min() <= 0.0:
        raise NotPositiveDefiniteError("nonpositive recurrence coefficient from moments")
    return JacobiCoeffs(b, a)


def constrained_rate_primal(c: MomentConstraint) -> float:
    """inf of sum b^2/2 + sum G(a) over measures matching c: the finite sum
    over the coefficients the moments determine."""
    return hermite_rate(moments_to_jacobi(c)).value


@dataclass
class DualResult:
    value: float
    v: np.ndarray
    grad_norm: float
    certified: bool
    flags: list = field(default_factory=list)

    def __float__(self) -> float:
        return self.value


@functools.lru_cache(maxsize=8)
def _dual_data(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The dual's data that depend on the order alone, built once per order
    and returned read-only: the semicircle weights of the 512-node
    Gauss-Chebyshev rule, its node powers x^0..x^(2 order), the Hankel
    index (j + k) of the Hessian, and the powers x^0..x^order of the 4097
    equispaced points of [-2, 2] on which feasibility is scanned."""
    grid = ChebGrid.for_interval(-2.0, 2.0, 512)
    w_sc = grid.weights * density(SC, grid.nodes)
    powers = np.vstack([grid.nodes**j for j in range(2 * order + 1)])
    hankel_index = np.add.outer(np.arange(order + 1), np.arange(order + 1))
    check_x = np.linspace(-2.0, 2.0, 4097)
    check_powers = np.vstack([check_x**j for j in range(order + 1)])
    arrays = (w_sc, powers, hankel_index, check_powers)
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def constrained_rate_dual(c: MomentConstraint) -> DualResult:
    """sup over (v_0, v) of v_0 + sum v_j c_j + int log(1 - v_0 - sum v_j x^j) dSC.

    Concave; at most 200 damped Newton steps from v = 0 with feasibility
    backtracking, on 512 Gauss-Chebyshev nodes. The integrand requires
    u = 1 - sum v_j x^j > 0 on [-2, 2]; a trial step is taken as feasible
    when u > 0 on 4097 equispaced points of [-2, 2], not on the whole
    interval. The nodes, their powers and the scan points depend on the
    order alone and are built once per order (`_dual_data`). Equality with
    the primal is claimed only for moments of measures supported in
    [-2, 2]. Moments that no measure on [-2, 2] with an a.c. part has
    (`MomentConstraint.fits_interval`) make the dual unbounded: +inf with
    the `infeasible` flag, and no Newton step.
    """
    _check_interior(c.hankel())
    if not c.fits_interval():
        flag = "infeasible: no measure on [-2, 2] with an a.c. part has these moments"
        return DualResult(
            value=math.inf, v=np.zeros(c.order + 1), grad_norm=math.inf, certified=False,
            flags=[flag],
        )
    order = c.order
    ext = c.extended
    w_sc, powers, hankel_index, check_powers = _dual_data(order)

    def u_quad(v):
        return 1.0 - v @ powers[: order + 1]

    def feasible(v):
        # max(v @ x^j) < 1 decides as all(1 - v @ x^j > 0) does; NaN fails both
        return bool(np.max(v @ check_powers) < 1.0)

    def psi(v, u):
        return float(v @ ext + w_sc @ np.log(u))

    v = np.zeros(order + 1)
    u = u_quad(v)
    val = psi(v, u)
    grad_norm = math.inf
    flags: list = []
    for _ in range(200):
        w_u = w_sc / u
        grad = ext - powers[: order + 1] @ w_u
        grad_norm = float(np.max(np.abs(grad)))
        if grad_norm < 1e-8:
            break
        q = powers @ (w_u / u)  # q_m = sum w_sc x^m / u^2, m = 0..2 order
        hess = -q[hankel_index]  # entry (j, k) is -q_{j+k}
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            step = np.linalg.solve(hess - 1e-12 * np.eye(order + 1), -grad)
        t = 1.0
        while t > 1e-14:
            v_new = v + t * step
            if feasible(v_new):
                u_new = u_quad(v_new)
                val_new = psi(v_new, u_new)
                if val_new >= val - 1e-15:
                    v, u, val = v_new, u_new, val_new
                    break
            t *= 0.5
        else:
            flags.append("line search stalled")
            break
    certified = grad_norm < 1e-8
    if not certified and "line search stalled" not in flags:
        flags.append("gradient certificate not met")
    return DualResult(value=val, v=v.copy(), grad_norm=grad_norm, certified=certified, flags=flags)


def moment_opt_report(c: MomentConstraint) -> dict:
    """Primal and dual values with the recovered coefficients, as JSON."""
    coeffs = moments_to_jacobi(c)
    primal = hermite_rate(coeffs).value
    dual = constrained_rate_dual(c)
    flags = list(dual.flags)
    # dual equality is only claimed when the primal achiever stays in [-2, 2]
    if outliers(TailJacobiModel(head=coeffs)):
        flags.append("primal achiever has outliers: dual equality not claimed")
    return {
        "primal": primal,
        "dual": dual.value,
        "coeffs": coeffs.to_json(),
        "flags": flags,
    }
