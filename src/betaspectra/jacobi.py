"""The Jacobi mapping between discrete measures and tridiagonal coefficients.

Spectral decomposition, Householder reduction in the other direction, the
section moment identity, the Geronimus relations from Verblunsky data, the
affine map [-2,2] -> [0,1] and the bidiagonal d/s factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateMeasureError,
    InvalidMatrixError,
    NotPositiveDefiniteError,
    RangeError,
    read_fields,
)

__all__ = [
    "JacobiCoeffs",
    "VerblunskyCoeffs",
    "DiscreteMeasure",
    "spectral_decompose",
    "measure_to_jacobi",
    "jacobi_moments",
    "geronimus",
    "affine_s",
    "ds_factorize",
    "ds_assemble",
]

ATOM_SEPARATION_RTOL = 1e-13
# Weights below the smallest normal number are floored to it, so that every
# atom keeps a positive weight (true weights reach 1e-60 and far below)
WEIGHT_FLOOR = np.finfo(float).tiny
# Twisted factorisations run on the matrix scaled into [-1, 1], with
# off-diagonals at least PIVMIN; the twist at the best row keeps its pivots
# at least PIVMIN in magnitude. The square and the inverse square of PIVMIN
# are normal numbers, so a ratio a_i / pivot can be squared without overflow.
PIVMIN = 2.0**-500
EPS = np.finfo(float).eps
# A vector taken delta off an eigenvalue takes in about delta / gap of a
# neighbour's, which moves the weight by about 2 delta sqrt(pi_k pi_j) / gap.
# Where the twisted stage gave either weight of neighbours k, k + 1 (taken at
# the eigenvalue as it came, up to a few eps |J| off), the pair is re-solved
# by dstein when closer than MIX |J| sqrt(pi_k pi_{k+1}) / n: that error then
# moves a weight by a few n eps / MIX. Where the row-0 pass kept both, its
# first-order correction has removed that error, and its own rounding (a
# backward error of a few eps in each entry of J - lambda) mixes far less:
# the pair is re-solved only when closer than MIX_KEPT |J| sqrt(pi_k
# pi_{k+1}) / n. Pairs closer than 8 eps |J| are re-solved whatever their
# weights.
MIX = 100.0
MIX_KEPT = 1.0
# The row-0 pass (_row0_weights) keeps a weight when the bound B on the
# relative remainder of its first-order correction is at most ROW0_TOL and
# f B at most eps, and moves an eigenvalue to the Rayleigh quotient of its
# vector when |gamma_0| <= SHIFT_TOL gap, which is then off by at most
# SHIFT_TOL times the move. A twist of J - lambda at the best row
# (_twisted_weights) re-solves every other weight and shift, over at most
# TWIST_FLOATS / n eigenvalues at a time: its four (n, width) arrays take up
# to 16 MB, six over a batch.
ROW0_TOL = 1e-12
SHIFT_TOL = 1e-3
TWIST_FLOATS = 2**19
# A batch of rows matrices of size n with rows n^3 at most DENSE_BUDGET goes
# through numpy's eigvalsh, LAPACK dsyevd, on the dense matrices; above it a
# loop of scipy's dsterf is faster. For eigenvalues alone dsyevd runs dsytrd,
# whose reflectors on a tridiagonal matrix are all the identity (tau = 0), so
# d and e pass through exactly, and then the same dsterf (it rescales no
# matrix scaled into [-1, 1]): the eigenvalues agree bit for bit, and a small
# eigensolve loads no scipy.linalg.
DENSE_BUDGET = 2**20


@dataclass(frozen=True)
class JacobiCoeffs:
    """Diagonal b_0.. and off-diagonal a_0.. of a symmetric tridiagonal matrix.

    An n x n matrix uses b_0..b_{n-1} and a_0..a_{n-2}; every entry must be
    finite and all a_k > 0.
    """

    b: np.ndarray
    a: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
        if not (np.all(np.isfinite(self.b)) and np.all(np.isfinite(self.a))):
            raise InvalidMatrixError("Jacobi coefficients must be finite")
        if self.a.size and np.min(self.a) <= 0.0:
            raise InvalidMatrixError("off-diagonal entries a_k must be strictly positive")

    @property
    def n(self) -> int:
        return len(self.b)

    def section(self, j: int) -> "JacobiCoeffs":
        """Top-left j x j section."""
        if j < 1 or j > self.n or len(self.a) < j - 1:
            raise RangeError(f"section size {j} unavailable for n = {self.n}")
        return JacobiCoeffs(self.b[:j], self.a[: j - 1])

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Tridiagonal matrix-vector product on the n x n section."""
        n = self.n
        out = self.b * v
        if n > 1:
            a = self.a[: n - 1]
            out[:-1] += a * v[1:]
            out[1:] += a * v[:-1]
        return out

    def to_json(self) -> dict:
        return {"b": self.b.tolist(), "a": self.a.tolist()}

    @staticmethod
    def from_json(obj: dict) -> "JacobiCoeffs":
        fields = {key: lambda v: np.fromiter(v, float) for key in ("b", "a")}
        return JacobiCoeffs(**read_fields(obj, "Jacobi coefficients", fields, ("b", "a")))


@dataclass(frozen=True)
class VerblunskyCoeffs:
    """Sequence alpha_k in (-1, 1); the boundary convention alpha_{-1} = -1
    is applied by consumers, never stored."""

    alpha: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=float))
        if not np.all(np.abs(self.alpha) < 1.0):  # NaN fails too
            raise RangeError("Verblunsky coefficients must lie in (-1, 1)")

    def __len__(self) -> int:
        return len(self.alpha)


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely many atoms (location, weight); weights sum to 1."""

    locations: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        loc = np.asarray(self.locations, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if loc.shape != w.shape or loc.ndim != 1 or loc.size == 0:
            raise DegenerateMeasureError("atoms must be two equal-length nonempty vectors")
        if np.min(w) <= 0.0:
            raise DegenerateMeasureError("weights must be strictly positive")
        if abs(float(np.sum(w)) - 1.0) > 1e-12:
            raise DegenerateMeasureError(f"weights sum to {float(np.sum(w))}, expected 1")
        order = np.argsort(loc)
        object.__setattr__(self, "locations", loc[order])
        object.__setattr__(self, "weights", w[order])

    @property
    def n_atoms(self) -> int:
        return len(self.locations)

    def pushforward(self, f) -> "DiscreteMeasure":
        return DiscreteMeasure(f(self.locations), self.weights.copy())

    def to_json(self) -> dict:
        return {"atoms": [[float(x), float(w)] for x, w in zip(self.locations, self.weights)]}


def spectral_decompose(coeffs: JacobiCoeffs) -> DiscreteMeasure:
    """Atoms (lambda_k, pi_k): eigenvalues and squared first components of
    unit eigenvectors of the full n x n matrix, n = coeffs.n.

    Both come from J scaled into [-1, 1] (_decompose): eigenvalues from
    LAPACK dsterf (_eigenvalues; numpy's, so no scipy.linalg, for n^3 <=
    DENSE_BUDGET), each moved to a certified Rayleigh quotient, and weights
    from twisted factorisations, with dstein on each run of close
    neighbours (_first_row_weights). No eigenvector is kept: memory is O(n)
    besides the runs and at most 16 MB for the second stage.

    Against 60-digit arithmetic on ensemble draws of size 48 at beta 0.1,
    0.5, 1 and 2 and on heads with weights down to 1e-18, each weight, or
    the summed weight of neighbours closer than 1e-3 |J|, is within n * eps
    absolute and 1e-10 relative, and each location within dsterf's error
    plus one rounding unit of |lambda|_max; on zero-diagonal graded heads
    the summed weight of neighbours closer than 1e-6 |J| is within n * eps.
    A weight of a close pair alone is only good to about eps |J| / gap, and
    the lowest weights of a small-beta Laguerre draw, in its hard-edge
    cluster, can miss n * eps. Weights are floored at the smallest normal
    number, and clusters closer than eps |J| (graded matrices, Wilkinson's
    W21+ and W41+) keep their summed weight.
    """
    sec = coeffs.section(coeffs.n)
    lam, pi = _decompose(sec.b, sec.a)
    return DiscreteMeasure(lam, pi / np.sum(pi))  # analytically sums to 1


def _decompose(b: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues, ascending, and weights (..., n) of the tridiagonal
    matrices b (..., n), a (..., n - 1), leading axes a batch, from the
    matrices scaled into [-1, 1] (_scaled, _eigenvalues, _first_row_weights)
    and scaled back. Weights are floored, not normalised."""
    b, a, e = _scaled(b, a)
    lam, pi = _first_row_weights(b, a, _eigenvalues(b, a))
    return np.ldexp(lam, e), pi


def _scaled(b: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """b and a of each matrix (last axis) times the power of two 2^-e that
    puts every entry in [-1, 1], without rounding, and e (..., 1)."""
    _, e = np.frexp(np.maximum(np.max(np.abs(b), axis=-1), np.max(a, axis=-1, initial=0.0)))
    e = e[..., None]
    return np.ldexp(b, -e), np.ldexp(a, -e), e


def _eigenvalues(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues, LAPACK dsterf's, of the matrices (b, a) scaled
    into [-1, 1] (_scaled): by numpy's dsyevd up to DENSE_BUDGET, else a loop."""
    n = b.shape[-1]
    if n == 1:
        return b.copy()  # a 1 x 1 matrix is its own eigenvalue
    if math.prod(b.shape) * n * n <= DENSE_BUDGET:
        dense = np.zeros(b.shape[:-1] + (n * n,))
        dense[..., :: n + 1] = b
        dense[..., n :: n + 1] = a  # the lower triangle, which eigvalsh reads
        try:
            return np.linalg.eigvalsh(dense.reshape(b.shape + (n,)))
        except np.linalg.LinAlgError:
            raise RuntimeError("dsterf failed to converge") from None
    # imported here so that paths without a large eigensolve never load scipy.linalg
    from scipy.linalg.lapack import dsterf

    lam = np.empty(b.shape)
    for i in np.ndindex(b.shape[:-1]):
        lam[i], info = dsterf(b[i], a[i])
        if info != 0:
            raise RuntimeError("dsterf failed to converge")
    return lam


@np.errstate(all="ignore")
def _first_row_weights(b: np.ndarray, a: np.ndarray,
                       lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues lam (..., n), ascending, of the tridiagonal matrices
    (b, a) scaled into [-1, 1] (_scaled), as are lam, each moved to the
    Rayleigh quotient of its twisted vector where that is certified, and
    the squared first components pi_k (..., n) of the unit eigenvectors at
    them; leading axes are a batch. Weights are floored, not normalised.

    Two stages of twisted factorisations (Dhillon-Parlett, LAA 387, 2004),
    with |J| the Gershgorin bound:
    - every eigenvalue at once (_row0_weights): the vector twisted at row 0,
      one step of inverse iteration from e_1, from one backward pass of
      J - lambda; its weight is corrected to first order in the
      eigenvalue's error and kept when a bound on the relative remainder,
      c^2 + 4 f (gamma_0 / gap)^2, is at most ROW0_TOL (and at most
      eps / f), and the eigenvalue moves by gamma_0 / s_0 when
      |gamma_0| <= SHIFT_TOL gap;
    - each refused weight and each unmoved eigenvalue (_twisted_weights):
      the vector twisted where |gamma_r| is least, from a forward and a
      backward pass of J - lambda itself, batched over those eigenvalues;
      it gives the weight (at the eigenvalue as it came) and the shift
      gamma_r z_r^2 / |z|^2 under the same rule. Both passes work on the
      entries b_i - lambda and a_i, so graded matrices keep the relative
      accuracy of their small eigenvalues.
    Neighbours k, k + 1 form a run when closer than
    MIX |J| sqrt(pi_k pi_{k+1}) / n + 8 eps |J| where either weight came from
    the second stage, MIX_KEPT in place of MIX where neither did; each run
    is re-solved by one call of LAPACK dstein (inverse iteration,
    orthogonalised within the run), at the same eigenvalues. A run where
    dstein does not converge keeps its weights. Memory is O(n) per matrix
    besides the runs and the TWIST_FLOATS numbers of each array of the
    second stage.

    Off-diagonals are floored at PIVMIN, so a_i^2 and its inverse are
    normal numbers; a matrix with a floored a_i keeps its eigenvalues as
    they came, since the shifts are those of another matrix. Only the
    second stage lifts pivots (_pivots); _row0_weights needs no lift.
    """
    lead, n = lam.shape[:-1], b.shape[-1]
    rows = math.prod(lead)
    b = b.reshape(rows, n)
    a = a.reshape(rows, n - 1)
    # a floored a_k changes the matrix, and so the Rayleigh quotient
    exact = np.all(a >= PIVMIN, axis=1, keepdims=True)
    a = np.maximum(a, PIVMIN)  # subnormal a_k would make s overflow at once
    lam = lam.reshape(rows, n)
    pi, shift, redo = _row0_weights(b, a, lam)
    unshifted = np.isnan(shift)
    lam = np.where(exact & ~unshifted, lam + shift, lam)
    # the second stage: each refused weight and each unmoved eigenvalue
    twist = unshifted | redo
    if np.any(twist):
        pi_t, shift = _twisted_weights(b, a, lam, twist)
        pi[redo] = pi_t[redo]
        lam = np.where(exact & unshifted, lam + shift, lam)

    norm = np.abs(b)  # Gershgorin: |J| <= max_i |b_i| + a_{i-1} + a_i
    norm[:, 1:] += a
    norm[:, :-1] += a
    norm = np.max(norm, axis=1, keepdims=True)

    # flags of the pairs k - 1, k at column k: a run of eigenvalues lo..hi
    # starts where they rise and ends where they fall
    flags = np.zeros((rows, n + 1), dtype=np.int8)
    mix = np.where(redo[:, 1:] | redo[:, :-1], MIX, MIX_KEPT) * np.sqrt(pi[:, 1:] * pi[:, :-1]) / n
    flags[:, 1:n] = np.diff(lam) < norm * (mix + 8.0 * EPS)
    step = np.diff(flags)
    if np.any(step):
        from scipy.linalg.lapack import dstein

        block, split = np.ones(n, np.int32), np.zeros(n, np.int32)
        split[0] = n  # the whole matrix is one block
        for row, lo, hi in zip(*np.nonzero(step > 0), np.nonzero(step < 0)[1]):
            z, info = dstein(b[row], a[row], lam[row, lo : hi + 1], block, split)
            if info == 0:
                pi[row, lo : hi + 1] = np.fmax(np.square(z[0]), WEIGHT_FLOOR)
    return lam.reshape(lead + (n,)), pi.reshape(lead + (n,))


@np.errstate(all="ignore")
def _row0_weights(b: np.ndarray, a: np.ndarray,
                  lam: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weights (rows, n) at the eigenvalues lam (rows, n) of the matrices
    b (rows, n), a (rows, n - 1) (floored at PIVMIN), from the vector
    twisted at row 0; the Rayleigh shift (rows, n) of every eigenvalue where
    it is certified, else NaN; and the weights (rows, n) whose error bound
    fails.

    One backward (UDU^T) pass of J - lambda gives the pivots
    u_i = b_i - lambda - a_i^2 / u_{i+1} and s_i = 1 + q_i s_{i+1}, with
    q_i = (a_i / u_{i+1})^2 = (z_{i+1} / z_i)^2, of
    z = (J - lambda)^-1 e_1 / z_0, so (J - lambda) z = gamma_0 e_1 with
    gamma_0 = u_0 = 1 / m(lambda), and f = 1 / s_0 = m^2 / m' is the weight
    of z, m(x) = sum_j pi_j / (lambda_j - x) the Stieltjes transform. A
    pivot's derivative in lambda is exactly u_i' = -s_i (by induction from
    u_{n-1}' = -1), so the pass carries only hs_i = s_i' / 2, with
    hs_i = q_i (hs_{i+1} + s_{i+1}^2 / u_{i+1}): ten ufunc calls per row
    over every eigenvalue.

    The location. The Rayleigh quotient of z is lambda + gamma_0 f, within
    |gamma_0| |gamma_0 f| / gap of lambda_k (residual^2 / gap, the residual
    being |gamma_0| sqrt(f)), where gap is the distance to the nearest other
    eigenvalue in lam. The shift gamma_0 f is returned where
    |gamma_0| <= SHIFT_TOL gap: the shifted location is then off by at most
    SHIFT_TOL times the shift, besides rounding.

    The weight. Write lambda = lambda_k + t, R = sum_{j != k} pi_j / d_j,
    R' = sum pi_j / d_j^2 and R'' = 2 sum pi_j / d_j^3, d_j = lambda_j -
    lambda, and x = t R / pi_k, y = t^2 R' / pi_k, v = t^3 R'' / pi_k. From
    m = -pi_k / t + R, exactly
        f / pi_k = (1 - x)^2 / (1 + y),
        c = gamma_0 s_0' / s_0^2 = m m'' / m'^2 - 2 = -2x - 4y - v + ...,
    and the weight taken, f (1 - c) (f moved to first order to the Rayleigh
    quotient), has the relative remainder
        f (1 - c) / pi_k - 1 = -3 x^2 + 3 y + 2 x^3 - 12 x y + v + O(t^4)
                             = -(3/4) c^2 + 3 y + 2 x^3 + v + O(t^4).
    Since t / pi_k = -gamma_0 (1 - x), |y| <= f (gamma_0 / gap)^2 and
    |v| <= 2 f |gamma_0 / gap| |y|, to leading order. The bound taken is
        B = c^2 + 4 f (gamma_0 / gap)^2,
    which covers (3/4) c^2 + 2 |c / 2|^3 and 3 |y| + |v| wherever B < 1e-6.
    A weight is kept when B <= ROW0_TOL (relative) and f B <= eps
    (absolute); c is then finite. Everything else goes to _twisted_weights:
    small weights of eigenvalues close to heavy ones (c large), and
    non-finite passes.

    No pivot is lifted here. A zero pivot above row 0, or an overflow of
    q_i, leaves gamma_0 or c infinite or NaN, which fails both tests, and
    _twisted_weights lifts pivots below PIVMIN. A pivot below PIVMIN but not
    0 is carried as it is: the pass then either ends non-finite in the same
    way or is the recursion of J itself, not of J with that pivot moved to
    -PIVMIN.
    """
    u = np.subtract(b[:, -1:], lam)
    s = np.ones(u.shape)
    g, q = np.empty(u.shape), np.empty(u.shape)
    hs = np.zeros(u.shape)  # half of d s_i / d lambda
    t = np.empty(u.shape)
    # (n, rows, 1) views: row i of each matrix as a column that broadcasts
    # over the eigenvalues
    b_col = b.T[:, :, None]
    a2_col = np.square(a).T[:, :, None]
    # each ufunc call with a positional out, as in _pivots
    div, sub, mul, add = np.divide, np.subtract, np.multiply, np.add
    for b_i, a2_i in zip(b_col[-2::-1], a2_col[::-1]):
        div(a2_i, u, g)  # a_i^2 / u_{i+1}
        div(g, u, q)  # q_i = (z_{i+1} / z_i)^2
        div(s, u, t)
        mul(t, s, t)
        add(hs, t, hs)
        mul(hs, q, hs)  # hs_i = q_i (hs_{i+1} + s_{i+1}^2 / u_{i+1})
        mul(s, q, s)
        add(s, 1.0, s)  # s_i = 1 + q_i s_{i+1}
        sub(b_i, lam, u)
        sub(u, g, u)  # u_i = b_i - lambda - a_i^2 / u_{i+1}
    gap = np.full(lam.shape, np.inf)  # to the nearest other eigenvalue
    np.subtract(lam[:, 1:], lam[:, :-1], out=gap[:, 1:])
    np.minimum(gap[:, :-1], gap[:, 1:], out=gap[:, :-1])
    f = np.divide(1.0, s, out=s)
    ratio = np.divide(u, gap, out=g)  # gamma_0 / gap
    c = np.multiply(u, f, out=t)  # gamma_0 / s_0
    shift = np.where(np.abs(ratio) <= SHIFT_TOL, c, np.nan)
    np.multiply(hs, f, out=hs)
    c *= hs
    c += c  # c = gamma_0 s_0' / s_0^2
    bound = np.square(ratio, out=hs)
    bound *= 4.0 * f
    bound += np.square(c)
    keep = bound <= np.minimum(ROW0_TOL, EPS / f)
    np.subtract(1.0, c, out=c)
    c *= f
    # s_0 is infinite only where the weight is below the floor
    return np.fmax(c, WEIGHT_FLOOR, out=c), shift, ~keep


@np.errstate(all="ignore")
def _twisted_weights(b: np.ndarray, a: np.ndarray, lam: np.ndarray,
                     twist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weights and Rayleigh shifts (rows, n), set where twist (rows, n) is
    True and 0 elsewhere: the weight of the vector twisted where |gamma_r|
    is least, from a forward (LDL^T) and a backward (UDU^T) pass of
    J - lambda (_pivots), floored, and its Rayleigh shift where certified.
    Each pass is batched over up to TWIST_FLOATS / n of those eigenvalues
    at a time.

    With z_0 = 1, the forward pass gives the pivots d_i and
    z_{i+1} = -z_i d_i / a_i, and the backward pass the pivots u_i and
    s_i = 1 + sum_{j > i} (z_j / z_i)^2. At the twist r,
    gamma_r = d_r - a_r^2 / u_{r+1}, z is forward up to r and backward after
    it, so |z|^2 = sum_{i < r} z_i^2 + s_r z_r^2 and pi = 1 / |z|^2. Since
    (J - lambda) z = gamma_r z_r e_r, the Rayleigh quotient of z is
    lambda + gamma_r z_r^2 / |z|^2, taken when |gamma_r| <= SHIFT_TOL gap as
    in _row0_weights (r = 0 there).
    """
    n = b.shape[1]
    rows, cols = np.nonzero(twist)
    width = min(rows.size, max(1, TWIST_FLOATS // n))
    # the distance of each of those eigenvalues to the nearest other one
    edged = np.pad(lam, ((0, 0), (1, 1)), constant_values=(-np.inf, np.inf))
    gap = np.minimum(edged[rows, cols + 2] - lam[rows, cols], lam[rows, cols] - edged[rows, cols])
    pi, shift = np.zeros(lam.shape), np.zeros(lam.shape)
    # (n, width) arrays, entry i of each eigenvalue's matrix down the first
    # axis, made once so that later chunks touch no fresh pages
    work = np.empty((4, n, width))
    mul, add = np.multiply, np.add
    for lo in range(0, rows.size, width):
        row, col = rows[lo : lo + width], cols[lo : lo + width]
        c, d, u, s = work[:, :, : row.size]
        mats = row if b.shape[0] > 1 else slice(None)  # one matrix broadcasts
        a_t = a.T[:, mats]
        a2 = np.square(a_t)
        np.subtract(b.T[:, mats], lam[row, col], out=c)  # the diagonal of J - lambda
        _pivots(c, a2, d, s)  # forward
        _pivots(c[::-1], a2[::-1], u[::-1], s)  # backward
        z = c  # z_i up to sign, then z_i^2
        z[0] = 1.0
        np.divide(d[:-1], a_t, out=z[1:])
        np.cumprod(z, axis=0, out=z)
        np.square(z, out=z)
        np.divide(a2, u[1:], out=s[:-1])  # a_j^2 / u_{j+1}
        d[:-1] -= s[:-1]  # gamma_r
        s[:-1] /= u[1:]  # q_j = (z_{j+1} / z_j)^2
        s[-1] = 1.0
        for q_j, s_n in zip(s[-2::-1], s[:0:-1]):
            mul(q_j, s_n, q_j)
            add(q_j, 1.0, q_j)
        u[0] = 0.0
        np.cumsum(z[:-1], axis=0, out=u[1:])  # sum_{i < r} z_i^2
        s *= z
        s += u  # |z|^2 at twist r
        k = np.arange(row.size)
        best = np.argmin(np.abs(d, out=u), axis=0)
        gamma, norm2 = d[best, k], s[best, k]
        pi[row, col] = 1.0 / norm2
        # the Rayleigh shift gamma_r z_r^2 / |z|^2, where it is certified
        shift[row, col] = np.where(np.abs(gamma) <= SHIFT_TOL * gap[lo : lo + row.size],
                                   gamma * z[best, k] / norm2, 0.0)
    # |z|^2 is NaN only where z overflowed, and the weight below the floor
    np.fmax(pi, WEIGHT_FLOOR, out=pi)
    shift[np.isnan(shift)] = 0.0
    return pi, shift


def _pivots(c: np.ndarray, a2: np.ndarray, p: np.ndarray, work: np.ndarray) -> None:
    """p_0 = c_0, p_{i+1} = c_{i+1} - a2_i / p_i down the first axis of
    c (n, width) into p, work (n, width) as scratch; again with pivots
    below PIVMIN lifted (_lift) only if one came out below it."""
    # ufuncs with a positional out: at this width the keyword costs about
    # as much as the arithmetic
    div, sub = np.divide, np.subtract
    for lift in (False, True):
        p[0] = c[0]
        for a2_i, p_i, p_n, c_n in zip(a2, p, p[1:], c[1:]):
            if lift:
                _lift(p_i, work[0])
            div(a2_i, p_i, p_n)
            sub(c_n, p_n, p_n)
        if lift:
            _lift(p[-1], work[0])
        if lift or np.min(np.abs(p, out=work)) >= PIVMIN:
            break


def _lift(x: np.ndarray, tmp: np.ndarray) -> None:
    """Pivots x below PIVMIN in magnitude, exact zeros among them, become
    -PIVMIN; tmp is left holding |x| from before."""
    if np.min(np.abs(x, out=tmp)) < PIVMIN:
        np.copyto(x, -PIVMIN, where=tmp < PIVMIN)


def measure_to_jacobi(mu: DiscreteMeasure) -> JacobiCoeffs:
    """Householder reduction of the bordered matrix
    [[0, sqrt(w)^T], [sqrt(w), diag(loc)]] (Boley-Golub 1987).

    The reflectors fix e_1, so the trailing block of the tridiagonal form is
    the Jacobi matrix of (diag(loc), sqrt(w)): b_0..b_{N-1}, a_0..a_{N-2};
    inverse of spectral_decompose. The atoms enter in decreasing weight; in
    location order, measures with tiny weights lose up to 1e-5.
    """
    loc, w = mu.locations, mu.weights
    n = mu.n_atoms
    span = max(float(loc[-1] - loc[0]), 1.0)
    if n > 1 and np.min(np.diff(loc)) < ATOM_SEPARATION_RTOL * span:
        raise DegenerateMeasureError("coincident atoms: Jacobi map is ill-posed")
    # imported here so that paths without an eigensolve never load scipy.linalg
    from scipy.linalg import lapack

    order = np.argsort(-w, kind="stable")
    bordered = np.zeros((n + 1, n + 1), order="F")
    bordered[1:, 0] = np.sqrt(w[order])
    np.fill_diagonal(bordered[1:, 1:], loc[order])
    lwork, _ = lapack.dsytrd_lwork(n + 1, lower=1)
    _, d, e, _, info = lapack.dsytrd(bordered, lower=1, lwork=int(lwork), overwrite_a=1)
    if info != 0:
        raise RuntimeError(f"dsytrd failed with info = {info}")
    a = np.abs(e[1:])
    if a.size and np.min(a) <= 1e-14 * span:
        raise DegenerateMeasureError("reduction broke down: measure effectively degenerate")
    return JacobiCoeffs(d[1:], a)


def jacobi_moments(coeffs: JacobiCoeffs, j: int, rmax: int) -> np.ndarray:
    """Moments m_r = <e_1, (J^[j])^r e_1>, r = 1..rmax, by tridiagonal powers.

    The section identity guarantees these moments only for rmax <= 2j - 1.
    """
    if rmax > 2 * j - 1:
        raise RangeError(f"rmax = {rmax} exceeds the guaranteed range 2j-1 = {2 * j - 1}")
    sec = coeffs.section(j)
    v = np.zeros(j)
    v[0] = 1.0
    out = np.empty(rmax)
    for r in range(rmax):
        v = sec.matvec(v)
        out[r] = v[0]
    return out


def _geronimus_step(w, even_prev, odd, even):
    """Geronimus relations for one row k >= 1, elementwise: a_{k-1}^2 and b_k
    from w = 1 - alpha_{2k-3} (2 at k = 1, the boundary alpha_{-1} = -1),
    alpha_{2k-2}, alpha_{2k-1} and alpha_{2k}:

        a_{k-1}^2 = (1 - alpha_{2k-3}) (1 - alpha_{2k-2}^2) (1 + alpha_{2k-1})
        b_k = (1 - alpha_{2k-1}) alpha_{2k} - (1 + alpha_{2k-1}) alpha_{2k-2}
    """
    return ((1.0 - even_prev * even_prev) * w * (1.0 + odd),
            (1.0 - odd) * even - (1.0 + odd) * even_prev)


def _geronimus(alpha: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Geronimus relations over the last axis of alpha (alpha_0..alpha_{2n-2});
    leading axes are a batch. Returns b (..., n) and a (..., n - 1).

    b_0 = 2 alpha_0, and _geronimus_step gives every later row at once.
    """
    even = alpha[..., 0 : 2 * n - 1 : 2]  # alpha_{2k}, k = 0..n-1
    odd = alpha[..., 1 : 2 * n - 2 : 2]  # alpha_{2k+1}, k = 0..n-2
    w = np.empty_like(odd)
    w[..., :1] = 2.0
    np.subtract(1.0, odd[..., :-1], out=w[..., 1:])
    b = np.empty_like(even)
    np.multiply(even[..., :1], 2.0, out=b[..., :1])
    a2, b[..., 1:] = _geronimus_step(w, even[..., :-1], odd, even[..., 1:])
    return b, np.sqrt(a2, out=a2)


def geronimus(alpha: VerblunskyCoeffs, n: int) -> JacobiCoeffs:
    """Jacobi coefficients b_0..b_{n-1}, a_0..a_{n-2} from Verblunsky data
    alpha_0..alpha_{2n-2}, with the boundary convention alpha_{-1} = -1."""
    if len(alpha) < 2 * n - 1:
        raise RangeError(f"need alpha_0..alpha_{2 * n - 2}, got {len(alpha)} coefficients")
    return JacobiCoeffs(*_geronimus(alpha.alpha, n))


def affine_s(y):
    """[-2,2] -> [0,1]: s(y) = (y + 2)/4."""
    return (np.asarray(y, dtype=float) + 2.0) / 4.0


def ds_factorize(coeffs: JacobiCoeffs) -> tuple[np.ndarray, np.ndarray]:
    """Unique positive bidiagonal factors: b_0 = d_1^2, b_k = s_k^2 + d_{k+1}^2,
    a_{k-1} = s_k d_k. Requires the matrix to be positive definite."""
    n = coeffs.n
    if n == 0:
        return np.empty(0), np.empty(0)
    if coeffs.b[0] <= 0.0:
        raise NotPositiveDefiniteError("b_0 <= 0: matrix is not positive definite")
    d = np.empty(n)
    s = np.empty(max(n - 1, 0))
    d[0] = math.sqrt(coeffs.b[0])
    for k in range(1, n):
        s[k - 1] = coeffs.a[k - 1] / d[k - 1]
        pivot = coeffs.b[k] - s[k - 1] ** 2
        if pivot <= 0.0:
            raise NotPositiveDefiniteError(f"pivot b_{k} - s_{k}^2 = {pivot} <= 0")
        d[k] = math.sqrt(pivot)
    return d, s


def _ds_assemble(d: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """b and a of B B^T over the last axis of d and s; leading axes are a
    batch. s has as many entries as d, or one fewer."""
    m = d.shape[-1]
    n = m + (s.shape[-1] == m)
    b = np.empty(d.shape[:-1] + (n,))
    np.square(d[..., :1], out=b[..., :1])
    np.square(s, out=b[..., 1:])
    b[..., 1:m] += np.square(d[..., 1:])
    return b, s[..., : n - 1] * d[..., : n - 1]


def ds_assemble(d: np.ndarray, s: np.ndarray) -> JacobiCoeffs:
    """Jacobi coefficients of B B^T for lower-bidiagonal B with diagonal d
    and subdiagonal s.

    len(s) == len(d) - 1 gives the square case (inverse of ds_factorize);
    len(s) == len(d) appends the boundary row, contributing b_n = s_n^2 and
    a_{n-1} = s_n d_n.
    """
    d = np.asarray(d, dtype=float)
    s = np.asarray(s, dtype=float)
    if len(s) not in (len(d) - 1, len(d)):
        raise RangeError("need len(s) in {len(d) - 1, len(d)}")
    return JacobiCoeffs(*_ds_assemble(d, s))
