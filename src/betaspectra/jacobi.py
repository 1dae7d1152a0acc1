"""The Jacobi mapping between discrete measures and tridiagonal coefficients.

Spectral decomposition, Householder reduction in the other direction, the
section moment identity, the Geronimus relations from Verblunsky data, the
affine [0,1] <-> [-2,2] maps and the bidiagonal d/s factorization.
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
)

__all__ = [
    "JacobiCoeffs",
    "VerblunskyCoeffs",
    "DiscreteMeasure",
    "spectral_decompose",
    "measure_to_jacobi",
    "jacobi_moments",
    "geronimus",
    "affine_r",
    "affine_s",
    "ds_factorize",
    "ds_assemble",
    "FREE_TAIL",
]

ATOM_SEPARATION_RTOL = 1e-13
# stevd deflation can round a first eigenvector component to exactly 0 where
# the true weight is far below eigh's absolute accuracy (1e-60 next to an
# exact zero on a 102 x 102 random head); such weights are floored here
WEIGHT_FLOOR = np.finfo(float).tiny


@dataclass(frozen=True)
class JacobiCoeffs:
    """Diagonal b_0.. and off-diagonal a_0.. of a symmetric tridiagonal matrix.

    An n x n matrix uses b_0..b_{n-1} and a_0..a_{n-2}; all a_k must be > 0.
    """

    b: np.ndarray
    a: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
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
        return JacobiCoeffs(np.asarray(obj["b"], dtype=float), np.asarray(obj["a"], dtype=float))


FREE_TAIL = (1.0, 0.0)  # (a_inf, b_inf) of the free Jacobi matrix


@dataclass(frozen=True)
class VerblunskyCoeffs:
    """Sequence alpha_k in (-1, 1); the boundary convention alpha_{-1} = -1
    is applied by consumers, never stored."""

    alpha: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=float))
        if self.alpha.size and np.max(np.abs(self.alpha)) >= 1.0:
            raise RangeError("Verblunsky coefficients must lie in (-1, 1)")

    def __len__(self) -> int:
        return len(self.alpha)

    def to_json(self) -> dict:
        return {"alpha": self.alpha.tolist()}

    @staticmethod
    def from_json(obj: dict) -> "VerblunskyCoeffs":
        return VerblunskyCoeffs(np.asarray(obj["alpha"], dtype=float))


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

    def moments(self, rmax: int) -> np.ndarray:
        return np.array(
            [float(np.dot(self.weights, self.locations**r)) for r in range(1, rmax + 1)]
        )

    def pushforward(self, f) -> "DiscreteMeasure":
        return DiscreteMeasure(f(self.locations), self.weights.copy())

    def to_json(self) -> dict:
        return {"atoms": [[float(x), float(w)] for x, w in zip(self.locations, self.weights)]}

    @staticmethod
    def from_json(obj: dict) -> "DiscreteMeasure":
        atoms = np.asarray(obj["atoms"], dtype=float)
        return DiscreteMeasure(atoms[:, 0], atoms[:, 1])


def spectral_decompose(coeffs: JacobiCoeffs, n: int | None = None) -> DiscreteMeasure:
    """Atoms (lambda_k, pi_k): eigenvalues and squared first components of
    unit eigenvectors of the n x n section."""
    n = coeffs.n if n is None else n
    sec = coeffs.section(n)
    if n == 1:
        return DiscreteMeasure(np.array([sec.b[0]]), np.array([1.0]))
    # imported here so that paths without an eigensolve never load scipy.linalg
    from scipy.linalg import eigh_tridiagonal

    # The n x n eigenvectors and the solver's n^2 workspace are the only big
    # arrays. Allocating nothing while they are alive (the first row goes
    # into a buffer made beforehand) lets the allocator return their memory
    # to the system instead of keeping it under a small live array.
    pi = np.empty(n)
    lam, vecs = eigh_tridiagonal(sec.b, sec.a)
    np.square(vecs[0], out=pi)
    del vecs
    np.maximum(pi, WEIGHT_FLOOR, out=pi)
    pi /= np.sum(pi)  # unit-norm guard; analytically sums to 1
    return DiscreteMeasure(lam, pi)


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


def _geronimus(alpha: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Geronimus relations over the last axis of alpha (alpha_0..alpha_{2n-2});
    leading axes are a batch. Returns b (..., n) and a (..., n - 1).

    The boundary alpha_{-1} = -1 enters as the factor 2 in b_0 and a_0;
    other negative indices never contribute (their prefactor is zero).
    Every step writes into b, a or one scratch array, so a large batch
    costs no padded copy of alpha.
    """
    even = alpha[..., 0 : 2 * n - 1 : 2]  # alpha_{2k}, k = 0..n-1
    odd = alpha[..., 1 : 2 * n - 2 : 2]  # alpha_{2k+1}, k = 0..n-2
    # a_k = sqrt((1 - alpha_{2k-1}) (1 - alpha_{2k}^2) (1 + alpha_{2k+1}))
    a = np.square(even[..., :-1])
    np.subtract(1.0, a, out=a)
    a[..., :1] *= 2.0
    t = np.subtract(1.0, odd)
    a[..., 1:] *= t[..., :-1]
    # b_k = (1 - alpha_{2k-1}) alpha_{2k} - (1 + alpha_{2k-1}) alpha_{2k-2}
    b = np.empty_like(even)
    np.multiply(even[..., :1], 2.0, out=b[..., :1])
    np.multiply(t, even[..., 1:], out=b[..., 1:])
    np.add(odd, 1.0, out=t)
    a *= t
    np.sqrt(a, out=a)
    t *= even[..., :-1]
    b[..., 1:] -= t
    return b, a


def geronimus(alpha: VerblunskyCoeffs, n: int) -> JacobiCoeffs:
    """Jacobi coefficients b_0..b_{n-1}, a_0..a_{n-2} from Verblunsky data
    alpha_0..alpha_{2n-2}, with the boundary convention alpha_{-1} = -1."""
    if len(alpha) < 2 * n - 1:
        raise RangeError(f"need alpha_0..alpha_{2 * n - 2}, got {len(alpha)} coefficients")
    return JacobiCoeffs(*_geronimus(alpha.alpha, n))


def affine_r(x):
    """[0,1] -> [-2,2]: r(x) = 4x - 2."""
    return 4.0 * np.asarray(x, dtype=float) - 2.0


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
