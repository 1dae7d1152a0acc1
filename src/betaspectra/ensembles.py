"""Tridiagonal samplers for the beta-Hermite, beta-Laguerre and
Killip-Nenciu beta-Jacobi ensembles.

Each ensemble's entry laws (Gamma shapes and scale, Beta parameters) are
written once, in _hermite_laws, _laguerre_laws and _jacobi_kn_laws, in the
one order in which they are drawn: each entry for the whole batch, then
the next. Two readers take the draws in that order:
- sample_batch draws them whole, with one generator call per entry family,
  and returns b (batch, N) and a (batch, N - 1) arrays; a single draw is a
  batch of one (sample_hermite/_laguerre/_jacobi_kn);
- sample_rows draws them one matrix row at a time and yields b_i and
  a_{i-1}^2, so a consumer such as the Monte Carlo Sturm count holds
  O(batch) numbers whatever N is.
With the same generator both readers draw the same numbers bit for bit.
All samplers are pure functions of their generator: identical (seed,
stream) reproduces identical coefficient sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .equilibria import SC, EquilibriumLaw, Family, kmk_of_slopes
from .errors import ParameterError, integral, read_fields, refuse_foreign
from .jacobi import (
    DiscreteMeasure,
    JacobiCoeffs,
    VerblunskyCoeffs,
    _ds_assemble,
    _geronimus,
    _geronimus_step,
    affine_s,
    ds_assemble,
    geronimus,
    spectral_decompose,
)

__all__ = [
    "Kind",
    "EnsembleSpec",
    "RngStream",
    "LaguerreDraw",
    "sample_hermite",
    "sample_laguerre",
    "sample_jacobi_kn",
    "sample_batch",
    "sample_rows",
    "spectral_measure",
]


def _check_interval(interval: str) -> None:
    if interval not in ("[-2,2]", "[0,1]"):
        raise ParameterError(f"interval must be '[-2,2]' or '[0,1]', got {interval!r}")


class Kind(str, Enum):
    HERMITE = "hermite"
    LAGUERRE = "laguerre"
    JACOBI_KN = "jacobi_kn"


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream: (seed, stream id) -> generator. Both are
    non-negative integers; anything else is refused with a ParameterError.

    Substreams derived from integer keys are independent and stable across
    runs, platforms and chunking of parallel work.
    """

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        for key in ("seed", "stream"):
            value = integral(getattr(self, key), key)
            if value < 0:
                raise ParameterError(f"{key!r} must be a non-negative integer, got {value!r}")
            object.__setattr__(self, key, value)

    def generator(self, *subkeys: int) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream, *subkeys))
        return np.random.default_rng(ss)

    def substream(self, *subkeys: int) -> "RngStream":
        # fold subkeys into a derived stream id deterministically
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream, *subkeys))
        return RngStream(seed=self.seed, stream=int(ss.generate_state(1, np.uint64)[0] >> 1))


# the parameters of each ensemble beyond (n, beta), and all of them
_PARAMS = {Kind.HERMITE: (), Kind.LAGUERRE: ("m", "tau"), Kind.JACOBI_KN: ("a", "b", "kappa1", "kappa2")}
SPEC_PARAMS = sum(_PARAMS.values(), ())


@dataclass(frozen=True)
class EnsembleSpec:
    """Which ensemble to sample and with what parameters.

    Laguerre takes either m (column count) or tau = m/N; Jacobi-KN takes
    fixed exponents (a, b) or slopes (kappa1, kappa2) with the scaling
    b(N) = beta' * kappa1 * N, a(N) = beta' * kappa2 * N. Hermite takes
    neither; a parameter of another ensemble, or both of a pair, is refused.
    Only Jacobi-KN has a "[0,1]" interval form.
    """

    kind: Kind
    n: int
    beta: float
    m: int | None = None
    tau: float | None = None
    a: float | None = None
    b: float | None = None
    kappa1: float | None = None
    kappa2: float | None = None
    interval: str = "[-2,2]"

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", Kind(self.kind))  # the "is" tests need members
        for key in ("n", "m"):
            if getattr(self, key) is not None:
                object.__setattr__(self, key, integral(getattr(self, key), key))
        for key in ("beta", "a", "b", "kappa1", "kappa2"):
            val = getattr(self, key)
            if val is not None and not math.isfinite(val):
                raise ParameterError(f"{key} must be finite, got {val}")
        if self.beta <= 0.0:
            raise ParameterError(f"beta must be > 0, got {self.beta}")
        if self.n < 1:
            raise ParameterError(f"N must be >= 1, got {self.n}")
        _check_interval(self.interval)
        if self.interval != "[-2,2]" and self.kind is not Kind.JACOBI_KN:
            raise ParameterError(f"{self.kind.value} has no {self.interval} form; only jacobi_kn has")
        given = [key for key in SPEC_PARAMS if getattr(self, key) is not None]
        refuse_foreign(self.kind.value, given, _PARAMS[self.kind])
        if self.kind is Kind.LAGUERRE:
            if (self.m is None) == (self.tau is None):
                raise ParameterError("Laguerre needs exactly one of m and tau")
            if self.m is not None and not (1 <= self.m <= self.n):
                raise ParameterError(f"Laguerre needs 1 <= m <= N, got m = {self.m}")
            if self.tau is not None and not (0.0 < self.tau <= 1.0):
                raise ParameterError(f"Laguerre needs tau in (0, 1], got {self.tau}")
        if self.kind is Kind.JACOBI_KN:
            if (self.a, self.b) != (None, None) and (self.kappa1, self.kappa2) != (None, None):
                raise ParameterError("Jacobi-KN takes exponents (a, b) or slopes, not both")
            ea, eb = self.exponents
            if ea <= -1.0 or eb <= -1.0:
                raise ParameterError(f"Jacobi exponents must be > -1, got a = {ea}, b = {eb}")

    @property
    def beta_prime(self) -> float:
        return self.beta / 2.0

    @property
    def dim(self) -> int:
        """Size of the matrix: N (Laguerre: m)."""
        return self.laguerre_m if self.kind is Kind.LAGUERRE else self.n

    @property
    def laguerre_m(self) -> int:
        if self.m is not None:
            return self.m
        return max(1, int(round(self.tau * self.n)))

    @property
    def laguerre_tau(self) -> float:
        return self.tau if self.tau is not None else self.m / self.n

    @property
    def law(self) -> EquilibriumLaw:
        """Limit law of the spectral measure: SC, MP(laguerre_tau), or the KMK
        law of the slopes on [0, 1] (fixed Jacobi-KN exponents count as 0)."""
        if self.kind is Kind.HERMITE:
            return SC
        if self.kind is Kind.LAGUERRE:
            return EquilibriumLaw(Family.MARCHENKO_PASTUR, tau=self.laguerre_tau)
        return kmk_of_slopes(self.kappa1 or 0.0, self.kappa2 or 0.0)

    @property
    def exponents(self) -> tuple[float, float]:
        """Jacobi exponents (a, b), resolving slope scaling when given."""
        if self.kappa1 is None and self.kappa2 is None:
            return self.a or 0.0, self.b or 0.0
        k1, k2 = self.kappa1 or 0.0, self.kappa2 or 0.0
        if k1 < 0.0 or k2 < 0.0:
            raise ParameterError("slopes kappa must be >= 0")
        return self.beta_prime * k2 * self.n, self.beta_prime * k1 * self.n

    def to_json(self) -> dict:
        out = {"kind": self.kind.value, "n": self.n, "beta": self.beta}
        for key in _PARAMS[self.kind]:
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        if self.kind is Kind.JACOBI_KN:
            out["interval"] = self.interval
        return out

    @staticmethod
    def from_json(obj: dict) -> "EnsembleSpec":
        fields = read_fields(obj, "ensemble spec", _SPEC_FIELDS, ("kind", "n", "beta"))
        return EnsembleSpec(**fields)


# the spec's JSON keys; counts and the interval are checked by the constructor
_SPEC_FIELDS = {"kind": Kind, "n": None, "beta": float, "m": None,
                **{key: float for key in SPEC_PARAMS if key != "m"}, "interval": None}


# A Beta draw with a tiny parameter can round to 0 or 1, making 2x - 1 = -1
# or 1 exactly; the Geronimus relations need |alpha| < 1 for a_k > 0.
ALPHA_MAX = np.nextafter(1.0, 0.0)
# Likewise a Gamma draw with a tiny shape can underflow to exactly 0, and
# the tridiagonal models need chi draws > 0. Every positive double is at
# least this, so flooring at it changes only the zeros.
GAMMA_MIN = np.finfo(float).smallest_subnormal


def _gamma(shape, scale: float, gen: np.random.Generator, size) -> np.ndarray:
    """Gamma(shape, scale) draws, none of them 0."""
    draws = gen.gamma(shape, scale, size=size)
    return np.maximum(draws, GAMMA_MIN, out=draws)


def _hermite_laws(n: int, beta_prime: float):
    """Scale 1/(beta' N) of every Hermite entry (the variance of b_j) and
    the Gamma shapes beta'(N - 1 - j) of a_j^2, j = 0..N-2. The b_j are
    drawn from the generator and the a_j^2 from a child it spawns, so that
    each family is drawn in one call or row by row alike."""
    return 1.0 / (beta_prime * n), beta_prime * (n - 1.0 - np.arange(n - 1))


def _hermite_draw(n: int, beta_prime: float, gen: np.random.Generator, batch: int):
    """b (batch, n) and a^2 (batch, n - 1) of `batch` Hermite models: one
    normal and one Gamma call, each entry for the whole batch after the one
    before, as _hermite_rows draws them."""
    scale, shapes = _hermite_laws(n, beta_prime)
    b = gen.normal(0.0, np.sqrt(scale), size=(n, batch))
    return b.T, _gamma(shapes[:, None], scale, gen.spawn(1)[0], (n - 1, batch)).T


def _hermite_rows(n: int, beta_prime: float, gen: np.random.Generator, batch: int):
    scale, shapes = _hermite_laws(n, beta_prime)
    sd = np.sqrt(scale)
    gammas = gen.spawn(1)[0]
    yield gen.normal(0.0, sd, size=batch), 0.0
    for shape in shapes:
        yield gen.normal(0.0, sd, size=batch), _gamma(shape, scale, gammas, batch)


def sample_hermite(spec: EnsembleSpec, rng: RngStream) -> JacobiCoeffs:
    """Tridiagonal model of the normalized Gaussian beta-ensemble:
    b_j ~ N(0, 1/(beta' N)), a_j^2 ~ gamma(beta'(N-1-j), 1/(beta' N))."""
    if spec.kind is not Kind.HERMITE:
        raise ParameterError("spec.kind must be hermite")
    b, a = sample_batch(spec, rng.generator(), 1)
    return JacobiCoeffs(b[0], a[0])


@dataclass(frozen=True)
class LaguerreDraw:
    d: np.ndarray
    s: np.ndarray
    coeffs: JacobiCoeffs


def _swap_order(size: int) -> np.ndarray:
    """0..size-1 with 2p - 1 and 2p (p >= 1) exchanged; its own inverse."""
    k = np.arange(size)
    k[1::2] += 1
    k[2::2] -= 1
    return k


def _laguerre_laws(n: int, m: int, beta_prime: float):
    """Scale 1/(beta' N) and the Gamma shapes of D_k = d_k^2, beta'(N + 1 - k)
    for k = 1..m, and of S_k = s_k^2, beta'(m - k) for k = 1..m-1, in the
    order they are drawn: D_1, D_2, S_1, D_3, S_2, ... (entry r is entry
    _swap_order(2m - 1)[r] of D_1, S_1, D_2, S_2, ...)."""
    q = _swap_order(2 * m - 1)
    k = q // 2 + 1
    return 1.0 / (beta_prime * n), beta_prime * np.where(q % 2 == 0, n + 1.0 - k, m - k)


def _laguerre_draw(n: int, m: int, beta_prime: float, gen: np.random.Generator, batch: int):
    """Squared bidiagonal factors D (batch, m) and S (batch, m - 1) of
    `batch` Laguerre models: one Gamma call, each entry for the whole batch
    after the one before, in the order of _laguerre_laws, as _laguerre_rows
    draws them."""
    scale, shapes = _laguerre_laws(n, m, beta_prime)
    drawn = _gamma(shapes[:, None], scale, gen, (2 * m - 1, batch))
    squares = drawn[_swap_order(2 * m - 1)].T
    return squares[:, 0::2], squares[:, 1::2]


def _laguerre_rows(n: int, m: int, beta_prime: float, gen: np.random.Generator, batch: int):
    # rows of B B^T from the squares D = d^2 and S = s^2 as drawn:
    # b_k = S_{k-1} + D_k and a_{k-1}^2 = S_{k-1} D_{k-1}, no square root
    scale, shapes = _laguerre_laws(n, m, beta_prime)
    laws = iter(shapes)
    d2 = _gamma(next(laws), scale, gen, batch)
    yield d2, 0.0
    for d_shape, s_shape in zip(laws, laws):
        d2_prev, d2 = d2, _gamma(d_shape, scale, gen, batch)
        s2 = _gamma(s_shape, scale, gen, batch)
        yield s2 + d2, s2 * d2_prev


def sample_laguerre(spec: EnsembleSpec, rng: RngStream) -> LaguerreDraw:
    """Bidiagonal factors of the beta-Laguerre model and the Jacobi
    coefficients of L = B B^T (an m x m matrix)."""
    if spec.kind is not Kind.LAGUERRE:
        raise ParameterError("spec.kind must be laguerre")
    d2, s2 = _laguerre_draw(spec.n, spec.laguerre_m, spec.beta_prime, rng.generator(), 1)
    d, s = np.sqrt(d2[0]), np.sqrt(s2[0])
    return LaguerreDraw(d=d, s=s, coeffs=ds_assemble(d, s))


def _jacobi_kn_laws(n: int, ea: float, eb: float, beta_prime: float):
    """Parameters (first, second) of the symmetric-beta laws of the
    Verblunsky coefficients, in the order they are drawn: alpha_0, alpha_2,
    alpha_1, alpha_4, alpha_3, ... (entry r is alpha_{_swap_order(2N - 1)[r]}).
    Even index 2p and odd index 2p - 1 laws per Killip-Nenciu."""
    k = _swap_order(2 * n - 1)
    p = (k + 1) // 2
    rest = (n - p - 1) * beta_prime
    even = k % 2 == 0
    first = np.where(even, rest + ea + 1.0, rest + ea + eb + 2.0)
    second = np.where(even, rest + eb + 1.0, (n - p) * beta_prime)
    return first, second


def _jacobi_kn_alphas(first, second, gen: np.random.Generator, size) -> np.ndarray:
    """alpha = 2 Beta(second, first) - 1, of density proportional to
    (1 - x)^(first - 1) (1 + x)^(second - 1) and mean
    (second - first) / (second + first), clipped to +-ALPHA_MAX."""
    draws = gen.beta(second, first, size=size)
    draws *= 2.0
    draws -= 1.0
    return np.clip(draws, -ALPHA_MAX, ALPHA_MAX, out=draws)


def _jacobi_kn_draw(n: int, ea: float, eb: float, beta_prime: float,
                    gen: np.random.Generator, batch: int) -> np.ndarray:
    """alpha_0..alpha_{2N-2} of `batch` Killip-Nenciu models, shape
    (batch, 2N - 1): one Beta call, each coefficient for the whole batch
    after the one before, in the order of _jacobi_kn_laws, as
    _jacobi_kn_rows draws them."""
    first, second = _jacobi_kn_laws(n, ea, eb, beta_prime)
    drawn = _jacobi_kn_alphas(first[:, None], second[:, None], gen, (2 * n - 1, batch))
    return drawn[_swap_order(2 * n - 1)].T


def _jacobi_kn_rows(n: int, ea: float, eb: float, beta_prime: float,
                    gen: np.random.Generator, batch: int):
    # the draw order alpha_0, alpha_2, alpha_1, ... brings alpha_{2k} and
    # alpha_{2k-1} just when row k needs them; a_{k-1} is rounded as
    # _geronimus rounds it before it is squared
    laws = zip(*_jacobi_kn_laws(n, ea, eb, beta_prime))
    even = _jacobi_kn_alphas(*next(laws), gen, batch)
    yield even * 2.0, 0.0
    w = 2.0  # 1 - alpha_{2k-3}; the boundary alpha_{-1} = -1 at k = 1
    for even_law, odd_law in zip(laws, laws):
        even_prev, even = even, _jacobi_kn_alphas(*even_law, gen, batch)
        odd = _jacobi_kn_alphas(*odd_law, gen, batch)
        a2, b = _geronimus_step(w, even_prev, odd, even)
        a = np.sqrt(a2, out=a2)
        yield b, np.square(a, out=a)
        w = 1.0 - odd


def sample_jacobi_kn(spec: EnsembleSpec, rng: RngStream) -> tuple[VerblunskyCoeffs, JacobiCoeffs]:
    """Killip-Nenciu sampler: independent symmetric-beta Verblunsky
    coefficients mapped through the Geronimus relations. The matrix acts on
    [-2, 2]; with interval == "[0,1]" the spectral data are to be pushed
    through the affine map s."""
    if spec.kind is not Kind.JACOBI_KN:
        raise ParameterError("spec.kind must be jacobi_kn")
    ea, eb = spec.exponents
    draw = _jacobi_kn_draw(spec.n, ea, eb, spec.beta_prime, rng.generator(), 1)
    alpha = VerblunskyCoeffs(draw[0])
    return alpha, geronimus(alpha, spec.n)


def sample_batch(spec: EnsembleSpec, gen: np.random.Generator, batch: int):
    """Jacobi coefficients of `batch` independent draws of spec's model:
    b (batch, size) and a (batch, size - 1), size spec.dim, from the draws
    sample_rows makes with the same generator. A batch of one draws what
    sample_hermite/_laguerre/_jacobi_kn draw."""
    if spec.kind is Kind.HERMITE:
        b, a2 = _hermite_draw(spec.n, spec.beta_prime, gen, batch)
        return b, np.sqrt(a2, out=a2)
    if spec.kind is Kind.LAGUERRE:
        d2, s2 = _laguerre_draw(spec.n, spec.laguerre_m, spec.beta_prime, gen, batch)
        return _ds_assemble(np.sqrt(d2), np.sqrt(s2))
    ea, eb = spec.exponents
    return _geronimus(_jacobi_kn_draw(spec.n, ea, eb, spec.beta_prime, gen, batch), spec.n)


def sample_rows(spec: EnsembleSpec, gen: np.random.Generator, batch: int):
    """`batch` independent draws of spec's model, one matrix row at a time:
    yields b_i and a_{i-1}^2 (0.0 for i = 0) for i = 0..spec.dim - 1, each an
    array over the batch, so a consumer holds O(batch) numbers whatever N is.

    Each row is drawn for the whole batch before the next one, which is the
    order in which sample_batch draws its whole arrays: with the same
    generator the rows are sample_batch's draws bit for bit. A Hermite
    a_{i-1}^2 is the Gamma draw itself and a Laguerre one the product
    S_{i-1} D_{i-1} of two, never a rounded square root squared; Jacobi-KN
    rows are the squares of sample_batch's coefficients.
    """
    if spec.kind is Kind.HERMITE:
        return _hermite_rows(spec.n, spec.beta_prime, gen, batch)
    if spec.kind is Kind.LAGUERRE:
        return _laguerre_rows(spec.n, spec.laguerre_m, spec.beta_prime, gen, batch)
    ea, eb = spec.exponents
    return _jacobi_kn_rows(spec.n, ea, eb, spec.beta_prime, gen, batch)


def spectral_measure(coeffs: JacobiCoeffs, interval: str = "[-2,2]") -> DiscreteMeasure:
    """Spectral measure mu_w of (J, e_1); optionally mapped to [0, 1]."""
    _check_interval(interval)
    mu = spectral_decompose(coeffs)
    if interval == "[0,1]":
        mu = mu.pushforward(affine_s)
    return mu

