"""Large-deviation rate functions.

Outlier costs F_G / F_L / F_J and `outlier_cost`, the one place that picks
among them by limit law; the coordinate rates x^2/2, g, G and the
symmetric-beta rate h; and one coefficient-side rate per ensemble. The
reversed Kullback information K(reference | nu) of the measure side is an
exact Jost-root sum in `sumrule` (`measure_side_rate`).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .equilibria import EquilibriumLaw, Family, mp_edges
from .errors import ParameterError
from .jacobi import affine_s

__all__ = [
    "RateReport",
    "rate_fg",
    "rate_fl",
    "rate_fj",
    "outlier_cost",
    "small_g",
    "big_g",
    "beta_h",
    "hermite_rate",
    "laguerre_rate",
    "jacobi_ensemble_rate",
]

INF = float("inf")
# x*x overflows near 1.34e154; past this bound F_G(x) = x^2/2 and F_L(x) = x
# to double precision, as the next terms, -1 - 2 log x and O(log x), are
# below 1e-140 of the value.
_HUGE = 1e150
# below this, x*x is subnormal or 0
_TINY_SQUARE = sys.float_info.min


@dataclass
class RateReport:
    """A rate value with its per-term breakdown and truncation bookkeeping."""

    value: float
    terms: list = field(default_factory=list)
    truncation: int = 0
    flags: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {**vars(self), "terms": [list(term) for term in self.terms], "flags": list(self.flags)}


def _refuse_nan(x: float) -> None:
    if math.isnan(x):
        raise ParameterError("threshold x is NaN")


def rate_fg(x: float) -> float:
    """Extreme-eigenvalue cost for the Hermite bulk [-2, 2]:
    integral of sqrt(t^2 - 4) from 2 to |x|; 0 inside the bulk, +inf where
    it exceeds the largest double (|x| above about 1.9e154)."""
    _refuse_nan(x)
    ax = abs(x)
    if ax <= 2.0:
        return 0.0
    if ax > _HUGE:
        return 0.5 * ax * ax
    root = math.sqrt(ax * ax - 4.0)
    return 0.5 * ax * root - 2.0 * math.log(0.5 * (ax + root))


def _atanh_minus_id(z: float, one_minus_z2: float) -> float:
    """artanh(z) - z for 0 <= z < 1, given 1 - z^2 computed without cancellation.

    Below z = 1/4 the Taylor series (ratio z^2 <= 1/16, 15 terms) avoids the
    cancellation of artanh(z) - z ~ z^3/3; above it the logarithmic form
    uses the supplied 1 - z^2, which stays accurate as z -> 1.
    """
    if z > 0.25:
        return math.log1p(z) - 0.5 * math.log(one_minus_z2) - z
    z2 = z * z
    acc = 0.0
    for j in range(15, 0, -1):
        acc = acc * z2 + 1.0 / (2 * j + 1)
    return z * z2 * acc


def _edge_cost(t: float, a: float, b: float, gap: float, near: float, far: float) -> float:
    """Integral of sqrt(|(s - a)(s - b)|)/s from the nearer edge of [a, b] to t.

    Needs 0 <= a < b and t > 0 outside [a, b]; gap = b - a, near =
    |t - nearer edge| and far = |t - farther edge| are passed in so the
    caller keeps them exact.
    Under s = (a + b)/2 +- ((b - a)/2) cosh(theta) the integral is
    elementary in h = tanh(theta/2) = sqrt(near/far). Writing
    A(z) = artanh(z) - z, g = sqrt(b) - sqrt(a) and e, o for the nearer and
    the other edge, it equals

        h^2 w (near + g (sqrt(e) + 2 sqrt(o))) - g^2 A(h) -+ 2 sqrt(ab) A(w),
        w = h far / (t + sqrt(ab)),

    with - on the upper leg. The terms do not cancel to leading order,
    neither as t approaches the edge (each is O(h^3) and the result
    vanishes like near^(3/2)) nor for a narrow bulk (each carries g^2).
    """
    upper = 2.0 * t > a + b
    ra, rb = math.sqrt(a), math.sqrt(b)
    re, ro = (rb, ra) if upper else (ra, rb)
    g = gap / (ra + rb)
    h = math.sqrt(near / far)
    hf = h * far
    c = t + ra * rb
    w = hf / c
    # 1 - w = t (sqrt(a) + sqrt(b))^2 / (c (c + h far)), exact as w -> 1
    one_minus_w2 = t * (ra + rb) ** 2 / (c * (c + hf)) * (1.0 + w)
    outlier = 2.0 * ra * rb * _atanh_minus_id(w, one_minus_w2)
    return (
        h * h * w * (near + g * (re + 2.0 * ro))
        - g * g * _atanh_minus_id(h, gap / far)
        + (-outlier if upper else outlier)
    )


def rate_fl(x: float, tau: float) -> float:
    """Extreme-eigenvalue cost for the Laguerre bulk [a(tau), b(tau)].

    Upper leg x >= b(tau); lower leg 0 < x <= a(tau); 0 inside the bulk;
    +inf at and below 0 (the integrand ~ c/t diverges) and at x = +inf.
    Closed form, see `_edge_cost`.
    """
    if not (0.0 < tau <= 1.0):
        raise ParameterError(f"tau must be in (0, 1], got {tau}")
    _refuse_nan(x)
    a, b = mp_edges(tau)
    if x <= 0.0:
        return INF
    if x > _HUGE:
        return x
    if a <= x <= b:
        return 0.0
    if x > b:
        return _edge_cost(x, a, b, b - a, x - b, x - a)
    return _edge_cost(x, a, b, b - a, a - x, b - x)


def rate_fj(x: float, u_minus: float, u_plus: float) -> float:
    """Extreme-eigenvalue cost for the Jacobi bulk [u_-, u_+] inside (0, 1).

    The integrand sqrt(|(t - u_-)(t - u_+)|)/(t(1 - t)) splits into a 1/t
    part and a 1/(1 - t) part; under t -> 1 - t the second is the 1/t cost
    of the reflected bulk [1 - u_+, 1 - u_-] on the opposite leg, so both
    are `_edge_cost`, with the gap and edge distances taken from x directly.
    """
    if not (0.0 <= u_minus < u_plus <= 1.0):
        raise ParameterError(f"need 0 <= u_minus < u_plus <= 1, got ({u_minus}, {u_plus})")
    _refuse_nan(x)
    if x <= 0.0 or x >= 1.0:
        return INF
    if u_minus <= x <= u_plus:
        return 0.0
    gap = u_plus - u_minus
    if x > u_plus:
        near, far = x - u_plus, x - u_minus
    else:
        near, far = u_minus - x, u_plus - x
    return _edge_cost(x, u_minus, u_plus, gap, near, far) + _edge_cost(
        1.0 - x, 1.0 - u_plus, 1.0 - u_minus, gap, near, far
    )


def _kmk_scale(u_minus: float, u_plus: float) -> float:
    """2/(1 - sqrt(u_- u_+) - sqrt((1 - u_-)(1 - u_+))), the normalising
    constant of the KMK(u_-, u_+) density, which is 2 + kappa1 + kappa2 for
    `kmk_of_slopes` and 2 for KMK(0, 1). The denominator is written as
    (u_+ - u_-)^2 / ((sqrt(u_-) + sqrt(u_+))^2 (1 - sqrt(u_- u_+) + sqrt((1 - u_-)(1 - u_+)))),
    a quotient of positive terms, so a narrow support loses no digits."""
    s = math.sqrt(u_minus * u_plus)
    one_minus_s = ((1.0 - u_minus) + u_minus * (1.0 - u_plus)) / (1.0 + s)
    wide = one_minus_s + math.sqrt((1.0 - u_minus) * (1.0 - u_plus))
    return 2.0 * (math.sqrt(u_minus) + math.sqrt(u_plus)) ** 2 * wide / (u_plus - u_minus) ** 2


def outlier_cost(law: EquilibriumLaw, x: float) -> float:
    """The extreme-eigenvalue cost of an outlier at x for the ensemble whose
    limit law is `law`, at the speed of its coefficient-side rate: F_G for
    SC, F_L for MP(tau), and for KMK(u_-, u_+) the integral F_J times the
    law's normalising constant 2/(1 - sqrt(u_- u_+) - sqrt((1 - u_-)(1 - u_+)))
    (2 + kappa1 + kappa2 for `kmk_of_slopes`). The arcsine law on [-2, 2] is
    KMK(0, 1) through `affine_s`: twice F_J of KMK(0, 1)."""
    if law.family is Family.SEMICIRCLE:
        return rate_fg(x)
    if law.family is Family.MARCHENKO_PASTUR:
        return rate_fl(x, law.tau)
    if law.family is Family.KESTEN_MCKAY:
        return _kmk_scale(law.u_minus, law.u_plus) * rate_fj(x, law.u_minus, law.u_plus)
    return 2.0 * rate_fj(float(affine_s(x)), 0.0, 1.0)


def small_g(x: float) -> float:
    """g(x) = x - 1 - log x for 0 < x < inf, +inf otherwise; zero only at 1."""
    if x <= 0.0 or x == INF:
        return INF
    return x - 1.0 - math.log(x)


def big_g(x: float) -> float:
    """G(x) = g(x^2) for x > 0, +inf otherwise."""
    if x <= 0.0:
        return INF
    sq = x * x
    if sq < _TINY_SQUARE:
        # x^2 underflows; beside 1 it is negligible, so G = -1 - 2 log x
        return -1.0 - 2.0 * math.log(x)
    return small_g(sq)


def beta_h(u: float, v: float, q: float) -> float:
    """Rate of beta_s(un + ..., vn + ...) at speed n.

    This is the contraction of the gamma rates in this package's sign
    convention for symmetric-beta variables (mean (b - a)/(b + a), which
    flips q relative to the source display): it is nonnegative, strictly
    convex on (-1, 1) and vanishes exactly at q* = (v - u)/(u + v). The
    source prints q(u-v) - u log(1+q) - v log(1-q), in this convention
    q(v-u) - u log(1-q) - v log(1+q), which differs from h by a function
    affine in q.
    """
    if u <= 0.0 or v <= 0.0:
        raise ParameterError("beta_h needs u, v > 0")
    if not (-1.0 < q < 1.0):
        return INF
    # (u + v) times the relative entropy of Bernoulli((1 - q)/2) against
    # Bernoulli(u/(u + v)), as u g(x) + v g(y) with g(x) = x - log(1 + x) >= 0,
    # 1 + x = (1 - q)(u + v)/(2u) and 1 + y = (1 + q)(u + v)/(2v): no term
    # goes below 0 in floating point. Away from x = 0 the log is taken of the
    # product, which stays accurate as x -> -1 (q -> 1), likewise for y.
    uv = u + v
    t = v - u - q * uv
    x, y = t / (2.0 * u), -t / (2.0 * v)
    lx = math.log1p(x) if abs(x) < 0.5 else math.log1p(-q) + math.log(uv / (2.0 * u))
    ly = math.log1p(y) if abs(y) < 0.5 else math.log1p(q) + math.log(uv / (2.0 * v))
    return u * (x - lx) + v * (y - ly)


def _total(values) -> float:
    total = 0.0
    for t in values:
        total += t
    return total


def _report(labels: list, values: list, truncation: int = 0, flags: list = ()) -> RateReport:
    """The one RateReport builder: each value under its label, their sum left
    to right (`_total`), and the flags, "infinite" appended unless the sum is finite."""
    total = _total(values)
    flags = [*flags, "infinite"] if not math.isfinite(total) else list(flags)
    return RateReport(total, list(zip(labels, values)), truncation, flags)


def _hermite_terms(b: list, a: list) -> list:
    """The terms of `hermite_rate`: b_j^2/2 for each b_j, then G(a_j) for each a_j."""
    return [0.5 * x * x for x in b] + [big_g(x) for x in a]


def hermite_rate(coeffs) -> RateReport:
    """Coefficient-side Hermite rate: sum b_j^2/2 + sum G(a_j) over the given coefficients."""
    b = np.asarray(coeffs.b, dtype=float).tolist()  # float arithmetic, not numpy scalars
    a = np.asarray(coeffs.a, dtype=float).tolist()
    labels = [f"b_{j}^2/2" for j in range(len(b))] + [f"G(a_{j})" for j in range(len(a))]
    return _report(labels, _hermite_terms(b, a), truncation=len(b))


def _laguerre_terms(d: list, s: list, tau: float) -> tuple[list, list]:
    """The labels and terms of `laguerre_rate` for the float lists d and s."""
    labels = [f"G(d_{k})" for k in range(1, len(d) + 1)]
    labels += [f"tau*G(s_{k}/sqrt(tau))" for k in range(1, len(s) + 1)]
    rt = math.sqrt(tau)
    return labels, [big_g(x) for x in d] + [tau * big_g(x / rt) for x in s]


def laguerre_rate(d, s, tau: float) -> RateReport:
    """Laguerre coefficient-side rate: sum G(d_k) + tau * sum G(s_k/sqrt(tau))."""
    if not (0.0 < tau <= 1.0):
        raise ParameterError(f"tau must be in (0, 1], got {tau}")
    d = np.asarray(d, dtype=float).tolist()
    s = np.asarray(s, dtype=float).tolist()
    return _report(*_laguerre_terms(d, s, tau), truncation=len(d))


def jacobi_ensemble_rate(alpha, kappa1: float, kappa2: float) -> RateReport:
    """Verblunsky-side rate of the Jacobi ensemble with slopes (kappa1, kappa2).

    Sums the symmetric-beta rate `beta_h` with (u, v) = (1 + kappa2, 1 + kappa1)
    at even indices and (1 + kappa1 + kappa2, 1) at odd ones, which vanishes
    at the almost-sure limits of the coefficients (sumrule.jacobi_limit_alphas)
    and matches the sampler's even-index mean (kappa1 - kappa2)/(2 + kappa1
    + kappa2). At kappa = 0 it is -sum log(1 - alpha_k^2). The measure side
    it is probed against picks its outlier cost in `outlier_cost`. The rate
    is +inf once some |alpha_k| >= 1; a NaN alpha_k is refused.
    """
    if not (kappa1 >= 0.0 and kappa2 >= 0.0):
        raise ParameterError(f"slopes kappa must be >= 0, got ({kappa1}, {kappa2})")
    vec = np.asarray(alpha.alpha if hasattr(alpha, "alpha") else alpha, dtype=float).tolist()
    if any(map(math.isnan, vec)):
        raise ParameterError(f"Verblunsky coefficients must not be NaN, got {vec}")
    if not all(-1.0 < al < 1.0 for al in vec):
        return RateReport(value=INF, terms=[], truncation=len(vec), flags=["infinite"])
    uv = ((1.0 + kappa2, 1.0 + kappa1), (1.0 + kappa1 + kappa2, 1.0))  # even, odd k
    values = [beta_h(*uv[k % 2], al) for k, al in enumerate(vec)]
    return _report([f"alpha_{k}" for k in range(len(vec))], values, truncation=len(vec))
