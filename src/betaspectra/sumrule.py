"""Exact spectral data for finite-rank perturbations of constant-tail Jacobi
operators, and the sum-rule machinery built on top of it.

The zeros of the Jost function of a TailJacobiModel reduced to the free tail
give the outliers, their masses and the Kullback information against any
reference law (itself a one-term head on the same tail) as exact finite
sums (Killip-Simon, Ann. Math. 158, 2003; Damanik-Simon, Invent. Math. 165,
2006). sumrule_verify checks the Killip-Simon identity; the conjecture
probes evaluate the (unproven) Laguerre and Jacobi analogues (Gamboa-Nagel-
Rouault, J. Funct. Anal. 270, 2016) and report gaps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .equilibria import (
    SC,
    EquilibriumLaw,
    Family,
    TailJacobiModel,
    ac_density,
    kmk_of_slopes,
    m_function,
)
from .errors import NotPositiveDefiniteError, ParameterError
from .jacobi import PIVMIN, JacobiCoeffs, VerblunskyCoeffs, ds_factorize, geronimus
from .rates import (
    RateReport,
    _hermite_terms,
    jacobi_ensemble_rate,
    laguerre_rate,
    outlier_cost,
)

__all__ = [
    "TailJacobiModel",
    "m_function",
    "ac_density",
    "outliers",
    "measure_side_rate",
    "sumrule_verify",
    "SumRuleReport",
    "conjecture_probe_laguerre",
    "conjecture_probe_jacobi",
    "ConjectureReport",
    "jacobi_limit_alphas",
]

# A real Jost root this close to the unit circle (1 < |w| <= 1 + delta) would
# be an eigenvalue within about delta^2 * a_inf = 1e-12 * a_inf of the band
# edge. Rounding of a threshold resonance (|w| = 1) lands there as well, so
# such roots are reported as edge resonances and not counted as outliers.
JOST_EDGE_DELTA = 1e-6


@dataclass(frozen=True)
class _JostRoots:
    """Roots w = 1/z of the Jost function of the model reduced to the free
    tail, u(z) = prod(1 - z w) / prod(a_j), and what follows from them."""

    zeta: list  # each of the 2K roots w, or 1/w outside the unit circle
    c0: float  # log|u|^2 averaged over the circle: 2 [sum_{|w|>1} log|w| - sum log a_j]
    outlier_list: list  # (E, mass), sorted by E
    edge_resonances: list  # E of the real roots with 1 < |w| <= 1 + delta

    def kullback(self, reference: EquilibriumLaw) -> float:
        """K(reference | nu) exactly, for nu with the reference's tail.

        On the free tail E = 2 cos t, both densities are sin t/(pi |u|^2) on
        the circle: u of nu here, u_ref(z) = (1 - w_0 z)(1 - w_1 z)/a_0 with
        w_0, w_1 the reference's `jost_roots`, so K is the reference integral
        of log|u|^2 - log|u_ref|^2. With zeta = w inside the circle and 1/w
        outside, log|u|^2 = c_0 + sum log|1 - zeta z|^2, and each log
        integrates to -Re Phi(zeta) (`_phi`):
        K = c_0 - c_0(ref) - sum Re Phi(zeta) + Phi(w_0) + Phi(w_1).
        """
        w0, w1 = reference.jost_roots
        phi = sum(_phi(w0, w1, z) for z in self.zeta)
        c0_ref = -math.log1p(-w0 * w1)
        return self.c0 - c0_ref - phi + (_phi(w0, w1, w0) + _phi(w0, w1, w1))


# 1/(k + 2), k = 0..26: the coefficients of the series in _log1p_minus_id
_SERIES = tuple(1.0 / (k + 2) for k in range(27))
_LN_EPS = 53.0 * math.log(2.0)


def _log1p_minus_id(t: complex) -> float:
    """Re[log(1 + t) - t] for complex t inside the unit circle.

    Up to |t| = 1/4 the two terms cancel to -t^2/2, so there it is the
    Taylor series -t^2 sum_k (-t)^k/(k + 2), cut where |t|^k falls below
    2^-53 (27 terms at |t| = 1/4); beyond, the logarithm itself.
    """
    m = abs(t)
    if m > 0.25:
        return math.log(abs(1.0 + t)) - t.real
    if m == 0.0:
        return 0.0
    acc = 0.0
    for c in reversed(_SERIES[: math.ceil(_LN_EPS / -math.log(m))]):
        acc = acc * -t + c
    return (-t * t * acc).real


def _phi(w0: float, w1: float, z: complex) -> float:
    """Re Phi(z) of the reference with reduced Jost roots w0, w1, for z in
    the closed unit disc.

    Phi(z) = sum_n c_n z^n/n, c_n = 2 int cos(n t) d(reference) the n-th
    Chebyshev moment, so Phi' = (b_0 - (2 - a_0^2) s)/(1 - b_0 s + (1 - a_0^2) s^2)
    for the reduced head, b_0 = w0 + w1 and 1 - a_0^2 = w0 w1. By partial
    fractions Phi(z) = b_0 z + (g(w0) - g(w1))/(w0 - w1) with
    g(w) = (1 - w^2)/w [log(1 - w z) + w z], g(0) = 0. A hard-edge root
    w = -+1 has g = 0 exactly: its factor 1 - w^2 is 0 where the logarithm
    may be infinite. The semicircle's double root 0 gives Phi = -z^2/2.
    """
    if w0 == w1:
        return -0.5 * (z * z).real

    def g(w: float) -> float:
        if w == 0.0 or w * w == 1.0:
            return 0.0
        return (1.0 - w * w) / w * _log1p_minus_id(-w * z)

    return (w0 + w1) * z.real + (g(w0) - g(w1)) / (w0 - w1)


def _lift(pivot: float) -> float:
    """Pivots below PIVMIN in magnitude, exact zeros among them, become -PIVMIN."""
    return pivot if abs(pivot) >= PIVMIN else -PIVMIN


def _outlier_mass(b: list, a: list, w: float) -> float:
    """Mass of the outlier at the real reduced Jost root w, |w| > 1, of the
    reduced head b_0..b_{K-1}, a_0..a_{K-1}: the squared first component of
    its unit eigenvector u.

    On the tail u_{K+j} = u_K w^-j with u_K = a_{K-1} u_{K-1}/w, so the
    head of u is a null vector of the K x K section minus E = w + 1/w with
    the tail's Schur complement a_{K-1}^2/w added to its last diagonal
    entry. One twisted factorisation gives it in O(K) (Dhillon-Parlett,
    LAA 387, 2004): forward pivots d_i, backward pivots p_i, the twist at
    r = argmin |gamma_r|, gamma_r = d_r - a_r^2/p_{r+1}, the rule of
    `jacobi._twisted_weights`, and u_r = 1 there. The geometric tail
    u_K^2/(1 - w^-2) is added to |u|^2 after.
    """
    k = len(b)
    e = w + 1.0 / w
    diag = [bj - e for bj in b]
    diag[-1] += a[-1] * a[-1] / w
    a2 = [x * x for x in a]
    d = diag[:]
    for i in range(k):
        if i:
            d[i] -= a2[i - 1] / d[i - 1]
        d[i] = _lift(d[i])
    p = diag[:]
    best, r, g = math.inf, k - 1, 0.0  # g = a_i^2 / p_{i+1}, 0 on the last row
    for i in range(k - 1, -1, -1):
        if abs(d[i] - g) < best:
            best, r = abs(d[i] - g), i
        p[i] = _lift(diag[i] - g)
        g = a2[i - 1] / p[i] if i else 0.0
    u = [0.0] * k
    u[r] = 1.0
    for i in range(r - 1, -1, -1):
        u[i] = -a[i] * u[i + 1] / d[i]
    for i in range(r + 1, k):
        u[i] = -a[i - 1] * u[i - 1] / p[i]
    tail = (a[-1] * u[-1] / w) ** 2 / (1.0 - w**-2.0)
    return u[0] * u[0] / (sum(x * x for x in u) + tail)


@functools.lru_cache(maxsize=64)
def _companion_slots(k: int) -> np.ndarray:
    """Flat indices, in the 2K x 2K companion matrix of `_jost`, of the
    diagonal of its upper right block, the diagonal of its lower left block
    (the last entry apart), that last entry, and the diagonal, the super-
    and the subdiagonal of its lower right block."""
    n = 2 * k
    flat = np.arange(n * n)
    low = n * k + k
    return np.concatenate([
        flat[k : n * k : n + 1],
        flat[n * k : n * n - k - 1 : n + 1],
        [n * n - k - 1],
        flat[low :: n + 1],
        flat[low + 1 :: n + 1],
        flat[low + n :: n + 1],
    ])


def _jost(model: TailJacobiModel) -> _JostRoots:
    """Jost roots of the model reduced to the free tail, (J - b_inf)/a_inf,
    with K = head length: eigenvalues only; masses by twisted factorisation.

    A solution equal to w^{-n} on the tail solves J u = (w + 1/w) u iff its
    head v = (u_0..u_{K-1}) solves the quadratic eigenproblem
    (w^2 I - w J_K - M) v = 0, M = a_{K-1}^2 e_K e_K^T - I. Its 2K roots are
    the eigenvalues of the companion matrix; the real ones with |w| > 1 are
    the outliers E = b_inf + a_inf (w + 1/w), the ell^2 eigenvectors, whose
    masses come from `_outlier_mass`.

    Complex roots are never outliers: the operator is self-adjoint, and a
    complex root just outside the circle is a resonance pushed there by
    rounding. The head is read once, as float lists padded with the reduced
    tail (0 and 1); a reduced entry b or a^2 that overflows, or an a that
    underflows to 0, is refused before the companion matrix is built.
    """
    k = model.head_len
    if k == 0:
        return _JostRoots([], 0.0, [], [])
    b_inf, a_inf = model.b_inf, model.a_inf
    head_b, head_a = model.head.b.tolist(), model.head.a.tolist()
    b = [(x - b_inf) / a_inf for x in head_b] + [0.0] * (k - len(head_b))
    a = [x / a_inf for x in head_a] + [1.0] * (k - len(head_a))
    if max(map(abs, b)) == math.inf:
        raise ParameterError("head entry (b - b_inf)/a_inf overflows")
    if max(a) * max(a) == math.inf:
        raise ParameterError(f"head entry a/a_inf = {max(a)!r} overflows when squared")
    if min(a) == 0.0:
        raise ParameterError("head entry a/a_inf underflows to 0")
    n = 2 * k
    comp = np.zeros(n * n)
    # the blocks [[0, I], [M, J_K]] in one scatter
    off = a[:-1]
    comp[_companion_slots(k)] = [1.0] * k + [-1.0] * (k - 1) + [a[-1] ** 2 - 1.0] + b + off + off
    zeta, outs, edge = [], [], []
    log_out = 0.0  # sum of log|w| over the roots outside the circle
    for w in np.linalg.eigvals(comp.reshape(n, n)).tolist():
        mag = abs(w)
        if mag <= 1.0:
            zeta.append(w)
            continue
        zeta.append(1.0 / w)
        log_out += math.log(mag)
        if w.imag != 0.0:
            continue
        x = w.real
        energy = b_inf + a_inf * (x + 1.0 / x)
        if mag > 1.0 + JOST_EDGE_DELTA:
            outs.append((energy, _outlier_mass(b, a, x)))
        else:
            edge.append(energy)
    return _JostRoots(
        zeta=zeta,
        c0=2.0 * (log_out - sum(map(math.log, a))),
        outlier_list=sorted(outs),
        edge_resonances=sorted(edge),
    )


def outliers(model: TailJacobiModel):
    """All isolated eigenvalues outside the bulk, with their masses, sorted:
    the real Jost roots outside the unit circle, from the eigenvalues of one
    companion matrix and a twisted factorisation per outlier."""
    return _jost(model).outlier_list


def _measure_terms(reference: EquilibriumLaw, roots: _JostRoots) -> tuple[list, float]:
    """The terms of the measure side, K(reference | nu) and then the cost of
    each outlier in the order of roots.outlier_list, and their sum."""
    terms = [roots.kullback(reference)]
    terms += [outlier_cost(reference, e) for e, _ in roots.outlier_list]
    return terms, sum(terms)


def _measure_side(
    model: TailJacobiModel, reference: EquilibriumLaw, roots: _JostRoots
) -> RateReport:
    lo, hi = model.bulk
    rlo, rhi = reference.edges
    if abs(lo - rlo) > 1e-9 or abs(hi - rhi) > 1e-9:
        raise ParameterError(
            f"reference support [{rlo}, {rhi}] does not match model bulk [{lo}, {hi}]"
        )
    values, total = _measure_terms(reference, roots)
    labels = ["kullback"] + [f"F({e:.12g})" for e, _ in roots.outlier_list]
    flags = [
        f"edge resonance at {e:.12g}: Jost root within {JOST_EDGE_DELTA:g} "
        "of the unit circle, not counted as an outlier"
        for e in roots.edge_resonances
    ]
    if not math.isfinite(total):
        flags.append("infinite")
    return RateReport(value=total, terms=list(zip(labels, values)), truncation=0, flags=flags)


def measure_side_rate(model: TailJacobiModel, reference: EquilibriumLaw) -> RateReport:
    """Measure-side rate K(reference | nu) + sum of outlier costs, both exact
    finite sums over the Jost roots of the model (truncation 0).

    reference must share its support with the model bulk: SC for the free
    tail, MP(tau) for the Laguerre tail, KMK(u_-, u_+) for the Jacobi tail on
    [0, 1]. Its family picks the outlier cost (`rates.outlier_cost`).
    """
    return _measure_side(model, reference, _jost(model))


@dataclass
class SumRuleReport:
    jacobi_side: float
    measure_side: float
    gap: float
    outlier_list: list

    def to_json(self) -> dict:
        return {
            "jacobi_side": self.jacobi_side,
            "measure_side": self.measure_side,
            "gap": self.gap,
            "outliers": [[e, m] for e, m in self.outlier_list],
        }


def sumrule_verify(model: TailJacobiModel) -> SumRuleReport:
    """Killip-Simon check for a free-tail model: coefficient side
    sum b_j^2/2 + sum G(a_j) against K(SC|nu) + sum F_G(E_j), both sides
    exact finite sums. Each side is summed from the head and the Jost roots
    as `hermite_rate` and `measure_side_rate` sum it, with no per-term
    report."""
    if model.a_inf != 1.0 or model.b_inf != 0.0:
        raise ParameterError("sumrule_verify requires the free (SC) tail")
    roots = _jost(model)
    _, jacobi_side = _hermite_terms(model.head.b.tolist(), model.head.a.tolist())
    _, measure_side = _measure_terms(SC, roots)
    gap = jacobi_side - measure_side
    if math.isinf(jacobi_side) and math.isinf(measure_side):
        gap = 0.0
    return SumRuleReport(
        jacobi_side=jacobi_side,
        measure_side=measure_side,
        gap=gap,
        outlier_list=roots.outlier_list,
    )


@dataclass
class ConjectureReport:
    """Gap report for an unproven sum rule. Never a pass/fail verdict."""

    family: str
    coefficient_side: RateReport
    measure_side: RateReport
    gap: float
    label: str = "CONJECTURE"

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "family": self.family,
            "coefficient_side": self.coefficient_side.to_json(),
            "measure_side": self.measure_side.to_json(),
            "gap": self.gap,
        }


def conjecture_probe_laguerre(model: TailJacobiModel, tau: float) -> ConjectureReport:
    """Laguerre conjecture: sum G(d_k) + tau sum G(s_k/sqrt(tau)), k >= 1, against
    K(MP(tau) | nu) + sum F_L(E_j) (`measure_side_rate`); both sides exact.

    Past row K = max(len(head.a), len(head.b) - 1) of the MP(tau) tail,
    x_k = d_k^2 follows x_{k+1} = 1 + tau - tau/x_k, the k-th pair of terms is
    x_k - x_{k+1} - (1 - tau) log x_k and x_{K+1}...x_k = 1 + u - u tau^(k-K),
    so the pairs past K sum to (1 - tau)(u - log1p u), u = (x_{K+1} - 1)/(1 - tau),
    or x_{K+1} - 1 at tau = 1: +inf at x_{K+1} = tau, not positive definite below.
    """
    if not (0.0 < tau <= 1.0):
        raise ParameterError(f"tau must be in (0, 1], got {tau}")
    if abs(model.a_inf - math.sqrt(tau)) > 1e-12 or abs(model.b_inf - (1.0 + tau)) > 1e-12:
        raise ParameterError(f"model tail must be (sqrt(tau), 1+tau) for tau = {tau}")
    k = max(len(model.head.a), len(model.head.b) - 1)
    d, s = ds_factorize(model.coefficients(k + 1))
    x = model.b_at(k) - (s[k - 1] ** 2 if k else 0.0)  # d_{K+1}^2, the pivot itself
    if x < tau:
        raise NotPositiveDefiniteError(f"tail pivots turn negative: d_{k + 1}^2 = {x} < tau")
    tail = x - 1.0  # (1 - tau) u, the whole tail at tau = 1
    if tau < 1.0:  # minus (1 - tau) log(1 + u), with 1 + u = (x - tau)/(1 - tau) exact near tau
        tail = tail - (1.0 - tau) * math.log((x - tau) / (1.0 - tau)) if x > tau else math.inf
    coeff_report = laguerre_rate(d[:k], s, tau)
    coeff_report.terms.append((f"tail: G(d_k) + tau*G(s_k/sqrt(tau)), k > {k}", tail))
    coeff_report.value += tail
    if math.isinf(tail):
        coeff_report.flags.append("infinite")
    measure_report = measure_side_rate(model, EquilibriumLaw(Family.MARCHENKO_PASTUR, tau=tau))
    return ConjectureReport(
        family="laguerre",
        coefficient_side=coeff_report,
        measure_side=measure_report,
        gap=coeff_report.value - measure_report.value,
    )


def jacobi_limit_alphas(kappa1: float, kappa2: float) -> tuple[float, float]:
    """Almost-sure limits of the even/odd Verblunsky coefficients under the
    package's symmetric-beta convention (mean (b - a)/(b + a)).

    Note the even-index limit is the sign flip of the one displayed in the
    source analysis; the flipped value is the one consistent with the
    Kesten-McKay support geometry.
    """
    d = 2.0 + kappa1 + kappa2
    return (kappa1 - kappa2) / d, -(kappa1 + kappa2) / d


def conjecture_probe_jacobi(alpha_head, kappa1: float, kappa2: float) -> ConjectureReport:
    """Jacobi-ensemble conjecture: Verblunsky-side rate against
    K(KMK | nu) + sum F_J(E_j) on [0, 1].

    alpha_head is a finite Verblunsky prefix (package convention); the
    sequence continues with the limiting values, whose rate terms are 0, so
    the coefficient side sums the head alone. Through the Geronimus relations
    the sequence is a constant-tail Jacobi model on [-2, 2], mapped to [0, 1]
    (b -> (b + 2)/4, a -> a/4); the measure side is `measure_side_rate`
    against the KMK law of the slopes (`kmk_of_slopes`), exact (truncation 0).
    """
    head = np.asarray(
        alpha_head.alpha if isinstance(alpha_head, VerblunskyCoeffs) else alpha_head,
        dtype=float,
    )
    coeff_report = jacobi_ensemble_rate(head, kappa1, kappa2)

    # the Jacobi coefficients equal the tail from index len(head)//2 + 2 on
    span = len(head) // 2 + 2
    al_even, al_odd = jacobi_limit_alphas(kappa1, kappa2)
    alpha = np.where(np.arange(2 * span + 1) % 2 == 0, al_even, al_odd)
    alpha[: len(head)] = head
    full = geronimus(VerblunskyCoeffs(alpha), span + 1)
    b, a = 0.25 * (full.b + 2.0), 0.25 * full.a  # b_span and a_{span-1} are the tail
    model = TailJacobiModel(a_inf=a[-1], b_inf=b[-1], head=JacobiCoeffs(b[:-1], a[:-1]))
    measure_report = measure_side_rate(model, kmk_of_slopes(kappa1, kappa2))
    return ConjectureReport(
        family="jacobi_kn",
        coefficient_side=coeff_report,
        measure_side=measure_report,
        gap=coeff_report.value - measure_report.value,
    )
