"""Exact spectral data for finite-rank perturbations of constant-tail Jacobi
operators, and the sum-rule machinery built on top of it.

The m-function of a TailJacobiModel is a finite continued fraction
terminated by the closed-form transform of the constant tail; its boundary
values give the a.c. density. The zeros of the Jost function of the model
reduced to the free tail give the outliers, their masses and the Kullback
information against the semicircle as exact finite sums (Killip-Simon, Ann.
Math. 158, 2003; Damanik-Simon, Invent. Math. 165, 2006). sumrule_verify
checks the Killip-Simon identity; conjecture_probe evaluates the (unproven)
Laguerre and Jacobi analogues and reports gaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .equilibria import (
    ARCSINE_01,
    SC,
    ChebGrid,
    EquilibriumLaw,
    Family,
    density,
    u_pm,
)
from .errors import DomainError, ParameterError, PoleError
from .jacobi import JacobiCoeffs, VerblunskyCoeffs, affine_s, ds_factorize, geronimus
from .rates import (
    RateReport,
    big_g,
    hermite_rate,
    jacobi_ensemble_rate,
    laguerre_rate,
    rate_fg,
    rate_fj,
    rate_fl,
)

__all__ = [
    "TailJacobiModel",
    "MeasureDecomposition",
    "m_function",
    "ac_density",
    "outliers",
    "decompose",
    "measure_side_rate",
    "sumrule_verify",
    "SumRuleReport",
    "conjecture_probe_laguerre",
    "conjecture_probe_jacobi",
    "ConjectureReport",
    "jacobi_limit_alphas",
]

@dataclass(frozen=True)
class TailJacobiModel:
    """Constant-coefficient Jacobi tail (a_inf, b_inf) with a finite head
    overriding the leading entries.

    head.b overrides b_0..; head.a overrides a_0..; the two override lists
    may have different lengths. The essential spectrum (bulk) is
    [b_inf - 2 a_inf, b_inf + 2 a_inf].
    """

    a_inf: float = 1.0
    b_inf: float = 0.0
    head: JacobiCoeffs = field(default_factory=lambda: JacobiCoeffs(np.empty(0), np.empty(0)))

    def __post_init__(self) -> None:
        if self.a_inf <= 0.0:
            raise ParameterError("tail off-diagonal a_inf must be > 0")

    @property
    def bulk(self) -> tuple[float, float]:
        return (self.b_inf - 2.0 * self.a_inf, self.b_inf + 2.0 * self.a_inf)

    @property
    def head_len(self) -> int:
        return max(len(self.head.b), len(self.head.a))

    def b_at(self, j: int) -> float:
        return float(self.head.b[j]) if j < len(self.head.b) else self.b_inf

    def a_at(self, j: int) -> float:
        return float(self.head.a[j]) if j < len(self.head.a) else self.a_inf

    def coefficients(self, n: int) -> JacobiCoeffs:
        """The n x n truncation."""
        b = np.array([self.b_at(j) for j in range(n)])
        a = np.array([self.a_at(j) for j in range(n - 1)])
        return JacobiCoeffs(b, a)

    def to_json(self) -> dict:
        return {
            "tail": {"a": self.a_inf, "b": self.b_inf},
            "head": self.head.to_json(),
        }

    @staticmethod
    def from_json(obj: dict) -> "TailJacobiModel":
        return TailJacobiModel(
            a_inf=float(obj["tail"]["a"]),
            b_inf=float(obj["tail"]["b"]),
            head=JacobiCoeffs.from_json(obj.get("head", {"b": [], "a": []})),
        )


def _m_free(w):
    """Transform of the free matrix, (-w + sqrt(w^2 - 4))/2, with the branch
    analytic off [-2, 2] and m ~ -1/w at infinity (vectorized, complex).

    Real w outside [-2, 2] give the real Herglotz value; real w inside
    (-2, 2), passed as w + 0j, give the boundary value from above.
    """
    w = np.asarray(w, dtype=complex)
    return 0.5 * (-w + np.sqrt(w - 2.0) * np.sqrt(w + 2.0))


def m_function(model: TailJacobiModel, z, level: int = 0):
    """m_level(z) = <e_1, (J_level - z)^{-1} e_1> of the model stripped
    ``level`` times, by backward continued-fraction recursion from the tail.

    Accepts complex z (vectorized) or real z strictly outside the bulk.
    """
    k = max(model.head_len, level)
    zc = np.asarray(z)
    if np.iscomplexobj(zc) and np.any(zc.imag != 0.0):
        w = (np.asarray(z, dtype=complex) - model.b_inf) / model.a_inf
        m = _m_free(w) / model.a_inf
        for j in range(k - 1, level - 1, -1):
            m = 1.0 / (model.b_at(j) - np.asarray(z, dtype=complex) - model.a_at(j) ** 2 * m)
        return m if m.ndim else complex(m)
    # real axis, outside the bulk
    x = float(z.real if np.iscomplexobj(zc) else z)
    lo, hi = model.bulk
    if lo <= x <= hi:
        raise DomainError(f"real z = {x} lies in the bulk [{lo}, {hi}]")
    m = float(_m_free((x - model.b_inf) / model.a_inf).real) / model.a_inf
    for j in range(k - 1, level - 1, -1):
        den = model.b_at(j) - x - model.a_at(j) ** 2 * m
        # a zero denominator is a pole of this stripping level; the limit of
        # the next level is 0, which 1/inf reproduces
        m = math.inf if den == 0.0 else 1.0 / den
    if not math.isfinite(m):
        raise PoleError(f"z = {x} is an eigenvalue of the operator")
    return m


def ac_density(model: TailJacobiModel, x):
    """Lebesgue density of the a.c. part at x inside the open bulk:
    Im m(x + i0)/pi with the exact tail boundary value (vectorized)."""
    xs = np.asarray(x, dtype=float)
    lo, hi = model.bulk
    if np.any((xs <= lo) | (xs >= hi)):
        raise DomainError("ac_density is defined strictly inside the bulk")
    m = _m_free((xs - model.b_inf) / model.a_inf + 0j) / model.a_inf
    for j in range(model.head_len - 1, -1, -1):
        m = 1.0 / (model.b_at(j) - xs - model.a_at(j) ** 2 * m)
    out = np.imag(m) / math.pi
    return float(out) if out.ndim == 0 else out


# A real Jost root this close to the unit circle (1 < |w| <= 1 + delta) would
# be an eigenvalue within about delta^2 * a_inf = 1e-12 * a_inf of the band
# edge. Rounding of a threshold resonance (|w| = 1) lands there as well, so
# such roots are reported as edge resonances and not counted as outliers.
JOST_EDGE_DELTA = 1e-6


@dataclass(frozen=True)
class _JostRoots:
    """Roots w = 1/z of the Jost function of the model reduced to the free
    tail, u(z) = prod(1 - z w) / prod(a_j), and what follows from them."""

    w: np.ndarray  # all 2K roots, complex
    log_a: float  # sum of log a_j over the reduced head
    outlier_list: list  # (E, mass), sorted by E
    edge_resonances: list  # E of the real roots with 1 < |w| <= 1 + delta

    def kullback_sc(self) -> float:
        """K(SC | nu) exactly. rho_nu(2 cos t) = sin t / (pi |u(e^{it})|^2),
        so K is the semicircle integral of log|u|^2, whose Fourier
        coefficients give 2 [sum_{|w|>1} log|w| - sum log a_j]
        + 1/2 [sum_{|w|<=1} Re w^2 + sum_{|w|>1} Re w^-2]."""
        w = self.w
        out = np.abs(w) > 1.0
        val = 2.0 * (float(np.sum(np.log(np.abs(w[out])))) - self.log_a)
        val += 0.5 * float(np.sum((w[~out] ** 2).real) + np.sum((w[out] ** -2.0).real))
        return val


def _jost(model: TailJacobiModel) -> _JostRoots:
    """Reduce the model to the free tail, (J - b_inf)/a_inf, with K = head
    length. A solution equal to w^{-n} on the tail solves J u = (w + 1/w) u
    iff its head v = (u_0..u_{K-1}) solves the quadratic eigenproblem
    (w^2 I - w J_K - M) v = 0, M = a_{K-1}^2 e_K e_K^T - I. Its 2K roots come
    from the companion matrix; the real ones with |w| > 1 are the outliers
    E = b_inf + a_inf (w + 1/w), the ell^2 eigenvectors.

    Complex roots are never outliers: the operator is self-adjoint, and a
    complex root just outside the circle is a resonance pushed there by
    rounding.
    """
    k = model.head_len
    if k == 0:
        return _JostRoots(np.empty(0, dtype=complex), 0.0, [], [])
    b = (np.array([model.b_at(j) for j in range(k)]) - model.b_inf) / model.a_inf
    a = np.array([model.a_at(j) for j in range(k)]) / model.a_inf
    comp = np.zeros((2 * k, 2 * k))
    comp[:k, k:] = np.eye(k)
    comp[k:, :k] = -np.eye(k)
    comp[-1, k - 1] += a[-1] ** 2
    comp[k:, k:] = np.diag(b) + np.diag(a[:-1], 1) + np.diag(a[:-1], -1)
    w, vecs = np.linalg.eig(comp)
    real = w.imag == 0.0
    mag = np.abs(w)
    bound = real & (mag > 1.0 + JOST_EDGE_DELTA)
    wr = w[bound].real
    v = vecs[:k, bound].real
    # ||u||^2 of the eigenvector: the head plus the geometric tail
    # u_{K+j} = u_K w^{-j}, u_K = a_{K-1} v_{K-1} / w
    tail = (a[-1] * v[-1] / wr) ** 2 / (1.0 - wr**-2.0)
    mass = v[0] ** 2 / (np.sum(v * v, axis=0) + tail)
    energy = model.b_inf + model.a_inf * (wr + 1.0 / wr)
    edge = w[real & (mag > 1.0) & ~bound].real
    return _JostRoots(
        w=w,
        log_a=float(np.sum(np.log(a))),
        outlier_list=sorted(zip(energy.tolist(), mass.tolist())),
        edge_resonances=sorted((model.b_inf + model.a_inf * (edge + 1.0 / edge)).tolist()),
    )


def outliers(model: TailJacobiModel):
    """All isolated eigenvalues outside the bulk, with their masses, sorted:
    the real Jost roots outside the unit circle, from one eigensolve."""
    return _jost(model).outlier_list


@dataclass
class MeasureDecomposition:
    """A.c. density on the bulk plus ordered outliers with masses."""

    bulk: tuple[float, float]
    ac: object  # callable density relative to Lebesgue on the open bulk
    outlier_list: list
    n_plus: int
    n_minus: int

    @property
    def outliers_above(self):
        return sorted((e, m) for e, m in self.outlier_list if e > self.bulk[1])

    @property
    def outliers_below(self):
        return sorted((e, m) for e, m in self.outlier_list if e < self.bulk[0])

    def total_mass(self, n: int = 8192) -> float:
        lo, hi = self.bulk
        grid = ChebGrid.for_interval(lo, hi, n)
        ac_mass = float(np.dot(grid.weights, self.ac(grid.nodes)))
        return ac_mass + sum(m for _, m in self.outlier_list)


def decompose(model: TailJacobiModel) -> MeasureDecomposition:
    outs = outliers(model)
    lo, hi = model.bulk
    above = [e for e, _ in outs if e > hi]
    below = [e for e, _ in outs if e < lo]
    return MeasureDecomposition(
        bulk=model.bulk,
        ac=lambda x: ac_density(model, x),
        outlier_list=outs,
        n_plus=len(above),
        n_minus=len(below),
    )


def _kullback_quadrature(reference: EquilibriumLaw, model_density, n: int) -> float:
    """K(reference | nu) by n-node Chebyshev quadrature on the reference
    support, with nu's a.c. density given there by model_density."""
    lo, hi = reference.support
    grid = ChebGrid.for_interval(lo, hi, n)
    px = density(reference, grid.nodes)
    qx = model_density(grid.nodes)
    if np.any(qx <= 0.0):
        return math.inf
    return float(np.dot(grid.weights, px * (np.log(px) - np.log(qx))))


def _outlier_terms(roots: _JostRoots, cost, label: str, to_x=lambda e: e):
    """Outlier cost terms and the edge-resonance flags."""
    terms = []
    for e, _ in roots.outlier_list:
        x = to_x(e)
        terms.append((f"{label}({x:.12g})", cost(x)))
    flags = [
        f"edge resonance at {to_x(e):.12g}: Jost root within {JOST_EDGE_DELTA:g} "
        "of the unit circle, not counted as an outlier"
        for e in roots.edge_resonances
    ]
    return terms, flags


def _measure_side(
    model: TailJacobiModel, reference: EquilibriumLaw, n: int, roots: _JostRoots
) -> RateReport:
    lo, hi = model.bulk
    rlo, rhi = reference.support
    if abs(lo - rlo) > 1e-9 or abs(hi - rhi) > 1e-9:
        raise ParameterError(
            f"reference support [{rlo}, {rhi}] does not match model bulk [{lo}, {hi}]"
        )
    if reference.family is Family.SEMICIRCLE:
        cost = rate_fg
        kterm = roots.kullback_sc()
        n = 0
    else:
        if reference.family is Family.MARCHENKO_PASTUR:
            cost = lambda e: rate_fl(e, reference.tau)
        else:
            cost = lambda e: rate_fj(e, rlo, rhi)
        kterm = _kullback_quadrature(reference, lambda x: ac_density(model, x), n)
    terms, flags = _outlier_terms(roots, cost, "F")
    terms.insert(0, ("kullback", kterm))
    total = sum(t for _, t in terms)
    if not math.isfinite(total):
        flags.append("infinite")
    return RateReport(value=total, terms=terms, truncation=n, tail_bound=0.0, flags=flags)


def measure_side_rate(
    model: TailJacobiModel, reference: EquilibriumLaw, n: int = 8192
) -> RateReport:
    """Measure-side rate K(reference | nu) + sum of outlier costs.

    reference must share its support with the model bulk: SC for the free
    tail, MP(tau) for the Laguerre tail. Against SC the Kullback term is the
    exact Jost-root sum (truncation 0); against other references it is an
    n-node quadrature. Outliers are always the exact Jost roots.
    """
    return _measure_side(model, reference, n, _jost(model))


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
    exact finite sums."""
    if model.a_inf != 1.0 or model.b_inf != 0.0:
        raise ParameterError("sumrule_verify requires the free (SC) tail")
    jacobi_side = hermite_rate(model.head).value
    roots = _jost(model)
    measure = _measure_side(model, SC, 0, roots)
    gap = jacobi_side - measure.value
    if math.isinf(jacobi_side) and math.isinf(measure.value):
        gap = 0.0
    return SumRuleReport(
        jacobi_side=jacobi_side,
        measure_side=measure.value,
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


def conjecture_probe_laguerre(
    model: TailJacobiModel, tau: float, n_coeff: int = 2000, n_quad: int = 2048
) -> ConjectureReport:
    """Laguerre conjecture: sum G(d_k) + tau sum G(s_k/sqrt(tau)) against
    K(MP(tau) | nu) + sum F_L(E_j). Requires the MP(tau) tail."""
    rt = math.sqrt(tau)
    if abs(model.a_inf - rt) > 1e-12 or abs(model.b_inf - (1.0 + tau)) > 1e-12:
        raise ParameterError(f"model tail must be (sqrt(tau), 1+tau) for tau = {tau}")
    coeffs = model.coefficients(n_coeff)
    d, s = ds_factorize(coeffs)
    coeff_report = laguerre_rate(d, s, tau, check_tau1_identity=False)
    # tail estimate from the last computed terms of the factorization
    tail_terms = [big_g(dk) for dk in d[-10:]] + [tau * big_g(sk / rt) for sk in s[-10:]]
    coeff_report.tail_bound = float(n_coeff * max(tail_terms)) if tail_terms else 0.0
    mp = EquilibriumLaw(Family.MARCHENKO_PASTUR, tau=tau)
    measure_report = measure_side_rate(model, mp, n=n_quad)
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


def conjecture_probe_jacobi(
    alpha_head,
    kappa1: float,
    kappa2: float,
    n_pairs: int = 300,
    n_quad: int = 2048,
) -> ConjectureReport:
    """Jacobi-ensemble conjecture: Verblunsky-side rate against
    K(KMK | nu) + sum F_J(E_j) after mapping the spectrum to [0, 1].

    alpha_head is a finite Verblunsky prefix (package convention); the
    sequence is extended by the limiting values, producing a constant-tail
    Jacobi model through the Geronimus relations.
    """
    head = np.asarray(
        alpha_head.alpha if isinstance(alpha_head, VerblunskyCoeffs) else alpha_head,
        dtype=float,
    )
    al_even, al_odd = jacobi_limit_alphas(kappa1, kappa2)
    total_len = 2 * n_pairs - 1
    alpha = np.array(
        [
            head[k] if k < len(head) else (al_even if k % 2 == 0 else al_odd)
            for k in range(total_len)
        ]
    )
    coeff_report = jacobi_ensemble_rate(alpha, kappa1, kappa2)

    # constant-tail model via Geronimus: coefficients settle once past the head
    head_span = len(head) // 2 + 2
    full = geronimus(VerblunskyCoeffs(alpha), head_span + 4)
    a_star = math.sqrt((1.0 - al_odd**2) * (1.0 - al_even**2))
    b_star = -2.0 * al_odd * al_even
    model = TailJacobiModel(
        a_inf=a_star,
        b_inf=b_star,
        head=JacobiCoeffs(full.b[:head_span], full.a[:head_span]),
    )
    d = 2.0 + kappa1 + kappa2
    if kappa1 == 0.0 and kappa2 == 0.0:
        reference = ARCSINE_01
        u_minus, u_plus = 0.0, 1.0
    else:
        u_minus, u_plus = u_pm((1.0 + kappa1) / d, (1.0 + kappa1 + kappa2) / d)
        reference = EquilibriumLaw(Family.KESTEN_MCKAY, u_minus=u_minus, u_plus=u_plus)

    # Kullback term on [0, 1]: the model lives on [-2, 2], push through s
    kterm = _kullback_quadrature(
        reference, lambda x: 4.0 * ac_density(model, 4.0 * x - 2.0), n_quad
    )
    cost = lambda eu: rate_fj(eu, u_minus, u_plus) if 0.0 < eu < 1.0 else math.inf
    terms, flags = _outlier_terms(_jost(model), cost, "F_J", lambda e: float(affine_s(e)))
    terms.insert(0, ("kullback", kterm))
    measure_report = RateReport(
        value=sum(t for _, t in terms), terms=terms, truncation=n_quad, flags=flags
    )
    return ConjectureReport(
        family="jacobi_kn",
        coefficient_side=coeff_report,
        measure_side=measure_report,
        gap=coeff_report.value - measure_report.value,
    )
