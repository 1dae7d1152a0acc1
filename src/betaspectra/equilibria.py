"""Reference laws as constant-tail Jacobi models.

A TailJacobiModel is a Jacobi operator with a finite head on a constant
tail; its m-function is a finite continued fraction ended by the closed-form
transform of the tail, whose boundary values give the a.c. density. Each of
the semicircle, Marchenko-Pastur, Kesten-McKay and arcsine laws is such a
model with a one-term head, so their densities, Cauchy-Stieltjes transforms
(Herglotz branch), supports and exact moments are those of the model. Also
here: the KMK law of the Jacobi ensemble's slopes (`kmk_of_slopes`), and the
Gauss-Chebyshev rule on which the moment-constrained dual integrates against
the semicircle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DomainError, ParameterError, PoleError, read_fields, refuse_foreign
from .jacobi import JacobiCoeffs, jacobi_moments

__all__ = [
    "Family",
    "EquilibriumLaw",
    "TailJacobiModel",
    "ChebGrid",
    "m_function",
    "ac_density",
    "density",
    "stieltjes",
    "moment",
    "sigma_pm",
    "u_pm",
    "kmk_of_slopes",
    "SC",
    "ARCSINE_SYM",
    "ARCSINE_01",
    "mp_edges",
]


class Family(str, Enum):
    SEMICIRCLE = "sc"
    MARCHENKO_PASTUR = "mp"
    KESTEN_MCKAY = "kmk"
    ARCSINE = "arcsine"


def mp_edges(tau: float) -> tuple[float, float]:
    """Support endpoints a(tau) = (1-sqrt(tau))^2, b(tau) = (1+sqrt(tau))^2."""
    rt = math.sqrt(tau)
    return (1.0 - rt) ** 2, (1.0 + rt) ** 2


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
        if not (math.isfinite(self.a_inf) and math.isfinite(self.b_inf)):
            raise ParameterError(f"tail a_inf, b_inf must be finite, got {self.a_inf}, {self.b_inf}")
        if self.a_inf <= 0.0:
            raise ParameterError("tail off-diagonal a_inf must be > 0")
        object.__setattr__(self, "a_inf", float(self.a_inf))  # not a numpy scalar
        object.__setattr__(self, "b_inf", float(self.b_inf))

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
        fields = read_fields(obj, "model", {"tail": _read_tail, "head": JacobiCoeffs.from_json},
                             ("tail",))
        return TailJacobiModel(**fields.pop("tail"), **fields)


def _read_tail(obj) -> dict:
    tail = read_fields(obj, "model tail", {"a": float, "b": float}, ("a", "b"))
    return {"a_inf": tail["a"], "b_inf": tail["b"]}


@np.errstate(divide="ignore")
def _m(model: TailJacobiModel, z: np.ndarray) -> np.ndarray:
    """m(z) by backward recursion from the tail's m: its Herglotz value off
    the bulk (real at real z) and, at real z inside the open bulk, its
    boundary value from above, taken from the distances to the edges so that
    it stays accurate next to them. Real z lie all inside or all off it."""
    lo, hi = model.bulk
    if np.iscomplexobj(z) or not np.any((lo < z) & (z < hi)):
        # the free matrix's (-w + sqrt(w^2 - 4))/2, analytic off [-2, 2], ~ -1/w
        w = np.asarray((z - model.b_inf) / model.a_inf, dtype=complex)
        m = 0.5 * (-w + np.sqrt(w - 2.0) * np.sqrt(w + 2.0))
        m = (m if np.iscomplexobj(z) else m.real) / model.a_inf
    else:
        m = (model.b_inf - z + 1j * np.sqrt((hi - z) * (z - lo))) / (2.0 * model.a_inf**2)
    for j in range(model.head_len - 1, -1, -1):
        # a zero denominator is a pole of this stripping level; the limit of
        # the next level is 0, which 1/inf reproduces
        m = 1.0 / (model.b_at(j) - z - model.a_at(j) ** 2 * m)
    return m


def m_function(model: TailJacobiModel, z):
    """m(z) = <e_1, (J - z)^{-1} e_1> (vectorized), by backward continued-fraction recursion from the tail.

    Takes real or complex z; z without an imaginary part gives real m, and
    a real point of the closed bulk is refused.
    """
    z = np.asarray(z)
    if not np.any(z.imag):
        z = z.real.astype(float)
    lo, hi = model.bulk
    in_bulk = (z.imag == 0.0) & (lo <= z.real) & (z.real <= hi)
    if np.any(in_bulk):
        raise DomainError(f"real z = {float(z.real[in_bulk][0])} lies in the bulk [{lo}, {hi}]")
    m = _m(model, z)
    if not np.iscomplexobj(m) and not np.all(np.isfinite(m)):
        raise PoleError(f"z = {float(z[~np.isfinite(m)][0])} is an eigenvalue of the operator")
    return m if m.ndim else m.item()


def ac_density(model: TailJacobiModel, x):
    """Lebesgue density of the a.c. part at x inside the open bulk, Im m(x + i0)/pi (vectorized)."""
    xs = np.asarray(x, dtype=float)
    lo, hi = model.bulk
    if np.any((xs <= lo) | (xs >= hi)):
        raise DomainError("ac_density is defined strictly inside the bulk")
    out = np.imag(_m(model, xs)) / math.pi
    return float(out) if out.ndim == 0 else out


# the parameters of each family, and all of them
_LAW_PARAMS = {
    Family.SEMICIRCLE: (),
    Family.MARCHENKO_PASTUR: ("tau",),
    Family.KESTEN_MCKAY: ("u_minus", "u_plus"),
    Family.ARCSINE: (),
}
_LAW_PARAM_NAMES = sum(_LAW_PARAMS.values(), ())


@dataclass(frozen=True)
class EquilibriumLaw:
    """One of the four reference laws, with family-specific parameters.

    MP takes tau in (0, 1]; KMK takes 0 <= u_minus < u_plus <= 1; SC and
    the arcsine law, on [-2, 2], take none. A parameter of another family
    is refused. The arcsine law on [0, 1] is KMK(0, 1) (ARCSINE_01).

    Every law is the spectral measure of `model`: a one-term head (b_0, a_0)
    on the constant tail (b, a) of its support.
    """

    family: Family
    tau: float | None = None
    u_minus: float | None = None
    u_plus: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", Family(self.family))  # the "is" tests need members
        given = [key for key in _LAW_PARAM_NAMES if getattr(self, key) is not None]
        refuse_foreign(self.family.value, given, _LAW_PARAMS[self.family])
        if self.family is Family.MARCHENKO_PASTUR:
            if self.tau is None or not (0.0 < self.tau <= 1.0):
                raise ParameterError(f"MP requires tau in (0, 1], got {self.tau}")
        elif self.family is Family.KESTEN_MCKAY:
            um, up = self.u_minus, self.u_plus
            if um is None or up is None or not (0.0 <= um < up <= 1.0):
                raise ParameterError(f"KMK requires 0 <= u_minus < u_plus <= 1, got ({um}, {up})")

    @property
    def jost_roots(self) -> tuple[float, float]:
        """The two roots w of the Jost function of `model` reduced to the
        free tail, (x - b_inf)/a_inf = w + 1/w, both in [-1, 1].

        They are the images of the density's poles: x = 0 for MP and KMK,
        x = 1 for KMK. A pole on an edge of the support (a hard edge: MP at
        tau = 1, KMK with u_minus = 0 or u_plus = 1, the arcsine law) gives
        a root of exactly -1 or 1. The semicircle has none; its roots are 0.
        """
        if self.family is Family.SEMICIRCLE:
            return 0.0, 0.0
        if self.family is Family.MARCHENKO_PASTUR:
            return -math.sqrt(self.tau), 0.0
        um, up = (self.u_minus, self.u_plus) if self.family is Family.KESTEN_MCKAY else (0.0, 1.0)
        # a pole at distances near < far from the two edges sits at
        # |w| = (sqrt(far) - sqrt(near)) / (sqrt(far) + sqrt(near))
        s0, s1 = math.sqrt(um), math.sqrt(up)
        t0, t1 = math.sqrt(1.0 - up), math.sqrt(1.0 - um)
        return (s0 - s1) / (s0 + s1), (t1 - t0) / (t1 + t0)

    @property
    def model(self) -> TailJacobiModel:
        """The law's Jacobi operator: (b_0 - b_inf)/a_inf = w_0 + w_1 and
        (a_0/a_inf)^2 = 1 - w_0 w_1 for the `jost_roots` w_0, w_1."""
        a_inf, b_inf = self._tail()
        w0, w1 = self.jost_roots
        head = JacobiCoeffs(
            np.array([b_inf + a_inf * (w0 + w1)]), np.array([a_inf * math.sqrt(1.0 - w0 * w1)])
        )
        return TailJacobiModel(a_inf=a_inf, b_inf=b_inf, head=head)

    def _tail(self) -> tuple[float, float]:
        if self.family is Family.MARCHENKO_PASTUR:
            return math.sqrt(self.tau), 1.0 + self.tau
        if self.family is Family.KESTEN_MCKAY:
            return 0.25 * (self.u_plus - self.u_minus), 0.5 * (self.u_plus + self.u_minus)
        return 1.0, 0.0

    @property
    def edges(self) -> tuple[float, float]:
        """The support's endpoints in closed form: (1 -+ sqrt(tau))^2 for MP,
        (u_minus, u_plus) for KMK, (-2, 2) for SC and the arcsine law. The
        bulk of `model` gives the same up to rounding."""
        if self.family is Family.MARCHENKO_PASTUR:
            return mp_edges(self.tau)
        if self.family is Family.KESTEN_MCKAY:
            return self.u_minus, self.u_plus
        return -2.0, 2.0


SC = EquilibriumLaw(Family.SEMICIRCLE)
ARCSINE_SYM = EquilibriumLaw(Family.ARCSINE)
ARCSINE_01 = EquilibriumLaw(Family.KESTEN_MCKAY, u_minus=0.0, u_plus=1.0)


def density(law: EquilibriumLaw, x):
    """Lebesgue density of the law at x (vectorized); 0 outside the open support."""
    model = law.model
    lo, hi = model.bulk
    x = np.asarray(x, dtype=float)
    inside = (x > lo) & (x < hi)
    val = ac_density(model, np.where(inside, x, 0.5 * (lo + hi)))
    out = np.where(inside, val, 0.0)
    return float(out) if out.ndim == 0 else out


def stieltjes(law: EquilibriumLaw, z) -> complex:
    """Cauchy-Stieltjes transform m(z) = int dmu(x) / (x - z) of the law's
    model. Branch: m is Herglotz (Im m > 0 on the upper half plane) and
    m(z) ~ -1/z at infinity. Real z must lie outside the support.
    """
    return complex(m_function(law.model, complex(z)))


@dataclass(frozen=True)
class ChebGrid:
    """Gauss-Chebyshev rule mapped to [lo, hi], with Lebesgue weights.

    Nodes x_k = c + r cos(theta_k), theta_k = (2k-1)pi/(2n), c and r the
    interval's center and radius. ``weights`` are the rule's pi/n times the
    Jacobian r sin(theta_k), so the substitution absorbs inverse square-root
    edge singularities; against a density with square-root edges (SC) the
    rule is exact for polynomials of degree < 2n - 2.
    """

    nodes: np.ndarray
    weights: np.ndarray

    @staticmethod
    def for_interval(lo: float, hi: float, n: int = 512) -> "ChebGrid":
        if hi <= lo:
            raise ParameterError(f"empty interval [{lo}, {hi}]")
        c, r = 0.5 * (lo + hi), 0.5 * (hi - lo)
        theta = (2.0 * np.arange(1, n + 1) - 1.0) * math.pi / (2.0 * n)
        nodes = c + r * np.cos(theta)
        weights = (math.pi / n) * r * np.sin(theta)
        return ChebGrid(nodes=nodes, weights=weights)


def _moments(law: EquilibriumLaw, order: int) -> np.ndarray:
    """m_1..m_order, exact: the section of order//2 + 1 rows of the law's
    model has the law's moments up to order 2 (order//2) + 1."""
    j = order // 2 + 1
    return jacobi_moments(law.model.coefficients(j), j, order)


def moment(law: EquilibriumLaw, k: int) -> float:
    """k-th moment of the law; odd moments of the symmetric laws are exactly 0."""
    if k < 1:
        raise ParameterError("moment order must be >= 1")
    return float(_moments(law, k)[-1])


def sigma_pm(b: float, c: float) -> tuple[float, float]:
    """sigma_-(b,c), sigma_+(b,c) = [1 + sqrt(bc) -+ sqrt((1-b)(1-c))]/2."""
    if not (0.0 < b < 1.0 and 0.0 < c < 1.0):
        raise ParameterError(f"sigma_pm needs arguments in (0,1), got ({b}, {c})")
    s = math.sqrt(b * c)
    t = math.sqrt((1.0 - b) * (1.0 - c))
    return 0.5 * (1.0 + s - t), 0.5 * (1.0 + s + t)


def u_pm(x: float, y: float) -> tuple[float, float]:
    """u_-(x,y), u_+(x,y) = (sqrt((1-x)(1-y)) -+ sqrt(xy))^2.

    u_+ is taken as 1 - (sqrt(x(1-y)) - sqrt((1-x)y))^2, the same number.
    Both squares are >= 0, so u_- never falls below 0 and u_+ never rises
    above 1, and the hard edges come out exact: u_- = 0 when
    (1-x)(1-y) = xy and u_+ = 1 when x = y, as at u_pm(1/2, 1/2) = (0, 1).
    """
    if not (0.0 < x < 1.0 and 0.0 < y < 1.0):
        raise ParameterError(f"u_pm needs arguments in (0,1), got ({x}, {y})")
    lower = math.sqrt((1.0 - x) * (1.0 - y)) - math.sqrt(x * y)
    upper = math.sqrt(x * (1.0 - y)) - math.sqrt((1.0 - x) * y)
    return lower * lower, 1.0 - upper * upper


def kmk_of_slopes(kappa1: float, kappa2: float) -> EquilibriumLaw:
    """The limit law on [0, 1] of the Jacobi ensemble with slopes
    (kappa1, kappa2): KMK(u_pm((1 + kappa1)/d, (1 + kappa1 + kappa2)/d)),
    d = 2 + kappa1 + kappa2, which is KMK(0, 1) at kappa = (0, 0)."""
    d = 2.0 + kappa1 + kappa2
    u_minus, u_plus = u_pm((1.0 + kappa1) / d, (1.0 + kappa1 + kappa2) / d)
    return EquilibriumLaw(Family.KESTEN_MCKAY, u_minus=u_minus, u_plus=u_plus)
