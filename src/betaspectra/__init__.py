"""betaspectra: a numerical laboratory for random spectral measures of
beta-ensembles.

Tridiagonal samplers (Hermite, Laguerre, Killip-Nenciu Jacobi), equilibrium
laws and their Stieltjes transforms, large-deviation rate functionals on
both the coefficient and measure sides, an exact sum-rule verifier for
finite-rank perturbations, moment-constrained optimization, and Monte Carlo
estimation of extreme-eigenvalue tail rates.
"""

from .equilibria import (
    ARCSINE_01,
    ARCSINE_SYM,
    SC,
    ChebGrid,
    EquilibriumLaw,
    Family,
    density,
    kmk_of_slopes,
    moment,
    mp_edges,
    sigma_pm,
    stieltjes,
    u_pm,
)
from .errors import (
    BetaSpectraError,
    DegenerateMeasureError,
    DomainError,
    InvalidMatrixError,
    NotPositiveDefiniteError,
    ParameterError,
    PoleError,
    RangeError,
)
from .jacobi import (
    DiscreteMeasure,
    JacobiCoeffs,
    VerblunskyCoeffs,
    affine_s,
    ds_assemble,
    ds_factorize,
    geronimus,
    jacobi_moments,
    measure_to_jacobi,
    spectral_decompose,
)
from .ensembles import (
    EnsembleSpec,
    Kind,
    LaguerreDraw,
    RngStream,
    sample_hermite,
    sample_jacobi_kn,
    sample_laguerre,
    spectral_measure,
)
from .rates import (
    RateReport,
    beta_h,
    big_g,
    hermite_rate,
    jacobi_ensemble_rate,
    laguerre_rate,
    outlier_cost,
    rate_fg,
    rate_fj,
    rate_fl,
    small_g,
)
from .sumrule import (
    ConjectureReport,
    SumRuleReport,
    TailJacobiModel,
    ac_density,
    conjecture_probe_jacobi,
    conjecture_probe_laguerre,
    m_function,
    measure_side_rate,
    outliers,
    sumrule_verify,
)
from .moments_opt import (
    DualResult,
    MomentConstraint,
    constrained_rate_dual,
    constrained_rate_primal,
    moment_opt_report,
    moments_to_jacobi,
)
from .montecarlo import (
    McExperiment,
    McResult,
    StatReport,
    mc_tail_rate,
    stat_suite,
    theory_rate,
)

__version__ = "0.1.0"
