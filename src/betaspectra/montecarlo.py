"""Monte Carlo estimation of extreme-eigenvalue large-deviation rates and
distributional sanity suites for the tridiagonal samplers.

The tail rates count a chunk of samples at a time, one matrix row at a
time: ensembles.sample_rows draws row i of every sample of the chunk, the
Sturm sign-count folds it into the pivots of the shifted LDL^T recursion
and drops it (lambda_max >= x iff fewer than N pivots at x are negative),
so a chunk holds O(CHUNK) numbers whatever N is and no eigensolve runs.
The chunks of one mc_tail_rate call run on a standard thread pool sized by
the usable cores; each keeps its own generator and draws, so the counts do
not depend on the number of cores. The suite draws all its samples as one
batch from one generator through ensembles.sample_batch, in the row order
of the tail rates, with one batched spectral decomposition of all of them.
"""

from __future__ import annotations

import io
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .ensembles import EnsembleSpec, Kind, RngStream, sample_batch, sample_rows
from .errors import ParameterError, integral, read_fields
from .jacobi import _decompose, affine_s
from .rates import _refuse_nan, outlier_cost

__all__ = [
    "McExperiment",
    "McResult",
    "McRow",
    "mc_tail_rate",
    "theory_rate",
    "stat_suite",
    "StatReport",
]

CSV_HEADER = "N,x,samples,hits,p_hat,rate_hat,stderr,theory"
CHUNK = 8192
# stat_suite passes a test when its p-value exceeds this level
ALPHA = 0.01


@dataclass(frozen=True)
class McExperiment:
    """Tail-probability experiment: estimate P(lambda_max >= x) (or the min
    leg) across a list of matrix sizes."""

    spec: EnsembleSpec
    x: float
    n_list: tuple
    samples: int
    seed: int
    direction: str = "max_above"

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", integral(self.samples, "samples"))
        object.__setattr__(self, "seed", RngStream(self.seed).seed)  # checked there
        object.__setattr__(self, "n_list", tuple(integral(n, "n_list") for n in self.n_list))
        if self.samples < 1:
            raise ParameterError("samples must be >= 1")
        _refuse_nan(self.x)
        if self.direction not in ("max_above", "min_below"):
            raise ParameterError(f"unknown direction {self.direction!r}")
        if not self.n_list:
            raise ParameterError("n_list needs at least one matrix size")

    def to_json(self) -> dict:
        return {**vars(self), "spec": self.spec.to_json(), "n_list": list(self.n_list)}

    @staticmethod
    def from_json(obj: dict) -> "McExperiment":
        return McExperiment(**read_fields(obj, "experiment", _EXPERIMENT_FIELDS,
                                          ("spec", "x", "n_list", "samples", "seed")))


# the experiment's JSON keys; counts and the direction are checked by the constructor
_EXPERIMENT_FIELDS = {"spec": EnsembleSpec.from_json, "x": float, "n_list": tuple,
                      "samples": None, "seed": None, "direction": None}


@dataclass
class McRow:
    n: int
    x: float
    samples: int
    hits: int
    p_hat: float
    rate_hat: float
    stderr: float
    theory: float


@dataclass
class McResult:
    rows: list
    theory: float
    flags: list = field(default_factory=list)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(CSV_HEADER + "\n")
        for r in self.rows:
            buf.write(
                f"{r.n},{r.x:.12g},{r.samples},{r.hits},{r.p_hat:.12g},"
                f"{r.rate_hat:.12g},{r.stderr:.12g},{r.theory:.12g}\n"
            )
        return buf.getvalue()

    def to_json(self) -> dict:
        return {
            "rows": [vars(r) for r in self.rows],
            "theory": self.theory,
            "flags": self.flags,
        }


def _on_law_interval(spec: EnsembleSpec, x: float) -> float:
    """A threshold of spec's matrices on the interval of spec.law: a
    Jacobi-KN law lives on [0, 1], so a threshold on [-2, 2] is mapped there."""
    return float(affine_s(x)) if spec.kind is Kind.JACOBI_KN and spec.interval == "[-2,2]" else x


def theory_rate(spec: EnsembleSpec, x: float) -> float:
    """The large-deviation rate at threshold x (speed beta' N), either direction."""
    return outlier_cost(spec.law, _on_law_interval(spec, x))


def _sturm_negative_count(rows, x: float) -> np.ndarray:
    """Number of eigenvalues < x of each tridiagonal matrix of a batch.

    rows yields, row by row, b_i and a_{i-1}^2 (0 for i = 0) as arrays over
    the batch, as ensembles.sample_rows does. Counts negative pivots of the
    shifted LDL^T recursion q_i = b_i - x - a_{i-1}^2/q_{i-1}. Each pivot
    decreases in x, so a zero pivot becomes +tiny, its value just below x:
    an eigenvalue equal to x is not counted.
    """
    tiny = 1e-300
    q, count = 1.0, 0
    for b_i, a2 in rows:
        q = b_i - x - a2 / q
        q[q == 0.0] = tiny
        count += q < 0.0
    return count


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunks(exp: McExperiment, stream: RngStream) -> list:
    """(row, spec, generator, size) of every chunk of every row of exp.n_list,
    largest N * size first. Chunk i of size N draws from stream.generator(N, i),
    so a row's count is a sum of independent per-chunk counts."""
    spec = exp.spec
    # Laguerre keeps tau = m/N fixed across sizes
    fixed_tau = {"m": None, "tau": spec.laguerre_tau} if spec.kind is Kind.LAGUERRE else {}
    jobs = []
    for row, n in enumerate(exp.n_list):
        eff = replace(spec, n=n, **fixed_tau)
        for chunk_id, done in enumerate(range(0, exp.samples, CHUNK)):
            jobs.append((row, eff, stream.generator(n, chunk_id), min(CHUNK, exp.samples - done)))
    jobs.sort(key=lambda job: -job[1].n * job[3])
    return jobs


def _chunk_hits(spec: EnsembleSpec, gen: np.random.Generator, size: int, threshold: float,
                direction: str) -> int:
    neg = _sturm_negative_count(sample_rows(spec, gen, size), threshold)
    return int(np.sum(neg < spec.dim if direction == "max_above" else neg >= 1))


def _count_hits(exp: McExperiment, stream: RngStream) -> list:
    """Hits per row of exp.n_list, counted on a pool of min(usable cores,
    chunks) threads that take the chunks in turn. Each chunk keeps its
    generator and its draws, so the counts do not depend on the thread count."""
    # imported here: concurrent.futures loads logging, which no other path needs
    from concurrent.futures import ThreadPoolExecutor

    # the matrix acts on [-2, 2]; map a Jacobi-KN threshold on [0, 1] back
    threshold = 4.0 * exp.x - 2.0 if exp.spec.interval == "[0,1]" else exp.x
    jobs = _chunks(exp, stream)
    hits = [0] * len(exp.n_list)
    with ThreadPoolExecutor(min(_usable_cores(), len(jobs))) as pool:
        try:
            counts = pool.map(lambda job: _chunk_hits(*job[1:], threshold, exp.direction), jobs)
            for (row, *_), chunk_hits in zip(jobs, counts):
                hits[row] += chunk_hits
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    return hits


def mc_tail_rate(exp: McExperiment) -> McResult:
    """Estimate the tail rate -log P(lambda_max >= x)/(beta' N) per N.

    Deterministic for a fixed seed.
    """
    spec = exp.spec
    theory = theory_rate(spec, exp.x)
    flags = []
    lo, hi = spec.law.edges
    x_bulk = _on_law_interval(spec, exp.x)
    inside = lo < x_bulk < hi
    if inside:
        flags.append(
            f"threshold {x_bulk:.12g} lies inside the bulk ({lo:.6g}, {hi:.6g}): "
            "probability tends to 1 and the rate is 0"
        )
    bp = spec.beta_prime
    n_max = max(exp.n_list)
    if not inside and theory > 0.0:
        expected = exp.samples * math.exp(-bp * n_max * theory)
        if expected < 30.0:
            flags.append(
                f"expected hits at N = {n_max} is about {expected:.3g} (< 30): "
                "estimates will be noisy"
            )
    rows = []
    for n, hits in zip(exp.n_list, _count_hits(exp, RngStream(seed=exp.seed, stream=0))):
        p_hat = hits / exp.samples
        if hits == 0:
            # lower bound from the unobserved-event scale 1/samples
            rate_hat = -math.log(1.0 / exp.samples) / (bp * n)
            stderr = math.inf
            flags.append(f"zero hits at N = {n}: rate_hat is a lower bound")
        else:
            rate_hat = math.log(exp.samples / hits) / (bp * n)  # +0.0 when every sample hits
            stderr = math.sqrt((1.0 - p_hat) / (p_hat * exp.samples)) / (bp * n)
        rows.append(
            McRow(
                n=n, x=exp.x, samples=exp.samples, hits=hits,
                p_hat=p_hat, rate_hat=rate_hat, stderr=stderr, theory=theory,
            )
        )
    return McResult(rows=rows, theory=theory, flags=flags)


@dataclass
class StatReport:
    tests: list  # (name, statistic, p_value, passed)
    alpha: float
    all_passed: bool

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha,
            "all_passed": bool(self.all_passed),
            "tests": [
                {"name": n, "statistic": s, "p_value": p, "passed": bool(ok)}
                for n, s, p, ok in self.tests
            ],
        }


def _split_exponent(mat: np.ndarray) -> tuple[np.ndarray, int]:
    """mat = out * 2**e with the largest entry of out in [0.5, 1); exact."""
    e = math.frexp(float(mat.max()))[1]
    return np.ldexp(mat, -e), e


def _ks_cdf(n: int, d: float) -> float:
    """P(D_n < d) for the two-sided Kolmogorov-Smirnov statistic of n points.

    Durbin's matrix as evaluated by Marsaglia, Tsang and Wang, "Evaluating
    Kolmogorov's distribution", J. Stat. Softw. 8(18) (2003): with
    n d = k - h, 0 <= h < 1, it is n!/n^n (H^n)_kk for the (2k-1) x (2k-1)
    matrix H built below. H has no negative entry, so its powers lose no
    digits to cancellation; their binary exponents are carried apart so
    that nothing overflows or underflows.
    """
    if n * d <= 0.5:
        return 0.0
    k = math.ceil(n * d)
    h = k - n * d
    m = 2 * k - 1
    inv_fact = np.concatenate(([1.0], np.cumprod(1.0 / np.arange(1.0, m + 1))))
    lag = np.subtract.outer(np.arange(m), np.arange(m)) + 1
    mat = np.where(lag >= 0, inv_fact[np.clip(lag, 0, m)], 0.0)
    edge = (1.0 - h ** np.arange(1, m + 1)) * inv_fact[1:]
    mat[:, 0] = edge
    mat[-1, :] = edge[::-1]
    mat[-1, 0] = (1.0 - 2.0 * h**m + max(0.0, 2.0 * h - 1.0) ** m) * inv_fact[m]
    # binary powering: power * 2**power_exp = H^(bits of n read so far)
    power, power_exp, sq_exp, left = None, 0, 0, n
    while True:
        if left & 1:
            power, e = _split_exponent(mat if power is None else power @ mat)
            power_exp += sq_exp + e
        left >>= 1
        if not left:
            break
        mat, e = _split_exponent(mat @ mat)
        sq_exp = 2 * sq_exp + e
    # times n!/n^n = prod(i/n): mantissas in chunks that cannot underflow
    mant, expo = np.frexp(np.arange(1, n + 1) / n)
    p, e = math.frexp(float(power[k - 1, k - 1]))
    p_exp = e + power_exp + int(expo.sum())
    for start in range(0, n, 512):
        p, e = math.frexp(p * float(np.prod(mant[start:start + 512])))
        p_exp += e
    return math.ldexp(p, p_exp)


def _ks_pvalue(n: int, d: float) -> float:
    """Two-sided P(D_n >= d): 1 - _ks_cdf, except in the far tail, where
    1 - cdf keeps only an absolute accuracy. There this takes Miller's
    2 smirnov(n, d) exactly where scipy's kstwo does (d >= 0.5, n d^2 > 4
    at n <= 140, n d^2 >= 2.2 above), so the Durbin matrix has
    k <= 2 sqrt(n) + 1."""
    from scipy.special import smirnov

    nd2 = n * d * d
    if d >= 0.5 or nd2 > 4.0 or (n > 140 and nd2 >= 2.2):
        p = 2.0 * float(smirnov(n, d))
    else:
        p = 1.0 - _ks_cdf(n, d)
    return min(max(p, 0.0), 1.0)


def stat_suite(
    spec: EnsembleSpec,
    seed: int,
    reps: int = 300,
    wrong_marginal: bool = False,
) -> StatReport:
    """Distributional checks on the sampler.

    KS test of the first spectral weight against Beta(beta', (N-1) beta'),
    independence (correlation) of lambda_max and that weight, and a z-test
    on the mean first moment, each passed at p > ALPHA. wrong_marginal swaps
    in Beta(2 beta', .) as a deliberate negative control.

    The p-values need scipy.special only:
    - KS: the Beta CDF is scipy.special.betainc, as in scipy's beta.cdf, so
      the statistic d is that of scipy's kstest. The two-sided p-value is
      exact from Durbin's matrix (_ks_cdf), or Miller's 2 smirnov where
      scipy's kstwo takes it too (_ks_pvalue); it agrees with kstwo.sf to
      1e-12, except where kstwo uses the Pelz-Good approximation (reps > 140,
      reps d^2 < 2.2 and reps d^1.5 > 1.4), which is off by up to about 3e-6.
    - Correlation: Pearson's r, and the p-value from its exact null law
      under normality, 2 I_{(1-|r|)/2}(reps/2 - 1, reps/2 - 1) (1 at
      reps = 2); both agree with scipy's pearsonr to 1e-12.
    - Mean first moment: p = erfc(|z|/sqrt 2), scipy's 2 norm.sf(|z|) to
      1e-12.
    """
    if reps < 2:
        raise ParameterError(f"reps must be >= 2 for the correlation test, got {reps}")
    size = spec.dim
    if size < 2:
        raise ParameterError(f"the suite needs a matrix of size >= 2, got {size}: "
                             "one atom always has weight 1")
    # scipy.special is imported here so that paths without the suite never load it
    from scipy.special import betainc

    bp = spec.beta_prime
    b, a = sample_batch(spec, RngStream(seed=seed, stream=1).generator(), reps)
    lam, pi = _decompose(b, a)
    lam_max, pi1 = lam[:, -1], pi[:, 0]
    m1 = b[:, 0]  # sum_k pi_k lambda_k = <e_1, J e_1>
    shape1 = 2.0 * bp if wrong_marginal else bp
    cdf = np.sort(betainc(shape1, (size - 1) * bp, pi1))
    steps = np.arange(reps + 1.0) / reps
    ks_stat = float(max(np.max(steps[1:] - cdf), np.max(cdf - steps[:-1])))
    ks_p = _ks_pvalue(reps, ks_stat)
    xm = lam_max - np.mean(lam_max)
    ym = pi1 - np.mean(pi1)
    corr = min(max(float(xm @ ym / math.sqrt((xm @ xm) * (ym @ ym))), -1.0), 1.0)
    shape = reps / 2.0 - 1.0
    corr_p = 1.0 if reps == 2 else 2.0 * float(betainc(shape, shape, (1.0 - abs(corr)) / 2.0))
    mean_expect = {
        Kind.HERMITE: 0.0,
        Kind.LAGUERRE: 1.0,
        Kind.JACOBI_KN: None,
    }[spec.kind]
    tests = [
        ("ks_pi1_beta", ks_stat, ks_p, ks_p > ALPHA),
        ("corr_lmax_pi1", corr, corr_p, corr_p > ALPHA),
    ]
    if mean_expect is not None:
        z = float((np.mean(m1) - mean_expect) / (np.std(m1, ddof=1) / math.sqrt(reps)))
        p = math.erfc(abs(z) / math.sqrt(2.0))
        tests.append(("mean_first_moment", z, p, p > ALPHA))
    return StatReport(tests=tests, alpha=ALPHA, all_passed=all(t[3] for t in tests))
