"""Monte Carlo tail-rate estimator and sampler sanity suite."""

import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from betaspectra import montecarlo
from betaspectra.ensembles import EnsembleSpec, Kind, RngStream, sample_batch, sample_rows
from betaspectra.errors import ParameterError
from betaspectra.jacobi import JacobiCoeffs, _decompose, spectral_decompose
from betaspectra.montecarlo import (
    CSV_HEADER,
    McExperiment,
    mc_tail_rate,
    stat_suite,
    theory_rate,
)
from betaspectra.montecarlo import CHUNK, _ks_pvalue, _sturm_negative_count
from betaspectra.rates import rate_fg, rate_fj, rate_fl

HERMITE = EnsembleSpec(kind=Kind.HERMITE, n=2, beta=2.0)


def _rows(b, a):
    """b (batch, n) and a (batch, n - 1) row by row, as sample_rows yields
    them: b_i and a_{i-1}^2, 0.0 for i = 0."""
    return zip(b.T, [0.0, *np.square(a).T])


def _streamed(spec, gen, batch):
    """b and a^2 of sample_rows(spec, gen, batch) gathered into arrays."""
    rows = list(sample_rows(spec, gen, batch))
    assert len(rows) == spec.dim
    b = np.stack([row[0] for row in rows], axis=1)
    a2 = np.stack([row[1] for row in rows[1:]], axis=1) if spec.dim > 1 else np.empty((batch, 0))
    return b, a2


def _eigvalsh(b, a2):
    mats = np.zeros(b.shape + b.shape[-1:])
    idx = np.arange(b.shape[-1])
    a = np.sqrt(a2)
    mats[:, idx, idx] = b
    mats[:, idx[:-1], idx[1:]] = a
    mats[:, idx[1:], idx[:-1]] = a
    return np.linalg.eigvalsh(mats)


def test_experiment_validation():
    with pytest.raises(ParameterError):
        McExperiment(spec=HERMITE, x=2.2, n_list=(10,), samples=0, seed=1)
    with pytest.raises(ParameterError):
        McExperiment(spec=HERMITE, x=2.2, n_list=(10,), samples=10, seed=1,
                     direction="sideways")
    with pytest.raises(ParameterError):
        McExperiment(spec=HERMITE, x=2.2, n_list=(), samples=10, seed=1)
    with pytest.raises(ParameterError, match="NaN"):
        McExperiment(spec=HERMITE, x=float("nan"), n_list=(10,), samples=10, seed=1)
    exp = McExperiment(spec=HERMITE, x=2.2, n_list=[10, 20], samples=10, seed=1)
    assert exp.n_list == (10, 20)
    back = McExperiment.from_json(exp.to_json())
    assert back == exp


def test_negative_seed_refused_by_experiment_and_suite():
    # both take the check of RngStream, before any draw
    with pytest.raises(ParameterError, match="'seed' must be a non-negative integer, got -1"):
        McExperiment(spec=HERMITE, x=2.2, n_list=(10,), samples=10, seed=-1)
    with pytest.raises(ParameterError, match="'seed' must be an integer, got 1.5"):
        McExperiment(spec=HERMITE, x=2.2, n_list=(10,), samples=10, seed=1.5)
    with pytest.raises(ParameterError, match="'seed' must be a non-negative integer, got -1"):
        stat_suite(HERMITE, seed=-1, reps=10)


def test_theory_rate_dispatch():
    assert theory_rate(HERMITE, 2.5) == rate_fg(2.5)
    lag = EnsembleSpec(kind=Kind.LAGUERRE, n=10, beta=2.0, tau=0.5)
    assert theory_rate(lag, 3.5) == rate_fl(3.5, 0.5)
    jac = EnsembleSpec(kind=Kind.JACOBI_KN, n=10, beta=2.0, kappa1=0.0,
                       kappa2=0.0, interval="[0,1]")
    assert theory_rate(jac, 0.5) == rate_fj(0.5, 0.0, 1.0)
    # default interval maps the threshold from [-2, 2] to [0, 1]
    jac2 = EnsembleSpec(kind=Kind.JACOBI_KN, n=10, beta=2.0, kappa1=0.0, kappa2=0.0)
    assert theory_rate(jac2, 0.0) == rate_fj(0.5, 0.0, 1.0)
    # values of the per-ensemble dispatch before spec.law, compared exactly
    lag_m = EnsembleSpec(kind=Kind.LAGUERRE, n=40, beta=2.0, m=10)
    assert theory_rate(lag_m, 3.5) == 0.5169671603794678
    assert theory_rate(lag_m, 0.1) == 0.372534234120556
    for interval, inside, outside in (("[-2,2]", 1.9, 2.5), ("[0,1]", 0.98, 1.1)):
        fixed = EnsembleSpec(kind=Kind.JACOBI_KN, n=10, beta=2.0, a=0.5, b=1.5,
                             interval=interval)
        assert theory_rate(fixed, inside) == 0.0
        assert theory_rate(fixed, outside) == math.inf
    # Jacobi-KN with slopes: F_J times 2 + kappa1 + kappa2. This corrects
    # the values this test pinned before, 0.010965941663942456,
    # 0.21847955877335434 and 1.1917599740602367, which were F_J alone: the
    # exact beta = 2 tail (a Gram determinant fitted over N = 50..800, ROADMAP
    # item 1) gives -log P/N -> 0.11471 at kappa = (1, 0.5), u = 0.98664 and
    # 0.49417 at kappa = (0.3, 2), u = 0.86939, 3.525 and 4.302 times F_J
    slopes = EnsembleSpec(kind=Kind.JACOBI_KN, n=10, beta=2.0, kappa1=1.0, kappa2=0.5)
    assert theory_rate(slopes, 1.93) == 0.038380795823798615
    assert theory_rate(slopes, -1.9) == 0.7646784557067405
    assert theory_rate(slopes, 4.0 * 0.98664 - 2.0) == pytest.approx(0.11471, rel=0.01)
    slopes01 = EnsembleSpec(kind=Kind.JACOBI_KN, n=10, beta=2.0, kappa1=0.3, kappa2=2.0,
                            interval="[0,1]")
    assert theory_rate(slopes01, 0.99) == 5.124567888459017
    assert theory_rate(slopes01, 0.86939) == pytest.approx(0.49417, rel=0.01)


def test_sturm_count_matches_eigensolve():
    rng = np.random.default_rng(20)
    b = rng.normal(size=(6, 9))
    a = rng.uniform(0.2, 1.5, size=(6, 8))
    for x in (-1.0, 0.0, 0.5, 2.0):
        counts = _sturm_negative_count(_rows(b, a), x)
        for i in range(6):
            lam = spectral_decompose(JacobiCoeffs(b[i], a[i])).locations
            assert counts[i] == int(np.sum(lam < x))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(batch=st.integers(1, 4), n=st.integers(1, 12), data=st.data())
def test_sturm_count_property(batch, n, data):
    b = data.draw(arrays(float, (batch, n), elements=st.floats(-2.0, 2.0)))
    a = data.draw(arrays(float, (batch, n - 1), elements=st.floats(0.01, 2.0)))
    x = data.draw(st.floats(-5.0, 5.0))
    mats = np.zeros((batch, n, n))
    idx = np.arange(n)
    mats[:, idx, idx] = b
    mats[:, idx[:-1], idx[1:]] = a
    mats[:, idx[1:], idx[:-1]] = a
    lam = np.linalg.eigvalsh(mats)
    # away from ties both counts are exact; ties are the next test
    assume(np.min(np.abs(lam - x)) > 1e-9)
    assert np.array_equal(_sturm_negative_count(_rows(b, a), x), np.sum(lam < x, axis=1))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(c=st.integers(-16, 16), t=st.integers(1, 16), upper=st.booleans())
@example(c=0, t=4, upper=True)  # [[0, 1], [1, 0]] at x = 1 once counted 2
def test_sturm_count_at_an_eigenvalue(c, t, upper):
    # [[c, t], [t, c]] / 4 has the eigenvalues (c -/+ t) / 4, and the pivot
    # recursion at either one is exact in binary and ends in a zero pivot;
    # an eigenvalue equal to x is not below x
    b = np.full((1, 2), c / 4.0)
    a = np.full((1, 1), t / 4.0)
    x = (c + t) / 4.0 if upper else (c - t) / 4.0
    lam = np.array([(c - t) / 4.0, (c + t) / 4.0])
    assert _sturm_negative_count(_rows(b, a), x)[0] == np.sum(lam < x) == int(upper)


def test_mc_determinism_and_chunk_invariance():
    # 20000 samples span three chunks (CHUNK, CHUNK and the rest); the hit
    # count must be the sum of direct counts over the per-chunk generators
    exp = McExperiment(spec=HERMITE, x=2.1, n_list=(12,), samples=20000, seed=3)
    r1 = mc_tail_rate(exp)
    assert mc_tail_rate(exp).rows[0].hits == r1.rows[0].hits
    stream = RngStream(seed=3, stream=0)
    sizes = [CHUNK, CHUNK, 20000 - 2 * CHUNK]
    assert sizes[-1] > 0
    spec = replace(HERMITE, n=12)
    direct = 0
    for chunk_id, size in enumerate(sizes):
        lam = _eigvalsh(*_streamed(spec, stream.generator(12, chunk_id), size))
        direct += int(np.sum(lam[:, -1] >= 2.1))
    assert r1.rows[0].hits == direct
    assert direct > 0
    # the same sum whatever the number of threads the chunks run on
    for cores in (1, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(montecarlo, "_usable_cores", lambda: cores)
            assert mc_tail_rate(exp).rows[0].hits == direct


THREAD_CASES = [
    (EnsembleSpec(kind=Kind.HERMITE, n=12, beta=1.0), 1.7, -1.7),
    (EnsembleSpec(kind=Kind.LAGUERRE, n=12, beta=2.0, tau=0.5), 2.5, 0.12),
    (EnsembleSpec(kind=Kind.JACOBI_KN, n=12, beta=1.0, kappa1=1.0, kappa2=0.5), 1.8, -1.0),
]


def _record_threads(mp) -> set:
    """Wrap the row stream that mc_tail_rate counts; the returned set fills
    with the threads that call it."""
    seen = set()

    def recording(*args):
        seen.add(threading.get_ident())
        return sample_rows(*args)

    mp.setattr(montecarlo, "sample_rows", recording)
    return seen


@pytest.mark.parametrize("direction", ["max_above", "min_below"])
@pytest.mark.parametrize("spec, x_max, x_min", THREAD_CASES, ids=[k.value for k in Kind])
def test_mc_rows_do_not_depend_on_thread_count(spec, x_max, x_min, direction):
    # a repeated size and three chunks per size (CHUNK, CHUNK and the rest)
    exp = McExperiment(spec=spec, x=x_max if direction == "max_above" else x_min,
                       n_list=(6, 12, 6), samples=2 * CHUNK + 500, seed=11, direction=direction)
    before = threading.active_count()
    rows = {}
    interval = sys.getswitchinterval()
    for cores in (1, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(montecarlo, "_usable_cores", lambda: cores)
            threads = _record_threads(mp)
            # frequent thread switches, so that a lost update would show
            sys.setswitchinterval(1e-5)
            try:
                rows[cores] = [vars(r) for r in mc_tail_rate(exp).rows]
            finally:
                sys.setswitchinterval(interval)
        assert len(threads) <= cores
        assert threading.active_count() == before
    # the order in which the threads take the chunks does not matter either
    chunks = montecarlo._chunks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "_usable_cores", lambda: 3)
        mp.setattr(montecarlo, "_chunks", lambda *args: chunks(*args)[::-1])
        assert [vars(r) for r in mc_tail_rate(exp).rows] == rows[1]
    assert rows[1] == rows[3]
    assert rows[1][0] == rows[1][2]
    assert all(0 < r["hits"] < exp.samples for r in rows[1])


def test_mc_chunk_error_reaches_caller(monkeypatch):
    def failing(spec, gen, size):
        if spec.n == 8 and size < CHUNK:
            raise RuntimeError("chunk failed")
        return sample_rows(spec, gen, size)

    monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 3)
    monkeypatch.setattr(montecarlo, "sample_rows", failing)
    before = threading.active_count()
    exp = McExperiment(spec=HERMITE, x=2.0, n_list=(4, 8, 16), samples=CHUNK + 10, seed=1)
    with pytest.raises(RuntimeError, match="chunk failed"):
        mc_tail_rate(exp)
    assert threading.active_count() == before


def test_mc_hit_counting_against_direct_sampling():
    # brute-force eigenvalue check on a small configuration
    exp = McExperiment(spec=HERMITE, x=2.0, n_list=(8,), samples=3000, seed=5)
    res = mc_tail_rate(exp)
    b, a2 = _streamed(replace(HERMITE, n=8), RngStream(seed=5, stream=0).generator(8, 0), 3000)
    direct = 0
    for i in range(3000):
        lam = spectral_decompose(JacobiCoeffs(b[i], np.sqrt(a2[i]))).locations
        direct += int(lam[-1] >= 2.0)
    assert res.rows[0].hits == direct


STREAM_CASES = [
    (EnsembleSpec(kind=Kind.HERMITE, n=9, beta=1.0), 1.7, -1.7),
    (EnsembleSpec(kind=Kind.LAGUERRE, n=9, beta=2.0, tau=0.5), 2.5, 0.15),
    (EnsembleSpec(kind=Kind.JACOBI_KN, n=9, beta=1.0, kappa1=1.0, kappa2=0.5), 1.8, -1.0),
]


@pytest.mark.parametrize("direction", ["max_above", "min_below"])
@pytest.mark.parametrize("spec, x_max, x_min", STREAM_CASES, ids=[k.value for k in Kind])
def test_mc_hits_equal_eigvalsh_on_streamed_rows(spec, x_max, x_min, direction):
    # several chunks per size and a repeated size: every row's hits are the
    # eigvalsh counts of the matrices built from the rows each chunk streams
    x = x_max if direction == "max_above" else x_min
    exp = McExperiment(spec=spec, x=x, n_list=(5, 9, 5), samples=CHUNK + 300, seed=21,
                       direction=direction)
    stream = RngStream(seed=21, stream=0)
    expect = []
    for n in exp.n_list:
        eff = replace(spec, n=n, m=None, tau=0.5) if spec.kind is Kind.LAGUERRE else replace(spec, n=n)
        hits = 0
        for chunk_id, size in enumerate((CHUNK, 300)):
            lam = _eigvalsh(*_streamed(eff, stream.generator(n, chunk_id), size))
            hits += int(np.sum(lam[:, -1] >= x if direction == "max_above" else lam[:, 0] < x))
        expect.append(hits)
    assert [r.hits for r in mc_tail_rate(exp).rows] == expect
    assert expect[0] == expect[2]
    assert all(0 < h < exp.samples for h in expect)


# hits of Jacobi-KN experiments counted from full sample_batch arrays,
# before counting streamed the rows: the row stream draws the same numbers
# and rounds a_k the same way, so these stay exact
JACOBI_KN_GOLDEN = [
    (EnsembleSpec(kind=Kind.JACOBI_KN, n=12, beta=1.0, kappa1=1.0, kappa2=0.5),
     1.8, "max_above", (6, 12, 6), 2 * CHUNK + 500, 11, [4385, 8830, 4385]),
    (EnsembleSpec(kind=Kind.JACOBI_KN, n=12, beta=1.0, kappa1=1.0, kappa2=0.5),
     -1.0, "min_below", (6, 12, 6), 2 * CHUNK + 500, 11, [14076, 16824, 14076]),
    (EnsembleSpec(kind=Kind.JACOBI_KN, n=12, beta=2.0, a=0.5, b=1.5),
     1.9, "max_above", (3, 25), CHUNK + 77, 4, [940, 8269]),
    (EnsembleSpec(kind=Kind.JACOBI_KN, n=12, beta=0.5, kappa1=0.3, kappa2=2.0, interval="[0,1]"),
     0.02, "min_below", (1, 2, 40), 3000, 9, [82, 167, 2915]),
]


@pytest.mark.parametrize("case", JACOBI_KN_GOLDEN, ids=range(len(JACOBI_KN_GOLDEN)))
def test_mc_jacobi_kn_golden_hits(case):
    spec, x, direction, n_list, samples, seed, hits = case
    exp = McExperiment(spec=spec, x=x, n_list=n_list, samples=samples, seed=seed,
                       direction=direction)
    assert [r.hits for r in mc_tail_rate(exp).rows] == hits


@pytest.mark.parametrize("spec", [
    EnsembleSpec(kind=Kind.HERMITE, n=2, beta=1.0),
    EnsembleSpec(kind=Kind.LAGUERRE, n=2, beta=1.0, tau=0.5),
    EnsembleSpec(kind=Kind.JACOBI_KN, n=2, beta=1.0, kappa1=1.0, kappa2=0.5),
], ids=[k.value for k in Kind])
def test_chunk_peak_memory_does_not_grow_with_n(spec):
    # a chunk holds a few arrays of CHUNK numbers, whatever N is; a full
    # CHUNK x N chunk of b and a at N = 400 would be 52 MB
    def peak(n):
        eff = replace(spec, n=n)
        montecarlo._chunk_hits(eff, RngStream(seed=1).generator(n), 4, 2.0, "max_above")
        tracemalloc.start()
        try:
            montecarlo._chunk_hits(eff, RngStream(seed=1).generator(n), CHUNK, 2.0, "max_above")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(80), peak(400)
    assert large <= small + 16 * 1024
    assert large <= 16 * CHUNK * 8


def test_mc_rate_converges_toward_theory():
    exp = McExperiment(spec=HERMITE, x=2.3, n_list=(10, 30), samples=40000, seed=42)
    res = mc_tail_rate(exp)
    theory = rate_fg(2.3)
    err = [abs(r.rate_hat - theory) for r in res.rows]
    assert err[1] <= err[0]
    for r in res.rows:
        assert r.p_hat == r.hits / r.samples
        if r.hits:
            assert r.rate_hat == pytest.approx(
                -math.log(r.p_hat) / (1.0 * r.n), abs=1e-12
            )


def test_mc_zero_hits_lower_bound():
    exp = McExperiment(spec=HERMITE, x=3.5, n_list=(60,), samples=2000, seed=6)
    res = mc_tail_rate(exp)
    row = res.rows[0]
    assert row.hits == 0
    assert row.rate_hat == pytest.approx(math.log(2000) / 60.0, abs=1e-12)
    assert math.isinf(row.stderr)
    assert any("lower bound" in f for f in res.flags)
    assert any("< 30" in f for f in res.flags)


def test_mc_inside_bulk_flag():
    exp = McExperiment(spec=HERMITE, x=1.0, n_list=(10,), samples=1000, seed=7)
    res = mc_tail_rate(exp)
    assert res.theory == 0.0
    assert any("inside the bulk" in f for f in res.flags)
    # the flag text, edges and mapped threshold included, as before spec.law
    tail = ": probability tends to 1 and the rate is 0"
    lag = EnsembleSpec(kind=Kind.LAGUERRE, n=40, beta=2.0, tau=0.5)
    jac = EnsembleSpec(kind=Kind.JACOBI_KN, n=10, beta=2.0, kappa1=1.0, kappa2=0.5)
    for spec, x, text in (
        (lag, 2.0, "threshold 2 lies inside the bulk (0.0857864, 2.91421)"),
        (jac, 1.0, "threshold 0.75 lies inside the bulk (0.0834918, 0.977733)"),
        (replace(jac, interval="[0,1]"), 0.5,
         "threshold 0.5 lies inside the bulk (0.0834918, 0.977733)"),
    ):
        flags = mc_tail_rate(McExperiment(spec=spec, x=x, n_list=(10,), samples=200,
                                          seed=7)).flags
        assert flags == [text + tail]


def test_mc_csv_format():
    exp = McExperiment(spec=HERMITE, x=2.5, n_list=(10,), samples=1000, seed=8)
    res = mc_tail_rate(exp)
    lines = res.to_csv().strip().split("\n")
    assert lines[0] == CSV_HEADER
    fields = lines[1].split(",")
    assert int(fields[0]) == 10
    assert float(fields[1]) == 2.5
    obj = res.to_json()
    assert obj["rows"][0]["n"] == 10


def test_mc_min_below_direction():
    lag = EnsembleSpec(kind=Kind.LAGUERRE, n=2, beta=2.0, tau=1.0)
    exp = McExperiment(spec=lag, x=0.02, n_list=(15,), samples=20000, seed=9,
                       direction="min_below")
    res = mc_tail_rate(exp)
    # at tau = 1 the hard edge at 0 makes small-eigenvalue events common
    assert res.rows[0].hits > 0


def test_stat_suite_hermite():
    report = stat_suite(EnsembleSpec(kind=Kind.HERMITE, n=40, beta=2.0), seed=42)
    assert report.all_passed
    names = [t[0] for t in report.tests]
    assert "ks_pi1_beta" in names and "mean_first_moment" in names


def test_stat_suite_laguerre():
    spec = EnsembleSpec(kind=Kind.LAGUERRE, n=40, beta=2.0, m=40)
    report = stat_suite(spec, seed=42)
    assert report.all_passed


def test_stat_suite_memory():
    # only the lowest weight of each rep is formed; all n weights of all
    # reps at once peaked at 34 MB here, one eigenvector matrix is 8 MB
    stat_suite(EnsembleSpec(kind=Kind.HERMITE, n=10, beta=2.0), seed=3, reps=5)  # imports
    spec = EnsembleSpec(kind=Kind.HERMITE, n=1000, beta=2.0)
    tracemalloc.start()
    try:
        stat_suite(spec, seed=3, reps=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6


def test_stat_suite_needs_two_reps():
    spec = EnsembleSpec(kind=Kind.HERMITE, n=5, beta=2.0)
    for reps in (0, 1):
        with pytest.raises(ParameterError):
            stat_suite(spec, seed=1, reps=reps)


def test_stat_suite_needs_two_atoms():
    # one atom always has weight 1: the KS and correlation tests are undefined
    specs = (
        EnsembleSpec(kind=Kind.HERMITE, n=1, beta=2.0),
        EnsembleSpec(kind=Kind.LAGUERRE, n=5, beta=2.0, m=1),
        EnsembleSpec(kind=Kind.JACOBI_KN, n=1, beta=2.0),
    )
    for spec in specs:
        with pytest.raises(ParameterError):
            stat_suite(spec, seed=1, reps=5)


def test_stat_suite_negative_control():
    report = stat_suite(
        EnsembleSpec(kind=Kind.HERMITE, n=40, beta=2.0), seed=42, wrong_marginal=True
    )
    assert not report.all_passed
    ks = next(t for t in report.tests if t[0] == "ks_pi1_beta")
    assert not ks[3]


def test_stat_suite_json():
    report = stat_suite(EnsembleSpec(kind=Kind.HERMITE, n=20, beta=2.0), seed=1,
                        reps=100)
    obj = report.to_json()
    assert obj["alpha"] == 0.01
    assert len(obj["tests"]) == 3


def pelz_good_band(n, d):
    """Where scipy's kstwo.sf is the Pelz-Good approximation, not exact."""
    return n > 140 and n * d > 1.0 and d < 0.5 and n * d * d < 2.2 and n * d**1.5 > 1.4


def ks_grid(n):
    """d in every regime of kstwo.sf at n: below 1/(2n), Ruben-Gambino,
    the Durbin matrix, Pomeranz, Pelz-Good, Miller's 2 smirnov, d >= 0.5."""
    t = np.array([0.3, 0.5, 0.75, 1.0])
    nd2 = np.array([0.3, 0.754693, 0.76, 1.5, 2.19, 2.2, 3.0, 4.0, 4.01, 8.0, 20.0])
    ds = np.concatenate([t / n, np.sqrt(nd2 / n), (1.4 / n) ** (2 / 3) * np.array([0.9, 1.1]),
                         [0.3, 0.49, 0.5, 0.75, 0.99, 1.0]])
    return ds[(ds > 0.0) & (ds <= 1.0)]


@pytest.mark.parametrize("n", [2, 20, 140, 141, 300, 1000, 10**4])
def test_ks_pvalue_against_scipy(n):
    in_band = 0
    for d in ks_grid(n):
        band = pelz_good_band(n, d)
        in_band += band
        ours, ref = _ks_pvalue(n, float(d)), float(stats.kstwo.sf(d, n))
        assert abs(ours - ref) <= (5e-6 if band else 1e-12), (n, d, ours, ref)
    assert (in_band > 0) == (n > 140)


def test_ks_pvalue_exact_in_pelz_good_band():
    # scipy's own Durbin-matrix routine, exact, which kstwo skips in this band
    durbin = getattr(pytest.importorskip("scipy.stats._ksstats"), "_kolmogn_DMTW", None)
    if durbin is None:
        pytest.skip("this scipy has no _kolmogn_DMTW")
    for n in (141, 300, 1000, 10**4):
        for d in ks_grid(n):
            if pelz_good_band(n, d):
                assert abs(_ks_pvalue(n, float(d)) - (1.0 - durbin(n, d))) < 1e-12


def scipy_suite(spec, seed, reps, wrong_marginal):
    """(statistic, p-value) of each stat_suite test, from scipy.stats on the
    same draws: the suite as it was before it dropped scipy.stats."""
    b, a = sample_batch(spec, RngStream(seed=seed, stream=1).generator(), reps)
    lam, pi = _decompose(b, a)
    pi1 = pi[:, 0]
    bp = spec.beta_prime
    size = spec.laguerre_m if spec.kind is Kind.LAGUERRE else spec.n
    shape1 = 2.0 * bp if wrong_marginal else bp
    ks = stats.kstest(pi1, "beta", args=(shape1, (size - 1) * bp))
    corr = stats.pearsonr(lam[:, -1], pi1)
    out = [(ks.statistic, ks.pvalue), (corr.statistic, corr.pvalue)]
    if spec.kind is not Kind.JACOBI_KN:
        m1 = b[:, 0]
        mean = 1.0 if spec.kind is Kind.LAGUERRE else 0.0
        z = (np.mean(m1) - mean) / (np.std(m1, ddof=1) / math.sqrt(reps))
        out.append((z, 2.0 * stats.norm.sf(abs(z))))
    return out


@pytest.mark.parametrize("spec,reps,wrong", [
    (EnsembleSpec(kind=Kind.HERMITE, n=40, beta=2.0), 300, False),
    (EnsembleSpec(kind=Kind.HERMITE, n=40, beta=2.0), 100, True),
    (EnsembleSpec(kind=Kind.HERMITE, n=6, beta=1.0), 2, False),
    (EnsembleSpec(kind=Kind.LAGUERRE, n=10, beta=2.0, m=6), 3, False),
    (EnsembleSpec(kind=Kind.LAGUERRE, n=20, beta=1.0, tau=0.5), 140, False),
    (EnsembleSpec(kind=Kind.JACOBI_KN, n=8, beta=2.0, kappa1=1.0, kappa2=0.5), 141, False),
    (EnsembleSpec(kind=Kind.JACOBI_KN, n=8, beta=4.0, a=1.0, b=2.0), 1000, True),
])
def test_stat_suite_against_scipy_stats(spec, reps, wrong):
    report = stat_suite(spec, seed=11, reps=reps, wrong_marginal=wrong)
    expect = scipy_suite(spec, seed=11, reps=reps, wrong_marginal=wrong)
    assert len(report.tests) == len(expect)
    for (name, stat, p, passed), (ref_stat, ref_p) in zip(report.tests, expect):
        assert abs(stat - ref_stat) <= 1e-15, name
        band = name == "ks_pi1_beta" and pelz_good_band(reps, stat)
        assert abs(p - ref_p) <= (5e-6 if band else 1e-12), name
        assert passed == (p > report.alpha)
