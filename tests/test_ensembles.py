"""Tridiagonal ensemble samplers: determinism, laws of the entries,
bulk statistics at moderate size."""

import hashlib
import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betaspectra.ensembles import (
    SPEC_PARAMS,
    EnsembleSpec,
    Kind,
    RngStream,
    _hermite_draw,
    _jacobi_kn_draw,
    _laguerre_draw,
    sample_batch,
    sample_hermite,
    sample_jacobi_kn,
    sample_laguerre,
    sample_beta_s,
    sample_rows,
    spectral_measure,
)
from betaspectra.equilibria import (
    ARCSINE_01,
    SC,
    ChebGrid,
    EquilibriumLaw,
    Family,
    density,
    kmk_of_slopes,
)
from betaspectra.errors import ParameterError
from betaspectra.jacobi import VerblunskyCoeffs
from betaspectra.montecarlo import CHUNK, McExperiment, mc_tail_rate, stat_suite


def test_spec_validation():
    with pytest.raises(ParameterError):
        EnsembleSpec(kind=Kind.HERMITE, n=0, beta=2.0)
    with pytest.raises(ParameterError):
        EnsembleSpec(kind=Kind.HERMITE, n=4, beta=-1.0)
    with pytest.raises(ParameterError):
        EnsembleSpec(kind=Kind.LAGUERRE, n=4, beta=2.0)
    with pytest.raises(ParameterError):
        EnsembleSpec(kind=Kind.LAGUERRE, n=4, beta=2.0, m=6)
    with pytest.raises(ParameterError):
        EnsembleSpec(kind=Kind.JACOBI_KN, n=4, beta=2.0, a=-1.5)
    with pytest.raises(ParameterError):
        EnsembleSpec(kind=Kind.JACOBI_KN, n=4, beta=2.0, interval="bogus")
    spec = EnsembleSpec(kind=Kind.LAGUERRE, n=10, beta=2.0, tau=0.5)
    assert spec.laguerre_m == 5
    assert spec.beta_prime == 1.0
    # a count with a fractional part is refused, not truncated; 10.0 is 10
    with pytest.raises(ParameterError, match="'n' must be an integer"):
        EnsembleSpec(kind=Kind.HERMITE, n=10.7, beta=2.0)
    with pytest.raises(ParameterError, match="'m' must be an integer"):
        EnsembleSpec(kind=Kind.LAGUERRE, n=10, beta=2.0, m=2.5)
    # a kind given by its value is that kind; "laguerre" once skipped the m check
    with pytest.raises(ParameterError):
        EnsembleSpec(kind="laguerre", n=4, beta=2.0, m=6)
    whole = EnsembleSpec(kind=Kind.LAGUERRE, n=10.0, beta=2.0, m=np.int64(5))
    assert (whole.n, whole.m) == (10, 5) and type(whole.n) is type(whole.m) is int


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=str)
@pytest.mark.parametrize("key", ["beta", "a", "b", "kappa1", "kappa2"])
def test_spec_refuses_non_finite_parameters(key, value):
    # NaN passed every range check (beta <= 0 and a <= -1 are both false),
    # and mc then reported every sample as a hit
    kind = Kind.HERMITE if key == "beta" else Kind.JACOBI_KN
    params = {"beta": 2.0, key: value}
    with pytest.raises(ParameterError, match=f"{key} must be finite"):
        EnsembleSpec(kind=kind, n=4, **params)


@pytest.mark.parametrize("kind, params", [
    (Kind.LAGUERRE, dict(m=10, tau=0.5)),  # m = 10 at N = 40 is tau = 0.25
    (Kind.HERMITE, dict(tau=0.5)),
    (Kind.HERMITE, dict(kappa1=1.0)),
    (Kind.LAGUERRE, dict(tau=0.5, a=1.0)),
    (Kind.JACOBI_KN, dict(m=10)),
    (Kind.JACOBI_KN, dict(a=1.0, kappa1=0.5)),
    (Kind.JACOBI_KN, dict(b=1.0, kappa2=0.5)),
])
def test_spec_refuses_ignored_or_contradictory_parameters(kind, params):
    with pytest.raises(ParameterError):
        EnsembleSpec(kind=kind, n=40, beta=2.0, **params)
    with pytest.raises(ParameterError):
        EnsembleSpec.from_json({"kind": kind.value, "n": 40, "beta": 2.0, **params})


def test_spec_law():
    assert EnsembleSpec(kind=Kind.HERMITE, n=4, beta=2.0).law == SC
    lag = EnsembleSpec(kind=Kind.LAGUERRE, n=40, beta=2.0, m=10)
    assert lag.law == EquilibriumLaw(Family.MARCHENKO_PASTUR, tau=0.25)
    slopes = EnsembleSpec(kind=Kind.JACOBI_KN, n=4, beta=2.0, kappa1=1.0, kappa2=0.5)
    assert slopes.law == kmk_of_slopes(1.0, 0.5)
    # fixed exponents are slopes 0: the arcsine law KMK(0, 1), on either interval
    for interval in ("[-2,2]", "[0,1]"):
        fixed = EnsembleSpec(kind=Kind.JACOBI_KN, n=4, beta=2.0, a=0.5, interval=interval)
        assert fixed.law == EquilibriumLaw(Family.KESTEN_MCKAY, u_minus=0.0, u_plus=1.0)


def test_measure_interval_validation():
    spec = EnsembleSpec(kind=Kind.HERMITE, n=4, beta=2.0)
    coeffs = sample_hermite(spec, RngStream(seed=1))
    with pytest.raises(ParameterError):
        spectral_measure(coeffs, interval="[0, 1]")
    with pytest.raises(ParameterError):
        spectral_measure(coeffs, interval="bogus")


def test_spec_slope_scaling():
    spec = EnsembleSpec(kind=Kind.JACOBI_KN, n=10, beta=4.0, kappa1=0.5, kappa2=0.25)
    # b(N) = beta' kappa1 N pairs with the second exponent slot
    assert spec.exponents == (2.0 * 0.25 * 10, 2.0 * 0.5 * 10)


def test_determinism_and_stream_independence():
    spec = EnsembleSpec(kind=Kind.HERMITE, n=30, beta=2.0)
    one = sample_hermite(spec, RngStream(seed=123))
    two = sample_hermite(spec, RngStream(seed=123))
    other = sample_hermite(spec, RngStream(seed=123, stream=1))
    assert np.array_equal(one.b, two.b) and np.array_equal(one.a, two.a)
    assert not np.array_equal(one.b, other.b)
    sub_a = RngStream(seed=9).substream(3)
    sub_b = RngStream(seed=9).substream(3)
    assert sub_a == sub_b
    assert sub_a != RngStream(seed=9).substream(4)


@pytest.mark.parametrize("fields, match", [
    ({"seed": -1}, "'seed' must be a non-negative integer, got -1"),
    ({"seed": 1.5}, "'seed' must be an integer, got 1.5"),
    ({"seed": "7"}, "'seed' must be an integer, got '7'"),
    ({"seed": 1, "stream": -2}, "'stream' must be a non-negative integer, got -2"),
    ({"seed": 1, "stream": 0.5}, "'stream' must be an integer, got 0.5"),
])
def test_rng_stream_refuses_a_bad_seed(fields, match):
    # refused when the stream is made, not later by numpy's SeedSequence
    with pytest.raises(ParameterError, match=match):
        RngStream(**fields)


def test_rng_stream_takes_integral_seeds():
    stream = RngStream(seed=np.int64(5), stream=2.0)
    assert (stream.seed, stream.stream) == (5, 2)
    assert type(stream.seed) is int and type(stream.stream) is int
    assert np.array_equal(stream.generator().random(3), RngStream(5, 2).generator().random(3))


def test_beta_s_orientation():
    # mean of the symmetric-beta draw is (b - a)/(b + a)
    rng = RngStream(seed=2).generator()
    x = sample_beta_s(2.0, 6.0, rng, size=400000)
    mean = (6.0 - 2.0) / (6.0 + 2.0)
    sd = np.std(x) / np.sqrt(len(x))
    assert abs(np.mean(x) - mean) < 5.0 * sd
    assert np.all(x > -1.0) and np.all(x <= 1.0)


def test_hermite_entry_laws():
    spec = EnsembleSpec(kind=Kind.HERMITE, n=200, beta=2.0)
    reps = 400
    stream = RngStream(seed=3)
    bs = np.empty(reps)
    a0sq = np.empty(reps)
    for i in range(reps):
        c = sample_hermite(spec, stream.substream(i))
        bs[i] = c.b[0]
        a0sq[i] = c.a[0] ** 2
    scale = 1.0 / (spec.beta_prime * spec.n)
    assert np.var(bs) == pytest.approx(scale, rel=0.25)
    # a_0^2 ~ gamma(beta'(N-1), 1/(beta' N)), mean (N-1)/N
    assert np.mean(a0sq) == pytest.approx((spec.n - 1) / spec.n, rel=0.02)


def test_hermite_second_moment_identity():
    # E[m_2(mu_w)] = E[b_0^2 + a_0^2] = 1/(beta' N) + (N-1)/N
    spec = EnsembleSpec(kind=Kind.HERMITE, n=400, beta=2.0)
    stream = RngStream(seed=42)
    reps = 300
    m2 = np.empty(reps)
    for i in range(reps):
        c = sample_hermite(spec, stream.substream(i))
        m2[i] = c.b[0] ** 2 + c.a[0] ** 2
    expect = 1.0 / (spec.beta_prime * spec.n) + (spec.n - 1) / spec.n
    sd = np.std(m2) / np.sqrt(reps)
    assert abs(np.mean(m2) - expect) < 5.0 * sd + 1e-12


def test_laguerre_factor_means():
    spec = EnsembleSpec(kind=Kind.LAGUERRE, n=300, beta=2.0, tau=0.5)
    draw = sample_laguerre(spec, RngStream(seed=4))
    m = spec.laguerre_m
    assert len(draw.d) == m and len(draw.s) == m - 1
    assert draw.coeffs.n == m
    # d_k^2 ~ gamma(beta'(N + 1 - k), 1/(beta' N)): compare k = 1 mean over reps
    reps = 300
    stream = RngStream(seed=5)
    d1 = np.array([sample_laguerre(spec, stream.substream(i)).d[0] ** 2 for i in range(reps)])
    expect = (spec.n + 1.0 - 1.0) / spec.n
    sd = np.std(d1) / np.sqrt(reps)
    assert abs(np.mean(d1) - expect) < 5.0 * sd


def test_laguerre_eigenvalues_positive():
    spec = EnsembleSpec(kind=Kind.LAGUERRE, n=60, beta=1.0, m=40)
    for i in range(30):
        draw = sample_laguerre(spec, RngStream(seed=6).substream(i))
        mu = spectral_measure(draw.coeffs)
        assert np.all(mu.locations > 0.0)


def test_jacobi_kn_spectrum_and_interval():
    spec = EnsembleSpec(kind=Kind.JACOBI_KN, n=25, beta=2.0, a=1.0, b=0.5)
    for i in range(100):
        alpha, coeffs = sample_jacobi_kn(spec, RngStream(seed=7).substream(i))
        assert len(alpha) == 2 * spec.n - 1
        mu = spectral_measure(coeffs)
        assert np.all(mu.locations >= -2.0 - 1e-9)
        assert np.all(mu.locations <= 2.0 + 1e-9)
    mapped = spectral_measure(coeffs, interval="[0,1]")
    assert np.all((mapped.locations >= -1e-9) & (mapped.locations <= 1.0 + 1e-9))
    assert mapped.locations == pytest.approx((mu.locations + 2.0) / 4.0, abs=1e-14)


def test_jacobi_kn_alpha_matches_scalar_draws():
    # reference: one scalar beta_s draw per index, alpha_{2p} before alpha_{2p-1}
    def scalar(n, ea, eb, bp, gen):
        alpha = np.empty(2 * n - 1)
        for p in range(n):
            alpha[2 * p] = sample_beta_s(
                (n - p - 1) * bp + ea + 1.0, (n - p - 1) * bp + eb + 1.0, gen
            )
            if p >= 1:
                alpha[2 * p - 1] = sample_beta_s(
                    (n - p - 1) * bp + ea + eb + 2.0, (n - p) * bp, gen
                )
        return alpha

    rng = np.random.default_rng(40)
    for seed in range(40):
        n = int(rng.integers(1, 60))
        ea, eb = rng.uniform(-0.99, 20.0, 2)
        bp = float(rng.choice([0.5, 1.0, rng.uniform(0.1, 4.0)]))
        fast = VerblunskyCoeffs(_jacobi_kn_draw(n, ea, eb, bp, np.random.default_rng(seed), 1)[0])
        assert np.array_equal(fast.alpha, scalar(n, ea, eb, bp, np.random.default_rng(seed)))


@settings(max_examples=90, deadline=None, derandomize=True)
@given(kind=st.sampled_from(list(Kind)), n=st.integers(1, 30), beta=st.floats(0.05, 6.0),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_batch_of_one_equals_public_samplers(kind, n, beta, seed, data):
    params = {}
    if kind is Kind.LAGUERRE:
        params["m"] = data.draw(st.integers(1, n))
    if kind is Kind.JACOBI_KN:
        params["a"] = data.draw(st.floats(-0.99, 10.0))
        params["b"] = data.draw(st.floats(-0.99, 10.0))
    spec = EnsembleSpec(kind=kind, n=n, beta=beta, **params)
    b, a = sample_batch(spec, RngStream(seed=seed).generator(), 1)
    if kind is Kind.HERMITE:
        coeffs = sample_hermite(spec, RngStream(seed=seed))
    elif kind is Kind.LAGUERRE:
        coeffs = sample_laguerre(spec, RngStream(seed=seed)).coeffs
    else:
        coeffs = sample_jacobi_kn(spec, RngStream(seed=seed))[1]
    assert np.array_equal(b[0], coeffs.b)
    assert np.array_equal(a[0], coeffs.a)


# Specs whose Beta draws have a parameter near 0, so that they round to 0 or
# 1 and 2x - 1 to -1 or 1 exactly. Before the draws were clipped to
# (-1, 1), 148, 144, 182 and 26 of 200 seeds raised RangeError.
KN_EDGE_SPECS = (
    {"beta": 2.0, "a": -0.99},
    {"beta": 2.0, "b": -0.99},
    {"beta": 0.02},
    {"beta": 0.1, "a": -0.5, "b": -0.5},
)


@pytest.mark.parametrize("params", KN_EDGE_SPECS, ids=str)
def test_jacobi_kn_accepts_exponents_near_minus_one(params):
    spec = EnsembleSpec(kind=Kind.JACOBI_KN, n=5, **params)
    for seed in range(200):
        alpha, coeffs = sample_jacobi_kn(spec, RngStream(seed=seed))
        assert np.max(np.abs(alpha.alpha)) < 1.0
        assert np.min(coeffs.a) > 0.0
    stat_suite(spec, seed=0, reps=20)
    mc_tail_rate(McExperiment(spec=spec, x=1.9, n_list=(5,), samples=2000, seed=0))


SMALL_BETA_SPECS = (
    EnsembleSpec(kind=Kind.HERMITE, n=5, beta=2e-3),
    EnsembleSpec(kind=Kind.LAGUERRE, n=5, beta=2e-3, m=5),
)


@pytest.mark.parametrize("spec", SMALL_BETA_SPECS, ids=lambda spec: spec.kind.value)
def test_small_beta_chi_draws_stay_positive(spec):
    # chi draws with shape ~1e-3 underflowed to exactly 0 on 126 (Hermite)
    # and 167 (Laguerre) of these 200 seeds, and a_k = 0 was rejected
    for seed in range(200):
        stream = RngStream(seed=seed)
        if spec.kind is Kind.HERMITE:
            coeffs = sample_hermite(spec, stream)
        else:
            draw = sample_laguerre(spec, stream)
            assert np.min(draw.d) > 0.0 and np.min(draw.s) > 0.0
            coeffs = draw.coeffs
        assert np.min(coeffs.a) > 0.0
        assert spectral_measure(coeffs).n_atoms == 5
    stat_suite(spec, seed=0, reps=20)


def test_jacobi_kn_even_alpha_mean_sign():
    # with slopes kappa1 > kappa2 = 0 the even-index coefficients have
    # positive mean under the pinned symmetric-beta orientation
    spec = EnsembleSpec(kind=Kind.JACOBI_KN, n=300, beta=2.0, kappa1=1.0, kappa2=0.0)
    reps = 200
    first = np.empty(reps)
    for i in range(reps):
        alpha, _ = sample_jacobi_kn(spec, RngStream(seed=8).substream(i))
        first[i] = alpha.alpha[0]
    k1, k2 = 1.0, 0.0
    target = abs(k1 - k2) / (2.0 + k1 + k2)
    sample_med = float(np.median(first))
    assert abs(sample_med) == pytest.approx(target, abs=0.1)
    print(f"even-index alpha median sign: {np.sign(sample_med):+.0f} "
          f"(magnitude {abs(sample_med):.3f}, limit {target:.3f})")


def test_esd_arcsine_chi2_improves_with_n():
    # Jacobi-KN with constant exponents has arcsine-distributed eigenvalues
    # in the large-N limit; a chi-square statistic of their empirical
    # distribution (the locations of the spectral measure) should shrink with N
    def chi2(n):
        spec = EnsembleSpec(kind=Kind.JACOBI_KN, n=n, beta=2.0, a=0.0, b=0.0)
        counts = np.zeros(8)
        reps = max(1, 4000 // n)
        for i in range(reps):
            _, coeffs = sample_jacobi_kn(spec, RngStream(seed=11).substream(i))
            mu = spectral_measure(coeffs, interval="[0,1]")
            counts += np.histogram(mu.locations, bins=8, range=(0.0, 1.0))[0]
        grid = ChebGrid.for_interval(*ARCSINE_01.edges, 1024)
        edges = np.linspace(0.0, 1.0, 9)
        probs = np.array([
            float(np.dot(grid.weights[(grid.nodes >= lo) & (grid.nodes < hi)],
                         density(ARCSINE_01, grid.nodes[(grid.nodes >= lo) & (grid.nodes < hi)])))
            for lo, hi in zip(edges[:-1], edges[1:])
        ])
        probs /= probs.sum()
        total = counts.sum()
        return float(np.sum((counts / total - probs) ** 2 / probs))

    assert chi2(200) < chi2(25)


def test_spec_json_round_trip():
    # every valid combination of each ensemble's parameters, on both intervals
    values = {"m": 7, "tau": 0.5, "a": 0.3, "b": 1.5, "kappa1": 0.3, "kappa2": 0.1}
    valid = 0
    for kind, interval in itertools.product(Kind, ("[-2,2]", "[0,1]")):
        for r in range(len(SPEC_PARAMS) + 1):
            for keys in itertools.combinations(SPEC_PARAMS, r):
                try:
                    spec = EnsembleSpec(kind=kind, n=10, beta=1.0, interval=interval,
                                        **{k: values[k] for k in keys})
                except ParameterError:
                    continue
                assert EnsembleSpec.from_json(spec.to_json()) == spec
                valid += 1
    # Hermite: no parameter; Laguerre: m or tau; Jacobi-KN: a subset of
    # (a, b) or a nonempty subset of the slopes, on either interval
    assert valid == 1 + 2 + 2 * (4 + 3)


def test_spec_refuses_unit_interval_outside_jacobi_kn():
    for kind, params in ((Kind.HERMITE, {}), (Kind.LAGUERRE, {"tau": 0.5})):
        with pytest.raises(ParameterError, match="only jacobi_kn"):
            EnsembleSpec(kind=kind, n=5, beta=2.0, interval="[0,1]", **params)


# sha256 of b then a, both C-ordered little-endian doubles, of
# sample_batch(spec, RngStream(seed=17).generator(batch), batch). Jacobi-KN
# is pinned from the samplers as they stood before the batch paths were made
# lean; Hermite and Laguerre from the draws in the row order of sample_rows
BATCH_SPECS = {
    Kind.HERMITE: EnsembleSpec(kind=Kind.HERMITE, n=40, beta=1.0),
    Kind.LAGUERRE: EnsembleSpec(kind=Kind.LAGUERRE, n=40, beta=2.0, tau=0.5),
    Kind.JACOBI_KN: EnsembleSpec(kind=Kind.JACOBI_KN, n=40, beta=1.0, kappa1=1.0, kappa2=0.5),
}
BATCH_DIGESTS = {
    (Kind.HERMITE, 1): "ac000bed8ce8f21be13fa622ac2a68c5e61581801ced6c30287ee5a5f4ad3dce",
    (Kind.HERMITE, 5): "edcdbc29c3dd761e3647f631dd8fe793cfe8043343da7d1d12067f4bd6966ee0",
    (Kind.HERMITE, CHUNK): "7fd65f12918d18e5d89ae50cc3602d207c09f7848fad189cced5157ffe962533",
    (Kind.HERMITE, CHUNK + 1): "d379bc09bd817f679e4773d4a69a7b6fa46fabedbe64303ae5a8004bca211f64",
    (Kind.LAGUERRE, 1): "27183c3ae31732fe6a0c2b0bf1aca8c4aa4d2ddbe3b85e085b964ef76dac1ed4",
    (Kind.LAGUERRE, 5): "cd7c1f011cbe59f496d4a651659caa93d15253245e27fde2499a09ce577c0079",
    (Kind.LAGUERRE, CHUNK): "1f65f2fb14569eb292cbd784e621629022377d060da41b22658267f407360ed6",
    (Kind.LAGUERRE, CHUNK + 1): "68922504da9534686a9baf28076db38bdb8bbb87e579b9bdfc3b2e1117d2f754",
    (Kind.JACOBI_KN, 1): "bbb1f5a6256c53c7560cf49723c01f95dbdeb2c9d5824090a633d39bfc1c9fd4",
    (Kind.JACOBI_KN, 5): "548f9165eb52e4be90648066b68f4482720c196b109ab9bf7b22cbe4385dee0a",
    (Kind.JACOBI_KN, CHUNK): "a9949be9f856a44b8b1a3a9b48ec665be867944d03e4aa2cc2824eaa7167c6a5",
    (Kind.JACOBI_KN, CHUNK + 1): "983086dfe71203f05cfeae925c0c4a80587b5c1a92658ba012936c316227a2ce",
}


@pytest.mark.parametrize("kind, batch", BATCH_DIGESTS, ids=lambda v: getattr(v, "value", v))
def test_sample_batch_golden_digests(kind, batch):
    b, a = sample_batch(BATCH_SPECS[kind], RngStream(seed=17).generator(batch), batch)
    h = hashlib.sha256(np.ascontiguousarray(b, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    assert h.hexdigest() == BATCH_DIGESTS[kind, batch]


def test_spec_dim():
    assert EnsembleSpec(kind=Kind.HERMITE, n=7, beta=1.0).dim == 7
    assert EnsembleSpec(kind=Kind.LAGUERRE, n=7, beta=1.0, m=3).dim == 3
    assert EnsembleSpec(kind=Kind.LAGUERRE, n=10, beta=1.0, tau=0.5).dim == 5
    assert EnsembleSpec(kind=Kind.JACOBI_KN, n=7, beta=1.0, kappa1=1.0).dim == 7


def _gather_rows(spec, gen, batch):
    rows = list(sample_rows(spec, gen, batch))
    assert len(rows) == spec.dim
    assert rows[0][1] == 0.0
    b = np.stack([row[0] for row in rows], axis=1)
    a2 = np.stack([row[1] for row in rows[1:]], axis=1) if spec.dim > 1 else np.empty((batch, 0))
    return b, a2


EPS = np.finfo(float).eps
ROW_SPECS = {
    "hermite": BATCH_SPECS[Kind.HERMITE],
    "laguerre-m<n": BATCH_SPECS[Kind.LAGUERRE],
    "laguerre-m=n": EnsembleSpec(kind=Kind.LAGUERRE, n=40, beta=0.5, tau=1.0),
    "jacobi_kn": BATCH_SPECS[Kind.JACOBI_KN],
    "jacobi_kn-exponents": EnsembleSpec(kind=Kind.JACOBI_KN, n=4, beta=2.0, a=0.5, b=1.5),
}


@pytest.mark.parametrize("n, batch", [(1, 3), (2, 1), (7, 5), (40, CHUNK + 1)])
@pytest.mark.parametrize("name", ROW_SPECS)
def test_rows_are_the_whole_array_draws(name, n, batch):
    # sample_rows and sample_batch draw the same numbers in the same order:
    # the rows are recomputed bit for bit from the whole-array draws, and
    # sample_batch's coefficients are the roots those draws give
    spec = replace(ROW_SPECS[name], n=n)

    def gen():
        return RngStream(seed=17).generator(batch)

    rows_b, rows_a2 = _gather_rows(spec, gen(), batch)
    full_b, full_a = sample_batch(spec, gen(), batch)
    if spec.kind is Kind.HERMITE:
        b, a2 = _hermite_draw(n, spec.beta_prime, gen(), batch)
    elif spec.kind is Kind.LAGUERRE:
        d2, s2 = _laguerre_draw(n, spec.dim, spec.beta_prime, gen(), batch)
        b = np.concatenate((d2[:, :1], s2 + d2[:, 1:]), axis=1)
        a2 = s2 * d2[:, :-1]
    else:
        b, a2 = full_b, np.square(full_a)
    assert np.array_equal(rows_b, b)
    assert np.array_equal(rows_a2, a2)
    assert np.allclose(full_b, b, rtol=8 * EPS, atol=0.0)
    assert np.allclose(np.square(full_a), a2, rtol=8 * EPS, atol=0.0)


@pytest.mark.parametrize("spec", [
    EnsembleSpec(kind=Kind.HERMITE, n=9, beta=1.0),
    EnsembleSpec(kind=Kind.LAGUERRE, n=9, beta=2.0, m=6),
    EnsembleSpec(kind=Kind.LAGUERRE, n=9, beta=0.5, m=9),
], ids=["hermite", "laguerre-m6", "laguerre-m9"])
def test_rows_follow_the_entry_laws(spec):
    # Hermite: b_i ~ N(0, 1/(beta' N)), a_j^2 ~ Gamma(beta'(N - 1 - j), 1/(beta' N));
    # Laguerre: d_k^2 ~ Gamma(beta'(N + 1 - k)), s_k^2 ~ Gamma(beta'(m - k)),
    # b_k = s_k^2 + d_{k+1}^2, a_{k-1}^2 = s_k^2 d_k^2, all of scale 1/(beta' N)
    n, bp, batch = spec.n, spec.beta_prime, 40000
    scale = 1.0 / (bp * n)
    b, a2 = _gather_rows(spec, RngStream(seed=3).generator(0), batch)
    if spec.kind is Kind.HERMITE:
        mean_b = np.zeros(n)
        mean_a2 = bp * (n - 1.0 - np.arange(n - 1)) * scale
    else:
        m = spec.dim
        ed = bp * (n + 1.0 - np.arange(1, m + 1)) * scale
        es = bp * (m - np.arange(1, m)) * scale
        mean_b = np.concatenate(([ed[0]], es + ed[1:]))
        mean_a2 = es * ed[:-1]
    for draws, mean in ((b, mean_b), (a2, mean_a2)):
        sem = draws.std(axis=0) / np.sqrt(batch)
        assert np.all(np.abs(draws.mean(axis=0) - mean) <= 6.0 * sem)
    # rows of different samples are independent and not copies of each other
    assert np.unique(b[:, -1]).size == batch


@pytest.mark.parametrize("spec", SMALL_BETA_SPECS, ids=lambda spec: spec.kind.value)
def test_small_beta_rows_stay_positive(spec):
    # Gamma draws of shape ~1e-3 underflow to 0; the rows floor them as the
    # full samplers do. A Laguerre a_{k-1}^2 = S_{k-1} D_{k-1} of two floored
    # draws can still round to 0, which decouples rows whose coupling was
    # below 1e-300 anyway; b_k = S_{k-1} + D_k stays > 0
    for seed in range(20):
        b, a2 = _gather_rows(spec, RngStream(seed=seed).generator(0), 64)
        assert np.min(a2 if spec.kind is Kind.HERMITE else b) > 0.0
