import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from regflood.distributions import (
    SHAPE_EPS,
    _KDE_REACH,
    _gp_loglik,
    _loglik_bounds,
    _kde_pdf,
    GpParams,
    KappaParams,
    gp_cdf,
    gp_logpdf,
    gp_quantile,
    gp_rescale,
    gp_sample,
    kappa_cdf,
    kappa_quantile,
    kappa_sample,
)
from regflood.errors import DegenerateSampleError, InputError

PARAM_GRID = [
    GpParams(0.0, 1.0, 0.2),
    GpParams(0.0, 1.0, 0.0),
    GpParams(3.0, 2.5, -0.3),
    GpParams(-1.0, 0.5, 0.45),
    GpParams(10.0, 4.0, -0.05),
]


def test_gp_quantile_reference_values():
    # x(0.9) = 5 * (10**0.2 - 1) for unit exponential-like GP with shape 0.2
    assert gp_quantile(GpParams(0.0, 1.0, 0.2), 0.9) == pytest.approx(
        2.924465962305568, rel=1e-12
    )
    assert gp_quantile(GpParams(0.0, 1.0, 0.0), 0.9) == pytest.approx(
        2.302585092994046, rel=1e-12
    )
    assert gp_quantile(GpParams(0.0, 1.0, 0.2), 0.0) == 0.0


def test_gp_quantile_rejects_bad_probabilities():
    params = GpParams(0.0, 1.0, 0.1)
    for p in (-0.1, 1.0, 1.5, np.nan):
        with pytest.raises(InputError):
            gp_quantile(params, p)


@pytest.mark.parametrize("params", PARAM_GRID)
def test_gp_cdf_quantile_round_trip(params):
    p = np.linspace(0.0, 0.999, 101)
    back = gp_cdf(params, gp_quantile(params, p))
    assert np.max(np.abs(back - p)) < 1e-10


def test_gp_shape_continuity_near_zero():
    p = np.linspace(0.01, 0.99, 25)
    near = gp_quantile(GpParams(0.0, 1.0, 1e-9), p)
    zero = gp_quantile(GpParams(0.0, 1.0, 0.0), p)
    assert np.max(np.abs(near - zero)) < 1e-6


def test_gp_cdf_clamps_outside_support():
    pos = GpParams(1.0, 2.0, 0.3)
    assert gp_cdf(pos, 0.5) == 0.0
    neg = GpParams(0.0, 1.0, -0.5)  # upper endpoint at 2.0
    assert gp_cdf(neg, 2.0) == 1.0
    assert gp_cdf(neg, 5.0) == 1.0
    assert gp_logpdf(pos, 0.5) == -np.inf
    assert gp_logpdf(neg, 2.5) == -np.inf


@pytest.mark.parametrize("params", PARAM_GRID)
def test_gp_density_normalizes(params):
    total, _ = integrate.quad(
        lambda x: np.exp(gp_logpdf(params, x)),
        params.location,
        params.upper_endpoint,
        limit=300,
    )
    assert total == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("params", PARAM_GRID)
def test_gp_matches_scipy_convention(params):
    # cross-check against scipy's genpareto (same sign convention: c = shape)
    x = gp_quantile(params, np.linspace(0.05, 0.95, 10))
    ref = stats.genpareto.logpdf(x, params.shape, loc=params.location, scale=params.scale)
    assert np.allclose(gp_logpdf(params, x), ref, atol=1e-9)
    ref_cdf = stats.genpareto.cdf(x, params.shape, loc=params.location, scale=params.scale)
    assert np.allclose(gp_cdf(params, x), ref_cdf, atol=1e-12)


def test_gp_sample_reproducible_and_in_support():
    params = GpParams(2.0, 1.5, -0.2)
    a = gp_sample(params, 1000, seed=42)
    b = gp_sample(params, 1000, seed=42)
    assert np.array_equal(a, b)
    assert np.all(a >= params.location)
    assert np.all(a <= params.upper_endpoint)


def test_gp_rescale_matches_scaled_samples():
    params = GpParams(1.0, 0.5, 0.1)
    scaled = gp_rescale(params, 2.0)
    assert scaled == GpParams(2.0, 1.0, 0.1)
    # KS check: 2 * X should follow the rescaled law
    x = 2.0 * gp_sample(params, 10000, seed=7)
    d, _ = stats.kstest(x, lambda v: gp_cdf(scaled, v))
    assert d < 0.02


def test_gp_params_validation():
    with pytest.raises(InputError):
        GpParams(0.0, -1.0, 0.1)
    with pytest.raises(InputError):
        GpParams(0.0, 0.0, 0.1)
    with pytest.raises(InputError):
        GpParams(np.nan, 1.0, 0.1)
    with pytest.raises(InputError):
        gp_rescale(GpParams(0.0, 1.0, 0.1), -2.0)
    with pytest.raises(InputError):
        gp_cdf(GpParams(0.0, 1.0, 0.1), np.inf)


def test_kappa_h_one_is_gp():
    # h = 1 collapses to GP with shape = -k
    kp = KappaParams(1.0, 2.0, 0.3, 1.0)
    gp = GpParams(1.0, 2.0, -0.3)
    p = np.linspace(0.01, 0.99, 50)
    assert np.allclose(kappa_quantile(kp, p), gp_quantile(gp, p), rtol=1e-12)
    x = gp_quantile(gp, p)
    assert np.allclose(kappa_cdf(kp, x), gp_cdf(gp, x), atol=1e-12)


def test_kappa_gumbel_case():
    kp = KappaParams(0.0, 1.0, 0.0, 0.0)
    p = np.array([0.1, 0.5, 0.9])
    expected = -np.log(-np.log(p))
    assert np.allclose(kappa_quantile(kp, p), expected, rtol=1e-12)


@pytest.mark.parametrize(
    "kp",
    [
        KappaParams(0.0, 1.0, 0.2, -0.4),
        KappaParams(5.0, 2.0, -0.1, 0.5),
        KappaParams(-2.0, 0.7, 0.4, 1.3),
        KappaParams(0.0, 1.0, 0.0, -1.0),
    ],
)
def test_kappa_cdf_quantile_round_trip(kp):
    p = np.linspace(0.001, 0.999, 101)
    back = kappa_cdf(kp, kappa_quantile(kp, p))
    assert np.max(np.abs(back - p)) < 1e-9


def test_kappa_numerical_inversion_oracle():
    # independent check of the closed-form cdf by bisecting the quantile
    kp = KappaParams(0.0, 1.0, -0.1, -1.0)
    x = kappa_quantile(kp, 0.99)
    lo, hi = 1e-12, 1.0 - 1e-12
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if kappa_quantile(kp, mid) < x:
            lo = mid
        else:
            hi = mid
    assert kappa_cdf(kp, x) == pytest.approx(0.99, abs=1e-10)
    assert 0.5 * (lo + hi) == pytest.approx(0.99, abs=1e-10)


def test_kappa_sample_reproducible():
    kp = KappaParams(0.0, 1.0, 0.1, 0.5)
    a = kappa_sample(kp, 500, seed=3)
    b = kappa_sample(kp, 500, seed=3)
    assert np.array_equal(a, b)
    d, _ = stats.kstest(kappa_sample(kp, 8000, seed=11), lambda v: kappa_cdf(kp, v))
    assert d < 0.02


EDGE_PEAKS = gp_sample(GpParams(5.0, 2.0, 0.1), 30, seed=15)


@st.composite
def near_edge_params(draw):
    """(mu, sigma, xi) at and around the support edges of EDGE_PEAKS."""
    xmin, xmax = float(EDGE_PEAKS.min()), float(EDGE_PEAKS.max())
    mu = draw(
        st.one_of(
            st.sampled_from(
                [xmin, math.nextafter(xmin, -math.inf), math.nextafter(xmin, math.inf)]
            ),
            st.floats(xmin - 3.0, xmin + 0.5),
        )
    )
    sigma = draw(st.floats(0.05, 20.0))
    # the shape that puts the upper endpoint exactly on the largest peak
    edge = -sigma / (xmax - mu) if xmax > mu else -1.0
    xi = draw(
        st.one_of(
            st.sampled_from([0.0, 1e-9, -1e-9]),
            st.sampled_from(
                [edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)]
            ),
            st.floats(-2.0, 2.0),
        )
    )
    return mu, sigma, xi


@settings(deadline=None, max_examples=300, derandomize=True)
@given(near_edge_params())
def test_residual_loglik_matches_gp_logpdf(params):
    mu, sigma, xi = params
    x = EDGE_PEAKS
    got = _gp_loglik(x - mu, x.min() - mu, x.max() - mu, sigma, xi)
    want = float(gp_logpdf(GpParams(mu, sigma, xi), x).sum())
    if math.isfinite(want):
        assert got == pytest.approx(want, rel=1e-9)
    else:
        assert got == -math.inf
    # an empty record has no extremes, and its log likelihood is 0
    empty = np.empty(0)
    assert _gp_loglik(empty, math.inf, -math.inf, sigma, xi) == 0.0
    assert float(gp_logpdf(GpParams(mu, sigma, xi), empty).sum()) == 0.0
    assert loglik_bounds(empty, mu, math.inf, -math.inf, sigma, xi) == (0.0, 0.0)


@settings(deadline=None, max_examples=300, derandomize=True)
@given(near_edge_params())
def test_residual_loglik_is_the_scaled_form_at_rounding_level(params):
    # the kernel once took w = (x - mu) / sigma and summed log(1 + xi * w);
    # it now sums log1p((xi / sigma) * (x - mu)), which moves no value by
    # more than rounding where every 1 + xi * w keeps its leading digits
    mu, sigma, xi = params
    x = EDGE_PEAKS
    w = (x - mu) / sigma
    if w.min() < 0.0:
        return
    if abs(xi) < SHAPE_EPS:
        former = -x.size * math.log(sigma) - float(w.sum())
    else:
        t = 1.0 + xi * w
        if t.min() < 1e-3:
            return
        former = -x.size * math.log(sigma) - (1.0 / xi + 1.0) * float(np.log(t).sum())
    got = _gp_loglik(x - mu, x.min() - mu, x.max() - mu, sigma, xi)
    assert got == pytest.approx(former, rel=1e-12)


# 2**53 absorbs every 1.0 added after it left to right, but not numpy's
# pairwise sum: at these sizes the two orders give different sums
_ORDER_SENSITIVE = [2.0**53] + [1.0] * 55


@pytest.mark.parametrize("n", [55, 56])
def test_kernel_sums_pairwise_at_every_record_size(n):
    # the exponential law's terms are the residuals themselves
    y = np.array(_ORDER_SENSITIVE[:n])
    sigma = 2.0
    pairwise = float(np.add.reduce(y))
    assert sum(y.tolist()) != pairwise
    want = -n * math.log(sigma) - pairwise / sigma
    assert _gp_loglik(y, float(y.min()), float(y.max()), sigma, 0.0) == want


def test_log1p_never_sees_minus_one_at_the_support_edges():
    # locations on the smallest peak and shapes that put the upper endpoint
    # on the largest one, to the ulp: the kernel decides the support on
    # scalars and gp_logpdf clamps, so neither warns, and they agree
    x = EDGE_PEAKS
    xmin, xmax = float(x.min()), float(x.max())
    exact = 0
    for sigma in (0.05, 1.0, 7.3, 20.0):
        for mu in (xmin - 3.0, xmin - 0.1, math.nextafter(xmin, -math.inf), xmin):
            edge = -sigma / (xmax - mu)
            for xi in (edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)):
                exact += 1.0 + (xi / sigma) * (xmax - mu) == 0.0
                with np.errstate(all="raise"):
                    got = _gp_loglik(x - mu, xmin - mu, xmax - mu, sigma, xi)
                    pointwise = gp_logpdf(GpParams(mu, sigma, xi), x)
                if np.isfinite(pointwise).all():
                    assert got == pytest.approx(float(pointwise.sum()), rel=1e-9)
                else:
                    assert got == -math.inf
    # some shapes put the largest peak exactly on the endpoint
    assert exact > 0


def loglik_bounds(peaks, mu, y_min, y_max, sigma, xi):
    """The bounds of ``_loglik_bounds(peaks)`` at (mu, sigma, xi), given the
    scalars of mu and sigma as the sampler computes them."""
    bounds, centre, x_sec = _loglik_bounds(peaks)
    base = -peaks.size * math.log(sigma)
    return bounds(base, centre - mu, y_min, x_sec - mu, y_max, sigma, xi)


def _ulp_beyond(edge_sigma):
    # the scale that puts the upper endpoint on a peak, or an ulp either side
    return st.sampled_from([-math.inf, 0.0, math.inf]).map(
        lambda side: edge_sigma if side == 0.0 else math.nextafter(edge_sigma, side)
    )


@st.composite
def interval_cases(draw):
    """A record of 1-120 peaks and (mu, sigma, xi) from the families where
    the interval's margin is thinnest: offsets up to 1e5 times the spread,
    shapes within 1e-6 of 0 and at +-SHAPE_EPS, shapes near -1 with the
    largest or second-largest peak near the upper endpoint (on it, within
    an ulp, or further), peaks on the threshold, peaks tied at the
    maximum, n = 1 and n = 2, and theta y_max up to 1e3, where the exact
    term is large."""
    n = draw(st.one_of(st.sampled_from([1, 2]), st.integers(1, 120)))
    spread = draw(st.floats(0.05, 50.0))
    offset = draw(st.one_of(st.floats(0.0, 10.0), st.floats(10.0, 1e5)))
    u = spread * offset
    peaks = gp_sample(
        GpParams(u, spread, draw(st.floats(-0.5, 0.8))), n, seed=draw(st.integers(0, 2**20))
    )
    peaks[: draw(st.integers(0, n))] = u
    if n >= 2 and draw(st.booleans()):
        # two or more peaks tied at the maximum
        peaks[: draw(st.integers(2, n))] = peaks.max()
    xmin, xmax = float(peaks.min()), float(peaks.max())
    mu = draw(
        st.one_of(
            st.sampled_from([xmin, math.nextafter(xmin, math.inf)]),
            st.floats(xmin - 3.0 * spread, xmin),
            st.floats(0.0, 1e-6).map(lambda f: xmin - f * spread),
        )
    )
    sigma = spread * draw(st.floats(0.05, 20.0))
    xi = draw(
        st.one_of(
            st.floats(-0.9, 1.5),
            st.floats(-1e-6, 1e-6),
            st.sampled_from([-1.0, 1.0]).map(lambda sign: sign * SHAPE_EPS),
            st.sampled_from([-1.0, 1.0]).map(lambda sign: sign * math.nextafter(SHAPE_EPS, 0.0)),
            st.floats(-1.2, -0.8),
        )
    )
    if xi < -0.5 and xmax > mu and draw(st.booleans()):
        # the upper endpoint just beyond (or on) the largest peak
        sigma = -xi * (xmax - mu) * (1.0 + draw(st.sampled_from([0.0, 1e-15, 1e-9, 1e-4, 0.1])))
    elif xi < -0.5 and xmax > mu and draw(st.booleans()):
        # the upper endpoint within an ulp of the largest or the second
        # largest peak; beyond the second one, the largest is off the support
        ordered = np.sort(peaks)
        top = float(ordered[-1 if n == 1 or draw(st.booleans()) else -2])
        if top > mu:
            sigma = draw(_ulp_beyond(-xi * (top - mu)))
    elif xmax > mu and draw(st.booleans()):
        # theta y_max up to 1e3: the largest peak's exact term dominates
        xi = min(1e6, 10.0 ** draw(st.floats(-1.0, 3.0)) * sigma / (xmax - mu))
    return peaks, mu, sigma, xi


# equal peaks whose upper endpoint is the peak itself, within rounding: the
# rounded mean of three of them lands beyond the endpoint, where log1p at
# the expansion point would raise, so the interval must widen instead
_TIED_AT_THE_ENDPOINT = (
    np.full(4, 378442.5888156333), 378442.58880763926, 7.804198824823164e-06, -0.9762490425909505
)
# theta = xi / sigma near 2.7e132, whose fourth power overflows: with the
# other peak tied (m4 = 0) the remainder was inf * 0 = nan, and so were
# both bounds
_THETA4_OVERFLOWS = (np.zeros(2), -3.7079901280822674e-133, 3.7079901317902575e-133, -1.0)
# peaks near 1e80, whose central fourth powers overflow: m4 was inf, which
# theta^4 * m4 carried into both bounds as (inf, inf) around a kernel value
# of -746.92
_M4_OVERFLOWS = (np.array([1e80, 2e80, 3e80, 5e80]), 0.0, 1e80, 0.2)


@settings(deadline=None, max_examples=1500, derandomize=True)
@given(interval_cases())
@example(_TIED_AT_THE_ENDPOINT)
@example((np.full(3, 378442.5888156333),) + _TIED_AT_THE_ENDPOINT[1:])
@example(_THETA4_OVERFLOWS)
@example(_M4_OVERFLOWS)
def test_loglik_interval_encloses_the_kernel(case):
    peaks, mu, sigma, xi = case
    y = peaks - mu
    y_min, y_max = float(y.min()), float(y.max())
    got = _gp_loglik(y, y_min, y_max, sigma, xi)
    lo, hi = loglik_bounds(peaks, mu, y_min, y_max, sigma, xi)
    assert lo <= got <= hi
    # the interval makes the kernel's support decision
    assert (hi == -math.inf) == (got == -math.inf)


def test_loglik_interval_is_narrow_on_an_ordinary_record():
    # what lets the sampler decide most moves without the kernel
    x = EDGE_PEAKS
    mu = float(x.min()) - 0.1
    for xi, width in ((0.0, 1e-9), (0.1, 0.05)):
        lo, hi = loglik_bounds(x, mu, x.min() - mu, x.max() - mu, 2.0, xi)
        assert 0.0 < hi - lo < width
    # near the upper endpoint: the largest peak, moved out to 25, lies at
    # nine tenths of the way to it.  With that peak inside the remainder
    # the interval was 1,497 nats wide; its exact term leaves the others'
    # remainder, whose smallest 1 + theta y is about 0.6
    x = np.sort(EDGE_PEAKS)
    x[-1] = 25.0
    y_min, y_max = float(x.min()) - mu, float(x.max()) - mu
    sigma = 8.0
    xi = -0.9 * sigma / y_max
    lo, hi = loglik_bounds(x, mu, y_min, y_max, sigma, xi)
    assert lo <= _gp_loglik(x - mu, y_min, y_max, sigma, xi) <= hi
    assert 0.0 < hi - lo < 0.05


def test_kappa_params_validation():
    with pytest.raises(InputError):
        KappaParams(0.0, 1.0, -1.2, 0.5)
    with pytest.raises(InputError):
        KappaParams(0.0, 1.0, 3.0, -0.5)  # h * k <= -1
    with pytest.raises(InputError):
        KappaParams(0.0, -1.0, 0.1, 0.5)


@pytest.mark.parametrize("n", [10, 37, 60_000])
def test_kde_pdf_matches_gaussian_kde(n):
    # padded grids as the bayes density output uses, on a narrow, a skewed
    # and a heavy-tailed sample; the sums' order differs from scipy's
    rng = np.random.default_rng(n)
    for x in (rng.normal(120.0, 5.0, n), rng.lognormal(0.0, 1.0, n), rng.standard_t(3, n)):
        lo, hi = x.min(), x.max()
        pad = 0.1 * (hi - lo)
        grid = np.linspace(lo - pad, hi + pad, 201)
        kde = stats.gaussian_kde(x)
        np.testing.assert_allclose(_kde_pdf(x, grid), kde(grid), rtol=1e-11, atol=0.0)
        point = float(np.median(x))
        np.testing.assert_allclose(_kde_pdf(x, point), kde(point), rtol=1e-11, atol=0.0)


def test_kde_pdf_matches_gaussian_kde_across_a_gap_wider_than_the_reach():
    # 0.5 % of the draws 1000 away: Scott's bandwidth is about 9.8, so the
    # gap spans some 100 bandwidths and its middle lies beyond _KDE_REACH of
    # every draw, where both estimates underflow to 0
    rng = np.random.default_rng(29)
    x = np.concatenate([rng.normal(0.0, 1.0, 19_900), rng.normal(1000.0, 1.0, 100)])
    h = float(np.std(x, ddof=1)) * x.size**-0.2
    gap = float(x[19_900:].min() - x[:19_900].max())
    assert gap > 2.0 * _KDE_REACH * h
    near = np.concatenate([np.linspace(-6.0, 6.0, 25), np.linspace(994.0, 1006.0, 25)])
    tails = x[:19_900].max() + h * np.array([5.0, 20.0, 30.0])
    beyond = x[:19_900].max() + h * np.array([39.5, 45.0, 50.0])
    kde = stats.gaussian_kde(x)
    for points in (near, tails):
        got = _kde_pdf(x, points)
        assert np.all(got > 0.0)
        np.testing.assert_allclose(got, kde(points), rtol=1e-11, atol=0.0)
    assert np.all(_kde_pdf(x, beyond) == 0.0)
    assert np.all(kde(beyond) == 0.0)


def _ulps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance between non-negative doubles in units in the last place."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


@settings(deadline=None, max_examples=40, derandomize=True)
@given(
    n=st.integers(2, 60_000),
    family=st.sampled_from(["normal", "lognormal", "t3"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=2, family="normal", seed=0)
@example(n=60_000, family="normal", seed=1)
@example(n=60_000, family="t3", seed=2)
def test_kde_pdf_is_the_full_kernel_sum_to_rounding(n, family, seed):
    # a point sums only the draws within its reach; the draws left out must
    # not move its value beyond the summation order's few ulps
    rng = np.random.default_rng(seed)
    x = {
        "normal": lambda: rng.normal(120.0, 5.0, n),
        "lognormal": lambda: rng.lognormal(0.0, 1.0, n),
        "t3": lambda: rng.standard_t(3, n),
    }[family]()
    lo, hi = x.min(), x.max()
    pad = 0.1 * (hi - lo)
    points = np.append(np.linspace(lo - pad, hi + pad, 21), np.median(x))
    h = math.sqrt(float(np.var(x, ddof=1))) * n**-0.2
    full = np.array([np.exp(-0.5 * (p / h - x / h) ** 2).sum() for p in points])
    reference = full / (n * h * math.sqrt(2.0 * math.pi))
    assert _ulps(_kde_pdf(x, points), reference).max() <= 4


def test_kde_pdf_needs_spread():
    with pytest.raises(DegenerateSampleError):
        _kde_pdf(np.full(12, 3.5), np.linspace(3.0, 4.0, 5))
