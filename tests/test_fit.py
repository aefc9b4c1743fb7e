import logging
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import optimize
from scipy.special import gammaincinv
from scipy.stats import chi2

from regflood import fit as fit_module
from regflood.cli import main
from regflood.distributions import SHAPE_EPS, GpParams, gp_logpdf, gp_quantile, gp_sample
from regflood.errors import FitError, InputError, InsufficientDataError
from regflood.fileio import read_pot_json
from regflood.fit import (
    THRESHOLD_CV,
    ProfileCi,
    _nll_grad,
    _observed_information,
    _profile_loglik,
    gp_fit_mle,
    gp_fit_pwm,
    log_param_variances,
    profile_ci,
    quantile_variance,
    return_level,
)
from regflood.lmoments import gp_fit_lmom, sample_lmoments

from conftest import make_pot


def sample_pot(params, n, years, seed, threshold=None):
    threshold = params.location if threshold is None else threshold
    return make_pot(gp_sample(params, n, seed), threshold, years)


def test_mle_recovers_parameters():
    params = GpParams(1.0, 2.0, 0.15)
    pot = sample_pot(params, 20000, 10000.0, seed=1)
    fit = gp_fit_mle(pot)
    assert fit.params.location == 1.0
    assert fit.params.scale == pytest.approx(2.0, abs=0.06)
    assert fit.params.shape == pytest.approx(0.15, abs=0.03)
    assert fit.method == "mle" and not fit.boundary


@pytest.mark.parametrize("shape", [-0.25, 0.0, 0.3])
def test_mle_beats_pwm_loglik(shape):
    params = GpParams(2.0, 1.5, shape)
    pot = sample_pot(params, 150, 75.0, seed=shape.__hash__() % 1000)
    mle = gp_fit_mle(pot)
    pwm = gp_fit_pwm(pot)
    assert mle.loglik >= pwm.loglik - 1e-9


def test_mle_gradient_vanishes():
    pot = sample_pot(GpParams(0.0, 1.0, 0.1), 300, 150.0, seed=5)
    fit = gp_fit_mle(pot)
    s, xi = fit.params.scale, fit.params.shape
    y = pot.peaks / s
    t = 1.0 + xi * y
    d_scale = np.sum(-1.0 / s + (1.0 + xi) * y / (s * t))
    d_shape = np.sum(np.log(t) / xi**2 - (1.0 + 1.0 / xi) * y / t)
    assert abs(d_scale * s) < 1e-6
    assert abs(d_shape) < 1e-6


def test_mle_covariance_tracks_sampling_variance():
    params = GpParams(0.0, 1.0, 0.1)
    rng = np.random.default_rng(77)
    estimates = []
    reported = []
    for _ in range(200):
        pot = make_pot(gp_sample(params, 400, rng), 0.0, 200.0)
        fit = gp_fit_mle(pot)
        estimates.append([fit.params.scale, fit.params.shape])
        assert fit.covariance is not None
        reported.append(np.diag(fit.covariance))
    emp = np.var(np.asarray(estimates), axis=0)
    rep = np.mean(np.asarray(reported), axis=0)
    assert rep[0] == pytest.approx(emp[0], rel=0.35)
    assert rep[1] == pytest.approx(emp[1], rel=0.35)


@st.composite
def on_support_points(draw):
    """Random peaks above 0 and a (scale, shape) on their support, up to its edge."""
    peaks = gp_sample(
        GpParams(0.0, 1.0, draw(st.floats(-0.4, 0.6))),
        draw(st.integers(5, 60)),
        seed=draw(st.integers(0, 10_000)),
    )
    y_max = float(peaks.max())
    scale = draw(st.floats(0.05, 20.0))
    # the shape that leaves 1 + shape * y / scale = margin at the largest peak
    to_edge = st.floats(1e-4, 0.5).map(lambda m: -(1.0 - m) * scale / y_max)
    shape = draw(
        st.one_of(
            st.sampled_from([0.0, 1e-9, -1e-9]),
            st.floats(-1e-3, 1e-3),
            st.floats(-1.5, 3.0),
            to_edge,
        )
    )
    assume(1.0 + shape * y_max / scale >= 1e-4)
    return peaks, scale, shape


@settings(deadline=None, max_examples=300, derandomize=True)
@given(on_support_points())
def test_observed_information_matches_gradient_differences(point):
    x, scale, shape = point
    y_max = float(x.max()) / scale
    margin = 1.0 + min(shape, 0.0) * y_max

    def grad(s, k):
        g = _nll_grad(np.array([math.log(s), k]), x, 0.0)[1]
        return np.array([g[0] / s, g[1]])

    def derivative(g, h):
        # five-point central difference; steps stay clear of the support edge
        return (8.0 * (g(h) - g(-h)) - (g(2.0 * h) - g(-2.0 * h))) / (12.0 * h)

    d_scale = derivative(lambda e: grad(scale + e, shape), 0.01 * margin * scale)
    d_shape = derivative(lambda e: grad(scale, shape + e), 0.01 * margin / y_max)
    # the mixed term comes from the scale gradient: the shape gradient's
    # closed form cancels to rounding noise at small shapes once some peak
    # has |shape * y| >= 1e-3
    numeric = np.array([[d_scale[0], d_shape[0]], [d_shape[0], d_shape[1]]])
    info = _observed_information(x, 0.0, scale, shape)
    assert info[0, 1] == info[1, 0]
    assert np.max(np.abs(info - numeric)) <= 2e-5 * np.max(np.abs(info))


def test_observed_information_is_continuous_where_the_series_takes_over():
    # one peak at y = 4: the shape-shape term switches from its Taylor
    # series to the closed form at shape * y = 1e-3
    x = np.array([4.0])
    for edge in (1e-3 / 4.0, -1e-3 / 4.0):
        below = _observed_information(x, 0.0, 1.0, edge * (1.0 - 1e-9))
        above = _observed_information(x, 0.0, 1.0, edge * (1.0 + 1e-9))
        np.testing.assert_allclose(below, above, rtol=1e-9)


@pytest.mark.parametrize("shape", [2e-8, 1e-7, 1e-6, 1e-5])
def test_shape_gradient_is_accurate_at_small_shapes(shape):
    # exponential peaks at scale 1; the reference is the gradient's
    # expansion in shape up to the shape**2 term
    y = gp_sample(GpParams(0.0, 1.0, 0.0), 50, seed=3)
    series = (
        np.sum(y - y * y / 2.0)
        + shape * np.sum(2.0 * y**3 / 3.0 - y * y)
        + shape**2 * np.sum(y**3 - 0.75 * y**4)
    )
    g = _nll_grad(np.array([0.0, shape]), y, 0.0)[1]
    assert g[1] == pytest.approx(series, rel=1e-9)


def test_mle_at_the_shape_bound_has_no_covariance():
    fit = gp_fit_mle(make_pot(np.linspace(1.0, 10.0, 12), 0.0, 6.0))
    assert fit.boundary and fit.params.shape == -0.99
    assert fit.covariance is None


@pytest.fixture(scope="module")
def seed17_pot(tmp_path_factory):
    """S0's record of the README session with simulate --seed 17."""
    d = tmp_path_factory.mktemp("seed17")
    assert main(["simulate", str(d / "region"), "--seed", "17"]) == 0
    out = d / "S0.pot.json"
    argv = ["extract", str(d / "region" / "S0.csv"), "--target-rate", "2", "--out", str(out)]
    assert main(argv) == 0
    return read_pot_json(out)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="every start lies off the support and the polish stops there",
)
def test_mle_stays_on_the_support(seed17_pot):
    # the fit's upper endpoint falls below the largest peak and its loglik
    # is the penalty value
    pot = seed17_pot
    fit = gp_fit_mle(pot)
    logpdf = gp_logpdf(fit.params, pot.peaks)
    assert np.all(np.isfinite(logpdf))
    assert fit.loglik == pytest.approx(float(np.sum(logpdf)), rel=1e-9)


def test_mle_off_the_support_is_logged(seed17_pot, caplog):
    with caplog.at_level(logging.WARNING, logger="regflood"):
        fit = gp_fit_mle(seed17_pot)
    assert fit.loglik < -1e9
    (record,) = [r for r in caplog.records if r.name == "regflood"]
    assert record.levelno == logging.WARNING
    assert f"MLE of {seed17_pot.peaks.size} events at station S0 lies off" in record.getMessage()
    assert "not usable" in record.getMessage()


def test_mle_restarts_inside_the_support():
    # the README region's (simulate --seed 11) 5-year evaluation window: the
    # PWM shape is -1.13, so every start puts the upper endpoint below the
    # largest peak and the first search ends on the penalty
    peaks = [183.246, 142.167, 179.789, 310.593, 215.606, 178.539, 194.295,
             221.711, 154.927, 240.689, 215.607]
    fit = gp_fit_mle(make_pot(peaks, 122.636, 5.0))
    assert fit.params.scale == pytest.approx(136.335, rel=1e-5)
    assert fit.params.shape == pytest.approx(-0.68674, abs=1e-5)
    assert fit.loglik == pytest.approx(-57.5121, abs=1e-4)
    assert not fit.boundary
    assert fit.covariance is not None


# the 11-event window above, unrounded, and its PWM start
WINDOW_PEAKS = np.array([
    183.24599697538582, 142.16650674105517, 179.7894729161803, 310.5933438317312,
    215.60570697737492, 178.53942577684674, 194.294639228944, 221.71115141640075,
    154.92669436657536, 240.68932865528143, 215.607249441527,
])


def test_polish_never_raises_the_objective():
    # every L-BFGS-B start ends on the penalty; the polish's first step
    # reaches nll 59.2187 inside the support.  Accepting every step that
    # lowered the gradient norm then walked on to the shape bound 5.0 at
    # nll 70.930; a step that raises the nll is now refused
    z, f_val, converged, _ = fit_module._search_from(
        172.00410939967296, -1.1302582492694575, WINDOW_PEAKS, 122.63573355951273
    )
    assert f_val == pytest.approx(59.2187, abs=1e-4)
    assert math.exp(z[0]) == pytest.approx(206.405, rel=1e-5)
    assert z[1] == pytest.approx(-0.90421, abs=1e-5)
    assert not converged  # gp_fit_mle's restart takes over from here


def test_mle_errors():
    with pytest.raises(InsufficientDataError):
        gp_fit_mle(make_pot([1.1, 1.2, 1.3], 1.0, 2.0))
    with pytest.raises(FitError):
        gp_fit_mle(make_pot([2.0] * 10, 1.0, 5.0))


def test_pwm_fit_matches_direct_formula():
    pot = sample_pot(GpParams(1.0, 2.0, 0.2), 80, 40.0, seed=21)
    fit = gp_fit_pwm(pot)
    lm = sample_lmoments(pot.peaks)
    shape = 2.0 - (lm.l1 - 1.0) / lm.l2
    assert fit.params.shape == pytest.approx(shape, rel=1e-12)
    assert fit.params.scale == pytest.approx((lm.l1 - 1.0) * (1.0 - shape), rel=1e-12)
    assert fit.covariance.shape == (2, 2)
    assert fit.covariance[0, 1] == fit.covariance[1, 0]


def test_pwm_asymptotic_covariance_calibrated():
    params = GpParams(0.0, 1.0, 0.1)
    rng = np.random.default_rng(11)
    ests = []
    rep = None
    for _ in range(400):
        fit = gp_fit_pwm(make_pot(gp_sample(params, 2000, rng), 0.0, 1000.0))
        ests.append([fit.params.scale, fit.params.shape])
        rep = fit.covariance
    emp = np.var(np.asarray(ests), axis=0)
    # covariance reported for n = 2000 should match the spread across fits
    assert np.diag(rep)[0] == pytest.approx(emp[0], rel=0.35)
    assert np.diag(rep)[1] == pytest.approx(emp[1], rel=0.35)


def test_pwm_bootstrap_for_heavy_shapes():
    pot = sample_pot(GpParams(0.0, 1.0, 0.6), 400, 200.0, seed=31)
    fit = gp_fit_pwm(pot)
    assert fit.params.shape > 0.4
    assert fit.covariance is not None
    assert np.all(np.diag(fit.covariance) > 0)
    again = gp_fit_pwm(pot)
    assert np.array_equal(fit.covariance, again.covariance)


def _bootstrap_by_loop(pot, variant):
    """gp_fit_pwm's bootstrap one resample at a time: the reference.

    Returns the covariance and the messages of the skipped resamples.
    """
    rng = np.random.default_rng(0)
    draws, skipped = [], []
    for _ in range(500):
        resample = rng.choice(pot.peaks, size=pot.peaks.size, replace=True)
        try:
            p = gp_fit_lmom(sample_lmoments(resample, variant), location=pot.threshold)
        except (FitError, InputError) as exc:
            skipped.append(str(exc))
            continue
        draws.append((p.scale, p.shape))
    covariance = np.cov(np.asarray(draws).T) if len(draws) >= 250 else None
    return covariance, skipped


def _assert_bootstrap_equals_loop(pot, variant):
    fit = gp_fit_pwm(pot, variant)
    assert fit.params.shape > 0.4
    expected, skipped = _bootstrap_by_loop(pot, variant)
    if expected is None:
        assert fit.covariance is None
    else:
        assert np.array_equal(fit.covariance, expected)
    return skipped


@st.composite
def heavy_pots(draw):
    n = draw(st.integers(5, 40))
    shape = draw(st.floats(0.5, 0.95))
    seed = draw(st.integers(0, 2**32 - 1))
    decimals = draw(st.sampled_from([None, 0, 1]))
    x = gp_sample(GpParams(1.0, 1.0, shape), n, seed)
    if decimals is not None:  # ties make constant and degenerate resamples
        x = np.maximum(np.round(x, decimals), 1.0)
    return make_pot(x, 1.0, n / 2.0)


@settings(deadline=None, max_examples=150, derandomize=True)
@given(pot=heavy_pots(), variant=st.sampled_from(["unbiased", "biased"]))
def test_pwm_bootstrap_equals_the_per_resample_loop(pot, variant):
    try:
        fit = gp_fit_pwm(pot, variant)
    except FitError:
        assume(False)
    assume(fit.params.shape > 0.4)
    _assert_bootstrap_equals_loop(pot, variant)


@pytest.mark.parametrize(
    "peaks, threshold, variant, reason",
    [
        # four equal peaks make a third of the resamples constant; biased
        # PWMs give those an l2 of 0.3 / n of their value, not 0
        ([1.1, 1.1, 1.1, 1.1, 9.0], 1.0, "biased", "constant sample"),
        # peaks a few ulps apart: l2 of some resamples rounds to 0, and their
        # mean to the threshold, though they are not constant
        ([1e17 + 32.0 * k for k in (0, 0, 0, 1, 2, 7)], 1e17, "unbiased", "zero L-scale"),
        # one peak far above the rest: some resamples imply a shape >= 1
        ([1.0, 1.1, 1.2, 1.5, 30.0], 1.0, "unbiased", "implied shape"),
    ],
)
def test_pwm_bootstrap_skips_what_the_loop_skips(peaks, threshold, variant, reason):
    skipped = _assert_bootstrap_equals_loop(make_pot(peaks, threshold, 4.0), variant)
    assert any(msg.startswith(reason) for msg in skipped)


@pytest.mark.parametrize("level", [0.5, 0.8, 0.9, 0.95, 0.99])
def test_profile_cutoff_is_the_chi2_quantile(level):
    # profile_ci's cutoff expression against scipy.stats
    assert float(2.0 * gammaincinv(0.5, level)) == float(chi2.ppf(level, 1))


def test_return_level_probability_mapping():
    params = GpParams(10.0, 5.0, 0.1)
    # two events per year: T = 10 years -> non-exceedance 0.95
    assert return_level(params, 2.0, 10.0) == pytest.approx(
        float(gp_quantile(params, 0.95)), rel=1e-14
    )
    assert return_level(params, 2.0, 1.0) == pytest.approx(
        float(gp_quantile(params, 0.5)), rel=1e-14
    )
    with pytest.raises(InputError):
        return_level(params, 2.0, 0.5)
    with pytest.raises(InputError):
        return_level(params, 0.0, 10.0)


def test_quantile_variance_matches_index_flood_propagation():
    from regflood.indexflood import at_site_index_flood

    pot = sample_pot(GpParams(10.0, 5.0, 0.12), 74, 37.0, seed=19)
    fit = gp_fit_mle(pot)
    # at T = 1 year the index flood propagates the same gradient plus the
    # threshold term, so the two variances differ by exactly (cv*u)^2
    ifl = at_site_index_flood(pot)
    var_q = quantile_variance(fit, pot.rate, 1.0)
    assert ifl.var_log * ifl.value**2 - var_q == pytest.approx(
        (THRESHOLD_CV * pot.threshold) ** 2, rel=1e-12
    )
    # longer horizons extrapolate further and are more uncertain
    assert quantile_variance(fit, pot.rate, 20.0) > quantile_variance(fit, pot.rate, 5.0)
    # calibration: the asymptotic band should cover the truth most of the time
    params = GpParams(10.0, 5.0, 0.1)
    truth = return_level(params, 2.0, 10.0)
    hits = 0
    for seed in range(60):
        p = sample_pot(params, 120, 60.0, seed=300 + seed)
        f = gp_fit_mle(p)
        q = return_level(f.params, p.rate, 10.0)
        half = 1.6449 * np.sqrt(quantile_variance(f, p.rate, 10.0))
        hits += q - half <= truth <= q + half
    assert hits >= 48
    with pytest.raises(InputError):
        quantile_variance(fit, pot.rate, 0.1)


def test_log_param_variances():
    pot = sample_pot(GpParams(1.0, 2.0, 0.1), 500, 250.0, seed=41)
    fit = gp_fit_mle(pot)
    v_mu, v_sigma, v_shape = log_param_variances(fit)
    assert v_mu == pytest.approx(0.01)
    assert v_sigma == pytest.approx(fit.covariance[0, 0] / fit.params.scale**2)
    assert v_shape == pytest.approx(fit.covariance[1, 1])
    bare = fit.__class__(
        params=fit.params,
        covariance=None,
        loglik=fit.loglik,
        method="mle",
        n=fit.n,
    )
    with pytest.raises(FitError):
        log_param_variances(bare)


def test_profile_ci_brackets_estimate():
    params = GpParams(5.0, 3.0, 0.1)
    pot = sample_pot(params, 74, 37.0, seed=51)
    fit = gp_fit_mle(pot)
    q10 = return_level(fit.params, pot.rate, 10.0)
    ci = profile_ci(pot, 10.0)
    assert not ci.lower_unbounded and not ci.upper_unbounded
    assert ci.lower < q10 < ci.upper
    # asymmetry: heavy right tail stretches the upper arm
    assert ci.upper - q10 > q10 - ci.lower


def test_profile_ci_reuses_the_callers_fit(fit_calls):
    pot = sample_pot(GpParams(5.0, 3.0, 0.1), 74, 37.0, seed=51)
    fit = gp_fit_mle(pot)
    fitted_here = profile_ci(pot, 10.0)
    assert len(fit_calls) == 1
    assert profile_ci(pot, 10.0, fit=fit) == fitted_here
    assert len(fit_calls) == 1


def test_profile_ci_rejects_a_fit_of_another_kind():
    pot = sample_pot(GpParams(5.0, 3.0, 0.1), 74, 37.0, seed=51)
    with pytest.raises(InputError):
        profile_ci(pot, 10.0, fit=gp_fit_pwm(pot))
    shorter = make_pot(pot.peaks[:-1], pot.threshold, pot.record_years)
    with pytest.raises(InputError):
        profile_ci(pot, 10.0, fit=gp_fit_mle(shorter))


def test_profile_ci_narrows_with_record_length():
    params = GpParams(5.0, 3.0, 0.1)
    short = profile_ci(sample_pot(params, 40, 20.0, seed=61), 10.0)
    long = profile_ci(sample_pot(params, 400, 200.0, seed=61), 10.0)
    assert (long.upper - long.lower) < (short.upper - short.lower)


def test_profile_ci_coverage():
    params = GpParams(5.0, 3.0, 0.1)
    true_q10 = float(gp_quantile(params, 0.95))
    rng = np.random.default_rng(71)
    hits = 0
    for _ in range(30):
        pot = make_pot(gp_sample(params, 74, rng), 5.0, 37.0)
        ci = profile_ci(pot, 10.0)
        if ci.lower <= true_q10 <= ci.upper:
            hits += 1
    assert hits >= 22  # 90% nominal; binomial slack for 30 draws


def _oracle_neg_ll(pot, p, q, xi):
    """The profile's negative log likelihood at one shape, from gp_logpdf."""
    u = pot.threshold
    # Brent passes numpy scalars, which warn where a scale overflows to inf
    with np.errstate(over="ignore"):
        if abs(xi) < SHAPE_EPS:
            s = (q - u) / (-math.log1p(-p))
        else:
            s = (q - u) * xi / (math.expm1(-xi * math.log1p(-p)))
    if s <= 0 or not math.isfinite(s):
        return 1e12
    val = float(np.sum(gp_logpdf(GpParams(u, s, xi), pot.peaks)))
    return -val if math.isfinite(val) else 1e12


def _oracle_profile_loglik(pot, p, q):
    """The profile as it was computed before its vectorized form: one
    gp_logpdf call per grid shape and per Brent step."""
    grid = np.linspace(-0.99, 2.0, 31)
    values = [_oracle_neg_ll(pot, p, q, float(g)) for g in grid]
    i = int(np.argmin(values))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]
    res = optimize.minimize_scalar(
        lambda xi: _oracle_neg_ll(pot, p, q, xi),
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": 1e-8},
    )
    return -min(float(res.fun), values[i])


@st.composite
def profile_points(draw):
    """Random peaks, a quantile level and a quantile q, plus a shape.

    q is near the true quantile (an interior optimum), far from it (an
    optimum at an end of the grid, where the grid's own value is returned),
    puts the largest peak at a negative grid shape's endpoint (to the last
    ulp), or makes every scale non-positive or overflow to inf.
    """
    u = draw(st.floats(-10.0, 100.0))
    params = GpParams(u, draw(st.floats(0.1, 50.0)), draw(st.floats(-0.45, 0.7)))
    n = draw(st.integers(5, 80))
    pot = make_pot(gp_sample(params, n, seed=draw(st.integers(0, 10_000))), u, n / 2.0)
    p = 1.0 - 1.0 / draw(st.sampled_from([1.5, 2.0, 10.0, 20.0, 100.0, 1000.0]))
    log_p = math.log1p(-p)
    # for a negative shape xi, this q puts the endpoint at the largest peak
    d_max = float(pot.peaks.max()) - u
    edge = st.sampled_from(fit_module._PROFILE_GRID[:10].tolist()).map(
        lambda xi: u - d_max * math.expm1(-xi * log_p)
    )
    q = draw(
        st.one_of(
            st.one_of(st.floats(0.5, 2.0), st.sampled_from([0.02, 0.1, 10.0, 100.0, 1e4])).map(
                lambda f: u + f * (float(gp_quantile(params, p)) - u)
            ),
            edge.flatmap(
                lambda e: st.sampled_from([e, math.nextafter(e, -math.inf), math.nextafter(e, math.inf)])
            ),
            st.sampled_from([u, u - 1.0, math.nextafter(u, -math.inf), 1.7e308]),
        )
    )
    xi = draw(st.one_of(st.sampled_from([0.0, 1e-9, -1e-9, 2e-8]), st.floats(-0.99, 2.0)))
    return pot, p, q, xi


@settings(deadline=None, max_examples=200, derandomize=True)
@given(profile_points())
def test_profile_loglik_equals_the_gp_logpdf_profile(point):
    pot, p, q, xi = point
    brent = []
    minimize_scalar = optimize.minimize_scalar

    def spy(fun, **kwargs):
        brent.append(fun)
        return minimize_scalar(fun, **kwargs)

    with mock.patch.object(optimize, "minimize_scalar", spy):
        got = _profile_loglik(pot, p, q)
    assert got == _oracle_profile_loglik(pot, p, q)
    # the scalar Brent step, at shapes Brent rarely visits: the grid, the
    # exponential branch and anywhere on [-0.99, 2]
    (neg_ll,) = brent
    for shape in fit_module._PROFILE_GRID.tolist() + [xi]:
        assert neg_ll(shape) == _oracle_neg_ll(pot, p, q, shape)


def test_profile_grid_has_no_exponential_row():
    # _profile_loglik scores every grid row with the shape != 0 form
    assert np.min(np.abs(fit_module._PROFILE_GRID)) >= SHAPE_EPS


@pytest.mark.parametrize(
    "params, n, seed, period, expected",
    [
        (GpParams(5.0, 3.0, 0.1), 74, 51, 10.0,
         ProfileCi(15.308863175510211, 26.81435997873895, False, False)),
        (GpParams(0.0, 1.0, -0.3), 40, 7, 50.0,
         ProfileCi(2.2028621819751986, 4.648715856009942, False, False)),
        (GpParams(100.0, 40.0, 0.25), 150, 3, 100.0,
         ProfileCi(304.6915622962089, 479.9692591764832, False, False)),
        (GpParams(2.0, 1.0, 0.5), 8, 11, 100.0,
         ProfileCi(6.219753118482023, 602.9270006769093, False, True)),
    ],
)
def test_profile_ci_is_pinned(params, n, seed, period, expected):
    # bounds of the gp_logpdf-based profile; the vectorized one must
    # reproduce them exactly
    pot = sample_pot(params, n, n / 2.0, seed=seed)
    assert profile_ci(pot, period) == expected
