import numpy as np
import pytest

from regflood.distributions import GpParams, gp_quantile, gp_sample
from regflood.errors import FitError, InputError, InsufficientDataError
from regflood.fit import (
    gp_fit_mle,
    gp_fit_pwm,
    log_param_variances,
    profile_ci,
    quantile_variance,
    return_level,
)
from regflood.lmoments import sample_lmoments

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
    assert fit.location_fixed and fit.method == "mle"


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


def test_mle_free_location_hits_boundary():
    params = GpParams(2.0, 1.0, 0.1)
    pot = sample_pot(params, 5000, 2500.0, seed=9, threshold=0.0)
    fit = gp_fit_mle(pot, location="free")
    assert not fit.location_fixed
    assert fit.boundary
    assert fit.params.location == pytest.approx(2.0, abs=0.01)
    assert fit.params.location < np.min(pot.peaks)
    assert fit.params.scale == pytest.approx(1.0, abs=0.05)
    assert fit.params.shape == pytest.approx(0.1, abs=0.05)


def test_mle_errors():
    with pytest.raises(InsufficientDataError):
        gp_fit_mle(make_pot([1.1, 1.2, 1.3], 1.0, 2.0))
    with pytest.raises(FitError):
        gp_fit_mle(make_pot([2.0] * 10, 1.0, 5.0))
    with pytest.raises(InputError):
        gp_fit_mle(make_pot([1.1, 1.2, 1.3, 1.4, 1.5], 1.0, 3.0), location="both")
    with pytest.raises(InsufficientDataError):
        gp_fit_mle(make_pot([1.1, 1.2, 1.3, 1.4, 1.5, 1.6], 1.0, 3.0), location="free")


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
    different = gp_fit_pwm(pot, bootstrap_seed=1)
    assert not np.array_equal(fit.covariance, different.covariance)


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
    ifl = at_site_index_flood(pot, threshold_cv=0.1)
    var_q = quantile_variance(fit, pot.rate, 1.0)
    assert ifl.var_log * ifl.value**2 - var_q == pytest.approx(
        (0.1 * pot.threshold) ** 2, rel=1e-12
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
    v_mu, v_sigma, v_shape = log_param_variances(fit, threshold_cv=0.1)
    assert v_mu == pytest.approx(0.01)
    assert v_sigma == pytest.approx(fit.covariance[0, 0] / fit.params.scale**2)
    assert v_shape == pytest.approx(fit.covariance[1, 1])
    bare = fit.__class__(
        params=fit.params,
        covariance=None,
        loglik=fit.loglik,
        method="mle",
        location_fixed=True,
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
    with pytest.raises(InputError):
        profile_ci(pot, 10.0, fit=gp_fit_mle(pot, location="free"))
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
