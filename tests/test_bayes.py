import logging
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regflood import bayes, evaluation, regional
from regflood.bayes import (
    ChainDiagnostics,
    McmcConfig,
    PosteriorChains,
    PriorSpec,
    chain_diagnostics,
    elicit_prior,
    log_posterior,
    log_prior,
    mcmc_sample,
    posterior_quantiles,
)
from regflood.distributions import (
    SHAPE_EPS,
    GpParams,
    _gp_loglik,
    gp_logpdf,
    gp_sample,
)
from regflood.errors import ContractViolationError, ElicitationError, FitError, InputError
from regflood.fit import GpFit, gp_fit_mle, return_level
from regflood.indexflood import (
    AreaRegression,
    StationMeta,
    at_site_index_flood,
    fit_area_regression,
)
from regflood.pot import PotSeries
from regflood.regional import Region, RegionSite

from conftest import make_pot


PRIOR = PriorSpec(gamma=(math.log(5.0), math.log(2.0), 0.05), d=(0.09, 0.04, 0.01))


def empty_pot(threshold=0.0, years=30.0):
    return PotSeries(
        station="T0",
        threshold=threshold,
        times=np.array([], dtype="datetime64[s]"),
        peaks=np.array([]),
        record_years=years,
    )


def synth_region(n_sites=10, seed=0, years=30.0, shape=0.1, sigma_rel=0.55):
    """Region whose index floods follow C = 0.9 * A**0.8 with GP sites."""
    rng = np.random.default_rng(seed)
    sites = []
    truths = {}
    for i in range(n_sites):
        code = f"S{i}"
        area = float(rng.uniform(60.0, 600.0))
        c = 0.9 * area**0.8
        params = GpParams(0.62 * c, sigma_rel * 0.62 * c, shape)
        n = int(round(2.2 * years))
        peaks = gp_sample(params, n, rng)
        meta = StationMeta(code, f"Station {code}", area, 0.0, 0.0, 1970, 2000)
        sites.append(
            RegionSite(meta, make_pot(peaks, params.location, years, station=code))
        )
        truths[code] = params
    return Region(tuple(sites), "S0"), truths


def donor_regression(region):
    points = [
        (s.meta.code, s.meta.area_km2, at_site_index_flood(s.pot))
        for s in region.others()
    ]
    return fit_area_regression(points)


# ---------------------------------------------------------------- prior spec


def test_prior_spec_rejects_bad_variances():
    with pytest.raises(InputError):
        PriorSpec(gamma=(0.0, 0.0, 0.0), d=(0.1, -1.0, 0.1))
    with pytest.raises(InputError):
        PriorSpec(gamma=(0.0, math.inf, 0.0), d=(0.1, 0.1, 0.1))


def test_with_variances_keeps_means():
    flat = PRIOR.with_variances((1000.0, 1000.0, 1000.0))
    assert flat.gamma == PRIOR.gamma
    assert flat.d == (1000.0, 1000.0, 1000.0)


# ----------------------------------------------------------------- log prior


def test_log_prior_at_modal_ridge():
    g1, g2, g3 = PRIOR.gamma
    theta = GpParams(math.exp(g1), math.exp(g2), g3)
    expect = -0.5 * sum(math.log(2.0 * math.pi * d) for d in PRIOR.d) - g1 - g2
    assert log_prior(PRIOR, theta) == pytest.approx(expect, rel=1e-14)


def test_log_prior_off_positive_domain():
    assert log_prior(PRIOR, GpParams(0.0, 1.0, 0.1)) == -math.inf
    assert log_prior(PRIOR, GpParams(-2.0, 1.0, 0.1)) == -math.inf


def test_log_prior_integrates_to_one():
    prior = PriorSpec(gamma=(math.log(4.0), math.log(1.5), 0.1), d=(0.05, 0.03, 0.02))
    grids = [
        prior.gamma[k] + math.sqrt(prior.d[k]) * np.linspace(-7.0, 7.0, 61)
        for k in range(3)
    ]
    mus, sigmas = np.exp(grids[0]), np.exp(grids[1])
    vals = np.empty((61, 61, 61))
    for i, mu in enumerate(mus):
        for j, sigma in enumerate(sigmas):
            for k, xi in enumerate(grids[2]):
                vals[i, j, k] = math.exp(log_prior(prior, GpParams(mu, sigma, xi)))
    total = np.trapezoid(np.trapezoid(np.trapezoid(vals, grids[2]), sigmas), mus)
    assert total == pytest.approx(1.0, abs=1e-3)


# ------------------------------------------------------------- log posterior


def test_log_posterior_empty_data_is_prior():
    theta = GpParams(4.0, 2.5, 0.15)
    assert log_posterior(PRIOR, empty_pot(), theta) == log_prior(PRIOR, theta)


def test_log_posterior_additivity():
    rng = np.random.default_rng(3)
    pot = make_pot(gp_sample(GpParams(5.0, 2.0, 0.1), 40, rng), 5.0, 20.0)
    for _ in range(20):
        theta = GpParams(
            float(rng.uniform(3.0, 5.0)),
            float(rng.uniform(0.5, 4.0)),
            float(rng.uniform(-0.3, 0.5)),
        )
        want = log_prior(PRIOR, theta) + float(
            np.sum(gp_logpdf(theta, pot.peaks))
        )
        assert log_posterior(PRIOR, pot, theta) == pytest.approx(want, rel=1e-12)


def test_log_posterior_off_support():
    pot = make_pot([5.1, 5.4, 6.0, 7.5], 5.0, 10.0)
    assert log_posterior(PRIOR, pot, GpParams(5.2, 1.0, 0.1)) == -math.inf


def test_flat_prior_grid_argmax_matches_mle():
    rng = np.random.default_rng(11)
    pot = make_pot(gp_sample(GpParams(5.0, 2.0, 0.15), 400, rng), 5.0, 100.0)
    fit = gp_fit_mle(pot)
    flat = PRIOR.with_variances((1e6, 1e6, 1e6))
    sigmas = np.linspace(1.2, 3.2, 41)
    xis = np.linspace(-0.25, 0.55, 41)
    vals = np.array(
        [
            [log_posterior(flat, pot, GpParams(5.0, s, x)) for x in xis]
            for s in sigmas
        ]
    )
    i, j = np.unravel_index(np.argmax(vals), vals.shape)
    assert abs(sigmas[i] - fit.params.scale) <= sigmas[1] - sigmas[0]
    assert abs(xis[j] - fit.params.shape) <= xis[1] - xis[0]


# ----------------------------------------------------------------- elicitor


def constant_fit(mu, sigma, xi, var_sigma=0.0, var_xi=0.0):
    cov = np.diag([var_sigma, var_xi]).astype(float)
    return GpFit(
        params=GpParams(mu, sigma, xi),
        covariance=cov,
        loglik=0.0,
        method="mle",
        n=50,
    )


def flat_regression(codes, s2=0.0):
    # mean_log_area chosen so predictions at area e^3 sit on the mean line
    return AreaRegression(
        a=2.0,
        b=0.0,
        s2=s2,
        r2=1.0,
        n=len(codes),
        mean_log_area=3.0,
        sxx=10.0,
        codes=tuple(codes),
    )


def four_site_region(target="S0", seed=7):
    rng = np.random.default_rng(seed)
    sites = []
    for i in range(4):
        code = f"S{i}"
        area = math.exp(3.0)
        meta = StationMeta(code, code, area, 0.0, 0.0, 1970, 2000)
        peaks = gp_sample(GpParams(1.0, 0.5, 0.1), 60, rng)
        sites.append(RegionSite(meta, make_pot(peaks, 1.0, 30.0, station=code)))
    return Region(tuple(sites), target)


@pytest.fixture
def site_fits(monkeypatch):
    """Stand-in site fits, keyed by station; a FitError entry is raised."""
    fits = {}

    def fake_fit(pot):
        outcome = fits[pot.station]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    monkeypatch.setattr(regional, "gp_fit_mle", fake_fit)
    return fits


def test_identical_donors_hit_the_floor(site_fits):
    region = four_site_region()
    site_fits.update({c: constant_fit(1.0, 0.5, 0.12) for c in ("S1", "S2", "S3")})
    reg = flat_regression(("S1", "S2", "S3"), s2=0.0)
    prior = elicit_prior(region, reg)
    c_pred = 2.0
    # each donor is rescaled by its own index flood, the one-year level
    c = return_level(GpParams(1.0, 0.5, 0.12), 2.0, 1.0)
    assert prior.gamma[0] == pytest.approx(math.log(c_pred / c), rel=1e-12)
    assert prior.gamma[1] == pytest.approx(math.log(0.5 * c_pred / c), rel=1e-12)
    assert prior.gamma[2] == pytest.approx(0.12, rel=1e-12)
    # the location variance is the threshold CV's 0.1**2; the others hit the floor
    assert prior.d == pytest.approx((0.01, 1e-4, 1e-4), rel=1e-12)
    assert prior.provenance.sites == ("S1", "S2", "S3")


def test_variance_components_add(site_fits):
    # prediction variance 0.02 plus per-site log-scale variance 0.01
    region = four_site_region()
    site_fits.update(
        {c: constant_fit(1.0, 1.0, 0.1, var_sigma=0.01) for c in ("S1", "S2", "S3")}
    )
    s2 = 0.02 / (1.0 + 1.0 / 3.0)
    reg = flat_regression(("S1", "S2", "S3"), s2=s2)
    prior = elicit_prior(region, reg)
    assert prior.d[1] == pytest.approx(0.03, rel=1e-12)
    # prediction variance 0.02 plus the threshold CV's 0.01
    assert prior.d[0] == pytest.approx(0.03, rel=1e-12)


def test_target_in_regression_is_contract_violation():
    region = four_site_region()
    reg = flat_regression(("S0", "S1", "S2", "S3"))
    with pytest.raises(ContractViolationError):
        elicit_prior(region, reg)


def test_too_few_donors(site_fits):
    region = four_site_region()
    site_fits.update({c: constant_fit(1.0, 0.5, 0.1) for c in ("S1", "S2")})
    with pytest.raises(ElicitationError):
        elicit_prior(region, flat_regression(("S1", "S2")))
    # a donor whose fit fails is dropped, leaving too few again
    site_fits["S3"] = FitError("MLE did not converge")
    with pytest.raises(ElicitationError):
        elicit_prior(region, flat_regression(("S1", "S2", "S3")))


def test_donors_are_the_regression_sites():
    region, _ = synth_region(n_sites=8, seed=2)
    points = [
        (s.meta.code, s.meta.area_km2, s.index_flood())
        for s in region.sites
        if s.meta.code in ("S2", "S4", "S5", "S7")
    ]
    prior = elicit_prior(region, fit_area_regression(points))
    assert prior.provenance.sites == ("S2", "S4", "S5", "S7")


def test_elicitation_fits_each_donor_once(fit_calls):
    region, _ = synth_region(n_sites=8, seed=5)
    reg = donor_regression(region)
    # at_site_index_flood fits a bare record and leaves the sites unfitted
    fit_calls.clear()
    elicit_prior(region, reg)
    assert sorted(fit_calls) == sorted(s.meta.code for s in region.others())


@pytest.fixture(scope="module")
def elicited_region():
    region, _ = synth_region(n_sites=6, seed=21)
    reg = donor_regression(region)
    return region, reg, elicit_prior(region, reg)


@settings(deadline=None, max_examples=15, derandomize=True)
@given(factors=st.lists(st.floats(1e-2, 1e2), min_size=5, max_size=5))
def test_prior_invariant_to_donor_rescaling(elicited_region, factors):
    region, reg, base = elicited_region
    sites = [region.target_site] + [
        RegionSite(s.meta, s.pot.rescaled(f)) for s, f in zip(region.others(), factors)
    ]
    rescaled = elicit_prior(Region(tuple(sites), region.target), reg)
    assert rescaled.gamma == pytest.approx(base.gamma, rel=1e-6, abs=1e-6)
    assert rescaled.d == pytest.approx(base.d, rel=1e-6, abs=1e-6)


def test_leave_target_out_invariance():
    region, _ = synth_region(seed=4)
    reg = donor_regression(region)
    prior = elicit_prior(region, reg)

    mutated_sites = []
    for site in region.sites:
        if site.meta.code == region.target:
            pot = site.pot
            mutated = PotSeries(
                station=pot.station,
                threshold=pot.threshold * 7.0,
                times=pot.times,
                peaks=pot.peaks * 7.0,
                record_years=pot.record_years,
            )
            mutated_sites.append(RegionSite(site.meta, mutated))
        else:
            mutated_sites.append(site)
    other = Region(tuple(mutated_sites), region.target)
    prior2 = elicit_prior(other, reg)
    assert prior == prior2


def test_elicitor_calibration_against_truth():
    hits = 0
    reps = 50
    for rep in range(reps):
        region, truths = synth_region(n_sites=10, seed=100 + rep, shape=0.1)
        reg = donor_regression(region)
        prior = elicit_prior(region, reg)
        mu_t = truths[region.target].location
        n_donors = len(region.sites) - 1
        if abs(prior.gamma[0] - math.log(mu_t)) < 3.0 * math.sqrt(
            prior.d[0] / n_donors
        ):
            hits += 1
    assert hits >= 0.85 * reps


# -------------------------------------------------------------------- MCMC


LIGHT = McmcConfig(chains=2, iterations=3000, burn_in=800)


def test_mcmc_deterministic():
    pot = make_pot(gp_sample(GpParams(5.0, 2.0, 0.1), 30, seed=8), 5.0, 15.0)
    a = mcmc_sample(PRIOR, pot, LIGHT, seed=42)
    b = mcmc_sample(PRIOR, pot, LIGHT, seed=42)
    assert np.array_equal(a.draws, b.draws)
    assert np.array_equal(a.acceptance, b.acceptance)
    c = mcmc_sample(PRIOR, pot, LIGHT, seed=43)
    assert not np.array_equal(a.draws, c.draws)


def test_mcmc_rejects_short_runs():
    with pytest.raises(InputError):
        McmcConfig(iterations=500)
    with pytest.raises(InputError):
        McmcConfig(iterations=2000, burn_in=2000)


def test_mcmc_reaches_acceptance_band():
    pot = make_pot(gp_sample(GpParams(5.0, 2.0, 0.1), 60, seed=9), 5.0, 30.0)
    chains = mcmc_sample(PRIOR, pot, McmcConfig(chains=2, iterations=6000, burn_in=2000), seed=1)
    assert chains.warnings == ()
    assert np.all(chains.acceptance > 0.05) and np.all(chains.acceptance < 0.8)


def test_mcmc_draws_respect_support():
    pot = make_pot(gp_sample(GpParams(5.0, 2.0, -0.2), 60, seed=10), 5.0, 30.0)
    chains = mcmc_sample(PRIOR, pot, LIGHT, seed=2)
    pooled = chains.pooled()
    assert np.all(pooled[:, 0] > 0)
    assert np.all(pooled[:, 1] > 0)
    xmax = pot.peaks.max()
    neg = pooled[:, 2] < 0
    endpoint = pooled[neg, 0] - pooled[neg, 1] / pooled[neg, 2]
    assert np.all(endpoint >= xmax)


def test_mcmc_no_data_targets_prior():
    cfg = McmcConfig(chains=4, iterations=6000, burn_in=1000, thinning=2)
    chains = mcmc_sample(PRIOR, empty_pot(), cfg, seed=5)
    diag = chain_diagnostics(chains)
    pooled = chains.pooled()
    z = np.column_stack(
        [np.log(pooled[:, 0]), np.log(pooled[:, 1]), pooled[:, 2]]
    )
    for k in range(3):
        mc_se = z[:, k].std(ddof=1) / math.sqrt(diag.ess[k])
        assert abs(z[:, k].mean() - PRIOR.gamma[k]) < 3.0 * mc_se
        assert abs(z[:, k].var(ddof=1) - PRIOR.d[k]) < 0.1 * PRIOR.d[k]
    assert diag.psr is not None and max(diag.psr) < 1.05


def test_mcmc_stationary_distribution_total_variation():
    # discretized-marginal check of the kernel's stationary law on a
    # no-data target, where the posterior is known in closed form
    cfg = McmcConfig(chains=4, iterations=50000, burn_in=2000, thinning=3)
    chains = mcmc_sample(PRIOR, empty_pot(), cfg, seed=6)
    pooled = chains.pooled()
    z = np.column_stack(
        [np.log(pooled[:, 0]), np.log(pooled[:, 1]), pooled[:, 2]]
    )
    from scipy.stats import norm

    for k in range(3):
        sd = math.sqrt(PRIOR.d[k])
        edges = PRIOR.gamma[k] + sd * np.linspace(-4.0, 4.0, 11)
        counts, _ = np.histogram(z[:, k], bins=edges)
        emp = counts / z.shape[0]
        cdf = norm.cdf(edges, loc=PRIOR.gamma[k], scale=sd)
        exact = np.diff(cdf)
        # mass beyond the outermost edges forms one extra cell
        tv = 0.5 * (np.abs(emp - exact).sum() + abs(emp.sum() - exact.sum()))
        assert tv < 0.01


def test_mcmc_scaling_consistency():
    from scipy.stats import ks_2samp

    c = 3.7
    pot = make_pot(gp_sample(GpParams(5.0, 2.0, 0.1), 50, seed=12), 5.0, 25.0)
    scaled = pot.rescaled(c)
    prior2 = PriorSpec(
        gamma=(PRIOR.gamma[0] + math.log(c), PRIOR.gamma[1] + math.log(c), PRIOR.gamma[2]),
        d=PRIOR.d,
    )
    cfg = McmcConfig(chains=2, iterations=6000, burn_in=1500)
    a = mcmc_sample(PRIOR, pot, cfg, seed=3).pooled()
    b = mcmc_sample(prior2, scaled, cfg, seed=3).pooled()
    mapped = a * np.array([c, c, 1.0])
    for k in range(3):
        assert ks_2samp(mapped[:, k], b[:, k]).statistic < 0.03


def test_mcmc_chain_draws_do_not_depend_on_the_chain_count():
    pot = make_pot(gp_sample(GpParams(5.0, 2.0, 0.1), 30, seed=8), 5.0, 15.0)
    two = mcmc_sample(PRIOR, pot, replace(LIGHT, chains=2), seed=7)
    four = mcmc_sample(PRIOR, pot, replace(LIGHT, chains=4), seed=7)
    assert np.array_equal(two.draws[0], four.draws[0])
    assert np.array_equal(two.draws, four.draws[:2])
    assert np.array_equal(two.acceptance, four.acceptance[:2])


@st.composite
def loglik_row_cases(draw):
    """A record of 1-200 peaks, some of them on the threshold, and rows of
    (mu, sigma, xi) around it: locations above the smallest peak, shapes
    on the exponential branch and at +-SHAPE_EPS, and negative shapes whose
    endpoint may fall below the largest peak; up to three blocks' worth."""
    n = draw(st.integers(1, 200))
    u, spread = draw(st.floats(0.5, 50.0)), draw(st.floats(0.1, 20.0))
    params = GpParams(u, spread, draw(st.floats(-0.5, 0.8)))
    peaks = gp_sample(params, n, seed=draw(st.integers(0, 2**20)))
    peaks[: draw(st.integers(0, min(n, 4)))] = u
    rows = draw(st.integers(1, min(3 * (bayes._ROW_VALUES // n) + 1, 2500)))
    rng = np.random.default_rng(draw(st.integers(0, 2**20)))
    mu = float(peaks.min()) - spread * rng.normal(0.3, 0.3, rows)
    sigma = spread * np.exp(rng.normal(0.0, 0.7, rows))
    edge = [0.0, 1e-9, -1e-9, SHAPE_EPS, -SHAPE_EPS, math.nextafter(SHAPE_EPS, 0.0)]
    xi = np.where(rng.random(rows) < 0.2, rng.choice(edge, rows), rng.normal(0.0, 0.6, rows))
    return peaks, mu, sigma, xi


@settings(deadline=None, max_examples=100, derandomize=True)
@given(loglik_row_cases())
def test_loglik_rows_are_the_kernel_row_by_row(case):
    # each row's residuals, log1p and pairwise sum are the kernel's own
    # floats, in blocks of at most _ROW_VALUES values
    x, mu, sigma, xi = case
    xmin, xmax = float(x.min()), float(x.max())
    rows = bayes._loglik_rows(x, xmin, xmax, mu, sigma, xi)
    kernel = [
        _gp_loglik(x - m, xmin - m, xmax - m, s, k)
        for m, s, k in zip(mu.tolist(), sigma.tolist(), xi.tolist())
    ]
    assert [v.hex() for v in rows.tolist()] == [float(v).hex() for v in kernel]


def late_states_from(config):
    """The first burn-in iteration whose state enters the independence fit."""
    return int(bayes._LATE_FROM * config.burn_in)


def reference_chains(prior, pot, config, seed):
    """Plain component-wise Metropolis on the full log target through
    burn-in, then the independence step, written apart from the sampler.

    Every proposal evaluates ``log_posterior`` plus the log-space Jacobian
    log mu + log sigma afresh; the random numbers are drawn as the sampler
    draws them: three start normals, then blocks of step normals and
    acceptance uniforms, and after burn-in blocks of t normals,
    chi-squares and uniforms.  The t is fitted by ``np.cov`` and
    ``np.linalg.cholesky``, and its log density is taken by
    ``np.linalg.solve``.
    """
    x = np.asarray(pot.peaks, dtype=float)
    xmin = float(x.min()) if x.size else math.inf

    def log_target(z):
        params = GpParams(math.exp(z[0]), math.exp(z[1]), float(z[2]))
        return log_posterior(prior, pot, params) + z[0] + z[1]

    def to_w(z):
        # (nu, log sigma, xi) and the log Jacobian of z -> w
        if not x.size:
            return np.array(z, dtype=float), 0.0
        nu = math.log(xmin - math.exp(z[0]))
        return np.array([nu, z[1], z[2]]), nu - z[0]

    sd = np.sqrt(np.asarray(prior.d))
    base = bayes._initial_state(prior, pot.peaks)
    kept = len(range(config.burn_in, config.iterations, config.thinning))
    draws = np.empty((config.chains, kept, 3))
    acceptance = np.empty((config.chains, 3))
    streams = np.random.SeedSequence(seed).spawn(config.chains)
    for c in range(config.chains):
        rng = np.random.default_rng(streams[c])
        z = base + 0.1 * sd * rng.standard_normal(3)
        for _ in range(20):
            if log_target(z) > -math.inf:
                break
            z = 0.5 * (z + base)
        else:
            z = base.copy()
        lt = log_target(z)
        scales = 2.4 * sd
        window_acc = np.zeros(3)
        post_acc = np.zeros(3)
        late, t = [], None
        k = 0
        for it in range(config.iterations):
            if it == config.burn_in:
                t = _reference_t(late, to_w, log_target)
                if t is not None:
                    break
            row = it % bayes._BLOCK
            if row == 0:
                steps = rng.standard_normal((bayes._BLOCK, 3))
                uniforms = rng.random((bayes._BLOCK, 3))
            for j in range(3):
                prop = z.copy()
                prop[j] += scales[j] * steps[row, j]
                lp = log_target(prop)
                if math.log(uniforms[row, j]) < lp - lt:
                    z, lt = prop, lp
                    window_acc[j] += 1
                    if it >= config.burn_in:
                        post_acc[j] += 1
            if it < config.burn_in and (it + 1) % bayes._ADAPT_WINDOW == 0:
                factor = np.exp(1.2 * (window_acc / bayes._ADAPT_WINDOW - 0.35))
                scales = np.clip(scales * np.clip(factor, 0.5, 2.0), 1e-6, 100.0)
                window_acc[:] = 0.0
            if late_states_from(config) <= it < config.burn_in:
                late.append(z.copy())
            if it >= config.burn_in and (it - config.burn_in) % config.thinning == 0:
                draws[c, k] = math.exp(z[0]), math.exp(z[1]), z[2]
                k += 1
        if t is not None:
            mean, chol, a_cur = t
            size = bayes._ROW_VALUES // max(x.size, 3)
            cur = (math.exp(z[0]), math.exp(z[1]), z[2])
            for first in range(config.burn_in, config.iterations, size):
                rows = min(size, config.iterations - first)
                normals = rng.standard_normal((3, rows))
                g = rng.chisquare(bayes._T_DF, rows)
                uniforms = rng.random(rows)
                props = mean + (chol @ normals * np.sqrt(bayes._T_DF / g)).T
                log_q = _reference_t_logpdf(props, mean, chol)
                for i, w in enumerate(props):
                    mu = xmin - math.exp(w[0]) if x.size else math.exp(w[0])
                    if mu > 0.0:
                        zp = np.array([math.log(mu), w[1], w[2]])
                        a = log_target(zp) + (w[0] - zp[0]) - log_q[i]
                        if math.log(uniforms[i]) < a - a_cur:
                            a_cur, cur = a, (mu, math.exp(w[1]), w[2])
                            post_acc += 1
                    if (first + i - config.burn_in) % config.thinning == 0:
                        draws[c, k] = cur
                        k += 1
        acceptance[c] = post_acc / (config.iterations - config.burn_in)
    return draws, acceptance


def _reference_t_logpdf(w, mean, chol):
    """The t's log density at the rows of w, up to its constant."""
    delta = np.linalg.solve(chol, (w - mean).T)
    return -0.5 * (bayes._T_DF + 3) * np.log1p((delta * delta).sum(axis=0) / bayes._T_DF)


def _reference_t(late, to_w, log_target):
    """The t fitted to the late burn-in states: its mean, its Cholesky
    factor and the last state's log pi / q, or None where the chain walks
    on."""
    if len(late) < bayes._MIN_LATE:
        return None
    # a coordinate the walk moved too rarely
    if (np.diff(np.array(late), axis=0) != 0.0).sum(axis=0).min() < bayes._MIN_MOVES * len(late):
        return None
    w = np.array([to_w(z)[0] for z in late])
    cov = np.cov(w, rowvar=False) * bayes._T_SCALE**2
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        return None
    mean = w.mean(axis=0)
    a = np.array([log_target(z) + to_w(z)[1] for z in late]) - _reference_t_logpdf(w, mean, chol)
    if a.max() - np.median(a) > bayes._MAX_SPREAD:
        return None
    return mean, chol, float(a[-1])


def exact_chains(prior, pot, config, seed):
    """The sampler with the kernel on every proposal: the walk as it was
    before it decided moves on the likelihood's interval, and after burn-in
    the independence step one proposal at a time on ``_gp_loglik``, in the
    same order of operations, so its draws and acceptance are the
    sampler's bit for bit.  Its scalars go through numpy's own ``exp``,
    ``log`` and ``log1p``, as the sampler's blocks do."""
    x = np.asarray(pot.peaks, dtype=float)
    n = x.size
    g0, g1, g2 = prior.gamma
    d0, d1, d2 = prior.d
    xmin, xmax = (float(x.min()), float(x.max())) if x.size else (math.inf, -math.inf)
    df = bayes._T_DF

    def log_target(z):
        mu, sigma = math.exp(z[0]), math.exp(z[1])
        dz = z - np.asarray(prior.gamma)
        quad = -0.5 * float((dz * dz / np.asarray(prior.d)).sum())
        return quad + _gp_loglik(x - mu, xmin - mu, xmax - mu, sigma, z[2])

    def w_target(lm, ls, xi, mu, sigma, nu):
        q0 = (lm - g0) * (lm - g0) / d0
        q1 = (ls - g1) * (ls - g1) / d1
        q2 = (xi - g2) * (xi - g2) / d2
        ll = _gp_loglik(x - mu, xmin - mu, xmax - mu, sigma, xi)
        return -0.5 * (q0 + q1 + q2) + ll + (nu - lm)

    def fit(late):
        k = len(late)
        if k < bayes._MIN_LATE:
            return None
        cols = [np.array(col) for col in zip(*late)]
        if min(int((np.diff(col) != 0.0).sum()) for col in cols[:3]) < bayes._MIN_MOVES * k:
            return None
        w = [np.log(xmin - cols[3]) if n else cols[0], cols[1], cols[2]]
        mean = [float(np.add.reduce(col)) / k for col in w]
        dev = [(col - m).tolist() for col, m in zip(w, mean)]
        f = bayes._T_SCALE * bayes._T_SCALE / (k - 1)
        chol = [[0.0] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i + 1):
                s = float(np.add.reduce(np.array(dev[i]) * np.array(dev[j]))) * f
                for m in range(j):
                    s -= chol[i][m] * chol[j][m]
                if i > j:
                    chol[i][j] = s / chol[j][j]
                elif s > 0.0:
                    chol[i][i] = math.sqrt(s)
                else:
                    return None
        a = []
        for s, (lm, ls, xi, mu, sigma) in enumerate(late):
            e0 = dev[0][s] / chol[0][0]
            e1 = (dev[1][s] - chol[1][0] * e0) / chol[1][1]
            e2 = (dev[2][s] - chol[2][0] * e0 - chol[2][1] * e1) / chol[2][2]
            log_q = -0.5 * (df + 3) * float(np.log1p((e0 * e0 + e1 * e1 + e2 * e2) / df))
            nu = float(np.log(xmin - mu)) if n else lm
            a.append(w_target(lm, ls, xi, mu, sigma, nu) - log_q)
        if max(a) - float(np.median(a)) > bayes._MAX_SPREAD:
            return None
        return mean, chol, a[-1]

    sd = np.sqrt(np.asarray(prior.d))
    base = bayes._initial_state(prior, x)
    burn_in, thinning = config.burn_in, config.thinning
    draws = np.empty((config.chains, len(range(burn_in, config.iterations, thinning)), 3))
    acceptance = np.empty((config.chains, 3))
    streams = np.random.SeedSequence(seed).spawn(config.chains)
    for c in range(config.chains):
        rng = np.random.default_rng(streams[c])
        z = base + 0.1 * sd * rng.standard_normal(3)
        for _ in range(20):
            lt = log_target(z)
            if lt > -math.inf:
                break
            z = 0.5 * (z + base)
        else:
            z = base.copy()
            lt = log_target(z)
        lm, ls, xi = z.tolist()
        mu, sigma = math.exp(lm), math.exp(ls)
        q0 = (lm - g0) * (lm - g0) / d0
        q1 = (ls - g1) * (ls - g1) / d1
        q2 = (xi - g2) * (xi - g2) / d2
        y, y_min, y_max = x - mu, xmin - mu, xmax - mu
        scales = 2.4 * sd
        s0, s1, s2 = scales.tolist()
        acc = [0, 0, 0]
        post_acc = [0, 0, 0]
        kept = []
        late, t = [], None
        for it in range(config.iterations):
            if it == burn_in:
                t = fit(late)
                if t is not None:
                    break
            row = it % bayes._BLOCK
            if row == 0:
                steps = rng.standard_normal((bayes._BLOCK, 3)).tolist()
                log_u = np.log(rng.random((bayes._BLOCK, 3))).tolist()
            n0, n1, n2 = steps[row]
            u0, u1, u2 = log_u[row]
            post = it >= burn_in

            lm_p = lm + s0 * n0
            mu_p = math.exp(lm_p)
            q_p = (lm_p - g0) * (lm_p - g0) / d0
            y_min_p = xmin - mu_p
            if y_min_p < 0.0:
                lp = -math.inf
            else:
                y_p, y_max_p = x - mu_p, xmax - mu_p
                lp = -0.5 * (q_p + q1 + q2) + _gp_loglik(y_p, y_min_p, y_max_p, sigma, xi)
            if u0 < lp - lt:
                lm, mu, q0, lt = lm_p, mu_p, q_p, lp
                y, y_min, y_max = y_p, y_min_p, y_max_p
                acc[0] += 1
                post_acc[0] += post

            ls_p = ls + s1 * n1
            sigma_p = math.exp(ls_p)
            q_p = (ls_p - g1) * (ls_p - g1) / d1
            lp = -0.5 * (q0 + q_p + q2) + _gp_loglik(y, y_min, y_max, sigma_p, xi)
            if u1 < lp - lt:
                ls, sigma, q1, lt = ls_p, sigma_p, q_p, lp
                acc[1] += 1
                post_acc[1] += post

            xi_p = xi + s2 * n2
            q_p = (xi_p - g2) * (xi_p - g2) / d2
            lp = -0.5 * (q0 + q1 + q_p) + _gp_loglik(y, y_min, y_max, sigma, xi_p)
            if u2 < lp - lt:
                xi, q2, lt = xi_p, q_p, lp
                acc[2] += 1
                post_acc[2] += post

            if not post:
                if (it + 1) % bayes._ADAPT_WINDOW == 0:
                    rates = np.asarray(acc, dtype=float) / bayes._ADAPT_WINDOW
                    factor = np.exp(1.2 * (rates - 0.35))
                    scales *= np.clip(factor, 0.5, 2.0)
                    scales = np.clip(scales, 1e-6, 100.0)
                    s0, s1, s2 = scales.tolist()
                    acc = [0, 0, 0]
                if it >= late_states_from(config):
                    late.append((lm, ls, xi, mu, sigma))
            elif (it - burn_in) % thinning == 0:
                kept.append((mu, sigma, xi))
        if t is not None:
            (m0, m1, m2), chol, a_cur = t
            (l00, _, _), (l10, l11, _), (l20, l21, l22) = chol
            cur = (mu, sigma, xi)
            size = bayes._ROW_VALUES // max(n, 3)
            for first in range(burn_in, config.iterations, size):
                rows = min(size, config.iterations - first)
                normals = rng.standard_normal((3, rows)).T.tolist()
                chi2s = rng.chisquare(df, rows).tolist()
                log_u = np.log(rng.random(rows)).tolist()
                for i, ((z0, z1, z2), g) in enumerate(zip(normals, chi2s)):
                    r = math.sqrt(df / g)
                    nu = m0 + r * (l00 * z0)
                    ls = m1 + r * (l10 * z0 + l11 * z1)
                    xi = m2 + r * (l20 * z0 + l21 * z1 + l22 * z2)
                    log_q = -0.5 * (df + 3) * float(np.log1p((z0 * z0 + z1 * z1 + z2 * z2) / g))
                    with np.errstate(over="ignore"):
                        sigma = float(np.exp(ls))
                        mu = xmin - float(np.exp(nu)) if n else float(np.exp(nu))
                    if 0.0 < mu < math.inf and 0.0 < sigma < math.inf:
                        lm = float(np.log(mu)) if n else nu
                        a = w_target(lm, ls, xi, mu, sigma, nu) - log_q
                        if log_u[i] < a - a_cur:
                            a_cur, cur = a, (mu, sigma, xi)
                            post_acc = [v + 1 for v in post_acc]
                    if (first + i - burn_in) % thinning == 0:
                        kept.append(cur)
        draws[c] = kept
        acceptance[c] = np.asarray(post_acc, dtype=float) / (config.iterations - burn_in)
    return draws, acceptance


def assert_exact(chains, prior, pot, config, seed):
    """The sampler's draws and acceptance are ``exact_chains``' bit for bit."""
    draws, acceptance = exact_chains(prior, pot, config, seed)
    assert np.array_equal(chains.draws, draws)
    assert np.array_equal(chains.acceptance, acceptance)


KERNEL_RUN = McmcConfig(chains=2, iterations=1200, burn_in=400)
# a run whose burn-in walk is as long as KERNEL_RUN's whole run
BURN_IN_RUN = McmcConfig(chains=2, iterations=1600, burn_in=1200)


@pytest.mark.parametrize(
    "pot, config",
    [
        (empty_pot(), KERNEL_RUN),
        # near the upper endpoint: the support check binds often
        (make_pot(gp_sample(GpParams(5.0, 2.0, -0.2), 60, seed=10), 5.0, 30.0), KERNEL_RUN),
        (make_pot(gp_sample(GpParams(5.0, 2.0, 0.3), 60, seed=13), 5.0, 30.0), KERNEL_RUN),
        (
            make_pot(gp_sample(GpParams(5.0, 2.0, 0.1), 40, seed=14), 5.0, 20.0),
            replace(KERNEL_RUN, thinning=2),
        ),
    ],
    ids=["empty", "negative-shape-edge", "positive-shape-60", "thinning-2"],
)
def test_mcmc_matches_the_reference_kernel(pot, config):
    chains = mcmc_sample(PRIOR, pot, config, seed=21)
    draws, acceptance = reference_chains(PRIOR, pot, config, seed=21)
    assert np.array_equal(chains.acceptance, acceptance)
    np.testing.assert_allclose(chains.draws, draws, rtol=1e-12, atol=1e-14)
    assert_exact(chains, PRIOR, pot, config, seed=21)


@st.composite
def sampler_cases(draw):
    """A record of 1-70 peaks, some of them on the threshold, and a prior
    whose shape mean is 0 or drawn."""
    n = draw(st.integers(1, 70))
    u = draw(st.floats(1.0, 20.0))
    scale = draw(st.floats(0.3, 5.0))
    peaks = gp_sample(
        GpParams(u, scale, draw(st.floats(-0.4, 0.5))), n, seed=draw(st.integers(0, 10_000))
    )
    peaks[: draw(st.integers(0, min(n, 4)))] = u
    pot = make_pot(peaks, u, draw(st.floats(5.0, 40.0)))
    prior = PriorSpec(
        gamma=(
            math.log(u) + draw(st.floats(-0.3, 0.3)),
            math.log(scale) + draw(st.floats(-0.5, 0.5)),
            draw(st.one_of(st.just(0.0), st.floats(-0.3, 0.4))),
        ),
        d=(draw(st.floats(0.005, 0.2)), draw(st.floats(0.005, 0.2)), draw(st.floats(0.002, 0.05))),
    )
    return prior, pot, draw(st.integers(0, 2**16))


@settings(deadline=None, max_examples=25, derandomize=True)
@given(sampler_cases())
def test_mcmc_matches_the_reference_kernel_on_drawn_records(case):
    prior, pot, seed = case
    chains = mcmc_sample(prior, pot, KERNEL_RUN, seed=seed)
    draws, acceptance = reference_chains(prior, pot, KERNEL_RUN, seed=seed)
    assert np.array_equal(chains.acceptance, acceptance)
    np.testing.assert_allclose(chains.draws, draws, rtol=1e-12, atol=1e-14)
    assert_exact(chains, prior, pot, KERNEL_RUN, seed=seed)


@st.composite
def interval_sampler_cases(draw):
    """Records and priors from the interval's hard families: offsets up to
    1e5 times the spread, shapes held within about 1e-6 of 0 or at
    +-SHAPE_EPS, shapes near -1 on records near their upper endpoint, peaks
    on the threshold, and n = 1."""
    n = draw(st.one_of(st.just(1), st.integers(1, 120)))
    spread = draw(st.floats(0.3, 20.0))
    u = spread * draw(st.one_of(st.floats(1.0, 10.0), st.floats(10.0, 1e5)))
    family = draw(st.sampled_from(["drawn", "near-zero", "at-eps", "near-minus-one"]))
    shape = {"drawn": draw(st.floats(-0.4, 0.6)), "near-minus-one": -0.9}.get(family, 0.0)
    peaks = gp_sample(GpParams(u, spread, shape), n, seed=draw(st.integers(0, 2**20)))
    peaks[: draw(st.integers(0, min(n, 4)))] = u
    gamma2, d2 = {
        "drawn": (draw(st.floats(-0.3, 0.4)), draw(st.floats(0.002, 0.05))),
        # steps of about 1e-6 and SHAPE_EPS: the exponential branch switches
        "near-zero": (0.0, 1e-13),
        "at-eps": (draw(st.sampled_from([-1.0, 1.0])) * SHAPE_EPS, 1e-17),
        "near-minus-one": (-0.9, 1e-3),
    }[family]
    prior = PriorSpec(
        gamma=(
            math.log(u) + draw(st.floats(-0.3, 0.3)) * spread / u,
            math.log(spread) + draw(st.floats(-0.5, 0.5)),
            gamma2,
        ),
        d=(draw(st.floats(0.005, 0.2)) * (spread / u) ** 2, draw(st.floats(0.005, 0.2)), d2),
    )
    pot = make_pot(peaks, u, max(1.0, n / 2.0))
    return prior, pot, draw(st.integers(0, 2**16))


@settings(deadline=None, max_examples=40, derandomize=True)
@given(interval_sampler_cases())
def test_mcmc_is_the_exact_sampler_on_the_intervals_hard_records(case):
    prior, pot, seed = case
    assert_exact(mcmc_sample(prior, pot, KERNEL_RUN, seed=seed), prior, pot, KERNEL_RUN, seed)


# (acceptance, last draw of each chain, fsum of each coordinate's draws) of
# LIGHT at seed 0 on a short and a long record, both drawn by the
# independence step after burn-in; the kernel and its rows sum with numpy's
# pairwise sum
_PINNED_CHAINS = {
    11: (
        [[0.44681818181818184, 0.44681818181818184, 0.44681818181818184],
         [0.5686363636363636, 0.5686363636363636, 0.5686363636363636]],
        [[4.918327488358709, 1.4715746843382143, 0.06040056126584804],
         [4.841778199943855, 2.1352064283544565, 0.06896812492757211]],
        [21518.84547582807, 9052.846076270243, 343.4505278457076],
    ),
    65: (
        [[0.4677272727272727, 0.4677272727272727, 0.4677272727272727],
         [0.5322727272727272, 0.5322727272727272, 0.5322727272727272]],
        [[5.002143957403326, 2.2022850061103236, 0.11910042850819805],
         [5.004194915958217, 2.023476025370136, 0.117431814592276]],
        [21923.59217108371, 9988.011353229595, 345.44803153208255],
    ),
}


@pytest.mark.parametrize("n, record_seed", [(11, 31), (65, 32)])
def test_mcmc_draws_are_pinned_on_a_short_and_a_long_record(n, record_seed):
    # the reference kernel above shares _gp_loglik, so only pinned values
    # see a change of the kernel's sum that flips an acceptance
    pot = make_pot(gp_sample(GpParams(5.0, 2.0, 0.1), n, seed=record_seed), 5.0, n / 2.2)
    chains = mcmc_sample(PRIOR, pot, LIGHT, seed=0)
    acceptance, last, sums = _PINNED_CHAINS[n]
    assert chains.acceptance.tolist() == acceptance
    assert chains.draws[:, -1, :].tolist() == last
    assert [math.fsum(chains.draws[:, :, k].ravel().tolist()) for k in range(3)] == sums
    assert chains.warnings == ()


def test_mcmc_passes_the_kernel_the_extremes_of_its_residuals(monkeypatch):
    # the sampler builds y = x - mu when the kernel runs and keeps the
    # extremes xmin - mu and xmax - mu; subtracting a scalar is monotone
    # under rounding, so they are y's own extremes exactly, after every
    # accepted location move too
    kernel = bayes._gp_loglik
    calls = []

    def checked(y, y_min, y_max, sigma, xi):
        assert y_min == float(y.min())
        assert y_max == float(y.max())
        calls.append(y_min)
        return kernel(y, y_min, y_max, sigma, xi)

    monkeypatch.setattr(bayes, "_gp_loglik", checked)
    peaks = gp_sample(GpParams(5.0, 2.0, -0.2), 60, seed=10)
    peaks[:3] = 5.0
    mcmc_sample(PRIOR, make_pot(peaks, 5.0, 30.0), BURN_IN_RUN, seed=21)
    # the walk calls the kernel; the likelihood's interval decides most of
    # its moves, the kernel the rest, and location moves did move y
    assert 0 < len(calls) < BURN_IN_RUN.chains * BURN_IN_RUN.burn_in
    assert len(set(calls)) > 100


def test_mcmc_carries_the_bounds_scalars_of_its_current_state(monkeypatch):
    # a location proposal computes ybar = c - mu, y_sec = x_sec - mu and the
    # residuals' extremes, a scale proposal base = -n log sigma, and an
    # accepted move stores them: every call of the bounds must see the
    # scalars of one location and of the scale it is given.  A tight
    # location prior keeps each mu within a factor of two of the smallest
    # peak, so xmin - mu is exact (Sterbenz) and xmin - y_min gives mu back
    factory = bayes._loglik_bounds
    seen = []

    def spied(x):
        bounds, centre, x_sec = factory(x)
        n, xmin, xmax = x.size, float(x.min()), float(x.max())

        def checked(base, ybar, y_min, y_sec, y_max, sigma, xi):
            assert base == -n * math.log(sigma)
            mu = xmin - y_min
            assert xmin / 2.0 <= mu <= xmin
            assert (ybar, y_sec, y_max) == (centre - mu, x_sec - mu, xmax - mu)
            seen.append((mu, base))
            return bounds(base, ybar, y_min, y_sec, y_max, sigma, xi)

        return checked, centre, x_sec

    monkeypatch.setattr(bayes, "_loglik_bounds", spied)
    prior = replace(PRIOR, d=(0.0025,) + PRIOR.d[1:])
    peaks = gp_sample(GpParams(5.0, 2.0, 0.1), 60, seed=10)
    pot = make_pot(peaks, 5.0, 30.0)
    chains = mcmc_sample(prior, pot, BURN_IN_RUN, seed=21)
    # the walk's location and scale moves, each carried into later calls
    assert len({mu for mu, _ in seen}) > 1000
    assert len({base for _, base in seen}) > 1000
    assert_exact(chains, prior, pot, BURN_IN_RUN, seed=21)


def _family(n, shape, seed):
    peaks = gp_sample(GpParams(5.0, 2.0, shape), n, seed=seed)
    prior = replace(PRIOR, gamma=(PRIOR.gamma[0], PRIOR.gamma[1], shape))
    return prior, make_pot(peaks, 5.0, n / 2.2)


def _walkthrough_style():
    # a 65-peak target and the prior its nine donors give, as `bayes` runs it
    region, _ = synth_region(n_sites=10, seed=3, years=29.5)
    return elicit_prior(region, donor_regression(region)), region.target_site.pot


FAMILY_RUN = McmcConfig(chains=2, iterations=2000, burn_in=500)


@pytest.mark.parametrize(
    "case, before",
    [
        # kernel calls over 2 x 2000 walk iterations when the sampler
        # evaluated the current state before the proposal and bounded every
        # peak's term by the remainder
        (lambda: _family(30, 0.3, 40), 6401),
        (lambda: _family(65, 0.5, 41), 10077),
        (lambda: _family(65, -0.4, 42), 4384),
        (_walkthrough_style, 1466),
    ],
    ids=["30-peaks-xi-0.3", "65-peaks-xi-0.5", "65-peaks-xi-minus-0.4", "walkthrough-65"],
)
def test_mcmc_kernel_calls_fall_on_the_hard_record_families(case, before, monkeypatch, caplog):
    prior, pot = case()
    kernel = bayes._gp_loglik
    calls = []

    def counted(*args):
        calls.append(None)
        return kernel(*args)

    monkeypatch.setattr(bayes, "_gp_loglik", counted)
    with caplog.at_level(logging.DEBUG, logger="regflood"):
        chains = mcmc_sample(prior, pot, FAMILY_RUN, seed=5)
    # the walk runs through burn-in only: its calls stay below that count's
    # share of the burn-in iterations
    assert len(calls) < before * FAMILY_RUN.burn_in / 2000
    # one DEBUG line per chain counts the walk moves' kernel calls; the rest
    # are the start's: one check of the base state, one evaluation per
    # chain, whose value the chain keeps.  The independence step evaluates
    # its late burn-in states and its proposals as kernel rows
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("mcmc chain")]
    assert len(lines) == FAMILY_RUN.chains
    assert all(line.endswith("by the independence step") for line in lines)
    pattern = r"(\d+) proposals, (\d+) kernel calls, (\d+) kernel rows"
    counts = [[int(v) for v in re.search(pattern, line).groups()] for line in lines]
    burn_in, post = FAMILY_RUN.burn_in, FAMILY_RUN.iterations - FAMILY_RUN.burn_in
    assert all(p == 3 * burn_in + post for p, _, _ in counts)
    assert all(r == burn_in - late_states_from(FAMILY_RUN) + post for _, _, r in counts)
    assert sum(k for _, k, _ in counts) + 1 + FAMILY_RUN.chains == len(calls)
    assert_exact(chains, prior, pot, FAMILY_RUN, seed=5)


def _experiment_target(seed):
    """An experiment-spec region's target record and its regional prior."""
    spec = evaluation.SynthSpec(n_sites=14, years=37.0, rate=2.0)
    region, _ = evaluation.synth_region(spec, seed=seed)
    regression = bayes._donor_regression(list(region.others()), region.index_method)
    return elicit_prior(region, regression), region.target_site.pot


EXPERIMENT_RUN = McmcConfig(chains=2, iterations=4000, burn_in=1000)


def _joint(acceptance):
    # the independence step moves all three coordinates at once; the walk
    # moves each on its own
    return len(set(acceptance.tolist())) == 1


def test_mcmc_takes_the_independence_step_on_regional_records():
    # twelve experiment-spec targets, full records of 74 peaks and 5-year
    # windows of 11, under their regional priors: log pi / q spreads by
    # less than the cut over every chain's late burn-in
    for seed in range(12):
        prior, pot = _experiment_target(seed)
        for record in (pot, evaluation.truncate_pot(pot, 5.0)):
            chains = mcmc_sample(prior, record, EXPERIMENT_RUN, seed=seed)
            assert all(_joint(rates) for rates in chains.acceptance), (seed, record.peaks.size)
            assert chains.warnings == ()
    # a burn-in of 250 leaves 125 late states, too few to fit the t
    short = mcmc_sample(prior, record, McmcConfig(chains=2, iterations=1000, burn_in=250), seed=0)
    assert not any(_joint(rates) for rates in short.acceptance)


def test_mcmc_keeps_walking_where_the_t_misses_the_flat_posterior(monkeypatch):
    # under d = 1000 one chain's late burn-in on this 11-peak window runs out
    # towards mu = 0, where the posterior in nu piles up against log x_min:
    # the t fitted to it spreads log pi / q far beyond the cut, and that
    # chain walks on while its sibling takes the independence step
    prior, pot = _experiment_target(4)
    flat = prior.with_variances((1000.0, 1000.0, 1000.0))
    window = evaluation.truncate_pot(pot, 5.0)
    chains = mcmc_sample(flat, window, EXPERIMENT_RUN, seed=4)
    assert [_joint(rates) for rates in chains.acceptance] == [False, True]
    assert chains.warnings == ()
    # without the guard the walking chain's t almost never accepts
    monkeypatch.setattr(bayes, "_MAX_SPREAD", math.inf)
    unguarded = mcmc_sample(flat, window, EXPERIMENT_RUN, seed=4)
    assert unguarded.acceptance[0, 0] < 0.01
    assert np.array_equal(unguarded.draws[1], chains.draws[1])


# ----------------------------------------------------- calibration (SBC)


# Simulation-based calibration (Cook, Gelman & Rubin 2006; Talts et al.
# 2018): draw (mu, sigma, xi) from the prior, n peaks from that GP and 99
# retained draws of one chain; each true parameter's rank among the draws is
# uniform on 0..99 exactly when the sampler targets the posterior.  A rank
# chi-square over 10 bins below p = 0.001, a threshold fixed before the
# runs, fails.  Criterion 5's prior and a heavy-tailed one (shape mean 0.4)
SBC_PRIORS = {
    "criterion-5": PriorSpec((math.log(15.0), math.log(6.0), 0.1), (0.3, 0.2, 0.05)),
    "heavy-tailed": PriorSpec((math.log(15.0), math.log(6.0), 0.4), (0.3, 0.2, 0.05)),
}
SBC_RUN = McmcConfig(chains=1, iterations=500 + 99 * 10, burn_in=500, thinning=10)
SBC_REPLICATES = 1000


@pytest.mark.parametrize("n", [11, 40, 74])
@pytest.mark.parametrize("prior_name", list(SBC_PRIORS))
def test_mcmc_ranks_of_prior_draws_are_uniform(prior_name, n):
    from scipy.stats import chi2

    prior = SBC_PRIORS[prior_name]
    rng = np.random.default_rng([n, len(prior_name)])
    ranks = np.empty((SBC_REPLICATES, 3), dtype=int)
    for r in range(SBC_REPLICATES):
        z = np.asarray(prior.gamma) + np.sqrt(prior.d) * rng.standard_normal(3)
        truth = GpParams(math.exp(z[0]), math.exp(z[1]), float(z[2]))
        pot = make_pot(gp_sample(truth, n, rng), truth.location, n / 2.0)
        draws = mcmc_sample(prior, pot, SBC_RUN, seed=r).draws[0]
        ranks[r] = (draws < np.array([truth.location, truth.scale, truth.shape])).sum(axis=0)
    expected = SBC_REPLICATES / 10.0
    for j in range(3):
        counts = np.bincount(ranks[:, j] // 10, minlength=10)
        p = float(chi2.sf(((counts - expected) ** 2 / expected).sum(), 9))
        assert p >= 0.001, (j, counts.tolist(), p)


# -------------------------------------------------------------- diagnostics


def iid_chains(n_chains=2, kept=2000, seed=0):
    rng = np.random.default_rng(seed)
    draws = np.empty((n_chains, kept, 3))
    draws[:, :, 0] = rng.normal(5.0, 1.0, (n_chains, kept))
    draws[:, :, 1] = rng.normal(2.0, 0.5, (n_chains, kept))
    draws[:, :, 2] = rng.normal(0.1, 0.05, (n_chains, kept))
    return PosteriorChains(draws=draws, acceptance=np.full((n_chains, 3), 0.35))


def test_diagnostics_iid_chains():
    diag = chain_diagnostics(iid_chains())
    assert diag.psr is not None
    for k in range(3):
        assert 1.0 <= diag.psr[k] < 1.05
        assert 0.8 * 4000 < diag.ess[k] < 1.2 * 4000


def test_diagnostics_separated_chains():
    draws = np.zeros((2, 500, 3))
    draws[1] = 1.0
    chains = PosteriorChains(draws=draws, acceptance=np.full((2, 3), 0.3))
    diag = chain_diagnostics(chains)
    assert all(v > 5.0 for v in diag.psr)


def test_diagnostics_single_chain():
    diag = chain_diagnostics(iid_chains(n_chains=1, kept=1500))
    assert diag.psr is None
    assert 0.8 * 1500 < diag.ess[0] < 1.2 * 1500


@pytest.mark.parametrize("level", [0.0, 1e-170])
def test_ess_of_a_chain_without_spread_is_its_length(level):
    # draws at 1e-170 spread, but their centred squares underflow to 0
    spread = np.random.default_rng(3).normal(1.0, 0.5, 1000)
    for x in (np.full(1000, 7.25), level * spread):
        assert bayes._ess_single(x) == 1000.0


_THREAD_TICKS = """
import math, os, time
import numpy as np
from regflood.bayes import McmcConfig, PriorSpec, chain_diagnostics, mcmc_sample
from regflood.distributions import GpParams, gp_sample
from regflood.pot import PotSeries

def other_threads_ticks():
    total = 0
    for tid in os.listdir("/proc/self/task"):
        if int(tid) != os.getpid():
            with open(f"/proc/self/task/{tid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
            total += int(fields[11]) + int(fields[12])  # utime, stime
    return total

# a 65-peak record sampled at the CLI defaults: 4 chains of 20,000
# iterations, a quarter of them burn-in
times = np.datetime64("1970-01-01", "s") + np.arange(1, 66) * np.timedelta64(165 * 86400, "s")
pot = PotSeries("T", 5.0, times, gp_sample(GpParams(5.0, 2.0, 0.1), 65, seed=32), 29.5)
prior = PriorSpec((math.log(5.0), math.log(2.0), 0.05), (0.09, 0.04, 0.01))
before = other_threads_ticks()
chains = mcmc_sample(prior, pot, McmcConfig(chains=4, iterations=20_000, burn_in=5_000), seed=0)
chain_diagnostics(chains)
end = time.perf_counter() + 0.2
while time.perf_counter() < end:
    pass
print(other_threads_ticks() - before)
"""


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc")
def test_chain_diagnostics_leaves_the_blas_thread_pool_asleep():
    # a threaded BLAS call (OpenBLAS runs a ddot of more than 10,000 terms
    # on its pool) leaves worker threads spinning on the other cores through
    # what runs next, here a 0.2 s busy wait; the child samples a record at
    # the CLI defaults, fits the independence step's t on the way, and
    # summarizes its 60,000 retained draws, with the library's default BLAS
    # threads
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(bayes.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", _THREAD_TICKS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) <= 2


# ---------------------------------------------------------------- quantiles


def test_posterior_quantiles_degenerate_chain():
    theta = GpParams(5.0, 2.0, 0.1)
    draws = np.tile(np.array([5.0, 2.0, 0.1]), (1, 600, 1))
    chains = PosteriorChains(draws=draws, acceptance=np.full((1, 3), 0.3))
    out = posterior_quantiles(chains, rate=2.0, periods=(10.0, 100.0))
    for summary, period in zip(out, (10.0, 100.0)):
        want = return_level(theta, 2.0, period)
        assert summary.point == pytest.approx(want, rel=1e-12)
        assert summary.lower == pytest.approx(want, rel=1e-12)
        assert summary.upper == pytest.approx(want, rel=1e-12)


def test_posterior_quantiles_needs_draws():
    chains = iid_chains(kept=200)
    with pytest.raises(InputError):
        posterior_quantiles(chains, rate=2.0, periods=(10.0,))


def test_posterior_quantiles_ordering():
    chains = iid_chains(kept=1000, seed=4)
    out = posterior_quantiles(chains, rate=2.0, periods=(5.0, 10.0, 50.0))
    points = [s.point for s in out]
    assert points == sorted(points)
    for s in out:
        assert s.lower <= s.point <= s.upper
    with pytest.raises(InputError):
        posterior_quantiles(chains, rate=2.0, periods=(0.4,))
