import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regflood import bayes, regional
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
from regflood.distributions import GpParams, gp_logpdf, gp_sample
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
        (s.meta.code, s.meta.area_km2, at_site_index_flood(s.pot).value)
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


def flat_regression(codes, s2=0.0, excluded=None):
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
        excluded=excluded,
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
    reg = flat_regression(("S1", "S2", "S3"), s2=0.0, excluded="S0")
    prior = elicit_prior(region, reg, threshold_cv=0.0)
    c_pred = 2.0
    # each donor is rescaled by its own index flood, the one-year level
    c = return_level(GpParams(1.0, 0.5, 0.12), 2.0, 1.0)
    assert prior.gamma[0] == pytest.approx(math.log(c_pred / c), rel=1e-12)
    assert prior.gamma[1] == pytest.approx(math.log(0.5 * c_pred / c), rel=1e-12)
    assert prior.gamma[2] == pytest.approx(0.12, rel=1e-12)
    assert prior.d == (1e-4, 1e-4, 1e-4)
    assert prior.provenance.sites == ("S1", "S2", "S3")


def test_variance_components_add(site_fits):
    # prediction variance 0.02 plus per-site log-scale variance 0.01
    region = four_site_region()
    site_fits.update(
        {c: constant_fit(1.0, 1.0, 0.1, var_sigma=0.01) for c in ("S1", "S2", "S3")}
    )
    s2 = 0.02 / (1.0 + 1.0 / 3.0)
    reg = flat_regression(("S1", "S2", "S3"), s2=s2, excluded="S0")
    prior = elicit_prior(region, reg, threshold_cv=0.0)
    assert prior.d[1] == pytest.approx(0.03, rel=1e-12)
    assert prior.d[0] == pytest.approx(0.02, rel=1e-12)


def test_target_in_regression_is_contract_violation():
    region = four_site_region()
    reg = flat_regression(("S0", "S1", "S2", "S3"))
    with pytest.raises(ContractViolationError):
        elicit_prior(region, reg)


def test_too_few_donors(site_fits):
    region = four_site_region()
    site_fits.update({c: constant_fit(1.0, 0.5, 0.1) for c in ("S1", "S2")})
    with pytest.raises(ElicitationError):
        elicit_prior(region, flat_regression(("S1", "S2"), excluded="S0"))
    # a donor whose fit fails is dropped, leaving too few again
    site_fits["S3"] = FitError("MLE did not converge")
    with pytest.raises(ElicitationError):
        elicit_prior(region, flat_regression(("S1", "S2", "S3"), excluded="S0"))


def test_donors_are_the_regression_sites():
    region, _ = synth_region(n_sites=8, seed=2)
    points = [
        (s.meta.code, s.meta.area_km2, s.index_flood().value)
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


def reference_chains(prior, pot, config, seed):
    """Plain component-wise Metropolis on the full log target.

    Every proposal evaluates ``log_posterior`` plus the log-space Jacobian
    log mu + log sigma afresh; the random numbers are drawn as the sampler
    draws them: three start normals, then blocks of step normals and
    acceptance uniforms.
    """
    def log_target(z):
        params = GpParams(math.exp(z[0]), math.exp(z[1]), float(z[2]))
        return log_posterior(prior, pot, params) + z[0] + z[1]

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
        k = 0
        for it in range(config.iterations):
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
            if it < config.burn_in and (it + 1) % config.adapt_window == 0:
                factor = np.exp(1.2 * (window_acc / config.adapt_window - 0.35))
                scales = np.clip(scales * np.clip(factor, 0.5, 2.0), 1e-6, 100.0)
                window_acc[:] = 0.0
            if it >= config.burn_in and (it - config.burn_in) % config.thinning == 0:
                draws[c, k] = math.exp(z[0]), math.exp(z[1]), z[2]
                k += 1
        acceptance[c] = post_acc / (config.iterations - config.burn_in)
    return draws, acceptance


KERNEL_RUN = McmcConfig(chains=2, iterations=1200, burn_in=400)


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
    np.testing.assert_allclose(chains.draws, draws, rtol=1e-12, atol=0.0)


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
    got = bayes._gp_loglik(
        (x - mu) / sigma, (x.min() - mu) / sigma, (x.max() - mu) / sigma, sigma, xi
    )
    want = float(gp_logpdf(GpParams(mu, sigma, xi), x).sum())
    if math.isfinite(want):
        assert got == pytest.approx(want, rel=1e-9)
    else:
        assert got == -math.inf


# -------------------------------------------------------------- diagnostics


def iid_chains(n_chains=2, kept=2000, seed=0):
    rng = np.random.default_rng(seed)
    draws = np.empty((n_chains, kept, 3))
    draws[:, :, 0] = rng.normal(5.0, 1.0, (n_chains, kept))
    draws[:, :, 1] = rng.normal(2.0, 0.5, (n_chains, kept))
    draws[:, :, 2] = rng.normal(0.1, 0.05, (n_chains, kept))
    return PosteriorChains(
        draws=draws,
        acceptance=np.full((n_chains, 3), 0.35),
        burn_in=0,
        thinning=1,
        seed=seed,
    )


def test_diagnostics_iid_chains():
    diag = chain_diagnostics(iid_chains())
    assert diag.psr is not None
    for k in range(3):
        assert 1.0 <= diag.psr[k] < 1.05
        assert 0.8 * 4000 < diag.ess[k] < 1.2 * 4000


def test_diagnostics_separated_chains():
    draws = np.zeros((2, 500, 3))
    draws[1] = 1.0
    chains = PosteriorChains(
        draws=draws,
        acceptance=np.full((2, 3), 0.3),
        burn_in=0,
        thinning=1,
        seed=0,
    )
    diag = chain_diagnostics(chains)
    assert all(v > 5.0 for v in diag.psr)


def test_diagnostics_single_chain():
    diag = chain_diagnostics(iid_chains(n_chains=1, kept=1500))
    assert diag.psr is None
    assert 0.8 * 1500 < diag.ess[0] < 1.2 * 1500


# ---------------------------------------------------------------- quantiles


def test_posterior_quantiles_degenerate_chain():
    theta = GpParams(5.0, 2.0, 0.1)
    draws = np.tile(np.array([5.0, 2.0, 0.1]), (1, 600, 1))
    chains = PosteriorChains(
        draws=draws,
        acceptance=np.full((1, 3), 0.3),
        burn_in=0,
        thinning=1,
        seed=0,
    )
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
