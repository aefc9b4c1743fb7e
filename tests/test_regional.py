import numpy as np
import pytest

from regflood.distributions import (
    GpParams,
    KappaParams,
    gp_quantile,
    gp_rescale,
    gp_sample,
    kappa_sample,
)
from regflood.errors import (
    DegenerateSampleError,
    FitError,
    InputError,
    InsufficientDataError,
)
from regflood.indexflood import StationMeta, at_site_index_flood
from regflood.lmoments import LmomentSet, sample_lmoments
from regflood.regional import (
    Region,
    RegionSite,
    classify_h1,
    discordancy,
    discordancy_critical_value,
    fit_simulation_parent,
    growth_curve,
    heterogeneity,
    index_flood_quantile,
    _sim_ratio_table,
)

from conftest import make_pot


def meta_for(code, area=100.0):
    return StationMeta(code, f"Station {code}", area, 0.0, 0.0, 1970, 2003)


def make_region(samples, target=None, threshold=5.0, years=37.0):
    sites = []
    for i, peaks in enumerate(samples):
        code = f"S{i}"
        sites.append(
            RegionSite(meta_for(code), make_pot(peaks, threshold, years, station=code))
        )
    return Region(tuple(sites), target or "S0")


def homogeneous_region(n_sites=8, n_events=74, shape=0.1, seed=0, scales=None):
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n_sites):
        c = 1.0 if scales is None else scales[i]
        params = GpParams(5.0 * c, 3.0 * c, shape)
        samples.append(gp_sample(params, n_events, rng))
    # all sites share threshold 5 only when unscaled; build sites directly
    sites = []
    for i, peaks in enumerate(samples):
        code = f"S{i}"
        c = 1.0 if scales is None else scales[i]
        sites.append(
            RegionSite(
                meta_for(code), make_pot(peaks, 5.0 * c, 37.0, station=code)
            )
        )
    return Region(tuple(sites), "S0")


def test_region_validation():
    region = homogeneous_region(4)
    assert region.codes == ("S0", "S1", "S2", "S3")
    assert region.target_site.meta.code == "S0"
    assert [s.meta.code for s in region.others()] == ["S1", "S2", "S3"]
    with pytest.raises(InputError):
        Region(region.sites, target="S9")
    with pytest.raises(InputError):
        Region(region.sites[:1], target="S0")
    with pytest.raises(InputError):
        Region(region.sites + (region.sites[0],), target="S0")
    mismatched = RegionSite(meta_for("X1"), region.sites[0].pot)
    with pytest.raises(InputError):
        Region((mismatched, region.sites[1]), target="S1")


def test_region_site_fits_once_and_only_when_asked(fit_calls):
    region = homogeneous_region(6, seed=3)
    discordancy(region)
    heterogeneity(region, nsim=60, seed=0)
    growth_curve(region, index_method="empirical")
    assert fit_calls == []
    site = region.sites[2]
    assert site.fit is site.fit
    assert site.index_flood() == at_site_index_flood(site.pot)
    assert fit_calls == ["S2", "S2"]  # the site's fit, then the bare record's


def test_region_site_keeps_its_fit_failure(fit_calls):
    site = RegionSite(meta_for("S0"), make_pot([6.0] * 10, 5.0, 5.0, station="S0"))
    for _ in range(2):
        with pytest.raises(FitError):
            site.fit
        with pytest.raises(FitError):
            site.index_flood()
    assert fit_calls == ["S0"]


def test_discordancy_sums_to_site_count():
    for n_sites in (5, 8, 14):
        region = homogeneous_region(n_sites, seed=n_sites)
        rep = discordancy(region)
        assert sum(rep.values) == pytest.approx(n_sites, rel=1e-9)
        assert all(v >= 0 for v in rep.values)
        assert rep.critical == discordancy_critical_value(n_sites)


def test_discordancy_matches_direct_computation():
    region = homogeneous_region(7, seed=42)
    rep = discordancy(region)
    from regflood.lmoments import sample_lmoments

    u = np.array(
        [
            [lm.t, lm.t3, lm.t4]
            for lm in (sample_lmoments(s.pot.peaks) for s in region.sites)
        ]
    )
    dev = u - u.mean(axis=0)
    s_inv = np.linalg.inv(dev.T @ dev)
    expected = [len(u) / 3.0 * float(d @ s_inv @ d) for d in dev]
    assert np.allclose(rep.values, expected, rtol=1e-10)


def test_discordancy_flags_outlier_site():
    region = homogeneous_region(10, seed=3)
    # replace one site with wildly different ratio structure
    rng = np.random.default_rng(9)
    weird = 5.0 + rng.beta(0.2, 5.0, size=74) * 40.0
    sites = list(region.sites)
    sites[4] = RegionSite(meta_for("S4"), make_pot(weird, 5.0, 37.0, station="S4"))
    rep = discordancy(Region(tuple(sites), "S0"))
    assert "S4" in rep.flagged


def test_discordancy_critical_values_table():
    assert discordancy_critical_value(5) == 1.333
    assert discordancy_critical_value(10) == 2.491
    assert discordancy_critical_value(14) == 2.971
    assert discordancy_critical_value(15) == 3.0
    assert discordancy_critical_value(40) == 3.0


def test_discordancy_singular_matrix_names_sites():
    base = gp_sample(GpParams(5.0, 3.0, 0.1), 50, seed=1)
    # identical ratios: sites are scaled copies of one another
    samples = [base, 2.0 * base, 3.0 * base, 4.0 * base, 5.0 * base]
    sites = []
    for i, peaks in enumerate(samples):
        code = f"S{i}"
        sites.append(
            RegionSite(meta_for(code), make_pot(peaks, 0.0, 25.0, station=code))
        )
    with pytest.raises(DegenerateSampleError) as err:
        discordancy(Region(tuple(sites), "S0"))
    assert "S0" in str(err.value)


def test_discordancy_needs_enough_sites():
    with pytest.raises(InputError):
        discordancy(homogeneous_region(3))


def test_heterogeneity_homogeneous_region():
    region = homogeneous_region(10, n_events=74, seed=7)
    rep = heterogeneity(region, nsim=300, seed=11)
    assert rep.h1 < 2.0
    assert rep.parent == "kappa"
    assert rep.nsim == 300
    assert rep.classification == classify_h1(rep.h1)
    assert len(rep.v_observed) == 3 and all(v > 0 for v in rep.v_observed)


def test_heterogeneity_detects_heterogeneous_region():
    rng = np.random.default_rng(23)
    sites = []
    # population L-CV spans a factor of 2 across sites via the location term
    l2 = 1.0 / (0.9 * 1.9)
    for i, t_pop in enumerate(np.linspace(0.2, 0.4, 14)):
        params = GpParams(l2 / t_pop - 1.0 / 0.9, 1.0, 0.1)
        code = f"S{i}"
        sites.append(
            RegionSite(
                meta_for(code),
                make_pot(gp_sample(params, 60, rng), 0.1, 30.0, station=code),
            )
        )
    rep = heterogeneity(Region(tuple(sites), "S0"), nsim=300, seed=5)
    assert rep.h1 > 2.0
    assert rep.classification == "definitively heterogeneous"


def test_heterogeneity_correlated_sites_note():
    base = gp_sample(GpParams(5.0, 3.0, 0.1), 74, seed=31)
    rng = np.random.default_rng(32)
    sites = []
    for i in range(8):
        # nearly identical records: inter-site dispersion collapses
        peaks = base + rng.normal(0.0, 1e-3, size=base.size)
        peaks = np.maximum(peaks, 5.0 + 1e-6)
        code = f"S{i}"
        sites.append(
            RegionSite(meta_for(code), make_pot(peaks, 5.0, 37.0, station=code))
        )
    rep = heterogeneity(Region(tuple(sites), "S0"), nsim=200, seed=2)
    assert rep.h1 <= 0.0
    assert rep.correlation_note


def test_heterogeneity_deterministic_in_seed():
    region = homogeneous_region(6, seed=13)
    a = heterogeneity(region, nsim=100, seed=4)
    b = heterogeneity(region, nsim=100, seed=4)
    c = heterogeneity(region, nsim=100, seed=5)
    assert a == b
    assert a.h1 != c.h1
    with pytest.raises(InputError):
        heterogeneity(region, nsim=10, seed=0)


def test_heterogeneity_takes_each_sites_lmoments_once(lmoment_calls):
    region = homogeneous_region(6, seed=13)
    heterogeneity(region, nsim=60, seed=0)
    assert lmoment_calls == [len(s.pot) for s in region.sites]


@pytest.mark.parametrize(
    "parent, kind, draw",
    [
        (KappaParams(0.2, 0.7, -0.1, 0.3), "kappa", kappa_sample),
        (GpParams(0.1, 0.9, 0.15), "gp", gp_sample),
    ],
)
def test_sim_ratio_table_rows_are_sample_lmoments(parent, kind, draw):
    # simulated and observed ratios come from one estimator, bit for bit
    lengths = np.array([4.0, 5.0, 137.0])
    nsim = 100
    table = _sim_ratio_table(parent, kind, lengths, nsim, np.random.default_rng(8))
    rng = np.random.default_rng(8)
    for i, n in enumerate(lengths.astype(int)):
        x = np.sort(draw(parent, nsim * n, rng).reshape(nsim, n), axis=1)
        for r in range(nsim):
            lm = sample_lmoments(x[r])
            assert (lm.t, lm.t3, lm.t4) == tuple(table[r, i])


def test_fit_simulation_parent_fallback():
    params, kind = fit_simulation_parent(LmomentSet(1.0, 0.3, 0.3, 0.2, 0.16))
    assert kind == "kappa"
    # above the kappa-attainable boundary: falls back to GP
    params, kind = fit_simulation_parent(LmomentSet(1.0, 0.3, 0.3, 0.2, 0.5))
    assert kind == "gp"
    assert isinstance(params, GpParams)


def test_growth_curve_recovers_dimensionless_parent():
    curve_params = GpParams(0.8, 0.45, 0.12)  # roughly unit one-year level
    rng = np.random.default_rng(41)
    sites = []
    index = {}
    for i in range(10):
        c = float(rng.uniform(2.0, 60.0))
        code = f"S{i}"
        site_params = gp_rescale(curve_params, c)
        peaks = gp_sample(site_params, 600, rng)
        sites.append(
            RegionSite(
                meta_for(code), make_pot(peaks, site_params.location, 300.0, station=code)
            )
        )
        index[code] = c
    region = Region(tuple(sites), "S0")
    curve = growth_curve(region, rescale="mean")
    pop_ratio = 0.45 / (0.8 + 0.45 / 0.88)  # population t of the parent
    assert curve.params.shape == pytest.approx(0.12, abs=0.05)
    assert curve.members == region.codes
    # dimensionless: the fitted curve's mean is 1 by construction
    from regflood.lmoments import gp_population_lmoments

    assert gp_population_lmoments(curve.params).l1 == pytest.approx(1.0, rel=1e-9)
    assert curve.params.scale / (1.0 - curve.params.shape) == pytest.approx(
        pop_ratio, abs=0.05
    )


def test_growth_curve_index_rescale_normalizes_one_year_level():
    curve_params = GpParams(0.8, 0.45, 0.12)
    rng = np.random.default_rng(43)
    sites = []
    for i in range(8):
        c = float(rng.uniform(2.0, 40.0))
        code = f"S{i}"
        site_params = gp_rescale(curve_params, c)
        peaks = gp_sample(site_params, 1000, rng)
        sites.append(
            RegionSite(
                meta_for(code), make_pot(peaks, site_params.location, 500.0, station=code)
            )
        )
    region = Region(tuple(sites), "S0")
    curve = growth_curve(region, rescale="index")
    # rate 2/yr: the curve's median should sit near 1
    assert float(gp_quantile(curve.params, 0.5)) == pytest.approx(1.0, abs=0.05)
    assert set(curve.index_floods) == set(region.codes)


def test_growth_curve_exclude_target():
    region = homogeneous_region(6, seed=17)
    curve = growth_curve(region, exclude="S0", rescale="mean")
    assert "S0" not in curve.members
    assert len(curve.members) == 5
    with pytest.raises(InputError):
        growth_curve(region, rescale="median")


def test_index_flood_quantile_scaling_identity():
    region = homogeneous_region(5, seed=19)
    curve = growth_curve(region, rescale="mean")
    q = index_flood_quantile(curve, 25.0, 0.95)
    assert q == pytest.approx(25.0 * float(gp_quantile(curve.params, 0.95)), rel=1e-14)
    assert q == pytest.approx(
        float(gp_quantile(gp_rescale(curve.params, 25.0), 0.95)), rel=1e-12
    )
    with pytest.raises(InputError):
        index_flood_quantile(curve, -1.0, 0.95)


def test_heterogeneity_insufficient_site_data():
    region = make_region([[6.0, 7.0, 8.0], [6.5, 7.5, 8.5, 9.0]])
    with pytest.raises(InsufficientDataError):
        heterogeneity(region, nsim=60, seed=0)
