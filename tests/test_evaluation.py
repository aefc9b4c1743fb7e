import math

import numpy as np
import pytest

from regflood.bayes import McmcConfig
from regflood.distributions import GpParams, gp_quantile, gp_sample
from regflood.errors import InputError
from regflood.evaluation import (
    EvalConfig,
    RegionTruth,
    SynthSpec,
    benchmark_pot,
    nbias_nrmse,
    rank_scores,
    run_experiment,
    synth_daily_series,
    synth_region,
    truncate_pot,
)
from regflood.fit import gp_fit_mle, gp_fit_pwm, return_level
from regflood.pot import extract_pot, select_threshold
from regflood.regional import heterogeneity

from conftest import make_pot


# -------------------------------------------------------------- truncation


def test_truncate_pot_windows():
    pot = make_pot(np.linspace(5.0, 8.0, 74), 5.0, 37.0)
    short = truncate_pot(pot, 5, "first")
    assert short.record_years == 5.0
    assert short.peaks.size > 0
    assert np.all(np.isin(short.peaks, pot.peaks))
    assert short.times[-1] - pot.times[0] < np.timedelta64(6 * 366, "D")
    tail = truncate_pot(pot, 5, "last")
    assert pot.times[-1] - tail.times[0] < np.timedelta64(6 * 366, "D")
    # nesting: a longer window keeps everything the shorter one kept
    longer = truncate_pot(pot, 10, "first")
    assert set(short.peaks).issubset(set(longer.peaks))


def test_truncate_pot_identity_and_errors():
    pot = make_pot(np.linspace(5.0, 8.0, 74), 5.0, 37.0)
    same = truncate_pot(pot, 37.0, "first")
    assert same.peaks.size == pot.peaks.size
    with pytest.raises(InputError):
        truncate_pot(pot, 38, "first")
    with pytest.raises(InputError):
        truncate_pot(pot, 30, "first", offset_years=10.0)


def test_truncate_pot_sliding_offsets_cover_record():
    pot = make_pot(np.linspace(5.0, 8.0, 74), 5.0, 37.0)
    seen = set()
    for off in range(0, 33):
        win = truncate_pot(pot, 5, "first", offset_years=float(off))
        seen.update(win.peaks.tolist())
    assert len(seen) == pot.peaks.size


# -------------------------------------------------------------- benchmark


def test_benchmark_pot_basic():
    pot = make_pot(gp_sample(GpParams(5.0, 2.0, 0.1), 74, seed=1), 5.0, 37.0)
    entries = benchmark_pot(pot, (2.0, 10.0, 20.0, 50.0))
    for e in entries:
        assert e.lower < e.value < e.upper
    assert [e.value for e in entries] == sorted(e.value for e in entries)
    assert [e.reliable for e in entries] == [True, True, True, False]


def test_benchmark_pot_reuses_the_callers_fit(fit_calls):
    pot = make_pot(gp_sample(GpParams(5.0, 3.0, 0.1), 74, seed=5), 5.0, 37.0)
    periods = (2.0, 10.0, 20.0)
    fitted_here = benchmark_pot(pot, periods)
    assert len(fit_calls) == 1  # the levels and every interval share one fit
    fit = gp_fit_mle(pot)
    del fit_calls[:]
    assert benchmark_pot(pot, periods, fit=fit) == fitted_here
    assert fit_calls == []
    with pytest.raises(InputError):
        benchmark_pot(pot, periods, fit=gp_fit_pwm(pot))


def test_benchmark_covers_truth():
    truth = GpParams(5.0, 2.0, 0.1)
    q10_true = return_level(truth, 2.0, 10.0)
    hits = 0
    reps = 40
    for rep in range(reps):
        peaks = gp_sample(truth, 74, seed=300 + rep)
        entries = benchmark_pot(make_pot(peaks, 5.0, 37.0), (10.0,))
        if entries[0].lower <= q10_true <= entries[0].upper:
            hits += 1
    assert hits >= 0.75 * reps


# ----------------------------------------------------------------- indices


def test_nbias_nrmse_examples():
    q = 7.0
    assert nbias_nrmse([q, q, q], q) == (0.0, 0.0)
    nb, nr = nbias_nrmse([1.1 * q, 0.9 * q], q)
    assert nb == pytest.approx(0.0, abs=1e-15)
    assert nr == pytest.approx(0.1, rel=1e-12)
    assert nbias_nrmse([1.2 * q], q) == (
        pytest.approx(0.2, rel=1e-12),
        pytest.approx(0.2, rel=1e-12),
    )
    with pytest.raises(InputError):
        nbias_nrmse([1.0], 0.0)
    with pytest.raises(InputError):
        nbias_nrmse([], 1.0)


def test_nrmse_dominates_bias():
    rng = np.random.default_rng(5)
    for _ in range(30):
        est = rng.uniform(0.5, 1.5, rng.integers(1, 12))
        nb, nr = nbias_nrmse(est, 1.0)
        assert nr >= abs(nb) - 1e-15


def test_rank_scores_endpoints():
    table = {
        "A": [1.0, 1.0, 1.0],
        "B": [2.0, 2.0, 2.0],
        "C": [3.0, 3.0, 3.0],
    }
    scores = rank_scores(table)
    assert scores["A"].r_s == 1.0
    assert scores["C"].r_s == 0.0
    assert scores["A"].r_o == 3.0
    assert scores["C"].r_o == 9.0


def test_rank_scores_hand_case_with_ties():
    table = {
        "A": [0.1, 1.0],
        "B": [-0.1, 2.0],
        "C": [0.3, 3.0],
    }
    scores = rank_scores(table, absolute=[True, False])
    assert scores["A"].r_o == pytest.approx(2.5)
    assert scores["B"].r_o == pytest.approx(3.5)
    assert scores["A"].r_s == pytest.approx(0.875)
    assert scores["B"].r_s == pytest.approx(0.625)
    assert scores["C"].r_s == pytest.approx(0.0)


def test_rank_scores_monotone_invariance():
    rng = np.random.default_rng(9)
    table = {f"M{i}": list(rng.uniform(-1, 1, 4)) for i in range(5)}
    flags = [True, False, False, True]
    base = rank_scores(table, absolute=flags)
    warped = {
        m: [v * 3.7, math.exp(vals[1]), vals[2] ** 3, v2 * 0.5]
        for m, vals in table.items()
        for v, v2 in [(vals[0], vals[3])]
    }
    again = rank_scores(warped, absolute=flags)
    for m in table:
        assert again[m].r_s == pytest.approx(base[m].r_s)


def test_rank_scores_missing_value_shrinks_field():
    table = {
        "A": [math.nan, 1.0],
        "B": [1.0, 2.0],
        "C": [2.0, 3.0],
    }
    scores = rank_scores(table)
    # A is ranked only where present, best of three in the second criterion
    assert scores["A"].r_o == 1.0
    assert scores["A"].r_s == 1.0
    # B: rank 1 of 2 in the first, 2 of 3 in the second
    assert scores["B"].r_o == 3.0
    assert scores["B"].r_s == pytest.approx((5.0 - 3.0) / 3.0)


def test_rank_scores_input_contract():
    with pytest.raises(InputError):
        rank_scores({"A": [1.0]})
    with pytest.raises(InputError):
        rank_scores({"A": [1.0], "B": [1.0, 2.0]})
    with pytest.raises(InputError):
        rank_scores({"A": [1.0], "B": [2.0]}, absolute=[True, False])


# ---------------------------------------------------------- synthetic data


def test_synth_region_deterministic():
    spec = SynthSpec(n_sites=6, years=20.0)
    a, _ = synth_region(spec, seed=11)
    b, _ = synth_region(spec, seed=11)
    for sa, sb in zip(a.sites, b.sites):
        assert np.array_equal(sa.pot.peaks, sb.pot.peaks)
        assert sa.meta == sb.meta
    c, _ = synth_region(spec, seed=12)
    assert not np.array_equal(a.sites[0].pot.peaks, c.sites[0].pot.peaks)


def test_synth_region_truth_is_consistent():
    spec = SynthSpec(n_sites=8, years=25.0, rate=2.0)
    region, truth = synth_region(spec, seed=2)
    assert len(region.sites) == 8
    for site in region.sites:
        params = truth.site_params[site.meta.code]
        assert site.pot.threshold == params.location
        assert site.pot.peaks.size == round(spec.rate * 25.0)
        assert 30.0 <= site.meta.area_km2 <= 800.0
        want = gp_quantile(params, 1.0 - 1.0 / spec.rate)
        assert truth.index_floods[site.meta.code] == pytest.approx(want)
        assert params.shape == spec.curve.shape


def test_synth_region_homogeneous_vs_dispersed():
    flat = SynthSpec(n_sites=14, years=30.0, lcv_dispersion=1.0)
    region, _ = synth_region(flat, seed=3)
    rep = heterogeneity(region, nsim=200, seed=1)
    assert rep.h1 < 2.0

    spread = SynthSpec(n_sites=14, years=30.0, lcv_dispersion=2.0)
    region2, truth2 = synth_region(spread, seed=3)
    rep2 = heterogeneity(region2, nsim=200, seed=1)
    assert rep2.h1 > 2.0
    # the knob really spreads the population L-CVs by the factor
    params = list(truth2.site_params.values())
    ts = []
    for p in params:
        l1 = p.location + p.scale / (1.0 - p.shape)
        l2 = p.scale / ((1.0 - p.shape) * (2.0 - p.shape))
        ts.append(l2 / l1)
    assert max(ts) / min(ts) == pytest.approx(2.0, rel=1e-9)


def test_synth_region_validation():
    with pytest.raises(InputError):
        SynthSpec(n_sites=1)
    with pytest.raises(InputError):
        SynthSpec(lcv_dispersion=0.5)
    with pytest.raises(InputError):
        SynthSpec(areas=(10.0, 20.0), n_sites=3)
    with pytest.raises(InputError):
        SynthSpec(years=1.0)


def test_synth_daily_series_recovers_events():
    params = GpParams(10.0, 4.0, 0.1)
    series = synth_daily_series(params, rate=2.0, years=30.0, seed=7)
    pot = extract_pot(series, params.location)
    assert 1.6 <= pot.rate <= 2.4
    assert np.all(pot.peaks >= params.location)
    sel = select_threshold(series, 2.0)
    assert 1.6 <= (extract_pot(series, sel.threshold).rate) <= 2.4


# --------------------------------------------------------------- experiment


def fixed_region_spec():
    return SynthSpec(n_sites=8, years=37.0, rate=2.0)


def nan_equal(a, b):
    return np.array_equal(np.asarray(a, dtype=float), np.asarray(b, dtype=float), equal_nan=True)


def test_run_experiment_requires_one_source():
    cfg = EvalConfig(models=("MLE",))
    region, _ = synth_region(fixed_region_spec(), seed=1)
    with pytest.raises(InputError):
        run_experiment(cfg)
    with pytest.raises(InputError):
        run_experiment(cfg, region=region, synth=fixed_region_spec())


def test_run_experiment_fixed_region_local_models():
    region, _ = synth_region(fixed_region_spec(), seed=5)
    cfg = EvalConfig(
        lengths=(10, 20),
        models=("MLE", "PWU", "PWB"),
        return_periods=(2.0, 5.0, 10.0),
        rank_periods=(5.0, 10.0),
    )
    report = run_experiment(cfg, region=region)
    assert report.models == ("MLE", "PWU", "PWB")
    for i in range(3):
        for j in range(3):
            assert report.k[i][j] == 2
            assert report.nrmse[i][j] >= abs(report.nbias[i][j]) - 1e-15
    assert len(report.benchmark) == 3
    assert all(e.lower < e.value < e.upper for e in report.benchmark)
    for s in report.r_s:
        assert 0.0 <= s <= 1.0


def test_run_experiment_deterministic():
    cfg = EvalConfig(
        lengths=(5,),
        models=("MLE", "PWU"),
        replicates=2,
        seed=9,
        rank_periods=(5.0, 10.0),
    )
    spec = fixed_region_spec()
    a = run_experiment(cfg, synth=spec)
    b = run_experiment(cfg, synth=spec)
    assert nan_equal(a.nbias, b.nbias)
    assert nan_equal(a.nrmse, b.nrmse)
    assert a.k == b.k and a.r_s == b.r_s and a.benchmark == b.benchmark


def test_run_experiment_single_model_has_no_scores():
    region, _ = synth_region(fixed_region_spec(), seed=5)
    cfg = EvalConfig(lengths=(20,), models=("MLE",), rank_periods=(5.0,))
    report = run_experiment(cfg, region=region)
    assert math.isnan(report.r_s[0])
    assert report.k[0][0] == 1


def test_run_experiment_sliding_multiplies_cells():
    region, _ = synth_region(fixed_region_spec(), seed=5)
    cfg = EvalConfig(
        lengths=(30,),
        models=("MLE", "PWU"),
        sliding=True,
        rank_periods=(5.0,),
    )
    report = run_experiment(cfg, region=region)
    assert report.k[0][0] == 8  # offsets 0..7 on a 37-year record


def test_run_experiment_with_regional_and_bayes():
    cfg = EvalConfig(
        lengths=(10,),
        models=("MLE", "REG", "BAY"),
        replicates=1,
        seed=3,
        rank_periods=(5.0, 10.0),
        mcmc=McmcConfig(chains=2, iterations=1500, burn_in=500),
    )
    report = run_experiment(cfg, synth=SynthSpec(n_sites=10, years=37.0))
    for i, name in enumerate(report.models):
        for j in range(len(report.periods)):
            assert report.k[i][j] == 1, (name, report.missing)
            assert math.isfinite(report.nbias[i][j])
    assert report.missing == ()


def test_run_experiment_fits_each_site_once(fit_calls):
    spec = SynthSpec(n_sites=14, years=37.0, rate=2.0)
    region, _ = synth_region(spec, seed=0)
    cfg = EvalConfig(lengths=(5,), mcmc=McmcConfig(chains=2, iterations=1000, burn_in=250))
    report = run_experiment(cfg, region=region)
    # the full target record (shared by the benchmark and its profile
    # intervals), 13 donors, one truncated window shared by MLE and REG
    assert len(fit_calls) == 15, report.missing
    assert fit_calls.count("S0") == 2
    assert sorted(set(fit_calls) - {"S0"}) == sorted(f"S{i}" for i in range(1, 14))


def test_eval_config_validation():
    with pytest.raises(InputError):
        EvalConfig(replicates=0)
    with pytest.raises(InputError):
        EvalConfig(models=("MLE", "XXX"))
    with pytest.raises(InputError):
        EvalConfig(rank_periods=(7.0,))
    with pytest.raises(InputError):
        EvalConfig(lengths=())
    with pytest.raises(InputError):
        EvalConfig(anchor="center")
