import dataclasses
import json
import logging
import math
import os
import re
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import gaussian_kde, lognorm, norm

import regflood
from regflood import cli
from regflood.bayes import McmcConfig, PriorSpec
from regflood.cli import main
from regflood.distributions import GpParams
from regflood.evaluation import EvalConfig, run_experiment, synth_daily_series
from regflood.fit import gp_fit_pwm, quantile_variance
from regflood.fileio import (
    RegionConfig,
    SiteEntry,
    build_region,
    eval_report_payload,
    load_region_config,
    read_json,
    read_pot_json,
    read_prior_json,
    read_truth_json,
    write_metadata_csv,
    write_pot_json,
    write_region_config,
    write_series_csv,
)
from regflood.indexflood import StationMeta
from regflood.pot import DischargeSeries, PotSeries


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    """One synthetic 6-site region shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("sim")
    out = root / "region"
    code = main(
        ["simulate", str(out), "--sites", "6", "--years", "18", "--seed", "42"]
    )
    assert code == 0
    return out


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ simulate


def test_simulate_writes_complete_region(sim_dir):
    names = {p.name for p in sim_dir.iterdir()}
    assert {"metadata.csv", "region.yaml", "truth.json"} <= names
    assert {f"S{i}.csv" for i in range(6)} <= names
    config = load_region_config(sim_dir / "region.yaml")
    assert config.target == "S0"
    assert config.target_rate == 2.0
    truth = read_truth_json(sim_dir / "truth.json")
    assert set(truth.site_params) == {f"S{i}" for i in range(6)}
    assert all(v > 0 for v in truth.index_floods.values())


def test_simulate_deterministic(tmp_path, capsys):
    for name in ("a", "b"):
        code, _, _ = run(capsys, [
            "simulate", str(tmp_path / name), "--sites", "4", "--years", "12",
            "--seed", "9",
        ])
        assert code == 0
    for f in sorted((tmp_path / "a").iterdir()):
        assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()


def test_simulate_one_site_rejected(tmp_path, capsys):
    code, _, err = run(capsys, ["simulate", str(tmp_path / "x"), "--sites", "1"])
    assert code == 1
    assert "2 sites" in err


@pytest.mark.parametrize("flag,value", [
    ("--years", "nan"),
    ("--years", "inf"),
    ("--rate", "nan"),
    ("--rate", "inf"),
    ("--lcv-dispersion", "inf"),
])
def test_simulate_non_finite_spec_is_input_error(tmp_path, capsys, flag, value):
    code, _, err = run(capsys, ["simulate", str(tmp_path / "x"), flag, value])
    assert code == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_simulate_bad_dispersion_rejected(tmp_path, capsys):
    code, _, err = run(
        capsys,
        ["simulate", str(tmp_path / "x"), "--lcv-dispersion", "0.5"],
    )
    assert code == 1
    assert "lcv-dispersion" in err


# ------------------------------------------------------------------- extract


def test_extract_reports_rate_near_target(sim_dir, tmp_path, capsys):
    out = tmp_path / "S0.pot.json"
    code, stdout, _ = run(capsys, [
        "extract", str(sim_dir / "S0.csv"), "--target-rate", "2", "--out", str(out),
    ])
    assert code == 0
    m = re.search(r"rate (\d+\.\d+) per year", stdout)
    assert m, stdout
    assert 1.6 <= float(m.group(1)) <= 2.4
    pot = read_pot_json(out)
    assert pot.station == "S0"
    assert 1.6 <= pot.rate <= 2.4


def test_extract_idempotent(sim_dir, tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        code, _, _ = run(capsys, [
            "extract", str(sim_dir / "S1.csv"), "--target-rate", "2",
            "--out", str(out),
        ])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_extract_explicit_threshold(sim_dir, tmp_path, capsys):
    truth = read_truth_json(sim_dir / "truth.json")
    thr = truth.site_params["S2"].location
    out = tmp_path / "S2.pot.json"
    code, _, _ = run(capsys, [
        "extract", str(sim_dir / "S2.csv"), "--threshold", str(thr), "--out", str(out),
    ])
    assert code == 0
    assert read_pot_json(out).threshold == thr


def test_extract_malformed_row_names_index(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text(
        "datetime,discharge_m3s\n"
        "1970-01-01T00:00:00,1.0\n"
        "1970-01-02T00:00:00,2.0\n"
        "1970/01/03,3.0\n"
    )
    code, _, err = run(capsys, ["extract", str(path), "--threshold", "0.5"])
    assert code == 1
    assert "row 3" in err


def test_extract_needs_exactly_one_threshold_flag(sim_dir, capsys):
    code, _, err = run(capsys, ["extract", str(sim_dir / "S0.csv")])
    assert code == 1
    code, _, err = run(capsys, [
        "extract", str(sim_dir / "S0.csv"), "--threshold", "1", "--target-rate", "2",
    ])
    assert code == 1


def test_missing_file_is_input_error(tmp_path, capsys):
    code, _, err = run(capsys, ["extract", str(tmp_path / "nope.csv"), "--threshold", "1"])
    assert code == 1


# ----------------------------------------------------------------------- fit


@pytest.fixture(scope="module")
def pot_file(sim_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("pot") / "S0.pot.json"
    assert main(["extract", str(sim_dir / "S0.csv"), "--target-rate", "2", "--out", str(out)]) == 0
    return out


def test_fit_mle_profile_table(pot_file, tmp_path, capsys):
    out = tmp_path / "fit.json"
    code, stdout, _ = run(capsys, ["fit", str(pot_file), "--method", "mle", "--out", str(out)])
    assert code == 0
    assert "profile confidence intervals" in stdout
    # one bracketed interval per requested period
    assert len(re.findall(r"\[\s*-?\d+\.\d,\s*-?\d+\.\d\]", stdout)) == 4
    obj = read_json(out, "fit-report")
    assert obj["method"] == "mle"
    assert obj["ci_kind"] == "profile"
    assert obj["boundary"] is False
    assert [q["period_years"] for q in obj["quantiles"]] == [2.0, 5.0, 10.0, 20.0]
    for q in obj["quantiles"]:
        assert q["lower"] < q["value"] < q["upper"]


def test_fit_mle_fits_the_record_once(pot_file, tmp_path, capsys, fit_calls):
    code, _, _ = run(capsys, ["fit", str(pot_file), "--out", str(tmp_path / "fit.json")])
    assert code == 0
    assert len(fit_calls) == 1


def test_fit_report_marks_a_shape_bound_fit(tmp_path, capsys):
    peaks = np.linspace(1.0, 10.0, 12)
    times = np.datetime64("1970-01-01T00:00:00", "s") + np.arange(12) * np.timedelta64(150, "D")
    pot_path, out = tmp_path / "short.pot.json", tmp_path / "fit.json"
    write_pot_json(pot_path, PotSeries("S9", 0.0, times, peaks, 6.0))
    code, _, _ = run(capsys, ["fit", str(pot_path), "--out", str(out)])
    assert code == 0
    obj = read_json(out, "fit-report")
    assert obj["boundary"] is True
    assert obj["params"]["shape"] == -0.99
    assert obj["covariance"] is None


def test_fit_pwm_flags_asymptotic(pot_file, tmp_path, capsys):
    out = tmp_path / "fit.json"
    code, stdout, _ = run(capsys, ["fit", str(pot_file), "--method", "pwu", "--out", str(out)])
    assert code == 0
    assert "asymptotic" in stdout
    assert "profile" not in stdout
    assert read_json(out, "fit-report")["ci_kind"] == "asymptotic"


@pytest.mark.parametrize("level", [0.5, 0.8, 0.9, 0.95, 0.99])
def test_asymptotic_intervals_use_the_normal_quantile(pot_file, level):
    pot = read_pot_json(pot_file)
    fit = gp_fit_pwm(pot)
    z = float(norm.ppf(0.5 + level / 2.0))
    for period, value, lower, upper in cli._fit_quantiles(pot, fit, [10.0, 50.0], level, "asymptotic"):
        half = z * math.sqrt(quantile_variance(fit, pot.rate, period))
        assert (lower, upper) == (value - half, value + half)


def test_fit_unknown_method_usage_error(pot_file, capsys):
    code, _, err = run(capsys, ["fit", str(pot_file), "--method", "mm"])
    assert code == 1
    assert "mle" in err


def test_fit_custom_periods(pot_file, tmp_path, capsys):
    out = tmp_path / "fit.json"
    code, _, _ = run(capsys, [
        "fit", str(pot_file), "--return-periods", "3,30", "--out", str(out),
    ])
    assert code == 0
    obj = read_json(out, "fit-report")
    assert [q["period_years"] for q in obj["quantiles"]] == [3.0, 30.0]


@pytest.mark.parametrize("method", ["pwu", "pwb"])
def test_fit_pwm_report_when_a_peak_is_off_the_support(tmp_path, capsys, caplog, method):
    # the README's S0 record: its PWM fit's upper endpoint lies below 3 of
    # its 51 peaks, so the log likelihood is -inf, is written as null and
    # the fit logs a WARNING
    region, pot_path, out = tmp_path / "region", tmp_path / "S0.pot.json", tmp_path / "fit.json"
    assert main(["simulate", str(region), "--sites", "6", "--years", "25", "--seed", "11"]) == 0
    assert main(["extract", str(region / "S0.csv"), "--target-rate", "2", "--out", str(pot_path)]) == 0
    pot = read_pot_json(pot_path)
    fit = cli._FIT_METHODS[method](pot)
    assert fit.loglik == -math.inf
    assert np.count_nonzero(pot.peaks > fit.params.upper_endpoint) == 3
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="regflood"):
        code, _, _ = run(capsys, ["fit", str(pot_path), "--method", method, "--out", str(out)])
    assert code == 0
    assert [(r.levelno, r.getMessage()) for r in caplog.records if r.name == "regflood"] == [(
        logging.WARNING,
        "PWM fit of 51 events at station S0 puts 3 of them beyond its upper "
        "endpoint; its likelihood is not usable",
    )]
    obj = read_json(out, "fit-report")
    assert obj["method"] == method
    assert obj["loglik"] is None


# -------------------------------------------------------------------- region


def test_region_homogeneous_classification(sim_dir, tmp_path, capsys):
    out = tmp_path / "curve.json"
    code, stdout, _ = run(capsys, [
        "region", str(sim_dir / "region.yaml"), "--nsim", "200", "--seed", "3",
        "--out", str(out),
    ])
    assert code == 0
    assert "discordancy" in stdout
    assert stdout.count("S") >= 6
    assert "classification: acceptably homogeneous" in stdout
    obj = read_json(out, "growth-curve")
    assert len(obj["members"]) == 6


def test_region_check_does_not_write_curve(sim_dir, tmp_path, capsys):
    out = tmp_path / "curve.json"
    code, stdout, _ = run(capsys, [
        "region", str(sim_dir / "region.yaml"), "--check", "--nsim", "150",
        "--out", str(out),
    ])
    assert code == 0
    assert not out.exists()
    assert "H1 =" in stdout


def test_region_growth_curve_only(sim_dir, tmp_path, capsys):
    out = tmp_path / "curve.json"
    code, stdout, _ = run(capsys, [
        "region", str(sim_dir / "region.yaml"), "--growth-curve", "--out", str(out),
    ])
    assert code == 0
    assert out.exists()
    assert "heterogeneity" not in stdout


def test_region_low_nsim_warns(sim_dir, tmp_path, caplog, capsys):
    with caplog.at_level(logging.WARNING, logger="regflood"):
        code, _, _ = run(capsys, [
            "region", str(sim_dir / "region.yaml"), "--check", "--nsim", "50",
        ])
    assert code == 0
    assert any("below minimum recommended (100)" in r.message for r in caplog.records)


def test_region_bad_nsim_fails_before_reading(sim_dir, capsys, monkeypatch):
    monkeypatch.setattr(cli, "load_region_config", must_not_run)
    monkeypatch.setattr(cli, "build_region", must_not_run)
    code, out, err = run(capsys, ["region", str(sim_dir / "region.yaml"), "--nsim", "-3"])
    assert code == 1
    assert out == ""
    assert "nsim must be at least 50, got -3" in err


@pytest.mark.parametrize("value", ["abc", "[1, 2]", "true"])
def test_region_config_target_rate_must_be_a_number(sim_dir, tmp_path, capsys, value):
    region = shutil.copytree(sim_dir, tmp_path / "region")
    config = region / "region.yaml"
    text = config.read_text()
    assert "  target_rate: 2.0\n" in text
    config.write_text(text.replace("  target_rate: 2.0\n", f"  target_rate: {value}\n"))
    code, _, err = run(capsys, ["region", str(config), "--check", "--nsim", "150"])
    assert code == 1
    assert err.startswith("error: region.yaml: target_rate must be a number")


def correlated_region(tmp_path, noise_sd):
    """Four sites that are (noisy) scaled copies of one daily record."""
    base = synth_daily_series(GpParams(10.0, 5.0, 0.1), rate=2.0, years=15.0, seed=9)
    rng = np.random.default_rng(5)
    metas, entries = [], []
    for i, factor in enumerate((1.0, 2.0, 3.5, 5.0)):
        code = f"S{i}"
        q = base.discharge * factor
        if noise_sd > 0:
            q = q * np.exp(rng.normal(0.0, noise_sd, q.size))
        series = DischargeSeries(code, base.times, q)
        write_series_csv(tmp_path / f"{code}.csv", series)
        metas.append(StationMeta(code, code, 40.0 * (i + 1), 0.0, 0.0, 1970, 1985))
        entries.append(
            SiteEntry(code, tmp_path / "metadata.csv", tmp_path / f"{code}.csv")
        )
    write_metadata_csv(tmp_path / "metadata.csv", metas)
    config = RegionConfig(target="S0", sites=tuple(entries), target_rate=2.0)
    write_region_config(tmp_path / "region.yaml", config)
    return tmp_path / "region.yaml"


def test_region_scaled_copies_singular_discordancy(tmp_path, capsys):
    cfg = correlated_region(tmp_path, noise_sd=0.0)
    code, _, err = run(capsys, ["region", str(cfg), "--check", "--nsim", "150"])
    assert code == 1
    assert "near-identical" in err
    assert "S0" in err


def test_region_correlated_sites_note(tmp_path, capsys):
    cfg = correlated_region(tmp_path, noise_sd=0.002)
    code, stdout, _ = run(capsys, [
        "region", str(cfg), "--check", "--nsim", "200", "--seed", "2",
    ])
    assert code == 0
    m = re.search(r"H1 = (-?\d+\.\d+)", stdout)
    assert m and float(m.group(1)) <= 0.0
    assert "correlations between sites" in stdout


# --------------------------------------------------------------------- bayes


def bayes_argv(sim_dir, tmp_path, *extra):
    return [
        "bayes", str(sim_dir / "region.yaml"),
        "--chains", "2", "--iters", "3000", "--seed", "7",
        "--prior-out", str(tmp_path / "prior.json"),
        "--posterior-out", str(tmp_path / "post.json"),
        *extra,
    ]


def test_bayes_outputs(sim_dir, tmp_path, capsys):
    code, stdout, _ = run(capsys, bayes_argv(sim_dir, tmp_path))
    assert code == 0
    prior = read_prior_json(tmp_path / "prior.json")
    assert prior.provenance.target == "S0"
    assert "S0" not in prior.provenance.sites
    assert len(prior.provenance.sites) == 5
    post = read_json(tmp_path / "post.json", "posterior-report")
    assert post["chains"] == 2 and post["iterations"] == 3000
    assert post["retained_draws"] >= 500
    assert len(post["quantiles"]) == 4
    for q in post["quantiles"]:
        assert q["lower"] < q["value"] < q["upper"]
    assert "credible intervals" in stdout
    assert (tmp_path / "post_density.csv").exists()
    assert (tmp_path / "post_curve.csv").exists()


def test_bayes_frequency_curve_monotone(sim_dir, tmp_path, capsys):
    code, _, _ = run(capsys, bayes_argv(sim_dir, tmp_path))
    assert code == 0
    rows = (tmp_path / "post_curve.csv").read_text().splitlines()[1:]
    data = np.array([[float(v) for v in r.split(",")] for r in rows])
    assert data.shape[0] >= 50
    assert np.all(np.diff(data[:, 0]) > 0)
    assert np.all(np.diff(data[:, 1]) >= 0)  # median level never drops with T
    assert np.all(data[:, 2] <= data[:, 1]) and np.all(data[:, 1] <= data[:, 3])


def test_bayes_density_grid_covers_posterior(sim_dir, tmp_path, capsys):
    code, _, _ = run(capsys, bayes_argv(sim_dir, tmp_path))
    assert code == 0
    lines = (tmp_path / "post_density.csv").read_text().splitlines()
    assert lines[0] == "parameter,value,prior_density,posterior_density"
    names = {line.split(",")[0] for line in lines[1:]}
    assert names == {"mu", "sigma", "xi"}
    # each marginal grid integrates the posterior KDE to roughly one
    for name in names:
        rows = np.array(
            [[float(v) for v in line.split(",")[1:]] for line in lines[1:]
             if line.startswith(name + ",")]
        )
        mass = np.trapezoid(rows[:, 2], rows[:, 0])
        assert 0.9 <= mass <= 1.1


def test_density_grids_match_scipy_stats():
    # the prior pdfs equal scipy's bit for bit, the KDE at rounding level;
    # the wide sigma draws pull that grid's lower end to its 1e-12 floor
    rng = np.random.default_rng(3)
    prior = PriorSpec(gamma=(math.log(80.0), math.log(2.0), 0.1), d=(0.04, 0.5, 0.05))
    pooled = np.column_stack([
        rng.lognormal(math.log(80.0), 0.2, 3000),
        rng.lognormal(math.log(2.0), 1.5, 3000),
        rng.normal(0.1, 0.2, 3000),
    ])
    grids = cli._density_grids(prior, pooled)
    assert grids[1][1][0] == 1e-12
    for j, (_, grid, prior_pdf, post_pdf) in enumerate(grids):
        sd = math.sqrt(prior.d[j])
        if j < 2:
            expected = lognorm.pdf(grid, sd, scale=math.exp(prior.gamma[j]))
        else:
            expected = norm.pdf(grid, prior.gamma[j], sd)
        assert np.array_equal(prior_pdf, expected)
        kde = gaussian_kde(pooled[:, j])(grid)
        np.testing.assert_allclose(post_pdf, kde, rtol=1e-11, atol=0.0)


def test_regflood_does_not_load_scipy_stats(sim_dir, tmp_path):
    # a fresh interpreter, since this test session imports scipy.stats itself
    script = textwrap.dedent(
        f"""
        import sys
        import numpy as np
        import regflood as rf
        import regflood.cli
        pot = rf.PotSeries("P", 10.0, np.datetime64("2000-01-01") + np.arange(40) * 30,
                           rf.gp_sample(rf.GpParams(10.0, 3.0, 0.1), 40, 1), 20.0)
        rf.profile_ci(pot, 10.0)
        rf.at_site_index_flood(pot, method="empirical")
        rf.run_experiment(rf.EvalConfig(models=("MLE", "PWU")),
                          synth=rf.SynthSpec(n_sites=4, years=20.0))
        code = regflood.cli.main([
            "bayes", {str(sim_dir / "region.yaml")!r}, "--chains", "2", "--iters", "1000",
            "--prior-out", "prior.json", "--posterior-out", "post.json",
        ])
        assert code == 0, code
        loaded = sorted(m for m in sys.modules if m.startswith("scipy.stats"))
        assert not loaded, loaded
        """
    )
    env = dict(os.environ, PYTHONPATH=str(Path(regflood.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "post_density.csv").exists()


def test_bayes_deterministic_and_seed_sensitive(sim_dir, tmp_path, capsys):
    (tmp_path / "x").mkdir()
    (tmp_path / "y").mkdir()
    run(capsys, bayes_argv(sim_dir, tmp_path / "x"))
    run(capsys, bayes_argv(sim_dir, tmp_path / "y"))
    assert (tmp_path / "x" / "post.json").read_bytes() == (
        tmp_path / "y" / "post.json"
    ).read_bytes()
    (tmp_path / "z").mkdir()
    argv = bayes_argv(sim_dir, tmp_path / "z")
    argv[argv.index("--seed") + 1] = "8"
    run(capsys, argv)
    assert (tmp_path / "x" / "post.json").read_bytes() != (
        tmp_path / "z" / "post.json"
    ).read_bytes()


def test_bayes_writes_an_infinite_psr_as_null(sim_dir, tmp_path, capsys, monkeypatch):
    # _split_psr is infinite when every half-chain is constant but their means differ
    diagnostics = cli.chain_diagnostics

    def infinite_psr(chains):
        diag = diagnostics(chains)
        return dataclasses.replace(diag, psr=(math.inf,) + diag.psr[1:])

    monkeypatch.setattr(cli, "chain_diagnostics", infinite_psr)
    code, stdout, _ = run(capsys, bayes_argv(sim_dir, tmp_path))
    assert code == 0
    post = read_json(tmp_path / "post.json", "posterior-report")
    assert post["psr"][0] is None
    assert all(isinstance(v, float) for v in post["psr"][1:])
    assert "PSR (inf, " in stdout


def test_bayes_flat_prior_widens_variances(sim_dir, tmp_path, capsys):
    code, stdout, _ = run(capsys, bayes_argv(sim_dir, tmp_path, "--flat-prior"))
    assert code == 0
    prior = read_prior_json(tmp_path / "prior.json")
    assert prior.d == (1000.0, 1000.0, 1000.0)
    assert "flat prior" in stdout
    post = read_json(tmp_path / "post.json", "posterior-report")
    assert post["flat_prior"] is True


def test_bayes_target_override(sim_dir, tmp_path, capsys):
    code, _, _ = run(capsys, bayes_argv(sim_dir, tmp_path, "--target", "S3"))
    assert code == 0
    prior = read_prior_json(tmp_path / "prior.json")
    assert prior.provenance.target == "S3"
    assert "S3" not in prior.provenance.sites


def test_bayes_target_leakage_exits_3(sim_dir, tmp_path, capsys):
    code, _, err = run(
        capsys, bayes_argv(sim_dir, tmp_path, "--donors", "S0,S1,S2,S3")
    )
    assert code == 3
    assert "must not inform its own prior" in err


def test_bayes_donors_restrict_the_prior(sim_dir, tmp_path, capsys):
    code, stdout, _ = run(capsys, bayes_argv(sim_dir, tmp_path, "--donors", "S1,S2,S3"))
    assert code == 0
    assert "donors: S1, S2, S3  (" in stdout
    assert read_prior_json(tmp_path / "prior.json").provenance.sites == ("S1", "S2", "S3")


def test_bayes_repeated_donor_fails_before_reading(sim_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "load_region_config", must_not_run)
    monkeypatch.setattr(cli, "build_region", must_not_run)
    code, out, err = run(capsys, bayes_argv(sim_dir, tmp_path, "--donors", "S1,S2, S1,S3"))
    assert code == 1
    assert out == ""
    assert "donor 'S1' is listed twice" in err


@pytest.mark.parametrize("donors, count", [("", 0), (",", 0), (" , ,", 0), ("S1,S2", 2)])
def test_bayes_too_few_donors_fails_before_reading(
    sim_dir, tmp_path, capsys, monkeypatch, donors, count
):
    monkeypatch.setattr(cli, "load_region_config", must_not_run)
    monkeypatch.setattr(cli, "build_region", must_not_run)
    code, out, err = run(capsys, bayes_argv(sim_dir, tmp_path, "--donors", donors))
    assert code == 1
    assert out == ""
    assert f"need at least 3 sites for the regression, got {count}" in err


def test_bayes_too_few_draws_fails_before_sampling(sim_dir, tmp_path, capsys, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("called before the draw count was checked")

    monkeypatch.setattr(cli, "mcmc_sample", must_not_run)
    monkeypatch.setattr(cli, "elicit_prior", must_not_run)
    argv = bayes_argv(sim_dir, tmp_path)
    argv[argv.index("--chains") + 1] = "1"
    argv[argv.index("--iters") + 1] = "1000"
    code, _, err = run(capsys, [*argv, "--burn-in", "600"])
    assert code == 1
    assert "need at least 500 retained draws, got 400" in err


def must_not_run(*args, **kwargs):
    raise AssertionError("called before the flags were checked")


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--ci", "1.5", "--ci must lie in (0, 1), got 1.5"),
        ("--return-periods", "abc", "--return-periods expects comma-separated numbers"),
    ],
)
def test_bayes_bad_flags_fail_before_reading(sim_dir, tmp_path, capsys, monkeypatch, flag, value, message):
    monkeypatch.setattr(cli, "build_region", must_not_run)
    monkeypatch.setattr(cli, "mcmc_sample", must_not_run)
    code, _, err = run(capsys, bayes_argv(sim_dir, tmp_path, flag, value))
    assert code == 1
    assert message in err


def test_bayes_short_return_period_fails_before_sampling(sim_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "mcmc_sample", must_not_run)
    monkeypatch.setattr(cli, "elicit_prior", must_not_run)
    code, _, err = run(capsys, bayes_argv(sim_dir, tmp_path, "--return-periods", "10,0.1"))
    assert code == 1
    assert "return period 0.1 needs rate * T > 1" in err


def test_bayes_unknown_target_is_input_error(sim_dir, tmp_path, capsys):
    code, _, err = run(capsys, bayes_argv(sim_dir, tmp_path, "--target", "S99"))
    assert code == 1


# ------------------------------------------------------------------ evaluate


def test_evaluate_report_and_table(sim_dir, tmp_path, capsys):
    out = tmp_path / "eval.json"
    code, stdout, _ = run(capsys, [
        "evaluate", str(sim_dir / "region.yaml"), "--lengths", "5,8",
        "--models", "mle,pwu,reg", "--seed", "11", "--out", str(out),
    ])
    assert code == 0
    assert "NRMSE" in stdout and "NBIAS" in stdout and "Score" in stdout
    assert re.search(r"Q5\s+Q10\s+Q20", stdout)
    obj = read_json(out, "eval-report")
    assert obj["models"] == ["MLE", "PWU", "REG"]
    assert obj["lengths"] == [5, 8]
    for val in obj["r_s"]:
        assert val is None or 0.0 <= val <= 1.0


def test_evaluate_two_model_degenerate_scores(sim_dir, tmp_path, capsys):
    out = tmp_path / "eval.json"
    code, _, _ = run(capsys, [
        "evaluate", str(sim_dir / "region.yaml"), "--lengths", "5,8",
        "--models", "mle,reg", "--seed", "11", "--out", str(out),
    ])
    assert code == 0
    obj = read_json(out, "eval-report")
    assert sorted(obj["r_s"]) == [0.0, 1.0]


def test_evaluate_readme_region_loses_no_cells(tmp_path, capsys):
    # the README's region, whose 5-year window once failed the MLE (and REG
    # with it) with "MLE did not converge"
    assert main(["simulate", str(tmp_path / "region"), "--seed", "11"]) == 0
    out = tmp_path / "eval.json"
    code, stdout, _ = run(capsys, [
        "evaluate", str(tmp_path / "region" / "region.yaml"), "--models", "mle,reg",
        "--out", str(out),
    ])
    assert code == 0
    assert "failed cells" not in stdout
    assert read_json(out, "eval-report")["missing"] == []


def test_evaluate_length_beyond_record(sim_dir, capsys):
    # an 18-year simulated record spans 6574 days, just short of 18 years
    for lengths, message in [
        ("5,99", "truncation length 99 exceeds the 17.9986-year target record"),
        ("5,18", "truncation length 18 exceeds the 17.9986-year target record"),
    ]:
        code, _, err = run(capsys, [
            "evaluate", str(sim_dir / "region.yaml"), "--lengths", lengths,
            "--models", "mle",
        ])
        assert code == 1
        assert message in err


def test_evaluate_default_lengths_fit_a_short_target_record(tmp_path, capsys, caplog):
    # the README's 25-year daily records span 25 years less a day, so the
    # default lengths 25 and 30 do not fit; an explicit list still fails
    argv = ["simulate", str(tmp_path / "region"), "--sites", "6", "--years", "25"]
    assert run(capsys, argv)[0] == 0
    cfg, out = str(tmp_path / "region" / "region.yaml"), tmp_path / "eval.json"
    with caplog.at_level(logging.WARNING, logger="regflood"):
        code, stdout, _ = run(capsys, ["evaluate", cfg, "--models", "mle", "--out", str(out)])
    assert code == 0
    assert stdout.startswith("lengths 5,10,15,20  anchor first")
    assert read_json(out, "eval-report")["lengths"] == [5, 10, 15, 20]
    (record,) = [r for r in caplog.records if r.name == "regflood"]
    assert record.getMessage() == "default lengths 25, 30 exceed the 24.9993-year target record"
    code, _, err = run(capsys, [
        "evaluate", cfg, "--lengths", "5,10,15,20,25,30", "--models", "mle", "--out", str(out),
    ])
    assert code == 1
    assert "truncation length 25 exceeds the 24.9993-year target record" in err


@pytest.mark.parametrize("method,rescale", [
    ("gp-fit", "index"),
    ("empirical", "index"),
    ("gp-fit", "mean"),
    ("empirical", "mean"),
], ids=["defaults", "empirical", "mean", "both"])
def test_evaluate_honours_the_config_keys(sim_dir, tmp_path, capsys, caplog, method, rescale):
    region_dir = shutil.copytree(sim_dir, tmp_path / "region")
    config = region_dir / "region.yaml"
    text = config.read_text()
    assert "index_flood_method: gp-fit\nrescale: index\n" in text
    config.write_text(text.replace(
        "index_flood_method: gp-fit\nrescale: index\n",
        f"index_flood_method: {method}\nrescale: {rescale}\n",
    ))
    out = tmp_path / "eval.json"
    with caplog.at_level(logging.WARNING, logger="regflood"):
        code, _, _ = run(capsys, [
            "evaluate", str(config), "--lengths", "5", "--models", "mle,reg,bay",
            "--mcmc-iters", "2000", "--out", str(out),
        ])
    assert code == 0
    assert [r.getMessage() for r in caplog.records if r.name == "regflood"] == []
    region = build_region(load_region_config(config))
    assert (region.index_method, region.rescale) == (method, rescale)
    eval_config = EvalConfig(
        lengths=(5,),
        models=("MLE", "REG", "BAY"),
        mcmc=McmcConfig(chains=2, iterations=2000, burn_in=500),
    )

    def payload(the_region):
        return json.loads(json.dumps(
            eval_report_payload(run_experiment(eval_config, region=the_region))
        ))

    got = read_json(out, "eval-report")
    del got["schema_version"], got["kind"]
    assert got == payload(region)
    # the MLE rows never read the policy; REG's rows and BAY's rows do
    defaults = payload(dataclasses.replace(region, index_method="gp-fit", rescale="index"))
    assert got["nbias"][0] == defaults["nbias"][0]
    if (method, rescale) != ("gp-fit", "index"):
        assert got["nbias"][1] != defaults["nbias"][1]
    assert (got["nbias"][2] != defaults["nbias"][2]) == (method == "empirical")


def test_evaluate_too_few_draws_fails_before_reading(sim_dir, capsys, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("called before the draw count was checked")

    monkeypatch.setattr(cli, "mcmc_sample", must_not_run)
    monkeypatch.setattr(cli, "load_region_config", must_not_run)
    code, _, err = run(capsys, [
        "evaluate", str(sim_dir / "region.yaml"), "--lengths", "5",
        "--models", "mle,bay", "--mcmc-chains", "1", "--mcmc-iters", "1000",
        "--mcmc-burn-in", "600",
    ])
    assert code == 1
    assert "need at least 500 retained draws, got 400" in err


def test_evaluate_draw_count_only_binds_bay(sim_dir, tmp_path, capsys):
    code, _, _ = run(capsys, [
        "evaluate", str(sim_dir / "region.yaml"), "--lengths", "5",
        "--models", "mle,pwu", "--mcmc-chains", "1", "--mcmc-iters", "1000",
        "--mcmc-burn-in", "600", "--out", str(tmp_path / "eval.json"),
    ])
    assert code == 0


@pytest.mark.parametrize("lengths", ["5.5", "1e400", "nan"])
def test_evaluate_lengths_must_be_whole_numbers(sim_dir, capsys, lengths):
    code, _, err = run(capsys, [
        "evaluate", str(sim_dir / "region.yaml"), "--lengths", f"5,{lengths}",
        "--models", "mle",
    ])
    assert code == 1
    assert err.startswith("error: --lengths expects whole numbers")


def test_evaluate_unknown_model(sim_dir, capsys):
    code, _, err = run(capsys, [
        "evaluate", str(sim_dir / "region.yaml"), "--lengths", "5",
        "--models", "mle,zzz",
    ])
    assert code == 1
    assert "ZZZ" in err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--models", "mle,zzz", "unknown models ['ZZZ']"),
        ("--replicates", "0", "need at least 1 replicate, got 0"),
        ("--lengths", "5,0", "bad truncation lengths (5, 0)"),
        ("--lengths", "5,5", "length 5 is listed twice"),
        ("--models", "mle,pwu,MLE", "model 'MLE' is listed twice"),
    ],
)
def test_evaluate_bad_flags_fail_before_reading(sim_dir, capsys, monkeypatch, flag, value, message):
    monkeypatch.setattr(cli, "build_region", must_not_run)
    monkeypatch.setattr(cli, "mcmc_sample", must_not_run)
    argv = ["evaluate", str(sim_dir / "region.yaml"), "--lengths", "5", "--models", "mle"]
    code, _, err = run(capsys, [*argv, flag, value])
    assert code == 1
    assert message in err


# ------------------------------------------------------------------- general


def test_no_command_is_usage_error(capsys):
    code, _, err = run(capsys, [])
    assert code == 1
    assert "command" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "regflood" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["extract", "fit", "region", "bayes", "evaluate", "simulate"])
def test_run_report_records_flags_and_outputs(command, sim_dir, pot_file, tmp_path, capsys):
    t, cfg = tmp_path, str(sim_dir / "region.yaml")
    argv, flag, outputs = {
        "extract": (
            ["extract", str(sim_dir / "S0.csv"), "--target-rate", "2", "--out", str(t / "p.json")],
            ("target_rate", 2.0),
            ["p.json"],
        ),
        "fit": (["fit", str(pot_file), "--out", str(t / "f.json")], ("method", "mle"), ["f.json"]),
        "region": (
            ["region", cfg, "--nsim", "50", "--out", str(t / "g.json")], ("nsim", 50), ["g.json"],
        ),
        "bayes": (
            ["bayes", cfg, "--chains", "2", "--iters", "1000", "--prior-out", str(t / "prior.json"),
             "--posterior-out", str(t / "post.json")],
            ("iters", 1000),
            ["prior.json", "post.json", "post_density.csv", "post_curve.csv"],
        ),
        "evaluate": (
            ["evaluate", cfg, "--lengths", "5", "--models", "mle", "--out", str(t / "e.json")],
            ("lengths", "5"),
            ["e.json"],
        ),
        "simulate": (
            ["simulate", str(t / "r"), "--sites", "3", "--years", "8"],
            ("sites", 3),
            [f"r/{f}" for f in (
                "S0.csv", "S1.csv", "S2.csv", "metadata.csv", "region.yaml", "truth.json")],
        ),
    }[command]
    report = t / "run.json"
    code, _, _ = run(capsys, [*argv, "--report", str(report)])
    assert code == 0
    obj = read_json(report, "run-report")
    assert list(obj) == [
        "schema_version", "kind", "command", "config", "seed", "version",
        "started", "finished", "outputs",
    ]
    assert obj["command"] == command
    assert obj["config"][flag[0]] == flag[1]
    assert obj["outputs"] == [str(t / f) for f in outputs]
    assert obj["started"] <= obj["finished"]
    # timestamps live only in the run report, never in machine outputs
    for f in outputs:
        assert "started" not in (t / f).read_text()
    # --report closes the command's option list
    with pytest.raises(SystemExit):
        main([command, "--help"])
    options = [ln.split()[0] for ln in capsys.readouterr().out.splitlines() if ln.startswith("  -")]
    assert options[-1] == "--report"


def test_log_env_var_sets_level(sim_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REGFLOOD_LOG", "INFO")
    run(capsys, [
        "extract", str(sim_dir / "S0.csv"), "--target-rate", "2",
        "--out", str(tmp_path / "p.json"),
    ])
    assert logging.getLogger("regflood").level == logging.INFO
    monkeypatch.setenv("REGFLOOD_LOG", "WARNING")
    run(capsys, [
        "extract", str(sim_dir / "S0.csv"), "--target-rate", "2",
        "--out", str(tmp_path / "p2.json"),
    ])
    assert logging.getLogger("regflood").level == logging.WARNING
