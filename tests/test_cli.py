import json
import logging
import re

import numpy as np
import pytest

from regflood import cli
from regflood.cli import main
from regflood.distributions import GpParams
from regflood.evaluation import synth_daily_series
from regflood.fileio import (
    RegionConfig,
    SiteEntry,
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
    code, _, err = run(capsys, [
        "evaluate", str(sim_dir / "region.yaml"), "--lengths", "5,99",
        "--models", "mle",
    ])
    assert code == 1
    assert "99" in err


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


def test_evaluate_unknown_model(sim_dir, capsys):
    code, _, err = run(capsys, [
        "evaluate", str(sim_dir / "region.yaml"), "--lengths", "5",
        "--models", "mle,zzz",
    ])
    assert code == 1
    assert "ZZZ" in err


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


def test_run_report_records_flags_and_outputs(sim_dir, tmp_path, capsys):
    pot_out = tmp_path / "p.json"
    report = tmp_path / "run.json"
    code, _, _ = run(capsys, [
        "extract", str(sim_dir / "S0.csv"), "--target-rate", "2",
        "--out", str(pot_out), "--report", str(report),
    ])
    assert code == 0
    obj = read_json(report, "run-report")
    assert obj["command"] == "extract"
    assert obj["config"]["target_rate"] == 2.0
    assert obj["outputs"] == [str(pot_out)]
    assert obj["started"] <= obj["finished"]
    # timestamps live only in the run report, never in machine outputs
    assert "started" not in pot_out.read_text()


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
