"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single "criterion N ...: PASS/FAIL" line (run pytest
with -s to see them all) and enforces its own runtime budget, so a slow
regression fails instead of quietly drifting.  Tolerances are fixed
here, not imported, to keep the gate independent of library constants.
"""

import itertools
import math
import time
from dataclasses import replace
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from scipy.stats import kstest, norm

from regflood.bayes import (
    McmcConfig,
    PriorSpec,
    chain_diagnostics,
    elicit_prior,
    mcmc_sample,
    posterior_quantiles,
)
from regflood.cli import main
from regflood.distributions import GpParams, gp_quantile, gp_rescale, gp_sample
from regflood.errors import ContractViolationError, InsufficientDataError
from regflood.evaluation import (
    EvalConfig,
    SynthSpec,
    rank_scores,
    run_experiment,
    synth_region,
)
from regflood.fileio import write_prior_json
from regflood.fit import gp_fit_mle, return_level
from regflood.indexflood import at_site_index_flood, fit_area_regression
from regflood.lmoments import sample_lmoments, sample_pwm
from regflood.pot import PotSeries
from regflood.regional import Region, RegionSite, heterogeneity


def _verdict(num, name, checks, t0, budget, detail=""):
    """Print the one-line verdict and fail the test on any bad check."""
    elapsed = time.perf_counter() - t0
    bad = [text for ok, text in checks if not ok]
    if elapsed >= budget:
        bad.append(f"runtime {elapsed:.1f}s exceeds budget {budget:.0f}s")
    status = "PASS" if not bad else "FAIL"
    line = f"criterion {num:2d} {name}: {status} ({elapsed:.1f}s, budget {budget:.0f}s)"
    if detail:
        line += f" -- {detail}"
    if bad:
        line += " -- " + "; ".join(bad)
    print(line)
    assert not bad, line


def _times(n, years):
    start = np.datetime64("1980-01-01T00:00:00", "s")
    step = int(years * 365.25 * 86400 / (n + 1))
    return start + np.arange(1, n + 1) * np.timedelta64(max(step, 1), "s")


# 1 ------------------------------------------------------------------
# Reference comparison of nine estimation strategies: NRMSE (Q5, Q10,
# Q20) then NBIAS (Q5, Q10, Q20) per model, plus the rank score the
# source table reports alongside them.

_TABLE = {
    "MLE": (0.33, 0.34, 0.39, 0.01, -0.09, -0.18),
    "bHe+": (0.16, 0.13, 0.18, 0.09, -0.02, -0.13),
    "rHe+": (0.27, 0.30, 0.37, -0.12, -0.22, -0.31),
    "bHe": (0.10, 0.07, 0.11, 0.08, 0.00, -0.09),
    "rHe": (0.27, 0.26, 0.28, -0.03, -0.10, -0.17),
    "bHo": (0.14, 0.09, 0.08, 0.12, 0.05, -0.02),
    "rHo": (0.27, 0.26, 0.27, 0.01, -0.06, -0.12),
    "bHo+": (0.29, 0.28, 0.25, 0.29, 0.27, 0.25),
    "rHo+": (0.28, 0.27, 0.26, 0.02, -0.01, -0.04),
}
_REPORTED = {
    "MLE": 0.26,
    "bHe+": 0.65,
    "rHe+": 0.18,
    "bHe": 0.85,
    "rHe": 0.43,
    "bHo": 0.76,
    "rHo": 0.58,
    "bHo+": 0.19,
    "rHo+": 0.60,
}


def test_criterion_01_rank_score_table():
    t0 = time.perf_counter()
    scores = rank_scores(_TABLE, absolute=[False] * 3 + [True] * 3)
    checks = []
    for model, expected in _REPORTED.items():
        got = scores[model].r_s
        tol = 0.01 if model in ("MLE", "bHe") else 0.02
        checks.append(
            (abs(got - expected) <= tol, f"{model} {got:.4f} vs {expected:.2f} (tol {tol})")
        )
    worst = max(abs(scores[m].r_s - e) for m, e in _REPORTED.items())
    _verdict(1, "rank-score table reproduction", checks, t0, 1.0,
             f"worst deviation {worst:.4f}")


# 2 ------------------------------------------------------------------


def test_criterion_02_rescaling_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(214)
    probs = (0.05, 0.5, 0.9, 0.99, 0.999)
    worst_q = worst_scale = worst_shape = 0.0
    for _ in range(100):
        params = GpParams(
            float(rng.uniform(0.5, 20.0)),
            float(rng.uniform(0.5, 8.0)),
            float(rng.uniform(-0.35, 0.9)),
        )
        c = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e2))))
        scaled = gp_rescale(params, c)
        for p in probs:
            a = gp_quantile(scaled, p)
            b = c * gp_quantile(params, p)
            worst_q = max(worst_q, abs(a - b) / abs(b))
        peaks = gp_sample(params, 80, rng)
        pot = PotSeries("A", params.location, _times(80, 40.0), peaks, 40.0)
        fit = gp_fit_mle(pot)
        fit_c = gp_fit_mle(pot.rescaled(c))
        worst_scale = max(
            worst_scale,
            abs(fit_c.params.scale - c * fit.params.scale) / (c * fit.params.scale),
        )
        worst_shape = max(
            worst_shape,
            abs(fit_c.params.shape - fit.params.shape) / max(1.0, abs(fit.params.shape)),
        )
    checks = [
        (worst_q <= 1e-10, f"quantile identity rel err {worst_q:.2e} > 1e-10"),
        (worst_scale <= 1e-6, f"MLE scale equivariance rel err {worst_scale:.2e} > 1e-6"),
        (worst_shape <= 1e-6, f"MLE shape equivariance rel err {worst_shape:.2e} > 1e-6"),
    ]
    _verdict(2, "rescaling invariance suite", checks, t0, 10.0,
             f"rel errs: quantile {worst_q:.1e}, scale {worst_scale:.1e}, "
             f"shape {worst_shape:.1e}")


# 3 ------------------------------------------------------------------

_POOL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def _order_stat_lmoments(values):
    """First four L-moments by averaging subset order statistics exactly."""
    xs = sorted(Fraction(v) for v in values)
    n = len(xs)
    out = []
    for r in range(1, 5):
        total = Fraction(0)
        for sub in itertools.combinations(xs, r):
            for k in range(r):
                total += (-1) ** k * comb(r - 1, k) * sub[r - 1 - k]
        out.append(total / (r * comb(n, r)))
    return out


def _subset_max_pwm(values, r):
    """b_r as the mean subset maximum: (r+1) * b_r = E[max of (r+1)-subsets]."""
    xs = sorted(Fraction(v) for v in values)
    n = len(xs)
    total = sum(sub[-1] for sub in itertools.combinations(xs, r + 1))
    return total / ((r + 1) * comb(n, r + 1))


def test_criterion_03_exact_lmoment_oracle():
    t0 = time.perf_counter()
    n_samples = 0
    bad = []
    for size in range(1, 9):
        for sample in itertools.combinations(_POOL, size):
            n_samples += 1
            for r in range(min(size, 4)):
                if sample_pwm(list(sample), r) != _subset_max_pwm(sample, r):
                    bad.append(f"b{r} of {sample}")
            if size < 4:
                with pytest.raises(InsufficientDataError):
                    sample_lmoments(list(sample))
                continue
            lm = sample_lmoments(list(sample))
            l1, l2, l3, l4 = _order_stat_lmoments(sample)
            if not isinstance(lm.l1, Fraction):
                bad.append(f"float fallback on {sample}")
            if (lm.l1, lm.l2) != (l1, l2):
                bad.append(f"l1/l2 of {sample}")
            if (lm.t, lm.t3, lm.t4) != (l2 / l1, l3 / l2, l4 / l2):
                bad.append(f"ratios of {sample}")
    checks = [
        (n_samples == 1012, f"enumerated {n_samples} samples, expected 1012"),
        (not bad, f"{len(bad)} exact mismatches, first: {bad[:3]}"),
    ]
    _verdict(3, "exact order-statistic L-moment oracle", checks, t0, 30.0,
             f"{n_samples} samples, all rationally exact")


# 4 ------------------------------------------------------------------


def test_criterion_04_heterogeneity_calibration():
    t0 = time.perf_counter()
    base = SynthSpec(n_sites=14, years=30.0, rate=2.0)
    h_null = []
    for i in range(50):
        region, _ = synth_region(base, seed=i)
        h_null.append(heterogeneity(region, nsim=500, seed=10_000 + i).h1)
    mean_h1 = float(np.mean(h_null))

    spread = replace(base, lcv_dispersion=2.0)
    flagged = 0
    for i in range(50):
        region, _ = synth_region(spread, seed=500 + i)
        flagged += heterogeneity(region, nsim=500, seed=20_000 + i).h1 > 2.0
    checks = [
        (-0.6 <= mean_h1 <= 0.6, f"homogeneous mean H1 {mean_h1:.3f} outside [-0.6, 0.6]"),
        (flagged >= 45, f"H1 > 2 in {flagged}/50 dispersed regions, need >= 45"),
    ]
    _verdict(4, "heterogeneity statistic calibration", checks, t0, 300.0,
             f"null mean H1 {mean_h1:+.3f}, dispersed flagged {flagged}/50")


# 5 ------------------------------------------------------------------


def _batch_se(per_chain_z, n_batches=25):
    """Monte Carlo standard error of the mean from per-chain batch means."""
    means = []
    for z in per_chain_z:
        size = len(z) // n_batches
        for b in range(n_batches):
            means.append(float(np.mean(z[b * size : (b + 1) * size])))
    return float(np.std(means, ddof=1) / math.sqrt(len(means)))


def test_criterion_05_prior_targeting_sampler():
    t0 = time.perf_counter()
    prior = PriorSpec((math.log(15.0), math.log(6.0), 0.1), (0.3, 0.2, 0.05))
    empty = PotSeries(
        "T", 1.0, np.array([], dtype="datetime64[s]"), np.array([], dtype=float), 10.0
    )
    cfg = McmcConfig(chains=2, iterations=52_500, burn_in=2_500, thinning=5)
    chains = mcmc_sample(prior, empty, cfg, seed=77)
    pooled = chains.pooled()
    checks = [(pooled.shape[0] == 20_000, f"retained {pooled.shape[0]} draws, wanted 20000")]
    transforms = (np.log, np.log, lambda v: v)
    ks_all = []
    for j, label in enumerate(("log mu", "log sigma", "xi")):
        z = transforms[j](pooled[:, j])
        per_chain = [transforms[j](chains.draws[c, :, j]) for c in range(cfg.chains)]
        se = _batch_se(per_chain)
        gap = abs(float(np.mean(z)) - prior.gamma[j])
        checks.append(
            (gap <= 3.0 * se, f"{label} mean off prior mean by {gap:.4f} > 3*MCSE {3 * se:.4f}")
        )
        ks = kstest(z, "norm", args=(prior.gamma[j], math.sqrt(prior.d[j]))).statistic
        ks_all.append(ks)
        checks.append((ks < 0.02, f"{label} KS statistic {ks:.4f} >= 0.02"))
    _verdict(5, "no-data sampler targets the prior", checks, t0, 60.0,
             f"worst marginal KS {max(ks_all):.4f}")


# 6 ------------------------------------------------------------------


def test_criterion_06_posterior_consistency_large_sample():
    t0 = time.perf_counter()
    true = GpParams(10.0, 5.0, 0.15)
    rng = np.random.default_rng(6)
    pot = PotSeries("T", 10.0, _times(5000, 2500.0), gp_sample(true, 5000, rng), 2500.0)
    fit = gp_fit_mle(pot)
    z90 = float(norm.ppf(0.95))
    band_scale = z90 * math.sqrt(fit.covariance[0, 0])
    band_shape = z90 * math.sqrt(fit.covariance[1, 1])

    # means deliberately off-truth: with d_i = 1000 they must not matter
    prior = PriorSpec((math.log(8.0), math.log(3.0), 0.0), (1000.0, 1000.0, 1000.0))
    chains = mcmc_sample(
        prior, pot, McmcConfig(chains=2, iterations=9000, burn_in=3000), seed=66
    )
    diag = chain_diagnostics(chains)
    pooled = chains.pooled()
    med_scale = float(np.median(pooled[:, 1]))
    med_shape = float(np.median(pooled[:, 2]))
    checks = [
        (max(diag.psr) < 1.1, f"split PSR {max(diag.psr):.3f} >= 1.1"),
        (
            abs(med_scale - fit.params.scale) <= band_scale,
            f"median scale {med_scale:.3f} outside {fit.params.scale:.3f} +- {band_scale:.3f}",
        ),
        (
            abs(med_shape - fit.params.shape) <= band_shape,
            f"median shape {med_shape:.4f} outside {fit.params.shape:.4f} +- {band_shape:.4f}",
        ),
    ]
    _verdict(6, "flat-prior posterior matches the MLE", checks, t0, 120.0,
             f"scale {med_scale:.3f} vs {fit.params.scale:.3f}+-{band_scale:.3f}, "
             f"shape {med_shape:.4f} vs {fit.params.shape:.4f}+-{band_shape:.4f}")


# 7 ------------------------------------------------------------------


def test_criterion_07_short_record_model_ordering():
    t0 = time.perf_counter()
    cfg = EvalConfig(
        lengths=(5,),
        models=("MLE", "PWU", "PWB", "REG", "BAY"),
        replicates=100,
        seed=41,
        mcmc=McmcConfig(chains=2, iterations=4000, burn_in=1000),
    )
    report = run_experiment(cfg, synth=SynthSpec(n_sites=14, years=37.0, rate=2.0))
    _, nrmse_bay, k_bay = report.cell("BAY", 10.0)
    _, nrmse_mle, _ = report.cell("MLE", 10.0)
    score_bay = report.score("BAY")
    score_reg = report.score("REG")
    checks = [
        (k_bay >= 90, f"only {k_bay}/100 replicates produced a BAY estimate"),
        (nrmse_bay < nrmse_mle, f"BAY NRMSE(Q10) {nrmse_bay:.3f} not below MLE {nrmse_mle:.3f}"),
        (score_bay > score_reg, f"BAY rank score {score_bay:.3f} not above REG {score_reg:.3f}"),
    ]
    _verdict(7, "short-record ordering: BAY beats MLE and REG", checks, t0, 900.0,
             f"NRMSE(Q10) BAY {nrmse_bay:.3f} vs MLE {nrmse_mle:.3f}; "
             f"score BAY {score_bay:.2f} vs REG {score_reg:.2f}")


# 8 ------------------------------------------------------------------


def _elicited(region):
    points = [
        (s.meta.code, s.meta.area_km2, at_site_index_flood(s.pot))
        for s in region.others()
    ]
    return elicit_prior(region, fit_area_regression(points))


def test_criterion_08_leave_target_out_contract(tmp_path):
    t0 = time.perf_counter()
    region, _ = synth_region(SynthSpec(n_sites=8, years=25.0, rate=2.0), seed=8)
    before = _elicited(region)

    target = region.target_site
    warped = replace(
        target.pot,
        peaks=target.pot.threshold + 3.0 * (target.pot.peaks - target.pot.threshold) + 5.0,
    )
    assert not np.array_equal(warped.peaks, target.pot.peaks)
    sites = tuple(
        RegionSite(s.meta, warped if s.meta.code == region.target else s.pot)
        for s in region.sites
    )
    after = _elicited(Region(sites, region.target))
    write_prior_json(tmp_path / "before.json", before)
    write_prior_json(tmp_path / "after.json", after)
    same_bytes = (tmp_path / "before.json").read_bytes() == (tmp_path / "after.json").read_bytes()

    with_target = fit_area_regression(
        [
            (s.meta.code, s.meta.area_km2, at_site_index_flood(s.pot))
            for s in region.sites
        ]
    )
    with pytest.raises(ContractViolationError):
        elicit_prior(region, with_target)

    sim = tmp_path / "sim"
    assert main(["simulate", str(sim), "--sites", "5", "--years", "12", "--seed", "3"]) == 0
    rc = main(
        [
            "bayes", str(sim / "region.yaml"),
            "--donors", "S0,S1,S2",
            "--chains", "2", "--iters", "1500", "--burn-in", "300",
            "--prior-out", str(tmp_path / "p.json"),
            "--posterior-out", str(tmp_path / "q.json"),
        ]
    )
    checks = [
        (before == after, "prior changed when target exceedances were warped"),
        (same_bytes, "serialized priors differ byte-wise"),
        (rc == 3, f"target listed among donors exited {rc}, expected 3"),
    ]
    _verdict(8, "leave-target-out elicitation contract", checks, t0, 10.0)


# 9 ------------------------------------------------------------------


def test_criterion_09_credible_interval_calibration():
    t0 = time.perf_counter()
    spec = SynthSpec(n_sites=14, years=25.0, rate=2.0)
    cfg = McmcConfig(chains=2, iterations=3000, burn_in=750)
    covered = 0
    for rep in range(200):
        region, truth = synth_region(spec, seed=5000 + rep)
        prior = _elicited(region)
        tpot = region.target_site.pot
        chains = mcmc_sample(prior, tpot, cfg, seed=9000 + rep)
        (summary,) = posterior_quantiles(chains, tpot.rate, (10.0,), level=0.90)
        true_q10 = return_level(truth.site_params[region.target], spec.rate, 10.0)
        covered += summary.lower <= true_q10 <= summary.upper
    fraction = covered / 200.0
    checks = [
        (0.84 <= fraction <= 0.96, f"90% interval coverage {fraction:.3f} outside [0.84, 0.96]")
    ]
    _verdict(9, "credible-interval calibration", checks, t0, 600.0,
             f"coverage {fraction:.3f}")


# 10 -----------------------------------------------------------------


def _drive_pipeline(root):
    sim = root / "sim"
    argvs = [
        ["simulate", str(sim), "--sites", "5", "--years", "12", "--seed", "3"],
        ["extract", str(sim / "S0.csv"), "--target-rate", "2", "--out", str(root / "s0.pot.json")],
        ["fit", str(root / "s0.pot.json"), "--out", str(root / "fit.json")],
        ["region", str(sim / "region.yaml"), "--nsim", "120", "--seed", "5",
         "--out", str(root / "growth.json")],
        ["bayes", str(sim / "region.yaml"), "--chains", "2", "--iters", "1500",
         "--burn-in", "300", "--seed", "11",
         "--prior-out", str(root / "prior.json"),
         "--posterior-out", str(root / "post.json")],
        ["evaluate", str(sim / "region.yaml"), "--lengths", "5", "--models", "mle,reg",
         "--replicates", "2", "--seed", "7", "--out", str(root / "eval.json")],
    ]
    for argv in argvs:
        assert main(argv) == 0, argv


def test_criterion_10_byte_identical_reruns(tmp_path):
    t0 = time.perf_counter()
    a, b = tmp_path / "a", tmp_path / "b"
    _drive_pipeline(a)
    _drive_pipeline(b)
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    differing = [
        str(rel) for rel in files_a if (a / rel).read_bytes() != (b / rel).read_bytes()
    ]
    checks = [
        (files_a == files_b, "the two runs produced different file sets"),
        (len(files_a) >= 12, f"only {len(files_a)} files written"),
        (not differing, f"outputs differ between runs: {differing}"),
    ]
    _verdict(10, "seeded pipeline reruns are byte-identical", checks, t0, 60.0,
             f"{len(files_a)} files compared")
