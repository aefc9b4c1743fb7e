"""Command line: extract, fit, region, bayes, evaluate, simulate.

Every command is deterministic given its flags and seed; machine
outputs (JSON, CSV) carry full-precision numbers and no timestamps, so
re-running a command reproduces them byte for byte. Human tables round
to one or two decimals. ``--report PATH`` additionally writes a run
report (command, resolved flags, seed, version, timestamps, outputs),
the only artifact that records wall-clock time.

Exit codes: 0 success, 1 input or parse error, 2 numerical failure,
3 contract violation (for example target leakage into its own prior).
The only environment variable read is REGFLOOD_LOG (logging level).
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
from scipy.stats import gaussian_kde, lognorm, norm

from . import __version__
from .bayes import (
    MIN_RETAINED_DRAWS,
    McmcConfig,
    PriorSpec,
    chain_diagnostics,
    elicit_prior,
    mcmc_sample,
    posterior_quantiles,
)
from .errors import ContractViolationError, InputError, NumericalError
from .evaluation import EvalConfig, SynthSpec, run_experiment, synth_daily_series, synth_region
from .fileio import (
    RegionConfig,
    RunReport,
    SiteEntry,
    build_region,
    eval_report_payload,
    load_region_config,
    read_pot_json,
    read_series_csv,
    write_curve_csv,
    write_density_csv,
    write_growth_curve_json,
    write_json,
    write_metadata_csv,
    write_pot_json,
    write_prior_json,
    write_region_config,
    write_run_report,
    write_series_csv,
    write_truth_json,
)
from .fit import gp_fit_mle, gp_fit_pwm, profile_ci, quantile_variance, return_level
from .indexflood import fit_area_regression
from .pot import IndependenceRule, extract_pot, select_threshold
from .regional import Region, discordancy, growth_curve, heterogeneity

__all__ = ["main"]

log = logging.getLogger("regflood")

_MIN_RECOMMENDED_NSIM = 100


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors map to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


def _setup_logging() -> None:
    name = os.environ.get("REGFLOOD_LOG", "WARNING").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    log.setLevel(level)


def _floats_arg(text: str, flag: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise InputError(f"{flag} expects comma-separated numbers, got {text!r}")
    if not values:
        raise InputError(f"{flag} needs at least one value")
    return values


def _ints_arg(text: str, flag: str) -> tuple[int, ...]:
    values = _floats_arg(text, flag)
    out = tuple(int(v) for v in values)
    if any(float(i) != v for i, v in zip(out, values)):
        raise InputError(f"{flag} expects whole numbers, got {text!r}")
    return out


def _fmt(x: float, nd: int = 2, width: int = 0) -> str:
    s = "--" if x is None or not math.isfinite(x) else f"{x:.{nd}f}"
    return f"{s:>{width}}" if width else s


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _report_config(args: argparse.Namespace) -> dict:
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in ("func", "report"):
            continue
        out[key] = str(value) if isinstance(value, Path) else value
    return out


# ------------------------------------------------------------------- extract


def cmd_extract(args) -> list[str]:
    series = read_series_csv(args.series, station=args.station)
    rule = IndependenceRule(
        min_gap_days=args.rule_gap, trough_fraction=args.rule_trough
    )
    if args.threshold is not None:
        threshold = args.threshold
    else:
        threshold = select_threshold(series, args.target_rate, rule).threshold
    pot = extract_pot(series, threshold, rule)
    out = args.out or str(Path(args.series).with_suffix(".pot.json"))
    write_pot_json(out, pot)
    print(
        f"station {pot.station}: threshold {pot.threshold:.2f} gives "
        f"{len(pot)} events in {pot.record_years:.1f} years "
        f"(rate {pot.rate:.2f} per year)"
    )
    print(f"wrote {out}")
    return [out]


# ----------------------------------------------------------------------- fit


_FIT_METHODS = {
    "mle": lambda pot: gp_fit_mle(pot),
    "pwu": lambda pot: gp_fit_pwm(pot, "unbiased"),
    "pwb": lambda pot: gp_fit_pwm(pot, "biased"),
}


def _fit_quantiles(pot, fit, periods, level, ci_kind):
    z = float(norm.ppf(0.5 + level / 2.0))
    rows = []
    for T in periods:
        value = return_level(fit.params, pot.rate, T)
        if ci_kind == "profile":
            ci = profile_ci(pot, T, level, fit=fit)
            lower, upper = ci.lower, ci.upper
        elif fit.covariance is not None:
            half = z * math.sqrt(max(quantile_variance(fit, pot.rate, T), 0.0))
            lower, upper = value - half, value + half
        else:
            lower, upper = math.nan, math.nan
        rows.append((float(T), value, lower, upper))
    return rows


def cmd_fit(args) -> list[str]:
    pot = read_pot_json(args.pot)
    method = args.method.lower()
    if method not in _FIT_METHODS:
        raise InputError(f"method must be one of mle, pwu, pwb; got {args.method!r}")
    if not 0.0 < args.ci < 1.0:
        raise InputError(f"--ci must lie in (0, 1), got {args.ci!r}")
    periods = _floats_arg(args.return_periods, "--return-periods")
    fit = _FIT_METHODS[method](pot)
    ci_kind = "profile" if method == "mle" else "asymptotic"
    rows = _fit_quantiles(pot, fit, periods, args.ci, ci_kind)

    out = args.out or f"{pot.station}.fit.json"
    write_json(
        out,
        "fit-report",
        {
            "station": pot.station,
            "method": method,
            "n": fit.n,
            "rate": pot.rate,
            "threshold": pot.threshold,
            "record_years": pot.record_years,
            "params": {
                "location": fit.params.location,
                "scale": fit.params.scale,
                "shape": fit.params.shape,
            },
            "boundary": fit.boundary,
            "loglik": fit.loglik,
            "covariance": None if fit.covariance is None else fit.covariance.tolist(),
            "ci_kind": ci_kind,
            "ci_level": args.ci,
            "quantiles": [
                {
                    "period_years": T,
                    "value": v,
                    "lower": None if not math.isfinite(lo) else lo,
                    "upper": None if not math.isfinite(hi) else hi,
                }
                for T, v, lo, hi in rows
            ],
        },
    )

    print(
        f"station {pot.station}  method {method.upper()}  "
        f"{fit.n} events / {pot.record_years:.1f} years (rate {pot.rate:.2f} per year)"
    )
    print(
        f"params: location {fit.params.location:.2f}  scale {fit.params.scale:.2f}  "
        f"shape {fit.params.shape:.2f}"
    )
    pct = f"{100 * args.ci:g}%"
    print(f"{pct} {ci_kind} confidence intervals")
    print(f"{'T':>6}  {'Q':>8}")
    for T, value, lower, upper in rows:
        print(
            f"{T:>6g}  {_fmt(value, 1, 8)}  "
            f"[{_fmt(lower, 1, 7)}, {_fmt(upper, 1, 7)}]"
        )
    print(f"wrote {out}")
    return [out]


# -------------------------------------------------------------------- region


def cmd_region(args) -> list[str]:
    config = load_region_config(args.config)
    region = build_region(config)
    do_check = args.check or not args.growth_curve
    do_curve = args.growth_curve or not args.check
    outputs: list[str] = []

    if do_check:
        if args.nsim < _MIN_RECOMMENDED_NSIM:
            log.warning(
                "nsim %d is below minimum recommended (%d)",
                args.nsim,
                _MIN_RECOMMENDED_NSIM,
            )
        disc = discordancy(region)
        print(f"discordancy (critical {disc.critical:.2f})")
        for code, value in zip(disc.codes, disc.values):
            mark = "  discordant" if code in disc.flagged else ""
            print(f"  {code:<8} {value:>6.2f}{mark}")
        het = heterogeneity(region, nsim=args.nsim, seed=args.seed)
        print(
            f"heterogeneity (nsim {het.nsim}, seed {het.seed}, "
            f"parent {het.parent})"
        )
        print(f"  H1 = {het.h1:.2f}  H2 = {het.h2:.2f}  H3 = {het.h3:.2f}")
        print(f"  classification: {het.classification}")
        if het.correlation_note:
            print(
                "  note: H1 <= 0 usually signals correlations between "
                "sites rather than extra homogeneity"
            )

    if do_curve:
        curve = growth_curve(
            region, rescale=config.rescale, index_method=config.index_method
        )
        out = args.out
        write_growth_curve_json(out, curve)
        print(
            f"growth curve ({curve.rescale}-rescaled, {len(curve.members)} sites): "
            f"location {curve.params.location:.3f}  scale {curve.params.scale:.3f}  "
            f"shape {curve.params.shape:.3f}"
        )
        print(f"wrote {out}")
        outputs.append(out)
    return outputs


# --------------------------------------------------------------------- bayes


def _density_grids(prior: PriorSpec, pooled: np.ndarray):
    """Closed-form prior and KDE posterior marginals on shared grids."""
    grids = []
    for j, name in enumerate(("mu", "sigma", "xi")):
        x = pooled[:, j]
        lo, hi = float(x.min()), float(x.max())
        pad = 0.1 * (hi - lo) if hi > lo else max(0.1 * abs(hi), 1e-6)
        lo, hi = lo - pad, hi + pad
        if j < 2:
            lo = max(lo, 1e-12)
        grid = np.linspace(lo, hi, 201)
        sd = math.sqrt(prior.d[j])
        if j < 2:
            prior_pdf = lognorm.pdf(grid, sd, scale=math.exp(prior.gamma[j]))
        else:
            prior_pdf = norm.pdf(grid, prior.gamma[j], sd)
        post_pdf = gaussian_kde(x)(grid)
        grids.append((name, grid, prior_pdf, post_pdf))
    return grids


def _curve_periods(rate: float) -> np.ndarray:
    t_min = 1.0 if rate > 1.1 else 1.1 / rate
    return np.geomspace(t_min, 100.0, 60)


def _mcmc_config(
    chains: int, iters: int, burn_in: int | None, *, quantiles: bool
) -> McmcConfig:
    """Sampler settings from the CLI flags, burn-in defaulting to a quarter.

    With ``quantiles`` the run must retain the draws ``posterior_quantiles``
    needs; that is checked here, before any region is read or sampled.
    """
    burn = burn_in if burn_in is not None else iters // 4
    mc = McmcConfig(chains=chains, iterations=iters, burn_in=burn)
    retained = mc.chains * len(range(mc.burn_in, mc.iterations, mc.thinning))
    if quantiles and retained < MIN_RETAINED_DRAWS:
        raise InputError(
            f"need at least {MIN_RETAINED_DRAWS} retained draws, got {retained}"
        )
    return mc


def cmd_bayes(args) -> list[str]:
    mc = _mcmc_config(args.chains, args.iters, args.burn_in, quantiles=True)
    config = load_region_config(args.config)
    region = build_region(config)
    if args.target and args.target != region.target:
        region = dataclasses.replace(region, target=args.target)
    target = region.target

    donors = region.others()
    if args.donors:  # the regression's sites are also the elicitation donors
        donors = tuple(region.site(c.strip()) for c in args.donors.split(",") if c.strip())
    points = [
        (s.meta.code, s.meta.area_km2, s.index_flood(config.index_method).value)
        for s in donors
    ]
    regression = fit_area_regression(points)
    prior = elicit_prior(region, regression, index_method=config.index_method)
    if args.flat_prior:
        prior = prior.with_variances((1000.0, 1000.0, 1000.0))

    pot = region.target_site.pot
    chains = mcmc_sample(prior, pot, mc, seed=args.seed)
    diag = chain_diagnostics(chains)
    periods = _floats_arg(args.return_periods, "--return-periods")
    summaries = posterior_quantiles(chains, pot.rate, periods, level=args.ci)

    write_prior_json(args.prior_out, prior)
    pooled = chains.pooled()
    write_json(
        args.posterior_out,
        "posterior-report",
        {
            "station": target,
            "flat_prior": bool(args.flat_prior),
            "seed": args.seed,
            "chains": mc.chains,
            "iterations": mc.iterations,
            "burn_in": mc.burn_in,
            "thinning": mc.thinning,
            "retained_draws": int(pooled.shape[0]),
            "rate": pot.rate,
            "acceptance": chains.acceptance.tolist(),
            "psr": None if diag.psr is None else list(diag.psr),
            "ess": list(diag.ess),
            "warnings": list(chains.warnings),
            "posterior_means": [float(v) for v in pooled.mean(axis=0)],
            "ci_level": args.ci,
            "quantiles": [
                {
                    "period_years": s.period_years,
                    "value": s.point,
                    "lower": s.lower,
                    "upper": s.upper,
                }
                for s in summaries
            ],
        },
    )

    stem = str(Path(args.posterior_out).with_suffix(""))
    density_out = f"{stem}_density.csv"
    curve_out = f"{stem}_curve.csv"
    write_density_csv(density_out, _density_grids(prior, pooled))
    write_curve_csv(
        curve_out, posterior_quantiles(chains, pot.rate, _curve_periods(pot.rate), level=args.ci)
    )

    kind = "flat" if args.flat_prior else "regional"
    print(f"target {target}: {kind} prior")
    print(
        f"  gamma = ({prior.gamma[0]:.3f}, {prior.gamma[1]:.3f}, {prior.gamma[2]:.3f})"
        f"  d = ({prior.d[0]:.4f}, {prior.d[1]:.4f}, {prior.d[2]:.4f})"
    )
    if prior.provenance is not None:
        print(
            f"  donors: {', '.join(prior.provenance.sites)}  "
            f"(predicted index flood {prior.provenance.c_pred:.2f})"
        )
    psr = "--" if diag.psr is None else ", ".join(f"{v:.3f}" for v in diag.psr)
    ess = ", ".join(f"{v:.0f}" for v in diag.ess)
    acc = ", ".join(f"{v:.2f}" for v in chains.acceptance.mean(axis=0))
    print(f"chains {mc.chains} x {mc.iterations} (burn-in {mc.burn_in}, seed {args.seed})")
    print(f"  acceptance ({acc})  PSR ({psr})  ESS ({ess})")
    for w in chains.warnings:
        print(f"  warning: {w}")
    pct = f"{100 * args.ci:g}%"
    print(f"posterior return levels ({pct} credible intervals)")
    print(f"{'T':>6}  {'Q':>8}")
    for s in summaries:
        print(
            f"{s.period_years:>6g}  {_fmt(s.point, 1, 8)}  "
            f"[{_fmt(s.lower, 1, 7)}, {_fmt(s.upper, 1, 7)}]"
        )
    outputs = [args.prior_out, args.posterior_out, density_out, curve_out]
    for out in outputs:
        print(f"wrote {out}")
    return outputs


# ------------------------------------------------------------------ evaluate


def cmd_evaluate(args) -> list[str]:
    models = tuple(tok.strip().upper() for tok in args.models.split(",") if tok.strip())
    mcmc = _mcmc_config(
        args.mcmc_chains, args.mcmc_iters, args.mcmc_burn_in, quantiles="BAY" in models
    )
    config = load_region_config(args.config)
    region = build_region(config)
    lengths = _ints_arg(args.lengths, "--lengths")
    span = region.target_site.pot.record_years
    for m in lengths:
        if m > span:
            raise InputError(
                f"truncation length {m} exceeds the {span:.1f}-year target record"
            )
    eval_config = EvalConfig(
        lengths=lengths,
        anchor=args.anchor,
        models=models,
        replicates=args.replicates,
        seed=args.seed,
        sliding=args.sliding,
        mcmc=mcmc,
    )
    report = run_experiment(eval_config, region=region)
    out = args.out
    write_json(out, "eval-report", eval_report_payload(report))

    cols = report.rank_periods
    head = "".join(f"{f'Q{T:g}':>8}" for T in cols)
    print(
        f"lengths {','.join(str(m) for m in report.lengths)}  "
        f"anchor {args.anchor}  replicates {report.replicates}  seed {report.seed}"
    )
    print(f"{'':8}{'NRMSE':^{8 * len(cols)}}{'NBIAS':^{8 * len(cols)}}{'Rank':>8}")
    print(f"{'model':<8}{head}{head}{'Score':>8}")
    for model in report.models:
        cells = []
        for T in cols:
            nbias, nrmse, k = report.cell(model, T)
            cells.append(_fmt(nrmse, 2, 8))
        for T in cols:
            nbias, nrmse, k = report.cell(model, T)
            cells.append(_fmt(nbias, 2, 8))
        cells.append(_fmt(report.score(model), 2, 8))
        print(f"{model:<8}" + "".join(cells))
    if report.missing:
        print(f"failed cells ({len(report.missing)}):")
        for line in report.missing:
            print(f"  {line}")
    print(f"wrote {out}")
    return [out]


# ------------------------------------------------------------------ simulate


def cmd_simulate(args) -> list[str]:
    if args.lcv_dispersion == 0:
        dispersion = 1.0
    elif args.lcv_dispersion >= 1.0:
        dispersion = args.lcv_dispersion
    else:
        raise InputError(
            f"--lcv-dispersion must be 0 (none) or >= 1, got {args.lcv_dispersion!r}"
        )
    spec = SynthSpec(
        n_sites=args.sites,
        years=args.years,
        rate=args.rate,
        lcv_dispersion=dispersion,
        target=args.target,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    root = np.random.SeedSequence(args.seed)
    streams = root.spawn(spec.n_sites + 1)
    region, truth = synth_region(spec, seed=streams[0])
    years = spec.site_years()

    entries = []
    meta_path = out_dir / "metadata.csv"
    for i, site in enumerate(region.sites):
        code = site.meta.code
        series = synth_daily_series(
            truth.site_params[code],
            rate=spec.rate,
            years=years[i],
            seed=streams[i + 1],
            station=code,
        )
        series_path = out_dir / f"{code}.csv"
        write_series_csv(series_path, series)
        entries.append(SiteEntry(code=code, metadata=meta_path, series=series_path))
    write_metadata_csv(meta_path, [s.meta for s in region.sites])

    config = RegionConfig(
        target=spec.target,
        sites=tuple(entries),
        target_rate=spec.rate,
    )
    config_path = out_dir / "region.yaml"
    write_region_config(config_path, config)
    truth_path = out_dir / "truth.json"
    write_truth_json(truth_path, truth)

    print(
        f"wrote {spec.n_sites} sites x {args.years:g} years to {out_dir} "
        f"(target {spec.target}, L-CV dispersion {dispersion:g}, seed {args.seed})"
    )
    outputs = [str(p) for p in (*(e.series for e in entries), meta_path, config_path, truth_path)]
    return outputs


# ---------------------------------------------------------------------- main


def build_parser() -> _Parser:
    parser = _Parser(
        prog="regflood",
        description="Regional Bayesian flood frequency analysis for "
        "peaks-over-threshold discharge records.",
    )
    parser.add_argument("--version", action="version", version=f"regflood {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("extract", help="decluster a discharge series into event peaks")
    p.add_argument("series", help="discharge CSV (datetime,discharge_m3s)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--threshold", type=float, help="explicit POT threshold")
    group.add_argument(
        "--target-rate", type=float, help="choose the threshold giving this event rate"
    )
    p.add_argument("--rule-gap", type=float, default=10.0, help="minimum days between peaks")
    p.add_argument(
        "--rule-trough",
        type=float,
        default=2.0 / 3.0,
        help="inter-event trough fraction of the smaller peak",
    )
    p.add_argument("--station", help="station code (default: file stem)")
    p.add_argument("--out", help="output event-series JSON")
    p.add_argument("--report", help="write a run report to this path")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("fit", help="fit the event-peak law at one site")
    p.add_argument("pot", help="event-series JSON from extract")
    p.add_argument("--method", default="mle", help="mle, pwu or pwb")
    p.add_argument("--return-periods", default="2,5,10,20", help="comma list of years")
    p.add_argument("--ci", type=float, default=0.90, help="confidence level")
    p.add_argument("--out", help="output fit JSON")
    p.add_argument("--report", help="write a run report to this path")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("region", help="screen a region and fit its growth curve")
    p.add_argument("config", help="region config file")
    p.add_argument("--check", action="store_true", help="only discordancy and heterogeneity")
    p.add_argument("--growth-curve", action="store_true", help="only the growth curve")
    p.add_argument("--nsim", type=int, default=500, help="homogeneity simulations")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="growth_curve.json", help="growth curve JSON")
    p.add_argument("--report", help="write a run report to this path")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("bayes", help="regional prior elicitation and posterior sampling")
    p.add_argument("config", help="region config file")
    p.add_argument("--target", help="override the config target site")
    p.add_argument("--donors", help="comma list of donor sites (default: all others)")
    p.add_argument("--chains", type=int, default=4)
    p.add_argument("--iters", type=int, default=20000)
    p.add_argument("--burn-in", type=int, help="default: iters // 4")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ci", type=float, default=0.90, help="credible level")
    p.add_argument("--return-periods", default="2,5,10,20", help="comma list of years")
    p.add_argument(
        "--flat-prior",
        action="store_true",
        help="keep the prior means but widen every variance to 1000",
    )
    p.add_argument("--prior-out", default="prior.json")
    p.add_argument("--posterior-out", default="posterior.json")
    p.add_argument("--report", help="write a run report to this path")
    p.set_defaults(func=cmd_bayes)

    p = sub.add_parser("evaluate", help="compare estimators on truncated records")
    p.add_argument("config", help="region config file")
    p.add_argument("--lengths", default="5,10,15,20,25,30", help="record lengths, years")
    p.add_argument("--models", default="mle,pwu,pwb,reg,bay", help="comma list")
    p.add_argument("--anchor", default="first", choices=("first", "last"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--replicates", type=int, default=1)
    p.add_argument("--sliding", action="store_true", help="average over shifted windows")
    p.add_argument("--mcmc-chains", type=int, default=2)
    p.add_argument("--mcmc-iters", type=int, default=6000)
    p.add_argument("--mcmc-burn-in", type=int, help="default: mcmc iters // 4")
    p.add_argument("--out", default="evaluation.json", help="report JSON")
    p.add_argument("--report", help="write a run report to this path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("simulate", help="write a synthetic region directory")
    p.add_argument("out_dir", help="directory to create")
    p.add_argument("--sites", type=int, default=14)
    p.add_argument("--years", type=float, default=32.0)
    p.add_argument("--rate", type=float, default=2.0)
    p.add_argument(
        "--lcv-dispersion",
        type=float,
        default=0.0,
        help="0 for a homogeneous region, else the max/min L-CV factor (>= 1)",
    )
    p.add_argument("--target", default="S0")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", help="write a run report to this path")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            parser.print_usage(sys.stderr)
            raise InputError("a command is required")
        started = _now()
        outputs = args.func(args)
        if getattr(args, "report", None):
            write_run_report(
                args.report,
                RunReport(
                    command=args.command,
                    config=_report_config(args),
                    seed=getattr(args, "seed", None),
                    version=__version__,
                    started=started,
                    finished=_now(),
                    outputs=tuple(outputs),
                ),
            )
        return 0
    except ContractViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
