"""The three benchmark workloads: one closed-loop caller each.

A workload draws its inputs from one of ``SETS`` seeded input sets
(``--seed`` modulo ``SETS``); ``reference.json`` holds this commit's
outputs for every set, so the timed outputs themselves are checked.
A round is the workload's whole input set, run once; a run repeats
rounds.  Every round reports its units of work, the operations it
attempted and lost, and the outputs to check.  A unit carries its wall
and CPU seconds and a speed factor: ``CALIBRATION_S`` over the time a
fixed calibration kernel took right before and after the unit.  The
shared machine's speed drifts by a fifth within minutes; times scaled
by the factor cancel most of that drift.  The outputs to check are:

- ``exact``: deterministic values, compared at rounding-noise level;
- ``rounded``: values the program prints with two decimals;
- ``mc``: Monte Carlo outputs, compared within a tolerance measured by
  re-running the sampler with other seeds when the reference is made;
- ``failures``: identities of lost cells;
- ``incomplete``: key prefixes of rows with lost cells, which the
  reference leaves out.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import regflood as rf
from regflood import cli
from regflood.fileio import eval_report_payload

from tracing import experiment_cells

SETS = 8
CALIBRATION_S = 0.012  # kernel time at the nominal speed corrected times refer to
_CAL_SMALL = np.linspace(1.0, 2.0, 64)
_CAL_LARGE = np.random.default_rng(0).random(30000) + 0.5


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreted small-array and vectorised work.

    The mix follows the workloads: an interpreted loop over tiny arrays
    (samplers, optimizers) and transcendental functions over long arrays
    (kappa simulation).  It calls no regflood code; README.md reports how
    far library changes move it through what they leave running.
    """
    t = time.perf_counter()
    acc = 0.0
    for i in range(2000):
        z = math.exp(0.001 * i)
        acc += float(np.log1p(_CAL_SMALL * z).sum())
    for _ in range(10):
        acc += float((np.power(_CAL_LARGE, 0.37) - np.log(_CAL_LARGE) * np.expm1(-_CAL_LARGE)).sum())
    return time.perf_counter() - t


@dataclass
class RoundResult:
    units: list[tuple[float, float, float]] = field(default_factory=list)  # wall s, cpu s, speed factor
    stages: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    values: dict = field(default_factory=lambda: {"exact": {}, "rounded": {}, "mc": {}, "failures": []})
    digest: str | None = None


def _timed(fn):
    wall, cpu = time.perf_counter(), time.process_time()
    result = fn()
    return result, time.perf_counter() - wall, time.process_time() - cpu


def _cell_id(message: str) -> str:
    # "replicate 0 m=5 offset 0.0 MLE: <reason>" -> the cell, without the reason
    return message.split(": ", 1)[0]


def _eval_values(payload: dict, prefix: str, values: dict) -> None:
    """Error indices of an evaluation report; BAY cells are Monte Carlo."""
    for b in payload["benchmark"]:
        for key in ("value", "lower", "upper"):
            values["exact"][f"{prefix}bench.T{b['period_years']:g}.{key}"] = b[key]
    windows = len(payload["lengths"]) * payload["replicates"]
    for i, model in enumerate(payload["models"]):
        kind = "mc" if model == "BAY" else "exact"
        values["exact"][f"{prefix}{model}.k"] = payload["k"][i][0]
        if payload["k"][i][0] < windows:
            values.setdefault("incomplete", []).append(f"{prefix}{model}.")
        for j, period in enumerate(payload["periods"]):
            # over a single window NRMSE is |NBIAS|
            for stat in ("nbias", "nrmse") if windows > 1 else ("nbias",):
                v = payload[stat][i][j]
                if v is not None:
                    values[kind][f"{prefix}{model}.{stat}.T{period:g}"] = v
    values["failures"].extend(prefix + _cell_id(m) for m in payload["missing"])


# ---------------------------------------------------------------- walkthrough


class Walkthrough:
    """The README session through ``regflood.cli.main`` with CLI defaults."""

    name = "walkthrough"
    min_rounds = 2  # the second session must reproduce the first byte for byte

    def __init__(self, set_index: int, work: Path):
        # set 0 is the README's own simulation seed
        self.sim_seed = 11 + set_index
        self.work = work / "walkthrough"

    def _steps(self, d: Path, bayes_seed: int = 0, eval_seed: int = 0, models: str | None = None):
        region, cfg = d / "region", str(d / "region" / "region.yaml")
        evaluate = ["evaluate", cfg, "--seed", str(eval_seed), "--out", str(d / "evaluation.json")]
        if models:
            evaluate += ["--models", models]
        return [
            ("simulate", ["simulate", str(region), "--seed", str(self.sim_seed)]),
            ("extract", ["extract", str(region / "S0.csv"), "--target-rate", "2",
                         "--out", str(d / "S0.pot.json")]),
            ("fit", ["fit", str(d / "S0.pot.json"), "--out", str(d / "S0.fit.json")]),
            ("region", ["region", cfg, "--nsim", "500", "--out", str(d / "growth_curve.json")]),
            ("bayes", ["bayes", cfg, "--seed", str(bayes_seed), "--prior-out", str(d / "prior.json"),
                       "--posterior-out", str(d / "posterior.json")]),
            ("evaluate", evaluate),
        ]

    @staticmethod
    def _command(argv) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def run_round(self, index: int, tracer=None) -> RoundResult:
        d = self.work / f"r{index}"
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        res = RoundResult(stages={stage: [] for stage, _ in self._steps(d)})
        printed = {}
        if tracer is not None:
            tracer.op = f"session{index}"
        session_wall = session_cpu = scaled = 0.0
        cal = calibrate()
        for stage, argv in self._steps(d):
            (code, text), wall, cpu = _timed(lambda: self._command(argv))
            after = calibrate()
            res.stages[stage].append(wall)
            session_wall += wall
            session_cpu += cpu
            scaled += wall * 2 * CALIBRATION_S / (cal + after)
            cal = after
            printed[stage] = text
            res.attempted += 1
            res.failed += code != 0
        res.units.append((session_wall, session_cpu, scaled / session_wall))
        if res.failed:
            return res
        self._collect(d, printed, res)
        return res

    def _collect(self, d: Path, printed: dict, res: RoundResult) -> None:
        exact, mc = res.values["exact"], res.values["mc"]
        pot = json.loads((d / "S0.pot.json").read_text())
        exact["extract.threshold"] = pot["threshold"]
        exact["extract.events"] = len(pot["peaks"])
        exact["extract.peak_sum"] = math.fsum(pot["peaks"])
        exact["extract.record_years"] = pot["record_years"]
        fit = json.loads((d / "S0.fit.json").read_text())
        for key, v in fit["params"].items():
            exact[f"fit.{key}"] = v
        exact["fit.loglik"] = fit["loglik"]
        for q in fit["quantiles"]:
            for key in ("value", "lower", "upper"):
                exact[f"fit.T{q['period_years']:g}.{key}"] = q[key]
        curve = json.loads((d / "growth_curve.json").read_text())
        for key, v in curve["params"].items():
            exact[f"region.curve.{key}"] = v
        h = re.search(r"H1 = (\S+)  H2 = (\S+)  H3 = (\S+)", printed["region"])
        for i, v in enumerate(h.groups()):
            res.values["rounded"][f"region.H{i + 1}"] = float(v)
        prior = json.loads((d / "prior.json").read_text())
        for name in ("gamma", "d"):
            for i, v in enumerate(prior[name]):
                exact[f"bayes.prior.{name}{i}"] = v
        mc.update(self._posterior_values(d / "posterior.json"))
        evaluation = json.loads((d / "evaluation.json").read_text())
        _eval_values(evaluation, "evaluate.", res.values)
        attempted, failed = experiment_cells(
            evaluation["k"], len(evaluation["models"]), len(evaluation["lengths"]),
            evaluation["replicates"],
        )
        res.attempted += attempted
        res.failed += failed
        res.digest = _digest(d)

    @staticmethod
    def _posterior_values(path: Path) -> dict:
        post = json.loads(path.read_text())
        out = {}
        for q in post["quantiles"]:
            for key in ("value", "lower", "upper"):
                out[f"bayes.T{q['period_years']:g}.{key}"] = q[key]
        return out

    def mc_variant(self, k: int) -> dict:
        """Monte Carlo outputs of the session's samplers under seed ``k``."""
        d = self.work / f"variant{k}"
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        steps = dict(self._steps(d, bayes_seed=k, eval_seed=k, models="bay"))
        for stage in ("simulate", "bayes", "evaluate"):
            code, _ = self._command(steps[stage])
            if code:
                raise RuntimeError(f"{stage} failed with exit code {code} in variant {k}")
        values = {"exact": {}, "mc": {}, "failures": []}
        _eval_values(json.loads((d / "evaluation.json").read_text()), "evaluate.", values)
        values["mc"].update(self._posterior_values(d / "posterior.json"))
        return values["mc"]


def _digest(d: Path) -> str:
    """Hash of every machine output below ``d``, names included."""
    h = hashlib.sha256()
    for path in sorted(p for p in d.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(d)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


# ----------------------------------------------------------------- experiment


class Experiment:
    """Criterion 7's model comparison, one replicate per call."""

    name = "experiment"
    min_rounds = 2  # 20 replicates in every untraced run
    replicates = 10
    spec = rf.SynthSpec(n_sites=14, years=37.0, rate=2.0)
    mcmc = rf.McmcConfig(chains=2, iterations=4000, burn_in=1000)

    def __init__(self, set_index: int, work: Path):
        self.set_index = set_index

    def _seed(self, r: int) -> int:
        return 1000 * self.set_index + r

    def _replicate(self, r: int, seed: int, models=("MLE", "PWU", "PWB", "REG", "BAY")):
        """Replicate ``r``'s region, with MCMC seeds derived from ``seed``."""
        region, _ = rf.synth_region(self.spec, seed=self._seed(r))
        config = rf.EvalConfig(lengths=(5,), models=models, mcmc=self.mcmc, seed=seed)
        return rf.run_experiment(config, region=region)

    def run_round(self, index: int, tracer=None) -> RoundResult:
        res = RoundResult()
        cal = calibrate()
        for r in range(self.replicates):
            if tracer is not None:
                tracer.op = f"replicate{r}"
            report, wall, cpu = _timed(lambda: self._replicate(r, self._seed(r)))
            after = calibrate()
            res.units.append((wall, cpu, 2 * CALIBRATION_S / (cal + after)))
            cal = after
            payload = eval_report_payload(report)
            _eval_values(payload, f"r{r}.", res.values)
            attempted, failed = experiment_cells(
                payload["k"], len(report.models), len(report.lengths), report.replicates
            )
            res.attempted += attempted
            res.failed += failed
        return res

    def mc_variant(self, k: int) -> dict:
        values = {"exact": {}, "mc": {}, "failures": []}
        for r in range(self.replicates):
            report = self._replicate(r, self._seed(r) + 100000 * k, models=("BAY",))
            _eval_values(eval_report_payload(report), f"r{r}.", values)
        return values["mc"]


# ------------------------------------------------------------------ screening


class Screening:
    """Discordancy and heterogeneity on homogeneous and dispersed regions."""

    name = "screening"
    min_rounds = 1
    regions_per_kind = 8
    base = rf.SynthSpec(n_sites=14, years=30.0, rate=2.0)

    def __init__(self, set_index: int, work: Path):
        specs = (self.base, rf.SynthSpec(n_sites=14, years=30.0, rate=2.0, lcv_dispersion=2.0))
        self.regions = [
            rf.synth_region(spec, seed=(set_index, kind, i))[0]
            for kind, spec in enumerate(specs)
            for i in range(self.regions_per_kind)
        ]

    def run_round(self, index: int, tracer=None) -> RoundResult:
        res = RoundResult()
        exact = res.values["exact"]
        times = []
        # a region takes milliseconds: one calibration on each side of the round
        cal = calibrate()
        for g, region in enumerate(self.regions):
            if tracer is not None:
                tracer.op = f"region{g}"
            res.attempted += 1
            wall, cpu = time.perf_counter(), time.process_time()
            try:
                disc = rf.discordancy(region)
                het = rf.heterogeneity(region, nsim=500, seed=g)
            except rf.RegfloodError as exc:
                res.failed += 1
                res.values["failures"].append(f"region {g}: {type(exc).__name__}")
                continue
            finally:
                times.append((time.perf_counter() - wall, time.process_time() - cpu))
            for code, v in zip(disc.codes, disc.values):
                exact[f"g{g}.D.{code}"] = float(v)
            exact[f"g{g}.H1"], exact[f"g{g}.H2"], exact[f"g{g}.H3"] = het.h1, het.h2, het.h3
        factor = 2 * CALIBRATION_S / (cal + calibrate())
        res.units = [(wall, cpu, factor) for wall, cpu in times]
        return res


WORKLOADS = {w.name: w for w in (Walkthrough, Experiment, Screening)}
