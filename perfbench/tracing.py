"""Span tracing of regflood from outside the library.

Every public function of every ``regflood`` module is wrapped, and the
wrapper is installed in each module namespace that binds it: ``from
.fit import gp_fit_mle`` also binds the function in ``indexflood``,
``bayes``, ``evaluation`` and ``cli``, and a nested call resolves through
the caller's namespace.  scipy's ``optimize.minimize`` and
``minimize_scalar`` are wrapped too, to count optimizer calls.

A span records name, parent span, operation id, start and end.  Spans
are kept in memory; per-layer figures are computed from them after the
traced work has finished, and ``write_spans`` stores them at the end.
Self time is a span's duration minus the durations of its direct
children.
"""

from __future__ import annotations

import csv
import functools
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

import scipy.optimize

LAYERS = (
    "fileio", "pot", "fit", "indexflood", "bayes",
    "lmoments", "distributions", "regional", "evaluation", "cli",
)
COMMANDS = ("simulate", "extract", "fit", "region", "bayes", "evaluate")
_READERS = {
    "read_series_csv", "read_metadata_csv", "read_json", "read_pot_json",
    "read_prior_json", "read_growth_curve_json", "read_truth_json",
    "load_region_config",
}
_OPTIMIZERS = ("minimize", "minimize_scalar")


def _span_name(fn) -> str:
    layer = fn.__module__.rsplit(".", 1)[-1]
    name = fn.__name__
    if layer == "cli" and name.startswith("cmd_"):
        name = name[4:]
    return f"{layer}.{name}"


class Tracer:
    """Installs span-recording wrappers and turns spans into figures."""

    def __init__(self, package):
        self._modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package.__name__ or name.startswith(package.__name__ + "."))
        ]
        self._mcmc_config = package.McmcConfig
        self._wrappers = {}
        self._installed: list[tuple[object, str, object]] = []
        self.spans: list[list] = []  # [name, parent, op, start, end, error]
        self.counts: Counter = Counter()
        self.chains: list = []  # posterior chains, for ESS after the round
        self._stack: list[int] = []
        self.op = ""

    # ---------------------------------------------------------- wrapping

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, tracer._stack[-1] if tracer._stack else -1, tracer.op,
                   time.perf_counter(), 0.0, False]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[4] = time.perf_counter()
                tracer._stack.pop()
            tracer._after(name, args, kwargs, result)
            return result

        return wrapper

    def _count_optimizer(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts["optimizer_calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for module in self._modules:
            for attr, obj in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or not obj.__module__.startswith(self._modules[0].__name__)
                ):
                    continue
                wrapper = self._wrappers.get(obj)
                if wrapper is None:
                    wrapper = self._wrappers[obj] = self._wrap(obj, _span_name(obj))
                self._installed.append((module, attr, obj))
                setattr(module, attr, wrapper)
        for attr in _OPTIMIZERS:
            original = getattr(scipy.optimize, attr)
            self._installed.append((scipy.optimize, attr, original))
            setattr(scipy.optimize, attr, self._count_optimizer(original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.chains.clear()

    def _after(self, name, args, kwargs, result) -> None:
        """Counters taken at the layer boundary from arguments and results."""
        c = self.counts
        short = name.rsplit(".", 1)[-1]
        if name == "fit.gp_fit_mle" and result.boundary:
            c["boundary_fits"] += 1
        elif name == "bayes.mcmc_sample":
            config = kwargs.get("config", args[2] if len(args) > 2 else self._mcmc_config())
            c["proposals"] += config.chains * config.iterations * 3
            self.chains.append(result)
        elif name == "bayes.elicit_prior":
            region = args[0] if args else kwargs["region"]
            c["donors_dropped"] += len(region.others()) - len(result.provenance.sites)
        elif name == "distributions.kappa_sample":
            c["kappa_draws"] += args[1] if len(args) > 1 else kwargs["n"]
        elif name == "evaluation.run_experiment":
            attempted, failed = experiment_cells(
                result.k, len(result.models), len(result.lengths), result.replicates
            )
            c["cells_attempted"] += attempted
            c["cells_failed"] += failed
        elif name.startswith("fileio.") and short in _READERS and not self._in_reader():
            c["bytes_read"] += os.path.getsize(args[0] if args else kwargs["path"])

    def _in_reader(self) -> bool:
        """Whether the innermost open span is a file reader (it counts the bytes)."""
        if not self._stack:
            return False
        name = self.spans[self._stack[-1]][0]
        return name.startswith("fileio.") and name.rsplit(".", 1)[-1] in _READERS

    # ----------------------------------------------------------- figures

    def figures(self, chain_diagnostics) -> dict[str, float]:
        """Per-layer totals of the spans recorded since the last reset."""
        spans = self.spans
        child = [0.0] * len(spans)
        command = [""] * len(spans)
        for i, (name, parent, _op, start, end, _err) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                command[i] = command[parent]
            if name.startswith("cli.") and name[4:] in COMMANDS:
                command[i] = name[4:]
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        layer_self: defaultdict = defaultdict(float)
        errors: Counter = Counter()
        cmd_self: defaultdict = defaultdict(float)  # (command, layer) -> self time
        cmd_calls: Counter = Counter()  # (command, span name) -> calls
        extract_in_select = 0
        for i, (name, parent, _op, start, end, err) in enumerate(spans):
            own = (end - start) - child[i]
            layer = name.split(".", 1)[0]
            calls[name] += 1
            self_s[name] += own
            layer_self[layer] += own
            errors[name] += err
            cmd_self[(command[i], layer)] += own
            cmd_calls[(command[i], name)] += 1
            if name == "pot.extract_pot" and parent >= 0 and spans[parent][0] == "pot.select_threshold":
                extract_in_select += 1

        ess = 0.0
        for chains in self.chains:
            ess += min(chain_diagnostics(chains).ess)

        c = self.counts
        fits = calls["fit.gp_fit_mle"]
        proposals = c["proposals"]
        out = {
            "fileio.read_series_csv.calls": calls["fileio.read_series_csv"],
            "fileio.read_series_csv.self_s": self_s["fileio.read_series_csv"],
            "fileio.bytes_read": c["bytes_read"],
            "fileio.write.self_s": sum(v for k, v in self_s.items() if k.startswith("fileio.write_")),
            "pot.select_threshold.self_s": self_s["pot.select_threshold"],
            "pot.extract_pot.calls": calls["pot.extract_pot"],
            "pot.extract_pot.self_s": self_s["pot.extract_pot"],
            "pot.extract_per_select": _ratio(extract_in_select, calls["pot.select_threshold"]),
            "fit.gp_fit_mle.calls": fits,
            "fit.gp_fit_mle.self_s": self_s["fit.gp_fit_mle"],
            "fit.gp_fit_mle.ms_per_call": 1e3 * _ratio(self_s["fit.gp_fit_mle"], fits),
            "fit.optimizer_calls": c["optimizer_calls"],
            "fit.optimizer_calls_per_fit": _ratio(c["optimizer_calls"], fits),
            "fit.profile_ci.calls": calls["fit.profile_ci"],
            "fit.profile_ci.self_s": self_s["fit.profile_ci"],
            "fit.boundary_fits": c["boundary_fits"],
            "fit.fit_errors": errors["fit.gp_fit_mle"],
            "indexflood.at_site_index_flood.calls": calls["indexflood.at_site_index_flood"],
            "indexflood.at_site_index_flood.self_s": self_s["indexflood.at_site_index_flood"],
            "bayes.mcmc_sample.calls": calls["bayes.mcmc_sample"],
            "bayes.mcmc_sample.self_s": self_s["bayes.mcmc_sample"],
            "bayes.proposals": proposals,
            "bayes.us_per_proposal": 1e6 * _ratio(self_s["bayes.mcmc_sample"], proposals),
            "bayes.ess_per_kproposal": 1e3 * _ratio(ess, proposals),
            "bayes.elicit_prior.self_s": self_s["bayes.elicit_prior"],
            "bayes.donors_dropped": c["donors_dropped"],
            "bayes.acceptance_warnings": sum(len(ch.warnings) for ch in self.chains),
            "lmoments.sample_lmoments.calls": calls["lmoments.sample_lmoments"],
            "lmoments.sample_lmoments.self_s": self_s["lmoments.sample_lmoments"],
            "lmoments.kappa_fit_lmom.self_s": self_s["lmoments.kappa_fit_lmom"],
            "distributions.kappa_sample.self_s": self_s["distributions.kappa_sample"],
            "distributions.kappa_sample.draws": c["kappa_draws"],
            "regional.heterogeneity.self_s": self_s["regional.heterogeneity"],
            "regional.discordancy.self_s": self_s["regional.discordancy"],
            "regional.growth_curve.self_s": self_s["regional.growth_curve"],
            "evaluation.run_experiment.self_s": self_s["evaluation.run_experiment"],
            "evaluation.synth_region.self_s": self_s["evaluation.synth_region"],
            "evaluation.cells_attempted": c["cells_attempted"],
            "evaluation.cells_failed": c["cells_failed"],
        }
        for cmd in COMMANDS:
            out[f"cli.{cmd}.self_s"] = self_s[f"cli.{cmd}"]
            out[f"cli.{cmd}.fits"] = cmd_calls[(cmd, "fit.gp_fit_mle")]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        region_wall = sum(e - s for n, _p, _o, s, e, _x in spans if n == "cli.region")
        out["cli.region.fileio_pot_share"] = _ratio(
            cmd_self[("region", "fileio")] + cmd_self[("region", "pot")], region_wall
        )
        out["trace.spans"] = len(spans)
        return out


def write_spans(path, rounds) -> None:
    """Store the spans of every traced round as CSV, one row per span."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["id", "name", "parent", "op", "start_s", "end_s", "error"])
        first = 0
        t0 = rounds[0][0][3] if rounds and rounds[0] else 0.0
        for spans in rounds:
            for i, (name, parent, op, start, end, err) in enumerate(spans):
                w.writerow([first + i, name, first + parent if parent >= 0 else -1, op,
                            f"{start - t0:.9f}", f"{end - t0:.9f}", int(err)])
            first += len(spans)


def experiment_cells(k, n_models: int, n_lengths: int, replicates: int) -> tuple[int, int]:
    """(attempted, failed) model cells of an anchored evaluation report.

    Each replicate asks every model for one estimate per truncation
    length; a successful estimate adds one to the model's count ``k`` at
    every period.  Cells skipped after a failed regional preparation
    count as failed.
    """
    attempted = replicates * n_models * n_lengths
    return attempted, attempted - sum(row[0] for row in k)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
