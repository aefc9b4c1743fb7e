"""regflood benchmark: one workload, measured end to end or traced by layer.

    python3 perfbench/run.py --workload walkthrough --seed 0 --seconds 15 --trace 0

Run from the repository root.  The workload is one closed-loop caller
in this process that calls regflood's public functions (see
``workloads.py``).  It repeats rounds of its seeded input set until the
next round would end after ``--seconds``, checks every round's outputs
against ``reference.json`` and prints, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``:

- ``--trace 0``: the end-to-end metrics of BENCHMARK.json, untraced;
- ``--trace 1``: the per-layer metrics.  Rounds go untraced, traced,
  traced, and so on; per-layer figures come from the traced rounds,
  stage timings from the untraced ones, and their difference is the
  tracing overhead.

The line before it holds details: the environment, each timing's median,
high percentile and sample count, and any mismatches.  BLAS threading is
left as the environment sets it.  The exit code is 1 when a check fails
and 2 when the benchmark cannot run at all.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
OUT = HERE / "out"
SETUP_PROBES = 3  # set-up is repeated in fresh processes; setup_s is the median
STAGES = ("simulate", "extract", "fit", "region", "bayes", "evaluate")
UNIT_METRIC = {"walkthrough": "session_s", "experiment": "replicate_s", "screening": "screen_s"}


def _die(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _warm_up(rf) -> None:
    """Touch every layer once on tiny inputs, so lazy set-up is done."""
    region, truth = rf.synth_region(rf.SynthSpec(n_sites=6, years=8.0), seed=0)
    rf.run_experiment(
        rf.EvalConfig(lengths=(5,), mcmc=rf.McmcConfig(chains=1, iterations=1000, burn_in=250)),
        region=region,
    )
    rf.discordancy(region)
    rf.heterogeneity(region, nsim=50)
    rf.profile_ci(region.target_site.pot, 5.0)
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / "warmup.csv"
    rf.write_series_csv(path, rf.synth_daily_series(truth.site_params["S0"], years=3.0))
    series = rf.read_series_csv(path)
    rf.extract_pot(series, rf.select_threshold(series, 2.0).threshold)


def set_up(workload: str, seed: int):
    """Import regflood, warm it up and build the workload's inputs."""
    src = ROOT / "src"
    if not (src / "regflood" / "__init__.py").is_file():
        _die(f"no regflood sources under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    import regflood as rf
    import workloads

    _warm_up(rf)
    return rf, workloads.WORKLOADS[workload](seed % workloads.SETS, WORK), seed % workloads.SETS


def _probe_setup(args) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if done.returncode != 0:
        _die(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _summary(samples: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    out = {"median": statistics.median(samples) if samples else None, "n": n,
           "percentile": None, "high": None}
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - p / 100) >= 10:
            out["percentile"] = p
            out["high"] = statistics.quantiles(samples, n=1000, method="inclusive")[round(p * 10) - 1]
            break
    return out


def _environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():  # not the sha of an enclosing repository
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                 timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    import numpy
    import scipy

    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        **{var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _round_loop(wl, seconds: float, tracer, rf):
    """Run rounds until the next would end after ``seconds``."""
    rounds, figures, spans = [], [], []
    # traced runs go untraced, traced, traced, ...: at least two traced rounds
    # whose work counters must agree, and one untraced round to compare with
    need = max(wl.min_rounds, 3 if tracer else 1)
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 3 != 0
        if traced:
            tracer.reset()
            tracer.install()
        t = time.perf_counter()
        try:
            res = wl.run_round(len(rounds), tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        rounds.append((traced, res, time.perf_counter() - t))
        if traced:
            figures.append(tracer.figures(rf.chain_diagnostics))
            spans.append(list(tracer.spans))
        elapsed = time.perf_counter() - start
        if len(rounds) >= need and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds, figures, spans


def _per_layer(wl, rounds, figures, timings, spec) -> tuple[dict, list[str]]:
    """Per-unit layer figures of the traced rounds, plus stage timings."""
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    per_round = len(rounds[0][1].units)
    problems = []
    for name in figures[0]:
        seen = {f[name] for f in figures}
        if units[name] == "count" and len(seen) > 1:
            problems.append(f"work counter {name} differs between traced rounds: {sorted(seen)}")
    out = {}
    for name in figures[0]:
        scale = per_round if units[name] in ("count", "s") else 1
        out[name] = statistics.median(f[name] for f in figures) / scale
    traced_wall = statistics.median(w for traced, _, w in rounds if traced)
    plain_wall = statistics.median(w for traced, _, w in rounds if not traced)
    out["trace.overhead_s"] = (traced_wall - plain_wall) / per_round
    out["trace.overhead_ratio"] = (traced_wall - plain_wall) / plain_wall
    out["share.fit_bayes"] = (
        statistics.median(f["fit.self_s"] + f["bayes.self_s"] for f in figures) / traced_wall
    )
    for name in UNIT_METRIC.values():
        out[name] = 0.0
    out[UNIT_METRIC[wl.name]] = timings["unit_raw_s"]["median"]
    out["calibration_s"] = timings["calibration_s"]["median"]
    for stage in STAGES:
        out[f"{stage}_s"] = timings[f"{stage}_s"]["median"] if f"{stage}_s" in timings else 0.0
    out["failed_ratio"] = sum(r.failed for _, r, _ in rounds) / sum(r.attempted for _, r, _ in rounds)
    if set(units) != set(out):
        problems.append(f"per-layer metrics out of step with BENCHMARK.json: {sorted(set(units) ^ set(out))}")
    return {name: {"value": out[name], "unit": units[name]} for name in units if name in out}, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(UNIT_METRIC))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        _die("BENCHMARK.json not found; run from the repository root")
    rf, wl, set_index = set_up(args.workload, args.seed)
    import workloads

    setup_raw = time.perf_counter() - _T0
    # corrected for machine speed like the unit times, by a kernel timed after set-up
    speed = workloads.CALIBRATION_S / statistics.median(workloads.calibrate() for _ in range(3))
    setup_main = {"setup_s": setup_raw * speed, "setup_raw_s": setup_raw}
    if args.setup_only:
        print(json.dumps(setup_main))
        return 0

    import checks
    from tracing import Tracer, write_spans

    spec = json.loads(spec_path.read_text())
    ref_path = HERE / "reference.json"
    if not ref_path.is_file():
        _die(f"{ref_path.name} not found; make it with perfbench/make_reference.py")
    reference = json.loads(ref_path.read_text())[args.workload][str(set_index)]
    setup_samples = [setup_main] + [_probe_setup(args) for _ in range(SETUP_PROBES - 1)]

    tracer = Tracer(rf) if args.trace else None
    rounds, figures, spans = _round_loop(wl, args.seconds, tracer, rf)

    problems = []
    for i, (_, res, _) in enumerate(rounds):
        problems += [f"round {i}: {p}" for p in checks.compare(res.values, reference)]
    digests = {res.digest for _, res, _ in rounds}
    if len(digests) > 1:
        problems.append("repeated sessions wrote different machine outputs")
    attempted = sum(res.attempted for _, res, _ in rounds)
    failed = sum(res.failed for _, res, _ in rounds)

    plain = [res for traced, res, _ in rounds if not traced]
    units = [u for res in plain for u in res.units]
    timings = {
        "unit_s": _summary([wall * factor for wall, _, factor in units]),
        "cpu_s": _summary([cpu * factor for _, cpu, factor in units]),
        "unit_raw_s": _summary([wall for wall, _, _ in units]),
        "cpu_raw_s": _summary([cpu for _, cpu, _ in units]),
        "calibration_s": _summary([workloads.CALIBRATION_S / factor for _, _, factor in units]),
        "setup_s": _summary([s["setup_s"] for s in setup_samples]),
        "setup_raw_s": _summary([s["setup_raw_s"] for s in setup_samples]),
    }
    for stage in STAGES:
        walls = [w for res in plain for w in res.stages.get(stage, [])]
        if walls:
            timings[f"{stage}_s"] = _summary(walls)

    if args.trace:
        metrics, more = _per_layer(wl, rounds, figures, timings, spec)
        problems += more
        OUT.mkdir(parents=True, exist_ok=True)
        write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.csv", spans)
    else:
        values = {
            "setup_s": timings["setup_s"]["median"],
            "unit_s": timings["unit_s"]["median"],
            "cpu_s": timings["cpu_s"]["median"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "input_set": set_index,
        "trace": args.trace,
        "rounds": len(rounds),
        "environment": _environment(),
        "timings": timings,
        "failures": sorted({f for _, res, _ in rounds for f in res.values["failures"]}),
        "mismatches": problems,
    }
    print(json.dumps(detail))
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    shutil.rmtree(WORK, ignore_errors=True)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
