"""Comparison of a round's outputs with the stored reference.

Deterministic values must agree to ``RTOL`` relative to ``max(1, |ref|)``,
which admits rounding noise and a re-ordered reduction but not a changed
estimate.  Values printed with two decimals may differ by one in the
last printed digit.  Monte Carlo values carry their own tolerance in the
reference, ``MC_SIGMAS`` standard deviations of the value across sampler
seeds, so a statistically equivalent sampler passes.

The reference only holds cells that succeeded at this commit: a cell
that starts to fail is a mismatch, a cell that stops failing is not.
"""

from __future__ import annotations

import math
import statistics

RTOL = 1e-6
PRINTED_TOL = 0.0101
MC_SIGMAS = 8.0


def compare(values: dict, ref: dict) -> list[str]:
    """Mismatches between a round's ``values`` and its reference entry."""
    problems = []

    def check(kind, key, got, want, tol):
        if got is None or want is None:
            if got is not want:
                problems.append(f"{kind} {key}: got {got!r}, reference {want!r}")
        elif not abs(got - want) <= tol:
            problems.append(f"{kind} {key}: got {got!r}, reference {want!r} (tolerance {tol:.3g})")

    for key, want in ref["exact"].items():
        if key not in values["exact"]:
            problems.append(f"exact {key}: missing")
            continue
        check("exact", key, values["exact"][key], want, RTOL * max(1.0, abs(want or 0.0)))
    for key, want in ref["rounded"].items():
        if key not in values["rounded"]:
            problems.append(f"printed {key}: missing")
            continue
        check("printed", key, values["rounded"][key], want, PRINTED_TOL)
    for key, (want, tol) in ref["mc"].items():
        if key not in values["mc"]:
            problems.append(f"monte-carlo {key}: missing")
            continue
        check("monte-carlo", key, values["mc"][key], want, tol)
    new = sorted(set(values["failures"]) - set(ref["failures"]))
    problems.extend(f"new failure: {cell}" for cell in new)
    return problems


def mc_tolerances(values: dict, variants: list[dict]) -> dict[str, list[float]]:
    """Reference entries ``key -> [value, tolerance]`` for Monte Carlo outputs.

    Each key's spread is its standard deviation over the reference seed
    and the variant seeds.  Few seeds estimate one key's spread poorly,
    so the tolerance also never falls below the pooled spread of its
    group: relative errors (``nbias``/``nrmse``) pool on their own scale,
    return levels pool relative to their size.
    """
    spreads, pools = {}, {"abs": [], "rel": []}
    for key, value in values.items():
        samples = [value] + [v[key] for v in variants if key in v]
        sd = statistics.stdev(samples) if len(samples) > 2 else 0.0
        group = "abs" if (".nbias." in key or ".nrmse." in key) else "rel"
        spreads[key] = (sd, group)
        pools[group].append(sd if group == "abs" else sd / abs(value))
    pooled = {g: math.sqrt(statistics.fmean(v * v for v in vals)) if vals else 0.0 for g, vals in pools.items()}
    out = {}
    for key, value in values.items():
        sd, group = spreads[key]
        floor = pooled[group] if group == "abs" else pooled[group] * abs(value)
        out[key] = [value, MC_SIGMAS * max(sd, floor)]
    return out
