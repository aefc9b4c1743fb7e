"""Write reference.json: the outputs of every workload input set.

    python3 perfbench/make_reference.py

Run from the repository root, at the commit whose outputs the benchmark
should hold later commits to.  Each input set's round is run once;
Monte Carlo outputs are re-sampled under ``VARIANTS`` other seeds to
measure their tolerance.  Rows with failed cells are left out, so a
later commit that fixes a failure still matches.  Every workload is
regenerated and the file is written afresh.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

WORK = HERE / "work"
VARIANTS = 4


def reference_entry(wl) -> dict:
    res = wl.run_round(0)
    if res.failed and not res.values["failures"]:
        raise RuntimeError(f"{wl.name}: a command failed while making the reference")
    values = res.values
    incomplete = tuple(values.pop("incomplete", ()))
    for kind in ("exact", "mc"):
        values[kind] = {k: v for k, v in values[kind].items() if not k.startswith(incomplete)}
    mc = values["mc"]
    if mc:
        samples = [wl.mc_variant(k) for k in range(1, VARIANTS + 1)]
        values["mc"] = checks.mc_tolerances(mc, samples)
    return values


def main() -> int:
    reference = {}
    for name, cls in sorted(workloads.WORKLOADS.items()):
        reference[name] = {
            str(i): reference_entry(cls(i, WORK)) for i in range(workloads.SETS)
        }
        print(f"{name}: {workloads.SETS} input sets", file=sys.stderr)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
