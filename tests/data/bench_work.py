"""Work counts and wall times of a fixed case list, on one or more source trees.

    python tests/data/bench_work.py --side parent=/path/to/old/src --side change=src \
        --repeats 5 --out BENCH.json

Each side is a label and a directory that holds the sparselink package. For
each side a child interpreter (PYTHONPATH set to that directory) runs every
case once and reports its counts (make_outputs.work_counts) and its wall
time. Counts come first in the output: they repeat exactly, and the script
fails when a repeat disagrees. Wall times come apart, as the median and
quartiles of the repeats per case group; the sides alternate which runs
first in each repeat. Set OPENBLAS_NUM_THREADS=1 for comparable times.

The cases are run_pipeline on GeneratorSpec(10, 0-2), (20, 0) and
(2-6, 0-4) at top_fraction 0.25 (make_outputs.ATTACK), and the cold
syntheses of synth_cold_n20 items 0-8 at seed 0 (perfbench/workloads.py
makes their inputs).
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
PERFBENCH = HERE.parent.parent / "perfbench"

GROUPS = {
    "pipeline_n10": [("pipeline", 10, seed) for seed in range(3)],
    "pipeline_n20": [("pipeline", 20, 0)],
    "pipeline_small": [("pipeline", n, seed) for n in range(2, 7) for seed in range(5)],
    "synth_cold_n20": [("cold", 20, index) for index in range(9)],
}


def case_name(kind, n, seed) -> str:
    return f"GeneratorSpec({n}, {seed})" if kind == "pipeline" else f"synth_cold_n20 seed 0 item {seed}"


def run_cases() -> dict:
    """Every case once in this interpreter: {group: {case: counts}} and the
    wall seconds of each group."""
    sys.path[:0] = [str(HERE), str(PERFBENCH)]
    import make_outputs
    import sparselink as sl
    from workloads import WORKLOADS

    cold = WORKLOADS["synth_cold_n20"]
    counts, seconds = {}, {}
    for group, cases in GROUPS.items():
        counts[group] = {}
        t0 = time.perf_counter()
        for kind, n, seed in cases:
            if kind == "pipeline":
                scenario = sl.Scenario(name=f"bench-{n}-{seed}", generator=sl.GeneratorSpec(n, seed),
                                       attack=dict(make_outputs.ATTACK))
                with make_outputs.work_counts() as work:
                    sl.run_pipeline(scenario)
            else:
                inp = cold.make_input(0, seed)
                with make_outputs.work_counts() as work:
                    sl.synthesize_structured_info(inp.plant, inp.pattern)
            counts[group][case_name(kind, n, seed)] = work
        seconds[group] = time.perf_counter() - t0
    return {"counts": counts, "seconds": seconds}


def run_side(src: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    out = subprocess.run([sys.executable, __file__, "--child"], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def totals(counts: dict) -> dict:
    return {group: {key: sum(case[key] for case in cases.values())
                    for key in next(iter(cases.values()))}
            for group, cases in counts.items()}


def quartiles(values) -> dict:
    if len(values) < 2:
        return {"median": values[0], "runs": values}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--side", action="append", default=[], metavar="LABEL=SRC")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(run_cases()))
        return 0

    sides = dict(side.split("=", 1) for side in args.side) or {"change": "src"}
    runs = {label: [] for label in sides}
    for r in range(args.repeats):
        order = list(sides) if r % 2 == 0 else list(sides)[::-1]
        for label in order:
            runs[label].append(run_side(sides[label]))
    for label, side_runs in runs.items():
        if any(run["counts"] != side_runs[0]["counts"] for run in side_runs):
            raise SystemExit(f"{label}: counts differ between repeats")

    import numpy
    import scipy

    doc = {
        "command": "python tests/data/bench_work.py " + " ".join(f"--side {s}" for s in args.side)
                   + f" --repeats {args.repeats}",
        "environment": {
            "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"), "cpus": os.cpu_count(),
        },
        "counts": {
            "totals": {label: totals(side_runs[0]["counts"]) for label, side_runs in runs.items()},
            "cases": {label: side_runs[0]["counts"] for label, side_runs in runs.items()},
        },
        "wall_s": {
            label: {group: quartiles([run["seconds"][group] for run in side_runs]) for group in GROUPS}
            for label, side_runs in runs.items()
        },
    }
    text = json.dumps(doc, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
