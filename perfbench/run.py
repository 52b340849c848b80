"""Benchmark of the sparselink sweep -> rank -> reroute -> resynthesize
pipeline.

    python3 perfbench/run.py --workload pipeline_n10 --seed 0 --seconds 55 --trace 0

One caller in a closed loop: the next item starts only after the previous
one finished and was checked. ``--trace 0`` times items for ``--seconds``
seconds and reports the end-to-end metrics; ``--trace 1`` runs the
workload's fixed traced item set once untraced and once under the span
tracer and reports the per-layer metrics. The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics; the lines
before it are a readable report. See README.md.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_BASE = ROOT / ".perfbench_work"

BLAS_PINS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_REPEATS = 5
INPUT_POOL = 128

# Printed in the report but kept out of the JSON line: each is zero or
# undefined on some workload (README.md, "End-to-end metrics").
REPORT_ONLY_UNITS = {
    "fail_frac": "ratio",
    "j_before_rel": "ratio",
    "j_reroute_rel": "ratio",
    "feasible_frac": "ratio",
}

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import sparselink; "
    "print(repr(time.perf_counter() - t))"
)


class SetupError(Exception):
    """The checkout cannot run the benchmark (no package, wrong package)."""


def declared_units(trace: int) -> dict[str, str]:
    """name -> unit of the metrics BENCHMARK.json declares for the JSON
    line: end_to_end for an untraced run, per_layer for a traced one."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read BENCHMARK.json: {exc}") from exc
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def pin_blas() -> None:
    """One BLAS thread; must run before numpy is imported."""
    for var in BLAS_PINS:
        os.environ[var] = "1"


def bootstrap():
    """Import sparselink from this checkout's src/ and nowhere else."""
    init = SRC / "sparselink" / "__init__.py"
    if not init.is_file():
        raise SetupError(f"no sparselink package at {init}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sparselink

    if Path(sparselink.__file__).resolve() != init.resolve():
        raise SetupError(f"imported sparselink from {sparselink.__file__}, not {init}")
    return sparselink


def measure_import() -> float:
    """Seconds to import sparselink in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise SetupError(f"import probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    """HEAD commit read from .git without running git (the checkout may not
    be a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_pins": {var: os.environ.get(var) for var in BLAS_PINS},
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_item(wl, inp, index: int, work: Path, tracer=None) -> dict:
    """Time one item, then check it outside the timed (and traced) part."""
    item_dir = work / f"item-{index}"
    item_dir.mkdir()
    record = {"index": index, "failures": [], "quality": {}, "sha256": "", "bytes": 0}
    try:
        gc.collect()  # garbage of earlier items and checks is not this item's
        if tracer is not None:
            tracer.item, tracer.active = index, True
        t0 = time.perf_counter()
        try:
            output = wl.run(inp, item_dir)
        finally:
            record["seconds"] = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
        chk = wl.check(inp, output, item_dir)
        record.update(failures=chk.failures, quality=chk.quality,
                      sha256=chk.sha256, bytes=chk.artifact_bytes)
    except Exception:  # an item that raises counts as failed; the run goes on
        record["failures"].append(traceback.format_exc().strip().splitlines()[-1])
        traceback.print_exc(file=sys.stderr)
    finally:
        shutil.rmtree(item_dir, ignore_errors=True)
    return record


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _quality(items) -> dict:
    ok = [it for it in items if not it["failures"]]
    q = [it["quality"] for it in ok]
    out = {
        "fail_frac": (len(items) - len(ok)) / len(items),
        "j_struct_rel": _mean(x["j_struct_rel"] for x in q if "j_struct_rel" in x),
    }
    if any("feasible" in x for x in q):
        out["j_before_rel"] = _mean(x["j_before_rel"] for x in q)
        out["j_reroute_rel"] = _mean(x["j_reroute_rel"] for x in q if "j_reroute_rel" in x)
        out["feasible_frac"] = sum(x["feasible"] for x in q) / len(items)
    return out


def run_timed(wl, seed: int, seconds: float, work: Path) -> dict:
    """Set up SETUP_REPEATS times, then run items while one more item, at
    the pace so far, still ends within `seconds` (at least one item)."""
    from workloads import warm_up

    import_times = [measure_import() for _ in range(SETUP_REPEATS)]
    prep_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = [wl.make_input(seed, i) for i in range(INPUT_POOL)]
        warm_up()
        prep_times.append(time.perf_counter() - t0)

    items = []
    loop_start = time.perf_counter()
    while True:
        index = len(items)
        if index == len(inputs):
            inputs.append(wl.make_input(seed, index))
        items.append(run_item(wl, inputs[index], index, work))
        elapsed = time.perf_counter() - loop_start
        if elapsed * (len(items) + 1) / len(items) > seconds:
            break

    times = [it["seconds"] for it in items]
    metrics = {
        "item_s_p50": statistics.median(times),
        "items_per_min": 60.0 * len(times) / sum(times),
        "setup_s": statistics.median(import_times) + statistics.median(prep_times),
        "peak_rss_mb": peak_rss_mb(),
    }
    metrics.update(_quality(items))
    return {"items": items, "metrics": metrics}


def run_traced(wl, seed: int, work: Path) -> dict:
    """The workload's fixed item set, each item once untraced and then
    once traced (alternating, so drift in machine speed hits both sides);
    per-layer metrics come from the traced runs."""
    from tracing import Tracer, layer_metrics
    from workloads import warm_up

    warm_up()
    tracer = Tracer()
    plain, traced = [], []
    for i in range(wl.traced_items):
        plain.append(run_item(wl, wl.make_input(seed, i), i, work))
        tracer.install()
        try:
            traced.append(run_item(wl, wl.make_input(seed, i), i, work, tracer))
        finally:
            tracer.uninstall()
    for p, t in zip(plain, traced):
        if p["failures"] and not t["failures"]:
            t["failures"] = p["failures"]
        elif not t["failures"] and p["sha256"] != t["sha256"]:
            t["failures"].append("traced output differs from untraced output")

    metrics = layer_metrics(tracer)
    metrics["serialize.artifact_bytes"] = sum(it["bytes"] for it in traced)
    metrics["trace.overhead_frac"] = (
        sum(it["seconds"] for it in traced) / sum(it["seconds"] for it in plain) - 1.0
    )
    return {"items": traced, "metrics": metrics, "bindings": tracer.bindings}


def report(wl, args, env, declared, result) -> dict:
    """Print the readable report and return the final JSON object, whose
    metrics are exactly the `declared` ones."""
    items = result["items"]
    failed = sum(1 for it in items if it["failures"])
    print(f"perfbench workload={wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for it in items:
        status = "ok" if not it["failures"] else "FAIL " + "; ".join(it["failures"])
        print(f"item {it['index']} seconds={it['seconds']!r} "
              f"artifact_sha256={it['sha256']} {status}")
    shown = dict(declared)
    shown.update({k: u for k, u in REPORT_ONLY_UNITS.items() if k in result["metrics"]})
    for name, unit in shown.items():
        print(f"metric {name} = {result['metrics'][name]!r} {unit}")
    return {
        "correct": failed == 0,
        "attempted": len(items),
        "failed": failed,
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit}
            for name, unit in declared.items()
        },
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas()
    try:
        bootstrap()
        declared = declared_units(args.trace)
    except (SetupError, ImportError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    WORK_BASE.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_BASE))
    try:
        if args.trace:
            result = run_traced(wl, args.seed, work)
        else:
            result = run_timed(wl, args.seed, args.seconds, work)
    except SetupError as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_BASE.rmdir()
        except OSError:
            pass  # another run still uses it
    out = report(wl, args, environment(args.seed), declared, result)
    print(json.dumps(out, sort_keys=True), flush=True)
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
