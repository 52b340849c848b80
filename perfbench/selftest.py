"""Self-test of the benchmark on tiny inputs (N=3), about 15 s:

    python3 perfbench/selftest.py

Checks that the workloads and metrics BENCHMARK.json declares are the ones
the harness runs and emits, each by name with a unit; that the tracer wraps
every binding of the traced functions; and that two traced runs on one seed
give identical counts. Exits 1 and lists what failed otherwise.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import run

PROBLEMS: list[str] = []


def expect(ok: bool, what: str) -> None:
    if not ok:
        PROBLEMS.append(what)


def emitted(wl, trace: int, result) -> dict:
    """Run the report printer; check the JSON line carries a number and a
    unit for every declared metric; return {name: unit} of the metric lines
    printed."""
    declared = run.declared_units(trace)
    expect(set(declared) <= set(result["metrics"]),
           f"{wl.name}: declared metrics not computed: "
           f"{sorted(set(declared) - set(result['metrics']))}")
    if set(declared) - set(result["metrics"]):
        return {}
    args = SimpleNamespace(seed=0, seconds=0, trace=trace)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        out = run.report(wl, args, run.environment(0), declared, result)
    json.loads(json.dumps(out, allow_nan=False))
    expect(out["correct"] and out["failed"] == 0 and out["attempted"] >= 1,
           f"{wl.name} trace={trace}: items failed: {result['items']}")
    expect(sorted(out["metrics"]) == sorted(declared), f"{wl.name}: JSON metric set")
    for name, m in out["metrics"].items():
        expect(isinstance(m["value"], (int, float)) and bool(m["unit"]),
               f"{wl.name}: JSON metric {name} lacks a numeric value or unit")
    units = {}
    for line in buf.getvalue().splitlines():
        if line.startswith("metric "):
            _, name, _, _, unit = line.split(" ")
            units[name] = unit
    return units


def counts(metrics: dict) -> dict:
    units = run.declared_units(1)
    return {k: metrics[k] for k, unit in units.items() if unit in ("count", "bytes")}


def main() -> int:
    run.pin_blas()
    run.bootstrap()
    from workloads import WORKLOADS, ColdSynthWorkload, PipelineWorkload

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json workloads differ from workloads.WORKLOADS")
    pipe = PipelineWorkload("tiny_pipeline", 3, traced_items=1)
    synth = ColdSynthWorkload("tiny_synth", 3, traced_items=1)

    run.WORK_BASE.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK_BASE))
    try:
        report_only = set(run.REPORT_ONLY_UNITS)
        for wl, extra in ((pipe, report_only), (synth, {"fail_frac"})):
            units = emitted(wl, 0, run.run_timed(wl, 0, 1e-3, work))
            missing = sorted((set(run.declared_units(0)) | extra) - set(units))
            expect(not missing, f"{wl.name}: end-to-end metrics not printed: {missing}")

        traced = {}
        for wl in (pipe, synth):
            first = run.run_traced(wl, 0, work)
            second = run.run_traced(wl, 0, work)
            units = emitted(wl, 1, first)
            missing = sorted(set(run.declared_units(1)) - set(units))
            expect(not missing, f"{wl.name}: per-layer metrics not printed: {missing}")
            expect(set(first["metrics"]) == set(run.declared_units(1)),
                   f"{wl.name}: computed per-layer metrics differ from BENCHMARK.json")
            expect(counts(first["metrics"]) == counts(second["metrics"]),
                   f"{wl.name}: traced counts differ between two runs on one seed")
            traced[wl.name] = first
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK_BASE.rmdir()

    bindings = traced[pipe.name]["bindings"]
    for name in ("sparselink.sparse.descend", "sparselink.structured.descend"):
        expect(name in bindings["descent.descend"], f"descend not wrapped as {name}")
    for name in ("sparselink.sparse.synthesize_structured_info",
                 "sparselink.priority.synthesize_structured_info",
                 "sparselink.scenario.synthesize_structured_info"):
        expect(name in bindings["structured.synth"], f"synthesis not wrapped as {name}")

    p, s = traced[pipe.name]["metrics"], traced[synth.name]["metrics"]
    expect(p["sparse.sparse_gain.calls"] > 0, "pipeline ran no sparse_gain")
    expect(p["structured.cold_calls"] == 0, "pipeline made a cold synthesis")
    expect(s["structured.al_outer"] > 0, "cold synthesis ran no AL outer iteration")
    expect(s["structured.cold_calls"] == 1, "cold synthesis not counted as cold")
    for name in ("sparse.sparse_gain.calls", "sparse.block_frobenius.calls",
                 "sparse.block_soft_threshold.calls", "priority.removal_loss.calls"):
        expect(s[name] == 0, f"cold synthesis touched {name}")

    for problem in PROBLEMS:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if PROBLEMS else "passed"))
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
