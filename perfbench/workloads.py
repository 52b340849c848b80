"""Workloads: how each item's input is made from the seed, what the timed
call is, and how its output is checked.

Every workload drives only the public ``sparselink`` API, always through
attribute lookups on the package (``sl.run_pipeline``), so the tracer's
wrappers see each call. Item ``i`` of a run with seed ``s`` uses the plant
seed ``1000 * s + i``.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import sparselink as sl

ATTACK = {"top_fraction": 0.25}
DENSITIES = (0.0, 0.1, 0.3)

SWEEP_MONOTONE_TOL = 1e-6
ORDER_TOL = 1e-9
COST_FLOOR_REL = 1e-9


def item_seed(seed: int, index: int) -> int:
    return 1000 * seed + index


@dataclass
class ItemCheck:
    """Correctness verdict and outputs of one item."""

    failures: list[str] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)
    sha256: str = ""
    artifact_bytes: int = 0


def _check_synthesis(plant, gain, pattern, cost, j_c, label, failures):
    """A synthesized gain is stabilizing, exactly zero off-pattern, and no
    cheaper than the centralized optimum."""
    if not sl.is_stabilizing(plant, gain):
        failures.append(f"{label}: gain is not stabilizing")
    off = pattern.complement_identity() != 0.0
    if np.any(gain.K[off] != 0.0):
        failures.append(f"{label}: non-zero entries off the pattern")
    if not math.isfinite(cost) or cost < j_c * (1.0 - COST_FLOOR_REL):
        failures.append(f"{label}: cost {cost!r} below J(K_c) = {j_c!r}")


def _centralized_cost(plant) -> float:
    return sl.closed_loop_cost(plant, sl.lqr_centralized(plant))


def _digest(named_bytes) -> str:
    h = hashlib.sha256()
    for name, data in sorted(named_bytes.items()):
        h.update(name.encode("utf-8") + b"\0")
        h.update(len(data).to_bytes(8, "big"))
        h.update(data)
    return h.hexdigest()


def _read_all(paths) -> dict[str, bytes]:
    return {Path(p).name: Path(p).read_bytes() for p in paths}


@dataclass(frozen=True)
class PipelineWorkload:
    """run_pipeline then write_artifacts on GeneratorSpec(n_nodes, seed)."""

    name: str
    n_nodes: int
    traced_items: int

    def make_input(self, seed: int, index: int):
        s = item_seed(seed, index)
        return sl.Scenario(
            name=f"{self.name}-{s}",
            generator=sl.GeneratorSpec(self.n_nodes, s),
            attack=dict(ATTACK),
        )

    def run(self, scenario, work_dir: Path):
        result = sl.run_pipeline(scenario)
        paths = sl.write_artifacts(result, work_dir / "first")
        return result, paths

    def check(self, scenario, output, work_dir: Path) -> ItemCheck:
        result, paths = output
        chk = ItemCheck()
        fail = chk.failures
        plant = result.plant
        j_c = _centralized_cost(plant)

        costs = [e.cost_polished for e in result.sweep.entries]
        for idx, (lo, hi) in enumerate(zip(costs, costs[1:])):
            if hi < lo - SWEEP_MONOTONE_TOL:
                fail.append(f"sweep cost_polished decreases at entry {idx + 1}")

        rep = result.report
        out = result.outcome
        if rep.feasible:
            if not rep.j_before <= rep.j_reroute + ORDER_TOL:
                fail.append(f"j_before {rep.j_before!r} > j_reroute {rep.j_reroute!r}")
            if out.rerouted | out.dropped != out.attacked:
                fail.append("rerouted | dropped != attacked")
            if out.rerouted & out.dropped:
                fail.append("rerouted and dropped overlap")

        for idx, e in enumerate(result.sweep.entries):
            _check_synthesis(plant, e.polished_gain, e.pattern, e.cost_polished,
                             j_c, f"sweep entry {idx}", fail)
        _check_synthesis(plant, result.before.gain, result.pattern_before,
                         result.before.cost, j_c, "before", fail)
        if result.after is not None:
            _check_synthesis(plant, result.after.gain, result.pattern_after,
                             result.after.cost, j_c, "after", fail)

        first = _read_all(paths)
        second = _read_all(sl.write_artifacts(result, work_dir / "second"))
        if first != second:
            fail.append("write_artifacts bytes differ between two calls")
        chk.sha256 = _digest(first)
        chk.artifact_bytes = sum(len(b) for b in first.values())

        chk.quality["j_before_rel"] = rep.j_before / j_c
        chk.quality["feasible"] = float(rep.feasible)
        if rep.feasible:
            chk.quality["j_reroute_rel"] = rep.j_reroute / rep.j_before
            chk.quality["j_struct_rel"] = rep.j_reroute / j_c
        return chk


@dataclass(frozen=True)
class ColdSynthInput:
    plant: object
    pattern: object


@dataclass(frozen=True)
class ColdSynthWorkload:
    """Cold synthesize_structured_info(plant, pattern) with init=None on
    generate_plant(n_nodes, seed) and the pattern eye | U < d, cycling d
    through DENSITIES so every run gets the same mix."""

    name: str
    n_nodes: int
    traced_items: int

    def make_input(self, seed: int, index: int) -> ColdSynthInput:
        s = item_seed(seed, index)
        plant = sl.generate_plant(self.n_nodes, s)
        density = DENSITIES[index % len(DENSITIES)]
        u = np.random.default_rng(s).uniform(size=(self.n_nodes, self.n_nodes))
        mask = np.eye(self.n_nodes, dtype=bool) | (u < density)
        return ColdSynthInput(plant, sl.SparsityPattern(mask, plant.partition))

    def run(self, inp: ColdSynthInput, work_dir: Path):
        return sl.synthesize_structured_info(inp.plant, inp.pattern)

    def check(self, inp: ColdSynthInput, info, work_dir: Path) -> ItemCheck:
        chk = ItemCheck()
        j_c = _centralized_cost(inp.plant)
        _check_synthesis(inp.plant, info.gain, inp.pattern, info.cost, j_c,
                         "cold synthesis", chk.failures)
        doc = sl.dumps_canonical(sl.gain_to_doc(info, inp.pattern)).encode("utf-8")
        chk.sha256 = _digest({"gain.json": doc})
        chk.artifact_bytes = len(doc)
        chk.quality["j_struct_rel"] = info.cost / j_c
        return chk


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# traced_items is the fixed item set of a traced run (items 0..n-1).
WORKLOADS = {
    w.name: w
    for w in (
        PipelineWorkload("pipeline_n10", 10, traced_items=2),
        ColdSynthWorkload("synth_cold_n20", 20, traced_items=30),
    )
}


def warm_up() -> None:
    """Exercise the closed-loop kernel, descent and serialization once on a
    tiny plant so first-call costs land in set-up, not in the first item."""
    tiny = ColdSynthWorkload("warm_up", 3, traced_items=1)
    inp = tiny.make_input(0, 0)
    info = tiny.run(inp, Path("."))
    sl.dumps_canonical(sl.gain_to_doc(info, inp.pattern))
