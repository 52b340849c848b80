"""End-to-end scenario driver: random coupled-plant generation, the
sweep -> rank -> attack -> reroute -> resynthesize pipeline, and the
before / immediately-after-attack / after-reroute cost report.

The pre-attack gain and j_before are the first sweep entry's structured
synthesis (SweepEntry.polished), taken as the sweep made it. j_attack is
the cost of the pre-attack gain projected onto the table's blocks without
the attacked ones, the pattern that pattern_attack draws (GainMatrix.project,
no resynthesis), so it can be +inf when the mutilated gain no longer
stabilizes. j_reroute comes from the pipeline's one structured synthesis,
on the post-attack pattern, started from the pre-attack gain.
"""
from __future__ import annotations

import csv
import dataclasses
import io
import math
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidAssumption, _integer, _real, _shown
from .h2 import closed_loop_cost
from .plant import _MAX_DIM, BlockPartition, LtiPlant, SparsityPattern
from .priority import PriorityTable, rank_links
from .render import render_pattern
from .reroute import RerouteOutcome, _links_without, _validated_attack, pattern_from, select_reroute
from .serialize import (
    _fields,
    _one_of,
    attack_from_doc,
    attack_spec,
    dumps_canonical,
    gain_to_doc,
    outcome_to_doc,
    plant_from_doc,
    plant_to_doc,
    read_json,
    table_to_doc,
)
from .sparse import SweepResult, sparsity_sweep, sweep_csv
from .structured import SynthesisInfo, synthesize_structured_info


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for the random coupled plant: N nodes, each with node_state
    states and node_input controls, drift entries uniform on [0, 1] shifted
    left so the dominant eigenvalue sits at -delta. n = N node_state and
    m = N node_input are at most _MAX_DIM, checked before any allocation."""

    n_nodes: int
    seed: int
    delta: float = 0.1
    node_state: int = 2
    node_input: int = 1

    def __post_init__(self):
        for name in ("n_nodes", "seed", "node_state", "node_input"):
            _integer(getattr(self, name), f"generator {name}")
        _real(self.delta, "generator delta")
        if self.n_nodes < 2:
            raise InvalidAssumption(f"generator needs n_nodes >= 2, got {self.n_nodes}")
        if self.seed < 0:
            raise InvalidAssumption(f"generator needs seed >= 0, got {self.seed}")
        if not 0 < self.delta < math.inf:
            raise InvalidAssumption(f"generator needs a finite delta > 0, got {self.delta}")
        if self.node_state < 1 or self.node_input < 1:
            raise InvalidAssumption("node dimensions must be positive")
        if max(self.n_nodes * self.node_state, self.n_nodes * self.node_input) > _MAX_DIM:
            raise InvalidAssumption(f"generated plant dimensions n and m must be at most {_MAX_DIM}")

    def plant(self) -> LtiPlant:
        """Random stable coupled plant: A = M - (max Re lambda(M) + delta) I
        with M entrywise uniform on [0, 1]; per-node input block puts gain 10
        on the leading states; W = 0.5 I, Q = I, R = 10 I."""
        n = self.n_nodes * self.node_state
        m = self.n_nodes * self.node_input
        rng = np.random.default_rng(self.seed)
        drift = rng.uniform(0.0, 1.0, size=(n, n))
        shift = float(np.max(np.linalg.eigvals(drift).real)) + self.delta
        a = drift - shift * np.eye(n)

        b = np.kron(np.eye(self.n_nodes), 10.0 * np.eye(self.node_state, self.node_input))
        partition = BlockPartition(
            (self.node_input,) * self.n_nodes, (self.node_state,) * self.n_nodes
        )
        return LtiPlant(
            a, b, 0.5 * np.eye(n), np.eye(n), 10.0 * np.eye(m), partition
        )


def generate_plant(
    n_nodes: int,
    seed: int,
    delta: float = GeneratorSpec.delta,
    *,
    node_state: int = GeneratorSpec.node_state,
    node_input: int = GeneratorSpec.node_input,
) -> LtiPlant:
    """The plant of GeneratorSpec(n_nodes, seed, delta, node_state, node_input)."""
    return GeneratorSpec(n_nodes, seed, delta, node_state, node_input).plant()


@dataclass(frozen=True)
class Scenario:
    """Everything the pipeline needs: a plant source (generator spec or an
    inline plant document), the sweep's beta schedule (None: the default
    schedule of sparsity_sweep; checked there), and the attack spec (raw
    JSON form; its form and values are checked here, its bound N^2 when
    the plant resolves in run_pipeline, its range against the table's r1
    at reroute time)."""

    name: str
    generator: GeneratorSpec | None = None
    plant_doc: dict | None = None
    beta_schedule: Sequence[float] | None = None
    attack: dict | None = None

    def __post_init__(self):
        if (self.generator is None) == (self.plant_doc is None):
            raise InvalidAssumption(
                "scenario needs exactly one plant source: generator or inline plant"
            )
        attack_spec(self.attack)

    def resolve_plant(self) -> LtiPlant:
        if self.generator is not None:
            return self.generator.plant()
        return plant_from_doc(self.plant_doc)


def scenario_from_doc(doc: dict, *, name: str = "scenario", base_dir=None, seed=None) -> Scenario:
    """Build a Scenario from its JSON document. seed, when given, overrides
    the generator's seed (the CLI --seed flag); InvalidAssumption when the
    plant comes from no generator."""
    _fields(doc, "scenario", ("plant",), ("name", "sparsity", "attack"))
    sparsity = {} if doc.get("sparsity") is None else doc["sparsity"]
    _fields(sparsity, "scenario sparsity", (), ("beta_schedule",))
    kind, value = _one_of(doc["plant"], "scenario plant", ("generator", "inline", "file"))
    if seed is not None and kind != "generator":
        raise InvalidAssumption(f"a seed applies only to a generator plant, not to the {kind} plant")
    generator = None
    plant_doc = None
    if kind == "generator":
        required = ("n_nodes",) if seed is not None else ("n_nodes", "seed")
        keys = [f.name for f in dataclasses.fields(GeneratorSpec)]
        value = _fields(value, "generator spec", required, keys)
        generator = GeneratorSpec(**(value if seed is None else dict(value, seed=seed)))
    elif kind == "inline":
        plant_doc = value
    else:
        if not isinstance(value, str):
            raise InvalidAssumption(f"scenario plant file must be a path string, got {_shown(value)}")
        path = Path(value)
        if base_dir is not None and not path.is_absolute():
            path = Path(base_dir) / path
        plant_doc = read_json(path)
    name = doc.get("name", name)
    if not isinstance(name, str):
        raise InvalidAssumption(f"scenario name must be a string, got {_shown(name)}")
    return Scenario(
        name=name,
        generator=generator,
        plant_doc=plant_doc,
        beta_schedule=sparsity.get("beta_schedule"),
        attack=doc.get("attack"),
    )


def load_scenario(path, *, seed=None) -> Scenario:
    path = Path(path)
    return scenario_from_doc(
        read_json(path), name=path.stem, base_dir=path.parent, seed=seed
    )


@dataclass(frozen=True)
class CostReport:
    scenario: str
    j_before: float
    j_attack: float
    j_reroute: float | None
    n_attacked: int
    n_sacrificed: int
    n_dropped: int
    feasible: bool


_REPORT_COLUMNS = tuple(f.name for f in dataclasses.fields(CostReport))


@dataclass(frozen=True)
class PipelineResult:
    plant: LtiPlant
    sweep: SweepResult
    table: PriorityTable
    outcome: RerouteOutcome
    pattern_before: SparsityPattern
    pattern_after: SparsityPattern | None
    before: SynthesisInfo
    after: SynthesisInfo | None
    report: CostReport


def run_pipeline(scenario: Scenario) -> PipelineResult:
    plant = scenario.resolve_plant()
    # r1 <= N^2: an attack past N^2 fails before the sweep (a count inside attack_from_doc)
    n_blocks = plant.partition.n_nodes ** 2
    _validated_attack(n_blocks, attack_from_doc(scenario.attack, n_blocks))
    sweep = sparsity_sweep(plant, scenario.beta_schedule)
    table = rank_links(plant, sweep)

    # The deployed pre-attack gain is the polished first sweep entry (the
    # densest footprint, which also defines the table's block universe).
    pattern_before = sweep.entries[0].pattern
    before = sweep.entries[0].polished

    outcome = select_reroute(table, attack_from_doc(scenario.attack, table.r1))

    after = None
    pattern_after = None
    j_reroute = None
    if outcome.feasible:
        pattern_after = pattern_from(outcome, plant.partition)
        after = synthesize_structured_info(plant, pattern_after, init=before.gain)
        j_reroute = after.cost

    survivors = _links_without(table, outcome.attacked, plant.partition)
    j_attack = closed_loop_cost(plant, before.gain.project(survivors))

    report = CostReport(
        scenario=scenario.name,
        j_before=before.cost,
        j_attack=j_attack,
        j_reroute=j_reroute,
        n_attacked=len(outcome.attacked),
        n_sacrificed=len(outcome.sacrificed),
        n_dropped=len(outcome.dropped),
        feasible=outcome.feasible,
    )
    return PipelineResult(
        plant=plant,
        sweep=sweep,
        table=table,
        outcome=outcome,
        pattern_before=pattern_before,
        pattern_after=pattern_after,
        before=before,
        after=after,
        report=report,
    )


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def report_csv(reports) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_REPORT_COLUMNS)
    for r in reports:
        writer.writerow([_fmt(getattr(r, column)) for column in _REPORT_COLUMNS])
    return buf.getvalue()


def report_to_doc(report: CostReport) -> dict:
    """The report as a JSON object; a non-finite j_attack is null (JSON has
    no Infinity), where report_csv writes inf."""
    doc = dataclasses.asdict(report)
    if not math.isfinite(doc["j_attack"]):
        doc["j_attack"] = None
    return doc


def write_artifacts(result: PipelineResult, out_dir) -> list:
    """Write every pipeline artifact under out_dir; a fixed file set whose
    bytes are a pure function of the scenario."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = {
        "plant.json": dumps_canonical(plant_to_doc(result.plant)),
        "sweep.csv": sweep_csv(result.sweep),
        "table.json": dumps_canonical(table_to_doc(result.table)),
        "outcome.json": dumps_canonical(outcome_to_doc(result.outcome)),
        "gain_before.json": dumps_canonical(
            gain_to_doc(result.before, result.pattern_before)
        ),
        "report.json": dumps_canonical(report_to_doc(result.report)),
        "report.csv": report_csv([result.report]),
    }
    partition = result.plant.partition
    views = [
        ("pattern_before", result.pattern_before, {}),
        ("pattern_attack", result.table, {"attacked": result.outcome.attacked, "partition": partition}),
    ]
    if result.after is not None:
        files["gain_after.json"] = dumps_canonical(
            gain_to_doc(result.after, result.pattern_after)
        )
        views.append(("pattern_after", result.outcome, {"partition": partition}))
    for name, source, options in views:
        files[f"{name}.txt"] = render_pattern(source, **options)
        files[f"{name}.svg"] = render_pattern(source, "svg", **options)
    written = []
    for name, content in sorted(files.items()):
        path = out / name
        path.write_text(content, encoding="utf-8")
        written.append(path)
    return written
