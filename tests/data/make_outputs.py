"""Regenerate outputs.json, the pipeline outputs pinned by tests/test_outputs.py.

    PYTHONPATH=src python tests/data/make_outputs.py

Each pipeline record holds, for run_pipeline on GeneratorSpec(n_nodes, seed)
under ATTACK: the sweep betas, masks and polished costs, the table order
(i, j, q, s) and values, the outcome sets, and j_before, j_attack and
j_reroute. The cold record is the cold structured synthesis of the first
synth_cold_n20 item (seed 0, item 0: generate_plant(20, 0) on the diagonal
pattern): its cost and gain. JSON has no Infinity, so an infinite j_attack
is null. Regenerate only when a change moves these outputs on purpose.
"""
import json
import math
import re
from pathlib import Path

import sparselink as sl

CORPUS = Path(__file__).with_name("outputs.json")
PIPELINES = ((4, 0), (6, 0), (10, 0))
ATTACK = {"top_fraction": 0.25}
COLD = (20, 0)


def _mask(pattern) -> list[str]:
    return ["".join("1" if free else "0" for free in row) for row in pattern.mask]


def pipeline_record(n_nodes: int, seed: int) -> dict:
    res = sl.run_pipeline(sl.Scenario(
        name=f"outputs-{n_nodes}-{seed}",
        generator=sl.GeneratorSpec(n_nodes, seed),
        attack=dict(ATTACK),
    ))
    entries, out, rep = res.sweep.entries, res.outcome, res.report
    return {
        "spec": [n_nodes, seed],
        "betas": [e.beta for e in entries],
        "masks": [_mask(e.pattern) for e in entries],
        "costs_polished": [e.cost_polished for e in entries],
        "table_order": [[r.i, r.j, r.q, r.size] for r in res.table.rows],
        "table_values": [list(r.values) for r in res.table.rows],
        "outcome": {
            "feasible": out.feasible,
            **{name: sorted(getattr(out, name)) for name in ("attacked", "sacrificed", "rerouted", "dropped")},
        },
        "j_before": rep.j_before,
        "j_attack": rep.j_attack if math.isfinite(rep.j_attack) else None,
        "j_reroute": rep.j_reroute,
    }


def cold_record(n_nodes: int, seed: int) -> dict:
    plant = sl.generate_plant(n_nodes, seed)
    info = sl.synthesize_structured_info(plant, sl.SparsityPattern.diagonal(plant.partition))
    return {"spec": [n_nodes, seed], "cost": info.cost, "gain": info.gain.K.tolist()}


def corpus() -> dict:
    return {
        "pipelines": [pipeline_record(*spec) for spec in PIPELINES],
        "cold": cold_record(*COLD),
    }


def dumps(doc) -> str:
    """Indented JSON with every list of scalars on one line."""
    text = json.dumps(doc, indent=1)
    return re.sub(r"\[\s+([^\[\]{}]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text) + "\n"


if __name__ == "__main__":
    CORPUS.write_text(dumps(corpus()), encoding="utf-8")
