"""Regenerate outputs.json, the pipeline outputs pinned by tests/test_outputs.py.

    PYTHONPATH=src python tests/data/make_outputs.py

Each pipeline record holds, for run_pipeline on GeneratorSpec(n_nodes, seed)
under ATTACK: the sweep betas, masks and polished costs, the table order
(i, j, q, s) and values, the outcome sets, and j_before, j_attack and
j_reroute. The cold record is the cold structured synthesis of the first
synth_cold_n20 item (seed 0, item 0: generate_plant(20, 0) on the diagonal
pattern): its cost and gain. JSON has no Infinity, so an infinite j_attack
is null.

Beside the records, the digest section holds the SHA-256 of every
write_artifacts file of each pipeline and of the cold gain document, stamped
with the python, numpy and scipy versions that made them: other wheels may
round differently, so the bytes are compared only under the same stamp.
Regenerate only when a change moves these outputs on purpose.
"""
import functools
import hashlib
import json
import math
import platform
import re
import tempfile
from pathlib import Path

import numpy as np
import scipy

import sparselink as sl

CORPUS = Path(__file__).with_name("outputs.json")
PIPELINES = ((4, 0), (6, 0), (10, 0))
ATTACK = {"top_fraction": 0.25}
COLD = (20, 0)


def _mask(pattern) -> list[str]:
    return ["".join("1" if free else "0" for free in row) for row in pattern.mask]


@functools.cache
def pipeline_result(n_nodes: int, seed: int):
    """run_pipeline on GeneratorSpec(n_nodes, seed), run once per process
    for both the record and the digests."""
    return sl.run_pipeline(sl.Scenario(
        name=f"outputs-{n_nodes}-{seed}",
        generator=sl.GeneratorSpec(n_nodes, seed),
        attack=dict(ATTACK),
    ))


def pipeline_record(n_nodes: int, seed: int) -> dict:
    res = pipeline_result(n_nodes, seed)
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


@functools.cache
def cold_synthesis(n_nodes: int, seed: int):
    """(pattern, SynthesisInfo) of the cold synthesis, run once per process."""
    plant = sl.generate_plant(n_nodes, seed)
    pattern = sl.SparsityPattern.diagonal(plant.partition)
    return pattern, sl.synthesize_structured_info(plant, pattern)


def cold_record(n_nodes: int, seed: int) -> dict:
    _, info = cold_synthesis(n_nodes, seed)
    return {"spec": [n_nodes, seed], "cost": info.cost, "gain": info.gain.K.tolist()}


def stamp() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def artifact_digests(n_nodes: int, seed: int) -> dict:
    """SHA-256 of every write_artifacts file of the pipeline, by file name."""
    with tempfile.TemporaryDirectory() as out:
        return {path.name: _sha256(path.read_bytes())
                for path in sl.write_artifacts(pipeline_result(n_nodes, seed), out)}


def cold_digest(n_nodes: int, seed: int) -> str:
    """SHA-256 of the cold synthesis's gain document."""
    pattern, info = cold_synthesis(n_nodes, seed)
    return _sha256(sl.dumps_canonical(sl.gain_to_doc(info, pattern)).encode("utf-8"))


def corpus() -> dict:
    return {
        "pipelines": [pipeline_record(*spec) for spec in PIPELINES],
        "cold": cold_record(*COLD),
        "digests": {
            "stamp": stamp(),
            "pipelines": [{"spec": list(spec), "files": artifact_digests(*spec)} for spec in PIPELINES],
            "cold": {"spec": list(COLD), "gain.json": cold_digest(*COLD)},
        },
    }


def dumps(doc) -> str:
    """Indented JSON with every list of scalars on one line."""
    text = json.dumps(doc, indent=1)
    return re.sub(r"\[\s+([^\[\]{}]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text) + "\n"


if __name__ == "__main__":
    CORPUS.write_text(dumps(corpus()), encoding="utf-8")
