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
write_artifacts file of each pipeline and of the cold gain document, and the
work section the work each run did (work_counts), both stamped with the
python, numpy and scipy versions that made them: other wheels may round
differently, so bytes and counts are compared only under the same stamp.
Regenerate only when a change moves these outputs or this work on purpose.
"""
import contextlib
import functools
import hashlib
import json
import math
import platform
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import scipy

import sparselink as sl
from sparselink import GainMatrix, h2, priority

CORPUS = Path(__file__).with_name("outputs.json")
PIPELINES = ((4, 0), (6, 0), (10, 0))
ATTACK = {"top_fraction": 0.25}
COLD = (20, 0)


def _mask(pattern) -> list[str]:
    return ["".join("1" if free else "0" for free in row) for row in pattern.mask]


@contextlib.contextmanager
def work_counts():
    """Counts of the work done in the with block, by wrapping the one call
    site of each kind: closed-loop factorizations (h2._real_schur),
    Lyapunov solves on a held Schur factor (h2._lyapunov_factored), removal-
    loss Hessians built (h2._ClosedLoop.hessian), and the removal losses by
    the path priority._reduced_cost chose: the Newton model's value, a
    synthesis from the Optimal Brain Surgeon start x0, or one from K* alone."""
    counts = dict.fromkeys(("factorizations", "held_factor_solves", "hessians",
                            "losses_model", "losses_x0", "losses_kstar"), 0)
    paths = {float: "losses_model", GainMatrix: "losses_x0", type(None): "losses_kstar"}

    def counting(key, call):
        def counted(*args, **kwargs):
            counts[key] += 1
            return call(*args, **kwargs)
        return counted

    def reduced_cost(*args, **kwargs):
        served = priority_reduced_cost(*args, **kwargs)
        counts[paths[type(served)]] += 1
        return served

    priority_reduced_cost = priority._reduced_cost
    wrappers = (
        (h2, "_real_schur", counting("factorizations", h2._real_schur)),
        (h2, "_lyapunov_factored", counting("held_factor_solves", h2._lyapunov_factored)),
        (h2._ClosedLoop, "hessian", counting("hessians", h2._ClosedLoop.hessian)),
        (priority, "_reduced_cost", reduced_cost),
    )
    with contextlib.ExitStack() as stack:
        for owner, name, wrapper in wrappers:
            stack.enter_context(mock.patch.object(owner, name, wrapper))
        yield counts


@functools.cache
def pipeline_run(n_nodes: int, seed: int):
    """run_pipeline on GeneratorSpec(n_nodes, seed) and its work counts, run
    once per process for the record, the digests and the counts."""
    with work_counts() as counts:
        result = sl.run_pipeline(sl.Scenario(
            name=f"outputs-{n_nodes}-{seed}",
            generator=sl.GeneratorSpec(n_nodes, seed),
            attack=dict(ATTACK),
        ))
    return result, counts


def pipeline_result(n_nodes: int, seed: int):
    return pipeline_run(n_nodes, seed)[0]


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
def cold_run(n_nodes: int, seed: int):
    """(pattern, SynthesisInfo) of the cold synthesis and its work counts,
    run once per process."""
    plant = sl.generate_plant(n_nodes, seed)
    pattern = sl.SparsityPattern.diagonal(plant.partition)
    with work_counts() as counts:
        info = sl.synthesize_structured_info(plant, pattern)
    return (pattern, info), counts


def cold_synthesis(n_nodes: int, seed: int):
    return cold_run(n_nodes, seed)[0]


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
        "work": {
            "stamp": stamp(),
            "pipelines": [{"spec": list(spec), "counts": pipeline_run(*spec)[1]} for spec in PIPELINES],
            "cold": {"spec": list(COLD), "counts": cold_run(*COLD)[1]},
        },
    }


def dumps(doc) -> str:
    """Indented JSON with every list of scalars on one line."""
    text = json.dumps(doc, indent=1)
    return re.sub(r"\[\s+([^\[\]{}]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text) + "\n"


if __name__ == "__main__":
    CORPUS.write_text(dumps(corpus()), encoding="utf-8")
