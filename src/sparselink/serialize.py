"""JSON interchange for plants, patterns, priority tables, reroute
outcomes, attack specs, and synthesized gains.

Documents are canonical: two-space indent, fixed key order, floats written
with Python repr (the shortest decimal string that parses back to the same
IEEE-754 double), trailing newline. Reading a written document reproduces
the object bitwise, and re-serializing reproduces the byte stream.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, InvalidAssumption
from .plant import BlockPartition, GainMatrix, LtiPlant, SparsityPattern
from .priority import PriorityRow, PriorityTable
from .reroute import AttackScenario, RerouteOutcome
from .structured import SynthesisInfo


def dumps_canonical(doc) -> str:
    return json.dumps(doc, indent=2, allow_nan=True) + "\n"


def write_json(path, doc) -> None:
    Path(path).write_text(dumps_canonical(doc), encoding="utf-8")


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _matrix_doc(a) -> list:
    return np.asarray(a, dtype=float).tolist()


def _matrix_from(doc, name: str, rows: int | None = None, cols: int | None = None):
    a = np.asarray(doc, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatch(f"{name} must be a nested array of two levels")
    if rows is not None and a.shape[0] != rows:
        raise DimensionMismatch(f"{name} has {a.shape[0]} rows, expected {rows}")
    if cols is not None and a.shape[1] != cols:
        raise DimensionMismatch(f"{name} has {a.shape[1]} columns, expected {cols}")
    return a


def _sizes_from(doc, name: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(v) for v in doc)
    except (TypeError, ValueError) as exc:
        raise InvalidAssumption(f"{name} must be a list of integers") from exc
    return sizes


# ---------------------------------------------------------------------------
# plant

def plant_to_doc(plant: LtiPlant) -> dict:
    return {
        "A": _matrix_doc(plant.A),
        "B": _matrix_doc(plant.B),
        "W": _matrix_doc(plant.W),
        "Q": _matrix_doc(plant.Q),
        "R": _matrix_doc(plant.R),
        "rowBlockSizes": list(plant.partition.row_sizes),
        "colBlockSizes": list(plant.partition.col_sizes),
    }


def plant_from_doc(doc: dict) -> LtiPlant:
    if not isinstance(doc, dict):
        raise InvalidAssumption("plant document must be a JSON object")
    missing = {"A", "B", "W", "Q", "R", "rowBlockSizes", "colBlockSizes"} - set(doc)
    if missing:
        raise InvalidAssumption(f"plant document missing fields: {sorted(missing)}")
    partition = BlockPartition(
        _sizes_from(doc["rowBlockSizes"], "rowBlockSizes"),
        _sizes_from(doc["colBlockSizes"], "colBlockSizes"),
    )
    n, m = partition.n, partition.m
    return LtiPlant(
        _matrix_from(doc["A"], "A", n, n),
        _matrix_from(doc["B"], "B", n, m),
        _matrix_from(doc["W"], "W", n, None),
        _matrix_from(doc["Q"], "Q", n, n),
        _matrix_from(doc["R"], "R", m, m),
        partition,
    )


# ---------------------------------------------------------------------------
# sparsity pattern

def pattern_to_doc(pattern: SparsityPattern) -> dict:
    return {
        "mask": [[bool(v) for v in row] for row in pattern.mask],
        "rowBlockSizes": list(pattern.partition.row_sizes),
        "colBlockSizes": list(pattern.partition.col_sizes),
    }


def pattern_from_doc(doc: dict) -> SparsityPattern:
    if not isinstance(doc, dict):
        raise InvalidAssumption("pattern document must be a JSON object")
    missing = {"mask", "rowBlockSizes", "colBlockSizes"} - set(doc)
    if missing:
        raise InvalidAssumption(f"pattern document missing fields: {sorted(missing)}")
    partition = BlockPartition(
        _sizes_from(doc["rowBlockSizes"], "rowBlockSizes"),
        _sizes_from(doc["colBlockSizes"], "colBlockSizes"),
    )
    mask = np.asarray(doc["mask"], dtype=bool)
    return SparsityPattern(mask, partition)


# ---------------------------------------------------------------------------
# priority table: a bare JSON array of rows, the offline-to-online hand-off

def table_to_doc(table: PriorityTable) -> list:
    return [
        {
            "i": row.i,
            "j": row.j,
            "q": row.q,
            "s": row.size,
            "values": list(row.values),
        }
        for row in table.rows
    ]


def table_from_doc(doc) -> PriorityTable:
    if not isinstance(doc, list):
        raise InvalidAssumption("table document must be a JSON array of rows")
    rows = []
    for entry in doc:
        try:
            rows.append(
                PriorityRow(
                    i=int(entry["i"]),
                    j=int(entry["j"]),
                    q=int(entry["q"]),
                    size=int(entry["s"]),
                    values=tuple(float(v) for v in entry["values"]),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidAssumption(f"malformed table row: {entry!r}") from exc
    rows.sort(key=lambda r: r.q)
    return PriorityTable(tuple(rows))


# ---------------------------------------------------------------------------
# reroute outcome; the attacked set is recoverable as rerouted | dropped

def outcome_to_doc(outcome: RerouteOutcome) -> dict:
    return {
        "feasible": outcome.feasible,
        "sacrificed": sorted(outcome.sacrificed),
        "rerouted": sorted(outcome.rerouted),
        "dropped": sorted(outcome.dropped),
        "n_final": table_to_doc(outcome.table),
    }


def outcome_from_doc(doc: dict) -> RerouteOutcome:
    if not isinstance(doc, dict):
        raise InvalidAssumption("outcome document must be a JSON object")
    try:
        rerouted = frozenset(int(q) for q in doc["rerouted"])
        dropped = frozenset(int(q) for q in doc["dropped"])
        sacrificed = frozenset(int(q) for q in doc["sacrificed"])
        feasible = bool(doc["feasible"])
        table = table_from_doc(doc["n_final"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidAssumption("malformed outcome document") from exc
    return RerouteOutcome(
        table=table,
        attacked=rerouted | dropped,
        sacrificed=sacrificed,
        rerouted=rerouted,
        dropped=dropped,
        feasible=feasible,
    )


# ---------------------------------------------------------------------------
# synthesized gain export

def gain_to_doc(info: SynthesisInfo, pattern: SparsityPattern) -> dict:
    return {
        "K": _matrix_doc(info.gain.K),
        "pattern": [[bool(v) for v in row] for row in pattern.mask],
        "J": float(info.cost),
        "iterations": int(info.iterations),
        "converged": bool(info.converged),
    }


def gain_from_doc(doc: dict, partition: BlockPartition) -> tuple[GainMatrix, dict]:
    if not isinstance(doc, dict) or "K" not in doc:
        raise InvalidAssumption("gain document must be an object with K")
    k = _matrix_from(doc["K"], "K", partition.m, partition.n)
    gain = GainMatrix(k, partition)
    meta = {
        "J": float(doc.get("J", float("nan"))),
        "iterations": int(doc.get("iterations", 0)),
        "converged": bool(doc.get("converged", False)),
    }
    return gain, meta


# ---------------------------------------------------------------------------
# attack specs

_ATTACK_VALUES = {
    "attacked_priorities": lambda value: frozenset(int(q) for q in value),
    "attacked_block": int,
    "attacked_top": int,
    "top_fraction": float,
}


def attack_from_doc(doc, r1: int) -> AttackScenario:
    """Accepted forms: {"attacked_priorities": [q...]}, {"attacked_block": q}
    (the one priority q), {"attacked_top": k} or {"top_fraction": f}
    (the k = round(f*r1) highest priorities). None means no attack."""
    if doc is None:
        return AttackScenario.none()
    if not isinstance(doc, dict) or len(doc) != 1:
        raise InvalidAssumption(
            "attack spec must be an object with exactly one of attacked_priorities,"
            " attacked_block, attacked_top, top_fraction"
        )
    (key, value), = doc.items()
    convert = _ATTACK_VALUES.get(key)
    if convert is None:
        raise InvalidAssumption(f"unknown attack spec key: {key}")
    try:
        value = convert(value)
    except (TypeError, ValueError) as exc:
        raise InvalidAssumption(f"malformed attack spec: {doc!r}") from exc
    if key == "attacked_priorities":
        _check_range(value, r1)
        return AttackScenario(value)
    if key == "attacked_block":
        _check_range({value}, r1)
        return AttackScenario(frozenset([value]))
    if key == "top_fraction":
        if not 0.0 <= value <= 1.0:
            raise InvalidAssumption(f"top_fraction {value} outside [0, 1]")
        value = int(round(value * r1))
    if not 0 <= value <= r1:
        raise InvalidAssumption(f"attacked_top {value} outside 0..{r1}")
    return AttackScenario(frozenset(range(r1 - value + 1, r1 + 1)))


def _check_range(prios, r1: int) -> None:
    for q in prios:
        if not 1 <= q <= r1:
            raise InvalidAssumption(f"attacked priority {q} outside 1..{r1}")
