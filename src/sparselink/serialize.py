"""JSON interchange for plants, patterns, priority tables, reroute
outcomes, attack specs, and synthesized gains.

Documents are canonical: two-space indent, fixed key order, floats written
with Python repr (the shortest decimal string that parses back to the same
IEEE-754 double), trailing newline. Reading a written document reproduces
the object bitwise, and re-serializing reproduces the byte stream. They
are RFC 8259 JSON: dumps_canonical raises ValueError on a non-finite float
rather than write Infinity or NaN. Every reader refuses a key it does not
know (_fields).
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange, InvalidAssumption, _boolean, _integer, _real, _shown
from .plant import BlockPartition, GainMatrix, LtiPlant, SparsityPattern
from .priority import PriorityRow, PriorityTable
from .reroute import RerouteOutcome
from .structured import SynthesisInfo


def dumps_canonical(doc) -> str:
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def write_json(path, doc) -> None:
    Path(path).write_text(dumps_canonical(doc), encoding="utf-8")


def read_json(path):
    """The document of a UTF-8 JSON file; text that is not UTF-8 is
    InvalidAssumption naming the file, and so is any text _loads rejects."""
    try:
        return _loads(Path(path).read_text(encoding="utf-8"), path)
    except UnicodeDecodeError as exc:
        raise InvalidAssumption(f"{path}: {exc}") from exc


def _loads(text: str, source):
    """json.loads; text that is not JSON, nests past Python's recursion limit
    or holds an integer past its digit limit is InvalidAssumption naming
    source."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InvalidAssumption(f"{source}: {exc}") from exc


def _matrix_doc(a) -> list:
    return np.asarray(a, dtype=float).tolist()


def _json_array(doc, name: str, rule, ndim: int) -> np.ndarray:
    """doc as an ndim-dimensional array of rule's values (errors._real or
    errors._boolean). InvalidAssumption unless doc nests regularly and rule
    takes every entry; DimensionMismatch for the wrong number of levels,
    before any entry is read when there are too many. Shapes are the
    checking type's rule."""
    try:
        a = np.array(doc, dtype=object)
    except ValueError as exc:
        raise InvalidAssumption(f"{name} must be a regular array") from exc
    if a.ndim > ndim:  # named without a count: numpy discovers at most 64 dimensions
        raise DimensionMismatch(f"{name} must be an array of {ndim} dimensions, nests deeper than {ndim} levels")
    values = [rule(v, f"{name} entry") for v in a.flat]
    if a.ndim != ndim:
        raise DimensionMismatch(f"{name} must be an array of {ndim} dimensions, got {a.ndim}")
    return np.array(values).reshape(a.shape)


def _integers(doc, name: str) -> tuple[int, ...]:
    if not isinstance(doc, (list, tuple)):
        raise InvalidAssumption(f"{name} must be a list of integers, got {_shown(doc)}")
    return tuple(_integer(v, name) for v in doc)


def _fields(doc, name: str, required, optional=()) -> dict:
    """doc, checked to be a JSON object holding every required key and no
    key outside required and optional."""
    if not isinstance(doc, dict):
        raise InvalidAssumption(f"{name} must be a JSON object, got {_shown(doc)}")
    missing = set(required) - set(doc)
    if missing:
        raise InvalidAssumption(f"{name} missing fields: {sorted(missing)}")
    unknown = set(doc) - set(required) - set(optional)
    if unknown:
        raise InvalidAssumption(f"unknown {name} keys: {sorted(unknown)}")
    return doc


def _one_of(doc, name: str, kinds) -> tuple:
    """The one (key, value) of doc, a JSON object with exactly one key,
    taken from kinds."""
    _fields(doc, name, (), kinds)
    if len(doc) != 1:
        raise InvalidAssumption(f"{name} must have exactly one of {', '.join(kinds)}")
    (key, value), = doc.items()
    return key, value


def _partition_from(doc: dict) -> BlockPartition:
    """The BlockPartition of a plant or pattern document's block sizes."""
    return BlockPartition(
        _integers(doc["rowBlockSizes"], "rowBlockSizes"),
        _integers(doc["colBlockSizes"], "colBlockSizes"),
    )


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
    _fields(doc, "plant document", ("A", "B", "W", "Q", "R", "rowBlockSizes", "colBlockSizes"))
    partition = _partition_from(doc)
    return LtiPlant(*(_json_array(doc[name], name, _real, 2) for name in "ABWQR"), partition)


# ---------------------------------------------------------------------------
# sparsity pattern

def pattern_to_doc(pattern: SparsityPattern) -> dict:
    return {
        "mask": [[bool(v) for v in row] for row in pattern.mask],
        "rowBlockSizes": list(pattern.partition.row_sizes),
        "colBlockSizes": list(pattern.partition.col_sizes),
    }


def pattern_from_doc(doc: dict) -> SparsityPattern:
    _fields(doc, "pattern document", ("mask", "rowBlockSizes", "colBlockSizes"))
    partition = _partition_from(doc)
    return SparsityPattern(_json_array(doc["mask"], "mask", _boolean, 2), partition)


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
    """The table of a document; PriorityTable decides which rows are valid."""
    if not isinstance(doc, list):
        raise InvalidAssumption("table document must be a JSON array of rows")
    rows = []
    try:
        for entry in doc:
            _fields(entry, "table row", ("i", "j", "q", "s", "values"))
            rows.append(
                PriorityRow(
                    i=_integer(entry["i"], "i"),
                    j=_integer(entry["j"], "j"),
                    q=_integer(entry["q"], "q"),
                    size=_integer(entry["s"], "s"),
                    values=tuple(_json_array(entry["values"], "values", _real, 1).tolist()),
                )
            )
        return PriorityTable(tuple(rows))
    except DimensionMismatch as exc:
        raise InvalidAssumption(f"malformed table: {exc}") from exc


# ---------------------------------------------------------------------------
# reroute outcome. The document does not carry the attacked set: a feasible
# outcome's is rerouted | dropped, and an infeasible outcome's is lost.

def outcome_to_doc(outcome: RerouteOutcome) -> dict:
    return {
        "feasible": outcome.feasible,
        "sacrificed": sorted(outcome.sacrificed),
        "rerouted": sorted(outcome.rerouted),
        "dropped": sorted(outcome.dropped),
        "n_final": table_to_doc(outcome.table),
    }


def outcome_from_doc(doc: dict) -> RerouteOutcome:
    """The outcome of a document; RerouteOutcome decides which are possible."""
    _fields(doc, "outcome document", ("feasible", "sacrificed", "rerouted", "dropped", "n_final"))
    rerouted = frozenset(_integers(doc["rerouted"], "rerouted"))
    dropped = frozenset(_integers(doc["dropped"], "dropped"))
    sacrificed = frozenset(_integers(doc["sacrificed"], "sacrificed"))
    feasible = _boolean(doc["feasible"], "feasible")
    table = table_from_doc(doc["n_final"])
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


def gain_from_doc(doc: dict, partition: BlockPartition) -> GainMatrix:
    _fields(doc, "gain document", ("K",), ("pattern", "J", "iterations", "converged"))
    return GainMatrix(_json_array(doc["K"], "K", _real, 2), partition)


# ---------------------------------------------------------------------------
# attack specs

def _fraction(value, name: str) -> float:
    value = _real(value, name)
    if not 0.0 <= value <= 1.0:
        raise InvalidAssumption(f"{name} {value} outside [0, 1]")
    return value


_ATTACK_VALUES = {
    "attacked_priorities": lambda value, name: frozenset(_integers(value, name)),
    "attacked_top": _integer,
    "top_fraction": _fraction,
}


def attack_spec(doc) -> tuple[str, int | float | frozenset[int]] | None:
    """Form check and value conversion of an attack spec, which need no
    priority table: the spec's one (key, converted value), or None for no
    attack. Accepted forms: {"attacked_priorities": [q...]} (a list of
    integers, none below 1: IndexOutOfRange), {"attacked_top": k} (an
    integer k >= 0) or {"top_fraction": f} (a number in [0, 1]); the last
    two name the k = round(f*r1) highest priorities."""
    if doc is None:
        return None
    key, value = _one_of(doc, "attack spec", _ATTACK_VALUES)
    value = _ATTACK_VALUES[key](value, key)
    if key == "attacked_priorities" and min(value, default=1) < 1:
        raise IndexOutOfRange(f"attacked priority {min(value)} below 1")
    if key == "attacked_top" and value < 0:
        raise InvalidAssumption(f"attacked_top {value} below 0")
    return key, value


def attack_from_doc(doc, r1: int) -> frozenset[int]:
    """The attacked priorities an attack spec (see attack_spec) names on a
    table with priorities 1..r1; empty for None (no attack). The count k of
    attacked_top or top_fraction must lie in 0..r1. Explicit priorities come
    back as the spec lists them: the rerouting procedures check them
    against the table (reroute._validated_attack)."""
    spec = attack_spec(doc)
    if spec is None:
        return frozenset()
    key, value = spec
    if key == "attacked_priorities":
        return value
    if key == "top_fraction":
        value = round(value * r1)
    if value > r1:
        raise InvalidAssumption(f"attacked_top {value} outside 0..{r1}")
    return frozenset(range(r1 - value + 1, r1 + 1))
