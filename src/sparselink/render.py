"""Block-grid rendering of sparsity patterns, priority tables, and attack
outcomes, as a text grid or a standalone SVG. One view rule (_view) gives
every drawing its grid and SVG labels from the object it draws, and refuses
a keyword that does not apply to that object.

Text grid: one character per block. ■ free, · structurally zero, A attacked
(data lost), S sacrificed to host rerouted data, R attacked but rerouted
(still free). Parsing treats {■, R} as free and {·, A, S} as zero, so a
rendered post-attack grid parses back to the post-attack pattern.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, InvalidAssumption, UnknownFormat
from .plant import BlockPartition, SparsityPattern
from .priority import PriorityTable
from .reroute import RerouteOutcome

CHAR_FREE = "■"
CHAR_ZERO = "·"
CHAR_ATTACKED = "A"
CHAR_SACRIFICED = "S"
CHAR_REROUTED = "R"

_FREE_CHARS = {CHAR_FREE, CHAR_REROUTED}
_ZERO_CHARS = {CHAR_ZERO, CHAR_ATTACKED, CHAR_SACRIFICED}

_SVG_COLORS = {
    CHAR_FREE: "#2b6cb0",
    CHAR_ZERO: "#ffffff",
    CHAR_ATTACKED: "#c53030",
    CHAR_SACRIFICED: "#dd6b20",
    CHAR_REROUTED: "#2f855a",
}
_CELL = 28


def _table_extent(table: PriorityTable) -> tuple[int, int]:
    if not table.rows:
        raise DimensionMismatch("an empty table has no blocks to render")
    return max(row.i for row in table.rows) + 1, max(row.j for row in table.rows) + 1


def _view(source, attacked, partition) -> tuple[np.ndarray, dict]:
    """The one rule for what a drawing shows: the character grid of source
    and the SVG label of each labelled cell. A pattern is drawn and
    labelled (s{size}) on its own partition; a given partition must be it
    (check_same). A table, or an outcome's table, is drawn on the given
    partition, which it must fit (check_fits), or else on its extent, and
    each row is labelled q{q} s{size}. Only a table takes attacked."""
    if isinstance(source, PriorityTable):
        table = source
        marks = dict.fromkeys(() if attacked is None else attacked, CHAR_ATTACKED)
    elif attacked is not None:
        raise InvalidAssumption(f"attacked= marks a priority table, not a {type(source).__name__}")
    elif isinstance(source, RerouteOutcome):
        table = source.table  # RerouteOutcome keeps these sets disjoint
        marked = ((source.dropped, CHAR_ATTACKED), (source.sacrificed, CHAR_SACRIFICED),
                  (source.rerouted, CHAR_REROUTED))
        marks = {q: char for prios, char in marked for q in prios}
    elif isinstance(source, SparsityPattern):
        if partition is not None:
            source.partition.check_same(partition, "render partition")
        sizes = source.partition.block_sizes()
        labels = {(i, j): f"s{int(sizes[i, j])}" for i, j in zip(*np.nonzero(source.mask))}
        return np.where(source.mask, CHAR_FREE, CHAR_ZERO), labels
    else:
        raise UnknownFormat(f"cannot render a {type(source).__name__}")
    if partition is not None:
        table.check_fits(partition)
        shape = (partition.n_nodes, partition.n_nodes)
    else:
        shape = _table_extent(table)
    grid = np.full(shape, CHAR_ZERO, dtype="<U1")
    labels = {}
    for row in table.rows:
        grid[row.i, row.j] = marks.get(row.q, CHAR_FREE)
        labels[(row.i, row.j)] = f"q{row.q} s{row.size}"
    return grid, labels


def classify_blocks(source, *, attacked=None, partition: BlockPartition | None = None) -> np.ndarray:
    """Character grid over the block lattice, source's view (_view): a
    SparsityPattern plain free/zero, a PriorityTable marked by an attacked
    priority set if given (the pre-reroute view), a RerouteOutcome's table
    marked by its sets."""
    return _view(source, attacked, partition)[0]


def render_text(grid: np.ndarray) -> str:
    return "\n".join("".join(line) for line in grid) + "\n"


def parse_pattern(text: str, partition: BlockPartition | None = None) -> SparsityPattern | np.ndarray:
    """Inverse of render_text: recover the boolean block mask. Returns a
    SparsityPattern when a partition is supplied, else the bare mask."""
    lines = [line for line in text.split("\n") if line.strip()]
    if not lines:
        raise UnknownFormat("empty pattern text")
    width = len(lines[0])
    mask = np.zeros((len(lines), width), dtype=bool)
    for i, line in enumerate(lines):
        if len(line) != width:
            raise UnknownFormat(f"ragged pattern text at line {i + 1}")
        for j, char in enumerate(line):
            if char in _FREE_CHARS:
                mask[i, j] = True
            elif char not in _ZERO_CHARS:
                raise UnknownFormat(f"unknown pattern character {char!r}")
    if partition is None:
        return mask
    return SparsityPattern(mask, partition)


def render_svg(grid: np.ndarray, labels: dict | None = None) -> str:
    """Standalone SVG of the block grid: free/attacked/sacrificed/rerouted
    cells are colored, and each cell in labels, keyed (i, j), is annotated
    with its label."""
    rows, cols = grid.shape
    labels = labels or {}
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{cols * _CELL}"'
        f' height="{rows * _CELL}" viewBox="0 0 {cols * _CELL} {rows * _CELL}">',
    ]
    for i in range(rows):
        for j in range(cols):
            color = _SVG_COLORS[grid[i, j]]
            parts.append(
                f'<rect x="{j * _CELL}" y="{i * _CELL}" width="{_CELL}"'
                f' height="{_CELL}" fill="{color}" stroke="#555555"'
                ' stroke-width="1"/>'
            )
            label = labels.get((i, j))
            if label is not None:
                fill = "#000000" if grid[i, j] == CHAR_ZERO else "#ffffff"
                parts.append(
                    f'<text x="{j * _CELL + _CELL // 2}" y="{i * _CELL + _CELL // 2 + 3}"'
                    f' font-size="8" font-family="monospace" fill="{fill}"'
                    f' text-anchor="middle">{label}</text>'
                )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_pattern(
    source,
    fmt: str = "text",
    *,
    attacked=None,
    partition: BlockPartition | None = None,
) -> str:
    """source drawn by its view (_view) as text or as an SVG with the
    view's labels."""
    grid, labels = _view(source, attacked, partition)
    if fmt == "text":
        return render_text(grid)
    if fmt == "svg":
        return render_svg(grid, labels)
    raise UnknownFormat(f"unsupported render format: {fmt!r}")
