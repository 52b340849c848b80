"""Block-grid rendering of sparsity patterns, priority tables, and attack
outcomes, as a text grid or a standalone SVG.

Text grid: one character per block. ■ free, · structurally zero, A attacked
(data lost), S sacrificed to host rerouted data, R attacked but rerouted
(still free). Parsing treats {■, R} as free and {·, A, S} as zero, so a
rendered post-attack grid parses back to the post-attack pattern.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, UnknownFormat
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


def classify_blocks(
    source,
    *,
    attacked=None,
    partition: BlockPartition | None = None,
) -> np.ndarray:
    """Character grid over the block lattice. source is a SparsityPattern
    (plain free/zero view), a PriorityTable (marked by an attacked priority
    set, if given: the pre-reroute view) or a RerouteOutcome (its table,
    marked by its sets). A given partition sets the grid, and the table
    must fit it (check_fits); without one, the table's extent sets it."""
    if isinstance(source, SparsityPattern):
        grid = np.full(source.mask.shape, CHAR_ZERO, dtype="<U1")
        grid[source.mask] = CHAR_FREE
        return grid
    if isinstance(source, RerouteOutcome):
        table = source.table  # RerouteOutcome keeps these sets disjoint
        marked = ((source.dropped, CHAR_ATTACKED), (source.sacrificed, CHAR_SACRIFICED),
                  (source.rerouted, CHAR_REROUTED))
    elif isinstance(source, PriorityTable):
        table = source
        marked = ((() if attacked is None else attacked, CHAR_ATTACKED),)
    else:
        raise UnknownFormat(f"cannot render a {type(source).__name__}")
    if partition is not None:
        table.check_fits(partition)
        shape = (partition.n_nodes, partition.n_nodes)
    else:
        shape = _table_extent(table)
    marks = {q: char for prios, char in marked for q in prios}
    grid = np.full(shape, CHAR_ZERO, dtype="<U1")
    for row in table.rows:
        grid[row.i, row.j] = marks.get(row.q, CHAR_FREE)
    return grid


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


def render_svg(
    grid: np.ndarray,
    *,
    table: PriorityTable | None = None,
    partition: BlockPartition | None = None,
) -> str:
    """Standalone SVG of the block grid; free/attacked/sacrificed/rerouted
    cells are colored and, when known, annotated with priority and size."""
    rows, cols = grid.shape
    labels: dict[tuple[int, int], str] = {}
    if table is not None:
        for row in table.rows:
            labels[(row.i, row.j)] = f"q{row.q} s{row.size}"
    elif partition is not None:
        sizes = partition.block_sizes()
        for i in range(rows):
            for j in range(cols):
                if grid[i, j] != CHAR_ZERO:
                    labels[(i, j)] = f"s{int(sizes[i, j])}"
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
    """source drawn by classify_blocks as text or SVG; the SVG labels a
    table's blocks, or an outcome's table's, with priority and size."""
    grid = classify_blocks(source, attacked=attacked, partition=partition)
    if fmt == "text":
        return render_text(grid)
    if fmt == "svg":
        if isinstance(source, SparsityPattern):
            return render_svg(grid, partition=source.partition if partition is None else partition)
        return render_svg(grid, table=source.table if isinstance(source, RerouteOutcome) else source)
    raise UnknownFormat(f"unsupported render format: {fmt!r}")
