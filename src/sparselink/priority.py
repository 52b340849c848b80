"""Offline link prioritization from a sparsity sweep.

Blocks that vanish at smaller beta are less important and receive lower
priority numbers (q = 1 is the least important link, q = r1 the most).
Ties among blocks vanishing at the same schedule step, and the ordering of
blocks that never vanish, are resolved by the leave-one-out performance
loss, then lexicographically by block index for determinism. The resulting
table is the hand-off artifact consumed by the online rerouting step; its
values are the blocks of the deployed gain, the first entry's polish.

A removal loss J*(pattern minus block) - J*(pattern) re-optimizes the gain
with one block forced to zero. All these re-optimizations start from the
same base optimum K*, the first sweep entry's polish (SweepEntry.polished,
passed whole as removal_loss's base), so they share one Newton model of J
at K*: the exact Hessian H of J on the pattern's free entries
(h2._ClosedLoop.hessian, one Lyapunov solve per free entry) and its
Cholesky factor, which the closed loop K* carries builds once per pattern
and holds (h2._ClosedLoop.hessian_factor). Each loss starts at the
Optimal Brain Surgeon point (Hassibi & Stork, NIPS 1993)

    x0 = K* - H^-1[:, b] (H^-1_bb)^-1 K*_b,

the minimizer of the quadratic model with block b exactly zero, and
factors the closed loop there once. With g the gradient there, one Newton
step on the reduced pattern predicts the decrease 1/2 g^T H_r^-1 g, where
H_r^-1 = H^-1 - H^-1[:, b] (H^-1_bb)^-1 H^-1[b, :] is applied by solves
with the Cholesky factor of H and the block's columns (LAPACK potrf and
potrs, called directly: each solve is a few microseconds on these sizes,
less than scipy's checking wrapper adds). When that decrease is at most
_MODEL_TOL J(x0) the loss takes the model value J(x0) - 1/2 g^T H_r^-1 g,
within about that much of a converged descent's value. Every other loss
is one structured synthesis of the reduced pattern
(synthesize_structured_info with init). Its init is x0 with the closed
loop factored there, by the hand-off of the h2 module docstring
(h2._carry): x0 is on the reduced pattern, so it is its own projection,
and the synthesis polishes from that loop. When the
Hessian is not positive definite, H^-1_bb is numerically singular, or x0
is not stabilizing, the init is K* instead (a polish from K*'s
projection, or a cold start when that projection is not stabilizing). As
everywhere, a polish that does not converge raises the typed error of its
status.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import (
    DimensionMismatch,
    EmptySweep,
    IndexOutOfRange,
    InvalidAssumption,
    PatternNotStabilizable,
)
from .h2 import _carry, _ClosedLoop, _closed_loop
from .plant import BlockPartition, GainMatrix, LtiPlant, SparsityPattern
from .sparse import SweepResult
from .structured import SynthesisInfo, synthesize_structured_info

_MODEL_TOL = 1e-6  # the largest predicted decrease / J(x0) the model serves


@dataclass(frozen=True)
class PriorityRow:
    """One ranked link: block (i, j), priority q, size s = m_i * n_j, and the
    block's gain values flattened row-major, zero-padded to the table width."""

    i: int
    j: int
    q: int
    size: int
    values: tuple[float, ...]


@dataclass(frozen=True)
class PriorityTable:
    """Rows in ascending priority; row k (0-based) has q = k + 1. Each row
    names its own block (i, j >= 0) of size >= 1 and holds finite values."""

    rows: tuple[PriorityRow, ...]

    def __post_init__(self):
        rows = tuple(self.rows)
        object.__setattr__(self, "rows", rows)
        if sorted(r.q for r in rows) != list(range(1, len(rows) + 1)):
            raise DimensionMismatch("priorities must be a permutation of 1..r1")
        if any(r.q != k + 1 for k, r in enumerate(rows)):
            raise DimensionMismatch("rows must be stored in ascending priority")
        if any(r.i < 0 or r.j < 0 for r in rows):
            raise DimensionMismatch("block indices must be non-negative")
        if len({(r.i, r.j) for r in rows}) != len(rows):
            raise DimensionMismatch("a block is named in two rows")
        if any(r.size < 1 for r in rows):
            raise DimensionMismatch("row sizes must be at least 1")
        if rows:
            width = len(rows[0].values)
            if any(len(r.values) != width for r in rows):
                raise DimensionMismatch("all value rows must share the padded width")
            if any(r.size > width for r in rows):
                raise DimensionMismatch("row size exceeds the padded width")
            if not all(math.isfinite(v) for r in rows for v in r.values):
                raise DimensionMismatch("table values must be finite")
            if any(any(v != 0.0 for v in r.values[r.size:]) for r in rows):
                raise DimensionMismatch("padding beyond a row's size must be zero")

    @property
    def r1(self) -> int:
        return len(self.rows)

    @property
    def r2(self) -> int:
        return len(self.rows[0].values) if self.rows else 0

    def row(self, q: int) -> PriorityRow:
        if not 1 <= q <= self.r1:
            raise IndexOutOfRange(f"priority {q} outside 1..{self.r1}")
        return self.rows[q - 1]

    def sizes(self) -> tuple[int, ...]:
        return tuple(r.size for r in self.rows)

    def check_fits(self, partition: BlockPartition) -> None:
        """DimensionMismatch unless every row is a block of the partition's
        grid with that block's size."""
        n_nodes, sizes = partition.n_nodes, partition.block_sizes()
        for r in self.rows:
            if not (r.i < n_nodes and r.j < n_nodes) or r.size != sizes[r.i, r.j]:
                raise DimensionMismatch(f"row ({r.i},{r.j}) of size {r.size} is not a partition block")

    def is_zero_row(self, q: int) -> bool:
        return all(v == 0.0 for v in self.row(q).values)

    def with_zeroed_rows(self, priorities) -> "PriorityTable":
        dead = set(priorities)
        rows = tuple(
            PriorityRow(r.i, r.j, r.q, r.size, (0.0,) * len(r.values))
            if r.q in dead
            else r
            for r in self.rows
        )
        return PriorityTable(rows)


def table_from_gain(gain: GainMatrix, priorities: dict[tuple[int, int], int]) -> PriorityTable:
    """Assemble a table from a gain and an explicit block -> priority map.

    Used by tests and by callers that already know the ranking; rank_links
    derives the map from a sweep.
    """
    part = gain.partition
    sizes = part.block_sizes()
    r2 = max(int(sizes[i, j]) for (i, j) in priorities)
    rows = []
    for (i, j), q in priorities.items():
        blk = gain.block(i, j).ravel(order="C")
        size = int(sizes[i, j])
        values = tuple(float(v) for v in blk) + (0.0,) * (r2 - size)
        rows.append(PriorityRow(int(i), int(j), int(q), size, values))
    rows.sort(key=lambda r: r.q)
    return PriorityTable(tuple(rows))


def _reduced_cost(base: _ClosedLoop, pattern: SparsityPattern, block: tuple[int, int]) -> float | GainMatrix | None:
    """J* on the pattern without block when the Newton model that the base
    loop holds serves; else the init of the reduced synthesis, x0 carrying
    its closed loop, or None when no stabilizing x0 is at hand (module
    docstring)."""
    ident = pattern.structural_identity()
    chol = base.hessian_factor(ident != 0.0)
    if chol is None:
        return None
    plant, k = base.plant, base.k
    free = np.flatnonzero(ident)  # row-major, the Hessian's order
    in_block = np.zeros(k.shape, dtype=bool)
    in_block[plant.partition.block(*block)] = True
    b = np.flatnonzero(in_block.ravel()[free])  # block entries in Hessian order
    h_inv_b = dpotrs(chol, np.eye(free.size)[:, b])[0]  # H^-1[:, b]
    bb, info = dpotrf(h_inv_b[b], clean=0)
    if info != 0:  # rounding in a badly conditioned H
        return None
    k_free = k.ravel()[free]
    x0 = np.zeros(k.size)
    x0[free] = k_free - h_inv_b @ dpotrs(bb, k_free[b])[0]
    x0[free[b]] = 0.0
    cl = _ClosedLoop(plant, x0.reshape(k.shape))
    if not cl.stable:
        return None
    g = cl.gradient().ravel()[free]
    h_inv_g = dpotrs(chol, g)[0]
    step = h_inv_g - h_inv_b @ dpotrs(bb, h_inv_g[b])[0]  # H_r^-1 g
    step[b] = 0.0
    decrease, j = 0.5 * float(g @ step), cl.value
    if 0.0 <= decrease <= _MODEL_TOL * j:  # below 0, rounding broke H_r^-1
        return j - decrease
    return _carry(GainMatrix(cl.k, plant.partition), cl)


def removal_loss(
    plant: LtiPlant,
    base_pattern: SparsityPattern,
    block: tuple[int, int],
    *,
    base: SynthesisInfo,
) -> float:
    """Performance loss J*(pattern minus block) - J*(pattern).

    Returns +inf when the reduced pattern cannot be stabilized. base is the
    structured synthesis on base_pattern (a sweep entry's polished), whose
    gain warm-starts the reduced problem and whose loop holds the Newton
    model of J for later calls. Where that model serves, J*(pattern minus
    block) is a model-corrected value within about _MODEL_TOL J of a
    converged descent's value; elsewhere a reduced polish that does not
    converge raises the typed error of its status (module docstring).
    """
    plant.partition.check_same(base_pattern.partition, "base pattern")
    i, j = block
    n_nodes = base_pattern.partition.n_nodes
    if not (0 <= i < n_nodes and 0 <= j < n_nodes):
        raise IndexOutOfRange(f"block ({i},{j}) outside the {n_nodes}x{n_nodes} grid")
    if not base_pattern.mask[i, j]:
        raise InvalidAssumption(f"block ({i},{j}) is not free in the base pattern")
    served = _reduced_cost(_closed_loop(plant, base.gain), base_pattern, block)
    if isinstance(served, float):
        return served - base.cost
    init = base.gain if served is None else served
    try:
        cost = synthesize_structured_info(plant, base_pattern.without_block(i, j), init=init).cost
    except PatternNotStabilizable:
        return math.inf
    return cost - base.cost


def rank_links(plant: LtiPlant, sweep: SweepResult) -> PriorityTable:
    """Rank the first sweep entry's blocks by vanish order across the schedule.

    A block's vanish step is the first schedule index from which it stays
    zero for the rest of the sweep; blocks still present at the end never
    vanish and take the highest priorities. Removal losses order blocks
    within a tied vanish step and within the never-vanished group.
    """
    if not sweep.entries:
        raise EmptySweep("sweep has no entries")
    entries = sweep.entries
    base = entries[0]
    blocks = base.pattern.free_blocks()
    if not blocks:
        raise EmptySweep("first sweep entry has no free blocks")

    n_steps = len(entries)
    masks = np.stack([e.pattern.mask for e in entries])
    never = n_steps  # sort key sentinel above every real vanish index

    vanish: dict[tuple[int, int], int] = {}
    for (i, j) in blocks:
        present = masks[:, i, j]
        last = int(np.max(np.nonzero(present)[0]))
        vanish[(i, j)] = never if last == n_steps - 1 else last + 1

    # Removal losses are only needed where the vanish key ties.
    groups: dict[int, list[tuple[int, int]]] = {}
    for blk, v in vanish.items():
        groups.setdefault(v, []).append(blk)
    tied = [blk for members in groups.values() if len(members) > 1 for blk in members]
    losses: dict[tuple[int, int], float] = {}
    for blk in tied:
        losses[blk] = removal_loss(plant, base.pattern, blk, base=base.polished)

    ordered = sorted(
        blocks,
        key=lambda blk: (vanish[blk], losses.get(blk, 0.0), blk[0], blk[1]),
    )
    priorities = {blk: rank + 1 for rank, blk in enumerate(ordered)}
    return table_from_gain(base.polished.gain, priorities)
