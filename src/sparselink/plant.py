"""Core LTI-network types: plants, block partitions, gains and patterns.

All types are immutable after construction (arrays are stored read-only) and
validated eagerly, so downstream numerics can assume consistent shapes.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotStabilizing, _integer

STABILITY_TOL = 1e-9
_MAX_DIM = 1000  # the package's size bound: generated n and m, table block indices
_PLAN_LAYOUTS = 16  # block layouts whose index plans outlive their partitions


def _frozen_array(x, dtype=float) -> np.ndarray:
    a = np.array(x, dtype=dtype, order="C")
    a.setflags(write=False)
    return a


class _BlockPlans:
    """The index plans of one block layout, each built on first use."""

    def __init__(self, row_sizes: tuple[int, ...], col_sizes: tuple[int, ...]):
        self.row_sizes = row_sizes
        self.col_sizes = col_sizes

    @functools.cached_property
    def gathers(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """For each distinct block shape (m_i, n_j): the flat (i * N + j)
        indices of the blocks of that shape, and a (count, m_i * n_j) index
        into a flattened m x n matrix, row-major within each block. One
        group for a uniform layout."""
        N = len(self.row_sizes)
        rows, cols = np.array(self.row_sizes), np.array(self.col_sizes)
        row_off = np.concatenate(([0], np.cumsum(rows)[:-1]))
        col_off = np.concatenate(([0], np.cumsum(cols)[:-1]))
        n = int(cols.sum())
        groups = []
        for mi in np.unique(rows):
            for nj in np.unique(cols):
                bi, bj = np.nonzero(np.outer(rows == mi, cols == nj))
                a = np.repeat(np.arange(mi), nj)
                b = np.tile(np.arange(nj), mi)
                gather = (row_off[bi, None] + a) * n + col_off[bj, None] + b
                groups.append((bi * N + bj, gather))
        return tuple(groups)

    @functools.cached_property
    def entry_blocks(self) -> np.ndarray:
        """m x n matrix of the flat (i * N + j) block index of each entry."""
        N = len(self.row_sizes)
        index = np.arange(N * N).reshape(N, N)
        entry = np.repeat(np.repeat(index, self.row_sizes, axis=0), self.col_sizes, axis=1)
        entry.setflags(write=False)
        return entry


@functools.lru_cache(maxsize=_PLAN_LAYOUTS)
def _block_plans(row_sizes: tuple[int, ...], col_sizes: tuple[int, ...]) -> _BlockPlans:
    """The one _BlockPlans of a block layout while it is among the last
    _PLAN_LAYOUTS asked for; a partition keeps its own after that."""
    return _BlockPlans(row_sizes, col_sizes)


@dataclass(frozen=True)
class BlockPartition:
    """Node-wise split of a gain matrix: row block i is node i's control
    dims, column block j is node j's state dims. Block (i, j) of a gain is
    the communication link carrying node j's state to node i's controller.

    The index plans behind block_norms and expand belong to the block
    layout, not to one partition: every partition with these block sizes
    holds the same _BlockPlans, built on first use and kept for the last
    _PLAN_LAYOUTS layouts, so a partition adds no arrays of its own.
    """

    row_sizes: tuple[int, ...]
    col_sizes: tuple[int, ...]

    def __post_init__(self):
        rows = tuple(_integer(s, "row block size") for s in self.row_sizes)
        cols = tuple(_integer(s, "column block size") for s in self.col_sizes)
        object.__setattr__(self, "row_sizes", rows)
        object.__setattr__(self, "col_sizes", cols)
        if len(rows) != len(cols):
            raise DimensionMismatch(
                f"row/col block counts differ: {len(rows)} vs {len(cols)}"
            )
        if len(rows) < 1:
            raise DimensionMismatch("partition needs at least one node")
        if any(s <= 0 for s in rows + cols):
            raise DimensionMismatch("block sizes must be positive")
        object.__setattr__(self, "_row_off", (0,) + tuple(int(s) for s in np.cumsum(rows)))
        object.__setattr__(self, "_col_off", (0,) + tuple(int(s) for s in np.cumsum(cols)))
        object.__setattr__(self, "_plans", _block_plans(rows, cols))

    @property
    def n_nodes(self) -> int:
        return len(self.row_sizes)

    @property
    def m(self) -> int:
        return self._row_off[-1]

    @property
    def n(self) -> int:
        return self._col_off[-1]

    def block(self, i: int, j: int) -> tuple[slice, slice]:
        """Index slices of block (i, j), 0-based node indices."""
        N = self.n_nodes
        if not (0 <= i < N and 0 <= j < N):
            raise DimensionMismatch(f"block ({i},{j}) outside {N}x{N} grid")
        ro, co = self._row_off, self._col_off
        return slice(ro[i], ro[i + 1]), slice(co[j], co[j + 1])

    def block_sizes(self) -> np.ndarray:
        """N x N matrix of element counts m_i * n_j."""
        return np.outer(self.row_sizes, self.col_sizes)

    def block_norms(self, x: np.ndarray) -> np.ndarray:
        """N x N matrix of block Frobenius norms ||x_ij||_F of an m x n matrix.

        Each norm is the square root of the BLAS dot product of the block's
        entries with themselves in row-major order, which is how
        np.linalg.norm computes it, so the values agree bit for bit.
        """
        self.check_gain_shape(x)
        flat = np.ascontiguousarray(x, dtype=float).reshape(-1)
        sq = np.empty(self.n_nodes * self.n_nodes)
        for blocks, gather in self._plans.gathers:
            entries = flat[gather]
            sq[blocks] = np.vecdot(entries, entries)
        return np.sqrt(sq).reshape(self.n_nodes, self.n_nodes)

    def expand(self, blockwise: np.ndarray) -> np.ndarray:
        """m x n matrix repeating entry (i, j) of an N x N array over block (i, j)."""
        return np.asarray(blockwise).reshape(-1)[self._plans.entry_blocks]

    def check_gain_shape(self, k: np.ndarray):
        if k.shape != (self.m, self.n):
            raise DimensionMismatch(
                f"gain shape {k.shape} does not match partition ({self.m},{self.n})"
            )

    def check_same(self, other: "BlockPartition", what: str) -> None:
        """DimensionMismatch unless other has this partition's block sizes."""
        if other != self:
            raise DimensionMismatch(f"{what} blocks {other} do not match {self}")


@dataclass(frozen=True, eq=False)
class GainMatrix:
    """State-feedback gain with its block partition."""

    K: np.ndarray
    partition: BlockPartition

    def __post_init__(self):
        k = _frozen_array(self.K)
        if k.ndim != 2 or not np.all(np.isfinite(k)):
            raise DimensionMismatch("gain must be a finite 2-d real matrix")
        self.partition.check_gain_shape(k)
        object.__setattr__(self, "K", k)

    def block(self, i: int, j: int) -> np.ndarray:
        ri, cj = self.partition.block(i, j)
        return self.K[ri, cj]

    def project(self, pattern: "SparsityPattern") -> "GainMatrix":
        """Hard projection onto a pattern: zero every non-free entry. A gain
        with no non-zero entry off the pattern is its own projection (the
        product equals it bit for bit) and comes back as itself. Any other
        projection is kept on the gain per mask, so asking again returns the
        same GainMatrix with the closed loop it carries (h2._carry): a
        removal loss and j_attack that project K* onto one pattern factor
        that projection once."""
        self.partition.check_same(pattern.partition, "pattern")
        held = self.__dict__.setdefault("_projections", {})
        key = pattern.mask.tobytes()
        if key not in held:
            k = self.K * pattern.structural_identity()
            if np.array_equal(k, self.K):
                return self
            held[key] = GainMatrix(k, self.partition)
        return held[key]


@dataclass(frozen=True, eq=False)
class SparsityPattern:
    """Block-level sparsity pattern: mask[i, j] is True when link (i, j)
    is free (may carry a non-zero gain block)."""

    mask: np.ndarray
    partition: BlockPartition

    def __post_init__(self):
        m = _frozen_array(self.mask, dtype=bool)
        N = self.partition.n_nodes
        if m.shape != (N, N):
            raise DimensionMismatch(f"mask shape {m.shape}, expected ({N},{N})")
        object.__setattr__(self, "mask", m)

    @classmethod
    def full(cls, partition: BlockPartition) -> "SparsityPattern":
        N = partition.n_nodes
        return cls(np.ones((N, N), dtype=bool), partition)

    @classmethod
    def empty(cls, partition: BlockPartition) -> "SparsityPattern":
        N = partition.n_nodes
        return cls(np.zeros((N, N), dtype=bool), partition)

    @classmethod
    def diagonal(cls, partition: BlockPartition) -> "SparsityPattern":
        return cls(np.eye(partition.n_nodes, dtype=bool), partition)

    @classmethod
    def from_gain(cls, gain: GainMatrix, threshold: float) -> "SparsityPattern":
        """Blocks whose Frobenius norm exceeds threshold are free."""
        return cls(gain.partition.block_norms(gain.K) > threshold, gain.partition)

    def structural_identity(self) -> np.ndarray:
        """Entrywise m x n 0/1 matrix, 1 on free-block entries, built anew
        on each call: a pattern holds no array but its mask."""
        return self.partition.expand(self.mask).astype(float)

    def complement_identity(self) -> np.ndarray:
        """Entrywise 0/1 matrix on the fixed-zero entries (1 - I)."""
        return 1.0 - self.structural_identity()

    def free_blocks(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(*np.nonzero(self.mask)))

    @property
    def n_free(self) -> int:
        return int(np.count_nonzero(self.mask))

    def without_block(self, i: int, j: int) -> "SparsityPattern":
        mask = self.mask.copy()
        mask[i, j] = False
        return SparsityPattern(mask, self.partition)

    def is_subset(self, other: "SparsityPattern") -> bool:
        return bool(np.all(~self.mask | other.mask))

    def same_as(self, other: "SparsityPattern") -> bool:
        return bool(np.array_equal(self.mask, other.mask))


@dataclass(frozen=True, eq=False)
class LtiPlant:
    """Continuous-time plant xdot = A x + B u + W d with quadratic weights.

    Q must be symmetric PSD, R symmetric PD, (A, B) stabilizable and
    (A, Q^{1/2}) detectable; all checked at construction.
    """

    A: np.ndarray
    B: np.ndarray
    W: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    partition: BlockPartition

    def __post_init__(self):
        for name in ("A", "B", "W", "Q", "R"):
            arr = _frozen_array(getattr(self, name))
            if arr.ndim != 2 or not np.all(np.isfinite(arr)):
                raise DimensionMismatch(f"{name} must be a finite 2-d real matrix")
            object.__setattr__(self, name, arr)
        n, m = self.partition.n, self.partition.m
        if self.A.shape != (n, n):
            raise DimensionMismatch(f"A shape {self.A.shape}, expected ({n},{n})")
        if self.B.shape != (n, m):
            raise DimensionMismatch(f"B shape {self.B.shape}, expected ({n},{m})")
        if self.W.shape[0] != n:
            raise DimensionMismatch(f"W has {self.W.shape[0]} rows, expected {n}")
        if self.Q.shape != (n, n):
            raise DimensionMismatch(f"Q shape {self.Q.shape}, expected ({n},{n})")
        if self.R.shape != (m, m):
            raise DimensionMismatch(f"R shape {self.R.shape}, expected ({m},{m})")
        self._check_weights()
        self._check_pbh()

    def _check_weights(self):
        for name, mat in (("Q", self.Q), ("R", self.R)):
            if np.linalg.norm(mat - mat.T) > 1e-10 * (1.0 + np.linalg.norm(mat)):
                raise DimensionMismatch(f"{name} must be symmetric")
        scale_q = 1.0 + np.linalg.norm(self.Q)
        if np.min(np.linalg.eigvalsh(self.Q)) < -1e-10 * scale_q:
            raise DimensionMismatch("Q must be positive semidefinite")
        scale_r = 1.0 + np.linalg.norm(self.R)
        if np.min(np.linalg.eigvalsh(self.R)) <= 1e-12 * scale_r:
            raise DimensionMismatch("R must be positive definite")

    def _check_pbh(self):
        # PBH tests on modes with Re >= 0: stabilizability needs
        # rank [A - lam I, B] = n, detectability rank [A - lam I; Q^{1/2}] = n.
        # Q^{1/2} is formed only for such a mode: a Hurwitz A tests none.
        n = self.n
        eye = np.eye(n)
        for lam in np.linalg.eigvals(self.A):
            if lam.real < -STABILITY_TOL:
                continue
            shifted = self.A - lam * eye
            if np.linalg.matrix_rank(np.hstack([shifted, self.B])) < n:
                raise NotStabilizing(f"(A, B) not stabilizable at eigenvalue {lam}")
            if np.linalg.matrix_rank(np.vstack([shifted, self.state_weight_sqrt()])) < n:
                raise NotStabilizing(f"(A, Q^1/2) not detectable at eigenvalue {lam}")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    def state_weight_sqrt(self) -> np.ndarray:
        """Symmetric PSD square root of Q."""
        vals, vecs = np.linalg.eigh(self.Q)
        return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T

