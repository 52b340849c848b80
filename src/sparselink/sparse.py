"""Sparsity-promoting feedback synthesis over a beta schedule.

Minimizes J(K) + beta * sum_ij G_ij ||K_ij||_F, with weights from the
reweighting rule G_ij = 1/(||K_ij|| + eps), by monotone proximal gradient:
the SpaRSA scheme of Wright, Nowak & Figueiredo (IEEE TSP 57(7), 2009),
run as a descent.descend whose prox is the block soft-threshold
K -> shrink(K, s beta G). Each step thresholds a gradient step on J block
by block, so blocks below their threshold become exact zeros. The step
rules are descend's: a Barzilai-Borwein step, halved until the composite
objective passes its sufficient-decrease test, and a stop at a fixed point
of the proximal map, measured by the gradient-mapping residual. J is +inf
off the stabilizing set, so every accepted iterate is stabilizing. Every
accepted step decreases the composite objective strictly; a solve that
does not converge raises the typed error of its descent status
(descent.require_converged).

A sweep warm-starts each beta from the previous solution, extracts the block
pattern of the result, and polishes every pattern with the structured
synthesizer to obtain comparable costs. An entry is (beta, pattern,
polished), polished a SynthesisInfo; the sparse gains stay in the sweep.
The first entry's polish is the deployed pre-attack gain
(scenario.run_pipeline), the base of the removal losses and the source of
the table values (priority.rank_links). No pass or polish factors its start
again: each gain carries the closed loop of its K -- K_c the loop
lqr_centralized factored, a sparse or polished gain the last loop its
solve evaluated -- by the hand-off of the h2 module docstring (h2._Trail,
which answers a descent's start from that loop, h2._carry,
h2._closed_loop). A sparse gain already on its pattern is its own
projection (GainMatrix.project), so its polish starts from its loop. An
entry whose pattern equals the previous entry's takes that entry's polish
instead of polishing again.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .descent import descend, require_converged
from .errors import DimensionMismatch, InvalidAssumption, _real, _shown
from .h2 import _carry, _closed_loop, _Trail, lqr_centralized
from .plant import BlockPartition, GainMatrix, LtiPlant, SparsityPattern
from .structured import SynthesisInfo, synthesize_structured_info

MAX_REWEIGHT = 3  # reweighting passes per beta
EPSILON_REWEIGHT = 1e-3  # eps of the reweighting rule
ZERO_THRESHOLD = 1e-6  # block norm at or below which a block is absent
_RESIDUAL_TOL = 1e-4  # fixed-point residual tolerance, relative to 1 + ||K||_F
_MAX_ITER = 400  # proximal-gradient iterations per solve


@dataclass(frozen=True, eq=False)
class SweepEntry:
    beta: float
    pattern: SparsityPattern
    polished: SynthesisInfo  # the structured synthesis on pattern

    @property
    def nnz_blocks(self) -> int:
        return self.pattern.n_free

    @property
    def cost_polished(self) -> float:
        return self.polished.cost

    @property
    def polished_gain(self) -> GainMatrix:
        return self.polished.gain


@dataclass(frozen=True, eq=False)
class SweepResult:
    entries: tuple[SweepEntry, ...]


def block_frobenius(gain: GainMatrix) -> np.ndarray:
    """N x N matrix of block Frobenius norms ||K_ij||_F."""
    return gain.partition.block_norms(gain.K)


def reweight(norms: np.ndarray, eps: float) -> np.ndarray:
    """Reweighting rule G_ij = 1 / (norms_ij + eps)."""
    norms = np.asarray(norms, dtype=float)
    if eps <= 0.0:
        raise InvalidAssumption("eps must be positive")
    if np.any(norms < 0.0):
        raise InvalidAssumption("norms must be non-negative")
    return 1.0 / (norms + eps)


def block_soft_threshold(v: np.ndarray, thresholds: np.ndarray, partition: BlockPartition) -> np.ndarray:
    """Blockwise shrinkage: block V_ij maps to (1 - t_ij/||V_ij||)_+ V_ij."""
    v = np.asarray(v, dtype=float)
    norms = partition.block_norms(v)
    keep = norms > thresholds
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.where(keep, 1.0 - thresholds / norms, 0.0)
    # +0.0 (not factor * v, which is -0.0 on negative entries) off the kept blocks
    return np.where(partition.expand(keep), partition.expand(factor) * v, 0.0)


class _Penalized:
    """The evaluation of the solve at the closed loop cl of K: value is
    J(K) + beta * sum_ij G_ij ||K_ij||_F, gradient() is grad J (the penalty
    enters descend through its prox)."""

    def __init__(self, cl, beta, weights):
        self.cl = cl
        j = cl.value
        norms = cl.plant.partition.block_norms(cl.k)
        self.value = j + beta * float(np.sum(weights * norms)) if math.isfinite(j) else math.inf

    def gradient(self):
        return self.cl.gradient()


def sparse_gain(
    plant: LtiPlant,
    beta: float,
    weights: np.ndarray,
    init: GainMatrix,
) -> GainMatrix:
    """Stabilizing fixed point of the proximal-gradient map at one (beta, G),
    reached from init by SpaRSA steps (see the module docstring). Every beta,
    0 included, stops at the residual tolerance _RESIDUAL_TOL. beta and the
    N x N weights G must be finite and non-negative (InvalidAssumption): a
    negative weight makes the penalty concave. An init that is not
    stabilizing raises NotStabilizing (descend's start check)."""
    if not 0.0 <= beta < math.inf:
        raise InvalidAssumption("beta must be finite and non-negative")
    weights = np.asarray(weights, dtype=float)
    n_nodes = plant.partition.n_nodes
    if weights.shape != (n_nodes, n_nodes):
        raise DimensionMismatch(f"weights shape {weights.shape}, expected ({n_nodes},{n_nodes})")
    if not np.all((0.0 <= weights) & (weights < math.inf)):
        raise InvalidAssumption("weights must be finite and non-negative")
    cl = _closed_loop(plant, init)
    partition = plant.partition
    trail = _Trail(cl, lambda c: _Penalized(c, beta, weights))
    res = descend(
        trail,
        cl.k,
        grad_tol=_RESIDUAL_TOL,
        max_iter=_MAX_ITER,
        prox=lambda v, s: block_soft_threshold(v, s * beta * weights, partition),
    )
    require_converged(res, "proximal gradient")
    return _carry(GainMatrix(res.x, partition), trail.last)


def default_beta_schedule(j_centralized: float) -> tuple[float, ...]:
    """Logarithmic schedule of 30 points from 1e-4 * J(K_c) to 1e2 * J(K_c).
    InvalidAssumption unless 0 < J(K_c) < inf: a plant whose optimal cost
    is 0 (W = 0, say) has no such schedule and needs sparsity.beta_schedule."""
    if not 0.0 < j_centralized < math.inf:
        raise InvalidAssumption(
            f"J(K_c) = {j_centralized!r} gives no default beta schedule; set sparsity.beta_schedule"
        )
    lo, hi = 1e-4 * j_centralized, 1e2 * j_centralized
    return tuple(np.logspace(math.log10(lo), math.log10(hi), 30))


def _checked_schedule(schedule) -> tuple[float, ...]:
    """The beta schedule as floats; InvalidAssumption unless it is a list of
    finite non-negative numbers in strictly increasing order."""
    if not isinstance(schedule, (list, tuple, np.ndarray)):
        raise InvalidAssumption(f"beta schedule must be a list of numbers, got {_shown(schedule)}")
    sched = tuple(_real(b, "beta schedule entry") for b in schedule)
    if not all(0.0 <= b < math.inf for b in sched):
        raise InvalidAssumption("beta schedule must be finite and non-negative")
    if any(b2 <= b1 for b1, b2 in zip(sched, sched[1:])):
        raise InvalidAssumption("beta schedule must be strictly increasing")
    return sched


def sparsity_sweep(plant: LtiPlant, beta_schedule=None) -> SweepResult:
    """Warm-started sweep over the beta schedule (None: default_beta_schedule)
    with per-beta reweighting.

    Every recorded pattern gets a structured polish from its sparse gain
    (synthesize_structured_info with init, which starts cold when that gain's
    projection is not stabilizing), so the reported costs are comparable
    across entries; an entry whose pattern equals the previous entry's
    takes that entry's polish. Passes and polishes start from the closed
    loops their gains carry (module docstring).
    """
    schedule = None if beta_schedule is None else _checked_schedule(beta_schedule)
    gain = lqr_centralized(plant)  # K_c
    if schedule is None:
        schedule = default_beta_schedule(_closed_loop(plant, gain).value)

    entries: list[SweepEntry] = []
    for beta in schedule:
        for _ in range(MAX_REWEIGHT):
            g = reweight(block_frobenius(gain), EPSILON_REWEIGHT)
            gain = sparse_gain(plant, beta, g, gain)
        pattern = SparsityPattern.from_gain(gain, ZERO_THRESHOLD)
        if entries and pattern.same_as(entries[-1].pattern):
            polished = entries[-1].polished
        else:
            polished = synthesize_structured_info(plant, pattern, init=gain)
        entries.append(SweepEntry(float(beta), pattern, polished))

    return SweepResult(tuple(entries))


def _sweep_rows(result: SweepResult) -> list[dict]:
    """The sweep's report: one row per entry, rendered by sweep_csv and by
    `sparselink sweep --format json`."""
    return [{"beta": e.beta, "nnz_blocks": e.nnz_blocks, "J_polished": e.cost_polished} for e in result.entries]


def sweep_csv(result: SweepResult) -> str:
    """CSV export with columns beta, nnz_blocks, J_polished."""
    lines = ["beta,nnz_blocks,J_polished"]
    for row in _sweep_rows(result):
        lines.append("{beta:.17g},{nnz_blocks},{J_polished:.17g}".format(**row))
    return "\n".join(lines) + "\n"
