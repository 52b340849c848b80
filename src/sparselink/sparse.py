"""Sparsity-promoting feedback synthesis over a beta schedule.

Minimizes J(K) + beta * sum_ij G_ij ||K_ij||_F by an ADMM split K = F:
the K-update descends J(K) + (rho/2)||K - F + U||_F^2, the F-update is the
blockwise soft-threshold with per-block threshold beta*G_ij/rho, and U is
the scaled dual. Weights follow the reweighting rule G_ij = 1/(||K_ij|| + eps).

The smooth part is nonconvex (and +inf off the stabilizing set), so plain
ADMM can settle into a consensus limit cycle when the penalty asks for a
block that stability cannot spare. Fixed points of the split coincide with
fixed points of the proximal-gradient map K -> shrink(K - grad J / rho,
beta G / rho), so when the best achieved objective stops improving, a
monotone proximal-gradient refinement takes over from the best iterate and
drives to the same kind of fixed point. The recorded objective trace is the
accepted best-so-far sequence and is non-increasing by construction.

A sweep warm-starts each beta from the previous solution, extracts the block
pattern of the result, and polishes every pattern with the structured
synthesizer to obtain comparable costs.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import descent
from .descent import ARMIJO_C1, ARMIJO_SHRINK, MAX_BACKTRACKS, descend, require_converged
from .errors import (
    DimensionMismatch,
    InvalidAssumption,
    LostStabilizability,
    MaxIterations,
    NotStabilizing,
)
from .h2 import _ClosedLoop, closed_loop_cost, is_stabilizing, lqr_centralized
from .plant import BlockPartition, GainMatrix, LtiPlant, SparsityPattern
from .structured import synthesize_projected, synthesize_structured_info

MAX_REWEIGHT = 3  # reweighting passes per beta
EPSILON_REWEIGHT = 1e-3  # eps of the reweighting rule
ZERO_THRESHOLD = 1e-6  # block norm at or below which a block is absent
_RHO = 100.0  # initial ADMM penalty (residual balancing rescales it)
_MAX_OUTER = 200
_RESIDUAL_TOL = 1e-4  # primal and dual residual tolerance, relative to 1 + ||K||_F
_KUPDATE_TOL = 1e-5
_KUPDATE_MAX_ITER = 400


@dataclass(frozen=True, eq=False)
class SweepEntry:
    beta: float
    gain: GainMatrix
    pattern: SparsityPattern
    nnz_blocks: int
    cost_polished: float
    polished_gain: GainMatrix


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
        raise ValueError("eps must be positive")
    if np.any(norms < 0.0):
        raise ValueError("norms must be non-negative")
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


class _ProxEval:
    """J(K) + (rho/2)||K - anchor||_F^2 for the ADMM K-update."""

    def __init__(self, plant, k, anchor, rho):
        self.cl = _ClosedLoop(plant, k)
        self._diff = k - anchor
        self._rho = rho
        j = self.cl.value
        if math.isfinite(j):
            self.value = j + 0.5 * rho * float(np.sum(self._diff * self._diff))
        else:
            self.value = math.inf

    def gradient(self):
        return self.cl.gradient() + self._rho * self._diff


def _penalized_objective(cl, beta, weights, partition) -> float:
    """J(K) + beta * sum_ij G_ij ||K_ij||_F at the closed loop of K."""
    j = cl.value
    if not math.isfinite(j):
        return math.inf
    norms = block_frobenius(GainMatrix(cl.k, partition))
    return j + beta * float(np.sum(weights * norms))


@dataclass(frozen=True, eq=False)
class _SparseGainDetails:
    k: np.ndarray
    objective_trace: tuple[float, ...]
    iterations: int
    converged: bool


def sparse_gain(
    plant: LtiPlant,
    beta: float,
    weights: np.ndarray,
    init: GainMatrix,
) -> GainMatrix:
    """Stabilizing fixed point of the ADMM scheme at one (beta, G)."""
    details = _sparse_gain_details(plant, beta, weights, init)
    return GainMatrix(details.k, plant.partition)


def _sparse_gain_details(plant, beta, weights, init) -> _SparseGainDetails:
    if beta < 0.0:
        raise ValueError("beta must be non-negative")
    weights = np.asarray(weights, dtype=float)
    n_nodes = plant.partition.n_nodes
    if weights.shape != (n_nodes, n_nodes):
        raise DimensionMismatch(f"weights shape {weights.shape}, expected ({n_nodes},{n_nodes})")
    k0 = init.K if isinstance(init, GainMatrix) else np.asarray(init, dtype=float)
    cl = _ClosedLoop(plant, k0)
    if not cl.stable:
        raise NotStabilizing("initial gain must be stabilizing")

    if beta == 0.0:
        res = descend(
            lambda kk: _ClosedLoop(plant, kk),
            k0,
            grad_tol=1e-6,
            max_iter=5000,
        )
        require_converged(res, "unpenalized descent")
        return _SparseGainDetails(res.x, (res.value,), res.iterations, True)

    partition = plant.partition
    rho = _RHO
    k = np.array(k0, dtype=float)
    f = k.copy()
    u = np.zeros_like(k)
    best, best_cl = k.copy(), cl
    best_obj = _penalized_objective(cl, beta, weights, partition)
    trace: list[float] = [best_obj]
    last = None

    def make_eval(kk):
        # The K-update's last evaluation is, unless the descent stalled, the
        # point it returns; its closed loop then serves the objective below.
        nonlocal last
        last = _ProxEval(plant, kk, anchor, rho)
        return last

    converged = False
    refined = False
    stale = 0
    it = 0
    for it in range(_MAX_OUTER):
        anchor = f - u
        res = descend(
            make_eval,
            k,
            grad_tol=_KUPDATE_TOL,
            max_iter=_KUPDATE_MAX_ITER,
        )
        if res.status == descent.LOST_STABILITY:
            raise LostStabilizability("every line-search step left the stabilizing set")
        k = res.x
        cl = last.cl if last.cl.k is k else _ClosedLoop(plant, k)
        obj = _penalized_objective(cl, beta, weights, partition)
        if obj < best_obj - 1e-12 * (1.0 + abs(best_obj)):
            best, best_cl, best_obj, stale = k.copy(), cl, obj, 0
        else:
            if obj < best_obj:
                best, best_cl, best_obj = k.copy(), cl, obj
            stale += 1
        trace.append(best_obj)
        f_new = block_soft_threshold(k + u, beta * weights / rho, partition)
        primal = float(np.linalg.norm(k - f_new))
        dual = rho * float(np.linalg.norm(f_new - f))
        u = u + k - f_new
        f = f_new
        scale = 1.0 + float(np.linalg.norm(k))
        if primal <= _RESIDUAL_TOL * scale and dual <= _RESIDUAL_TOL * scale:
            converged = True
            break
        if stale >= 5:
            break
        # Residual balancing keeps the penalty matched to the problem scale
        # (the split's fixed points are the same for every rho; u is the
        # scaled dual, so it rescales inversely).
        if primal > 10.0 * dual:
            rho *= 2.0
            u *= 0.5
        elif dual > 10.0 * primal:
            rho *= 0.5
            u *= 2.0
    if not converged:
        # Consensus stalled (or the budget ran out): finish with the
        # monotone proximal-gradient refinement from the best iterate.
        k, best_obj, tail, converged = _prox_refine(
            plant, best, best_cl, best_obj, beta, weights
        )
        f = k
        trace.extend(tail)
        refined = True
    if not converged:
        raise MaxIterations(f"ADMM did not converge within {_MAX_OUTER} iterations")

    # Prefer the exactly-sparse consensus variable when it is admissible.
    k_final = k
    if not refined:
        if is_stabilizing(plant, f):
            k_final = f
        else:
            pattern_f = SparsityPattern.from_gain(GainMatrix(f, partition), ZERO_THRESHOLD)
            projected = k * pattern_f.structural_identity()
            if is_stabilizing(plant, projected):
                k_final = projected
    return _SparseGainDetails(k_final, tuple(trace), it + 1, converged)


def _prox_refine(plant, k, cl, obj, beta, weights):
    """Monotone proximal-gradient refinement of the composite objective,
    started from a stabilizing iterate k with closed loop cl. Terminates at
    a fixed point of the contract's shrink(K - grad J / rho, beta G / rho)
    map, measured by the gradient-mapping residual against the consensus
    tolerance."""
    partition = plant.partition
    eta_ref = 1.0 / _RHO
    eta = eta_ref
    trace: list[float] = []
    prev_k = None
    prev_grad = None

    def _residual(point, grad):
        ref = block_soft_threshold(
            point - eta_ref * grad, eta_ref * beta * weights, partition
        )
        return float(np.linalg.norm(point - ref)) / eta_ref

    for _ in range(_KUPDATE_MAX_ITER):
        grad = cl.gradient()
        if _residual(k, grad) <= _RESIDUAL_TOL * (1.0 + float(np.linalg.norm(k))):
            return k, obj, trace, True
        if prev_k is not None:
            s = k - prev_k
            y = grad - prev_grad
            sy = float(np.sum(s * y))
            if sy > 0.0:
                eta = float(np.sum(s * s)) / sy
        eta = min(max(eta, 1e-12), 1e6)
        prev_k, prev_grad = k, grad
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            cand = block_soft_threshold(
                k - eta * grad, eta * beta * weights, partition
            )
            step_sq = float(np.sum((cand - k) ** 2))
            if step_sq == 0.0:
                break
            cand_cl = _ClosedLoop(plant, cand)
            cand_obj = _penalized_objective(cand_cl, beta, weights, partition)
            if cand_obj <= obj - ARMIJO_C1 / (2.0 * eta) * step_sq:
                k, cl, obj = cand, cand_cl, cand_obj
                trace.append(obj)
                accepted = True
                break
            eta *= ARMIJO_SHRINK
        if not accepted:
            break
    grad = cl.gradient()
    ok = _residual(k, grad) <= _RESIDUAL_TOL * (1.0 + float(np.linalg.norm(k)))
    return k, obj, trace, ok


def default_beta_schedule(j_centralized: float, count: int = 30) -> tuple[float, ...]:
    """Logarithmic schedule from 1e-4 * J(K_c) to 1e2 * J(K_c)."""
    lo, hi = 1e-4 * j_centralized, 1e2 * j_centralized
    return tuple(np.logspace(math.log10(lo), math.log10(hi), count))


def _checked_schedule(schedule) -> tuple[float, ...]:
    """The beta schedule as floats; InvalidAssumption unless it is a list of
    non-negative numbers in strictly increasing order."""
    if not isinstance(schedule, (list, tuple, np.ndarray)) or not all(
        isinstance(b, numbers.Real) for b in schedule
    ):
        raise InvalidAssumption(f"beta schedule must be a list of numbers, got {schedule!r}")
    sched = tuple(float(b) for b in schedule)
    if not all(b >= 0.0 for b in sched):
        raise InvalidAssumption("beta schedule must be non-negative")
    if any(b2 <= b1 for b1, b2 in zip(sched, sched[1:])):
        raise InvalidAssumption("beta schedule must be strictly increasing")
    return sched


def sparsity_sweep(plant: LtiPlant, beta_schedule=None) -> SweepResult:
    """Warm-started sweep over the beta schedule (None: default_beta_schedule)
    with per-beta reweighting.

    Every recorded pattern gets a structured polish so the reported costs
    are comparable across entries. A final backward pass re-polishes any
    entry whose cost exceeds that of a (nested) sparser successor, which
    removes local-minimum artifacts from the warm-start path.
    """
    k_c = lqr_centralized(plant)
    if beta_schedule is None:
        schedule = default_beta_schedule(closed_loop_cost(plant, k_c))
    else:
        schedule = _checked_schedule(beta_schedule)

    gain = k_c
    entries: list[SweepEntry] = []
    for beta in schedule:
        for _ in range(MAX_REWEIGHT):
            g = reweight(block_frobenius(gain), EPSILON_REWEIGHT)
            gain = sparse_gain(plant, beta, g, gain)
        pattern = SparsityPattern.from_gain(gain, ZERO_THRESHOLD)
        info = synthesize_projected(plant, pattern, gain)
        entries.append(
            SweepEntry(
                beta=float(beta),
                gain=gain,
                pattern=pattern,
                nnz_blocks=pattern.n_free,
                cost_polished=info.cost,
                polished_gain=info.gain,
            )
        )

    for idx in range(len(entries) - 2, -1, -1):
        cur, nxt = entries[idx], entries[idx + 1]
        if nxt.pattern.is_subset(cur.pattern) and cur.cost_polished > nxt.cost_polished:
            refined = synthesize_structured_info(plant, cur.pattern, init=nxt.polished_gain)
            if refined.cost < cur.cost_polished:
                entries[idx] = replace(
                    cur, cost_polished=refined.cost, polished_gain=refined.gain
                )
    return SweepResult(tuple(entries))


def sweep_csv(result: SweepResult) -> str:
    """CSV export with columns beta, nnz_blocks, J_polished."""
    lines = ["beta,nnz_blocks,J_polished"]
    for e in result.entries:
        lines.append(f"{e.beta:.17g},{e.nnz_blocks},{e.cost_polished:.17g}")
    return "\n".join(lines) + "\n"
