"""Structured H2 synthesis by the method of multipliers.

For a sparsity pattern with structural identity I and complement Ic, the
augmented Lagrangian

    L_g(K, Lam) = J(K) + trace(Lam^T (K o Ic)) + (g/2) ||K o Ic||_F^2

is minimized over unstructured K for fixed multipliers, then Lam is updated
by Lam + g (K o Ic) and the penalty grows geometrically. One stop rule ends
the loop: the hard projection K o I is factored only once ||K o Ic||_F is
below _EPS_STOP, and the first such projection that is stabilizing starts
a projected-gradient polish on the free entries; with none in _MAX_OUTER
outer iterations, the loop raises PatternNotStabilizable. It runs from K_c,
for cold starts only: a warm start projects its init onto the pattern and
polishes from there when the projection is stabilizing, so only an init
whose projection is not stabilizing falls back to the cold start.

Every closed loop the method factors serves all its later uses, by the
hand-off of the h2 module docstring: an inner solve starts from the loop
its predecessor ended on (h2._Trail.loop), the polish from the stability
check of the projection it starts at, and each descent's start is that
loop. An init already on the pattern is its own projection and brings the
closed loop it carries (h2._closed_loop), and the returned gain is handed
the last loop the polish evaluated (h2._carry), so the next solve from it
factors nothing. A polish that does not converge raises the typed error of
its status, so SynthesisInfo.converged is always True.

A pattern with no input entry (B^T o I = 0) cannot move trace(A - B K) off
trace(A); when that is not below -n STABILITY_TOL, no gain on the pattern
is Hurwitz, and the synthesis raises PatternNotStabilizable before the
multiplier loop.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .descent import descend, require_converged
from .errors import NotStabilizing, PatternNotStabilizable
from .h2 import _carry, _ClosedLoop, _closed_loop, _Trail, lqr_centralized
from .plant import STABILITY_TOL, GainMatrix, LtiPlant, SparsityPattern

# The penalty starts at _GAMMA0 and grows by _ALPHA per multiplier update, at
# most _MAX_OUTER times (the schedule of Lin, Fardad & Jovanovic, IEEE TAC
# 2013); the loop stops once ||K o Ic||_F < _EPS_STOP at a stabilizing
# projection. Inner solves and the polish are descend runs with these limits.
_GAMMA0 = 1.0
_ALPHA = 5.0
_MAX_OUTER = 50
_EPS_STOP = 1e-6
_INNER_TOL = 1e-6
_INNER_MAX_ITER = 3000
_POLISH_TOL = 1e-6
_POLISH_MAX_ITER = 20000


@dataclass(frozen=True, eq=False)
class SynthesisInfo:
    gain: GainMatrix
    cost: float
    iterations: int
    converged: bool  # always True: a synthesis that does not converge raises


class _AugLagEval:
    """Value/gradient of L_g at a fixed multiplier and penalty, on the
    closed loop cl of the gain."""

    def __init__(self, cl, lam, gamma, comp_identity):
        self._cl = cl
        self._lam = lam
        self._gamma = gamma
        self._viol = cl.k * comp_identity
        self._comp = comp_identity
        j = self._cl.value
        if math.isfinite(j):
            self.value = (
                j
                + float(np.sum(lam * self._viol))
                + 0.5 * gamma * float(np.sum(self._viol * self._viol))
            )
        else:
            self.value = math.inf

    def gradient(self):
        return self._cl.gradient() + self._lam * self._comp + self._gamma * self._viol


def augmented_lagrangian(plant: LtiPlant, gain, multiplier, gamma: float, pattern: SparsityPattern) -> float:
    """L_g value at a stabilizing gain; raises NotStabilizing otherwise."""
    ev = _AugLagEval(_closed_loop(plant, gain), np.asarray(multiplier, dtype=float), gamma,
                     pattern.complement_identity())
    if not math.isfinite(ev.value):
        raise NotStabilizing("augmented Lagrangian undefined for a non-stabilizing gain")
    return ev.value


def _inner_solve(cl, lam, gamma, comp, grad_tol):
    """Descent of L_g over unstructured K at a fixed multiplier and penalty
    from the closed loop cl; returns the closed loop of its end point
    (h2._Trail.loop)."""
    trail = _Trail(cl, lambda c: _AugLagEval(c, lam, gamma, comp))
    return trail.loop(descend(trail, cl.k, grad_tol=grad_tol, max_iter=_INNER_MAX_ITER).x)


def synthesize_structured_info(
    plant: LtiPlant,
    pattern: SparsityPattern,
    *,
    init: GainMatrix | None = None,
) -> SynthesisInfo:
    """Structured H2-optimal gain on the pattern (exact zeros off-pattern)
    with its cost and convergence diagnostics.

    Without init the synthesis is cold: the multiplier loop from K_c, then
    the polish. With init it polishes from init's projection onto the
    pattern when that projection is stabilizing (iterations 0), starts cold
    when only init is stabilizing, and raises NotStabilizing when neither
    is.
    """
    plant.partition.check_same(pattern.partition, "pattern")
    comp = pattern.complement_identity()
    ident = pattern.structural_identity()
    # Without an input on the pattern, trace(A - B K) = trace(A) for every
    # K on it, and a Hurwitz A - B K needs a trace below -n STABILITY_TOL.
    if not np.any(plant.B.T * ident) and np.trace(plant.A) >= -plant.n * STABILITY_TOL:
        raise PatternNotStabilizable("trace(A - B K) cannot go negative on the pattern")

    start = None if init is None else _closed_loop(plant, init.project(pattern))
    if start is not None and start.stable:
        outer = 0
    else:
        if init is not None and not _closed_loop(plant, init).stable:
            raise NotStabilizing("neither the initial gain nor its projection is stabilizing")
        start, outer = _multiplier_loop(plant, comp, ident)

    # the polish: projected-gradient descent of J on the free entries
    trail = _Trail(start, lambda c: c)
    res = descend(trail, start.k, prox=lambda v, s: v * ident,
                  grad_tol=_POLISH_TOL, max_iter=_POLISH_MAX_ITER)
    require_converged(res, "structured polish")
    gain = _carry(GainMatrix(res.x * ident, plant.partition), trail.last)  # exact off-pattern zeros
    return SynthesisInfo(gain=gain, cost=res.value, iterations=outer, converged=True)


def _multiplier_loop(plant, comp, ident):
    """The multiplier loop from K_c (module docstring). Returns the closed
    loop of the first stabilizing projection whose violation is below
    _EPS_STOP, and the number of outer iterations before it."""
    cl = _closed_loop(plant, lqr_centralized(plant))
    lam = np.zeros_like(cl.k)
    gamma = _GAMMA0
    for outer in range(_MAX_OUTER):
        if np.linalg.norm(cl.k * comp) < _EPS_STOP:
            projection = _ClosedLoop(plant, cl.k * ident)
            if projection.stable:
                return projection, outer
        # Loose-to-tight inner tolerance keeps early outer iterations cheap.
        inner_tol = max(_INNER_TOL, 1e-2 / gamma)
        cl = _inner_solve(cl, lam, gamma, comp, inner_tol)
        lam = lam + gamma * (cl.k * comp)
        gamma = _ALPHA * gamma
    raise PatternNotStabilizable(f"no tight stabilizing projection within {_MAX_OUTER} outer iterations")
