"""Monotone descent with backtracking, the one line search of the package.

Its users are the augmented-Lagrangian inner solves and the polish of
structured, which the removal losses of priority.rank_links also run when
their Newton model does not settle a loss, and sparse.sparse_gain.
Objectives may return +inf for infeasible (non-stabilizing) trial points;
such trials are rejected and no arithmetic is ever performed on the
sentinel. Accepted values decrease strictly.

The objective is F = f + h: the caller evaluates F and the gradient g of
the smooth f, and h enters only through its proximal map prox(v, s). No
prox is h = 0; the polish passes the projection v * ident onto its
pattern, sparse_gain the block soft-threshold of its penalty. A trial at
step tau is prox(x - tau g, tau), accepted when F(trial) <= F -
(ARMIJO_C1 / tau) ||trial - x||^2 (for h = 0 the Armijo test); step sizes
are seeded by a Barzilai-Borwein estimate. A trial that does not move x
ends the descent as stalled. make_eval evaluates x0 first, then each
trial, and is asked a gradient only at x0 and at each accepted trial.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LineSearchFailure, LostStabilizability, MaxIterations, NotStabilizing

CONVERGED = "converged"
MAX_ITER = "max_iter"
STALLED = "stalled"
LOST_STABILITY = "lost_stability"

_STEP_MIN = 1e-18
_STEP_MAX = 1e6
_RESIDUAL_STEP = 0.01  # S of the gradient-mapping residual
# Armijo sufficient-decrease constant and backtracking factor of every line
# search. An iteration shrinks its trial step until a trial is accepted or
# the step falls below _STEP_MIN: from at most _STEP_MAX that is at most 80
# trials, since 1e6 * 0.5**80 < 1e-18.
ARMIJO_C1 = 1e-4
ARMIJO_SHRINK = 0.5


@dataclass
class DescentResult:
    x: np.ndarray
    value: float
    gradient: np.ndarray
    iterations: int
    status: str


def descend(
    make_eval,
    x0: np.ndarray,
    *,
    grad_tol: float,
    max_iter: int,
    prox=None,
) -> DescentResult:
    """Minimize F = f + h from a feasible start (see the module docstring).

    make_eval(x) must return an object with a float attribute `value`, F(x)
    (+inf allowed for infeasible points), and a `gradient()` method, the
    gradient of f, that is only called at finite-value points. prox(v, s),
    when given, is the proximal map of s h. Every iterate up to the
    max_iter-th is tested for convergence, at a fixed point of the
    proximal map: ||x - prox(x - S g, S)||_F / S <= grad_tol (1 + ||x||_F)
    for S = _RESIDUAL_STEP (for a projection, the projected gradient norm).
    """
    if prox is None:
        prox = _identity
    x = np.array(x0, dtype=float)
    ev = make_eval(x)
    f = ev.value
    if not math.isfinite(f):
        raise NotStabilizing("descent requires a feasible starting point")
    g = ev.gradient()
    step = 1.0 / (1.0 + float(np.linalg.norm(g)))

    for it in range(max_iter + 1):
        shrunk = prox(x - _RESIDUAL_STEP * g, _RESIDUAL_STEP)
        residual = float(np.linalg.norm(x - shrunk)) / _RESIDUAL_STEP
        if residual <= grad_tol * (1.0 + float(np.linalg.norm(x))):
            return DescentResult(x, f, g, it, CONVERGED)
        if it == max_iter:
            return DescentResult(x, f, g, it, MAX_ITER)

        tau = min(max(step, _STEP_MIN), _STEP_MAX)
        accepted = None
        failure = LOST_STABILITY
        while tau >= _STEP_MIN:
            x_trial = prox(x - tau * g, tau)
            moved_sq = float(np.sum((x_trial - x) ** 2))
            if moved_sq == 0.0:
                failure = STALLED
                break
            ev_trial = make_eval(x_trial)
            f_trial = ev_trial.value
            if math.isfinite(f_trial):
                if f_trial <= f - ARMIJO_C1 * (moved_sq / tau):
                    accepted = (x_trial, ev_trial, f_trial, tau)
                    break
                failure = STALLED
            tau *= ARMIJO_SHRINK
        if accepted is None:
            return DescentResult(x, f, g, it, failure)

        x_new, ev_new, f_new, tau = accepted
        g_new = ev_new.gradient()
        # Barzilai-Borwein estimate for the next trial step.
        s = x_new - x
        y = g_new - g
        sy = float(np.sum(s * y))
        ss = float(np.sum(s * s))
        step = ss / sy if sy > 0.0 else tau * 2.0
        x, f, g = x_new, f_new, g_new


def _identity(v, s):
    return v


_STATUS_ERRORS = {
    MAX_ITER: (MaxIterations, "hit its iteration limit"),
    STALLED: (LineSearchFailure, "stalled: no trial step decreased the objective"),
    LOST_STABILITY: (
        LostStabilizability,
        "lost stability: every trial step left the stabilizing set",
    ),
}


def require_converged(res: DescentResult, what: str) -> DescentResult:
    """res when it converged; otherwise the typed error of its status."""
    if res.status != CONVERGED:
        error, reason = _STATUS_ERRORS[res.status]
        raise error(f"{what} {reason}")
    return res
