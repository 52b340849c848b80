"""Monotone descent with Armijo backtracking.

Shared by the augmented-Lagrangian inner solver, the structured polish,
the unpenalized (beta = 0) sparse-synthesis solve and the removal-loss
re-optimizations of priority.rank_links. Objectives may return +inf for
infeasible (non-stabilizing) trial points; such trials are rejected by the
line search and no arithmetic is ever performed on the sentinel. Accepted
values decrease strictly.

By default the direction is the negative (masked) gradient and step sizes
are seeded by a Barzilai-Borwein estimate. A caller holding a Newton model
passes a preconditioner instead: the direction is then -M g for a fixed
positive definite M (priority.rank_links uses the inverse Hessian of J at
the base optimum, downdated for the removed block), and every iteration
tries the unit step first.
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
# Armijo sufficient-decrease constant, backtracking factor, and the number
# of backtracking trials per iteration of every line search.
ARMIJO_C1 = 1e-4
ARMIJO_SHRINK = 0.5
MAX_BACKTRACKS = 80


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
    mask: np.ndarray | None = None,
    start=None,
    precondition=None,
) -> DescentResult:
    """Minimize a smooth objective from a feasible start.

    make_eval(x) must return an object with a float attribute `value`
    (+inf allowed for infeasible points) and a `gradient()` method that is
    only called at finite-value points. start, when given, is the caller's
    make_eval(x0), so x0 is not evaluated again. With a mask, descent is
    restricted to the masked entries and convergence is measured on the
    masked gradient: ||grad * mask||_F <= grad_tol * (1 + ||x||_F).
    precondition(g), when given, returns the direction -M g for a positive
    definite M that is zero off the mask; each iteration then tries the
    unit step first (see the module docstring), and a direction along
    which J does not decrease ends the descent as stalled.
    """
    x = np.array(x0, dtype=float)
    ev = make_eval(x) if start is None else start
    f = ev.value
    if not math.isfinite(f):
        raise NotStabilizing("descent requires a feasible starting point")
    g = ev.gradient()
    step = 1.0 / (1.0 + float(np.linalg.norm(g)))

    for it in range(max_iter):
        d = -g if mask is None else -(g * mask)
        slope = -float(np.sum(d * d))
        gnorm = math.sqrt(-slope)
        if gnorm <= grad_tol * (1.0 + float(np.linalg.norm(x))):
            return DescentResult(x, f, g, it, CONVERGED)
        if precondition is not None:
            d = precondition(g)
            slope = float(np.sum(g * d))
            if not slope < 0.0:  # not a descent direction: no step can pass Armijo
                return DescentResult(x, f, g, it, STALLED)
            step = 1.0

        tau = min(max(step, _STEP_MIN), _STEP_MAX)
        accepted = None
        saw_finite_reject = False
        for _ in range(MAX_BACKTRACKS):
            x_trial = x + tau * d
            ev_trial = make_eval(x_trial)
            f_trial = ev_trial.value
            if math.isfinite(f_trial) and f_trial <= f + ARMIJO_C1 * tau * slope:
                accepted = (x_trial, ev_trial, f_trial, tau)
                break
            if math.isfinite(f_trial):
                saw_finite_reject = True
            tau *= ARMIJO_SHRINK
            if tau < _STEP_MIN:
                break
        if accepted is None:
            status = STALLED if saw_finite_reject else LOST_STABILITY
            return DescentResult(x, f, g, it, status)

        x_new, ev_new, f_new, tau = accepted
        g_new = ev_new.gradient()
        # Barzilai-Borwein estimate for the next trial step, on the masked
        # subspace when a mask is active.
        s = x_new - x
        y = (g_new - g) if mask is None else (g_new - g) * mask
        sy = float(np.sum(s * y))
        ss = float(np.sum(s * s))
        step = ss / sy if sy > 0.0 else tau * 2.0
        x, f, g = x_new, f_new, g_new

    return DescentResult(x, f, g, max_iter, MAX_ITER)


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
