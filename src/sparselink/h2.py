"""H2 cost machinery for state feedback u = -K x on xdot = Ax + Bu + Wd.

The closed loop is A_cl = A - B K. The cost of a stabilizing gain is

    J(K) = trace(W^T P W),   A_cl^T P + P A_cl + Q + K^T R K = 0,

and its gradient is grad J(K) = 2 E L with E = R K - B^T P and L the
closed-loop controllability Gramian, A_cl L + L A_cl^T + W W^T = 0. Its
Hessian applied to a direction D is

    H[D] = 2 (R D - B^T P~) L + 2 E L~,

where A_cl^T P~ + P~ A_cl + D^T E + E^T D = 0 and
A_cl L~ + L~ A_cl^T - B D L - L D^T B^T = 0 are the first-order changes of
P and L along D. The Lyapunov operator of L~ is the adjoint of that of P~,
so <D', E L~> = -<P~', sym(B D L)> with P~' the change of P along D': on
unit directions D_c the Hessian matrix is

    H_dc = 2 R_ki L_jl + 2 <U_c, S_d> + 2 <U_d, S_c>,

for c = (i, j) and d = (k, l), with A_cl^T U_c + U_c A_cl = D_c^T E + E^T D_c
and S_d = sym(B D_d L), one Lyapunov solve per entry. All these Lyapunov
equations share one real Schur factorization of A_cl (Bartels-Stewart via
LAPACK trsyl).
Non-stabilizing gains map to J = +inf; optimizers must treat that value as
a line-search rejection and never do arithmetic with it.

A GainMatrix can carry the closed loop of its K (_carry), which holds all
that is derived from K, the removal losses' Hessian factors too. A solve
handed the gain on the same plant takes that loop, and a loop factored for
the gain stays on it (_closed_loop). Every descent over closed loops runs
on a _Trail, which factors only a K its last loop does not hold, and its
solver hands that loop to the gain it returns (_carry) or to the next
solve (_Trail.loop), so a gain passed from stage to stage is factored
once. Only _holds decides whether a loop belongs to a K: byte for byte.
"""
from __future__ import annotations

import functools
import math

import numpy as np
from scipy.linalg import solve_continuous_are
from scipy.linalg.lapack import dgees, dpotrf, dtrsyl

from .errors import (
    DimensionMismatch,
    MaxIterations,
    NotHurwitz,
    NotStabilizing,
    RiccatiFailure,
    SingularSolve,
)
from .plant import GainMatrix, LtiPlant, STABILITY_TOL

def _no_sort(x, y=None):
    return None


@functools.cache
def _gees_lwork(n: int) -> int:
    """Optimal dgees work size for order n. LAPACK's workspace query depends
    on n alone, so one query per order serves every matrix."""
    work = dgees(_no_sort, np.zeros((n, n)), lwork=-1)[-2]
    return int(work[0])


def _real_schur(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Real Schur form a = Z T Z^T and the spectral abscissa max Re eig(a).

    The dgees call of scipy.linalg.schur(a, output="real") with its checks
    and errors, minus the per-call workspace query and lookup. LAPACK
    returns T in standardized form: the two diagonal entries of a 2x2 block
    (a complex pair) are equal to its real part, so the abscissa is
    max diag(T).
    """
    a = np.asarray_chkfinite(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected square matrix")
    if a.size == 0:
        raise ValueError("an empty matrix has no spectral abscissa")
    t, _, _, _, z, _, info = dgees(_no_sort, a, lwork=_gees_lwork(a.shape[0]))
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gees")
    if info > 0:
        raise MaxIterations(f"Schur form not found: the QR iteration of dgees gave up (info={info})")
    return t, z, float(np.max(np.diag(t)))


def _lyapunov_factored(t: np.ndarray, z: np.ndarray, rhs: np.ndarray, transposed: bool) -> np.ndarray:
    """Solve A^T X + X A + rhs = 0 (transposed=True) or A X + X A^T + rhs = 0
    (False) from A = Z T Z^T by one trsyl call (Bartels-Stewart)."""
    c = z.T @ (-rhs) @ z
    trana, tranb = ("T", "N") if transposed else ("N", "T")
    x, scale, info = dtrsyl(t, t, c, trana=trana, tranb=tranb, isgn=1)
    if info < 0 or scale == 0.0 or not np.all(np.isfinite(x)):
        raise SingularSolve(f"trsyl failed (info={info}, scale={scale})")
    if info == 1:
        raise SingularSolve("Lyapunov operator numerically singular")
    return _sym(z @ (x / scale) @ z.T)


def _sym(x: np.ndarray) -> np.ndarray:
    """The symmetric part (x + x^T) / 2, equal to x when x is symmetric."""
    return 0.5 * (x + x.T)


class _ClosedLoop:
    """One Schur factorization of A - B K serving stability test, both
    Gramians, cost, and gradient. Internal work happens on raw arrays.

    value and gradient() are the evaluation form descent.descend takes; the
    Lyapunov solves run only when one of them is asked for. hessian() adds
    one solve per column on the same factor; hessian_factor() holds it
    factored.
    """

    def __init__(self, plant: LtiPlant, k: np.ndarray):
        self.plant = plant
        self.k = k
        self._t, self._z, abscissa = _real_schur(plant.A - plant.B @ k)
        self.stable = abscissa < -STABILITY_TOL
        self._p = None
        self._l = None
        self._factors = {}  # free mask bytes -> Cholesky factor of H, or None

    def obs_gramian(self) -> np.ndarray:
        if self._p is None:
            q_hat = self.plant.Q + self.k.T @ self.plant.R @ self.k
            self._p = _lyapunov_factored(self._t, self._z, q_hat, transposed=True)
        return self._p

    def ctrl_gramian(self) -> np.ndarray:
        if self._l is None:
            w = self.plant.W
            self._l = _lyapunov_factored(self._t, self._z, w @ w.T, transposed=False)
        return self._l

    @property
    def value(self) -> float:
        """J(K) = trace(W^T P W), or +inf when K is not stabilizing."""
        if not self.stable:
            return math.inf
        p = self.obs_gramian()
        w = self.plant.W
        return float(np.trace(w.T @ p @ w))

    def gradient(self) -> np.ndarray:
        if not self.stable:
            raise NotStabilizing("gradient undefined for a non-stabilizing gain")
        p = self.obs_gramian()
        l = self.ctrl_gramian()
        return 2.0 * (self.plant.R @ self.k - self.plant.B.T @ p) @ l

    def hessian(self, free: np.ndarray) -> np.ndarray:
        """Hessian of J restricted to the entries where the boolean m x n
        mask free is set, in row-major order of those entries (module
        docstring): one Lyapunov solve per entry. Symmetrized against
        rounding, in Fortran order so LAPACK can factor it in place."""
        if not self.stable:
            raise NotStabilizing("Hessian undefined for a non-stabilizing gain")
        plant, t, z = self.plant, self._t, self._z
        p, l = self.obs_gramian(), self.ctrl_gramian()
        e = plant.R @ self.k - plant.B.T @ p
        rows, cols = np.nonzero(free)
        cross = np.empty((rows.size, rows.size))  # cross[c, d] = <U_c, S_d>
        de = np.zeros((self.k.shape[1],) * 2)
        for c, (i, j) in enumerate(zip(rows, cols)):
            de[j] = e[i]  # D_c^T E
            u = _lyapunov_factored(t, z, -(de + de.T), transposed=True)
            cross[c] = (plant.B.T @ u @ l)[rows, cols]  # <U, sym(B D_d L)> = (B^T U L)_d
            de[j] = 0.0
        h = np.asfortranarray(plant.R[np.ix_(rows, rows)] * l[np.ix_(cols, cols)] + cross + cross.T)
        h += h.T
        return h

    def hessian_factor(self, free: np.ndarray) -> np.ndarray | None:
        """Upper Cholesky factor (LAPACK potrf) of hessian(free), built once
        per mask and held; None when K is not stabilizing or that Hessian is
        not positive definite."""
        key = free.tobytes()
        if key not in self._factors:
            chol, info = dpotrf(self.hessian(free), overwrite_a=1, clean=0) if self.stable else (None, 1)
            self._factors[key] = chol if info == 0 else None
        return self._factors[key]


def _holds(cl: _ClosedLoop, k: np.ndarray) -> bool:
    """The one match rule: cl is the closed loop of K = k when its K equals
    k byte for byte (a zero of the other sign makes another K)."""
    return cl.k.tobytes() == k.tobytes()


def _carry(gain: GainMatrix, cl: _ClosedLoop) -> GainMatrix:
    """gain, with cl attached when it holds gain.K: a later solve from gain
    on cl.plant takes cl instead of factoring again (_closed_loop). K is
    read-only, so the loop stays valid."""
    if _holds(cl, gain.K):
        object.__setattr__(gain, "_loop", cl)
    return gain


def _closed_loop(plant: LtiPlant, gain) -> _ClosedLoop:
    """The closed loop of an m x n array, or of a GainMatrix: the loop the
    gain carries when it is of plant and holds K, else a new factorization,
    which the gain carries from then on (_carry)."""
    is_matrix = isinstance(gain, GainMatrix)
    k = gain.K if is_matrix else np.asarray(gain, dtype=float)
    if k.shape != (plant.m, plant.n):
        raise DimensionMismatch(f"gain shape {k.shape} does not match plant ({plant.m},{plant.n})")
    held = gain.__dict__.get("_loop") if is_matrix else None
    if held is not None and held.plant is plant and _holds(held, k):
        return held
    cl = _ClosedLoop(plant, k)
    if is_matrix:
        _carry(gain, cl)
    return cl


class _Trail:
    """The closed loops of one descent from the loop start: called as
    descent.descend's make_eval, it returns objective(loop(k))."""

    def __init__(self, start: _ClosedLoop, objective):
        self.last = start
        self._objective = objective

    def __call__(self, k: np.ndarray):
        return self._objective(self.loop(k))

    def loop(self, k: np.ndarray) -> _ClosedLoop:
        """The closed loop of K = k: last when it holds k, else k factored
        once and kept as last."""
        if not _holds(self.last, k):
            self.last = _ClosedLoop(self.last.plant, k)
        return self.last


def solve_lyapunov(a_cl: np.ndarray, q_hat: np.ndarray) -> np.ndarray:
    """Solve A_cl^T P + P A_cl + Q_hat = 0 for Hurwitz A_cl.

    Raises NotHurwitz when max Re eig(A_cl) >= -STABILITY_TOL and
    SingularSolve when the factored solve degenerates numerically.
    """
    a_cl = np.asarray(a_cl, dtype=float)
    q_hat = np.asarray(q_hat, dtype=float)
    if a_cl.ndim != 2 or a_cl.shape[0] != a_cl.shape[1]:
        raise DimensionMismatch("A_cl must be square")
    if q_hat.shape != a_cl.shape:
        raise DimensionMismatch("Q_hat shape must match A_cl")
    t, z, abscissa = _real_schur(a_cl)
    if abscissa >= -STABILITY_TOL:
        raise NotHurwitz(f"max Re eig = {abscissa:.3e} >= -{STABILITY_TOL}")
    return _lyapunov_factored(t, z, q_hat, transposed=True)


def is_stabilizing(plant: LtiPlant, gain) -> bool:
    """True iff max Re eig(A - B K) < -STABILITY_TOL (strict margin)."""
    return _closed_loop(plant, gain).stable


def closed_loop_cost(plant: LtiPlant, gain) -> float:
    """H2 cost trace(W^T P W); +inf when the gain is not stabilizing."""
    return _closed_loop(plant, gain).value


def cost_gradient(plant: LtiPlant, gain) -> np.ndarray:
    """Gradient 2 (R K - B^T P) L of the H2 cost at a stabilizing gain."""
    return _closed_loop(plant, gain).gradient()


def lqr_centralized(plant: LtiPlant) -> GainMatrix:
    """Centralized LQR gain K_c = R^{-1} B^T P*, with P* the stabilizing
    solution of A^T P + P A - P B R^{-1} B^T P + Q = 0 from scipy's
    solve_continuous_are (generalized eigenvalues; Arnold & Laub, Proc. IEEE
    72(12), 1984). The gain carries the loop of A - B K_c, the one
    factorization made here. Raises RiccatiFailure when the solve fails or
    K_c is not stabilizing. Q and R go in symmetrized: the plant admits a
    rounding asymmetry that scipy refuses. A scipy ValueError (an ordqz
    that cannot reorder) is a failed solve: the plant rules out the rest."""
    try:
        p = solve_continuous_are(plant.A, plant.B, _sym(plant.Q), _sym(plant.R))
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise RiccatiFailure(f"Riccati solve failed: {exc}") from exc
    cl = _ClosedLoop(plant, np.linalg.solve(plant.R, plant.B.T @ p))
    if not cl.stable:
        raise RiccatiFailure("the Riccati solution does not stabilize the plant")
    return _carry(GainMatrix(cl.k, plant.partition), cl)
