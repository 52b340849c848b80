"""Shared descent engine: sufficient-decrease acceptance, proximal steps,
infeasible rejection."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselink import (
    BlockPartition,
    LineSearchFailure,
    LostStabilizability,
    MaxIterations,
    NotStabilizing,
    block_soft_threshold,
)
from sparselink import descent
from sparselink.descent import (
    CONVERGED,
    LOST_STABILITY,
    MAX_ITER,
    STALLED,
    STOPPED,
    DescentResult,
    descend,
    require_converged,
)


class _Quadratic:
    """0.5 * ||x - target||^2 with an optional feasible ball."""

    def __init__(self, x, target, radius=None):
        self._diff = x - target
        if radius is not None and np.linalg.norm(x) > radius:
            self.value = math.inf
        else:
            self.value = 0.5 * float(np.sum(self._diff * self._diff))

    def gradient(self):
        return self._diff


def test_converges_on_quadratic():
    target = np.array([[1.0, -2.0], [3.0, 0.5]])
    res = descend(lambda x: _Quadratic(x, target), np.zeros((2, 2)),
                  grad_tol=1e-10, max_iter=200)
    assert res.status == CONVERGED
    assert np.linalg.norm(res.x - target) <= 1e-8
    assert res.value <= 1e-16


def test_mask_restricts_updates():
    target = np.array([[1.0, -2.0], [3.0, 0.5]])
    mask = np.array([[1.0, 0.0], [0.0, 1.0]])
    x0 = np.full((2, 2), 7.0)
    res = descend(lambda x: _Quadratic(x, target), x0,
                  grad_tol=1e-10, max_iter=500, prox=lambda v, s: np.where(mask, v, x0))
    assert res.status == CONVERGED
    # masked-out entries never move
    assert res.x[0, 1] == 7.0 and res.x[1, 0] == 7.0
    assert abs(res.x[0, 0] - 1.0) <= 1e-8
    assert abs(res.x[1, 1] - 0.5) <= 1e-8


@pytest.mark.parametrize("max_iter", [1, 50])
def test_prox_onto_one_point_converges_in_one_iteration(max_iter):
    # h is the indicator of one point, whose prox is that point: the first
    # trial lands on it, a fixed point of the prox, and the last iterate
    # allowed is tested (the start is off the point; its value is f alone)
    target = np.array([[1.0, -2.0], [3.0, 0.5]])
    point = np.array([[0.5, -1.0], [2.0, 0.0]])
    res = descend(lambda x: _Quadratic(x, target), np.zeros((2, 2)), grad_tol=1e-12,
                  max_iter=max_iter, prox=lambda v, s: point)
    assert res.status == CONVERGED
    assert res.iterations == 1
    assert np.array_equal(res.x, point)


@pytest.mark.property
@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 3), cols=st.integers(1, 4), seed=st.integers(0, 10_000),
       projected=st.booleans(), max_iter=st.sampled_from([1, 5, 500]))
def test_each_point_is_evaluated_once(rows, cols, seed, projected, max_iter):
    # f a random convex quadratic 0.5 <x, A x> - <b, x>, with no prox or the
    # projection onto a random mask (the polish's prox). descend evaluates
    # the start once, first, then one point per trial, and asks a gradient
    # of the start and of each accepted trial only, once each: so the
    # evaluations are 1 + iterations + the rejected trials, those it asks no
    # gradient of. A projection maps distinct steps to distinct points, so
    # no point is evaluated twice in a row.
    rng = np.random.default_rng(seed)
    shape = (rows, cols)
    root = rng.standard_normal((rows * cols,) * 2)
    a = root @ root.T / root.shape[0] + 0.1 * np.eye(root.shape[0])
    b = rng.standard_normal(shape)
    mask = rng.random(shape) < 0.6 if projected else np.ones(shape, dtype=bool)
    x0 = rng.standard_normal(shape) * mask
    evaluations = []

    class _Counted:
        def __init__(self, x):
            self.x = x
            self.graded = 0
            ax = (a @ x.ravel()).reshape(shape)
            self._g = ax - b
            self.value = 0.5 * float(np.sum(x * ax)) - float(np.sum(b * x))
            evaluations.append(self)

        def gradient(self):
            self.graded += 1
            return self._g

    res = descend(_Counted, x0, grad_tol=1e-6, max_iter=max_iter,
                  prox=(lambda v, s: v * mask) if projected else None)
    points = [ev.x.tobytes() for ev in evaluations]
    assert points[0] == x0.tobytes() and points.count(x0.tobytes()) == 1
    assert all(p != q for p, q in zip(points, points[1:]))
    accepted = [ev for ev in evaluations if ev.graded]
    rejected = [ev for ev in evaluations if not ev.graded]
    assert all(ev.graded == 1 for ev in accepted)
    assert all(later.value < earlier.value for earlier, later in zip(accepted, accepted[1:]))
    assert accepted[-1].x.tobytes() == res.x.tobytes() and accepted[-1].value == res.value
    assert len(accepted) == 1 + res.iterations
    assert len(evaluations) == 1 + res.iterations + len(rejected)


def test_infeasible_trials_rejected():
    # optimum inside the feasible ball but far from the start; every accepted
    # iterate must stay feasible because +inf trials fail the Armijo test
    target = np.array([[2.0, 0.0]])
    radius = 2.5
    values = []

    def make(x):
        ev = _Quadratic(x, target, radius=radius)
        if math.isfinite(ev.value):
            values.append(np.linalg.norm(x))
        return ev

    res = descend(make, np.array([[-2.0, 0.0]]), grad_tol=1e-8, max_iter=300)
    assert res.status == CONVERGED
    assert np.linalg.norm(res.x - target) <= 1e-6
    assert max(values) <= radius + 1e-12


def test_infeasible_start_raises():
    with pytest.raises(NotStabilizing):
        descend(lambda x: _Quadratic(x, np.zeros((1, 1)), radius=0.5),
                np.array([[2.0]]), grad_tol=1e-8, max_iter=10)


def test_max_iter_status():
    # the second step (Barzilai-Borwein, exact on this quadratic) lands on
    # the target, and the last iterate allowed is tested, so stop after one
    target = np.ones((2, 2))
    res = descend(lambda x: _Quadratic(x, target), np.zeros((2, 2)),
                  grad_tol=1e-30, max_iter=1)
    assert res.status == MAX_ITER
    assert res.iterations == 1


def test_monotone_accepted_values():
    # gradient() is only invoked on accepted iterates, so the values seen
    # there must decrease strictly (Armijo contract)
    target = np.array([[4.0, -1.0, 2.0]])
    accepted = []

    class _Tracking(_Quadratic):
        def __init__(self, x):
            super().__init__(x, target)

        def gradient(self):
            accepted.append(self.value)
            return super().gradient()

    res = descend(lambda x: _Tracking(x), np.zeros((1, 3)),
                  grad_tol=1e-12, max_iter=500)
    assert res.status == CONVERGED
    assert len(accepted) >= 2
    assert all(b < a for a, b in zip(accepted, accepted[1:]))


def test_lost_stability_status():
    # start on the feasibility boundary with the descent direction pointing
    # out, so every trial evaluates to +inf
    class _Boundary:
        def __init__(self, x):
            self._x = x
            self.value = math.inf if x[0, 0] > 0.0 else 0.5 * (x[0, 0] - 100.0) ** 2

        def gradient(self):
            return self._x - 100.0

    res = descend(lambda x: _Boundary(x), np.array([[0.0]]), grad_tol=1e-14, max_iter=50)
    assert res.status == LOST_STABILITY
    assert res.x[0, 0] == 0.0


def test_stalled_status():
    # finite everywhere but discontinuously higher at every point other than
    # the start, so no Armijo trial can ever be accepted
    start = np.array([[1.0]])

    class _Cliff:
        def __init__(self, x):
            self.value = 0.0 if np.array_equal(x, start) else 1.0

        def gradient(self):
            return np.array([[1.0]])

    res = descend(lambda x: _Cliff(x), start, grad_tol=1e-14, max_iter=50)
    assert res.status == STALLED


@pytest.mark.property
@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.tuples(st.integers(1, 2), st.integers(1, 3)), min_size=1, max_size=3),
       seed=st.integers(0, 10_000), penalty=st.floats(0.0, 3.0))
def test_proximal_descent_reaches_a_fixed_point(sizes, seed, penalty):
    # F = f + h: f a random convex quadratic 0.5 <x, A x> - <b, x>, h a random
    # weighted group penalty whose prox is the block soft-threshold
    partition = BlockPartition(tuple(r for r, _ in sizes), tuple(c for _, c in sizes))
    rng = np.random.default_rng(seed)
    shape = (partition.m, partition.n)
    root = rng.standard_normal((partition.m * partition.n,) * 2)
    a = root @ root.T / root.shape[0] + 0.1 * np.eye(root.shape[0])
    b = rng.standard_normal(shape)
    weights = penalty * rng.random((partition.n_nodes,) * 2)
    accepted = []

    class _Composite:
        def __init__(self, x):
            ax = (a @ x.ravel()).reshape(shape)
            self._g = ax - b
            self.value = (0.5 * float(np.sum(x * ax)) - float(np.sum(b * x))
                          + float(np.sum(weights * partition.block_norms(x))))

        def gradient(self):
            accepted.append(self.value)
            return self._g

    def prox(v, s):
        return block_soft_threshold(v, s * weights, partition)

    grad_tol = 1e-4
    res = descend(_Composite, rng.standard_normal(shape), grad_tol=grad_tol, max_iter=2000,
                  prox=prox)
    assert res.status == CONVERGED
    assert all(later < earlier for earlier, later in zip(accepted, accepted[1:]))
    step = descent._RESIDUAL_STEP
    residual = np.linalg.norm(res.x - prox(res.x - step * res.gradient, step)) / step
    assert residual <= grad_tol * (1.0 + np.linalg.norm(res.x))


def _accepted_points(x0, target, **limits):
    """descend on 0.5 ||x - target||^2 from x0, and the points it asked a
    gradient of: x0 and each accepted iterate, in order."""
    accepted = []

    class _Recorded(_Quadratic):
        def __init__(self, x):
            super().__init__(x, target)
            self.x = x

        def gradient(self):
            accepted.append(self.x)
            return super().gradient()

    return descend(_Recorded, x0, **limits), accepted


@pytest.mark.parametrize("threshold", [10.0, 1.0, 1e-3])
def test_stop_ends_at_the_first_point_that_holds_it(threshold):
    # stop is tested at x0 and at each accepted iterate, in order, and the
    # first that holds it ends the descent there, unconverged
    target = np.array([[1.0, -2.0], [3.0, 0.5]])
    x0 = np.zeros((2, 2))
    free, points = _accepted_points(x0, target, grad_tol=1e-12, max_iter=500)
    assert free.status == CONVERGED
    first = next(i for i, x in enumerate(points) if 0.5 * np.sum((x - target) ** 2) < threshold)
    tested = []

    def stop(x):
        tested.append(x.copy())
        return 0.5 * float(np.sum((x - target) ** 2)) < threshold

    res, seen = _accepted_points(x0, target, grad_tol=1e-12, max_iter=500, stop=stop)
    assert res.status == STOPPED
    assert res.iterations == first
    assert np.array_equal(res.x, points[first])
    assert [x.tobytes() for x in seen] == [x.tobytes() for x in points[:first + 1]]
    assert [x.tobytes() for x in tested] == [x.tobytes() for x in seen]


def test_stop_at_the_start_evaluates_only_the_start():
    evaluated = []

    def make(x):
        evaluated.append(x)
        return _Quadratic(x, np.ones((1, 2)))

    x0 = np.array([[3.0, 4.0]])
    res = descend(make, x0, grad_tol=1e-12, max_iter=50, stop=lambda x: True)
    assert (res.status, res.iterations) == (STOPPED, 0)
    assert np.array_equal(res.x, x0) and len(evaluated) == 1
    with pytest.raises(MaxIterations, match="stopped"):
        require_converged(res, "inner solve")


@pytest.mark.parametrize(
    "status, error",
    [
        (MAX_ITER, MaxIterations),
        (STALLED, LineSearchFailure),
        (LOST_STABILITY, LostStabilizability),
        (STOPPED, MaxIterations),
    ],
)
def test_require_converged_raises_typed_error(status, error):
    res = DescentResult(np.zeros((1, 1)), 0.0, np.zeros((1, 1)), 3, status)
    with pytest.raises(error, match="^inner solve "):
        require_converged(res, "inner solve")
