"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the package's own solvers: Lyapunov
equations are cross-checked by a dense Kronecker-vectorized solve, costs by
numerical quadrature of the Gramian integral, gradients by central finite
differences, and Riccati solutions by the Kleinman fixed point (a gain
solves the Riccati equation iff kleinman_step gives it back).
"""
import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import expm

from sparselink import BlockPartition, GainMatrix, LtiPlant, PriorityRow, PriorityTable


# ---------------------------------------------------------------------------
# oracles

def lyapunov_kron(a_cl, q_hat):
    """Dense Kronecker-vectorized solve of A^T P + P A + Q = 0.

    vec(A^T P) = (I kron A^T) vec(P) and vec(P A) = (A^T kron I) vec(P)
    with column-major vec, so (I kron A^T + A^T kron I) vec(P) = -vec(Q).
    """
    a_cl = np.asarray(a_cl, dtype=float)
    q_hat = np.asarray(q_hat, dtype=float)
    n = a_cl.shape[0]
    eye = np.eye(n)
    lhs = np.kron(eye, a_cl.T) + np.kron(a_cl.T, eye)
    vec_p = np.linalg.solve(lhs, -q_hat.reshape(n * n, order="F"))
    return vec_p.reshape((n, n), order="F")


def kleinman_step(plant, k):
    """R^{-1} B^T P with P the Kronecker solve of the closed loop of K:
    A_cl^T P + P A_cl + Q + K^T R K = 0, A_cl = A - B K (Kleinman, IEEE TAC
    13(1), 1968). Its fixed points are the Riccati gains."""
    k = np.asarray(k, dtype=float)
    p = lyapunov_kron(plant.A - plant.B @ k, plant.Q + k.T @ plant.R @ k)
    return np.linalg.solve(plant.R, plant.B.T @ p)


def fd_gradient(fun, x, step=1e-5):
    """Central finite differences of a scalar function of a matrix."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        plus = x.copy()
        minus = x.copy()
        plus[idx] += step
        minus[idx] -= step
        grad[idx] = (fun(plus) - fun(minus)) / (2.0 * step)
    return grad


def quadrature_cost(plant, k):
    """J(K) by direct quadrature of trace(W^T e^{Acl^T t} Qhat e^{Acl t} W)."""
    k = np.asarray(k, dtype=float)
    a_cl = plant.A - plant.B @ k
    q_hat = plant.Q + k.T @ plant.R @ k
    w = plant.W

    def integrand(t):
        e = expm(a_cl * t)
        return float(np.trace(w.T @ e.T @ q_hat @ e @ w))

    value, _ = quad(integrand, 0.0, np.inf, limit=400)
    return value


def relative_close(actual, expected, tol):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    return np.linalg.norm(actual - expected) <= tol * (1.0 + np.linalg.norm(expected))


# ---------------------------------------------------------------------------
# random problem factories

def random_stable_matrix(rng, n, margin=0.5):
    m = rng.uniform(-1.0, 1.0, size=(n, n))
    shift = float(np.max(np.linalg.eigvals(m).real)) + margin
    return m - shift * np.eye(n)


def random_psd(rng, n, scale=1.0):
    m = rng.uniform(-1.0, 1.0, size=(n, n))
    return scale * (m @ m.T) + 0.1 * np.eye(n)


def single_node_plant(rng, n, m, margin=0.5):
    """Generic dense plant with a one-node partition (m x n gain)."""
    a = random_stable_matrix(rng, n, margin)
    b = rng.uniform(-1.0, 1.0, size=(n, m))
    w = rng.uniform(-1.0, 1.0, size=(n, n))
    part = BlockPartition((m,), (n,))
    return LtiPlant(a, b, w, np.eye(n), np.eye(m), part)


@st.composite
def plants(draw, max_nodes=3):
    """Hurwitz plants on heterogeneous partitions: 2..max_nodes nodes of 1-4
    states and 1-2 inputs each, every input acting on its own node's states
    (B block-diagonal on the partition), a W with one or two more columns
    than states, and non-diagonal SPD Q and R. A W with fewer columns than
    states leaves the controllability Gramian near singular, where the
    sparse solve can give up (see ROADMAP, open-loop-unstable plants)."""
    n_nodes = draw(st.integers(2, max_nodes))
    states = draw(st.lists(st.integers(1, 4), min_size=n_nodes, max_size=n_nodes))
    inputs = draw(st.lists(st.integers(1, 2), min_size=n_nodes, max_size=n_nodes))
    extra = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    part = BlockPartition(tuple(inputs), tuple(states))
    n, m = part.n, part.m
    local = part.expand(np.eye(n_nodes, dtype=bool)).T
    b = local * rng.uniform(-1.0, 1.0, size=(n, m))
    w = rng.uniform(-1.0, 1.0, size=(n, n + extra))
    return LtiPlant(random_stable_matrix(rng, n), b, w, random_psd(rng, n), random_psd(rng, m), part)


def perturbed_gain(rng, plant, base, scale=0.2):
    """Stabilizing gain near base (base + bounded random perturbation)."""
    from sparselink import is_stabilizing

    k0 = base.K if isinstance(base, GainMatrix) else np.asarray(base, dtype=float)
    for attempt in range(40):
        k = k0 + scale * rng.standard_normal(k0.shape)
        if is_stabilizing(plant, k):
            return GainMatrix(k, plant.partition)
        scale *= 0.5
    raise AssertionError("could not build a stabilizing perturbed gain")


@pytest.fixture
def one_reweight(monkeypatch):
    """One reweighting pass per beta instead of sparse.MAX_REWEIGHT, to keep
    sweeps over small plants fast."""
    from sparselink import sparse

    monkeypatch.setattr(sparse, "MAX_REWEIGHT", 1)


# ---------------------------------------------------------------------------
# invariants

def assert_reroute_invariants(table, attacked, out):
    """The conservation rules every countermeasure keeps."""
    assert out.attacked == frozenset(attacked)
    sacrificed, rerouted, dropped = out.sacrificed, out.rerouted, out.dropped
    if not out.feasible:
        assert out.table == table
        assert not (sacrificed | rerouted | dropped)
        return
    assert rerouted | dropped == out.attacked
    assert not (sacrificed & rerouted)
    assert not (sacrificed & dropped)
    assert not (rerouted & dropped)
    # A host serves a rerouted link of higher priority, so the hosts below
    # any priority t carry at least the need of the rerouted links up to t;
    # at t = r1 + 1 this is total capacity >= total need.
    sizes = table.sizes()
    for host in sacrificed:
        assert any(host < a for a in rerouted)
    for t in range(1, table.r1 + 2):
        need = sum(sizes[a - 1] for a in rerouted if a <= t)
        capacity = sum(sizes[q - 1] for q in sacrificed if q < t)
        assert capacity >= need
    for q in range(1, table.r1 + 1):
        before, after = table.row(q), out.table.row(q)
        if q in sacrificed | dropped:
            assert after.values == (0.0,) * len(before.values)
            assert (after.i, after.j, after.size) == (before.i, before.j, before.size)
        else:
            assert after == before


# ---------------------------------------------------------------------------
# golden fixtures: the two worked rerouting examples

EX1_K = np.array(
    [
        [3.0, 1.0, 0.0, 0.0, 7.0, 9.0, 3.0, 2.0],
        [0.0, 0.0, 1.0, 5.0, 0.0, 0.0, 1.0, 2.0],
        [0.0, 0.0, 5.0, 1.0, 0.0, 0.0, 0.0, 0.0],
        [2.0, 4.0, 6.0, 8.0, 0.0, 0.0, 5.0, 3.0],
    ]
)
EX1_PRIORITIES = {
    (0, 0): 1,
    (3, 0): 2,
    (1, 1): 3,
    (2, 1): 4,
    (3, 1): 5,
    (0, 2): 6,
    (0, 3): 7,
    (1, 3): 8,
    (3, 3): 9,
}
EX1_ROWS = (
    PriorityRow(0, 0, 1, 2, (3.0, 1.0)),
    PriorityRow(3, 0, 2, 2, (2.0, 4.0)),
    PriorityRow(1, 1, 3, 2, (1.0, 5.0)),
    PriorityRow(2, 1, 4, 2, (5.0, 1.0)),
    PriorityRow(3, 1, 5, 2, (6.0, 8.0)),
    PriorityRow(0, 2, 6, 2, (7.0, 9.0)),
    PriorityRow(0, 3, 7, 2, (3.0, 2.0)),
    PriorityRow(1, 3, 8, 2, (1.0, 2.0)),
    PriorityRow(3, 3, 9, 2, (5.0, 3.0)),
)

EX2_K = np.array(
    [
        [2.0, 1.0, 3.0, 7.0, 5.0, 8.0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 3.0, 1.0, 3.0, 6.0, 0, 0, 0, 0],
        [1.0, 5.0, 0, 0, 0, 0, 0, 0, 0, 0, 7.0, 2.0, 6.0, 4.0],
        [3.0, 5.0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    ],
    dtype=float,
)
EX2_PRIORITIES = {
    (0, 0): 1,
    (2, 0): 2,
    (3, 0): 3,
    (0, 1): 4,
    (1, 2): 5,
    (2, 3): 6,
}
EX2_ROWS = (
    PriorityRow(0, 0, 1, 2, (2.0, 1.0, 0.0, 0.0)),
    PriorityRow(2, 0, 2, 2, (1.0, 5.0, 0.0, 0.0)),
    PriorityRow(3, 0, 3, 2, (3.0, 5.0, 0.0, 0.0)),
    PriorityRow(0, 1, 4, 4, (3.0, 7.0, 5.0, 8.0)),
    PriorityRow(1, 2, 5, 4, (3.0, 1.0, 3.0, 6.0)),
    PriorityRow(2, 3, 6, 4, (7.0, 2.0, 6.0, 4.0)),
)


@pytest.fixture
def ex1_partition():
    return BlockPartition((1, 1, 1, 1), (2, 2, 2, 2))


@pytest.fixture
def ex1_gain(ex1_partition):
    return GainMatrix(EX1_K, ex1_partition)


@pytest.fixture
def ex1_table():
    return PriorityTable(EX1_ROWS)


@pytest.fixture
def ex2_partition():
    return BlockPartition((1, 1, 1, 1), (2, 4, 4, 4))


@pytest.fixture
def ex2_gain(ex2_partition):
    return GainMatrix(EX2_K, ex2_partition)


@pytest.fixture
def ex2_table():
    return PriorityTable(EX2_ROWS)


def make_table(sizes, values=None):
    """Uniform helper: one diagonal block per row, ascending priority.

    sizes[k] is the unit count of the row with priority k+1; the partition
    is scalar control rows against state columns of the given sizes.
    """
    r2 = max(sizes)
    rows = []
    for idx, s in enumerate(sizes):
        if values is None:
            vals = tuple(float(idx + 1 + d) for d in range(s))
        else:
            vals = tuple(float(v) for v in values[idx])
        rows.append(PriorityRow(idx, idx, idx + 1, s, vals + (0.0,) * (r2 - s)))
    return PriorityTable(tuple(rows))
