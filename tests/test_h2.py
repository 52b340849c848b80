"""H2 cost, gradient, and Lyapunov/Riccati solvers.

Every numerical result is checked against an independent oracle: the
Kronecker-vectorized Lyapunov solve, quadrature of the Gramian integral,
central finite differences, closed-form scalar formulas, and scipy's
solve_continuous_are.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import schur, solve_continuous_are

from conftest import (
    fd_gradient,
    lyapunov_kron,
    perturbed_gain,
    quadrature_cost,
    random_psd,
    random_stable_matrix,
    single_node_plant,
)
from sparselink import (
    BlockPartition,
    DimensionMismatch,
    GainMatrix,
    LtiPlant,
    NotHurwitz,
    NotStabilizing,
    RiccatiFailure,
    SingularSolve,
    closed_loop_cost,
    cost_gradient,
    generate_plant,
    is_stabilizing,
    lqr_centralized,
    solve_lyapunov,
)
from sparselink import h2
from sparselink.h2 import _carry, _closed_loop, _ClosedLoop, _lyapunov_factored, _real_schur


def scalar_plant(a=0.0, b=1.0, w=1.0, q=1.0, r=1.0):
    part = BlockPartition((1,), (1,))
    return LtiPlant([[a]], [[b]], [[w]], [[q]], [[r]], part)


class TestSolveLyapunov:
    def test_diagonal_balance(self):
        p = solve_lyapunov(-np.eye(2), np.eye(2))
        assert np.allclose(p, 0.5 * np.eye(2), atol=1e-14)

    def test_kronecker_oracle_fixed(self):
        a_cl = np.array([[0.0, 1.0], [-2.0, -3.0]])
        p = solve_lyapunov(a_cl, np.eye(2))
        expected = lyapunov_kron(a_cl, np.eye(2))
        assert np.linalg.norm(p - expected) <= 1e-10

    def test_not_hurwitz(self):
        with pytest.raises(NotHurwitz):
            solve_lyapunov(np.array([[1.0]]), np.eye(1))

    def test_marginally_stable_rejected(self):
        with pytest.raises(NotHurwitz):
            solve_lyapunov(np.zeros((1, 1)), np.eye(1))

    def test_shape_errors(self):
        with pytest.raises(DimensionMismatch):
            solve_lyapunov(np.zeros((2, 3)), np.eye(2))
        with pytest.raises(DimensionMismatch):
            solve_lyapunov(-np.eye(2), np.eye(3))

    def test_random_residual_symmetry_psd(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            a_cl = random_stable_matrix(rng, n)
            q_hat = random_psd(rng, n)
            p = solve_lyapunov(a_cl, q_hat)
            residual = a_cl.T @ p + p @ a_cl + q_hat
            assert np.linalg.norm(residual) <= 1e-8 * (1.0 + np.linalg.norm(q_hat))
            assert np.linalg.norm(p - p.T) <= 1e-10 * max(np.linalg.norm(p), 1e-30)
            assert np.min(np.linalg.eigvalsh(p)) >= -1e-10 * (1.0 + np.linalg.norm(p))
            assert np.linalg.norm(p - lyapunov_kron(a_cl, q_hat)) <= 1e-10 * (
                1.0 + np.linalg.norm(p)
            )


class TestIsStabilizing:
    def test_scalar_true(self):
        assert is_stabilizing(scalar_plant(), [[1.0]])

    def test_scalar_false(self):
        assert not is_stabilizing(scalar_plant(a=1.0), [[0.5]])

    def test_double_pole(self):
        part = BlockPartition((1,), (2,))
        plant = LtiPlant([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]],
                         np.eye(2), np.eye(2), np.eye(1), part)
        assert is_stabilizing(plant, [[1.0, 2.0]])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            is_stabilizing(scalar_plant(), [[1.0, 2.0]])


class TestClosedLoopCost:
    def test_scalar_unit(self):
        assert closed_loop_cost(scalar_plant(), [[1.0]]) == pytest.approx(1.0, abs=1e-12)

    def test_scalar_quarter(self):
        # (q + r k^2) / (2 b k) = 5/4 for k=2
        j = closed_loop_cost(scalar_plant(), [[2.0]])
        assert j == pytest.approx(1.25, abs=1e-12)
        assert j == pytest.approx(quadrature_cost(scalar_plant(), [[2.0]]), rel=1e-9)

    def test_not_stabilizing_is_inf(self):
        assert closed_loop_cost(scalar_plant(), [[-1.0]]) == math.inf

    def test_quadrature_oracle_random(self):
        rng = np.random.default_rng(23)
        plant = single_node_plant(rng, 3, 2)
        gain = perturbed_gain(rng, plant, np.zeros((2, 3)))
        j = closed_loop_cost(plant, gain)
        assert j == pytest.approx(quadrature_cost(plant, gain.K), rel=1e-7)

    def test_gramian_duality(self):
        # trace(W^T P W) = trace((Q + K^T R K) L)
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            m = int(rng.integers(1, n + 1))
            plant = single_node_plant(rng, n, m)
            gain = perturbed_gain(rng, plant, np.zeros((m, n)))
            cl = _ClosedLoop(plant, gain.K)
            j = cl.value
            q_hat = plant.Q + gain.K.T @ plant.R @ gain.K
            dual = float(np.trace(q_hat @ cl.ctrl_gramian()))
            assert abs(j - dual) <= 1e-8 * (1.0 + abs(j))


class TestCostGradient:
    def test_scalar_analytic(self):
        # d/dk (1 + k^2)/(2k) = (k^2 - 1)/(2 k^2) = 3/8 at k=2
        g = cost_gradient(scalar_plant(), [[2.0]])
        assert g[0, 0] == pytest.approx(0.375, abs=1e-12)

    def test_scalar_stationary_at_optimum(self):
        g = cost_gradient(scalar_plant(), [[1.0]])
        assert abs(g[0, 0]) <= 1e-12

    def test_not_stabilizing_raises(self):
        with pytest.raises(NotStabilizing):
            cost_gradient(scalar_plant(), [[-1.0]])

    def test_three_state_fd(self):
        rng = np.random.default_rng(5)
        plant = single_node_plant(rng, 3, 2)
        gain = perturbed_gain(rng, plant, np.zeros((2, 3)))
        g = cost_gradient(plant, gain)
        fd = fd_gradient(lambda k: closed_loop_cost(plant, k), gain.K, step=1e-5)
        assert np.linalg.norm(g - fd) <= 1e-4 * (1.0 + np.linalg.norm(fd))


def two_solve_hessian(cl, free):
    """Reference Hessian: column c is H[D_c] = 2 (R D_c - B^T P~) L + 2 E L~
    with both first-order Gramian changes solved for, two Lyapunov solves
    per free entry."""
    plant, t, z = cl.plant, cl._t, cl._z
    p, l = cl.obs_gramian(), cl.ctrl_gramian()
    e = plant.R @ cl.k - plant.B.T @ p
    rows, cols = np.nonzero(free)
    h = np.empty((rows.size, rows.size))
    d = np.zeros_like(cl.k)
    for c, (i, j) in enumerate(zip(rows, cols)):
        d[i, j] = 1.0
        de = d.T @ e
        p_dot = _lyapunov_factored(t, z, de + de.T, transposed=True)
        bdl = plant.B @ d @ l
        l_dot = _lyapunov_factored(t, z, -(bdl + bdl.T), transposed=False)
        hd = 2.0 * (plant.R @ d - plant.B.T @ p_dot) @ l + 2.0 * e @ l_dot
        h[:, c] = hd[rows, cols]
        d[i, j] = 0.0
    return 0.5 * (h + h.T)


class TestHessian:
    @settings(max_examples=30, deadline=None)
    @given(n_nodes=st.integers(2, 4), seed=st.integers(0, 10_000))
    def test_matches_two_solve_reference(self, n_nodes, seed):
        plant = generate_plant(n_nodes, seed)
        rng = np.random.default_rng(seed)
        k_c = lqr_centralized(plant).K
        k = k_c + 0.1 * rng.standard_normal(k_c.shape) * (1.0 + np.abs(k_c))
        cl = _ClosedLoop(plant, k)
        if not cl.stable:
            cl = _ClosedLoop(plant, k_c)
        free = rng.uniform(size=k.shape) < 0.6
        free[0, 0] = True
        h = cl.hessian(free)
        ref = two_solve_hessian(cl, free)
        assert np.array_equal(h, h.T)
        assert np.linalg.norm(h - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_scalar_analytic(self):
        # J(k) = (1 + k^2)/(2k) has J''(k) = 1/k^3
        h = _ClosedLoop(scalar_plant(), np.array([[2.0]])).hessian(np.ones((1, 1), bool))
        assert h[0, 0] == pytest.approx(0.125, abs=1e-12)

    def test_fd_of_gradient_on_free_entries(self):
        rng = np.random.default_rng(31)
        plant = single_node_plant(rng, 4, 2)
        gain = perturbed_gain(rng, plant, np.zeros((2, 4)))
        free = np.array([[True, False, True, True], [False, True, True, False]])
        h = _ClosedLoop(plant, gain.K).hessian(free)
        rows, cols = np.nonzero(free)
        fd = np.empty_like(h)
        for c, (i, j) in enumerate(zip(rows, cols)):
            step = np.zeros_like(gain.K)
            step[i, j] = 1e-5
            g_diff = cost_gradient(plant, gain.K + step) - cost_gradient(plant, gain.K - step)
            fd[:, c] = g_diff[rows, cols] / 2e-5
        assert np.array_equal(h, h.T)
        assert np.linalg.norm(h - fd) <= 1e-6 * (1.0 + np.linalg.norm(fd))

    def test_not_stabilizing_raises(self):
        with pytest.raises(NotStabilizing):
            _ClosedLoop(scalar_plant(), np.array([[-1.0]])).hessian(np.ones((1, 1), bool))


class TestLoopHandOff:
    def test_loop_of_other_bits_is_refused(self, monkeypatch):
        # K = 0 against a loop held for K with one -0.0: equal values, one
        # bit apart. Neither _carry nor _closed_loop may take that loop.
        plant = generate_plant(2, 0)
        k = np.zeros((plant.m, plant.n))
        signed = k.copy()
        signed[0, 0] = -0.0
        held = _ClosedLoop(plant, signed)
        factored = []
        schur = h2._real_schur

        def recording(a):
            factored.append(a)
            return schur(a)

        monkeypatch.setattr(h2, "_real_schur", recording)
        gain = _carry(GainMatrix(k, plant.partition), held)
        assert "_loop" not in gain.__dict__
        object.__setattr__(gain, "_loop", held)  # held by hand: still refused
        cl = _closed_loop(plant, gain)
        assert cl is not held and cl.k.tobytes() == gain.K.tobytes()
        assert len(factored) == 1
        # the loop of the same bits is taken without a factorization
        same = _carry(GainMatrix(signed, plant.partition), held)
        assert _closed_loop(plant, same) is held and len(factored) == 1

    def test_a_gain_keeps_the_loop_factored_for_it(self, monkeypatch):
        plant = generate_plant(2, 0)
        gain = GainMatrix(lqr_centralized(plant).K.copy(), plant.partition)
        factored = []
        schur = h2._real_schur

        def recording(a):
            factored.append(a)
            return schur(a)

        monkeypatch.setattr(h2, "_real_schur", recording)
        costs = [closed_loop_cost(plant, gain) for _ in range(2)]
        assert costs[0] == costs[1] and len(factored) == 1


class TestRealSchur:
    @pytest.mark.parametrize("n", [1, 2, 5, 20])
    def test_matches_scipy_schur_bitwise(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            a = rng.standard_normal((n, n))
            t, z, abscissa = _real_schur(a)
            t_ref, z_ref = schur(a, output="real")
            assert np.array_equal(t, t_ref) and np.array_equal(z, z_ref)
            assert abscissa == pytest.approx(np.max(np.linalg.eigvals(a).real), abs=1e-10)

    @pytest.mark.parametrize("a", [np.array([[np.nan]]), np.array([[np.inf, 0.0], [0.0, 1.0]]),
                                   np.ones((2, 3)), np.zeros((0, 0))])
    def test_rejects_what_scipy_rejects(self, a):
        with pytest.raises(ValueError):
            _real_schur(a)


class TestLqrCentralized:
    def test_scalar_unit(self):
        kc = lqr_centralized(scalar_plant())
        assert kc.K[0, 0] == pytest.approx(1.0, abs=1e-10)

    def test_scalar_unstable_plant(self):
        # -p^2 + 2p + 1 = 0 => p = 1 + sqrt(2)
        kc = lqr_centralized(scalar_plant(a=1.0))
        assert kc.K[0, 0] == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-10)

    def test_stationarity(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(1, n + 1))
            plant = single_node_plant(rng, n, m)
            kc = lqr_centralized(plant)
            g = cost_gradient(plant, kc)
            assert np.linalg.norm(g) <= 1e-6 * (1.0 + np.linalg.norm(kc.K))

    def test_matches_scipy_are(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(1, n + 1))
            plant = single_node_plant(rng, n, m)
            kc = lqr_centralized(plant)
            p_star = solve_continuous_are(plant.A, plant.B, plant.Q, plant.R)
            k_star = np.linalg.solve(plant.R, plant.B.T @ p_star)
            assert np.linalg.norm(kc.K - k_star) <= 1e-8 * (1.0 + np.linalg.norm(k_star))

    def test_local_optimality(self):
        rng = np.random.default_rng(29)
        plant = single_node_plant(rng, 4, 2)
        kc = lqr_centralized(plant)
        j_star = closed_loop_cost(plant, kc)
        for _ in range(10):
            delta = 1e-3 * rng.standard_normal(kc.K.shape)
            assert j_star <= closed_loop_cost(plant, kc.K + delta) + 1e-12


class TestRiccatiFailures:
    """Each way the Riccati iteration gives up is a solver failure
    (RiccatiFailure, exit code 5), never an input error."""

    def test_iterate_losing_stability(self, monkeypatch):
        # Only the seed K = 0 of the Hurwitz plant keeps its stability.
        class LosesStability(_ClosedLoop):
            def __init__(self, plant, k):
                super().__init__(plant, k)
                self.stable = self.stable and not k.any()

        monkeypatch.setattr(h2, "_ClosedLoop", LosesStability)
        with pytest.raises(RiccatiFailure, match="not stabilizing"):
            lqr_centralized(scalar_plant(a=-1.0))

    def test_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(h2, "_RICCATI_MAX_ITER", 1)
        with pytest.raises(RiccatiFailure, match="did not converge in 1 steps"):
            lqr_centralized(scalar_plant(a=-1.0))

    def test_seed_cannot_be_built(self, monkeypatch):
        # K = 0 does not stabilize a = 1, and every shifted solve fails.
        def singular(a_cl, q_hat):
            raise SingularSolve("forced")

        monkeypatch.setattr(h2, "solve_lyapunov", singular)
        with pytest.raises(RiccatiFailure, match="initial stabilizing gain"):
            lqr_centralized(scalar_plant(a=1.0))

