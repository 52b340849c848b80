"""H2 cost, gradient, and Lyapunov/Riccati solvers.

Every numerical result is checked against an independent oracle: the
Kronecker-vectorized Lyapunov solve, quadrature of the Gramian integral,
central finite differences, closed-form scalar formulas, and the Kleinman
fixed point of the Riccati equation.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import schur

from conftest import (
    fd_gradient,
    kleinman_step,
    lyapunov_kron,
    perturbed_gain,
    plants,
    quadrature_cost,
    random_psd,
    random_stable_matrix,
    single_node_plant,
)
from sparselink import (
    BlockPartition,
    DimensionMismatch,
    GainMatrix,
    GeneratorSpec,
    LtiPlant,
    NotHurwitz,
    NotStabilizing,
    RiccatiFailure,
    Scenario,
    SparsityPattern,
    closed_loop_cost,
    cost_gradient,
    generate_plant,
    is_stabilizing,
    lqr_centralized,
    run_pipeline,
    solve_lyapunov,
)
from sparselink import descent, h2, structured
from sparselink.cli import main
from sparselink.h2 import _carry, _closed_loop, _ClosedLoop, _lyapunov_factored, _real_schur, _Trail


def scalar_plant(a=0.0, b=1.0, w=1.0, q=1.0, r=1.0):
    part = BlockPartition((1,), (1,))
    return LtiPlant([[a]], [[b]], [[w]], [[q]], [[r]], part)


@st.composite
def shifted_generated_plants(draw):
    """generate_plant(2..8 nodes) with A + c I, c in {0, 0.5, 2, 5}: from
    Hurwitz (c = 0) to open-loop unstable."""
    plant = generate_plant(draw(st.integers(2, 8)), draw(st.integers(0, 2**16)))
    shift = draw(st.sampled_from([0.0, 0.5, 2.0, 5.0]))
    return LtiPlant(plant.A + shift * np.eye(plant.n), plant.B, plant.W, plant.Q, plant.R,
                    plant.partition)


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
    def test_loop_of_other_bits_is_refused(self, factorizations):
        # K = 0 against a loop held for K with one -0.0: equal values, one
        # bit apart. Neither _carry nor _closed_loop may take that loop.
        plant = generate_plant(2, 0)
        k = np.zeros((plant.m, plant.n))
        signed = k.copy()
        signed[0, 0] = -0.0
        held = _ClosedLoop(plant, signed)
        factorizations.clear()
        gain = _carry(GainMatrix(k, plant.partition), held)
        assert "_loop" not in gain.__dict__
        object.__setattr__(gain, "_loop", held)  # held by hand: still refused
        cl = _closed_loop(plant, gain)
        assert cl is not held and cl.k.tobytes() == gain.K.tobytes()
        assert len(factorizations) == 1
        # the loop of the same bits is taken without a factorization
        same = _carry(GainMatrix(signed, plant.partition), held)
        assert _closed_loop(plant, same) is held and len(factorizations) == 1

    def test_a_gain_keeps_the_loop_factored_for_it(self, factorizations):
        plant = generate_plant(2, 0)
        gain = GainMatrix(lqr_centralized(plant).K.copy(), plant.partition)
        factorizations.clear()
        costs = [closed_loop_cost(plant, gain) for _ in range(2)]
        assert costs[0] == costs[1] and len(factorizations) == 1

    def test_trail_end_on_an_accepted_trial_is_its_last_loop(self, factorizations):
        plant = generate_plant(2, 0)
        start = _ClosedLoop(plant, lqr_centralized(plant).K)
        factorizations.clear()
        trail = _Trail(start, lambda c: c)
        assert trail.loop(start.k.copy()) is start and not factorizations
        k = 1.1 * start.k
        assert trail(k).k is k and len(factorizations) == 1
        assert trail.loop(k.copy()) is trail.last and len(factorizations) == 1

    def test_trail_end_on_a_rejected_trial_factors_once(self, factorizations):
        plant = generate_plant(2, 0)
        start = _ClosedLoop(plant, lqr_centralized(plant).K)
        factorizations.clear()
        trail = _Trail(start, lambda c: c)
        assert trail(-100.0 * start.k).value == math.inf  # a rejected trial
        end = trail.loop(start.k)
        assert len(factorizations) == 2 and end is not start
        assert end.k.tobytes() == start.k.tobytes() and end.value == start.value

    def test_trail_called_twice_on_one_gain_factors_once(self, factorizations):
        # a backtrack whose prox maps two steps to one K (every block
        # shrunk to zero) repeats a rejected trial: its loop is the last one
        plant = generate_plant(2, 0)
        start = _ClosedLoop(plant, lqr_centralized(plant).K)
        factorizations.clear()
        trail = _Trail(start, lambda c: c)
        zero = np.zeros_like(start.k)
        first = trail(zero)
        assert trail(zero.copy()) is first and len(factorizations) == 1

    def test_pipeline_never_factors_one_matrix_twice_in_a_row(self, factorizations):
        run_pipeline(Scenario(name="repeats", generator=GeneratorSpec(2, 0)))
        assert len(factorizations) > 1
        repeats = [i for i in range(1, len(factorizations))
                   if factorizations[i] == factorizations[i - 1]]
        assert not repeats

    def test_inner_solve_that_gives_up_on_a_rejected_trial(self, monkeypatch, factorizations):
        # the descent's last trial is not its end point: the loop handed on
        # still holds the end point, factored once more
        plant = generate_plant(2, 0)
        start = _ClosedLoop(plant, lqr_centralized(plant).K)
        comp = SparsityPattern.diagonal(plant.partition).complement_identity()

        def giving_up(make_eval, x0, **limits):
            ev = make_eval(x0)
            assert make_eval(-100.0 * x0).value == math.inf
            return descent.DescentResult(np.array(x0), ev.value, ev.gradient(), 0,
                                         descent.LOST_STABILITY)

        monkeypatch.setattr(structured, "descend", giving_up)
        factorizations.clear()
        end, stopped = structured._inner_solve(start, np.zeros_like(start.k), 1.0, comp, 1e-6,
                                               lambda k: False)
        assert not stopped
        assert len(factorizations) == 2 and end is not start
        assert h2._holds(end, start.k) and end.stable


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

    @pytest.mark.property
    @settings(deadline=None)
    @given(plant=st.one_of(plants(), shifted_generated_plants()))
    def test_kleinman_fixed_point(self, plant):
        # K_c solves the Riccati equation iff the Lyapunov equation of its
        # own closed loop gives it back: R^{-1} B^T P(K_c) = K_c.
        kc = lqr_centralized(plant)
        assert is_stabilizing(plant, kc)
        residual = np.linalg.norm(kleinman_step(plant, kc.K) - kc.K)
        assert residual <= 1e-9 * (1.0 + np.linalg.norm(kc.K))

    def test_weakly_controllable_plant(self):
        # The mode at 2 is reached through a B entry of 1e-6: K_c moves it
        # to about -2 with a gain entry near 1.37e7, and the mode at 1 goes
        # to -sqrt(1 + 1) as in the scalar formula.
        part = BlockPartition((1,), (2,))
        plant = LtiPlant(np.diag([1.0, 2.0]), [[1.0], [1e-6]], np.eye(2), np.eye(2), [[1.0]], part)
        kc = lqr_centralized(plant)
        poles = np.sort(np.linalg.eigvals(plant.A - plant.B @ kc.K).real)
        assert poles == pytest.approx([-2.0, -math.sqrt(2.0)], rel=1e-6)
        assert abs(kc.K[0, 1]) == pytest.approx(1.37e7, rel=1e-2)
        residual = np.linalg.norm(kleinman_step(plant, kc.K) - kc.K)
        assert residual <= 1e-9 * (1.0 + np.linalg.norm(kc.K))

    def test_rounding_asymmetry_in_q_and_r_is_accepted(self):
        # The plant accepts Q and R symmetric up to 1e-10 relative; the
        # Riccati solve must too, and give the gain of the symmetric part.
        rng = np.random.default_rng(23)
        plant = single_node_plant(rng, 3, 2)
        tilt_q, tilt_r = np.triu(np.full((3, 3), 1e-13), 1), np.triu(np.full((2, 2), 1e-13), 1)
        tilted = LtiPlant(plant.A, plant.B, plant.W, plant.Q + tilt_q, plant.R + tilt_r,
                          plant.partition)
        kc = lqr_centralized(tilted).K
        assert np.linalg.norm(kc - lqr_centralized(plant).K) <= 1e-9 * (1.0 + np.linalg.norm(kc))

    def test_local_optimality(self):
        rng = np.random.default_rng(29)
        plant = single_node_plant(rng, 4, 2)
        kc = lqr_centralized(plant)
        j_star = closed_loop_cost(plant, kc)
        for _ in range(10):
            delta = 1e-3 * rng.standard_normal(kc.K.shape)
            assert j_star <= closed_loop_cost(plant, kc.K + delta) + 1e-12


class TestRiccatiFailures:
    """Each way the Riccati solve gives up is a solver failure
    (RiccatiFailure, exit code 5), never an input error."""

    def test_solve_that_raises(self, monkeypatch, tmp_path, capsys):
        def fails(*args):
            raise np.linalg.LinAlgError("Failed to find a finite solution.")

        monkeypatch.setattr(h2, "solve_continuous_are", fails)
        with pytest.raises(RiccatiFailure, match="Riccati solve failed"):
            lqr_centralized(scalar_plant(a=1.0))
        scenario = tmp_path / "s.json"
        scenario.write_text('{"plant": {"generator": {"n_nodes": 2, "seed": 0}}}', encoding="utf-8")
        assert main(["run", "--scenario", str(scenario)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("solver failure: Riccati solve failed") and "Traceback" not in err

    def test_pencil_that_scipy_cannot_reorder(self, tmp_path, capsys):
        # delta = 1e308 shifts A so far left that ordqz cannot reorder the
        # Hamiltonian pencil; scipy raises ValueError, not LinAlgError
        with pytest.raises(RiccatiFailure, match="Riccati solve failed: Reordering"):
            lqr_centralized(generate_plant(2, 0, delta=1e308))
        scenario = tmp_path / "s.json"
        scenario.write_text('{"plant": {"generator": {"n_nodes": 2, "seed": 0, "delta": 1e308}}}',
                            encoding="utf-8")
        assert main(["run", "--scenario", str(scenario)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("solver failure: Riccati solve failed") and "Traceback" not in err

    def test_solution_that_does_not_stabilize(self, monkeypatch):
        # P = 0 gives K = 0, which leaves the pole of a = 1 in place
        monkeypatch.setattr(h2, "solve_continuous_are", lambda a, b, q, r: np.zeros_like(a))
        with pytest.raises(RiccatiFailure, match="does not stabilize"):
            lqr_centralized(scalar_plant(a=1.0))
