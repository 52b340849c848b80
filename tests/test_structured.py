"""Structured synthesis: augmented Lagrangian, inner solver, outer loop."""

import numpy as np
import pytest
from scipy.linalg import block_diag, solve_continuous_are

from conftest import fd_gradient, perturbed_gain, single_node_plant
from sparselink import (
    BlockPartition,
    DimensionMismatch,
    GainMatrix,
    LineSearchFailure,
    LostStabilizability,
    LtiPlant,
    MaxIterations,
    NotStabilizing,
    PatternNotStabilizable,
    SparsityPattern,
    augmented_lagrangian,
    closed_loop_cost,
    cost_gradient,
    is_stabilizing,
    lqr_centralized,
    synthesize_structured_info,
)
from sparselink import descent, h2, structured
from sparselink.h2 import _ClosedLoop
from sparselink.structured import _AugLagEval


def two_node_plant(seed=0):
    from sparselink import generate_plant

    return generate_plant(2, seed)


def cross_coupled_plant():
    """Diagonal pattern cannot stabilize: each input only reaches the other
    node's state, so A - BK has zero trace for any diagonal K."""
    part = BlockPartition((1, 1), (1, 1))
    a = np.diag([1.0, -1.0])
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    return LtiPlant(a, b, np.eye(2), np.eye(2), np.eye(2), part)


class TestAugmentedLagrangian:
    def test_structured_gain_reduces_to_cost(self):
        plant = two_node_plant()
        pattern = SparsityPattern.diagonal(plant.partition)
        kc = lqr_centralized(plant)
        k = kc.project(pattern)
        assert is_stabilizing(plant, k)
        lam = np.full((plant.m, plant.n), 3.7)
        value = augmented_lagrangian(plant, k, lam, 11.0, pattern)
        assert value == pytest.approx(closed_loop_cost(plant, k), abs=1e-12)

    def test_single_violation_arithmetic(self):
        plant = two_node_plant()
        pattern = SparsityPattern.diagonal(plant.partition)
        kc = lqr_centralized(plant)
        k = np.array(kc.project(pattern).K)
        ri, cj = plant.partition.block(0, 1)
        k[ri.start, cj.start] = 0.25  # one off-pattern entry of value v
        value = augmented_lagrangian(plant, k, np.zeros((plant.m, plant.n)), 2.0, pattern)
        expected = closed_loop_cost(plant, k) + 0.25**2
        assert value == pytest.approx(expected, abs=1e-12)

    def test_term_by_term_oracle(self):
        rng = np.random.default_rng(41)
        plant = two_node_plant(4)
        pattern = SparsityPattern.diagonal(plant.partition)
        k = perturbed_gain(rng, plant, lqr_centralized(plant).K, scale=0.05)
        lam = rng.standard_normal((plant.m, plant.n))
        gamma = 3.5
        comp = pattern.complement_identity()
        viol = k.K * comp
        expected = (
            closed_loop_cost(plant, k)
            + float(np.sum(lam * viol))
            + 0.5 * gamma * float(np.sum(viol * viol))
        )
        value = augmented_lagrangian(plant, k, lam, gamma, pattern)
        assert value == pytest.approx(expected, abs=1e-12 * (1.0 + abs(expected)))

    def test_not_stabilizing_raises(self):
        plant = cross_coupled_plant()
        pattern = SparsityPattern.full(plant.partition)
        k = np.array([[-5.0, 0.0], [0.0, -5.0]])
        assert not is_stabilizing(plant, k)
        with pytest.raises(NotStabilizing):
            augmented_lagrangian(plant, k, np.zeros((2, 2)), 1.0, pattern)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(43)
        plant = two_node_plant(6)
        pattern = SparsityPattern.diagonal(plant.partition)
        k = perturbed_gain(rng, plant, lqr_centralized(plant).K, scale=0.05)
        lam = rng.standard_normal((plant.m, plant.n))
        gamma = 4.0
        comp = pattern.complement_identity()
        g = _AugLagEval(_ClosedLoop(plant, k.K), lam, gamma, comp).gradient()
        fd = fd_gradient(
            lambda kk: augmented_lagrangian(plant, kk, lam, gamma, pattern),
            k.K,
            step=1e-5,
        )
        assert np.linalg.norm(g - fd) <= 1e-4 * (1.0 + np.linalg.norm(fd))


class TestMinimizeInner:
    @staticmethod
    def _inner_solve(monkeypatch, *args):
        """structured._inner_solve(*args), which returns the end point's loop,
        and the result of the descent it ran."""
        results = []

        def recorded(*a, **kw):
            results.append(descent.descend(*a, **kw))
            return results[-1]

        monkeypatch.setattr(structured, "descend", recorded)
        end = structured._inner_solve(*args)
        return results[0], end

    def test_reduces_to_h2_descent(self, monkeypatch):
        # gamma=0 and Lambda=0 make L equal J; K_c is already stationary
        plant = two_node_plant(1)
        pattern = SparsityPattern.diagonal(plant.partition)
        kc = lqr_centralized(plant)
        res, _ = self._inner_solve(monkeypatch, _ClosedLoop(plant, kc.K),
                                   np.zeros((plant.m, plant.n)), 0.0,
                                   pattern.complement_identity(), structured._INNER_TOL)
        assert res.status == descent.CONVERGED
        assert np.linalg.norm(res.x - kc.K) <= 1e-8 * (1.0 + np.linalg.norm(kc.K))

    def test_inner_tolerance_contract(self, monkeypatch):
        rng = np.random.default_rng(47)
        plant = two_node_plant(2)
        pattern = SparsityPattern.diagonal(plant.partition)
        lam = 0.1 * rng.standard_normal((plant.m, plant.n))
        gamma = 5.0
        comp = pattern.complement_identity()
        res, end = self._inner_solve(monkeypatch, _ClosedLoop(plant, lqr_centralized(plant).K),
                                     lam, gamma, comp, structured._INNER_TOL)
        assert res.status == descent.CONVERGED
        assert np.array_equal(end.k, res.x)
        g = _AugLagEval(end, lam, gamma, comp).gradient()
        assert np.linalg.norm(g) <= structured._INNER_TOL * (1.0 + np.linalg.norm(res.x))
        assert is_stabilizing(plant, res.x)

    def test_held_start_and_end_not_factored_again(self, monkeypatch):
        rng = np.random.default_rng(49)
        plant = two_node_plant(2)
        comp = SparsityPattern.diagonal(plant.partition).complement_identity()
        lam = 0.1 * rng.standard_normal((plant.m, plant.n))
        start = _ClosedLoop(plant, lqr_centralized(plant).K)
        a_start = plant.A - plant.B @ start.k
        factored = []
        schur = h2._real_schur

        def recording(a):
            factored.append(a)
            return schur(a)

        monkeypatch.setattr(h2, "_real_schur", recording)
        res, end = self._inner_solve(monkeypatch, start, lam, 5.0, comp, structured._INNER_TOL)
        assert res.iterations > 0
        assert not any(np.array_equal(a, a_start) for a in factored)
        # the end point's closed loop is the one the accepted trial built
        assert end.k is res.x
        assert sum(np.array_equal(a, plant.A - plant.B @ res.x) for a in factored) == 1


class TestSynthesizeStructured:
    def test_full_pattern_matches_lqr(self):
        plant = two_node_plant(3)
        kc = lqr_centralized(plant)
        k = synthesize_structured_info(plant, SparsityPattern.full(plant.partition)).gain
        assert np.linalg.norm(k.K - kc.K) <= 1e-5 * (1.0 + np.linalg.norm(kc.K))

    def test_block_diagonal_plant_decouples(self):
        # per-subsystem Riccati oracle, assembled block-diagonally
        rng = np.random.default_rng(53)
        blocks_a, blocks_b, gains = [], [], []
        for _ in range(3):
            a_i = rng.uniform(-1.0, 1.0, size=(2, 2))
            b_i = np.array([[10.0], [rng.uniform(0.5, 1.5)]])
            p_i = solve_continuous_are(a_i, b_i, np.eye(2), 10.0 * np.eye(1))
            gains.append(np.linalg.solve(10.0 * np.eye(1), b_i.T @ p_i))
            blocks_a.append(a_i)
            blocks_b.append(b_i)
        a = block_diag(*blocks_a)
        b = block_diag(*blocks_b)
        part = BlockPartition((1, 1, 1), (2, 2, 2))
        plant = LtiPlant(a, b, 0.5 * np.eye(6), np.eye(6), 10.0 * np.eye(3), part)
        expected = block_diag(*gains)
        k = synthesize_structured_info(plant, SparsityPattern.diagonal(part)).gain
        assert np.linalg.norm(k.K - expected) <= 1e-5 * (1.0 + np.linalg.norm(expected))

    def test_exact_zeros_and_cost_bound(self):
        rng = np.random.default_rng(59)
        part = BlockPartition((1, 1, 1, 1), (2, 2, 2, 2))
        a = rng.uniform(-1.0, 1.0, size=(8, 8)) - 2.0 * np.eye(8)
        b = rng.uniform(-1.0, 1.0, size=(8, 4))
        plant = LtiPlant(a, b, np.eye(8), np.eye(8), np.eye(4), part)
        mask = np.array(
            [
                [True, False, True, True],
                [False, True, False, True],
                [False, True, False, False],
                [True, True, False, True],
            ]
        )
        pattern = SparsityPattern(mask, part)
        info = synthesize_structured_info(plant, pattern)
        comp = pattern.complement_identity()
        assert np.all(info.gain.K * comp == 0.0)
        assert is_stabilizing(plant, info.gain)
        j_c = closed_loop_cost(plant, lqr_centralized(plant))
        assert info.cost >= j_c - 1e-8
        assert info.cost == pytest.approx(closed_loop_cost(plant, info.gain), abs=1e-12)

    @pytest.mark.parametrize("seed, density", [(0, 0.0), (1, 0.3), (2, 0.6)])
    def test_cost_is_closed_loop_cost_bitwise(self, seed, density):
        from sparselink import generate_plant

        plant = generate_plant(3, seed)
        u = np.random.default_rng(seed).uniform(size=(3, 3))
        pattern = SparsityPattern(np.eye(3, dtype=bool) | (u < density), plant.partition)
        info = synthesize_structured_info(plant, pattern)
        assert info.cost == closed_loop_cost(plant, info.gain)
        warm = synthesize_structured_info(plant, pattern, init=info.gain)
        assert warm.cost == closed_loop_cost(plant, warm.gain)

    def test_structured_stationarity(self):
        plant = two_node_plant(5)
        pattern = SparsityPattern.diagonal(plant.partition)
        info = synthesize_structured_info(plant, pattern)
        g = cost_gradient(plant, info.gain)
        masked = g * pattern.structural_identity()
        assert np.linalg.norm(masked) <= 1e-5 * (1.0 + np.linalg.norm(info.gain.K))
        assert info.converged

    def test_outer_loop_contract(self, monkeypatch):
        # gamma grows geometrically; Lambda updated as Lambda + gamma (K o Ic);
        # recorded at the start of every outer iteration's inner solve
        calls = []
        inner = structured._inner_solve

        def recording(cl, lam, gamma, comp, grad_tol):
            calls.append((cl.k.copy(), lam.copy(), gamma))
            return inner(cl, lam, gamma, comp, grad_tol)

        monkeypatch.setattr(structured, "_inner_solve", recording)
        plant = two_node_plant(7)
        pattern = SparsityPattern.diagonal(plant.partition)
        synthesize_structured_info(plant, pattern)
        assert len(calls) >= 2
        comp = pattern.complement_identity()
        for (_, lam, gamma), (k_next, lam_next, gamma_next) in zip(calls, calls[1:]):
            assert gamma_next == pytest.approx(structured._ALPHA * gamma, rel=1e-15)
            assert np.allclose(lam_next, lam + gamma * (k_next * comp), atol=1e-14)
        assert all(is_stabilizing(plant, k) for k, _, _ in calls)
        assert calls[0][2] == structured._GAMMA0
        assert np.all(calls[0][1] == 0.0)

    @pytest.mark.parametrize(
        "k_init, projection_stabilizing",
        [([[0.5, 0.3], [0.2, 0.5]], True), ([[-2.0, 2.0], [-2.0, 2.0]], False)],
        ids=["projection_stabilizing", "only_init_stabilizing"],
    )
    def test_init_is_projected_then_polished(self, k_init, projection_stabilizing):
        # A stabilizing init off the diagonal pattern: the synthesis polishes
        # from its projection when that is stabilizing, and starts cold when
        # only the init is.
        part = BlockPartition((1, 1), (1, 1))
        a = np.array([[-1.0, 0.5], [0.3, -1.0]])
        plant = LtiPlant(a, np.eye(2), np.eye(2), np.eye(2), np.eye(2), part)
        pattern = SparsityPattern.diagonal(part)
        init = GainMatrix(np.array(k_init), part)
        assert np.any(init.K * pattern.complement_identity())
        assert is_stabilizing(plant, init)
        assert is_stabilizing(plant, init.project(pattern)) == projection_stabilizing
        warm = synthesize_structured_info(plant, pattern, init=init)
        if projection_stabilizing:
            expected = synthesize_structured_info(plant, pattern, init=init.project(pattern))
            assert warm.iterations == 0
        else:
            expected = synthesize_structured_info(plant, pattern)
        assert warm.gain.K.tobytes() == expected.gain.K.tobytes()
        assert warm.iterations == expected.iterations
        assert warm.cost == expected.cost

    def test_nonstabilizing_init_rejected(self):
        plant = cross_coupled_plant()
        bad = GainMatrix(np.zeros((2, 2)), plant.partition)
        assert not is_stabilizing(plant, bad)
        with pytest.raises(NotStabilizing):
            synthesize_structured_info(plant, SparsityPattern.full(plant.partition), init=bad)

    def test_pattern_not_stabilizable(self, monkeypatch):
        monkeypatch.setattr(structured, "_MAX_OUTER", 8)
        plant = cross_coupled_plant()
        pattern = SparsityPattern.diagonal(plant.partition)
        with pytest.raises(PatternNotStabilizable):
            synthesize_structured_info(plant, pattern)

    def test_loop_that_never_tightens_raises(self, monkeypatch):
        # the violation never falls below a stop tolerance of 0: the loop
        # raises instead of returning a gain whose stop test failed
        monkeypatch.setattr(structured, "_EPS_STOP", 0.0)
        monkeypatch.setattr(structured, "_MAX_OUTER", 3)
        plant = two_node_plant(7)
        with pytest.raises(PatternNotStabilizable):
            synthesize_structured_info(plant, SparsityPattern.diagonal(plant.partition))

    def test_one_projection_per_cold_synthesis(self, monkeypatch):
        # the projection K o I is factored only once the violation is below
        # _EPS_STOP, and the first stabilizing one stops the loop
        projections = []

        def counting(plant, k):
            projections.append(k)
            return _ClosedLoop(plant, k)

        monkeypatch.setattr(structured, "_ClosedLoop", counting)
        for seed in (5, 7):
            plant = two_node_plant(seed)
            pattern = SparsityPattern.diagonal(plant.partition)
            projections.clear()
            info = synthesize_structured_info(plant, pattern)
            assert info.iterations >= 2
            assert len(projections) == 1
            assert np.all(projections[0] * pattern.complement_identity() == 0.0)
            assert info.converged

    @pytest.mark.parametrize(
        "rows, cols, mask",
        [((1, 1), (1, 3), [[True, False], [False, True]]), ((2,), (4,), [[True]])],
        ids=["other_column_blocks", "one_node"],
    )
    def test_pattern_on_another_grid_rejected(self, rows, cols, mask):
        # the same 2 x 4 gain in other blocks: a projection would zero the
        # wrong entries, cold or warm
        plant = two_node_plant(0)
        pattern = SparsityPattern(np.array(mask), BlockPartition(rows, cols))
        with pytest.raises(DimensionMismatch):
            synthesize_structured_info(plant, pattern)
        with pytest.raises(DimensionMismatch):
            synthesize_structured_info(plant, pattern, init=lqr_centralized(plant))

    def test_no_input_on_pattern_fails_before_any_factorization(self, monkeypatch):
        # B^T o I = 0 makes trace(A - B K) = trace(A) = 0 for every K on the
        # diagonal pattern, while the eigenvalues +-sqrt(1 + k1 k2) move with
        # K; no closed loop is factored before the error.
        plant = cross_coupled_plant()
        part = plant.partition
        factored = []
        schur = h2._real_schur

        def counting(a):
            factored.append(a)
            return schur(a)

        monkeypatch.setattr(h2, "_real_schur", counting)
        with pytest.raises(PatternNotStabilizable):
            synthesize_structured_info(plant, SparsityPattern.diagonal(part))
        assert factored == []
        # The same input matrix reaches the state through the full pattern.
        full = synthesize_structured_info(plant, SparsityPattern.full(part))
        assert is_stabilizing(plant, full.gain)

    def test_no_input_on_pattern_with_hurwitz_a_is_kept(self):
        # trace(A) < 0: the rule does not apply, and K = 0 is the optimum,
        # reached up to the rounding of the Riccati solve the cold start
        # begins from (about 1e-18 here)
        cross = cross_coupled_plant()
        part = cross.partition
        plant = LtiPlant(np.diag([-1.0, -2.0]), cross.B, np.eye(2), np.eye(2), np.eye(2), part)
        info = synthesize_structured_info(plant, SparsityPattern.diagonal(part))
        assert np.max(np.abs(info.gain.K)) <= 1e-15
        assert info.cost == pytest.approx(0.5 + 0.25, rel=1e-12)

    def test_on_pattern_init_checked_once(self, monkeypatch):
        # an init on the pattern is its own first projection and the
        # polish's start: one factorization serves the check and both, and
        # none when the init carries its closed loop from the last synthesis
        plant = two_node_plant(9)
        pattern = SparsityPattern.diagonal(plant.partition)
        first = synthesize_structured_info(plant, pattern)
        a_init = plant.A - plant.B @ first.gain.K
        factored = []
        schur = h2._real_schur

        def counting(a):
            factored.append(np.array_equal(a, a_init))
            return schur(a)

        monkeypatch.setattr(h2, "_real_schur", counting)
        again = synthesize_structured_info(
            plant, pattern, init=GainMatrix(first.gain.K.copy(), plant.partition)
        )
        assert sum(factored) == 1
        assert again.iterations == 0
        factored.clear()
        carried = synthesize_structured_info(plant, pattern, init=first.gain)
        assert factored == []
        assert carried.gain.K.tobytes() == again.gain.K.tobytes()
        assert carried.cost == again.cost

    @pytest.mark.parametrize(
        "status, error",
        [
            (descent.MAX_ITER, MaxIterations),
            (descent.STALLED, LineSearchFailure),
            (descent.LOST_STABILITY, LostStabilizability),
        ],
    )
    def test_polish_give_up_raises_its_status_error(self, monkeypatch, status, error):
        # 1.5 K_c on the full pattern is stabilizing and not stationary; a
        # polish that gives up there raises the error of how it gave up
        plant = two_node_plant(9)
        init = GainMatrix(1.5 * lqr_centralized(plant).K, plant.partition)

        def giving_up(make_eval, x0, **limits):
            ev = make_eval(x0)
            return descent.DescentResult(np.array(x0), ev.value, ev.gradient(), 0, status)

        monkeypatch.setattr(structured, "descend", giving_up)
        with pytest.raises(error):
            synthesize_structured_info(plant, SparsityPattern.full(plant.partition), init=init)

    def test_polish_near_stationary_still_raises(self, monkeypatch):
        # descend's tolerance is the only convergence test of a polish: a
        # start whose projected gradient lies between _POLISH_TOL and ten
        # times it is not stationary, and a polish allowed no step there
        # raises instead of passing as converged.
        plant = two_node_plant(9)
        pattern = SparsityPattern.diagonal(plant.partition)
        info = synthesize_structured_info(plant, pattern)
        ident = pattern.structural_identity()
        direction = ident * np.random.default_rng(17).standard_normal(ident.shape)

        def relative_gradient(k):
            return np.linalg.norm(cost_gradient(plant, k) * ident) / (1.0 + np.linalg.norm(k))

        t = 1e-4
        for _ in range(6):  # the gradient grows about linearly in t
            t *= 3e-6 / relative_gradient(info.gain.K + t * direction)
        k = info.gain.K + t * direction
        assert structured._POLISH_TOL < relative_gradient(k) < 1e-5
        monkeypatch.setattr(structured, "_POLISH_MAX_ITER", 0)
        with pytest.raises(MaxIterations):
            synthesize_structured_info(plant, pattern, init=GainMatrix(k, plant.partition))

    def test_warm_start_accepted(self):
        plant = two_node_plant(9)
        pattern = SparsityPattern.diagonal(plant.partition)
        first = synthesize_structured_info(plant, pattern)
        again = synthesize_structured_info(plant, pattern, init=first.gain)
        assert again.cost <= first.cost + 1e-9
        assert np.all(again.gain.K * pattern.complement_identity() == 0.0)


class TestNestedMonotonicity:
    def test_subset_patterns_cost_ordering(self):
        rng = np.random.default_rng(61)
        from sparselink import generate_plant

        for seed in range(4):
            plant = generate_plant(3, seed)
            n_nodes = plant.partition.n_nodes
            big = np.eye(n_nodes, dtype=bool) | (rng.uniform(size=(n_nodes, n_nodes)) < 0.7)
            small = big & (rng.uniform(size=(n_nodes, n_nodes)) < 0.6)
            s2 = SparsityPattern(big, plant.partition)
            s1 = SparsityPattern(small, plant.partition)
            assert s1.is_subset(s2)
            j1 = synthesize_structured_info(plant, s1).cost
            j2 = synthesize_structured_info(plant, s2).cost
            assert j1 >= j2 - 1e-6
