"""Sparse feedback synthesis: shrinkage pieces, the proximal-gradient
solve for one beta, and the beta sweep."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import single_node_plant
from sparselink import (
    BlockPartition,
    DimensionMismatch,
    GainMatrix,
    InvalidAssumption,
    LineSearchFailure,
    LostStabilizability,
    LtiPlant,
    MaxIterations,
    NotStabilizing,
    SparsityPattern,
    block_frobenius,
    block_soft_threshold,
    closed_loop_cost,
    cost_gradient,
    default_beta_schedule,
    generate_plant,
    is_stabilizing,
    lqr_centralized,
    reweight,
    sparse_gain,
    sparsity_sweep,
    sweep_csv,
    synthesize_structured_info,
)
from sparselink import descent, h2, sparse


class TestBlockFrobenius:
    def test_zero_gain(self, ex1_partition):
        norms = block_frobenius(GainMatrix(np.zeros((4, 8)), ex1_partition))
        assert norms.shape == (4, 4)
        assert np.all(norms == 0.0)

    def test_example_blocks(self, ex1_gain):
        norms = block_frobenius(ex1_gain)
        assert norms[0, 0] == pytest.approx(math.sqrt(10.0), abs=1e-15)  # [3, 1]
        assert norms[0, 2] == pytest.approx(math.sqrt(130.0), abs=1e-15)  # [7, 9]
        assert norms[3, 3] == pytest.approx(math.sqrt(34.0), abs=1e-15)  # [5, 3]
        assert norms[1, 0] == 0.0
        assert norms[2, 2] == 0.0

    def test_matches_direct_norm(self, ex1_gain):
        norms = block_frobenius(ex1_gain)
        total = math.sqrt(float(np.sum(norms**2)))
        assert total == pytest.approx(np.linalg.norm(ex1_gain.K), abs=1e-12)


class TestReweight:
    def test_zero_norm_gets_ceiling(self):
        w = reweight(np.zeros((2, 2)), 1e-3)
        assert np.all(w == 1000.0)

    def test_formula(self):
        w = reweight(np.array([[math.sqrt(10.0)]]), 1e-3)
        assert w[0, 0] == pytest.approx(1.0 / (math.sqrt(10.0) + 1e-3), abs=1e-15)

    def test_monotone_decreasing_in_norm(self):
        norms = np.array([[0.0, 0.5, 1.0, 10.0]])
        w = reweight(norms, 1e-3)[0]
        assert np.all(np.diff(w) < 0.0)

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            reweight(np.ones((2, 2)), 0.0)
        with pytest.raises(ValueError):
            reweight(np.ones((2, 2)), -1.0)

    def test_negative_norm(self):
        with pytest.raises(ValueError):
            reweight(np.array([[-0.1]]), 1e-3)


class TestBlockSoftThreshold:
    def test_formula_per_block(self, ex1_partition):
        rng = np.random.default_rng(11)
        v = rng.standard_normal((4, 8))
        t = rng.uniform(0.0, 3.0, size=(4, 4))
        out = block_soft_threshold(v, t, ex1_partition)
        for i in range(4):
            for j in range(4):
                ri, cj = ex1_partition.block(i, j)
                blk = v[ri, cj]
                nrm = np.linalg.norm(blk)
                expect = max(1.0 - t[i, j] / nrm, 0.0) * blk if nrm > 0 else blk * 0.0
                assert np.allclose(out[ri, cj], expect, atol=1e-15)

    def test_below_threshold_zeroed(self, ex1_partition):
        v = np.zeros((4, 8))
        v[0, 0:2] = [3.0, 4.0]  # norm 5
        out = block_soft_threshold(v, np.full((4, 4), 6.0), ex1_partition)
        assert np.all(out == 0.0)

    def test_at_threshold_zeroed(self, ex1_partition):
        v = np.zeros((4, 8))
        v[0, 0:2] = [3.0, 4.0]
        t = np.zeros((4, 4))
        t[0, 0] = 5.0
        out = block_soft_threshold(v, t, ex1_partition)
        assert np.all(out[0:1, 0:2] == 0.0)

    def test_zero_threshold_identity(self, ex1_gain, ex1_partition):
        out = block_soft_threshold(ex1_gain.K, np.zeros((4, 4)), ex1_partition)
        assert np.array_equal(out, ex1_gain.K)

    def test_shape_check(self, ex1_partition):
        with pytest.raises(DimensionMismatch):
            block_soft_threshold(np.zeros((3, 8)), np.zeros((4, 4)), ex1_partition)


class TestSparseGain:
    def test_zero_beta_recovers_lqr(self):
        plant = generate_plant(2, 0)
        kc = lqr_centralized(plant)
        ones = np.ones((2, 2))
        k = sparse_gain(plant, 0.0, ones, kc)
        assert np.linalg.norm(k.K - kc.K) <= 1e-5 * (1.0 + np.linalg.norm(kc.K))

    def test_negative_beta_rejected(self):
        plant = generate_plant(2, 0)
        with pytest.raises(ValueError):
            sparse_gain(plant, -1.0, np.ones((2, 2)), lqr_centralized(plant))

    @pytest.mark.parametrize("beta", [math.inf, math.nan])
    def test_nonfinite_beta_rejected(self, beta):
        plant = generate_plant(2, 0)
        with pytest.raises(ValueError, match="finite"):
            sparse_gain(plant, beta, np.ones((2, 2)), lqr_centralized(plant))

    def test_nonstabilizing_init_rejected(self):
        plant = single_node_plant(np.random.default_rng(3), 3, 2, margin=-0.5)
        bad = GainMatrix(np.zeros((2, 3)), plant.partition)
        assert not is_stabilizing(plant, bad)
        with pytest.raises(NotStabilizing):
            sparse_gain(plant, 1.0, np.ones((1, 1)), bad)

    def test_weights_shape_check(self):
        plant = generate_plant(2, 0)
        with pytest.raises(DimensionMismatch):
            sparse_gain(plant, 1.0, np.ones((3, 3)), lqr_centralized(plant))

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_bad_weights_rejected(self, bad):
        # A negative weight makes the penalty concave; a NaN or infinite one
        # makes the start's value non-finite, which descend would take for a
        # start off the stabilizing set.
        plant = generate_plant(3, 0)
        kc = lqr_centralized(plant)
        beta = 0.1 * closed_loop_cost(plant, kc)
        with pytest.raises(InvalidAssumption, match="weights"):
            sparse_gain(plant, beta, np.full((3, 3), bad), kc)

    def test_large_beta_empties_offdiagonal(self):
        # open-loop stable plant: with a huge penalty the gain collapses
        plant = generate_plant(3, 1)
        kc = lqr_centralized(plant)
        beta = 1e6 * closed_loop_cost(plant, kc)
        k = sparse_gain(plant, beta, np.ones((3, 3)), kc)
        norms = block_frobenius(k)
        off = norms[~np.eye(3, dtype=bool)]
        assert np.all(off < sparse.ZERO_THRESHOLD)
        pattern = SparsityPattern.from_gain(k, sparse.ZERO_THRESHOLD)
        assert is_stabilizing(plant, k.project(pattern))

    def test_objective_trace_monotone(self, monkeypatch):
        # the solve asks for the gradient once at its start and once at
        # each accepted iterate, in order; the composite objective is
        # evaluated at the start and at every trial
        plant = generate_plant(2, 5)
        kc = lqr_centralized(plant)
        beta = 0.05 * closed_loop_cost(plant, kc)
        weights = np.ones((2, 2))
        objectives, accepted = {}, []
        gradient = h2._ClosedLoop.gradient

        class Recording(sparse._Penalized):
            def __init__(self, cl, *args):
                super().__init__(cl, *args)
                objectives[cl.k.tobytes()] = self.value

        def recording_gradient(cl):
            accepted.append(cl.k.tobytes())
            return gradient(cl)

        monkeypatch.setattr(sparse, "_Penalized", Recording)
        monkeypatch.setattr(h2._ClosedLoop, "gradient", recording_gradient)
        sparse_gain(plant, beta, weights, kc)
        trace = [objectives[k] for k in accepted]
        assert len(trace) >= 2
        for prev, cur in zip(trace, trace[1:]):
            assert cur <= prev + 1e-10 * (1.0 + abs(prev))

    def test_iteration_cap_is_typed(self, monkeypatch):
        monkeypatch.setattr(sparse, "_MAX_ITER", 1)
        plant = generate_plant(3, 2)
        kc = lqr_centralized(plant)
        beta = 0.02 * closed_loop_cost(plant, kc)
        with pytest.raises(MaxIterations):
            sparse_gain(plant, beta, np.ones((3, 3)), kc)

    def test_stalled_line_search_is_typed(self, monkeypatch):
        # no finite trial can pass a sufficient-decrease test this strict
        monkeypatch.setattr(descent, "ARMIJO_C1", 1e300)
        plant = generate_plant(3, 2)
        kc = lqr_centralized(plant)
        beta = 0.02 * closed_loop_cost(plant, kc)
        with pytest.raises(LineSearchFailure):
            sparse_gain(plant, beta, np.ones((3, 3)), kc)

    @pytest.mark.parametrize("seed", [0, 2, 4])
    @pytest.mark.parametrize("beta_rel", [0.0, 1e-3, 0.05, 1.0])
    def test_result_is_fixed_point(self, seed, beta_rel):
        plant = generate_plant(3, seed)
        kc = lqr_centralized(plant)
        beta = beta_rel * closed_loop_cost(plant, kc)
        weights = reweight(block_frobenius(kc), sparse.EPSILON_REWEIGHT)
        gain = sparse_gain(plant, beta, weights, kc)
        step = 0.01
        shrunk = block_soft_threshold(
            gain.K - step * cost_gradient(plant, gain), step * beta * weights, plant.partition
        )
        residual = np.linalg.norm(gain.K - shrunk) / step
        assert residual <= sparse._RESIDUAL_TOL * (1.0 + np.linalg.norm(gain.K))

    def test_intermediate_beta_partial_sparsity(self):
        # block count pinned from a reference run of this exact instance
        plant = generate_plant(3, 2)
        kc = lqr_centralized(plant)
        beta = 0.02 * closed_loop_cost(plant, kc)
        gain = kc
        for _ in range(sparse.MAX_REWEIGHT):
            g = reweight(block_frobenius(gain), sparse.EPSILON_REWEIGHT)
            gain = sparse_gain(plant, beta, g, gain)
        pattern = SparsityPattern.from_gain(gain, sparse.ZERO_THRESHOLD)
        assert pattern.n_free == 4
        assert 0 < pattern.n_free < 9
        assert is_stabilizing(plant, gain.project(pattern))


class TestBetaSchedule:
    def test_default_schedule(self):
        sched = default_beta_schedule(2.0)
        assert len(sched) == 30
        assert sched[0] == pytest.approx(2e-4, rel=1e-12)
        assert sched[-1] == pytest.approx(2e2, rel=1e-12)
        ratios = np.diff(np.log(np.asarray(sched)))
        assert np.allclose(ratios, ratios[0], rtol=1e-9)

    def test_schedule_validation(self):
        plant = generate_plant(2, 0)
        for schedule in ((1.0, 0.5), (-1.0, 0.5), (1.0, 1.0), 5, ["x"], "0.5"):
            with pytest.raises(InvalidAssumption):
                sparsity_sweep(plant, schedule)

    @pytest.mark.parametrize("schedule", [(0.05, math.inf), (math.nan, 0.5)])
    def test_nonfinite_schedule_rejected(self, schedule):
        with pytest.raises(InvalidAssumption, match="finite"):
            sparsity_sweep(generate_plant(2, 0), schedule)

    def test_bad_schedule_is_rejected_before_the_riccati_solve(self, monkeypatch):
        def unreachable(plant):
            raise AssertionError("K_c solved before the schedule was checked")

        monkeypatch.setattr(sparse, "lqr_centralized", unreachable)
        with pytest.raises(InvalidAssumption, match="increasing"):
            sparsity_sweep(generate_plant(2, 0), (1.0, 0.5))


@pytest.mark.usefixtures("one_reweight")
class TestSparsitySweep:
    def test_single_tiny_beta_matches_centralized(self):
        plant = generate_plant(2, 3)
        kc = lqr_centralized(plant)
        j_c = closed_loop_cost(plant, kc)
        result = sparsity_sweep(plant, (1e-8 * j_c,))
        assert len(result.entries) == 1
        entry = result.entries[0]
        assert entry.cost_polished <= j_c * (1.0 + 1e-5)
        assert entry.cost_polished >= j_c - 1e-8
        assert entry.nnz_blocks == entry.pattern.n_free

    def test_sweep_invariants(self):
        plant = generate_plant(3, 2)
        kc = lqr_centralized(plant)
        j_c = closed_loop_cost(plant, kc)
        sched = tuple(j_c * b for b in (1e-4, 1e-2, 0.3, 3.0, 30.0))
        result = sparsity_sweep(plant, sched)
        assert len(result.entries) == 5
        for entry in result.entries:
            assert is_stabilizing(plant, entry.polished_gain)
            comp = entry.pattern.complement_identity()
            assert np.all(entry.polished_gain.K * comp == 0.0)
            assert entry.cost_polished >= j_c - 1e-8
            assert entry.cost_polished == pytest.approx(
                closed_loop_cost(plant, entry.polished_gain), abs=1e-9 * (1.0 + j_c)
            )
        betas = [e.beta for e in result.entries]
        assert betas == sorted(betas)

    def test_nested_entries_cost_ordered(self):
        plant = generate_plant(3, 4)
        j_c = closed_loop_cost(plant, lqr_centralized(plant))
        sched = tuple(j_c * b for b in (1e-3, 0.1, 1.0, 10.0))
        entries = sparsity_sweep(plant, sched).entries
        for cur, nxt in zip(entries, entries[1:]):
            if nxt.pattern.is_subset(cur.pattern):
                assert cur.cost_polished <= nxt.cost_polished + 1e-6

    def test_csv_round_trip(self):
        plant = generate_plant(2, 6)
        j_c = closed_loop_cost(plant, lqr_centralized(plant))
        result = sparsity_sweep(plant, (0.01 * j_c, 1.0 * j_c))
        text = sweep_csv(result)
        lines = text.splitlines()
        assert lines[0] == "beta,nnz_blocks,J_polished"
        assert len(lines) == 1 + len(result.entries)
        assert text.endswith("\n")
        for line, entry in zip(lines[1:], result.entries):
            b, nnz, j = line.split(",")
            assert float(b) == entry.beta
            assert int(nnz) == entry.nnz_blocks
            assert float(j) == entry.cost_polished


def test_carried_loop_serves_its_own_plant_only(factorizations):
    # A gain carries the closed loop of the plant it was solved on. A solve
    # from it on another plant with the same A - B K (here R doubled) must
    # factor afresh, and give bit for bit what a loop-free copy gives.
    plant = generate_plant(3, 2)
    other = LtiPlant(plant.A, plant.B, plant.W, plant.Q, 2.0 * plant.R, plant.partition)
    kc = lqr_centralized(plant)
    beta = 0.02 * closed_loop_cost(plant, kc)
    weights = np.ones((3, 3))
    carried = sparse_gain(plant, beta, weights, kc)
    pattern = SparsityPattern.from_gain(carried, sparse.ZERO_THRESHOLD)
    polished = synthesize_structured_info(plant, pattern, init=carried).gain
    for gain, solve in ((carried, lambda p, g: sparse_gain(p, beta, weights, g)),
                        (polished, lambda p, g: synthesize_structured_info(p, pattern, init=g))):
        start = (plant.A - plant.B @ gain.K).tobytes()
        factorizations.clear()
        solve(plant, gain)
        assert start not in factorizations  # the carried loop served
        results = []
        for g in (gain, GainMatrix(gain.K.copy(), gain.partition)):
            factorizations.clear()
            results.append(solve(other, g))
            assert factorizations[0] == start
        first, second = (getattr(r, "gain", r).K for r in results)
        assert first.tobytes() == second.tobytes()


@pytest.mark.property
@settings(max_examples=40, deadline=None)
@given(n_nodes=st.integers(2, 4), seed=st.integers(0, 10_000),
       rel_betas=st.lists(st.sampled_from((1e-3, 1e-2, 0.03, 0.1, 0.3, 1.0)),
                          min_size=2, max_size=4, unique=True))
def test_sweep_orders_nested_and_shares_equal_polishes(n_nodes, seed, rel_betas):
    plant = generate_plant(n_nodes, seed)
    j_c = closed_loop_cost(plant, lqr_centralized(plant))
    entries = sparsity_sweep(plant, tuple(j_c * b for b in sorted(rel_betas))).entries
    for cur, nxt in zip(entries, entries[1:]):
        if nxt.pattern.is_subset(cur.pattern):
            assert cur.cost_polished <= nxt.cost_polished
        if nxt.pattern.same_as(cur.pattern):
            assert cur.cost_polished == nxt.cost_polished
            assert np.array_equal(cur.polished_gain.K, nxt.polished_gain.K)


def test_unpenalized_lost_stability_is_typed(monkeypatch):
    def lost(make_eval, x0, **kwargs):
        ev = make_eval(x0)
        return descent.DescentResult(x0, ev.value, ev.gradient(), 0, descent.LOST_STABILITY)

    monkeypatch.setattr(sparse, "descend", lost)
    plant = generate_plant(2, 0)
    kc = lqr_centralized(plant)
    weights = np.ones((plant.partition.n_nodes,) * 2)
    with pytest.raises(LostStabilizability):
        sparse_gain(plant, 0.0, weights, kc)
