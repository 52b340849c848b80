"""Link priority tables, removal losses, and sweep-based ranking."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from conftest import EX1_K, EX1_PRIORITIES, EX1_ROWS, EX2_PRIORITIES, EX2_ROWS
from sparselink import (
    BlockPartition,
    DimensionMismatch,
    EmptySweep,
    GainMatrix,
    GeneratorSpec,
    IndexOutOfRange,
    InvalidAssumption,
    LtiPlant,
    PatternNotStabilizable,
    PriorityRow,
    PriorityTable,
    SparsityPattern,
    SweepEntry,
    SweepResult,
    SynthesisInfo,
    generate_plant,
    rank_links,
    removal_loss,
    sparsity_sweep,
    synthesize_structured_info,
    table_from_gain,
)
from sparselink import h2, priority


class TestPriorityTable:
    def test_example_dimensions(self, ex1_table, ex2_table):
        assert ex1_table.r1 == 9
        assert ex1_table.r2 == 2
        assert ex2_table.r1 == 6
        assert ex2_table.r2 == 4
        assert ex2_table.sizes() == (2, 2, 2, 4, 4, 4)

    def test_row_lookup(self, ex1_table):
        row = ex1_table.row(6)
        assert (row.i, row.j) == (0, 2)
        assert row.values == (7.0, 9.0)
        with pytest.raises(IndexOutOfRange):
            ex1_table.row(0)
        with pytest.raises(IndexOutOfRange):
            ex1_table.row(10)

    def test_permutation_required(self):
        rows = (
            PriorityRow(0, 0, 1, 2, (1.0, 2.0)),
            PriorityRow(1, 1, 1, 2, (3.0, 4.0)),
        )
        with pytest.raises(DimensionMismatch):
            PriorityTable(rows)

    def test_rows_come_back_in_priority_order(self, ex1_table):
        assert PriorityTable(ex1_table.rows[::-1]) == ex1_table
        table = PriorityTable([PriorityRow(0, 0, 2, 2, (1.0, 2.0)), PriorityRow(1, 1, 1, 2, (3.0, 4.0))])
        assert [(r.i, r.q) for r in table.rows] == [(1, 1), (0, 2)]
        assert table.row(1).values == (3.0, 4.0)

    def test_grid_size_limit_is_checked_before_any_allocation(self, monkeypatch, ex1_table):
        def no_grid(*args, **kwargs):
            raise AssertionError("allocated a grid past the size limit")

        def moved(**index):  # the last row at another block index
            return PriorityTable(ex1_table.rows[:-1] + (dataclasses.replace(ex1_table.rows[-1], **index),))

        limit = priority._MAX_DIM
        assert (moved(i=limit - 1, j=limit - 1).rows[-1].i, moved(j=limit - 1).rows[-1].j) == (limit - 1, limit - 1)
        monkeypatch.setattr(np, "full", no_grid)
        for index in ({"i": limit}, {"j": limit}, {"i": 10**9}, {"j": 10**9}, {"i": 10**30}, {"j": -1}):
            with pytest.raises(DimensionMismatch, match=f"0..{limit - 1}, at most {limit}"):
                moved(**index)

    def test_padding_must_be_zero(self):
        rows = (
            PriorityRow(0, 0, 1, 1, (1.0, 2.0)),  # size 1 but second slot set
        )
        with pytest.raises(DimensionMismatch):
            PriorityTable(rows)

    def test_ragged_width_rejected(self):
        rows = (
            PriorityRow(0, 0, 1, 2, (1.0, 2.0)),
            PriorityRow(1, 1, 2, 3, (3.0, 4.0, 5.0)),
        )
        with pytest.raises(DimensionMismatch):
            PriorityTable(rows)

    def test_size_exceeding_width_rejected(self):
        with pytest.raises(DimensionMismatch):
            PriorityTable((PriorityRow(0, 0, 1, 3, (1.0, 2.0)),))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, value):
        with pytest.raises(DimensionMismatch, match="finite"):
            PriorityTable((PriorityRow(0, 0, 1, 1, (value,)),))

    @pytest.mark.parametrize("change", [
        dict(i=-1),
        dict(j=-1),
        dict(i=3, j=0),  # the block of priority 2
        dict(size=0, values=(0.0, 0.0)),
    ])
    def test_row_must_name_its_own_block_of_units(self, ex1_table, change):
        rows = (dataclasses.replace(ex1_table.rows[0], **change),) + ex1_table.rows[1:]
        with pytest.raises(DimensionMismatch):
            PriorityTable(rows)

    def test_fits_partition(self, ex1_table, ex1_partition):
        ex1_table.check_fits(ex1_partition)
        for wrong in (BlockPartition((1, 1, 1), (2, 2, 2)), BlockPartition((1,) * 4, (2, 2, 2, 3))):
            with pytest.raises(DimensionMismatch):
                ex1_table.check_fits(wrong)

    def test_zeroed_rows(self, ex1_table):
        zeroed = ex1_table.with_zeroed_rows({2, 5})
        assert zeroed.is_zero_row(2)
        assert zeroed.is_zero_row(5)
        assert not zeroed.is_zero_row(1)
        assert zeroed.row(2).values == (0.0, 0.0)
        assert zeroed.row(2).size == 2
        assert zeroed.row(1) == ex1_table.row(1)
        # the source table is untouched
        assert not ex1_table.is_zero_row(2)

    def test_empty_table(self):
        table = PriorityTable(())
        assert table.r1 == 0
        assert table.r2 == 0
        assert table.sizes() == ()


class TestTableFromGain:
    def test_example_one_exact(self, ex1_gain):
        table = table_from_gain(ex1_gain, EX1_PRIORITIES)
        assert table.rows == EX1_ROWS

    def test_example_two_exact(self, ex2_gain):
        table = table_from_gain(ex2_gain, EX2_PRIORITIES)
        assert table.rows == EX2_ROWS

    def test_reassembles_source_gain(self, ex1_gain, ex1_partition):
        table = table_from_gain(ex1_gain, EX1_PRIORITIES)
        rebuilt = np.zeros((4, 8))
        for row in table.rows:
            ri, cj = ex1_partition.block(row.i, row.j)
            rebuilt[ri, cj] = np.array(row.values[: row.size]).reshape(
                ri.stop - ri.start, cj.stop - cj.start
            )
        assert np.array_equal(rebuilt, EX1_K)

    def test_mixed_sizes_padded(self, ex2_gain):
        table = table_from_gain(ex2_gain, EX2_PRIORITIES)
        assert table.row(1).values == (2.0, 1.0, 0.0, 0.0)
        assert table.row(4).values == (3.0, 7.0, 5.0, 8.0)


def decoupled_plant():
    a1 = np.array([[-1.0, 0.4], [0.0, -2.0]])
    a2 = np.array([[-0.5, 0.0], [0.3, -1.5]])
    a = block_diag(a1, a2)
    b = block_diag(np.array([[1.0], [0.5]]), np.array([[0.8], [1.0]]))
    part = BlockPartition((1, 1), (2, 2))
    return LtiPlant(a, b, np.eye(4), np.eye(4), np.eye(2), part)


class TestRemovalLoss:
    def test_nonnegative_on_random_plants(self):
        for seed in range(3):
            plant = generate_plant(2, seed)
            full = SparsityPattern.full(plant.partition)
            base = synthesize_structured_info(plant, full)
            loss = removal_loss(plant, full, (0, 1), base=base)
            assert loss >= -1e-6

    def test_zero_block_costs_nothing(self):
        # decoupled subsystems: the optimum never uses cross blocks
        plant = decoupled_plant()
        full = SparsityPattern.full(plant.partition)
        base = synthesize_structured_info(plant, full)
        loss = removal_loss(plant, full, (0, 1), base=base)
        assert -1e-6 <= loss <= 1e-6

    def test_infinite_when_pattern_dies(self, monkeypatch):
        from sparselink import structured

        monkeypatch.setattr(structured, "_MAX_OUTER", 8)
        part = BlockPartition((1, 1), (1, 1))
        plant = LtiPlant(
            np.diag([1.0, -1.0]), np.eye(2), np.eye(2), np.eye(2), np.eye(2), part
        )
        diag = SparsityPattern.diagonal(part)
        base = synthesize_structured_info(plant, diag)
        loss = removal_loss(plant, diag, (0, 0), base=base)
        assert loss == math.inf

    def test_index_and_freeness_checks(self):
        plant = generate_plant(2, 0)
        diag = SparsityPattern.diagonal(plant.partition)
        base = synthesize_structured_info(plant, diag)
        with pytest.raises(IndexOutOfRange):
            removal_loss(plant, diag, (5, 0), base=base)
        with pytest.raises(InvalidAssumption):
            removal_loss(plant, diag, (0, 1), base=base)

    def test_base_pattern_on_another_grid_rejected(self):
        plant = generate_plant(2, 0)
        diag = SparsityPattern.diagonal(plant.partition)
        base = synthesize_structured_info(plant, diag)
        other = SparsityPattern(diag.mask, BlockPartition((1, 1), (1, 3)))
        with pytest.raises(DimensionMismatch):
            removal_loss(plant, other, (0, 0), base=base)


def entry(beta, gain, mask, partition, polished=None):
    """A sweep entry whose polish is polished, or a record of gain."""
    pattern = SparsityPattern(np.asarray(mask, dtype=bool), partition)
    if polished is None:
        polished = SynthesisInfo(gain=gain, cost=0.0, iterations=0, converged=True)
    return SweepEntry(beta=beta, pattern=pattern, polished=polished)


class TestRankLinks:
    def test_distinct_vanish_steps(self):
        plant = generate_plant(2, 0)
        part = plant.partition
        rng = np.random.default_rng(8)
        gain = GainMatrix(rng.standard_normal((part.m, part.n)), part)
        masks = [
            [[1, 1], [1, 1]],
            [[1, 1], [0, 1]],
            [[1, 0], [0, 1]],
            [[1, 0], [0, 0]],
        ]
        sweep = SweepResult(
            tuple(entry(float(s), gain, m, part) for s, m in enumerate(masks))
        )
        table = rank_links(plant, sweep)
        got = {(r.i, r.j): r.q for r in table.rows}
        assert got == {(1, 0): 1, (0, 1): 2, (1, 1): 3, (0, 0): 4}

    def test_reappearance_counts_last_presence(self):
        plant = generate_plant(2, 0)
        part = plant.partition
        gain = GainMatrix(np.ones((part.m, part.n)), part)
        # (0,1) flickers: present at steps 0 and 2, so it vanishes at step 3
        masks = [
            [[1, 1], [1, 1]],
            [[1, 0], [0, 1]],
            [[1, 1], [0, 0]],
            [[1, 0], [0, 0]],
        ]
        sweep = SweepResult(
            tuple(entry(float(s), gain, m, part) for s, m in enumerate(masks))
        )
        table = rank_links(plant, sweep)
        got = {(r.i, r.j): r.q for r in table.rows}
        assert got == {(1, 0): 1, (1, 1): 2, (0, 1): 3, (0, 0): 4}

    def test_tied_group_ordered_by_removal_loss(self):
        plant = generate_plant(2, 1)
        part = plant.partition
        full = SparsityPattern.full(part)
        info = synthesize_structured_info(plant, full)
        masks = [[[1, 1], [1, 1]], [[0, 0], [0, 0]]]
        sweep = SweepResult(
            (
                entry(1.0, info.gain, masks[0], part, polished=info),
                entry(2.0, info.gain, masks[1], part),
            )
        )
        table = rank_links(plant, sweep)
        losses = {
            blk: removal_loss(plant, full, blk, base=info)
            for blk in full.free_blocks()
        }
        expected = sorted(losses, key=lambda blk: (losses[blk], blk[0], blk[1]))
        got = [(r.i, r.j) for r in table.rows]
        assert got == expected

    def test_table_values_come_from_first_entry(self):
        # The table carries entry 0's polished gain, not the gain of any
        # other entry (such as a sparse iterate on the same schedule).
        plant = generate_plant(2, 0)
        part = plant.partition
        rng = np.random.default_rng(21)
        sparse = GainMatrix(rng.standard_normal((part.m, part.n)), part)
        polished = GainMatrix(rng.standard_normal((part.m, part.n)), part)
        masks = [
            [[1, 1], [1, 1]],
            [[1, 1], [0, 1]],
            [[1, 0], [0, 1]],
            [[1, 0], [0, 0]],
        ]
        first = SynthesisInfo(gain=polished, cost=0.0, iterations=0, converged=True)
        sweep = SweepResult(
            tuple(entry(float(s), sparse, m, part, polished=first if s == 0 else None)
                  for s, m in enumerate(masks))
        )
        table = rank_links(plant, sweep)
        for row in table.rows:
            assert not np.array_equal(polished.block(row.i, row.j), sparse.block(row.i, row.j))
            blk = polished.block(row.i, row.j).ravel()
            assert row.values[: row.size] == tuple(blk)
            assert all(v == 0.0 for v in row.values[row.size :])

    def test_deterministic(self):
        plant = generate_plant(2, 1)
        part = plant.partition
        full = SparsityPattern.full(part)
        info = synthesize_structured_info(plant, full)
        sweep = SweepResult(
            (
                entry(1.0, info.gain, [[1, 1], [1, 1]], part, polished=info),
                entry(2.0, info.gain, [[0, 0], [0, 0]], part),
            )
        )
        assert rank_links(plant, sweep) == rank_links(plant, sweep)

    def test_empty_sweep_raises(self):
        plant = generate_plant(2, 0)
        with pytest.raises(EmptySweep):
            rank_links(plant, SweepResult(()))

    def test_empty_first_pattern_raises(self):
        plant = generate_plant(2, 0)
        part = plant.partition
        gain = GainMatrix(np.zeros((part.m, part.n)), part)
        sweep = SweepResult((entry(1.0, gain, [[0, 0], [0, 0]], part),))
        with pytest.raises(EmptySweep):
            rank_links(plant, sweep)


# Betas small against J(K_c) ~ 0.3 of the generated plants, so the first
# entry keeps most blocks and rank_links has tied groups to order.
LOSS_SCHEDULE = (0.001, 0.01)


def reference_loss(plant, pattern, block, *, base):
    """removal_loss by a warm-started structured synthesis of the reduced
    pattern, with no Newton model."""
    try:
        info = synthesize_structured_info(plant, pattern.without_block(*block), init=base.gain)
    except PatternNotStabilizable:
        return math.inf
    return info.cost - base.cost


def ranked_with(plant, sweep, loss):
    """rank_links with priority.removal_loss replaced by loss; returns the
    block order and the losses it asked for."""
    losses = {}

    def recording(*args, **kwargs):
        losses[args[2]] = loss(*args, **kwargs)
        return losses[args[2]]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(priority, "removal_loss", recording)
        table = rank_links(plant, sweep)
    return [(r.i, r.j) for r in table.rows], losses


def recorded_hessians(monkeypatch):
    """The free masks of the Hessians h2 builds, recorded as they happen."""
    hessians = []
    hessian = h2._ClosedLoop.hessian

    def recording(self, free):
        hessians.append(free.copy())
        return hessian(self, free)

    monkeypatch.setattr(h2._ClosedLoop, "hessian", recording)
    return hessians


class TestNewtonRemovalLoss:
    @pytest.mark.property
    @settings(max_examples=25, deadline=None)
    @given(n_nodes=st.integers(2, 4), seed=st.integers(0, 10_000))
    @example(n_nodes=2, seed=588)  # from x0 alone, block (0, 0) ended 0.14% above
    @example(n_nodes=2, seed=1111)  # and block (1, 1) 0.18% above
    def test_matches_reference_synthesis(self, n_nodes, seed):
        plant = generate_plant(n_nodes, seed)
        sweep = sparsity_sweep(plant, LOSS_SCHEDULE)
        base_cost = sweep.entries[0].cost_polished
        order, losses = ranked_with(plant, sweep, removal_loss)
        ref_order, ref_losses = ranked_with(plant, sweep, reference_loss)
        assert losses.keys() == ref_losses.keys()
        agree = True
        for blk, ref in ref_losses.items():
            if math.isinf(ref):
                assert losses[blk] == ref
                continue
            tol = 1e-9 * (base_cost + ref)
            # The reduced problem can have several local minima, and the
            # Newton start may reach a lower one than the projected start;
            # it must never end higher.
            assert losses[blk] <= ref + tol
            agree = agree and losses[blk] >= ref - tol
        if agree:
            assert order == ref_order

    def test_factors_once_per_loss(self, monkeypatch, factorizations):
        # On this plant every loss takes the Newton model's value at the
        # Optimal Brain Surgeon start, so each factors only that start: the
        # Hessian is built on the closed loop the base gain carries.
        plant = GeneratorSpec(10, 0).plant()
        sweep = sparsity_sweep(plant)
        factorizations.clear()

        def no_fallback(*args, **kwargs):
            raise AssertionError("removal loss fell back to the structured synthesis")

        monkeypatch.setattr(priority, "synthesize_structured_info", no_fallback)
        _, losses = ranked_with(plant, sweep, removal_loss)
        assert len(losses) >= 10
        assert len(factorizations) == len(losses)

    def test_base_without_a_loop_builds_one_model(self, monkeypatch, factorizations):
        # A base gain that carries no closed loop is factored by the first
        # loss and keeps that loop, with the Hessian's factor, for the rest.
        plant = generate_plant(3, 4)
        entry = sparsity_sweep(plant, LOSS_SCHEDULE).entries[0]
        bare = GainMatrix(entry.polished_gain.K.copy(), plant.partition)
        base = dataclasses.replace(entry.polished, gain=bare)
        blocks = entry.pattern.free_blocks()
        factorizations.clear()
        hessians = recorded_hessians(monkeypatch)
        losses = [removal_loss(plant, entry.pattern, blk, base=base) for blk in blocks * 2]
        assert factorizations.count((plant.A - plant.B @ bare.K).tobytes()) == 1
        assert len(hessians) == 1
        assert losses == [removal_loss(plant, entry.pattern, blk, base=entry.polished)
                          for blk in blocks * 2]

    def test_each_base_pattern_has_its_own_model(self, monkeypatch, factorizations):
        # One gain as the base of two patterns: each pattern's free entries
        # get their own Hessian, built once, on the one closed loop of K*.
        plant = generate_plant(3, 4)
        entry = sparsity_sweep(plant, LOSS_SCHEDULE).entries[0]
        kept, dropped = entry.pattern.free_blocks()[:2]
        other = entry.pattern.without_block(*dropped)
        factorizations.clear()
        hessians = recorded_hessians(monkeypatch)
        for pattern in (entry.pattern, other, entry.pattern, other):
            removal_loss(plant, pattern, kept, base=entry.polished)
        assert [int(free.sum()) for free in hessians] == [
            int(p.structural_identity().sum()) for p in (entry.pattern, other)]
        assert factorizations.count((plant.A - plant.B @ entry.polished_gain.K).tobytes()) <= 1

    @pytest.mark.property
    @settings(max_examples=5, deadline=None)
    @given(n_nodes=st.integers(6, 10), seed=st.integers(0, 10_000))
    def test_model_value_is_within_tolerance_of_the_reference(self, n_nodes, seed):
        # the default schedule leaves losses on both sides of _MODEL_TOL
        plant = GeneratorSpec(n_nodes, seed).plant()
        sweep = sparsity_sweep(plant)
        base_cost = sweep.entries[0].cost_polished
        order, losses = ranked_with(plant, sweep, removal_loss)
        ref_order, ref_losses = ranked_with(plant, sweep, reference_loss)
        assert losses.keys() == ref_losses.keys()
        slack = {blk: priority._MODEL_TOL * (base_cost + ref) for blk, ref in ref_losses.items()}
        for blk, ref in ref_losses.items():
            if math.isinf(ref):
                assert losses[blk] == ref
            else:
                # within tau J of the reference, or below it (a lower local
                # minimum, as in test_finds_the_lower_of_two_local_minima)
                assert losses[blk] <= ref + slack[blk]
        close = [blk for blk, ref in ref_losses.items()
                 if math.isfinite(ref) and losses[blk] >= ref - slack[blk]]
        rank, ref_rank = ({blk: q for q, blk in enumerate(o)} for o in (order, ref_order))
        for a in close:
            for b in close:
                if ref_losses[b] - ref_losses[a] > slack[a] + slack[b]:
                    assert (rank[a] < rank[b]) == (ref_rank[a] < ref_rank[b])

    def test_finds_the_lower_of_two_local_minima(self):
        # Removing block (0, 0) here leaves two local minima: the projected
        # warm start descends into the higher one, the Newton start into the
        # lower one, which a cold synthesis of the reduced pattern finds too.
        plant = generate_plant(2, 98)
        base = sparsity_sweep(plant, LOSS_SCHEDULE).entries[0]
        loss = removal_loss(plant, base.pattern, (0, 0), base=base.polished)
        ref = reference_loss(plant, base.pattern, (0, 0), base=base.polished)
        cold = synthesize_structured_info(plant, base.pattern.without_block(0, 0)).cost
        assert loss < ref - 1e-3
        assert loss + base.cost_polished == pytest.approx(cold, rel=1e-9)

    @pytest.mark.parametrize("failure", ["indefinite_hessian", "singular_block", "unstable_start"])
    def test_fallback_gives_reference_loss(self, monkeypatch, failure):
        if failure == "indefinite_hessian":
            monkeypatch.setattr(h2._ClosedLoop, "hessian",
                                lambda self, free: -np.eye(int(np.count_nonzero(free))))
        elif failure == "singular_block":
            potrf = priority.dpotrf

            def singular(a, **kwargs):
                # H is factored with overwrite_a, H^-1_bb without it
                c, info = potrf(a, **kwargs)
                return (c, info) if "overwrite_a" in kwargs else (c, 1)

            monkeypatch.setattr(priority, "dpotrf", singular)
        elif failure == "unstable_start":
            loop = priority._ClosedLoop

            def unstable(plant, k):
                # K - 1e3 B^T adds 1e3 B B^T to A - B K, a large positive
                # eigenvalue, so the start is not stabilizing
                return loop(plant, k - 1e3 * plant.B.T)

            monkeypatch.setattr(priority, "_ClosedLoop", unstable)
        inits = []

        def counting(*args, init, **kwargs):
            inits.append(init)
            return synthesize_structured_info(*args, init=init, **kwargs)

        monkeypatch.setattr(priority, "synthesize_structured_info", counting)
        plant = generate_plant(3, 4)
        sweep = sparsity_sweep(plant, LOSS_SCHEDULE)
        base = sweep.entries[0]
        order, losses = ranked_with(plant, sweep, removal_loss)
        # with no Newton start at hand, every loss starts at K*
        assert len(inits) == len(losses) >= 2
        assert all(init is base.polished.gain for init in inits)
        for blk, loss in losses.items():
            assert loss == reference_loss(plant, base.pattern, blk, base=base.polished)
        assert order == ranked_with(plant, sweep, reference_loss)[0]

    def test_reduced_polish_that_gives_up_raises(self, monkeypatch):
        # With the model tolerance below every predicted decrease, each loss
        # is a synthesis of the reduced pattern from the Newton start x0; a
        # polish allowed no step there gives up, and removal_loss raises
        # the polish's typed error instead of retrying from K*.
        from sparselink import MaxIterations, structured

        plant = generate_plant(3, 4)
        base = sparsity_sweep(plant, LOSS_SCHEDULE).entries[0]
        inits = []

        def recording(*args, init, **kwargs):
            inits.append(init)
            return synthesize_structured_info(*args, init=init, **kwargs)

        monkeypatch.setattr(priority, "_MODEL_TOL", -1.0)
        monkeypatch.setattr(priority, "synthesize_structured_info", recording)
        monkeypatch.setattr(structured, "_POLISH_MAX_ITER", 0)
        block = base.pattern.free_blocks()[0]
        with pytest.raises(MaxIterations):
            removal_loss(plant, base.pattern, block, base=base.polished)
        [init] = inits
        assert init is not base.polished.gain
        assert not np.any(init.block(*block))
