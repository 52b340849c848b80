"""Rerouting countermeasures: golden cases, branch coverage, set algebra."""
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import EX2_ROWS, assert_reroute_invariants, make_table
from sparselink import (
    BlockPartition,
    DimensionMismatch,
    IndexOutOfRange,
    InfeasibleOutcome,
    InvalidAssumption,
    PriorityTable,
    dumps_canonical,
    outcome_to_doc,
    parse_pattern,
    pattern_from,
    render_pattern,
    reroute_multi,
    reroute_single,
    reroute_uniform,
    select_reroute,
)


class TestGoldenExampleOne:
    def test_sets(self, ex1_table):
        out = reroute_uniform(ex1_table, {3, 7, 8})
        assert out.feasible
        assert out.attacked == frozenset({3, 7, 8})
        assert out.sacrificed == frozenset({1, 2})
        assert out.rerouted == frozenset({7, 8})
        assert out.dropped == frozenset({3})

    def test_final_table_rows(self, ex1_table):
        out = reroute_uniform(ex1_table, {3, 7, 8})
        for q in (1, 2, 3):
            assert out.table.is_zero_row(q)
            row = out.table.row(q)
            assert row.values == (0.0, 0.0)
            # block coordinates survive the zeroing
            src = ex1_table.row(q)
            assert (row.i, row.j, row.size) == (src.i, src.j, src.size)
        for q in (4, 5, 6, 7, 8, 9):
            assert out.table.row(q) == ex1_table.row(q)

    def test_post_attack_pattern(self, ex1_table, ex1_partition):
        out = reroute_uniform(ex1_table, {3, 7, 8})
        pattern = pattern_from(out, ex1_partition)
        expected = {(2, 1), (3, 1), (0, 2), (0, 3), (1, 3), (3, 3)}
        assert set(pattern.free_blocks()) == expected
        assert pattern.n_free == 6


class TestGoldenExampleTwo:
    def test_single_procedure(self, ex2_table):
        out = reroute_single(ex2_table, 5)
        assert out.feasible
        assert out.attacked == frozenset({5})
        assert out.sacrificed == frozenset({1, 2})
        assert out.rerouted == frozenset({5})
        assert out.dropped == frozenset()
        assert out.table.is_zero_row(1)
        assert out.table.is_zero_row(2)
        for q in (3, 4, 5, 6):
            assert out.table.row(q) == ex2_table.row(q)

    def test_post_attack_pattern(self, ex2_table, ex2_partition):
        out = reroute_single(ex2_table, 5)
        pattern = pattern_from(out, ex2_partition)
        expected = {(3, 0), (0, 1), (1, 2), (2, 3)}
        assert set(pattern.free_blocks()) == expected


class TestUniform:
    def test_no_attack_identity_and_idempotent(self, ex1_table):
        out = reroute_uniform(ex1_table, set())
        assert out.feasible
        assert out.table == ex1_table
        assert out.attacked == out.sacrificed == out.rerouted == frozenset()
        again = reroute_uniform(out.table, set())
        assert again.table == ex1_table

    def test_too_many_attacked_infeasible(self):
        table = make_table((2, 2, 2, 2))
        out = reroute_uniform(table, {1, 2, 3})
        assert not out.feasible
        assert out.attacked == frozenset({1, 2, 3})
        assert out.sacrificed == out.rerouted == out.dropped == frozenset()
        assert out.table == table

    def test_half_exactly_is_feasible(self):
        table = make_table((2, 2, 2, 2))
        out = reroute_uniform(table, {3, 4})
        assert out.feasible
        assert out.sacrificed == frozenset({1, 2})
        assert out.rerouted == frozenset({3, 4})

    def test_low_priority_attack_dropped(self):
        # the attacked link is the least important: nothing below to sacrifice
        table = make_table((2, 2, 2, 2))
        out = reroute_uniform(table, {1})
        assert out.feasible
        assert out.dropped == frozenset({1})
        assert out.sacrificed == frozenset()

    def test_mixed_sizes_rejected(self, ex2_table):
        with pytest.raises(InvalidAssumption):
            reroute_uniform(ex2_table, {5})

    def test_out_of_range_priority(self, ex1_table):
        with pytest.raises(IndexOutOfRange):
            reroute_uniform(ex1_table, {0})
        with pytest.raises(IndexOutOfRange):
            reroute_uniform(ex1_table, {10})


class TestSingle:
    def test_lowest_priority_dropped(self):
        table = make_table((2, 4))
        out = reroute_single(table, 1)
        assert out.dropped == frozenset({1})
        assert out.sacrificed == frozenset()
        assert out.table.is_zero_row(1)

    def test_over_provisioned_host(self):
        # host q=1 carries 4 units for a 2-unit attacked link; the whole
        # host row is sacrificed anyway
        table = make_table((4, 2))
        out = reroute_single(table, 2)
        assert out.sacrificed == frozenset({1})
        assert out.rerouted == frozenset({2})
        assert out.dropped == frozenset()

    def test_capacity_shortfall_drops(self):
        table = make_table((2, 4))
        out = reroute_single(table, 2)
        assert out.feasible
        assert out.dropped == frozenset({2})
        assert out.sacrificed == frozenset()
        assert out.table.is_zero_row(2)
        assert not out.table.is_zero_row(1)

    def test_minimal_host_set(self):
        # q=4 needs 4 units: hosts 1 (2) and 2 (2) suffice, q=3 untouched
        table = make_table((2, 2, 2, 4))
        out = reroute_single(table, 4)
        assert out.sacrificed == frozenset({1, 2})
        assert out.rerouted == frozenset({4})
        assert not out.table.is_zero_row(3)

    def test_out_of_range(self):
        table = make_table((2, 2))
        with pytest.raises(IndexOutOfRange):
            reroute_single(table, 3)
        with pytest.raises(IndexOutOfRange):
            reroute_single(table, 0)


class TestMulti:
    def test_no_attack_identity(self, ex2_table):
        out = reroute_multi(ex2_table, set())
        assert out.feasible
        assert out.table == ex2_table

    def test_no_lower_capacity_with_many_attacked_infeasible(self):
        # attacked = {1, 2} on sizes (2, 2, 4): everything below the top
        # attacked priority is itself attacked and half the table is gone
        table = make_table((2, 2, 4))
        out = reroute_multi(table, {1, 2})
        assert not out.feasible
        assert out.table == table

    def test_lowest_rows_dropped_when_no_capacity(self):
        table = make_table((2, 2, 2, 2, 2))
        out = reroute_multi(table, {1, 2})
        assert out.feasible
        assert out.dropped == frozenset({1, 2})
        assert out.sacrificed == frozenset()
        assert out.rerouted == frozenset()
        assert out.table.is_zero_row(1)
        assert out.table.is_zero_row(2)

    def test_hosts_not_reused_excess_dropped(self):
        # q=5 grabs hosts 1 and 2; q=4 then sees only q=3 (2 units < 4)
        table = make_table((2, 2, 2, 4, 4))
        out = reroute_multi(table, {4, 5})
        assert out.feasible
        assert out.sacrificed == frozenset({1, 2})
        assert out.rerouted == frozenset({5})
        assert out.dropped == frozenset({4})

    def test_out_of_range(self):
        table = make_table((2, 2, 2))
        with pytest.raises(IndexOutOfRange):
            reroute_multi(table, {4})


class TestOutcomeRules:
    @pytest.mark.parametrize("change", [
        dict(attacked=frozenset({2, 9}), rerouted=frozenset({2, 9})),  # priority outside 1..r1
        dict(attacked=frozenset({1, 2}), rerouted=frozenset({1, 2})),  # attacked link sacrificed
        # rerouted and dropped
        dict(dropped=frozenset({2}), table=make_table((1, 1, 1, 1)).with_zeroed_rows({1, 2})),
        dict(attacked=frozenset({2, 3})),  # attacked 3 neither rerouted nor dropped
        dict(feasible=False),  # infeasible, yet sacrifices and reroutes
        dict(table=make_table((1, 1, 1, 1))),  # sacrificed row 1 not zeroed
    ])
    def test_impossible_outcome_rejected(self, change):
        out = reroute_uniform(make_table((1, 1, 1, 1)), {2})
        assert (out.sacrificed, out.rerouted) == (frozenset({1}), frozenset({2}))
        with pytest.raises(InvalidAssumption):
            dataclasses.replace(out, **change)


class TestPatternFrom:
    def test_infeasible_outcome_rejected(self):
        table = make_table((2, 2, 2, 2))
        out = reroute_uniform(table, {1, 2, 3})
        part = BlockPartition((1, 1, 1, 1), (2, 2, 2, 2))
        with pytest.raises(InfeasibleOutcome):
            pattern_from(out, part)

    def test_partition_mismatch(self, ex1_table):
        out = reroute_uniform(ex1_table, {3, 7, 8})
        wrong = BlockPartition((1, 1, 1, 1), (2, 4, 4, 4))
        with pytest.raises(DimensionMismatch):
            pattern_from(out, wrong)

    def test_no_attack_pattern_unchanged(self, ex1_table, ex1_partition):
        out = reroute_uniform(ex1_table, set())
        pattern = pattern_from(out, ex1_partition)
        assert set(pattern.free_blocks()) == {(r.i, r.j) for r in ex1_table.rows}


class TestFuzzInvariants:
    @pytest.mark.parametrize("seed", range(20))
    def test_uniform_set_algebra(self, seed):
        rng = np.random.default_rng(seed)
        r1 = int(rng.integers(4, 13))
        table = make_table((2,) * r1)
        n_hit = int(rng.integers(0, r1 + 1))
        attacked = set(int(q) for q in rng.choice(r1, size=n_hit, replace=False) + 1)
        out = reroute_uniform(table, attacked)
        assert out.attacked == frozenset(attacked)
        if not out.feasible:
            assert len(attacked) > r1 / 2
            assert out.table == table
            return
        assert out.rerouted | out.dropped == out.attacked
        assert out.rerouted & out.dropped == frozenset()
        assert out.sacrificed & out.attacked == frozenset()
        assert len(out.sacrificed) == len(out.rerouted)
        for q in range(1, r1 + 1):
            zero = out.table.is_zero_row(q)
            assert zero == (q in (out.sacrificed | out.dropped))
        # pairing respects priority: j-th highest rerouted rides the
        # j-th lowest sacrificed host, which must rank strictly lower
        for host, a in zip(sorted(out.sacrificed), sorted(out.rerouted, reverse=True)):
            assert host < a
        part = BlockPartition((1,) * r1, (2,) * r1)
        pattern = pattern_from(out, part)
        before = {(r.i, r.j) for r in table.rows}
        assert set(pattern.free_blocks()) <= before

    @pytest.mark.parametrize("seed", range(20))
    def test_multi_set_algebra(self, seed):
        rng = np.random.default_rng(100 + seed)
        r1 = int(rng.integers(4, 11))
        sizes = tuple(int(s) for s in rng.choice([2, 4], size=r1))
        table = make_table(sizes)
        n_hit = int(rng.integers(1, max(2, r1 // 2)))
        attacked = set(int(q) for q in rng.choice(r1, size=n_hit, replace=False) + 1)
        out = reroute_multi(table, attacked)
        assert out.attacked == frozenset(attacked)
        if not out.feasible:
            assert out.table == table
            return
        assert out.rerouted | out.dropped == out.attacked
        assert out.rerouted & out.dropped == frozenset()
        assert out.sacrificed & out.attacked == frozenset()
        # capacity conservation over the whole countermeasure
        cap = sum(sizes[q - 1] for q in out.sacrificed)
        need = sum(sizes[q - 1] for q in out.rerouted)
        assert cap >= need
        for q in range(1, r1 + 1):
            assert out.table.is_zero_row(q) == (q in (out.sacrificed | out.dropped))
        if out.rerouted:
            assert max(out.sacrificed) < max(out.rerouted)

    def test_determinism(self, ex1_table):
        a = reroute_uniform(ex1_table, {3, 7, 8})
        b = reroute_uniform(ex1_table, {3, 7, 8})
        assert a == b


@st.composite
def tables(draw, uniform):
    """Tables of 1..12 links of 1..4 units; every row has non-zero values."""
    r1 = draw(st.integers(1, 12))
    if uniform:
        sizes = (draw(st.integers(1, 4)),) * r1
    else:
        sizes = tuple(draw(st.lists(st.integers(1, 4), min_size=r1, max_size=r1)))
    return make_table(sizes)


@st.composite
def attacked_tables(draw):
    """A uniform or mixed-size table and a set of its priorities."""
    table = draw(tables(uniform=draw(st.booleans())))
    return table, draw(st.sets(st.integers(1, table.r1)))


class TestRerouteProperties:
    @settings(max_examples=300, deadline=None)
    @example(case=(PriorityTable(EX2_ROWS), {5}))
    @given(attacked_tables())
    def test_procedures_agree(self, case):
        # One serving rule is behind all three procedures, so they agree
        # wherever no screen tells them apart: multi's screen never fires on
        # one attacked link of r1 >= 3, and on a uniform table the screens
        # first differ at exactly half the table attacked.
        table, attacked = case
        if table.r1 >= 3:
            for q in range(1, table.r1 + 1):
                assert reroute_single(table, q) == reroute_multi(table, {q})
        if len(set(table.sizes())) == 1 and len(attacked) < table.r1 / 2:
            assert reroute_uniform(table, attacked) == reroute_multi(table, attacked)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_one_priority_rule(self, data):
        # Every procedure and select_reroute take an attacked priority by
        # one rule: an integer, NumPy's included and stored as int, in
        # 1..r1. A bool, a float or a string is rejected, never converted.
        table = data.draw(tables(uniform=data.draw(st.booleans())))
        q = data.draw(st.integers(1, table.r1))
        bad = data.draw(st.one_of(
            st.sampled_from([True, False, np.True_, float(q), q + 0.5, str(q)]),
            st.floats(),
            st.text(max_size=3),
        ))
        procedures = [select_reroute, reroute_multi, lambda t, a: reroute_single(t, *a)]
        if len(set(table.sizes())) == 1:
            procedures.append(reroute_uniform)
        for procedure in procedures:
            with pytest.raises(InvalidAssumption):
                procedure(table, {bad})
            out = procedure(table, {np.int64(q)})
            assert out == procedure(table, {q})
            assert all(type(p) is int for p in out.attacked | out.rerouted | out.dropped)
            dumps_canonical(outcome_to_doc(out))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_uniform(self, data):
        table = data.draw(tables(uniform=True))
        attacked = data.draw(st.sets(st.integers(1, table.r1)))
        assert_reroute_invariants(table, attacked, reroute_uniform(table, attacked))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_single(self, data):
        table = data.draw(tables(uniform=False))
        r_attack = data.draw(st.integers(1, table.r1))
        assert_reroute_invariants(table, {r_attack}, reroute_single(table, r_attack))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_multi(self, data):
        table = data.draw(tables(uniform=False))
        attacked = data.draw(st.sets(st.integers(1, table.r1)))
        assert_reroute_invariants(table, attacked, reroute_multi(table, attacked))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_render_parse_round_trip(self, data):
        # the rendered post-attack grid parses back to pattern_from's pattern
        table = data.draw(tables(uniform=data.draw(st.booleans())))
        part = BlockPartition((1,) * table.r1, table.sizes())
        attacked = data.draw(st.sets(st.integers(1, table.r1)))
        outcomes = [reroute_multi(table, attacked)]
        outcomes += [reroute_single(table, q) for q in sorted(attacked)]
        if len(set(table.sizes())) == 1:
            outcomes.append(reroute_uniform(table, attacked))
        for out in outcomes:
            if out.feasible:
                text = render_pattern(table, outcome=out, partition=part)
                assert np.array_equal(
                    parse_pattern(text, part).mask, pattern_from(out, part).mask
                )
