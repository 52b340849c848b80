"""Acceptance gate: one test per criterion, at the stated tolerance and
runtime budget. Run with -v to get one pass/fail line per criterion."""
import json
import math
import time

import numpy as np
import pytest
from scipy.linalg import block_diag, solve_continuous_are

from conftest import (
    fd_gradient,
    lyapunov_kron,
    make_table,
    perturbed_gain,
    random_psd,
    random_stable_matrix,
)
from sparselink import (
    BlockPartition,
    GeneratorSpec,
    LtiPlant,
    Scenario,
    SparsityPattern,
    augmented_lagrangian,
    closed_loop_cost,
    cost_gradient,
    dumps_canonical,
    generate_plant,
    is_stabilizing,
    lqr_centralized,
    outcome_from_doc,
    outcome_to_doc,
    plant_from_doc,
    plant_to_doc,
    render_pattern,
    reroute_multi,
    reroute_uniform,
    run_pipeline,
    solve_lyapunov,
    sparsity_sweep,
    synthesize_structured_info,
    table_from_doc,
    table_to_doc,
    write_artifacts,
)
from sparselink.h2 import _ClosedLoop
from sparselink.render import CHAR_ATTACKED, CHAR_REROUTED, CHAR_SACRIFICED
from sparselink.structured import _AugLagEval


def best_time(fn, repeats=3):
    best = math.inf
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return out, best


def test_criterion_01_golden_example_one(ex1_table):
    reroute_uniform(ex1_table, {3, 7, 8})  # warm-up
    out, elapsed = best_time(lambda: reroute_uniform(ex1_table, {3, 7, 8}))
    assert out.feasible
    assert out.rerouted == frozenset({7, 8})
    assert out.dropped == frozenset({3})
    assert out.sacrificed == frozenset({1, 2})
    for q in (1, 2, 3):
        assert out.table.row(q).values == (0.0, 0.0)
    expected = {
        4: (5.0, 1.0),
        5: (6.0, 8.0),
        6: (7.0, 9.0),
        7: (3.0, 2.0),
        8: (1.0, 2.0),
        9: (5.0, 3.0),
    }
    for q, values in expected.items():
        assert out.table.row(q).values == values
    assert elapsed < 1e-3


def test_criterion_02_golden_example_two(ex2_table):
    reroute_multi(ex2_table, {5})  # warm-up
    out, elapsed = best_time(lambda: reroute_multi(ex2_table, {5}))
    assert out.feasible
    assert out.rerouted == frozenset({5})
    assert out.sacrificed == frozenset({1, 2})
    assert out.dropped == frozenset()
    for q in (1, 2):
        assert out.table.row(q).values == (0.0, 0.0, 0.0, 0.0)
    for q in (3, 4, 5, 6):
        assert out.table.row(q) == ex2_table.row(q)
    assert elapsed < 1e-3


def test_criterion_03_lyapunov_and_scalar_lqr():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1003)
    for _ in range(50):
        n = int(rng.integers(2, 21))
        a = random_stable_matrix(rng, n)
        q_hat = random_psd(rng, n) + 1e-3 * np.eye(n)
        p = solve_lyapunov(a, q_hat)
        residual = np.linalg.norm(a.T @ p + p @ a + q_hat)
        assert residual <= 1e-8 * (1.0 + np.linalg.norm(q_hat))
        oracle = lyapunov_kron(a, q_hat)
        assert np.linalg.norm(p - oracle) <= 1e-10 * (1.0 + np.linalg.norm(oracle))

    part = BlockPartition((1,), (1,))
    ones = np.eye(1)
    # a=0: P* solves -P^2 + 1 = 0, so P* = 1 and K* = 1
    plant = LtiPlant(np.zeros((1, 1)), ones, ones, ones, ones, part)
    k = lqr_centralized(plant)
    assert abs(k.K[0, 0] - 1.0) <= 1e-10
    # a=1: P* solves 2P - P^2 + 1 = 0, so P* = 1 + sqrt(2) = K*
    plant = LtiPlant(ones, ones, ones, ones, ones, part)
    k = lqr_centralized(plant)
    assert abs(k.K[0, 0] - (1.0 + math.sqrt(2.0))) <= 1e-10
    assert time.perf_counter() - t0 < 5.0


def test_criterion_04_gradient_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1004)
    for trial in range(20):
        n_nodes = int(rng.integers(2, 5))  # 4 to 8 states
        plant = generate_plant(n_nodes, 2000 + trial)
        gain = perturbed_gain(rng, plant, lqr_centralized(plant).K, scale=0.1)

        g = cost_gradient(plant, gain)
        fd = fd_gradient(lambda kk: closed_loop_cost(plant, kk), gain.K, step=1e-5)
        assert np.linalg.norm(g - fd) <= 1e-4 * (1.0 + np.linalg.norm(fd))

        mask = np.eye(n_nodes, dtype=bool) | (
            rng.uniform(size=(n_nodes, n_nodes)) < 0.4
        )
        pattern = SparsityPattern(mask, plant.partition)
        lam = rng.standard_normal((plant.m, plant.n))
        gamma = float(rng.uniform(0.5, 8.0))
        g_al = _AugLagEval(
            _ClosedLoop(plant, gain.K), lam, gamma, pattern.complement_identity()
        ).gradient()
        fd_al = fd_gradient(
            lambda kk: augmented_lagrangian(plant, kk, lam, gamma, pattern),
            gain.K,
            step=1e-5,
        )
        assert np.linalg.norm(g_al - fd_al) <= 1e-4 * (1.0 + np.linalg.norm(fd_al))
    assert time.perf_counter() - t0 < 10.0


def test_criterion_05_nested_pattern_monotonicity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1005)
    for trial in range(20):
        n_nodes = int(rng.integers(3, 6))  # 6 to 10 states
        plant = generate_plant(n_nodes, 3000 + trial)
        big = np.eye(n_nodes, dtype=bool) | (
            rng.uniform(size=(n_nodes, n_nodes)) < 0.7
        )
        small = big & (rng.uniform(size=(n_nodes, n_nodes)) < 0.55)
        s2 = SparsityPattern(big, plant.partition)
        s1 = SparsityPattern(small, plant.partition)
        assert s1.is_subset(s2)
        j1 = synthesize_structured_info(plant, s1).cost
        j2 = synthesize_structured_info(plant, s2).cost
        assert j1 >= j2 - 1e-6
    assert time.perf_counter() - t0 < 120.0


def test_criterion_06_structured_convergence():
    rng = np.random.default_rng(1006)
    # random patterns: exact zeros, stabilizing, structured stationarity
    for trial in range(6):
        n_nodes = int(rng.integers(2, 5))
        plant = generate_plant(n_nodes, 4000 + trial)
        mask = np.eye(n_nodes, dtype=bool) | (
            rng.uniform(size=(n_nodes, n_nodes)) < 0.5
        )
        pattern = SparsityPattern(mask, plant.partition)
        info = synthesize_structured_info(plant, pattern)
        k = info.gain
        assert float(np.linalg.norm(k.K * pattern.complement_identity())) == 0.0
        assert is_stabilizing(plant, k)
        masked_grad = cost_gradient(plant, k) * pattern.structural_identity()
        assert np.linalg.norm(masked_grad) <= 1e-5 * (1.0 + np.linalg.norm(k.K))

    # full pattern reduces to the centralized LQR gain
    plant = generate_plant(3, 4100)
    kc = lqr_centralized(plant)
    k_full = synthesize_structured_info(plant, SparsityPattern.full(plant.partition))
    assert np.linalg.norm(k_full.gain.K - kc.K) <= 1e-5 * (1.0 + np.linalg.norm(kc.K))

    # decoupled plant with a block-diagonal pattern matches per-subsystem AREs
    blocks_a, blocks_b, gains = [], [], []
    for idx in range(3):
        sub_rng = np.random.default_rng(4200 + idx)
        a_i = sub_rng.uniform(-1.0, 1.0, size=(2, 2))
        b_i = np.array([[10.0], [sub_rng.uniform(0.5, 1.5)]])
        p_i = solve_continuous_are(a_i, b_i, np.eye(2), 10.0 * np.eye(1))
        gains.append(np.linalg.solve(10.0 * np.eye(1), b_i.T @ p_i))
        blocks_a.append(a_i)
        blocks_b.append(b_i)
    part = BlockPartition((1, 1, 1), (2, 2, 2))
    plant = LtiPlant(
        block_diag(*blocks_a),
        block_diag(*blocks_b),
        0.5 * np.eye(6),
        np.eye(6),
        10.0 * np.eye(3),
        part,
    )
    expected = block_diag(*gains)
    k_diag = synthesize_structured_info(plant, SparsityPattern.diagonal(part))
    assert np.linalg.norm(k_diag.gain.K - expected) <= 1e-5 * (
        1.0 + np.linalg.norm(expected)
    )


def test_criterion_07_sweep_monotonicity():
    t0 = time.perf_counter()
    total_pairs = 0
    non_increasing = 0
    for seed in range(10):
        plant = generate_plant(10, seed)
        entries = sparsity_sweep(plant).entries
        assert len(entries) == 30
        nnz = [e.nnz_blocks for e in entries]
        costs = [e.cost_polished for e in entries]
        for a, b in zip(nnz, nnz[1:]):
            total_pairs += 1
            non_increasing += b <= a
        for c_lo, c_hi in zip(costs, costs[1:]):
            assert c_hi >= c_lo - 1e-6
    assert non_increasing >= 0.9 * total_pairs
    assert time.perf_counter() - t0 < 600.0


def test_criterion_08_attack_cost_ordering():
    t0 = time.perf_counter()
    feasible = 0
    finite_attack = 0
    reroute_not_worse = 0
    for seed in range(20):
        scenario = Scenario(
            name=f"s{seed}",
            generator=GeneratorSpec(10, seed),
            attack={"top_fraction": 0.25},
        )
        rep = run_pipeline(scenario).report
        if rep.feasible:
            feasible += 1
            assert rep.j_before <= rep.j_reroute + 1e-9
        if math.isfinite(rep.j_attack):
            finite_attack += 1
            if rep.j_reroute is not None and rep.j_reroute <= rep.j_attack:
                reroute_not_worse += 1
    assert feasible >= 1
    assert finite_attack >= 1
    assert reroute_not_worse >= 0.8 * finite_attack
    assert time.perf_counter() - t0 < 900.0


def test_criterion_09_structural_reproduction():
    t0 = time.perf_counter()
    for n_blocks, unit, n_attacked, max_hosts in ((50, 4, 22, 28), (100, 2, 48, 52)):
        table = make_table((unit,) * n_blocks)
        attacked = set(range(n_blocks - n_attacked + 1, n_blocks + 1))
        out = reroute_uniform(table, attacked)
        assert out.feasible
        assert out.rerouted == frozenset(attacked)
        assert out.dropped == frozenset()
        assert len(out.sacrificed) <= max_hosts
        # conservation: sacrificed capacity covers every rerouted unit
        cap = sum(table.row(q).size for q in out.sacrificed)
        need = sum(table.row(q).size for q in out.rerouted)
        assert cap >= need
        # the rendered grids tell the same story
        pre = render_pattern(table, attacked=attacked)
        post = render_pattern(table, outcome=out)
        assert pre.count(CHAR_ATTACKED) == n_attacked
        assert post.count(CHAR_REROUTED) == n_attacked
        assert post.count(CHAR_ATTACKED) == 0
        assert post.count(CHAR_SACRIFICED) == len(out.sacrificed)
        assert unit * post.count(CHAR_SACRIFICED) >= unit * post.count(CHAR_REROUTED)
    assert time.perf_counter() - t0 < 60.0


def test_criterion_10_determinism_and_round_trip(tmp_path, ex1_table):
    def scenario():
        return Scenario(
            name="det",
            generator=GeneratorSpec(3, 0),
            attack={"attacked_top": 1},
        )

    res_a = run_pipeline(scenario())
    res_b = run_pipeline(scenario())
    assert res_a.report == res_b.report  # bitwise float equality
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    write_artifacts(res_a, dir_a)
    write_artifacts(res_b, dir_b)
    names = sorted(p.name for p in dir_a.iterdir())
    assert names == sorted(p.name for p in dir_b.iterdir())
    for name in names:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    plant = res_a.plant
    plant_back = plant_from_doc(json.loads(dumps_canonical(plant_to_doc(plant))))
    for field in ("A", "B", "W", "Q", "R"):
        assert np.array_equal(getattr(plant_back, field), getattr(plant, field))
    assert table_from_doc(json.loads(dumps_canonical(table_to_doc(ex1_table)))) == ex1_table
    outcome = reroute_uniform(ex1_table, {3, 7, 8})
    assert outcome_from_doc(json.loads(dumps_canonical(outcome_to_doc(outcome)))) == outcome
