"""Scenario driver: plant generation, pipeline, reports, artifacts, CLI."""
import collections
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sparselink
from sparselink import (
    BlockPartition,
    CostReport,
    GeneratorSpec,
    IndexOutOfRange,
    InvalidAssumption,
    LineSearchFailure,
    LostStabilizability,
    LtiPlant,
    MaxIterations,
    RiccatiFailure,
    Scenario,
    SingularSolve,
    attack_from_doc,
    closed_loop_cost,
    dumps_canonical,
    generate_plant,
    load_scenario,
    lqr_centralized,
    outcome_from_doc,
    parse_pattern,
    plant_from_doc,
    plant_to_doc,
    report_csv,
    report_to_doc,
    reroute_multi,
    reroute_single,
    reroute_uniform,
    run_pipeline,
    scenario_from_doc,
    select_reroute,
    table_from_doc,
    write_artifacts,
    write_json,
)
from sparselink import cli, h2
from sparselink import scenario as scenario_module
from sparselink.cli import main

from conftest import assert_reroute_invariants, make_table, plants


FAST_SCHEDULE = (0.05, 0.5)  # with the one_reweight fixture


def fast_scenario(attack, seed=0, name="t"):
    return Scenario(
        name=name,
        generator=GeneratorSpec(3, seed),
        beta_schedule=FAST_SCHEDULE,
        attack=attack,
    )


class TestGeneratePlant:
    def test_dimensions(self):
        plant = generate_plant(10, 0)
        assert plant.A.shape == (20, 20)
        assert plant.B.shape == (20, 10)
        assert plant.partition.row_sizes == (1,) * 10
        assert plant.partition.col_sizes == (2,) * 10

    def test_dominant_eigenvalue_placed(self):
        for seed in range(4):
            plant = generate_plant(5, seed, delta=0.1)
            top = float(np.max(np.linalg.eigvals(plant.A).real))
            assert abs(top + 0.1) <= 1e-10

    def test_delta_override(self):
        plant = generate_plant(4, 1, delta=0.7)
        top = float(np.max(np.linalg.eigvals(plant.A).real))
        assert abs(top + 0.7) <= 1e-10

    def test_fixed_weights_and_input_structure(self):
        plant = generate_plant(3, 2)
        assert np.array_equal(plant.W, 0.5 * np.eye(6))
        assert np.array_equal(plant.Q, np.eye(6))
        assert np.array_equal(plant.R, 10.0 * np.eye(3))
        expected_b = np.zeros((6, 3))
        for node in range(3):
            expected_b[2 * node, node] = 10.0
        assert np.array_equal(plant.B, expected_b)

    def test_wide_nodes(self):
        plant = generate_plant(2, 0, node_state=3, node_input=2)
        assert plant.A.shape == (6, 6)
        assert plant.B.shape == (6, 4)
        block = plant.B[0:3, 0:2]
        assert np.array_equal(block, np.array([[10.0, 0.0], [0.0, 10.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("n_nodes, node_state, node_input", [(2, 2, 1), (5, 3, 2), (4, 1, 3), (3, 2, 2)])
    def test_input_matrix_is_the_per_node_block(self, n_nodes, node_state, node_input):
        plant = generate_plant(n_nodes, 0, node_state=node_state, node_input=node_input)
        expected = np.zeros((n_nodes * node_state, n_nodes * node_input))
        for node in range(n_nodes):
            for k in range(min(node_state, node_input)):
                expected[node * node_state + k, node * node_input + k] = 10.0
        assert plant.B.tobytes() == expected.tobytes()

    def test_deterministic(self):
        a = generate_plant(4, 9)
        b = generate_plant(4, 9)
        assert np.array_equal(a.A, b.A)
        assert np.array_equal(a.B, b.B)
        c = generate_plant(4, 10)
        assert not np.array_equal(a.A, c.A)

    def test_validation(self):
        with pytest.raises(InvalidAssumption):
            generate_plant(1, 0)
        with pytest.raises(InvalidAssumption):
            generate_plant(3, 0, delta=0.0)
        with pytest.raises(InvalidAssumption):
            generate_plant(3, 0, node_state=0)
        with pytest.raises(InvalidAssumption):
            GeneratorSpec(3, 0, node_input=0)
        for delta in (math.inf, math.nan):  # not A's fault, which an infinite shift would make it
            with pytest.raises(InvalidAssumption, match="delta"):
                GeneratorSpec(3, 0, delta=delta)

    def test_infinite_delta_exit_four(self, tmp_path, capsys):
        scenario = tmp_path / "s.json"
        scenario.write_text('{"plant": {"generator": {"n_nodes": 2, "seed": 0, "delta": Infinity}}}',
                            encoding="utf-8")
        assert main(["run", "--scenario", str(scenario)]) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("input error: generator needs a finite delta")
        assert "Warning" not in captured.err

    def test_size_limit_is_checked_before_any_allocation(self, monkeypatch):
        def no_draw(seed):
            raise AssertionError("drew a plant past the size limit")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        GeneratorSpec(scenario_module._MAX_DIM // 2, 0)  # n at the limit: constructs
        for spec in ((scenario_module._MAX_DIM // 2 + 1, 0), (10**30, 0), (2, 0, 0.1, 10**30),
                     (2, 0, 0.1, 1, scenario_module._MAX_DIM)):
            with pytest.raises(InvalidAssumption, match="at most"):
                GeneratorSpec(*spec).plant()

    @pytest.mark.parametrize("argv", [
        ["run", "--scenario", "big.json"],
        ["gen", "--n-nodes", str(10**30), "--seed", "0"],
        ["gen", "--n-nodes", "2", "--seed", "0", "--node-state", str(10**30)],
    ])
    def test_size_limit_exit_four(self, tmp_path, capsys, monkeypatch, argv):
        (tmp_path / "big.json").write_text(json.dumps({"plant": {"generator": {"n_nodes": 10**30, "seed": 0}}}),
                                           encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.err == f"input error: generated plant dimensions n and m must be at most {scenario_module._MAX_DIM}\n"


class TestScenarioDoc:
    def test_generator_form(self):
        doc = {
            "name": "demo",
            "plant": {"generator": {"n_nodes": 3, "seed": 5, "delta": 0.2}},
            "attack": {"attacked_top": 1},
        }
        scn = scenario_from_doc(doc)
        assert scn.name == "demo"
        assert scn.generator == GeneratorSpec(3, 5, 0.2)
        assert scn.attack == {"attacked_top": 1}
        plant = scn.resolve_plant()
        assert np.array_equal(plant.A, generate_plant(3, 5, 0.2).A)

    def test_seed_override(self):
        doc = {"plant": {"generator": {"n_nodes": 3, "seed": 5}}}
        assert scenario_from_doc(doc, seed=11).generator.seed == 11

    @pytest.mark.parametrize("plant", [{"inline": {}}, {"file": "plant.json"}])
    def test_seed_needs_a_generator(self, plant):
        with pytest.raises(InvalidAssumption, match="only to a generator plant"):
            scenario_from_doc({"plant": plant}, seed=7)

    def test_seed_required(self):
        with pytest.raises(InvalidAssumption):
            scenario_from_doc({"plant": {"generator": {"n_nodes": 3}}})

    def test_inline_form(self):
        plant = generate_plant(2, 1)
        doc = {"plant": {"inline": plant_to_doc(plant)}}
        back = scenario_from_doc(doc).resolve_plant()
        assert np.array_equal(back.A, plant.A)

    def test_file_form_relative_to_base_dir(self, tmp_path):
        plant = generate_plant(2, 3)
        write_json(tmp_path / "plant.json", plant_to_doc(plant))
        doc = {"plant": {"file": "plant.json"}}
        scn = scenario_from_doc(doc, base_dir=tmp_path)
        assert np.array_equal(scn.resolve_plant().A, plant.A)

    def test_load_scenario_names_after_file(self, tmp_path):
        plant = generate_plant(2, 3)
        write_json(tmp_path / "plant.json", plant_to_doc(plant))
        write_json(tmp_path / "case7.json", {"plant": {"file": "plant.json"}})
        scn = load_scenario(tmp_path / "case7.json")
        assert scn.name == "case7"
        assert np.array_equal(scn.resolve_plant().A, plant.A)

    def test_config_parsing(self):
        gen = {"generator": {"n_nodes": 2, "seed": 0}}
        doc = {"plant": gen, "sparsity": {"beta_schedule": [0.1, 1.0]}}
        assert scenario_from_doc(doc).beta_schedule == [0.1, 1.0]
        assert scenario_from_doc({"plant": gen}).beta_schedule is None

    def test_rejections(self):
        gen = {"generator": {"n_nodes": 2, "seed": 0}}
        with pytest.raises(InvalidAssumption):
            scenario_from_doc({"plant": gen, "mystery": 1})
        with pytest.raises(InvalidAssumption):
            scenario_from_doc({"plant": {"teleport": {}}})
        with pytest.raises(InvalidAssumption):
            scenario_from_doc({"plant": {"generator": {"n_nodes": 2, "seed": 0, "x": 1}}})
        with pytest.raises(InvalidAssumption):
            scenario_from_doc({"plant": gen, "sparsity": {"nope": 1}})
        with pytest.raises(InvalidAssumption):
            scenario_from_doc({"plant": gen, "synthesis": [1, 2]})
        with pytest.raises(InvalidAssumption):
            scenario_from_doc({})
        with pytest.raises(InvalidAssumption):
            scenario_from_doc("not a dict")

    @pytest.mark.parametrize("bad", [["x"], 5, None])
    def test_name_must_be_a_string(self, bad):
        gen = {"generator": {"n_nodes": 2, "seed": 0}}
        with pytest.raises(InvalidAssumption, match="name"):
            scenario_from_doc({"name": bad, "plant": gen})

    @pytest.mark.parametrize(
        "attack, error",
        [
            ({"attacked_priorities": [0]}, IndexOutOfRange),
            ({"attacked_priorities": [-5]}, IndexOutOfRange),
            ({"attacked_top": -1}, InvalidAssumption),
        ],
    )
    def test_attack_below_every_table_is_rejected(self, attack, error):
        with pytest.raises(error):
            Scenario(name="x", generator=GeneratorSpec(10, 0), attack=attack)

    def test_exactly_one_plant_source(self):
        plant_doc = plant_to_doc(generate_plant(2, 0))
        with pytest.raises(InvalidAssumption):
            Scenario(name="x", generator=GeneratorSpec(2, 0), plant_doc=plant_doc)
        with pytest.raises(InvalidAssumption):
            Scenario(name="x")


class TestSelectReroute:
    def test_uniform_dispatch(self, ex1_table):
        assert select_reroute(ex1_table, {3, 7, 8}) == reroute_uniform(ex1_table, {3, 7, 8})

    def test_single_dispatch(self, ex2_table):
        assert select_reroute(ex2_table, {5}) == reroute_single(ex2_table, 5)

    def test_multi_dispatch(self):
        table = make_table((2, 2, 2, 4, 4))
        assert select_reroute(table, {4, 5}) == reroute_multi(table, {4, 5})

    def test_uniform_single_attack_uses_pairing(self, ex1_table):
        # one attacked link on a uniform table goes through the pairing
        # procedure, not the capacity loop
        out = select_reroute(ex1_table, {1})
        assert out == reroute_uniform(ex1_table, {1})


@pytest.mark.property
@pytest.mark.usefixtures("one_reweight")
class TestPipelineProperties:
    # The fixture patches a module constant once for all examples.
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n_nodes=st.integers(2, 3), seed=st.integers(0, 10_000),
           fraction=st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]))
    def test_reroute_never_beats_pre_attack(self, n_nodes, seed, fraction):
        res = run_pipeline(Scenario(
            name="p",
            generator=GeneratorSpec(n_nodes, seed),
            beta_schedule=FAST_SCHEDULE,
            attack={"top_fraction": fraction},
        ))
        rep = res.report
        if rep.feasible:
            assert rep.j_before <= rep.j_reroute + 1e-9

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n_nodes=st.integers(2, 3), seed=st.integers(0, 10_000))
    def test_table_carries_the_deployed_gain(self, n_nodes, seed):
        res = run_pipeline(Scenario(
            name="p", generator=GeneratorSpec(n_nodes, seed), beta_schedule=FAST_SCHEDULE,
        ))
        for row in res.table.rows:
            assert row.values[: row.size] == tuple(res.before.gain.block(row.i, row.j).ravel())

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(plant=plants(max_nodes=2), fraction=st.sampled_from([0.25, 0.5, 0.75, 1.0]))
    def test_invariants_on_heterogeneous_plants(self, plant, fraction):
        # Two nodes keep an example near 0.1 s; a third adds a tail of
        # seconds-long removal-loss polishes. Betas relative to J(K_c) keep
        # the first pattern dense whatever the plant's scale.
        j_c = closed_loop_cost(plant, lqr_centralized(plant))
        res = run_pipeline(Scenario(
            name="p", plant_doc=plant_to_doc(plant),
            beta_schedule=(0.03 * j_c, 0.3 * j_c), attack={"top_fraction": fraction},
        ))
        rep = res.report
        if rep.feasible:
            assert rep.j_before <= rep.j_reroute + 1e-9
        attacked = attack_from_doc({"top_fraction": fraction}, res.table.r1)
        assert_reroute_invariants(res.table, attacked, res.outcome)
        for row in res.table.rows:
            assert row.values[: row.size] == tuple(res.before.gain.block(row.i, row.j).ravel())
        first, second = res.sweep.entries
        if second.pattern.is_subset(first.pattern):
            assert first.cost_polished <= second.cost_polished

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n_nodes=st.integers(2, 3), seed=st.integers(0, 10_000),
           fraction=st.sampled_from([0.25, 0.5, 0.75, 1.0]))
    def test_drawn_grids_are_the_priced_patterns(self, n_nodes, seed, fraction):
        res = run_pipeline(Scenario(
            name="p",
            generator=GeneratorSpec(n_nodes, seed),
            beta_schedule=FAST_SCHEDULE,
            attack={"top_fraction": fraction},
        ))
        partition = res.plant.partition
        with tempfile.TemporaryDirectory() as out:
            grids = {p.name: p.read_text(encoding="utf-8") for p in write_artifacts(res, out)}
        attack_view = parse_pattern(grids["pattern_attack.txt"], partition)
        assert closed_loop_cost(res.plant, res.before.gain.project(attack_view)) == res.report.j_attack
        if res.outcome.feasible:
            assert parse_pattern(grids["pattern_after.txt"], partition).same_as(res.pattern_after)


@pytest.mark.usefixtures("one_reweight")
class TestPipeline:
    @pytest.mark.parametrize(
        "attack, error",
        [
            ({"attacked_priorities": [3, 101]}, IndexOutOfRange),
            ({"attacked_top": 101}, InvalidAssumption),
            ({"attacked_priorities": [100]}, None),
            ({"attacked_top": 100}, None),
        ],
    )
    def test_attack_above_every_table_fails_before_the_sweep(self, monkeypatch, attack, error):
        # r1 <= N^2 = 100 for a 10-node plant; an attack within that bound
        # goes on to the sweep
        class SweepReached(Exception):
            pass

        def no_sweep(*args, **kwargs):
            raise SweepReached

        monkeypatch.setattr(scenario_module, "sparsity_sweep", no_sweep)
        scenario = Scenario(name="x", generator=GeneratorSpec(10, 0), attack=attack)
        with pytest.raises(error or SweepReached):
            run_pipeline(scenario)

    def test_no_attack_costs_agree(self):
        res = run_pipeline(fast_scenario(None))
        rep = res.report
        assert rep.feasible
        assert rep.n_attacked == rep.n_sacrificed == rep.n_dropped == 0
        assert rep.j_attack == pytest.approx(rep.j_before, abs=1e-9 * (1 + rep.j_before))
        assert rep.j_reroute == pytest.approx(rep.j_before, rel=1e-6)
        assert res.pattern_after.same_as(res.pattern_before)

    def test_attack_ordering_and_counts(self):
        res = run_pipeline(fast_scenario({"attacked_top": 1}))
        rep = res.report
        assert rep.feasible
        assert rep.j_before <= rep.j_reroute + 1e-6
        assert rep.j_attack >= rep.j_before - 1e-6
        assert rep.n_attacked == 1
        assert rep.n_sacrificed + rep.n_dropped >= 1
        assert rep.n_attacked == len(res.outcome.attacked)
        # the post-attack pattern loses the sacrificed and dropped blocks
        assert res.pattern_after.is_subset(res.pattern_before)
        lost = rep.n_sacrificed + rep.n_dropped
        assert res.pattern_after.n_free == res.pattern_before.n_free - lost
        assert math.isfinite(rep.j_reroute)
        assert rep.j_reroute == pytest.approx(
            closed_loop_cost(res.plant, res.after.gain), abs=1e-9
        )

    def test_infeasible_attack(self):
        res = run_pipeline(fast_scenario({"top_fraction": 1.0}))
        rep = res.report
        assert not rep.feasible
        assert rep.j_reroute is None
        assert res.after is None
        assert res.pattern_after is None
        # the mutilated gain may or may not stabilize; the cost is whatever
        # zeroing every attacked block costs
        assert rep.j_attack > rep.j_before

    def test_factors_no_gain_twice(self, factorizations):
        # Every stage starts from the closed loop its gain carries: across
        # the whole pipeline no matrix is factored twice except A itself
        # (K = 0: a proximal trial that shrinks every block to zero), and
        # lqr_centralized factors one matrix, the loop A - B K_c its gain
        # carries.
        for seed, attack in ((2, None), (2, {"attacked_top": 1}), (4, {"attacked_top": 2})):
            factorizations.clear()
            res = run_pipeline(fast_scenario(attack, seed))
            a = res.plant.A.tobytes()
            assert len(factorizations) > 20
            assert [n for key, n in collections.Counter(factorizations).items()
                    if n > 1 and key != a] == []

            factorizations.clear()
            kc = lqr_centralized(res.plant)
            assert factorizations == [(res.plant.A - res.plant.B @ kc.K).tobytes()]

    def test_one_synthesis_after_the_sweep(self, monkeypatch):
        # The pre-attack gain is entry 0's polish as the sweep made it, so
        # the pipeline's only synthesis is on the post-attack pattern.
        patterns = []
        synth = scenario_module.synthesize_structured_info

        def recording(plant, pattern, **kwargs):
            patterns.append(pattern)
            return synth(plant, pattern, **kwargs)

        monkeypatch.setattr(scenario_module, "synthesize_structured_info", recording)
        res = run_pipeline(fast_scenario({"attacked_top": 1}))
        assert len(patterns) == 1 and patterns[0] is res.pattern_after
        assert res.before is res.sweep.entries[0].polished

    def test_deterministic(self):
        a = run_pipeline(fast_scenario({"attacked_top": 1}))
        b = run_pipeline(fast_scenario({"attacked_top": 1}))
        assert a.report == b.report
        assert np.array_equal(a.before.gain.K, b.before.gain.K)
        assert np.array_equal(a.after.gain.K, b.after.gain.K)
        assert a.table == b.table


class TestReportFormats:
    def test_csv_exact(self):
        reports = [
            CostReport("s1", 1.5, math.inf, None, 2, 1, 1, False),
            CostReport("s2", 0.25, 0.5, 0.375, 1, 1, 0, True),
        ]
        text = report_csv(reports)
        lines = text.splitlines()
        assert lines[0] == (
            "scenario,j_before,j_attack,j_reroute,n_attacked,"
            "n_sacrificed,n_dropped,feasible"
        )
        assert lines[1] == "s1,1.5,inf,,2,1,1,false"
        assert lines[2] == "s2,0.25,0.5,0.375,1,1,0,true"
        assert text.endswith("\n")

    def test_csv_float_precision(self):
        ugly = 0.1 + 0.2
        text = report_csv([CostReport("x", ugly, ugly, ugly, 0, 0, 0, True)])
        value = text.splitlines()[1].split(",")[1]
        assert float(value) == ugly

    def test_doc_round_trip(self):
        # an infinite j_attack is null in JSON, and inf in the CSV
        rep = CostReport("a", 1.25, math.inf, None, 3, 0, 3, False)
        back = json.loads(dumps_canonical(report_to_doc(rep)))
        assert back == dict(dataclasses.asdict(rep), j_attack=None)

    def test_doc_round_trip_finite(self):
        rep = CostReport("b", 0.5, 0.75, 0.6, 1, 1, 0, True)
        back = json.loads(dumps_canonical(report_to_doc(rep)))
        assert back == dataclasses.asdict(rep)


@pytest.mark.usefixtures("one_reweight")
class TestArtifacts:
    BASE_FILES = {
        "plant.json",
        "sweep.csv",
        "table.json",
        "outcome.json",
        "gain_before.json",
        "report.json",
        "report.csv",
        "pattern_before.txt",
        "pattern_before.svg",
        "pattern_attack.txt",
        "pattern_attack.svg",
    }
    AFTER_FILES = {"gain_after.json", "pattern_after.txt", "pattern_after.svg"}

    def test_feasible_file_set(self, tmp_path):
        res = run_pipeline(fast_scenario({"attacked_top": 1}))
        written = write_artifacts(res, tmp_path / "out")
        names = {p.name for p in written}
        assert names == self.BASE_FILES | self.AFTER_FILES
        assert {p.name for p in (tmp_path / "out").iterdir()} == names

    def test_infeasible_file_set(self, tmp_path):
        res = run_pipeline(fast_scenario({"top_fraction": 1.0}))
        names = {p.name for p in write_artifacts(res, tmp_path / "out")}
        assert names == self.BASE_FILES

    def test_bitwise_determinism(self, tmp_path):
        res_a = run_pipeline(fast_scenario({"attacked_top": 1}))
        res_b = run_pipeline(fast_scenario({"attacked_top": 1}))
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        write_artifacts(res_a, dir_a)
        write_artifacts(res_b, dir_b)
        for path in sorted(dir_a.iterdir()):
            assert path.read_bytes() == (dir_b / path.name).read_bytes()

    def test_artifacts_parse_back(self, tmp_path):
        res = run_pipeline(fast_scenario({"attacked_top": 1}))
        write_artifacts(res, tmp_path)
        plant = plant_from_doc(json.loads((tmp_path / "plant.json").read_text()))
        assert np.array_equal(plant.A, res.plant.A)
        table = table_from_doc(json.loads((tmp_path / "table.json").read_text()))
        assert table == res.table
        outcome = outcome_from_doc(json.loads((tmp_path / "outcome.json").read_text()))
        assert outcome == res.outcome
        report = json.loads((tmp_path / "report.json").read_text())
        assert report == dataclasses.asdict(res.report)


def write_scenario(tmp_path, attack, name="case", **sections):
    """A scenario file; sections replace or add top-level keys. Written by
    json.dumps, not write_json, so a section may hold the Infinity that
    scenario loading must reject."""
    doc = {
        "plant": {"generator": {"n_nodes": 3, "seed": 0}},
        "sparsity": {"beta_schedule": list(FAST_SCHEDULE)},
        "attack": attack,
        **sections,
    }
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.mark.usefixtures("one_reweight")
class TestCli:
    def test_gen_to_dir(self, tmp_path):
        code = main(["gen", "--n-nodes", "3", "--seed", "1", "--out", str(tmp_path)])
        assert code == 0
        plant = plant_from_doc(json.loads((tmp_path / "plant.json").read_text()))
        assert np.array_equal(plant.A, generate_plant(3, 1).A)

    def test_gen_to_stdout(self, capsys):
        assert main(["gen", "--n-nodes", "2", "--seed", "4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert np.array_equal(plant_from_doc(doc).A, generate_plant(2, 4).A)

    def test_gen_invalid_size(self, capsys):
        assert main(["gen", "--n-nodes", "1", "--seed", "0"]) == 4
        assert "input error" in capsys.readouterr().err

    def test_sweep_csv_and_json(self, tmp_path):
        scenario = write_scenario(tmp_path, None)
        out = tmp_path / "art"
        assert main(["sweep", "--scenario", str(scenario), "--out", str(out)]) == 0
        text = (out / "sweep.csv").read_text()
        assert text.splitlines()[0] == "beta,nnz_blocks,J_polished"
        assert len(text.splitlines()) == 3
        code = main(
            ["sweep", "--scenario", str(scenario), "--out", str(out), "--format", "json"]
        )
        assert code == 0
        doc = json.loads((out / "sweep.json").read_text())
        assert [e["beta"] for e in doc] == [0.05, 0.5]

    def test_rank_deterministic(self, tmp_path):
        scenario = write_scenario(tmp_path, None)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["rank", "--scenario", str(scenario), "--out", str(out_a)]) == 0
        assert main(["rank", "--scenario", str(scenario), "--out", str(out_b)]) == 0
        bytes_a = (out_a / "table.json").read_bytes()
        assert bytes_a == (out_b / "table.json").read_bytes()
        table = table_from_doc(json.loads(bytes_a))
        assert table.r1 >= 1

    def test_reroute_feasible(self, tmp_path, ex1_table, capsys):
        from sparselink import table_to_doc

        write_json(tmp_path / "table.json", table_to_doc(ex1_table))
        write_json(tmp_path / "attack.json", {"attacked_priorities": [3, 7, 8]})
        code = main(
            [
                "reroute",
                "--table",
                str(tmp_path / "table.json"),
                "--attack",
                str(tmp_path / "attack.json"),
            ]
        )
        assert code == 0
        out = outcome_from_doc(json.loads(capsys.readouterr().out))
        assert out == reroute_uniform(ex1_table, {3, 7, 8})

    def test_reroute_inline_attack(self, tmp_path, capsys, ex1_table):
        from sparselink import table_to_doc

        write_json(tmp_path / "table.json", table_to_doc(ex1_table))
        code = main(
            [
                "reroute",
                "--table",
                str(tmp_path / "table.json"),
                "--attack",
                '{"attacked_priorities": [3, 7, 8]}',
            ]
        )
        assert code == 0
        out = outcome_from_doc(json.loads(capsys.readouterr().out))
        assert out == reroute_uniform(ex1_table, {3, 7, 8})

    def test_reroute_infeasible_exit_two(self, tmp_path, ex1_table):
        from sparselink import table_to_doc

        write_json(tmp_path / "table.json", table_to_doc(ex1_table))
        write_json(tmp_path / "attack.json", {"top_fraction": 1.0})
        out_dir = tmp_path / "out"
        code = main(
            [
                "reroute",
                "--table",
                str(tmp_path / "table.json"),
                "--attack",
                str(tmp_path / "attack.json"),
                "--out",
                str(out_dir),
            ]
        )
        assert code == 2
        doc = json.loads((out_dir / "outcome.json").read_text())
        assert doc["feasible"] is False

    def test_out_of_range_priority_exit_four(self, tmp_path, capsys):
        # an explicit priority meets its table's range at reroute time, in
        # reroute and in run alike: 9 is within the 3-node plant's 9 blocks
        # but above this table's r1 = 3
        from sparselink import table_to_doc

        write_json(tmp_path / "table.json", table_to_doc(make_table((1, 1, 1, 1))))
        args = ["reroute", "--table", str(tmp_path / "table.json"),
                "--attack", '{"attacked_priorities": [9]}']
        assert main(args) == 4
        scenario = write_scenario(tmp_path, {"attacked_priorities": [9]})
        assert main(["run", "--scenario", str(scenario)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("input error: attacked priority") == 2

    def test_synth_diagonal(self, tmp_path):
        from sparselink import SparsityPattern, pattern_to_doc

        plant = generate_plant(2, 2)
        pattern = SparsityPattern.diagonal(plant.partition)
        write_json(tmp_path / "plant.json", plant_to_doc(plant))
        write_json(tmp_path / "pattern.json", pattern_to_doc(pattern))
        out_dir = tmp_path / "out"
        code = main(
            [
                "synth",
                "--plant",
                str(tmp_path / "plant.json"),
                "--pattern",
                str(tmp_path / "pattern.json"),
                "--out",
                str(out_dir),
            ]
        )
        assert code == 0
        doc = json.loads((out_dir / "gain.json").read_text())
        k = np.asarray(doc["K"])
        assert np.all(k[0, 2:] == 0.0)
        assert np.all(k[1, :2] == 0.0)
        assert doc["converged"] is True

    def test_synth_malformed_pattern_exit_four(self, tmp_path, capsys):
        plant = generate_plant(2, 2)
        write_json(tmp_path / "plant.json", plant_to_doc(plant))
        # well-formed JSON but not a pattern document
        write_json(tmp_path / "pattern.json", {"mask": [[True]]})
        code = main(
            [
                "synth",
                "--plant",
                str(tmp_path / "plant.json"),
                "--pattern",
                str(tmp_path / "pattern.json"),
            ]
        )
        assert code == 4
        assert "input error" in capsys.readouterr().err

    def test_synth_unstabilizable_exit_three(self, tmp_path, capsys):
        from sparselink import SparsityPattern, pattern_to_doc

        part = BlockPartition((1, 1), (1, 1))
        plant = LtiPlant(
            np.diag([1.0, -1.0]),
            np.array([[0.0, 1.0], [1.0, 0.0]]),
            np.eye(2),
            np.eye(2),
            np.eye(2),
            part,
        )
        write_json(tmp_path / "plant.json", plant_to_doc(plant))
        write_json(
            tmp_path / "pattern.json", pattern_to_doc(SparsityPattern.diagonal(part))
        )
        code = main(
            [
                "synth",
                "--plant",
                str(tmp_path / "plant.json"),
                "--pattern",
                str(tmp_path / "pattern.json"),
            ]
        )
        assert code == 3
        assert "not stabilizable" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows, cols, mask",
        [([1, 1], [1, 3], [[True, False], [False, True]]), ([2], [4], [[True]]),
         ([1, 1], [2, 2], [["false", True], [False, True]])],
        ids=["other_column_blocks", "one_node", "string_entry"],
    )
    def test_synth_pattern_on_another_grid_exit_four(self, tmp_path, capsys, rows, cols, mask):
        # the plant's gain is 2 x 4 in blocks (1, 1) x (2, 2); a pattern over
        # the same 2 x 4 in other blocks would zero the wrong entries, and on
        # its own grid a mask entry must still be true or false
        write_json(tmp_path / "plant.json", plant_to_doc(generate_plant(2, 0)))
        write_json(tmp_path / "pattern.json", {"mask": mask, "rowBlockSizes": rows, "colBlockSizes": cols})
        code = main(["synth", "--plant", str(tmp_path / "plant.json"),
                     "--pattern", str(tmp_path / "pattern.json")])
        assert code == 4
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["gen", "synth", "run"])
    def test_out_naming_a_file_exit_four(self, tmp_path, capsys, monkeypatch, command):
        # --out names a directory; a file in its place is an input error,
        # which run reports before the sweep
        def no_sweep(*args, **kwargs):
            pytest.fail("sparsity_sweep ran with an --out that cannot be made")

        monkeypatch.setattr(scenario_module, "sparsity_sweep", no_sweep)
        from sparselink import SparsityPattern, pattern_to_doc

        plant = generate_plant(2, 0)
        write_json(tmp_path / "plant.json", plant_to_doc(plant))
        write_json(tmp_path / "pattern.json", pattern_to_doc(SparsityPattern.diagonal(plant.partition)))
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory")
        argv = {
            "gen": ["gen", "--n-nodes", "2", "--seed", "0"],
            "synth": ["synth", "--plant", str(tmp_path / "plant.json"),
                      "--pattern", str(tmp_path / "pattern.json")],
            "run": ["run", "--scenario", str(write_scenario(tmp_path, None))],
        }[command]
        assert main(argv + ["--out", str(taken)]) == 4
        assert "input error" in capsys.readouterr().err
        assert taken.read_text() == "a file, not a directory"

    @pytest.mark.parametrize("init", ["synth_output", "lqr", "not_stabilizing"])
    def test_synth_init(self, tmp_path, capsys, init):
        # --init warm-starts the synthesis: it polishes from the init's
        # projection onto the pattern when that is stabilizing, starts cold
        # when only the init is, and rejects an init when neither is.
        from sparselink import (
            GainMatrix,
            SparsityPattern,
            gain_to_doc,
            pattern_to_doc,
            synthesize_structured_info,
        )

        plant = generate_plant(2, 2)
        pattern = SparsityPattern.diagonal(plant.partition)
        write_json(tmp_path / "plant.json", plant_to_doc(plant))
        write_json(tmp_path / "pattern.json", pattern_to_doc(pattern))
        synth = ["synth", "--plant", str(tmp_path / "plant.json"),
                 "--pattern", str(tmp_path / "pattern.json")]
        if init == "synth_output":
            assert main(synth + ["--out", str(tmp_path)]) == 0
            init_doc = json.loads((tmp_path / "gain.json").read_text())
        elif init == "lqr":
            init_doc = {"K": lqr_centralized(plant).K.tolist()}
        else:
            # A + 50 B B^T is not Hurwitz, and -50 B^T is on the diagonal
            # pattern, so it is its own projection
            init_doc = {"K": (-50.0 * plant.B.T).tolist()}
        write_json(tmp_path / "init.json", init_doc)
        code = main(synth + ["--init", str(tmp_path / "init.json")])
        captured = capsys.readouterr()
        if init == "not_stabilizing":
            assert code == 4
            assert "input error" in captured.err
            return
        assert code == 0
        doc = json.loads(captured.out)
        if init == "synth_output":
            assert doc["K"] == init_doc["K"]
            assert doc["iterations"] == 0
        else:
            k_init = GainMatrix(np.array(init_doc["K"]), plant.partition)
            assert np.any(k_init.K * pattern.complement_identity())
            info = synthesize_structured_info(plant, pattern, init=k_init)
            assert doc == json.loads(dumps_canonical(gain_to_doc(info, pattern)))

    @pytest.mark.parametrize(
        "error, command, solver",
        [
            (SingularSolve, "sweep", "sparsity_sweep"),
            (RiccatiFailure, "synth", "synthesize_structured_info"),
            (LineSearchFailure, "run", "run_pipeline"),
            (LostStabilizability, "sweep", "sparsity_sweep"),
            (MaxIterations, "synth", "synthesize_structured_info"),
        ],
    )
    def test_solver_failure_exit_five(
        self, tmp_path, capsys, monkeypatch, error, command, solver
    ):
        from sparselink import SparsityPattern, pattern_to_doc

        def give_up(*args, **kwargs):
            raise error("solver gave up")

        monkeypatch.setattr(cli, solver, give_up)
        if command == "synth":
            plant = generate_plant(2, 2)
            write_json(tmp_path / "plant.json", plant_to_doc(plant))
            write_json(
                tmp_path / "pattern.json",
                pattern_to_doc(SparsityPattern.diagonal(plant.partition)),
            )
            args = [
                "synth",
                "--plant",
                str(tmp_path / "plant.json"),
                "--pattern",
                str(tmp_path / "pattern.json"),
            ]
        else:
            args = [command, "--scenario", str(write_scenario(tmp_path, {"attacked_top": 1}))]
        assert main(args) == 5
        assert "solver failure: solver gave up" in capsys.readouterr().err

    def test_schur_failure_exit_five(self, tmp_path, capsys, monkeypatch):
        # dgees reports that its QR iteration did not converge (info > 0)
        gees = h2.dgees
        monkeypatch.setattr(h2, "dgees", lambda *args, **kwargs: (*gees(*args, **kwargs)[:-1], 1))
        assert main(["run", "--scenario", str(write_scenario(tmp_path, {"attacked_top": 1}))]) == 5
        err = capsys.readouterr().err
        assert err.startswith("solver failure: Schur form not found") and "Traceback" not in err

    def test_singular_lyapunov_exit_five(self, tmp_path, capsys):
        # A Hurwitz A with eigenvalues -1e30 and -1: the eigenvalue sum -2 of
        # its Lyapunov operator is below rounding at the scale 1e30, so
        # trsyl finds that operator numerically singular.
        plant = LtiPlant(np.array([[-1e30, 1e30], [0.0, -1.0]]), np.ones((2, 1)), np.eye(2),
                         np.eye(2), np.eye(1), BlockPartition((1,), (2,)))
        scenario = write_scenario(tmp_path, None, plant={"inline": plant_to_doc(plant)})
        assert main(["run", "--scenario", str(scenario)]) == 5
        assert "solver failure: Lyapunov operator numerically singular" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_zero_optimal_cost_needs_a_schedule(self, tmp_path, capsys, command):
        # W = 0 gives J(K_c) = 0, and the default schedule is 1e-4 J(K_c)
        # to 1e2 J(K_c), log-spaced: there is none, so the scenario must set one
        plant = LtiPlant(np.array([[-1.0, 0.5], [0.0, -2.0]]), np.eye(2), np.zeros((2, 2)),
                         np.eye(2), np.eye(2), BlockPartition((1, 1), (1, 1)))
        scenario = write_scenario(tmp_path, None, plant={"inline": plant_to_doc(plant)}, sparsity={})
        assert main([command, "--scenario", str(scenario)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("input error: J(K_c) = 0.0") and "sparsity.beta_schedule" in err

    def test_run_csv_stdout(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, {"attacked_top": 1})
        assert main(["run", "--scenario", str(scenario)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("scenario,j_before")
        assert out.splitlines()[1].startswith("case,")

    def test_run_json_and_artifacts(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, {"attacked_top": 1})
        out_dir = tmp_path / "art"
        code = main(
            [
                "run",
                "--scenario",
                str(scenario),
                "--out",
                str(out_dir),
                "--format",
                "json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["feasible"] is True
        assert (out_dir / "report.json").exists()
        assert (out_dir / "pattern_after.svg").exists()

    def test_run_infeasible_exit_two(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, {"top_fraction": 1.0})
        assert main(["run", "--scenario", str(scenario)]) == 2
        out = capsys.readouterr().out
        assert ",false" in out.splitlines()[1]

    def test_infinite_attack_cost_is_json_null(self, tmp_path):
        # A + 0.5 I is unstable, so zeroing every link leaves j_attack = inf
        plant = generate_plant(2, 0)
        doc = dict(plant_to_doc(plant), A=(plant.A + 0.5 * np.eye(plant.n)).tolist())
        scenario = write_scenario(tmp_path, {"top_fraction": 1.0}, plant={"inline": doc})
        out_dir = tmp_path / "out"
        assert main(["run", "--scenario", str(scenario), "--out", str(out_dir)]) == 2

        def no_constant(name):
            raise AssertionError(f"report.json holds {name}")

        report = json.loads((out_dir / "report.json").read_text(), parse_constant=no_constant)
        assert report["j_attack"] is None
        assert (out_dir / "report.csv").read_text().splitlines()[1].split(",")[2] == "inf"

    @pytest.mark.parametrize(
        "generator, attack",
        [
            ({"n_nodes": "x", "seed": 0}, None),
            ({"n_nodes": 2.5, "seed": 0}, None),
            ({"n_nodes": 3, "seed": "s"}, None),
            ({"n_nodes": 3, "seed": 0, "delta": "x"}, None),
            ({"n_nodes": 3, "seed": 0}, {"attacked_priorities": ["x"]}),
            ({"n_nodes": 3, "seed": 0}, {"attacked_priorities": 5}),
            ({"n_nodes": 3, "seed": 0}, {"top_fraction": "x"}),
            ({"n_nodes": 3, "seed": 0}, {"attacked_top": [1]}),
            ({"n_nodes": 3, "seed": 0}, {"attacked_top": 2.5}),
            ({"n_nodes": 3, "seed": 0}, {"attacked_priorities": [1.7, "2"]}),
            ({"n_nodes": 3, "seed": 0}, {"attacked_block": 1}),  # a retired form
            ({"n_nodes": 3, "seed": 0}, {"top_fraction": True}),
            ({"n_nodes": 3, "seed": True}, None),
            ({"n_nodes": 3, "seed": 0, "delta": True}, None),
            ({"file": 5}, None),  # a whole plant section: a file that is no path
        ],
    )
    def test_malformed_value_exit_four(self, tmp_path, capsys, monkeypatch, generator, attack):
        # rejected when the scenario loads, before any numerics
        def no_sweep(*args, **kwargs):
            pytest.fail("sparsity_sweep ran on a malformed scenario")

        monkeypatch.setattr(scenario_module, "sparsity_sweep", no_sweep)
        plant = generator if "file" in generator else {"generator": generator}
        scenario = write_scenario(tmp_path, attack, plant=plant)
        assert main(["run", "--scenario", str(scenario)]) == 4
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "attack",
        [
            {"attacked_priorities": [0]},
            {"attacked_priorities": [-5, 3]},
            {"attacked_top": -1},
            {"attacked_priorities": [101]},
            {"attacked_top": 101},
        ],
    )
    def test_impossible_attack_exit_four_before_the_sweep(self, tmp_path, capsys, monkeypatch, attack):
        # no table of a 10-node plant has a priority below 1 or above 10^2
        def no_sweep(*args, **kwargs):
            pytest.fail("sparsity_sweep ran on an impossible attack")

        monkeypatch.setattr(scenario_module, "sparsity_sweep", no_sweep)
        scenario = write_scenario(tmp_path, attack, plant={"generator": {"n_nodes": 10, "seed": 0}})
        assert main(["run", "--scenario", str(scenario)]) == 4
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sections",
        [
            {"sparsity": {"beta_schedule": [1, 0.5]}},
            {"sparsity": {"beta_schedule": 5}},
            {"sparsity": {"beta_schedule": ["x"]}},
            {"sparsity": {"beta_schedule": [0.05, 0.5], "max_reweight": 1}},
            {"synthesis": {"gamma0": 1.0}},
            {"sparsity": {"beta_schedule": [True, 2]}},
            {"sparsity": {"beta_schedule": [0.05, math.inf]}},
        ],
    )
    def test_bad_or_removed_solver_setting_exit_four(self, tmp_path, capsys, sections):
        scenario = write_scenario(tmp_path, None, **sections)
        assert main(["run", "--scenario", str(scenario)]) == 4
        assert "input error" in capsys.readouterr().err

    def test_run_bad_format(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, None)
        assert main(["run", "--scenario", str(scenario), "--format", "yaml"]) == 4

    def test_render_pattern_text(self, tmp_path, capsys, ex1_partition):
        from sparselink import SparsityPattern, pattern_to_doc

        write_json(
            tmp_path / "pattern.json",
            pattern_to_doc(SparsityPattern.diagonal(ex1_partition)),
        )
        assert main(["render", "--pattern", str(tmp_path / "pattern.json")]) == 0
        assert capsys.readouterr().out == "■···\n·■··\n··■·\n···■\n"

    def test_render_outcome(self, tmp_path, capsys, ex1_table):
        from sparselink import outcome_to_doc

        # the outcome is drawn on its own n_final table
        write_json(tmp_path / "outcome.json", outcome_to_doc(reroute_uniform(ex1_table, {3, 7, 8})))
        assert main(["render", "--outcome", str(tmp_path / "outcome.json")]) == 0
        assert capsys.readouterr().out == "S·■R\n·A·R\n·■··\nS■·■\n"

    def test_render_svg_to_dir(self, tmp_path, ex1_partition):
        from sparselink import SparsityPattern, pattern_to_doc

        write_json(
            tmp_path / "pattern.json",
            pattern_to_doc(SparsityPattern.full(ex1_partition)),
        )
        code = main(
            [
                "render",
                "--pattern",
                str(tmp_path / "pattern.json"),
                "--format",
                "svg",
                "--out",
                str(tmp_path / "art"),
            ]
        )
        assert code == 0
        assert (tmp_path / "art" / "pattern.svg").read_text().count("<rect") == 16

    @pytest.mark.parametrize("doc", [
        [{"i": -1, "j": 0, "q": 1, "s": 1, "values": [1.0]}],  # would draw in the last grid row
        [],  # no blocks, so no grid extent
    ])
    def test_render_bad_table_exit_four(self, tmp_path, capsys, doc):
        write_json(tmp_path / "table.json", doc)
        assert main(["render", "--table", str(tmp_path / "table.json")]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("input error:")

    def test_render_source_exclusivity(self, tmp_path, capsys, ex1_partition):
        from sparselink import SparsityPattern, pattern_to_doc

        write_json(
            tmp_path / "pattern.json",
            pattern_to_doc(SparsityPattern.full(ex1_partition)),
        )
        assert main(["render"]) == 4
        assert (
            main(
                [
                    "render",
                    "--pattern",
                    str(tmp_path / "pattern.json"),
                    "--table",
                    str(tmp_path / "pattern.json"),
                ]
            )
            == 4
        )

    def test_input_error_paths(self, tmp_path, capsys):
        from sparselink import SparsityPattern, pattern_to_doc

        assert main(["run", "--scenario", str(tmp_path / "missing.json")]) == 4
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", "--scenario", str(bad)]) == 4
        assert main(["gen", "--n-nodes", "2", "--seed", "0", "--bogus"]) == 4
        assert main(["teleport"]) == 4
        # options that would have no effect: a --seed for a plant no
        # generator makes, and a second thing to render beside --pattern
        plant = generate_plant(2, 0)
        inline = write_scenario(tmp_path, None, plant={"inline": plant_to_doc(plant)})
        assert main(["run", "--scenario", str(inline), "--seed", "7"]) == 4
        write_json(tmp_path / "pattern.json", pattern_to_doc(SparsityPattern.full(plant.partition)))
        pattern = str(tmp_path / "pattern.json")
        assert main(["render", "--pattern", pattern, "--outcome", pattern]) == 4

    def test_bare_invocation_usage(self, capsys):
        assert main([]) == 4
        assert "usage" in capsys.readouterr().err.lower()

    def test_process_exits_with_mains_return(self, tmp_path):
        # python -m sparselink.cli, like the console script, exits with what
        # main returns; both processes start before main runs, to overlap
        # their imports
        env = dict(os.environ, PYTHONPATH=str(Path(sparselink.__file__).resolve().parents[1]))
        calls = (["gen", "--n-nodes", "2", "--seed", "0"], ["gen", "--n-nodes", "2", "--seed", "0", "--bogus"])
        processes = [subprocess.Popen([sys.executable, "-m", "sparselink.cli", *argv], cwd=tmp_path, env=env,
                                      stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL) for argv in calls]
        assert [main(argv) for argv in calls] == [0, 4]
        assert [process.wait() for process in processes] == [0, 4]

    @pytest.mark.parametrize("command", ["render", "reroute"])
    @pytest.mark.parametrize("doc", [
        [  # block (0, 0) named twice
            {"i": 0, "j": 0, "q": 1, "s": 1, "values": [1.0, 0.0]},
            {"i": 0, "j": 0, "q": 2, "s": 2, "values": [2.0, 3.0]},
        ],
        [  # a block of no units
            {"i": 0, "j": 0, "q": 1, "s": 0, "values": [0.0]},
            {"i": 1, "j": 1, "q": 2, "s": 1, "values": [2.0]},
        ],
    ])
    def test_invalid_table_exit_four(self, tmp_path, capsys, command, doc):
        write_json(tmp_path / "table.json", doc)
        args = [command, "--table", str(tmp_path / "table.json")]
        if command == "reroute":
            args += ["--attack", '{"attacked_priorities": [2]}']
        assert main(args) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("input error:")

    @pytest.mark.parametrize("probe", [
        "synth", "run_inline", "beta_schedule", "delta", "top_fraction", "reroute", "render",
        "seed", "attack_literal", "reroute_nan", "render_nan",
    ])
    def test_number_no_double_holds_exit_four(self, tmp_path, capsys, probe):
        # 10^400 and 10^333 overflow a double; 5 000 digits pass Python's
        # integer-digit limit; a NaN table value is no table value
        def path(name, doc):
            (tmp_path / name).write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
            return str(tmp_path / name)

        plant = plant_to_doc(generate_plant(2, 0))
        plant["A"][0][0] = 10 ** 400
        pattern = {"mask": [[True, False], [False, True]], "rowBlockSizes": [1, 1], "colBlockSizes": [2, 2]}
        row = {"i": 0, "j": 0, "q": 1, "s": 1, "values": [1.0]}
        generator = {"generator": {"n_nodes": 2, "seed": 0}}
        attack = ["--attack", '{"attacked_priorities": [1]}']
        argv = {
            "synth": lambda: ["synth", "--plant", path("plant.json", plant), "--pattern", path("pattern.json", pattern)],
            "run_inline": lambda: ["run", "--scenario", path("s.json", {"plant": {"inline": plant}})],
            "beta_schedule": lambda: ["run", "--scenario", path("s.json", {
                "plant": generator, "sparsity": {"beta_schedule": [1, 10 ** 400]}})],
            "delta": lambda: ["run", "--scenario", path("s.json", {
                "plant": {"generator": {"n_nodes": 2, "seed": 0, "delta": 10 ** 400}}})],
            "top_fraction": lambda: ["run", "--scenario", path("s.json", {
                "plant": generator, "attack": {"top_fraction": 10 ** 400}})],
            "reroute": lambda: ["reroute", "--table", path("t.json", [dict(row, values=[10 ** 333])]), *attack],
            "render": lambda: ["render", "--table", path("t.json", [dict(row, values=[10 ** 333])])],
            "seed": lambda: ["run", "--scenario", path(
                "s.json", '{"plant": {"generator": {"n_nodes": 2, "seed": %s}}}' % ("1" * 5000))],
            "attack_literal": lambda: [
                "reroute", "--table", path("t.json", [row]), "--attack", '{"attacked_top": %s}' % ("1" * 5000)],
            "reroute_nan": lambda: ["reroute", "--table", path("t.json", [dict(row, values=[math.nan])]), *attack],
            "render_nan": lambda: ["render", "--table", path("t.json", [dict(row, values=[math.nan])])],
        }[probe]()
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("input error:")
        assert "Traceback" not in captured.err

    def test_render_outcome_of_another_table_exit_four(self, tmp_path, capsys, ex1_table):
        from sparselink import outcome_to_doc, table_to_doc

        # an outcome of the 9-row example table beside a 4-row table: render
        # draws exactly one source, and an outcome carries its own table
        write_json(tmp_path / "table.json", table_to_doc(make_table((1, 1, 1, 1))))
        write_json(tmp_path / "outcome.json", outcome_to_doc(reroute_uniform(ex1_table, {3})))
        table, outcome = str(tmp_path / "table.json"), ["--outcome", str(tmp_path / "outcome.json")]
        for args in (["--table", table, *outcome], ["--pattern", table, *outcome], []):
            assert main(["render", *args]) == 4
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("input error:") and captured.err.count("\n") == 1
        assert main(["render", *outcome]) == 0
        assert capsys.readouterr().out == "S·■■\n·R·■\n·■··\n■■·■\n"

    def test_render_impossible_outcome_exit_four(self, tmp_path, capsys):
        from sparselink import outcome_to_doc

        table = make_table((1, 1, 1, 1))
        # priority 9 on a 4-row table, and priority 2 both rerouted and dropped
        doc = dict(outcome_to_doc(reroute_uniform(table, {2})), rerouted=[2, 9], dropped=[2])
        write_json(tmp_path / "outcome.json", doc)
        assert main(["render", "--outcome", str(tmp_path / "outcome.json")]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("input error: outcome names a priority outside 1..4")


def _wrapped(doc, path, depth):
    """The JSON text of doc with its array at path (a key sequence) nested in
    depth more levels; built as text, since json.dumps recurses per level."""
    if not path:
        return "[" * depth + json.dumps(doc) + "]" * depth
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    inner = json.dumps(parent[path[-1]])
    parent[path[-1]] = "@"
    return json.dumps(doc).replace('"@"', "[" * depth + inner + "]" * depth)


def _array_paths(doc, path=()):
    """The key path of every array of doc (of an array of arrays or objects,
    the paths through its first element)."""
    if isinstance(doc, list):
        yield path
        if doc and isinstance(doc[0], (list, dict)):
            yield from _array_paths(doc[0], path + (0,))
    elif isinstance(doc, dict):
        for key, value in doc.items():
            yield from _array_paths(value, path + (key,))


def _object_paths(doc, path=()):
    """The key path of every JSON object of doc, each row of an array
    included."""
    if isinstance(doc, dict):
        yield path
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from _object_paths(value, path + (key,))


def _documents():
    """A valid document for every reader, by file name."""
    plant = plant_to_doc(generate_plant(2, 0))
    blocks = ((0, 0), (0, 1), (1, 0), (1, 1))
    table = [{"i": i, "j": j, "q": q, "s": 1, "values": [float(q)]} for q, (i, j) in enumerate(blocks, 1)]
    sparsity = {"beta_schedule": list(FAST_SCHEDULE)}
    return {
        "plant.json": plant,
        "pattern.json": {"mask": [[True, False], [False, True]], "rowBlockSizes": [1, 1], "colBlockSizes": [2, 2]},
        "gain.json": {"K": [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]},
        "table.json": table,
        "outcome.json": {"feasible": True, "sacrificed": [], "rerouted": [], "dropped": [4],
                         "n_final": table[:3] + [dict(table[3], values=[0.0])]},
        "attack.json": {"attacked_priorities": [4]},
        "scenario.json": {"plant": {"generator": {"n_nodes": 2, "seed": 0}}, "sparsity": sparsity,
                          "attack": {"attacked_priorities": [1]}},
        "inline.json": {"plant": {"inline": plant}, "sparsity": sparsity},
    }


_SYNTH = ["synth", "--plant", "plant.json", "--pattern", "pattern.json"]
_REROUTE = ["reroute", "--table", "table.json", "--attack"]
_READERS = {  # the commands that read each document; "@" is the document's text as the --attack literal
    "plant.json": [_SYNTH],
    "pattern.json": [_SYNTH, ["render", "--pattern", "pattern.json"]],
    "gain.json": [_SYNTH + ["--init", "gain.json"]],
    "table.json": [_REROUTE + ["attack.json"], ["render", "--table", "table.json"]],
    "outcome.json": [["render", "--outcome", "outcome.json"]],
    "attack.json": [_REROUTE + ["attack.json"], _REROUTE + ["@"]],
    "scenario.json": [[command, "--scenario", "scenario.json"] for command in ("sweep", "rank", "run")],
    "inline.json": [["run", "--scenario", "inline.json"]],
}


_OBJECTS = [(name, path) for name, doc in _documents().items() for path in _object_paths(doc)]


@pytest.fixture
def documents(tmp_path, monkeypatch):
    """_documents(), written to files of their names in the working directory."""
    monkeypatch.chdir(tmp_path)
    docs = _documents()
    for name, doc in docs.items():
        write_json(name, doc)
    return docs


@pytest.mark.usefixtures("one_reweight")
class TestBadDocuments:
    """Every document a command reads fails as one input error line, never
    as a traceback, however deep it nests or however far its blocks lie."""

    def run(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        return code, captured

    def exit_four(self, capsys, argv):
        code, captured = self.run(capsys, argv)
        assert code == 4
        assert captured.out == ""
        assert captured.err.startswith("input error:") and captured.err.count("\n") == 1
        return captured.err

    def test_valid_documents_run(self, capsys, documents):
        for name, commands in _READERS.items():
            for argv in commands:
                argv = [json.dumps(documents[name]) if arg == "@" else arg for arg in argv]
                assert self.run(capsys, argv)[0] in (0, 2), argv

    @pytest.mark.parametrize("name, path", _OBJECTS,
                             ids=[name[:-5] + "".join(f".{key}" for key in path) for name, path in _OBJECTS])
    def test_object_with_an_unknown_key(self, capsys, documents, name, path):
        doc = json.loads(json.dumps(documents[name]))
        obj = doc
        for key in path:
            obj = obj[key]
        obj["extra"] = 1
        write_json(name, doc)
        for argv in _READERS[name]:
            err = self.exit_four(capsys, [json.dumps(doc) if arg == "@" else arg for arg in argv])
            assert re.fullmatch(r"input error: unknown .* keys: \['extra'\]\n", err), argv

    @pytest.mark.parametrize("argv", [
        ["run", "--scenario", "deep.json"],
        ["synth", "--plant", "deep.json", "--pattern", "pattern.json"],
        ["reroute", "--table", "deep.json", "--attack", "attack.json"],
        ["render", "--table", "deep.json"],
        _REROUTE + ["@"],
    ], ids=["scenario", "plant", "reroute_table", "render_table", "attack_literal"])
    def test_document_nested_100_000_deep(self, tmp_path, capsys, documents, argv):
        deep = "[" * 100_000 + "]" * 100_000
        (tmp_path / "deep.json").write_text(deep, encoding="utf-8")
        err = self.exit_four(capsys, [deep if arg == "@" else arg for arg in argv])
        assert "maximum recursion depth" in err and ("deep.json" in err or "--attack" in err)

    def test_file_not_utf8(self, tmp_path, capsys, documents):
        (tmp_path / "scenario.json").write_bytes(b'{"name": "\xff", "plant": {"generator": {"n_nodes": 2, "seed": 0}}}')
        assert self.exit_four(capsys, ["run", "--scenario", "scenario.json"]).startswith("input error: scenario.json: ")

    @pytest.mark.parametrize("depth", [33, 64])
    @pytest.mark.parametrize("name, path, ndim", [
        ("plant.json", ("A",), 2), ("pattern.json", ("mask",), 2), ("table.json", (0, "values"), 1),
        ("gain.json", ("K",), 2),
    ], ids=["A", "mask", "values", "K"])
    def test_array_nested_past_its_dimensions(self, tmp_path, capsys, documents, name, path, ndim, depth):
        (tmp_path / name).write_text(_wrapped(documents[name], path, depth - ndim), encoding="utf-8")
        assert "dimensions" in self.exit_four(capsys, _READERS[name][-1])

    @pytest.mark.parametrize("i", [10**9, 10**30])
    def test_table_row_too_far_to_draw(self, capsys, documents, i):
        write_json("table.json", [dict(documents["table.json"][0], i=i)])
        assert "at most 1000" in self.exit_four(capsys, ["render", "--table", "table.json"])

    @pytest.mark.parametrize("index", [{"i": 10**30}, {"j": 1000}], ids=["i_far", "j_at_bound"])
    @pytest.mark.parametrize("argv", [_REROUTE + ["attack.json"], ["render", "--table", "table.json"],
                                      ["render", "--outcome", "outcome.json"]], ids=["reroute", "render", "outcome"])
    def test_table_row_past_the_bound(self, capsys, documents, index, argv):
        # every table reader refuses the row, so reroute writes no outcome that render refuses
        write_json("table.json", [dict(documents["table.json"][0], **index)] + documents["table.json"][1:])
        outcome = documents["outcome.json"]
        write_json("outcome.json", dict(outcome, n_final=[dict(outcome["n_final"][0], **index)] + outcome["n_final"][1:]))
        assert "block indices must lie in 0..999" in self.exit_four(capsys, argv)

    def test_literal_nested_to_the_reader_limit(self, capsys, documents):
        # the deepest literals the JSON reader takes are too deep for repr to show
        def reroute(depth):
            return self.exit_four(capsys, _REROUTE + ['{"attacked_priorities": [%s4%s]}' % ("[" * depth, "]" * depth)])

        taken, refused = 1, sys.getrecursionlimit()  # bisect for the deepest literal the reader takes
        while refused - taken > 1:
            depth = (taken + refused) // 2
            if "--attack: maximum recursion depth" in reroute(depth):
                refused = depth
            else:
                taken = depth
        for depth in range(taken - 20, taken + 1):
            assert "must be an integer" in reroute(depth)

    @pytest.mark.property
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_every_reader_exits_with_a_documented_code(self, tmp_path, capsys, documents, data):
        docs = json.loads(json.dumps(documents))  # each example edits its own copy
        name = data.draw(st.sampled_from(sorted(_READERS)), label="document")
        if name in ("table.json", "outcome.json") and data.draw(st.booleans(), label="move a row"):
            rows = docs[name] if name == "table.json" else docs[name]["n_final"]
            row = data.draw(st.sampled_from(rows), label="row")
            row[data.draw(st.sampled_from("ij"), label="index")] = 10 ** data.draw(st.integers(3, 40), label="k")
            text = json.dumps(docs[name])
        else:
            path = data.draw(st.sampled_from(list(_array_paths(docs[name]))), label="array")
            text = _wrapped(docs[name], path, data.draw(st.integers(1, 2000), label="levels"))
        (tmp_path / name).write_text(text, encoding="utf-8")
        argv = [text if arg == "@" else arg for arg in data.draw(st.sampled_from(_READERS[name]), label="argv")]
        code, captured = self.run(capsys, argv)
        assert code in (0, 2, 3, 4, 5)
        if code == 4:
            assert captured.out == "" and captured.err.startswith("input error:")
        (tmp_path / name).write_text(json.dumps(documents[name]), encoding="utf-8")
