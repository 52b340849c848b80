"""JSON interchange: canonical formatting and bitwise round-trips."""
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sparselink import (
    BlockPartition,
    DimensionMismatch,
    GeneratorSpec,
    IndexOutOfRange,
    InvalidAssumption,
    SparsityPattern,
    attack_from_doc,
    dumps_canonical,
    gain_from_doc,
    gain_to_doc,
    generate_plant,
    outcome_from_doc,
    outcome_to_doc,
    pattern_from_doc,
    pattern_to_doc,
    plant_from_doc,
    plant_to_doc,
    rank_links,
    read_json,
    reroute_uniform,
    select_reroute,
    sparsity_sweep,
    synthesize_structured_info,
    table_from_doc,
    table_to_doc,
    write_json,
)


class TestCanonicalDump:
    def test_layout(self):
        assert dumps_canonical({"x": 1}) == '{\n  "x": 1\n}\n'

    def test_float_repr_round_trips(self):
        ugly = 0.1 + 0.2  # 0.30000000000000004
        text = dumps_canonical({"v": ugly})
        assert json.loads(text)["v"] == ugly

    def test_non_finite_float_is_rejected(self):
        # RFC 8259 JSON has no Infinity or NaN
        for v in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                dumps_canonical({"v": v})

    def test_trailing_newline(self):
        assert dumps_canonical([]).endswith("\n")


class TestPlantDoc:
    def test_bitwise_round_trip(self):
        plant = generate_plant(3, 0)
        doc = plant_to_doc(plant)
        back = plant_from_doc(json.loads(dumps_canonical(doc)))
        for name in ("A", "B", "W", "Q", "R"):
            assert np.array_equal(getattr(back, name), getattr(plant, name))
        assert back.partition == plant.partition

    def test_reserialization_is_byte_identical(self):
        plant = generate_plant(2, 4)
        text = dumps_canonical(plant_to_doc(plant))
        again = dumps_canonical(plant_to_doc(plant_from_doc(json.loads(text))))
        assert again == text

    def test_missing_field(self):
        doc = plant_to_doc(generate_plant(2, 0))
        del doc["Q"]
        with pytest.raises(InvalidAssumption):
            plant_from_doc(doc)

    def test_shape_mismatch(self):
        doc = plant_to_doc(generate_plant(2, 0))
        doc["B"] = [[1.0, 0.0]]
        with pytest.raises(DimensionMismatch):
            plant_from_doc(doc)
        good = plant_to_doc(generate_plant(2, 0))
        a = good["A"]
        for bad in ([["1.0"] * 4] + a[1:], [[True] * 4] + a[1:], [a[0][:3]] + a[1:]):
            with pytest.raises(InvalidAssumption):
                plant_from_doc(dict(good, A=bad))

    def test_non_object(self):
        with pytest.raises(InvalidAssumption):
            plant_from_doc([1, 2, 3])


class TestPatternDoc:
    def test_round_trip(self, ex1_partition):
        rng = np.random.default_rng(5)
        mask = rng.uniform(size=(4, 4)) < 0.5
        pattern = SparsityPattern(mask, ex1_partition)
        back = pattern_from_doc(json.loads(dumps_canonical(pattern_to_doc(pattern))))
        assert back.same_as(pattern)
        assert back.partition == pattern.partition

    def test_malformed(self):
        with pytest.raises(InvalidAssumption):
            pattern_from_doc({"rowBlockSizes": [1], "colBlockSizes": [1]})
        with pytest.raises(InvalidAssumption):
            pattern_from_doc({"mask": [[True]]})
        with pytest.raises(InvalidAssumption):
            pattern_from_doc([[True]])
        # block sizes are integers, not truncated floats or numeric strings
        with pytest.raises(InvalidAssumption):
            pattern_from_doc({"mask": [[True]], "rowBlockSizes": [1.9], "colBlockSizes": [1]})
        with pytest.raises(InvalidAssumption):
            pattern_from_doc({"mask": [[True]], "rowBlockSizes": [1], "colBlockSizes": ["2"]})
        # the mask holds JSON booleans only, nested regularly
        sizes = {"rowBlockSizes": [1, 1], "colBlockSizes": [1, 1]}
        for mask in ([["false", 0.5], [0, 1]], [[True, False], [True]], [[1, 0], [0, 1]]):
            with pytest.raises(InvalidAssumption):
                pattern_from_doc(dict(sizes, mask=mask))


class TestTableDoc:
    def test_round_trip_examples(self, ex1_table, ex2_table):
        for table in (ex1_table, ex2_table):
            back = table_from_doc(json.loads(dumps_canonical(table_to_doc(table))))
            assert back == table

    def test_row_order_normalized(self, ex1_table):
        doc = table_to_doc(ex1_table)
        shuffled = [doc[4], doc[0], doc[8], doc[2], doc[6], doc[1], doc[5], doc[3], doc[7]]
        assert table_from_doc(shuffled) == ex1_table

    def test_malformed_row(self):
        with pytest.raises(InvalidAssumption):
            table_from_doc([{"i": 0, "j": 0}])
        with pytest.raises(InvalidAssumption):
            table_from_doc({"not": "a list"})
        row = {"i": 0, "j": 0, "q": 1, "s": 1, "values": [1.0]}
        assert table_from_doc([row]).rows[0].i == 0
        with pytest.raises(InvalidAssumption):
            table_from_doc([dict(row, i=0.9)])
        with pytest.raises(InvalidAssumption):
            table_from_doc([dict(row, j="0")])
        for index in ("i", "j"):
            with pytest.raises(InvalidAssumption):
                table_from_doc([dict(row, **{index: -1})])
        # values are JSON numbers: no strings, bools or nested lists
        for values in (["1.5"], [True], "12", [[1.0]]):
            with pytest.raises(InvalidAssumption):
                table_from_doc([dict(row, values=values)])


class TestOutcomeDoc:
    def test_feasible_round_trip(self, ex1_table):
        out = reroute_uniform(ex1_table, {3, 7, 8})
        back = outcome_from_doc(json.loads(dumps_canonical(outcome_to_doc(out))))
        assert back == out

    def test_no_attack_round_trip(self, ex1_table):
        out = reroute_uniform(ex1_table, set())
        back = outcome_from_doc(json.loads(dumps_canonical(outcome_to_doc(out))))
        assert back == out

    def test_infeasible_doc_round_trip(self, ex1_table):
        # the document has no attacked field, so an infeasible outcome only
        # promises document-level (doc -> obj -> doc) identity
        out = reroute_uniform(ex1_table, {4, 5, 6, 7, 8})
        assert not out.feasible
        doc = outcome_to_doc(out)
        text = dumps_canonical(doc)
        again = dumps_canonical(outcome_to_doc(outcome_from_doc(json.loads(text))))
        assert again == text

    def test_malformed(self, ex1_table):
        with pytest.raises(InvalidAssumption):
            outcome_from_doc({"feasible": True})
        with pytest.raises(InvalidAssumption):
            outcome_from_doc("nope")
        doc = outcome_to_doc(reroute_uniform(ex1_table, {3, 7, 8}))
        with pytest.raises(InvalidAssumption):
            outcome_from_doc(dict(doc, feasible="false"))
        with pytest.raises(InvalidAssumption):
            outcome_from_doc(dict(doc, rerouted=[1.5]))


@pytest.mark.usefixtures("one_reweight")
class TestRankedDocProperties:
    # The fixture patches a module constant once for all examples.
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n_nodes=st.integers(2, 3), seed=st.integers(0, 10_000), data=st.data())
    def test_round_trip_and_impossible_edits(self, n_nodes, seed, data):
        plant = GeneratorSpec(n_nodes, seed).plant()
        table = rank_links(plant, sparsity_sweep(plant, (0.05, 0.5)))
        attacked = data.draw(st.frozensets(st.integers(1, table.r1)), label="attacked")
        outcome = select_reroute(table, attacked)
        table_doc = json.loads(dumps_canonical(table_to_doc(table)))
        outcome_doc = json.loads(dumps_canonical(outcome_to_doc(outcome)))

        assert table_from_doc(table_doc) == table
        back = outcome_from_doc(outcome_doc)
        # the document has no attacked field, so an infeasible outcome only
        # round-trips as a document
        assert back == outcome if outcome.feasible else outcome_to_doc(back) == outcome_doc

        k = data.draw(st.integers(0, table.r1 - 1), label="row")
        if table.r1 > 1:
            other = data.draw(st.integers(0, table.r1 - 1).filter(lambda o: o != k), label="other")
            copied = [dict(row) for row in table_doc]
            copied[k].update(i=table_doc[other]["i"], j=table_doc[other]["j"])
            with pytest.raises(InvalidAssumption):
                table_from_doc(copied)
        empty = [dict(row) for row in table_doc]
        empty[k].update(s=0, values=[0.0] * table.r2)
        with pytest.raises(InvalidAssumption):
            table_from_doc(empty)
        field = data.draw(st.sampled_from(["sacrificed", "rerouted", "dropped"]), label="field")
        q = data.draw(st.sampled_from([0, table.r1 + 1]), label="q")
        with pytest.raises(InvalidAssumption):
            outcome_from_doc(dict(outcome_doc, **{field: outcome_doc[field] + [q]}))


class TestGainDoc:
    def test_round_trip(self):
        plant = generate_plant(2, 2)
        pattern = SparsityPattern.diagonal(plant.partition)
        info = synthesize_structured_info(plant, pattern)
        doc = json.loads(dumps_canonical(gain_to_doc(info, pattern)))
        gain = gain_from_doc(doc, plant.partition)
        assert np.array_equal(gain.K, info.gain.K)
        assert doc["J"] == info.cost
        assert doc["iterations"] == info.iterations
        assert doc["converged"] == info.converged
        assert doc["pattern"] == [[bool(v) for v in row] for row in pattern.mask]

    def test_shape_checked(self):
        part = BlockPartition((1,), (2,))
        with pytest.raises(DimensionMismatch):
            gain_from_doc({"K": [[1.0, 2.0, 3.0]]}, part)
        for k in ([[1.0, "2.0"]], [[1.0, False]], [[1.0, 2.0], [3.0]]):
            with pytest.raises(InvalidAssumption):
                gain_from_doc({"K": k}, part)
        with pytest.raises(InvalidAssumption):
            gain_from_doc({}, part)


class TestAttackDoc:
    def test_explicit_priorities(self):
        assert attack_from_doc({"attacked_priorities": [3, 7, 8]}, 9) == frozenset({3, 7, 8})

    def test_top_count(self):
        assert attack_from_doc({"attacked_top": 3}, 9) == frozenset({7, 8, 9})

    def test_top_fraction(self):
        # round(2.5) banker-rounds to 2
        assert attack_from_doc({"top_fraction": 0.25}, 10) == frozenset({9, 10})

    def test_zero_fraction(self):
        assert attack_from_doc({"top_fraction": 0.0}, 5) == frozenset()

    def test_none_means_no_attack(self):
        assert attack_from_doc(None, 9) == frozenset()

    def test_rejections(self, ex1_table):
        # an explicit priority below 1 is out of every table's range; its
        # upper bound is checked where it meets the table
        for q in (0, -5):
            with pytest.raises(IndexOutOfRange, match="below 1"):
                attack_from_doc({"attacked_priorities": [2, q]}, 9)
        assert attack_from_doc({"attacked_priorities": [10]}, 9) == frozenset({10})
        with pytest.raises(IndexOutOfRange):
            select_reroute(ex1_table, attack_from_doc({"attacked_priorities": [10]}, 9))
        with pytest.raises(InvalidAssumption, match="below 0"):
            attack_from_doc({"attacked_top": -1}, 9)
        with pytest.raises(InvalidAssumption, match="unknown attack spec keys"):
            attack_from_doc({"attacked_block": 1}, 9)
        with pytest.raises(InvalidAssumption):
            attack_from_doc({"attacked_top": 10}, 9)
        with pytest.raises(InvalidAssumption):
            attack_from_doc({"top_fraction": 1.5}, 9)
        with pytest.raises(InvalidAssumption):
            attack_from_doc({"mystery": 1}, 9)
        with pytest.raises(InvalidAssumption):
            attack_from_doc({"attacked_top": 1, "top_fraction": 0.5}, 9)
        with pytest.raises(InvalidAssumption):
            attack_from_doc([1, 2], 9)
        # values are rejected, not truncated or coerced
        for doc in (
            {"attacked_top": 2.5},
            {"attacked_priorities": [1.7, "2"]},
            {"attacked_priorities": "12"},
            {"attacked_priorities": [True]},
            {"attacked_top": True},
            {"top_fraction": True},
            {"top_fraction": "0.5"},
        ):
            with pytest.raises(InvalidAssumption):
                attack_from_doc(doc, 5)


class TestFileIo:
    def test_write_read(self, tmp_path, ex1_table):
        path = tmp_path / "table.json"
        doc = table_to_doc(ex1_table)
        write_json(path, doc)
        assert path.read_text(encoding="utf-8") == dumps_canonical(doc)
        assert table_from_doc(read_json(path)) == ex1_table


def _with_entry(doc, key, value):
    """doc with value in place of the first entry of its matrix doc[key]."""
    doc[key][0][0] = value
    return doc


_SIZES = {"rowBlockSizes": [1, 1], "colBlockSizes": [2, 2]}
_ROW = {"i": 0, "j": 0, "q": 1, "s": 1, "values": [1.0]}

# reader name -> (kind it takes, the field its message names, the read of a value)
_READERS = {
    "plant_from_doc": ("number", "A entry", lambda v: plant_from_doc(
        _with_entry(plant_to_doc(generate_plant(2, 0)), "A", v))),
    "gain_from_doc": ("number", "K entry", lambda v: gain_from_doc(
        _with_entry({"K": [[0.0] * 4, [0.0] * 4]}, "K", v), BlockPartition((1, 1), (2, 2)))),
    "table_from_doc": ("number", "values entry", lambda v: table_from_doc([dict(_ROW, values=[v])])),
    "pattern_from_doc": ("boolean", "mask entry", lambda v: pattern_from_doc(
        _with_entry(dict(_SIZES, mask=[[True, False], [False, True]]), "mask", v))),
    "outcome_from_doc": ("boolean", "feasible", lambda v: outcome_from_doc(
        {"feasible": v, "sacrificed": [], "rerouted": [], "dropped": [], "n_final": [_ROW]})),
    "attack_from_doc": ("number", "top_fraction", lambda v: attack_from_doc({"top_fraction": v}, 4)),
    "GeneratorSpec": ("number", "generator delta", lambda v: GeneratorSpec(2, 0, delta=v)),
    "sparsity_sweep": ("number", "beta schedule entry", lambda v: sparsity_sweep(generate_plant(2, 0), [0.05, v])),
}
# a number no double holds, the other kind, and a string
_NOT_OF_KIND = {
    "number": (("huge", 10 ** 400), ("bool", True), ("string", "1")),
    "boolean": (("huge", 10 ** 400), ("number", 1), ("string", "1")),
}


@pytest.mark.parametrize("reader, value", [
    pytest.param(reader, value, id=f"{reader}-{label}")
    for reader, (kind, _, _) in _READERS.items() for label, value in _NOT_OF_KIND[kind]
])
def test_every_reader_takes_only_its_value_kind(reader, value):
    _, field, read = _READERS[reader]
    with pytest.raises(InvalidAssumption, match=field):
        read(value)


def test_integer_past_the_digit_limit(tmp_path):
    path = tmp_path / "seed.json"
    path.write_text('{"seed": %s}' % ("1" * 5000), encoding="utf-8")
    with pytest.raises(InvalidAssumption, match="seed.json"):
        read_json(path)
    path.write_text('{"seed": ', encoding="utf-8")
    with pytest.raises(json.JSONDecodeError):
        read_json(path)
