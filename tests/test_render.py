"""Text and SVG rendering of block grids, and the text parser inverse."""
import dataclasses

import numpy as np
import pytest

from sparselink import (
    BlockPartition,
    DimensionMismatch,
    PriorityTable,
    SparsityPattern,
    UnknownFormat,
    classify_blocks,
    parse_pattern,
    pattern_from,
    render_pattern,
    render_svg,
    render_text,
    reroute_uniform,
)

EX1_ATTACK = {3, 7, 8}


class TestClassify:
    def test_pattern_grid(self, ex1_table, ex1_partition):
        mask = np.zeros((4, 4), dtype=bool)
        for row in ex1_table.rows:
            mask[row.i, row.j] = True
        grid = classify_blocks(SparsityPattern(mask, ex1_partition))
        assert render_text(grid) == "■·■■\n·■·■\n·■··\n■■·■\n"

    def test_outcome_grid(self, ex1_table, ex1_partition):
        out = reroute_uniform(ex1_table, EX1_ATTACK)
        grid = classify_blocks(ex1_table, outcome=out, partition=ex1_partition)
        assert render_text(grid) == "S·■R\n·A·R\n·■··\nS■·■\n"

    def test_attacked_set_grid(self, ex1_table, ex1_partition):
        grid = classify_blocks(ex1_table, attacked=EX1_ATTACK, partition=ex1_partition)
        assert render_text(grid) == "■·■A\n·A·A\n·■··\n■■·■\n"

    def test_plain_table_grid(self, ex1_table):
        grid = classify_blocks(ex1_table)
        assert grid.shape == (4, 4)
        assert render_text(grid) == "■·■■\n·■·■\n·■··\n■■·■\n"

    def test_empty_pattern(self, ex1_partition):
        grid = classify_blocks(SparsityPattern.empty(ex1_partition))
        assert render_text(grid) == "····\n····\n····\n····\n"

    def test_unrenderable_source(self):
        with pytest.raises(UnknownFormat):
            classify_blocks("not a pattern")

    def test_partition_too_small(self, ex1_table):
        small = BlockPartition((1, 1), (2, 2))
        with pytest.raises(DimensionMismatch):
            classify_blocks(ex1_table, partition=small)

    def test_negative_index_outside_grid(self, ex1_table, ex1_partition):
        rows = (dataclasses.replace(ex1_table.rows[0], i=-1),) + ex1_table.rows[1:]
        with pytest.raises(DimensionMismatch):
            classify_blocks(PriorityTable(rows), partition=ex1_partition)

    def test_empty_table_has_no_extent(self, ex1_partition):
        with pytest.raises(DimensionMismatch):
            classify_blocks(PriorityTable(()))
        grid = classify_blocks(PriorityTable(()), partition=ex1_partition)
        assert render_text(grid) == "····\n····\n····\n····\n"


class TestParse:
    def test_round_trip_plain(self, ex1_partition):
        rng = np.random.default_rng(3)
        mask = rng.uniform(size=(4, 4)) < 0.4
        pattern = SparsityPattern(mask, ex1_partition)
        text = render_pattern(pattern)
        back = parse_pattern(text, ex1_partition)
        assert back.same_as(pattern)

    def test_post_attack_text_parses_to_post_attack_pattern(
        self, ex1_table, ex1_partition
    ):
        out = reroute_uniform(ex1_table, EX1_ATTACK)
        text = render_pattern(ex1_table, outcome=out, partition=ex1_partition)
        parsed = parse_pattern(text, ex1_partition)
        assert parsed.same_as(pattern_from(out, ex1_partition))

    def test_bare_mask_without_partition(self):
        mask = parse_pattern("■·\n·■\n")
        assert isinstance(mask, np.ndarray)
        assert np.array_equal(mask, np.array([[True, False], [False, True]]))

    def test_blank_lines_skipped(self):
        mask = parse_pattern("\n■·\n\n·■\n\n")
        assert mask.shape == (2, 2)

    def test_empty_text(self):
        with pytest.raises(UnknownFormat):
            parse_pattern("")
        with pytest.raises(UnknownFormat):
            parse_pattern("   \n  \n")

    def test_ragged_text(self):
        with pytest.raises(UnknownFormat):
            parse_pattern("■·\n■\n")

    def test_unknown_character(self):
        with pytest.raises(UnknownFormat):
            parse_pattern("■X\n··\n")


class TestSvg:
    def test_cell_count_and_size(self, ex1_table, ex1_partition):
        out = reroute_uniform(ex1_table, EX1_ATTACK)
        svg = render_pattern(ex1_table, "svg", outcome=out, partition=ex1_partition)
        assert svg.count("<rect") == 16
        assert 'width="112"' in svg and 'height="112"' in svg
        assert svg.startswith("<?xml")
        assert svg.rstrip().endswith("</svg>")

    def test_outcome_colors(self, ex1_table, ex1_partition):
        out = reroute_uniform(ex1_table, EX1_ATTACK)
        svg = render_pattern(ex1_table, "svg", outcome=out, partition=ex1_partition)
        assert svg.count('fill="#c53030"') == 1  # dropped q3
        assert svg.count('fill="#dd6b20"') == 2  # sacrificed q1, q2
        assert svg.count('fill="#2f855a"') == 2  # rerouted q7, q8
        assert svg.count('fill="#2b6cb0"') == 4  # surviving free blocks
        # count rect fills only; text labels reuse the white color
        assert svg.count('fill="#ffffff" stroke') == 7

    def test_table_labels(self, ex1_table, ex1_partition):
        svg = render_pattern(ex1_table, "svg", partition=ex1_partition)
        for q in range(1, 10):
            assert f">q{q} s2</text>" in svg
        assert svg.count("<text") == 9

    def test_partition_labels_for_plain_pattern(self, ex2_partition):
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 0] = True
        mask[1, 2] = True
        pattern = SparsityPattern(mask, ex2_partition)
        svg = render_pattern(pattern, "svg")
        assert ">s2</text>" in svg  # block (0,0) spans 1x2
        assert ">s4</text>" in svg  # block (1,2) spans 1x4
        assert svg.count("<text") == 2

    def test_direct_grid_call(self):
        grid = np.array([["■", "·"]], dtype="<U1")
        svg = render_svg(grid)
        assert svg.count("<rect") == 2
        assert svg.count("<text") == 0


class TestDispatcher:
    def test_text_default(self, ex1_partition):
        pattern = SparsityPattern.diagonal(ex1_partition)
        assert render_pattern(pattern) == "■···\n·■··\n··■·\n···■\n"

    def test_unknown_format(self, ex1_partition):
        with pytest.raises(UnknownFormat):
            render_pattern(SparsityPattern.full(ex1_partition), "png")
