"""Core type validation: partitions, gains, patterns, plants."""
import json

import numpy as np
import pytest

from sparselink import (
    BlockPartition,
    DimensionMismatch,
    GainMatrix,
    InvalidAssumption,
    LtiPlant,
    NotStabilizing,
    SparsityPattern,
    plant_from_doc,
    plant_to_doc,
)


def simple_plant():
    part = BlockPartition((1, 1), (2, 2))
    a = -np.eye(4)
    b = np.vstack([np.hstack([[[10.0], [0.0]], np.zeros((2, 1))]),
                   np.hstack([np.zeros((2, 1)), [[10.0], [0.0]]])])
    return LtiPlant(a, b, 0.5 * np.eye(4), np.eye(4), np.eye(2), part)


class TestBlockPartition:
    def test_dimensions(self):
        p = BlockPartition((1, 2), (3, 4))
        assert p.n_nodes == 2
        assert p.m == 3
        assert p.n == 7

    def test_block_slices(self):
        p = BlockPartition((1, 2), (3, 4))
        ri, cj = p.block(1, 0)
        assert (ri.start, ri.stop) == (1, 3)
        assert (cj.start, cj.stop) == (0, 3)

    def test_block_out_of_grid(self):
        p = BlockPartition((1, 2), (3, 4))
        with pytest.raises(DimensionMismatch):
            p.block(2, 0)
        with pytest.raises(DimensionMismatch):
            p.block(0, -1)

    def test_block_sizes(self):
        p = BlockPartition((1, 2), (3, 4))
        assert np.array_equal(p.block_sizes(), [[3, 4], [6, 8]])

    def test_mismatched_counts(self):
        with pytest.raises(DimensionMismatch):
            BlockPartition((1, 2), (3,))

    def test_nonpositive_size(self):
        with pytest.raises(DimensionMismatch):
            BlockPartition((1, 0), (1, 1))

    @pytest.mark.parametrize("size", [1.7, 2.0, True, "2"])
    def test_non_integer_size_is_rejected(self, size):
        # a size is never truncated: (1.7, True) used to build (1, 1)
        with pytest.raises(InvalidAssumption, match="block size must be an integer"):
            BlockPartition((size, 1), (2, 2))
        with pytest.raises(InvalidAssumption, match="block size must be an integer"):
            BlockPartition((1, 1), (2, size))

    def test_numpy_integer_sizes_are_stored_as_int(self):
        p = BlockPartition(np.array([1, 2]), (np.int64(3), np.int32(4)))
        assert p.row_sizes == (1, 2) and p.col_sizes == (3, 4)
        assert all(type(s) is int for s in p.row_sizes + p.col_sizes)
        plant = LtiPlant(-np.eye(7), np.ones((7, 3)), np.eye(7), np.eye(7), np.eye(3), p)
        assert plant_from_doc(json.loads(json.dumps(plant_to_doc(plant)))).partition == p

    def test_check_gain_shape(self):
        p = BlockPartition((1, 2), (3, 4))
        p.check_gain_shape(np.zeros((3, 7)))
        with pytest.raises(DimensionMismatch):
            p.check_gain_shape(np.zeros((3, 6)))


class TestGainMatrix:
    def test_block_extraction(self, ex1_gain):
        assert np.array_equal(ex1_gain.block(0, 0), [[3.0, 1.0]])
        assert np.array_equal(ex1_gain.block(3, 1), [[6.0, 8.0]])
        assert np.array_equal(ex1_gain.block(2, 0), [[0.0, 0.0]])

    def test_frozen_storage(self, ex1_gain):
        with pytest.raises(ValueError):
            ex1_gain.K[0, 0] = 99.0

    def test_project(self, ex1_gain, ex1_partition):
        pattern = SparsityPattern.diagonal(ex1_partition)
        projected = ex1_gain.project(pattern)
        assert np.array_equal(projected.block(0, 0), [[3.0, 1.0]])
        assert np.array_equal(projected.block(0, 2), [[0.0, 0.0]])

    def test_unchanged_gain_comes_back_as_itself(self, ex1_gain, ex1_partition):
        # a projection that leaves the gain bit for bit as it is returns the
        # gain itself (with any closed loop it carries); any change makes a
        # new gain
        assert ex1_gain.project(SparsityPattern.from_gain(ex1_gain, 0.0)) is ex1_gain
        assert ex1_gain.project(SparsityPattern.full(ex1_partition)) is ex1_gain
        diagonal = SparsityPattern.diagonal(ex1_partition)
        projected = ex1_gain.project(diagonal)
        assert projected is not ex1_gain
        assert projected.project(diagonal) is projected

    def test_project_onto_another_grid_rejected(self, ex1_gain, ex1_partition):
        # the same 4 x 8 matrix in other blocks, and one node over all of it
        for part in (BlockPartition((1, 1, 1, 1), (1, 3, 2, 2)), BlockPartition((4,), (8,))):
            with pytest.raises(DimensionMismatch):
                ex1_gain.project(SparsityPattern.full(part))

    def test_nonfinite_rejected(self):
        part = BlockPartition((1,), (1,))
        with pytest.raises(DimensionMismatch):
            GainMatrix(np.array([[np.nan]]), part)

    def test_shape_checked(self, ex1_partition):
        with pytest.raises(DimensionMismatch):
            GainMatrix(np.zeros((4, 7)), ex1_partition)


class TestSparsityPattern:
    def test_constructors(self, ex1_partition):
        full = SparsityPattern.full(ex1_partition)
        empty = SparsityPattern.empty(ex1_partition)
        diag = SparsityPattern.diagonal(ex1_partition)
        assert full.n_free == 16
        assert empty.n_free == 0
        assert diag.n_free == 4
        assert empty.is_subset(diag) and diag.is_subset(full)
        assert not full.is_subset(diag)

    def test_from_gain(self, ex1_gain):
        pattern = SparsityPattern.from_gain(ex1_gain, 1e-9)
        expected = np.array(
            [
                [True, False, True, True],
                [False, True, False, True],
                [False, True, False, False],
                [True, True, False, True],
            ]
        )
        assert np.array_equal(pattern.mask, expected)
        assert pattern.n_free == 9

    def test_structural_identity(self, ex1_partition):
        diag = SparsityPattern.diagonal(ex1_partition)
        ident = diag.structural_identity()
        assert ident.shape == (4, 8)
        assert ident[0, 0] == 1.0 and ident[0, 1] == 1.0
        assert ident[0, 2] == 0.0
        comp = diag.complement_identity()
        assert np.array_equal(ident + comp, np.ones((4, 8)))

    def test_free_blocks_and_without(self, ex1_partition):
        diag = SparsityPattern.diagonal(ex1_partition)
        assert diag.free_blocks() == ((0, 0), (1, 1), (2, 2), (3, 3))
        reduced = diag.without_block(1, 1)
        assert reduced.n_free == 3
        assert diag.n_free == 4
        assert reduced.is_subset(diag)
        assert not diag.same_as(reduced)
        assert diag.same_as(SparsityPattern.diagonal(ex1_partition))

    def test_mask_shape_checked(self, ex1_partition):
        with pytest.raises(DimensionMismatch):
            SparsityPattern(np.ones((3, 4), dtype=bool), ex1_partition)


class TestLtiPlant:
    def test_valid_construction(self):
        plant = simple_plant()
        assert plant.n == 4 and plant.m == 2 and plant.W.shape[1] == 4

    def test_shape_errors(self):
        part = BlockPartition((1,), (2,))
        ok = dict(
            A=-np.eye(2), B=np.array([[1.0], [0.0]]), W=np.eye(2),
            Q=np.eye(2), R=np.eye(1),
        )
        for field, bad in [
            ("A", np.eye(3)),
            ("B", np.ones((2, 2))),
            ("W", np.eye(3)),
            ("Q", np.eye(3)),
            ("R", np.eye(2)),
        ]:
            kwargs = dict(ok)
            kwargs[field] = bad
            with pytest.raises(DimensionMismatch):
                LtiPlant(partition=part, **kwargs)

    def test_weight_validation(self):
        part = BlockPartition((1,), (2,))
        a = -np.eye(2)
        b = np.array([[1.0], [0.0]])
        with pytest.raises(DimensionMismatch):  # Q not symmetric
            LtiPlant(a, b, np.eye(2), np.array([[1.0, 2.0], [0.0, 1.0]]), np.eye(1), part)
        with pytest.raises(DimensionMismatch):  # Q indefinite
            LtiPlant(a, b, np.eye(2), -np.eye(2), np.eye(1), part)
        with pytest.raises(DimensionMismatch):  # R only PSD
            LtiPlant(a, b, np.eye(2), np.eye(2), np.zeros((1, 1)), part)

    def test_stabilizability_checked(self):
        # unstable mode unreachable from B
        part = BlockPartition((1,), (2,))
        a = np.diag([1.0, -1.0])
        b = np.array([[0.0], [1.0]])
        with pytest.raises(NotStabilizing):
            LtiPlant(a, b, np.eye(2), np.eye(2), np.eye(1), part)

    def test_detectability_checked(self):
        # unstable mode invisible in Q
        part = BlockPartition((1,), (2,))
        a = np.diag([1.0, -1.0])
        b = np.array([[1.0], [0.0]])
        q = np.diag([0.0, 1.0])
        with pytest.raises(NotStabilizing):
            LtiPlant(a, b, np.eye(2), q, np.eye(1), part)

    def test_state_weight_sqrt(self):
        rng = np.random.default_rng(7)
        m = rng.uniform(-1.0, 1.0, size=(3, 3))
        q = m @ m.T + 0.5 * np.eye(3)
        part = BlockPartition((1,), (3,))
        plant = LtiPlant(-np.eye(3), rng.uniform(size=(3, 1)), np.eye(3), q, np.eye(1), part)
        root = plant.state_weight_sqrt()
        assert np.allclose(root @ root, q, atol=1e-12)
        assert np.allclose(root, root.T, atol=1e-12)
