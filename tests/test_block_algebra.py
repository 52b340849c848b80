"""Property tests: the vectorized block algebra against per-block loops, and
the Schur-diagonal stability test (behind is_stabilizing too) against dense
eigenvalues.

The loop references below are the per-block implementations the vectorized
helpers replaced. The helpers must reproduce them bit for bit (values and
the sign of zeros), because sweep patterns, polished costs and artifact
bytes depend on every rounding.
"""
import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sparselink import (
    BlockPartition,
    GainMatrix,
    LtiPlant,
    SparsityPattern,
    block_frobenius,
    block_soft_threshold,
    is_stabilizing,
)
from sparselink.h2 import _ClosedLoop
from sparselink.plant import STABILITY_TOL

# Zero blocks, blocks whose squares underflow or are subnormal, and
# ordinary magnitudes.
BLOCK_SCALES = (0.0, 1e-300, 1e-160, 1e-8, 1.0, 1e3)


def loop_block_norms(k, partition):
    n_nodes = partition.n_nodes
    norms = np.empty((n_nodes, n_nodes))
    for i in range(n_nodes):
        for j in range(n_nodes):
            ri, cj = partition.block(i, j)
            norms[i, j] = np.linalg.norm(k[ri, cj])
    return norms


def loop_soft_threshold(v, thresholds, partition):
    out = np.zeros_like(v)
    for i in range(partition.n_nodes):
        for j in range(partition.n_nodes):
            ri, cj = partition.block(i, j)
            blk = v[ri, cj]
            nrm = np.linalg.norm(blk)
            t = thresholds[i, j]
            if nrm > t:
                out[ri, cj] = (1.0 - t / nrm) * blk
    return out


def loop_structural_identity(mask, partition):
    ident = np.zeros((partition.m, partition.n))
    for i in range(partition.n_nodes):
        for j in range(partition.n_nodes):
            if mask[i, j]:
                ri, cj = partition.block(i, j)
                ident[ri, cj] = 1.0
    return ident


def assert_bitwise_equal(actual, expected):
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


@st.composite
def partitions(draw):
    n_nodes = draw(st.integers(1, 6))
    if draw(st.booleans()):
        rows = (draw(st.integers(1, 3)),) * n_nodes
        cols = (draw(st.integers(1, 4)),) * n_nodes
    else:
        sizes = st.lists(st.integers(1, 4), min_size=n_nodes, max_size=n_nodes)
        rows, cols = tuple(draw(sizes)), tuple(draw(sizes))
    return BlockPartition(rows, cols)


@st.composite
def gains(draw):
    partition = draw(partitions())
    n_nodes = partition.n_nodes
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scales = draw(
        st.lists(
            st.sampled_from(BLOCK_SCALES), min_size=n_nodes**2, max_size=n_nodes**2
        )
    )
    blockwise = np.array(scales).reshape(n_nodes, n_nodes)
    # a zero scale leaves -0.0 entries in the block, which must not leak out
    k = rng.standard_normal((partition.m, partition.n)) * partition.expand(blockwise)
    return GainMatrix(k, partition)


@settings(max_examples=200, deadline=None)
@given(gains())
def test_block_frobenius_matches_loop(gain):
    norms = block_frobenius(gain)
    assert_bitwise_equal(norms, loop_block_norms(gain.K, gain.partition))
    assert_bitwise_equal(gain.partition.block_norms(gain.K), norms)


@settings(max_examples=200, deadline=None)
@given(gains(), st.data())
def test_block_soft_threshold_matches_loop(gain, data):
    partition = gain.partition
    n_nodes = partition.n_nodes
    norms = loop_block_norms(gain.K, partition)
    # thresholds below, at (a tie keeps the block at zero) and above each norm
    ratios = data.draw(
        st.lists(
            st.sampled_from((0.0, 0.5, 1.0, 2.0)),
            min_size=n_nodes**2,
            max_size=n_nodes**2,
        )
    )
    thresholds = norms * np.array(ratios).reshape(n_nodes, n_nodes)
    out = block_soft_threshold(gain.K, thresholds, partition)
    expected = loop_soft_threshold(gain.K, thresholds, partition)
    assert_bitwise_equal(out, expected)
    zeroed = partition.expand(~(norms > thresholds))
    assert not np.any(np.signbit(out[zeroed]))


@settings(max_examples=200, deadline=None)
@given(gains(), st.sampled_from((0.0, 1e-300, 1e-6, 1.0)))
def test_pattern_helpers_match_loop(gain, threshold):
    pattern = SparsityPattern.from_gain(gain, threshold)
    expected_mask = loop_block_norms(gain.K, gain.partition) > threshold
    assert np.array_equal(pattern.mask, expected_mask)
    ident = pattern.structural_identity()
    assert ident.dtype == float
    assert_bitwise_equal(ident, loop_structural_identity(expected_mask, gain.partition))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 8),
    st.integers(0, 2**32 - 1),
    st.floats(-3.0, 1.0),
)
def test_schur_stability_matches_eigenvalues(n, seed, shift):
    a = np.random.default_rng(seed).standard_normal((n, n)) + shift * np.eye(n)
    abscissa = float(np.max(np.linalg.eigvals(a).real))
    assume(abs(abscissa + STABILITY_TOL) > 1e-8)
    eye = np.eye(n)
    plant = LtiPlant(a, eye, eye, eye, eye, BlockPartition((n,), (n,)))
    expected = abscissa < -STABILITY_TOL
    assert _ClosedLoop(plant, np.zeros((n, n))).stable == expected
    assert is_stabilizing(plant, np.zeros((n, n))) == expected
