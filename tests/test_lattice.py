"""Grid geometry: distances, neighborhood kernel, spec'd examples."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rfsom.lattice import (
    LatticeSpec,
    distance_matrix,
    neighborhood_weight,
    neuron_distance,
)

from oracles import gaussian_weight, hex_bfs_distances, manhattan_distance


def test_defaults_match_reference_setup():
    spec = LatticeSpec()
    assert (spec.rows, spec.cols) == (4, 4)
    assert spec.metric == "manhattan"
    assert spec.n_neurons == 16


def test_row_major_index_round_trip():
    spec = LatticeSpec(rows=3, cols=5)
    for i in range(spec.n_neurons):
        assert spec.index_of(spec.coord_of(i)) == i
    assert spec.coord_of(7) == (1, 2)
    for index in (-1, 15):
        with pytest.raises(ValueError, match=f"neuron index {index} out of range for 3x5 lattice"):
            spec.coord_of(index)


def test_invalid_spec_rejected():
    with pytest.raises(ValueError):
        LatticeSpec(rows=0, cols=4)
    with pytest.raises(ValueError):
        LatticeSpec(metric="euclidean")


def test_distance_identity_and_manhattan_example():
    spec = LatticeSpec()
    assert neuron_distance((0, 0), (0, 0), spec) == 0
    assert neuron_distance((0, 0), (2, 3), spec) == 5


def test_hex_adjacent_diagonal_example():
    spec = LatticeSpec(metric="hex-axial")
    assert neuron_distance((0, 0), (1, 1), spec) == 1


def test_out_of_range_coordinate_rejected():
    spec = LatticeSpec()
    with pytest.raises(ValueError):
        neuron_distance((0, 0), (4, 0), spec)
    with pytest.raises(ValueError):
        neuron_distance((-1, 0), (0, 0), spec)


@pytest.mark.parametrize("metric", ["manhattan", "hex-axial"])
def test_symmetry_and_triangle_inequality_exhaustive(metric):
    spec = LatticeSpec(metric=metric)
    coords = [spec.coord_of(i) for i in range(spec.n_neurons)]
    for a in coords:
        for b in coords:
            dab = neuron_distance(a, b, spec)
            assert dab == neuron_distance(b, a, spec)
            assert (dab == 0) == (a == b)
            for c in coords:
                assert dab <= neuron_distance(a, c, spec) + neuron_distance(c, b, spec)


@pytest.mark.parametrize("rows,cols", [(1, 2), (2, 2), (3, 4), (4, 4), (5, 5)])
def test_hex_distance_matches_geometric_bfs(rows, cols):
    spec = LatticeSpec(rows=rows, cols=cols, metric="hex-axial")
    bfs = hex_bfs_distances(rows, cols)
    coords = [spec.coord_of(i) for i in range(spec.n_neurons)]
    for a in coords:
        for b in coords:
            assert neuron_distance(a, b, spec) == bfs[(a, b)], (a, b)


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.data(),
)
def test_manhattan_matches_oracle(rows, cols, data):
    spec = LatticeSpec(rows=rows, cols=cols)
    a = (
        data.draw(st.integers(0, rows - 1)),
        data.draw(st.integers(0, cols - 1)),
    )
    b = (
        data.draw(st.integers(0, rows - 1)),
        data.draw(st.integers(0, cols - 1)),
    )
    assert neuron_distance(a, b, spec) == manhattan_distance(a, b)


def test_neighborhood_weight_examples():
    assert neighborhood_weight(0, 1.0) == 1.0
    assert neighborhood_weight(2, 1.0) == pytest.approx(math.exp(-2.0), rel=0, abs=1e-15)
    assert neighborhood_weight(1, 0.5) == pytest.approx(math.exp(-2.0), rel=0, abs=1e-15)


def test_neighborhood_weight_rejects_bad_sigma():
    with pytest.raises(ValueError):
        neighborhood_weight(1, 0.0)
    with pytest.raises(ValueError):
        neighborhood_weight(1, -1.0)


@given(st.floats(min_value=0.05, max_value=50.0, allow_nan=False))
def test_neighborhood_weight_monotone_and_bounded(sigma):
    prev = None
    for d in range(9):
        w = neighborhood_weight(d, sigma)
        # exp underflows to exactly 0.0 for tiny sigma at large d
        assert 0.0 <= w <= 1.0
        assert w == pytest.approx(gaussian_weight(d, sigma), rel=0, abs=1e-15)
        if prev is not None:
            assert w <= prev
        prev = w
    assert neighborhood_weight(0, sigma) == 1.0


def test_neighborhood_weight_vectorized():
    out = neighborhood_weight(np.array([0, 1, 2]), 1.0)
    assert out.shape == (3,)
    assert out[0] == 1.0
    assert isinstance(neighborhood_weight(0, 1.0), float)


_SIGMAS = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
_KERNEL_INPUTS = st.one_of(
    st.integers(0, 10**4),
    st.floats(-1e100, 1e100, allow_nan=False),
    st.lists(st.integers(0, 10**4), min_size=1, max_size=30).map(
        lambda v: np.array(v, dtype=np.int64)
    ),
    st.lists(st.floats(-1e100, 1e100, allow_nan=False), min_size=1, max_size=30).map(
        np.array
    ),
)


@given(_KERNEL_INPUTS, _SIGMAS)
def test_neighborhood_weight_bits_equal_negated_numerator_form(d, sigma):
    # negating the denominator instead of d*d is exact in IEEE arithmetic
    old = np.exp(-(np.asarray(d) * np.asarray(d)) / (2.0 * sigma * sigma))
    new = neighborhood_weight(d, sigma)
    assert np.asarray(new).tobytes() == old.tobytes()
    assert isinstance(new, float) == (old.ndim == 0)


@pytest.mark.parametrize("metric", ["manhattan", "hex-axial"])
def test_distance_matrix_agrees_with_pairwise(metric):
    spec = LatticeSpec(rows=3, cols=4, metric=metric)
    D = distance_matrix(spec)
    assert D.shape == (12, 12)
    for i in range(12):
        for j in range(12):
            assert D[i, j] == neuron_distance(spec.coord_of(i), spec.coord_of(j), spec)
    with pytest.raises(ValueError):
        D[0, 0] = 99  # cached matrix is read-only
