"""Heatmaps, neuron distance maps, encoding reports, cluster statistics,
and their export formats."""

import json
import math
import warnings

import numpy as np
import pytest

from rfsom.analysis import (
    EncodingReport,
    build_distance_map,
    build_encoding_report,
    build_heatmaps,
    cluster_separation_ratio,
    heatmap_csv_text,
    heatmap_pgm_bytes,
    report_json_dict,
)
from rfsom.fileio import dump_json
from rfsom.lattice import LatticeSpec, neuron_distance
from rfsom.mrf import ReceptiveFieldMask, default_quadrant_mask, home_group
from rfsom.som import Codebook, init_codebook

from oracles import distance_map_scan, group_distance_scan, union_rms_distance_scan


def all_true_mask(rows, cols, dims, groups=None):
    return ReceptiveFieldMask(rows, cols, np.ones((rows * cols, dims), dtype=bool), groups)


def random_case(rng, rows=3, cols=3, dims=5):
    lattice = LatticeSpec(rows=rows, cols=cols)
    cb = Codebook(rng.uniform(-2.0, 2.0, size=(rows * cols, dims)), lattice)
    while True:
        m = rng.uniform(size=(rows * cols, dims)) < 0.6
        if m.any(axis=1).all() and m.any(axis=0).all():
            break
    return cb, ReceptiveFieldMask(rows, cols, m)


# ------------------------------------------------------------- heatmaps

def test_heatmaps_shape_and_exact_values():
    cb = init_codebook(LatticeSpec(), 7, 0)
    mask = default_quadrant_mask()
    grids = build_heatmaps(cb, mask)
    assert grids.shape == (7, 4, 4)
    for j in range(7):
        for i in range(16):
            r, c = cb.lattice.coord_of(i)
            if mask.mask[i, j]:
                assert grids[j, r, c] == cb.weights[i, j]  # exact, no rescaling
            else:
                assert math.isnan(grids[j, r, c])


def test_heatmaps_constant_codebook():
    lat = LatticeSpec(rows=2, cols=2)
    cb = Codebook(np.full((4, 3), 0.7), lat)
    grids = build_heatmaps(cb, all_true_mask(2, 2, 3))
    assert grids.shape == (3, 2, 2)
    assert (grids == 0.7).all()


def test_heatmaps_reject_shape_mismatch():
    cb = init_codebook(LatticeSpec(), 5, 0)
    with pytest.raises(ValueError):
        build_heatmaps(cb, default_quadrant_mask())


# ------------------------------------------------------------- distance map

def test_distance_map_identical_rows_is_zero():
    cb = Codebook(np.full((16, 7), 1.5), LatticeSpec())
    dmap = build_distance_map(cb, default_quadrant_mask())
    assert (dmap.grid == 0.0).all()


def test_distance_map_two_neuron_example():
    lat = LatticeSpec(rows=1, cols=2)
    cb = Codebook(np.array([[0.0, 0.0], [3.0, 4.0]]), lat)
    dmap = build_distance_map(cb, all_true_mask(1, 2, 2))
    want = 5.0 / math.sqrt(2.0)  # pair distance 5, RMS over the 2-dim union
    assert dmap.grid[0, 0] == pytest.approx(want, rel=0, abs=1e-15)
    assert dmap.grid[0, 1] == pytest.approx(want, rel=0, abs=1e-15)


def test_distance_map_single_neuron_has_no_neighbors():
    cb = Codebook(np.array([[1.0, 2.0]]), LatticeSpec(rows=1, cols=1))
    dmap = build_distance_map(cb, all_true_mask(1, 1, 2))
    assert dmap.grid.shape == (1, 1)
    assert dmap.grid[0, 0] == 0.0


@pytest.mark.parametrize("metric", ["manhattan", "hex-axial"])
def test_distance_map_matches_oracle(metric):
    rng = np.random.default_rng(44)
    for _ in range(20):
        rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        lattice = LatticeSpec(rows=rows, cols=cols, metric=metric)
        cb = Codebook(rng.uniform(-2, 2, size=(rows * cols, 4)), lattice)
        while True:
            m = rng.uniform(size=(rows * cols, 4)) < 0.6
            if m.any(axis=1).all() and m.any(axis=0).all():
                break
        mask = ReceptiveFieldMask(rows, cols, m)
        dmap = build_distance_map(cb, mask)
        coords = [lattice.coord_of(i) for i in range(lattice.n_neurons)]
        want = distance_map_scan(
            cb.weights.tolist(),
            m.tolist(),
            coords,
            lambda i, j: neuron_distance(coords[i], coords[j], lattice),
        )
        for coord, value in want.items():
            assert dmap.grid[coord] == pytest.approx(value, rel=0, abs=1e-12)


# ------------------------------------------------------------- encoding report

def test_encoding_classification_threshold():
    lat = LatticeSpec(rows=1, cols=3)
    w = np.array([[0.9, 0.1], [0.9, 0.3], [0.9, -0.05]])
    cb = Codebook(w, lat)
    rep = build_encoding_report(cb, all_true_mask(1, 3, 2))
    # 0.1 < 0.25 * 0.9: second joint does not count toward a combination
    assert rep.neurons[0].argmax_joint == "dim_0"
    assert rep.neurons[0].classification == "single-joint"
    assert rep.neurons[1].classification == "combination"
    assert rep.neurons[2].classification == "inhibitory-combination"
    assert rep.neurons[0].weights == (0.9, 0.1)
    assert rep.group_order == ("ungrouped",)


def test_encoding_argmax_uses_magnitude():
    lat = LatticeSpec(rows=1, cols=1)
    cb = Codebook(np.array([[0.2, -0.8]]), lat)
    rep = build_encoding_report(cb, all_true_mask(1, 1, 2))
    assert rep.neurons[0].argmax_joint == "dim_1"
    assert rep.neurons[0].classification == "inhibitory-combination"


def test_encoding_respects_mask_active_set():
    mask = default_quadrant_mask()
    cb = init_codebook(LatticeSpec(), 7, 2)
    rep = build_encoding_report(cb, mask)
    for n, enc in enumerate(rep.neurons):
        active = np.flatnonzero(mask.mask[n])
        assert len(enc.active_joints) == active.size
        assert enc.weights == tuple(cb.weights[n, active])
        assert enc.argmax_joint in enc.active_joints
        assert enc.group == home_group(mask.groups[n])
    assert len(rep.neurons) == 16


def test_encoding_every_neuron_exactly_one_group():
    mask = default_quadrant_mask()
    cb = init_codebook(LatticeSpec(), 7, 3)
    rep = build_encoding_report(cb, mask)
    seen = [enc.index for enc in rep.neurons]
    assert seen == list(range(16))
    counts = {g: 0 for g in rep.group_order}
    for enc in rep.neurons:
        counts[enc.group] += 1
    assert sum(counts.values()) == 16
    assert sorted(np.concatenate(list(mask.group_indices().values()))) == list(range(16))


def test_group_distance_matrix_properties_and_oracle():
    mask = default_quadrant_mask()
    cb = init_codebook(LatticeSpec(), 7, 5)
    rep = build_encoding_report(cb, mask)
    d = rep.group_distances
    assert d.shape == (4, 4)
    assert (d >= 0.0).all()
    assert (np.diag(d) == 0.0).all()
    np.testing.assert_array_equal(d, d.T)
    indices = mask.group_indices()
    for a, ga in enumerate(rep.group_order):
        for b, gb in enumerate(rep.group_order):
            if a == b:
                continue
            want = group_distance_scan(
                cb.weights.tolist(),
                mask.mask.tolist(),
                [int(i) for i in indices[ga]],
                [int(j) for j in indices[gb]],
            )
            assert d[a, b] == pytest.approx(want, rel=0, abs=1e-12)


def test_group_distances_of_constant_codebook_are_zero():
    mask = default_quadrant_mask()
    cb = Codebook(np.full((16, 7), 0.25), LatticeSpec())
    rep = build_encoding_report(cb, mask)
    assert (rep.group_distances == 0.0).all()


def test_encoding_threshold_validation():
    cb = init_codebook(LatticeSpec(), 7, 0)
    with pytest.raises(ValueError, match="combination_threshold"):
        build_encoding_report(cb, default_quadrant_mask(), combination_threshold=0.0)
    with pytest.raises(ValueError, match="combination_threshold"):
        build_encoding_report(cb, default_quadrant_mask(), combination_threshold=1.5)


# ------------------------------------------------------------- cluster ratio

def hand_built_report():
    """One neuron per body group, placed so shoulder-elbow distance is 1 and
    every cross distance to head or wrist is 2 (before shared RMS scaling)."""
    lat = LatticeSpec(rows=2, cols=2)
    y = math.sqrt(4.0 - 0.25)
    W = np.array([[0.5, y], [0.0, 0.0], [0.5, -y], [1.0, 0.0]])
    mask = all_true_mask(2, 2, 2, groups=("head", "shoulder", "wrist", "elbow"))
    return build_encoding_report(Codebook(W, lat), mask)


def test_cluster_separation_ratio_half():
    assert cluster_separation_ratio(hand_built_report()) == pytest.approx(0.5, abs=1e-12)


def test_cluster_separation_ratio_degenerate_warns_nan():
    mask = default_quadrant_mask()
    cb = Codebook(np.zeros((16, 7)), LatticeSpec())
    rep = build_encoding_report(cb, mask)
    with pytest.warns(UserWarning, match="undefined"):
        ratio = cluster_separation_ratio(rep)
    assert math.isnan(ratio)


def test_cluster_separation_ratio_missing_group():
    cb = Codebook(np.zeros((4, 2)), LatticeSpec(rows=2, cols=2))
    rep = build_encoding_report(cb, all_true_mask(2, 2, 2))
    with pytest.raises(ValueError, match="missing group"):
        cluster_separation_ratio(rep)


def test_union_distance_oracle_random():
    rng = np.random.default_rng(7)
    cb, mask = random_case(rng)
    for i in range(cb.n_neurons):
        for j in range(cb.n_neurons):
            if i == j:
                continue
            got = union_rms_distance_scan(
                cb.weights.tolist(), mask.mask.tolist(), i, j
            )
            assert got >= 0.0


# ------------------------------------------------------------- export formats

def test_heatmap_csv_round_trip_with_nc():
    cb = init_codebook(LatticeSpec(), 7, 9)
    mask = default_quadrant_mask()
    for j, want in enumerate(build_heatmaps(cb, mask)):
        text = heatmap_csv_text(want)
        assert "NC" in text  # default mask always has disconnected cells
        cells = [line.split(",") for line in text.splitlines()]
        connected = np.array([[c != "NC" for c in row] for row in cells])
        grid = np.array([[np.nan if c == "NC" else float(c) for c in row] for row in cells])
        np.testing.assert_array_equal(connected, mask.mask[:, j].reshape(4, 4))
        # 17 significant digits keep the round trip bit-exact
        assert grid[connected].tobytes() == want[connected].tobytes()
        assert np.isnan(grid[~connected]).all()


def test_heatmap_pgm_shape_and_scaling():
    grid = np.array([[0.0, 1.0], [2.0, np.nan]])
    image, sidecar = heatmap_pgm_bytes(grid)
    header = b"P5\n2 2\n255\n"
    assert image.startswith(header) and sidecar.startswith(header)
    pixels = np.frombuffer(image[len(header):], dtype=np.uint8).reshape(2, 2)
    assert pixels[0, 0] == 0  # min-max scaled per grid
    assert pixels[0, 1] == 128
    assert pixels[1, 0] == 255
    assert pixels[1, 1] == 0  # not-connected renders black
    flags = np.frombuffer(sidecar[len(header):], dtype=np.uint8).reshape(2, 2)
    np.testing.assert_array_equal(flags, [[255, 255], [255, 0]])


def test_heatmap_pgm_constant_grid():
    grid = np.full((2, 2), 3.3)
    image, _ = heatmap_pgm_bytes(grid)
    pixels = np.frombuffer(image[len(b"P5\n2 2\n255\n"):], dtype=np.uint8)
    assert (pixels == 255).all()


def test_heatmap_pgm_span_beyond_float_range():
    """Weights at +-1e308 span more than the float range; the scaling still
    stays finite and raises no warning."""
    grid = np.array([[1e308, -1e308], [0.0, 5.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        image, _ = heatmap_pgm_bytes(grid)
    pixels = np.frombuffer(image[len(b"P5\n2 2\n255\n"):], dtype=np.uint8)
    np.testing.assert_array_equal(pixels, [255, 0, 128, 128])


def test_report_json_key_order_and_serializable():
    mask = default_quadrant_mask()
    cb = init_codebook(LatticeSpec(), 7, 1)
    rep = build_encoding_report(cb, mask)
    dmap = build_distance_map(cb, mask)
    doc = report_json_dict(rep, dmap)
    assert list(doc) == ["group_order", "group_distances", "neurons", "distance_map"]
    assert list(doc["neurons"][0]) == [
        "index",
        "group",
        "active_joints",
        "weights",
        "argmax_joint",
        "classification",
    ]
    text = dump_json(doc)
    back = json.loads(text)
    assert back["group_order"] == ["head", "shoulder", "elbow", "wrist"]
    assert len(back["neurons"]) == 16
    assert dump_json(doc) == text  # deterministic
