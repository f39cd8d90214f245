"""Evaluation artifacts for trained maps: per-joint weight heatmaps, an
adjacent-neighbor distance map, and a per-neuron joint-encoding report with
inter-group cluster distances.

Weight values are reported exactly as stored (normalized input units); no
smoothing or rescaling happens anywhere except in the 8-bit PGM rendering.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, replace

import numpy as np

from .datagen import joint_names
from .fileio import format_float
from .lattice import distance_matrix
from .mrf import BODY_GROUPS, ReceptiveFieldMask, _check_mask, home_group
from .som import Codebook


@dataclass
class NeuronDistanceMap:
    """Per-neuron mean codebook distance to lattice-adjacent neighbors.

    Pair distances run over the union of the pair's active dimensions,
    RMS-normalized by the union size; border cells average fewer neighbors.
    """

    grid: np.ndarray


@dataclass
class NeuronEncoding:
    """What one neuron represents: its group, active joints, stored weights
    (aligned with ``active_joints``) and preferred (largest-|weight|) joint."""

    index: int
    group: str
    active_joints: tuple[str, ...]
    weights: tuple[float, ...]
    argmax_joint: str


@dataclass
class EncodingReport:
    """Per-neuron encodings plus the symmetric inter-group distance matrix."""

    neurons: list[NeuronEncoding]
    group_order: tuple[str, ...]
    group_distances: np.ndarray


def build_heatmaps(codebook: Codebook, mask: ReceptiveFieldMask) -> np.ndarray:
    """One rows x cols weight grid per input joint, shape (dims, rows, cols).

    A cell whose neuron is not connected to the joint holds NaN, never a
    zero; codebook weights are finite, so NaN marks exactly those cells.
    """
    _check_mask(mask, codebook)
    lattice = codebook.lattice
    grids = np.where(mask.mask, codebook.weights, np.nan).T
    return grids.reshape(codebook.dims, lattice.rows, lattice.cols)


def _union_distances(W: np.ndarray, M: np.ndarray) -> np.ndarray:
    """(N, N) RMS codebook distances between neurons over the union of each
    pair's active dimensions."""
    union = M[:, None, :] | M
    diff = W[:, None, :] - W
    # every weight is at most 1e100 in magnitude, so no difference or square overflows
    return np.sqrt(np.where(union, diff**2, 0.0).sum(axis=-1)) / np.sqrt(union.sum(axis=-1))


def build_distance_map(codebook: Codebook, mask: ReceptiveFieldMask) -> NeuronDistanceMap:
    """Mean union-masked RMS distance from each neuron to its lattice
    neighbors (lattice distance exactly 1 under the configured metric)."""
    _check_mask(mask, codebook)
    lattice = codebook.lattice
    U = _union_distances(codebook.weights, mask.mask)
    adjacent = distance_matrix(lattice) == 1
    means = [U[i, adj].mean() if adj.any() else 0.0 for i, adj in enumerate(adjacent)]
    return NeuronDistanceMap(np.array(means).reshape(lattice.rows, lattice.cols))


def build_encoding_report(codebook: Codebook, mask: ReceptiveFieldMask) -> EncodingReport:
    """Describe every neuron and measure inter-group codebook distances."""
    _check_mask(mask, codebook)
    names = joint_names(codebook.dims)
    if mask.groups is None:
        mask = replace(mask, groups=("ungrouped",) * mask.n_neurons)
    neurons = []
    for i in range(mask.n_neurons):
        active = np.flatnonzero(mask.mask[i])
        w = codebook.weights[i, active]
        neurons.append(
            NeuronEncoding(
                index=i,
                group=home_group(mask.groups[i]),
                active_joints=tuple(names[j] for j in active),
                weights=tuple(float(v) for v in w),
                argmax_joint=names[int(active[np.argmax(np.abs(w))])],
            )
        )
    indices = mask.group_indices()
    order = tuple(indices)
    U = _union_distances(codebook.weights, mask.mask)
    k = len(order)
    dist = np.zeros((k, k), dtype=np.float64)
    for a in range(k):
        for b in range(a + 1, k):
            dist[a, b] = dist[b, a] = U[np.ix_(indices[order[a]], indices[order[b]])].mean()
    return EncodingReport(neurons, order, dist)


# written to report.json as ``cluster_separation_reference`` beside the measured ratio
CLUSTER_SEPARATION_REFERENCE = 0.5


def cluster_separation_ratio(report: EncodingReport) -> float:
    """Shoulder-to-elbow cluster distance over the mean of the four distances
    from those clusters to head and wrist.

    A descriptive statistic: values near ``CLUSTER_SEPARATION_REFERENCE``
    (0.5) would mean the shoulder and elbow clusters sit at half the
    distance of the others.
    """
    order = report.group_order
    for g in BODY_GROUPS:
        if g not in order:
            raise ValueError(f"report is missing group {g!r}")
    pos = {g: order.index(g) for g in BODY_GROUPS}
    d = report.group_distances
    near = d[pos["shoulder"], pos["elbow"]]
    cross = (
        d[pos["shoulder"], pos["head"]],
        d[pos["shoulder"], pos["wrist"]],
        d[pos["elbow"], pos["head"]],
        d[pos["elbow"], pos["wrist"]],
    )
    denom = float(np.mean(cross))
    if denom == 0.0:
        warnings.warn("all cross-group distances are zero; ratio undefined", stacklevel=2)
        return float("nan")
    return float(near / denom)


def heatmap_csv_text(grid: np.ndarray) -> str:
    """Render one joint's grid as CSV; not-connected (NaN) cells become ``NC``."""
    lines = [",".join("NC" if np.isnan(v) else format_float(v) for v in row) for row in grid]
    return "\n".join(lines) + "\n"


def heatmap_pgm_bytes(grid: np.ndarray) -> tuple[bytes, bytes]:
    """(image, sidecar-mask) binary PGMs for one joint.

    Connected weights are min-max scaled to 0..255 per grid; not-connected
    (NaN) cells render 0 in the image and 0 in the sidecar (connected cells
    255).
    """
    rows, cols = grid.shape
    connected = ~np.isnan(grid)
    header = f"P5\n{cols} {rows}\n255\n".encode("ascii")
    pixels = np.zeros((rows, cols), dtype=np.uint8)
    if connected.any():
        values = grid[connected]
        lo, hi = float(values.min()), float(values.max())
        if hi > lo:
            pixels[connected] = np.rint((values - lo) / (hi - lo) * 255.0).astype(np.uint8)
        else:
            pixels[connected] = 255
    sidecar = np.where(connected, 255, 0).astype(np.uint8)
    return header + pixels.tobytes(), header + sidecar.tobytes()


def report_json_dict(codebook: Codebook, mask: ReceptiveFieldMask) -> dict:
    """All of report.json's content in file order: the encoding report, the
    neuron distance map, and the cluster separation ratio (null unless every
    body group labels some neuron) beside its reference."""
    report = build_encoding_report(codebook, mask)
    grouped = set(BODY_GROUPS) <= set(report.group_order)
    return {
        "group_order": report.group_order,
        "group_distances": report.group_distances.tolist(),
        "neurons": [asdict(n) for n in report.neurons],
        "distance_map": build_distance_map(codebook, mask).grid.tolist(),
        "cluster_separation_ratio": cluster_separation_ratio(report) if grouped else None,
        "cluster_separation_reference": CLUSTER_SEPARATION_REFERENCE,
    }
