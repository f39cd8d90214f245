"""Output-layer grid geometry: neuron coordinates, metrics, neighborhood kernel.

Neurons sit on a fixed rows x cols grid. A coordinate is a (row, col) pair
and the flat neuron index is row-major (``index = row * cols + col``).
Two inter-neuron metrics are supported:

* ``manhattan`` - |drow| + |dcol| on the integer indices,
* ``hex-axial`` - true hexagonal distance for an offset grid whose odd
  rows are drawn shifted half a cell to the left.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

METRICS = ("manhattan", "hex-axial")

Coord = tuple[int, int]


@dataclass(frozen=True)
class LatticeSpec:
    """Shape and inter-neuron metric of the output grid."""

    rows: int = 4
    cols: int = 4
    metric: str = "manhattan"

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"lattice must be at least 1x1, got {self.rows}x{self.cols}")
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}, expected one of {METRICS}")

    @property
    def n_neurons(self) -> int:
        return self.rows * self.cols

    def index_of(self, coord: Coord) -> int:
        _check_coord(coord, self)
        return coord[0] * self.cols + coord[1]

    def coord_of(self, index: int) -> Coord:
        if not 0 <= index < self.n_neurons:
            raise ValueError(f"neuron index {index} out of range for {self.rows}x{self.cols} lattice")
        return divmod(index, self.cols)


def _check_coord(coord: Coord, spec: LatticeSpec) -> None:
    row, col = coord
    if not (0 <= row < spec.rows and 0 <= col < spec.cols):
        raise ValueError(f"coordinate {coord} outside {spec.rows}x{spec.cols} lattice")


def neuron_distance(a: Coord, b: Coord, spec: LatticeSpec) -> int:
    """Lattice distance between two neurons under ``spec.metric``."""
    return int(distance_matrix(spec)[spec.index_of(a), spec.index_of(b)])


def neighborhood_weight(d, sigma: float):
    """Gaussian falloff exp(-d^2 / (2 sigma^2)).

    Equals 1 at d = 0 and decreases strictly with d. Accepts a scalar
    distance or an array of distances; returns the matching shape.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    d = np.asarray(d)
    w = np.exp(d * d / (-2.0 * sigma * sigma))
    return float(w) if w.ndim == 0 else w


@lru_cache(maxsize=None)
def distance_matrix(spec: LatticeSpec) -> np.ndarray:
    """(N, N) integer matrix of pairwise neuron distances, row-major order.

    Cached per spec; the returned array is read-only.
    """
    rows, cols = np.divmod(np.arange(spec.n_neurons, dtype=np.int64), spec.cols)
    if spec.metric == "hex-axial":
        # offset -> axial columns for odd rows shifted half a cell to the left
        cols = cols - (rows + (rows & 1)) // 2
    drow = rows[:, None] - rows
    dcol = cols[:, None] - cols
    out = np.abs(drow) + np.abs(dcol)
    if spec.metric == "hex-axial":
        out = (out + np.abs(drow + dcol)) // 2
    out.setflags(write=False)
    return out
