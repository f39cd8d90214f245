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

    def all_coords(self) -> list[Coord]:
        """Coordinates of every neuron in row-major index order."""
        return [(r, c) for r in range(self.rows) for c in range(self.cols)]


def _check_coord(coord: Coord, spec: LatticeSpec) -> None:
    row, col = coord
    if not (0 <= row < spec.rows and 0 <= col < spec.cols):
        raise ValueError(f"coordinate {coord} outside {spec.rows}x{spec.cols} lattice")


def _axial(coord: Coord) -> tuple[int, int]:
    # offset -> axial for odd rows shifted half a cell to the left
    row, col = coord
    return col - (row + (row & 1)) // 2, row


def neuron_distance(a: Coord, b: Coord, spec: LatticeSpec) -> int:
    """Lattice distance between two neurons under ``spec.metric``."""
    _check_coord(a, spec)
    _check_coord(b, spec)
    if spec.metric == "manhattan":
        return abs(a[0] - b[0]) + abs(a[1] - b[1])
    aq, ar = _axial(a)
    bq, br = _axial(b)
    dq, dr = aq - bq, ar - br
    return (abs(dq) + abs(dr) + abs(dq + dr)) // 2


def neighborhood_weight(d, sigma: float):
    """Gaussian falloff exp(-d^2 / (2 sigma^2)).

    Equals 1 at d = 0 and decreases strictly with d. Accepts a scalar
    distance or an array of distances; returns the matching shape.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    d = np.asarray(d)
    w = np.exp(-(d * d) / (2.0 * sigma * sigma))
    return float(w) if w.ndim == 0 else w


@lru_cache(maxsize=None)
def distance_matrix(spec: LatticeSpec) -> np.ndarray:
    """(N, N) integer matrix of pairwise neuron distances, row-major order.

    Cached per spec; the returned array is read-only.
    """
    coords = spec.all_coords()
    n = spec.n_neurons
    out = np.empty((n, n), dtype=np.int64)
    for i, a in enumerate(coords):
        for j, b in enumerate(coords):
            out[i, j] = neuron_distance(a, b, spec)
    out.setflags(write=False)
    return out
