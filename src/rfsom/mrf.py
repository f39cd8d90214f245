"""Restricted receptive fields for the map: masked winner search and
mask-confined updates.

Each output neuron owns a boolean receptive field over the input dimensions.
Winner search only compares active dimensions, and weight updates never touch
inactive positions. This module holds the one training loop and the one set of
quality metrics: the baseline in ``rfsom.som`` is this map with an all-true
mask, unnormalized distances, and global winner scope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fileio import (
    ParseError, _array, _check_keys, _expect, atomic_write_text, dump_json, read_document,
)
from .lattice import distance_matrix, neighborhood_weight
from .som import (
    Codebook,
    TrainLog,
    TrainSchedule,
    _as_dataset,
    _as_sample,
    shuffle_order,
)

BMU_SCOPES = ("global-masked", "per-group")
NORMALIZATIONS = ("rms-per-active-dim", "unnormalized")

# canonical body-group order used for labels and report rows
BODY_GROUPS = ("head", "shoulder", "elbow", "wrist")
GROUP_JOINTS = {"head": (0, 1), "shoulder": (2, 3), "elbow": (4, 5), "wrist": (6,)}


@dataclass(frozen=True)
class MrfConfig:
    """How masked winner search behaves.

    ``bmu_scope``: "global-masked" picks one winner over the whole map;
    "per-group" picks an independent winner inside every base group.
    ``distance_normalization``: "rms-per-active-dim" divides each masked
    distance by sqrt(active count) so small and large receptive fields
    compete on comparable scale; "unnormalized" leaves raw masked distances.
    """

    bmu_scope: str = "global-masked"
    distance_normalization: str = "rms-per-active-dim"

    def __post_init__(self) -> None:
        if self.bmu_scope not in BMU_SCOPES:
            raise ValueError(f"unknown bmu_scope {self.bmu_scope!r}, expected one of {BMU_SCOPES}")
        if self.distance_normalization not in NORMALIZATIONS:
            raise ValueError(
                f"unknown distance_normalization {self.distance_normalization!r}, "
                f"expected one of {NORMALIZATIONS}"
            )


def home_group(label: str) -> str:
    """Base group of a neuron label: "overlap-head-shoulder" belongs to "head"."""
    if label.startswith("overlap-"):
        parts = label.split("-")
        if len(parts) < 3 or not parts[1]:
            raise ValueError(f"malformed overlap label {label!r}")
        return parts[1]
    return label


@dataclass
class ReceptiveFieldMask:
    """Boolean receptive fields, one row per neuron, plus optional group labels.

    ``mask[n, d]`` is True when neuron ``n`` is connected to input dimension
    ``d``. Labels tag neurons for per-group winner search and reporting;
    overlap neurons carry an ``overlap-<home>-...`` label.
    """

    rows: int
    cols: int
    mask: np.ndarray
    groups: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"mask grid must be at least 1x1, got {self.rows}x{self.cols}")
        m = np.asarray(self.mask)
        if m.dtype != np.bool_:
            if not np.isin(m, (0, 1)).all():
                raise ValueError("mask entries must be boolean (0/1)")
            m = m.astype(bool)
        if m.ndim != 2 or m.shape[0] != self.rows * self.cols:
            raise ValueError(
                f"mask has shape {m.shape}, expected ({self.rows * self.cols}, dims)"
            )
        if not m.any(axis=1).all():
            bad = int(np.flatnonzero(~m.any(axis=1))[0])
            raise ValueError(f"neuron {bad} has no active input dimension")
        if not m.any(axis=0).all():
            bad = int(np.flatnonzero(~m.any(axis=0))[0])
            raise ValueError(f"input dimension {bad} is active for no neuron")
        self.mask = m
        if self.groups is not None:
            groups = tuple(self.groups)
            if len(groups) != m.shape[0]:
                raise ValueError(
                    f"got {len(groups)} group labels for {m.shape[0]} neurons"
                )
            for label in groups:
                if not label or "\n" in label or " " in label:
                    raise ValueError(f"invalid group label {label!r}")
                home_group(label)
            self.groups = groups

    @property
    def n_neurons(self) -> int:
        return self.mask.shape[0]

    @property
    def dims(self) -> int:
        return self.mask.shape[1]

    def group_indices(self) -> dict[str, np.ndarray]:
        """Neuron indices per base group, ascending within each group.

        Groups run in canonical body-group order first, then any custom
        labels in first-appearance order.
        """
        if self.groups is None:
            raise ValueError("mask has no group labels")
        homes = np.array([home_group(label) for label in self.groups])
        seen = dict.fromkeys(homes.tolist())
        order = [g for g in BODY_GROUPS if g in seen] + [g for g in seen if g not in BODY_GROUPS]
        return {g: np.flatnonzero(homes == g) for g in order}


def default_quadrant_mask() -> ReceptiveFieldMask:
    """The built-in 16-neuron x 7-joint mask.

    The 4x4 grid splits into four 2x2 quadrants, one per body group (head
    top-left, shoulder top-right, wrist bottom-left, elbow bottom-right).
    A neuron bordering a foreign quadrant additionally takes the union with
    that quadrant's joints, giving the partially overlapping fields.
    """
    rows = cols = 4

    def quadrant(r: int, c: int) -> str:
        if r < 2:
            return "head" if c < 2 else "shoulder"
        return "wrist" if c < 2 else "elbow"

    mask = np.zeros((rows * cols, 7), dtype=bool)
    labels = []
    for r in range(rows):
        for c in range(cols):
            own = quadrant(r, c)
            others = []
            for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                if 0 <= nr < rows and 0 <= nc < cols:
                    q = quadrant(nr, nc)
                    if q != own and q not in others:
                        others.append(q)
            joints = set(GROUP_JOINTS[own])
            for g in others:
                joints.update(GROUP_JOINTS[g])
            mask[r * cols + c, sorted(joints)] = True
            if others:
                tail = "-".join(g for g in BODY_GROUPS if g in others)
                labels.append(f"overlap-{own}-{tail}")
            else:
                labels.append(own)
    return ReceptiveFieldMask(rows, cols, mask, tuple(labels))


def _check_mask(mask: ReceptiveFieldMask, codebook: Codebook) -> None:
    lattice = codebook.lattice
    if (mask.rows, mask.cols, mask.dims) != (lattice.rows, lattice.cols, codebook.dims):
        raise ValueError(
            f"mask grid {mask.rows}x{mask.cols} with {mask.dims} dims does not match "
            f"{lattice.rows}x{lattice.cols} lattice with {codebook.dims} dims"
        )


def _norms(mask: ReceptiveFieldMask, cfg: MrfConfig) -> np.ndarray | None:
    if cfg.distance_normalization == "rms-per-active-dim":
        return np.sqrt(mask.mask.sum(axis=1, dtype=np.float64))
    return None


# doubles per chunk buffer (1 MiB), or one sample's N x dims where that is more:
# training and the scorer take samples this many at a time, not all n at once
_CHUNK = 2**17


def _distances(diff: np.ndarray, norms, out=None, dist=None) -> np.ndarray:
    """Masked distances from masked-sample-minus-masked-weight differences of
    shape (..., neurons, dims); the last output axis runs over neurons. If
    given, ``out`` (shaped like ``diff``) receives the squares and ``dist``
    the distances.

    Both operands are masked before they meet, so a masked-off entry is a
    difference of zeros and squares to +0.0 at any size. Where x - w is
    finite, x*m - w*m equals (x - w)*m bit for bit, so the distances equal
    those of masking the difference."""
    sq = np.square(diff, out=out)
    d = np.add.reduce(sq, axis=-1, out=dist)
    np.sqrt(d, out=d)
    if norms is not None:
        d /= norms
    return d


def _nearest_pair(d: np.ndarray, D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of a chunk of sample distances: the nearest distance, and
    whether the two nearest neurons are more than one lattice step apart
    (distinct cells are at least 1 apart). The pair is the first two of a
    stable argsort: the argmin, then the argmin with that entry overwritten
    by +inf; ties break to the smaller index. A single neuron is its own
    second nearest, at lattice distance 0."""
    rows = np.arange(d.shape[0])
    first = d.argmin(axis=1)
    nearest = d[rows, first]
    d[rows, first] = np.inf
    return nearest, D[first, d.argmin(axis=1)] > 1


def _score(X: np.ndarray, W: np.ndarray, mask: ReceptiveFieldMask, cfg: MrfConfig, D, out=None):
    """(quantization error, topographic error) of samples ``X`` against the
    weights ``W`` in row-major order, under ``mask`` and ``cfg``. Samples
    are scored a chunk at a time, in ``out`` if given; QE is the mean of the
    concatenated per-sample minima and TE that of a boolean array, so
    neither depends on the chunk size."""
    M = mask.mask.astype(np.float64)
    W = W * M
    norms = _norms(mask, cfg)
    n = X.shape[0]
    size = max(1, _CHUNK // W.size)
    diff = np.empty((min(n, size),) + W.shape) if out is None else out
    nearest = np.empty(n)
    apart = np.empty(n, dtype=bool)
    for start in range(0, n, size):
        chunk = slice(start, start + size)
        buf = diff[: len(X[chunk])]
        np.multiply(X[chunk, None, :], M, out=buf)
        buf -= W
        nearest[chunk], apart[chunk] = _nearest_pair(_distances(buf, norms, out=buf), D)
    return float(nearest.mean()), float(apart.mean())


def mrf_find_bmu(
    sample, codebook: Codebook, mask: ReceptiveFieldMask, cfg: MrfConfig = MrfConfig()
):
    """Winner(s) under the masked distance.

    Returns a single neuron index under "global-masked" scope, or a dict
    mapping each base group to its internal winner under "per-group" scope.
    Ties break to the smallest row-major index either way.
    """
    x = _as_sample(sample, codebook.dims)
    _check_mask(mask, codebook)
    d = _distances(x * mask.mask - codebook.weights * mask.mask, _norms(mask, cfg))
    if cfg.bmu_scope == "global-masked":
        return int(np.argmin(d))
    return {g: int(idx[np.argmin(d[idx])]) for g, idx in mask.group_indices().items()}


def _layout(mask: ReceptiveFieldMask, cfg: MrfConfig, D: np.ndarray):
    """Training layout of the neurons: group by group, each group ascending.

    Returns the index that lays a neuron-indexed array out, the index that
    undoes it, and one (slice of the layout, lattice block) pair per group.
    Global scope is one group of every neuron in row-major order. A block
    of g neurons is a float64 (g, g, dims) table whose last axis repeats the
    lattice distance, so a winner's row gives a neighborhood the shape of
    the group's weights.
    """
    if cfg.bmu_scope == "global-masked":
        groups = [np.arange(mask.n_neurons)]
    else:
        groups = list(mask.group_indices().values())
    stops = np.cumsum([len(idx) for idx in groups]).tolist()
    blocks = []
    for idx, stop in zip(groups, stops):
        table = D[np.ix_(idx, idx)].astype(np.float64)
        blocks.append((slice(stop - len(idx), stop), np.repeat(table[:, :, None], mask.dims, axis=2)))
    order = np.concatenate(groups)
    return order, np.argsort(order), blocks


def mrf_train(
    codebook: Codebook,
    dataset,
    mask: ReceptiveFieldMask,
    schedule: TrainSchedule,
    cfg: MrfConfig = MrfConfig(),
) -> tuple[Codebook, TrainLog]:
    """Stochastic training over ``epochs`` x shuffled samples.

    Winners come from the masked search, each neuron's update is confined to
    its active dimensions (inactive weights stay bit-identical to
    initialization), and under per-group scope each group's winner drives
    only that group's neurons. Deterministic for a fixed schedule seed; the
    input codebook is not modified. The log gains one (quantization error,
    topographic error) pair per completed epoch.

    The neurons train laid out group by group (each group ascending; global
    scope is one group of all neurons), so every step searches and updates
    contiguous slices. Inactive weights train as zeros against sample
    entries that the mask zeroes, so no step needs the mask: their squares
    are the +0.0 that masking gives, and their updates are zero. The layout
    is undone for each epoch's metrics and at the end, where the inactive
    weights get their initial bytes back (-0.0 included).
    """
    _check_mask(mask, codebook)
    X = _as_dataset(dataset, codebook.dims)
    D = distance_matrix(codebook.lattice)
    order, back, blocks = _layout(mask, cfg, D)
    Mf = mask.mask[order].astype(np.float64)
    W = codebook.weights[order] * Mf
    norms = _norms(mask, cfg)
    if norms is not None:
        norms = norms[order]
    h = np.empty_like(W)
    dist = np.empty(codebook.n_neurons)
    views = [(dist[g], h[g], Dg) for g, Dg in blocks]
    step = np.empty_like(W)
    sq = np.empty_like(W)
    n = X.shape[0]
    chunk = max(1, _CHUNK // W.size)
    # one chunk of the epoch's samples, each repeated once per neuron and
    # masked: each step subtracts arrays of one shape
    tiles = np.empty((min(n, chunk),) + W.shape)
    rows = list(tiles)
    total = schedule.epochs * n
    log = TrainLog()
    for epoch in range(schedule.epochs):
        samples = shuffle_order(schedule.seed, epoch, n)
        for start in range(0, n, chunk):
            idx = samples[start : start + chunk]
            # the schedule one chunk at a time: memory stays flat in epochs and rows
            first = epoch * n + start
            alphas = schedule.alpha_values(total, first, first + len(idx)).tolist()
            sigmas = schedule.sigma_values(total, first, first + len(idx)).tolist()
            np.multiply(X[idx, None, :], Mf, out=tiles[: len(idx)])
            for tile, alpha, sigma in zip(rows, alphas, sigmas):
                np.subtract(tile, W, out=step)
                _distances(step, norms, out=sq, dist=dist)
                for d_g, h_g, Dg in views:
                    np.multiply(neighborhood_weight(Dg[d_g.argmin()], sigma), alpha, out=h_g)
                step *= h
                W += step
        # scored in row-major order, so ties break to the smallest index
        qe, te = _score(X, W[back], mask, cfg, D, out=tiles)
        log.quantization_errors.append(qe)
        log.topographic_errors.append(te)
    W = W[back]
    np.copyto(W, codebook.weights, where=~mask.mask)
    return Codebook(W, codebook.lattice), log


def masked_quantization_error(
    codebook: Codebook, dataset, mask: ReceptiveFieldMask, cfg: MrfConfig = MrfConfig()
) -> float:
    """Mean masked distance from each sample to its best-matching unit."""
    _check_mask(mask, codebook)
    X = _as_dataset(dataset, codebook.dims)
    return _score(X, codebook.weights, mask, cfg, distance_matrix(codebook.lattice))[0]


def masked_topographic_error(
    codebook: Codebook, dataset, mask: ReceptiveFieldMask, cfg: MrfConfig = MrfConfig()
) -> float:
    """Fraction of samples whose two best masked matches are not lattice-adjacent.

    Adjacency means lattice distance exactly 1 under the configured metric.
    A one-neuron map's error is 0: its neuron is its own second match.
    """
    _check_mask(mask, codebook)
    X = _as_dataset(dataset, codebook.dims)
    return _score(X, codebook.weights, mask, cfg, distance_matrix(codebook.lattice))[1]


def _mask_object(mask: ReceptiveFieldMask) -> dict:
    """The ``{mask, groups}`` object that model.json and a mask file share:
    the 0/1 rows and the labels, or None."""
    return {"mask": mask.mask.astype(int).tolist(), "groups": mask.groups}


def _read_mask_object(doc: dict, rows: int, cols: int, where, header=()) -> ReceptiveFieldMask:
    """The rows x cols mask of a ``{mask, groups}`` object whose other keys
    are ``header``; a malformed key raises ParseError naming ``where``."""
    _check_keys(doc, (*header, "mask", "groups"), where)
    groups = _expect(doc, "groups", (list, type(None)), where)
    if groups is not None:
        groups = tuple(_array(doc, "groups", "strings", 1, where))
    return ReceptiveFieldMask(rows, cols, _array(doc, "mask", "integers", 2, where), groups)


def save_mask(mask: ReceptiveFieldMask, path) -> None:
    """Write a mask file: a JSON object of ``format`` "rfsom-mask",
    ``version`` 1, the grid's ``rows`` and ``cols``, and model.json's
    ``{mask, groups}`` object, one 0/1 row per line. ``load_mask`` reads it
    back to a mask that saves to the same bytes, so a model.json's mask
    object with the four header keys is a mask file."""
    doc = {"format": "rfsom-mask", "version": 1, "rows": mask.rows, "cols": mask.cols}
    atomic_write_text(path, dump_json(doc | _mask_object(mask)))


def load_mask(path) -> ReceptiveFieldMask:
    """Strict reader for a mask file (see ``save_mask``): malformed JSON, a
    missing or unknown key, or a value of the wrong type raises ParseError,
    and a mask that breaks a ``ReceptiveFieldMask`` invariant ValueError,
    each naming the path."""
    doc = read_document(path, "rfsom-mask", 1)
    rows, cols = (_expect(doc, key, int, path) for key in ("rows", "cols"))
    try:
        return _read_mask_object(doc, rows, cols, path, ("format", "version", "rows", "cols"))
    except ParseError:
        raise
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: {exc}") from None
