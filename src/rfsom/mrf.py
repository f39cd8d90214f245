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

from .fileio import ParseError, atomic_write_text, read_lines
from .lattice import LatticeSpec, distance_matrix, neighborhood_weight
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

    @property
    def active_counts(self) -> np.ndarray:
        return self.mask.sum(axis=1)

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

    def group_order(self) -> tuple[str, ...]:
        """Distinct base groups in ``group_indices`` order."""
        return tuple(self.group_indices())


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


def full_mask(lattice: LatticeSpec, dims: int) -> ReceptiveFieldMask:
    """All-true receptive fields: every neuron sees every input dimension."""
    return ReceptiveFieldMask(
        lattice.rows, lattice.cols, np.ones((lattice.n_neurons, dims), dtype=bool)
    )


def _check_mask(mask: ReceptiveFieldMask, codebook: Codebook) -> None:
    lattice = codebook.lattice
    if (mask.rows, mask.cols, mask.dims) != (lattice.rows, lattice.cols, codebook.dims):
        raise ValueError(
            f"mask grid {mask.rows}x{mask.cols} with {mask.dims} dims does not match "
            f"{lattice.rows}x{lattice.cols} lattice with {codebook.dims} dims"
        )


def _norms(mask: ReceptiveFieldMask, cfg: MrfConfig) -> np.ndarray | None:
    if cfg.distance_normalization == "rms-per-active-dim":
        return np.sqrt(mask.active_counts.astype(np.float64))
    return None


def _distances(
    diff: np.ndarray, M: np.ndarray | None, norms, out=None, dist=None
) -> np.ndarray:
    """Masked distances from sample-minus-weight differences of shape
    (..., neurons, dims); the last output axis runs over neurons. ``M`` is
    the mask, or None when ``diff`` is already zero outside the fields. If
    given, ``out`` (shaped like ``diff``) receives the masked squares and
    ``dist`` the distances.

    The mask multiplies the difference before it is squared, so a huge
    masked-off difference gives +0.0 rather than inf * 0 = NaN; for finite
    differences the bits equal masking the squares."""
    if M is not None:
        diff = np.multiply(diff, M, out=out)
    sq = np.square(diff, out=out)
    d = np.add.reduce(sq, axis=-1, out=dist)
    np.sqrt(d, out=d)
    if norms is not None:
        d /= norms
    return d


def _topographic_error(d: np.ndarray, D: np.ndarray) -> float:
    """Fraction of rows of a sample-distance matrix whose two nearest neurons
    are not lattice-adjacent (ties break to the smaller index)."""
    order = np.argsort(d, axis=1, kind="stable")
    return float((D[order[:, 0], order[:, 1]] != 1).mean())


def _epoch_metrics(d: np.ndarray, D: np.ndarray) -> tuple[float, float]:
    """(quantization error, topographic error) from a sample-distance matrix;
    a single-neuron map logs topographic error 0."""
    qe = float(d.min(axis=1).mean())
    return qe, _topographic_error(d, D) if d.shape[1] > 1 else 0.0


def mrf_find_bmu(
    sample, codebook: Codebook, mask: ReceptiveFieldMask, cfg: MrfConfig = MrfConfig()
):
    """Winner(s) under the masked distance.

    Returns a single neuron index under "global-masked" scope, or a dict
    mapping each base group to its internal winner under "per-group" scope.
    Ties break to the smallest row-major index either way.
    """
    _check_mask(mask, codebook)
    x = _as_sample(sample, codebook.dims)
    d = _distances(x - codebook.weights, mask.mask, _norms(mask, cfg))
    if cfg.bmu_scope == "global-masked":
        return int(np.argmin(d))
    return {g: int(idx[np.argmin(d[idx])]) for g, idx in mask.group_indices().items()}


def _layout(mask: ReceptiveFieldMask, cfg: MrfConfig, D: np.ndarray):
    """Training layout of the neurons: group by group, each group ascending.

    Returns the index that lays a neuron-indexed array out, the index that
    undoes it, and one (slice of the layout, lattice block) pair per group.
    Global scope is one group of every neuron in row-major order: both
    indices are ``slice(None)`` and its block is the lattice table itself.
    """
    if cfg.bmu_scope == "global-masked":
        return slice(None), slice(None), [(slice(None), D)]
    groups = list(mask.group_indices().values())
    stops = np.cumsum([len(idx) for idx in groups]).tolist()
    blocks = [
        (slice(stop - len(idx), stop), D[np.ix_(idx, idx)]) for idx, stop in zip(groups, stops)
    ]
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
    h = np.empty(codebook.n_neurons, dtype=np.float64)
    h_col = h[:, None]
    dist = np.empty_like(h)
    views = [(dist[g], h[g], Dg) for g, Dg in blocks]
    step = np.empty_like(W)
    sq = np.empty_like(W)
    n = X.shape[0]
    # every sample repeated once per neuron and masked: each step subtracts
    # arrays of one shape, and the epoch's metrics reuse the buffer
    tiles = np.empty((n,) + W.shape)
    rows = list(tiles)
    total = schedule.epochs * n
    alphas = schedule.alpha_values(total)
    sigmas = schedule.sigma_values(total)
    log = TrainLog()
    for epoch in range(schedule.epochs):
        t = slice(epoch * n, (epoch + 1) * n)
        np.multiply(X[:, None, :], Mf, out=tiles)
        samples = shuffle_order(schedule.seed, epoch, n).tolist()
        for i, alpha, sigma in zip(samples, alphas[t].tolist(), sigmas[t].tolist()):
            np.subtract(rows[i], W, out=step)
            _distances(step, None, norms, out=sq, dist=dist)
            for d_g, h_g, Dg in views:
                np.multiply(neighborhood_weight(Dg[d_g.argmin()], sigma), alpha, out=h_g)
            step *= h_col
            W += step
        np.subtract(tiles, W, out=tiles)
        d = _distances(tiles, None, norms, out=tiles)
        qe, te = _epoch_metrics(d[:, back], D)
        log.quantization_errors.append(qe)
        log.topographic_errors.append(te)
    W = W[back]
    np.copyto(W, codebook.weights, where=~mask.mask)
    return Codebook(W, codebook.lattice), log


def _dataset_distances(
    codebook: Codebook, dataset, mask: ReceptiveFieldMask, cfg: MrfConfig
) -> np.ndarray:
    _check_mask(mask, codebook)
    X = _as_dataset(dataset, codebook.dims)
    diff = X[..., None, :] - codebook.weights
    return _distances(diff, mask.mask, _norms(mask, cfg), out=diff)


def masked_quantization_error(
    codebook: Codebook, dataset, mask: ReceptiveFieldMask, cfg: MrfConfig = MrfConfig()
) -> float:
    """Mean masked distance from each sample to its best-matching unit."""
    return float(_dataset_distances(codebook, dataset, mask, cfg).min(axis=1).mean())


def masked_topographic_error(
    codebook: Codebook, dataset, mask: ReceptiveFieldMask, cfg: MrfConfig = MrfConfig()
) -> float:
    """Fraction of samples whose two best masked matches are not lattice-adjacent.

    Adjacency means lattice distance exactly 1 under the configured metric.
    """
    if codebook.n_neurons < 2:
        raise ValueError("topographic error needs at least 2 neurons")
    d = _dataset_distances(codebook, dataset, mask, cfg)
    return _topographic_error(d, distance_matrix(codebook.lattice))


def save_mask(mask: ReceptiveFieldMask, path) -> None:
    """Write the plain-text mask format (see ``load_mask``)."""
    lines = [f"{mask.rows} {mask.cols} {mask.dims}"]
    for row in mask.mask:
        lines.append(" ".join("1" if v else "0" for v in row))
    if mask.groups is not None:
        for label in mask.groups:
            lines.append(f"#group {label}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_mask(path) -> ReceptiveFieldMask:
    """Read a mask file.

    Format: first line ``rows cols dims``; then rows*cols lines of
    space-separated 0/1; then optionally one ``#group <label>`` line per
    neuron. Round-trips bit-exactly through ``save_mask``.
    """
    raw = read_lines(path)
    if not raw:
        raise ParseError(f"{path}: line 1: empty mask file")
    header = raw[0].split()
    if len(header) != 3:
        raise ParseError(f"{path}: line 1: expected 'rows cols dims', got {raw[0]!r}")
    try:
        rows, cols, dims = (int(tok) for tok in header)
    except ValueError:
        raise ParseError(f"{path}: line 1: non-integer header field in {raw[0]!r}") from None
    if rows < 1 or cols < 1 or dims < 1:
        raise ParseError(f"{path}: line 1: rows, cols, dims must be positive")
    n = rows * cols
    if len(raw) - 1 < n:
        raise ParseError(f"{path}: expected {n} mask rows, file ends after line {len(raw)}")
    # every row is checked before the mask is built, so a header claiming a
    # huge dims fails on its first short row instead of allocating
    cells = [line.split(" ") for line in raw[1 : 1 + n]]
    for lineno, tokens in enumerate(cells, start=2):
        if len(tokens) != dims:
            raise ParseError(
                f"{path}: line {lineno}: expected {dims} entries, got {len(tokens)}"
            )
        for j, tok in enumerate(tokens):
            if tok not in ("0", "1"):
                raise ParseError(
                    f"{path}: line {lineno}: entry {j + 1} must be 0 or 1, got {tok!r}"
                )
    mask = np.array(cells) == "1"
    groups: tuple[str, ...] | None = None
    rest = raw[1 + n :]
    if rest:
        if len(rest) != n:
            raise ParseError(
                f"{path}: line {2 + n}: expected {n} '#group' lines, got {len(rest)}"
            )
        labels = []
        for k, line in enumerate(rest):
            lineno = 2 + n + k
            if not line.startswith("#group "):
                raise ParseError(f"{path}: line {lineno}: expected '#group <label>'")
            labels.append(line[len("#group ") :])
        groups = tuple(labels)
    try:
        return ReceptiveFieldMask(rows, cols, mask, groups)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
