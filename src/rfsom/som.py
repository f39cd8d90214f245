"""Baseline Kohonen map: codebook state, winner search, training loop, quality metrics.

This is the unrestricted (all-to-all) map; the receptive-field variant in
``rfsom.mrf`` specializes it. Training is stochastic (per-sample updates)
and fully deterministic for a fixed schedule seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import LatticeSpec, distance_matrix, neighborhood_weight

DECAYS = ("exponential", "linear")

_MAX_SEED = 2**64


def _check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed < _MAX_SEED:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    return int(seed)


@dataclass
class Codebook:
    """Weight matrix of all neurons plus the lattice it lives on.

    ``weights[i]`` is the weight vector of the neuron at row-major index
    ``i``; weight units are those of the (normalized) input space.
    """

    weights: np.ndarray
    lattice: LatticeSpec

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 2:
            raise ValueError(f"codebook weights must be 2-D, got shape {w.shape}")
        if w.shape[0] != self.lattice.n_neurons:
            raise ValueError(
                f"codebook has {w.shape[0]} rows but lattice "
                f"{self.lattice.rows}x{self.lattice.cols} has {self.lattice.n_neurons} neurons"
            )
        if not np.isfinite(w).all():
            raise ValueError("codebook weights must be finite")
        self.weights = w

    @property
    def n_neurons(self) -> int:
        return self.weights.shape[0]

    @property
    def dims(self) -> int:
        return self.weights.shape[1]

    def copy(self) -> "Codebook":
        return Codebook(self.weights.copy(), self.lattice)


@dataclass(frozen=True)
class TrainSchedule:
    """Learning-rate and neighborhood-radius decay over the whole run.

    Both curves start at their *0 value on the first global step and reach
    their *_end value on the last one; ``seed`` drives the per-epoch sample
    shuffle (and nothing else).
    """

    epochs: int = 100
    alpha0: float = 0.5
    alpha_end: float = 0.01
    sigma0: float = 2.0
    sigma_end: float = 0.5
    decay: str = "exponential"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if not 0.0 < self.alpha0 <= 1.0:
            raise ValueError(f"alpha0 must be in (0, 1], got {self.alpha0}")
        if not 0.0 < self.alpha_end <= self.alpha0:
            raise ValueError(f"alpha_end must be in (0, alpha0], got {self.alpha_end}")
        if self.sigma0 <= 0.0:
            raise ValueError(f"sigma0 must be positive, got {self.sigma0}")
        if not 0.0 < self.sigma_end <= self.sigma0:
            raise ValueError(f"sigma_end must be in (0, sigma0], got {self.sigma_end}")
        if self.decay not in DECAYS:
            raise ValueError(f"unknown decay {self.decay!r}, expected one of {DECAYS}")
        _check_seed(self.seed)

    def alpha_values(self, total_steps: int) -> np.ndarray:
        return _decay_values(self.alpha0, self.alpha_end, self.decay, total_steps)

    def sigma_values(self, total_steps: int) -> np.ndarray:
        return _decay_values(self.sigma0, self.sigma_end, self.decay, total_steps)


def _decay_values(v0: float, v_end: float, decay: str, total: int) -> np.ndarray:
    """Per-step parameter values for steps 0 .. total-1, monotone non-increasing."""
    if total <= 0:
        return np.empty(0, dtype=np.float64)
    if total == 1:
        # a single step is both first and last; the start value wins
        return np.array([v0], dtype=np.float64)
    frac = np.arange(total, dtype=np.float64) / (total - 1)
    if decay == "exponential":
        return v0 * (v_end / v0) ** frac
    return v0 + (v_end - v0) * frac


@dataclass
class TrainLog:
    """Per-epoch map quality: one entry per completed epoch."""

    quantization_errors: list[float] = field(default_factory=list)
    topographic_errors: list[float] = field(default_factory=list)


def init_codebook(lattice: LatticeSpec, dims: int, seed: int) -> Codebook:
    """Random codebook with weights drawn i.i.d. uniform in [-1, 1].

    The same seed yields bit-identical weights.
    """
    if dims < 1:
        raise ValueError(f"dims must be >= 1, got {dims}")
    rng = np.random.default_rng(_check_seed(seed))
    return Codebook(rng.uniform(-1.0, 1.0, size=(lattice.n_neurons, dims)), lattice)


def _as_sample(sample, dims: int) -> np.ndarray:
    x = np.asarray(sample, dtype=np.float64)
    if x.shape != (dims,):
        raise ValueError(f"sample has shape {x.shape}, expected ({dims},)")
    return x


def _as_dataset(dataset, dims: int) -> np.ndarray:
    X = np.asarray(dataset, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != dims:
        raise ValueError(f"dataset has shape {X.shape}, expected (n, {dims})")
    if X.shape[0] == 0:
        raise ValueError("dataset is empty")
    if not np.isfinite(X).all():
        row, col = np.argwhere(~np.isfinite(X))[0]
        raise ValueError(f"dataset value at row {row}, column {col} is not finite: {X[row, col]}")
    return X


def find_bmu(sample, codebook: Codebook) -> int:
    """Index of the neuron closest to ``sample`` (Euclidean; ties break to the
    smallest row-major index)."""
    x = _as_sample(sample, codebook.dims)
    d = np.sqrt(((codebook.weights - x) ** 2).sum(axis=1))
    return int(np.argmin(d))


def update_step(codebook: Codebook, sample, bmu: int, alpha: float, sigma: float) -> Codebook:
    """One Kohonen update: every neuron moves toward the sample, scaled by
    alpha and the Gaussian neighborhood of the winner. Returns a new codebook."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    x = _as_sample(sample, codebook.dims)
    if not 0 <= bmu < codebook.n_neurons:
        raise ValueError(f"bmu index {bmu} out of range")
    h = neighborhood_weight(distance_matrix(codebook.lattice)[bmu], sigma)
    w = codebook.weights.copy()
    w += (alpha * h)[:, None] * (x - w)
    return Codebook(w, codebook.lattice)


def shuffle_order(seed: int, epoch: int, n: int) -> np.ndarray:
    """Deterministic sample order for one epoch (seed advanced per epoch)."""
    return np.random.default_rng([_check_seed(seed), epoch]).permutation(n)


def train(codebook: Codebook, dataset, schedule: TrainSchedule) -> tuple[Codebook, TrainLog]:
    """Stochastic training over ``epochs`` x shuffled samples.

    Deterministic for a fixed schedule seed; the input codebook is not
    modified. The log gains one (quantization error, topographic error)
    pair per completed epoch.
    """
    X = _as_dataset(dataset, codebook.dims)
    W = codebook.weights.copy()
    D = distance_matrix(codebook.lattice)
    n = X.shape[0]
    total = schedule.epochs * n
    alphas = schedule.alpha_values(total)
    sigmas = schedule.sigma_values(total)
    log = TrainLog()
    t = 0
    for epoch in range(schedule.epochs):
        for i in shuffle_order(schedule.seed, epoch, n):
            x = X[i]
            d = np.sqrt(((W - x) ** 2).sum(axis=1))
            b = int(np.argmin(d))
            h = neighborhood_weight(D[b], sigmas[t])
            W += (alphas[t] * h)[:, None] * (x - W)
            t += 1
        qe, te = _epoch_metrics(_sample_distances(W, X), D)
        log.quantization_errors.append(qe)
        log.topographic_errors.append(te)
    return Codebook(W, codebook.lattice), log


def _sample_distances(W: np.ndarray, X: np.ndarray) -> np.ndarray:
    """(n_samples, n_neurons) Euclidean distances."""
    return np.sqrt(((X[:, None, :] - W[None, :, :]) ** 2).sum(axis=2))


def _epoch_metrics(d: np.ndarray, D: np.ndarray) -> tuple[float, float]:
    """(quantization error, topographic error) from a sample-distance matrix."""
    qe = float(d.min(axis=1).mean())
    if d.shape[1] < 2:
        return qe, 0.0
    order = np.argsort(d, axis=1, kind="stable")
    te = float((D[order[:, 0], order[:, 1]] != 1).mean())
    return qe, te


def quantization_error(codebook: Codebook, dataset) -> float:
    """Mean Euclidean distance from each sample to its best-matching unit."""
    X = _as_dataset(dataset, codebook.dims)
    return float(_sample_distances(codebook.weights, X).min(axis=1).mean())


def topographic_error(codebook: Codebook, dataset) -> float:
    """Fraction of samples whose two best-matching units are not lattice-adjacent.

    Adjacency means lattice distance exactly 1 under the configured metric.
    """
    if codebook.n_neurons < 2:
        raise ValueError("topographic error needs at least 2 neurons")
    X = _as_dataset(dataset, codebook.dims)
    d = _sample_distances(codebook.weights, X)
    order = np.argsort(d, axis=1, kind="stable")
    D = distance_matrix(codebook.lattice)
    return float((D[order[:, 0], order[:, 1]] != 1).mean())
