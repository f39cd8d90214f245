"""Baseline Kohonen map: codebook state, schedules, winner search, training, quality metrics.

This is the unrestricted (all-to-all) map. Winner search, training and the
metrics are the receptive-field map of ``rfsom.mrf`` with every field full,
unnormalized distances and global winner scope. Training is stochastic
(per-sample updates) and fully deterministic for a fixed schedule seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# neighborhood_weight is unused here but stays bound: perfbench/tracer.py rebinds it
from .lattice import LatticeSpec, neighborhood_weight  # noqa: F401

DECAYS = ("exponential", "linear")

_MAX_SEED = 2**64


def _check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed < _MAX_SEED:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    return int(seed)


# largest |value| any array may hold: normalization and the distances sum
# n squares of differences of two values, and n * (2 * 1e100)**2 = n * 4e200
# stays finite for every n below 1e107, far more rows than fit in memory
_MAX_MAGNITUDE = 1e100


def _check_values(values, what: str, located=None) -> np.ndarray:
    """1-D or 2-D ``values`` as a float64 array. The first entry, row-major,
    that is not finite or exceeds ``_MAX_MAGNITUDE`` in magnitude raises
    ``located(index, reason)`` if given, else a ValueError naming ``what``.
    Only an array whose minimum or maximum fails (a NaN fails both) is searched."""
    v = np.asarray(values, dtype=np.float64)
    # a numpy that warns on a NaN reduction must still reach the located refusal
    with np.errstate(invalid="ignore"):
        if v.size == 0 or (-_MAX_MAGNITUDE <= v.min() and v.max() <= _MAX_MAGNITUDE):
            return v
    at = tuple(np.argwhere(~(np.abs(v) <= _MAX_MAGNITUDE))[0])
    big = f"exceeds the magnitude limit {_MAX_MAGNITUDE:g}"
    why = big if math.isfinite(v[at]) else "is not finite"
    if located is not None:
        raise located(at, why)
    where = f"row {at[0]}, column {at[1]}" if v.ndim == 2 else f"index {at[0]}"
    raise ValueError(f"{what} value at {where} {why}: {v[at]}")


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
        self.weights = _check_values(w, "codebook")

    @property
    def n_neurons(self) -> int:
        return self.weights.shape[0]

    @property
    def dims(self) -> int:
        return self.weights.shape[1]


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
        _check_values([self.sigma0], "sigma0")
        if self.sigma0 <= 0.0:
            raise ValueError(f"sigma0 must be positive, got {self.sigma0}")
        if not 1 / _MAX_MAGNITUDE <= self.sigma_end <= self.sigma0:
            raise ValueError(f"sigma_end must be in [1e-100, sigma0], got {self.sigma_end}")
        if self.decay not in DECAYS:
            raise ValueError(f"unknown decay {self.decay!r}, expected one of {DECAYS}")
        # the last step's value (frac = 1) is the same for every total, and
        # both curves are non-increasing, so a positive last value is enough
        for name in ("alpha", "sigma"):
            v0, v_end = getattr(self, f"{name}0"), getattr(self, f"{name}_end")
            last = _decay_values(v0, v_end, self.decay, 2)[-1]
            if not last > 0.0:
                raise ValueError(
                    f"{name}0={v0} and {name}_end={v_end} end the {self.decay} "
                    f"{name} curve at {last}, not a positive value"
                )
        _check_seed(self.seed)

    def alpha_values(
        self, total_steps: int, start: int = 0, stop: int | None = None
    ) -> np.ndarray:
        """Learning rates at global steps start .. stop-1 of a run of
        ``total_steps`` steps (default: every step)."""
        return _decay_values(self.alpha0, self.alpha_end, self.decay, total_steps, start, stop)

    def sigma_values(
        self, total_steps: int, start: int = 0, stop: int | None = None
    ) -> np.ndarray:
        """Neighborhood radii at global steps start .. stop-1, as ``alpha_values``."""
        return _decay_values(self.sigma0, self.sigma_end, self.decay, total_steps, start, stop)


def _decay_values(
    v0: float, v_end: float, decay: str, total: int, start: int = 0, stop: int | None = None
) -> np.ndarray:
    """Values at global steps start .. stop-1 (default: every step) of a
    ``total``-step run, monotone non-increasing. Each step's value depends
    only on its own index, so any range holds the bits of the whole curve."""
    stop = total if stop is None else stop
    # a single step is both first and last: frac 0 gives it the start value
    frac = np.arange(start, stop, dtype=np.float64) / max(total - 1, 1)
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
    return _check_values(x, "sample")


def _as_dataset(dataset, dims: int) -> np.ndarray:
    X = np.asarray(dataset, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != dims:
        raise ValueError(f"dataset has shape {X.shape}, expected (n, {dims})")
    if X.shape[0] == 0:
        raise ValueError("dataset is empty")
    return _check_values(X, "dataset")


def _as_masked(codebook: Codebook):
    """The all-true mask and plain Euclidean configuration under which the
    masked map in ``rfsom.mrf`` is this map (imported here: ``rfsom.mrf``
    imports the codebook types from this module)."""
    from .mrf import MrfConfig, ReceptiveFieldMask

    lattice = codebook.lattice
    full = np.ones((lattice.n_neurons, codebook.dims), dtype=bool)
    mask = ReceptiveFieldMask(lattice.rows, lattice.cols, full)
    return mask, MrfConfig("global-masked", "unnormalized")


def find_bmu(sample, codebook: Codebook) -> int:
    """Index of the neuron closest to ``sample`` (Euclidean; ties break to the
    smallest row-major index)."""
    from .mrf import mrf_find_bmu

    return mrf_find_bmu(sample, codebook, *_as_masked(codebook))


def shuffle_order(seed: int, epoch: int, n: int) -> np.ndarray:
    """Deterministic sample order for one epoch (seed advanced per epoch)."""
    return np.random.default_rng([_check_seed(seed), epoch]).permutation(n)


def train(codebook: Codebook, dataset, schedule: TrainSchedule) -> tuple[Codebook, TrainLog]:
    """Stochastic training of the unrestricted map; see ``rfsom.mrf.mrf_train``."""
    from .mrf import mrf_train

    mask, cfg = _as_masked(codebook)
    return mrf_train(codebook, dataset, mask, schedule, cfg)


def quantization_error(codebook: Codebook, dataset) -> float:
    """Mean Euclidean distance from each sample to its best-matching unit."""
    from .mrf import masked_quantization_error

    return masked_quantization_error(codebook, dataset, *_as_masked(codebook))


def topographic_error(codebook: Codebook, dataset) -> float:
    """Fraction of samples whose two best-matching units are not lattice-adjacent.

    Adjacency means lattice distance exactly 1 under the configured metric.
    """
    from .mrf import masked_topographic_error

    return masked_topographic_error(codebook, dataset, *_as_masked(codebook))
