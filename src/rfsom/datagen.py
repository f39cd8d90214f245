"""Synthetic self-touch training data.

A two-link arm hangs off a torso-fixed shoulder; a face target point rides on
a two-joint head. Configurations are drawn uniformly inside the joint limits
and kept when the hand lands within the touch radius of the face target.
All geometry lives in ``ChainSpec`` and is an artifact default, not recorded
robot data.

The sampler draws raw doubles and scales them in place, which gives the
bytes ``Generator.uniform`` would. It runs the arm kinematics on a whole
batch, one array per coordinate, and skips a wrist rotation about x, the
forearm's own axis, since it cannot move the contact point. The head
kinematics and the exact touch test run only on the draws whose hand
distance from the torso origin is within the touch radius of
|face_target|, since no other draw can touch (``_touch_hits``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fileio import ParseError, atomic_write_text, format_float, read_lines
from .som import _check_seed

JOINT_NAMES = (
    "head_yaw",
    "head_pitch",
    "shoulder_roll",
    "shoulder_pitch",
    "elbow_roll",
    "elbow_yaw",
    "wrist",
)

CSV_HEADER = ",".join(JOINT_NAMES)


def joint_names(dims: int) -> tuple[str, ...]:
    """Names of a map's input dimensions: the joints for 7-dim data, else
    ``dim_<j>``."""
    if dims == len(JOINT_NAMES):
        return JOINT_NAMES
    return tuple(f"dim_{j}" for j in range(dims))


AXES = ("x", "y", "z")

# internal sampler batch; fixed so results never depend on chunking
_BATCH = 65536


class SamplingError(RuntimeError):
    """Rejection sampling ran out of attempts before collecting n rows."""


@dataclass(frozen=True)
class ChainSpec:
    """Kinematic chain geometry, joint limits, and the touch predicate radius.

    Angles are radians throughout; lengths and offsets are meters. The hand
    contact point sits on the wrist rotation axis, so the wrist angle enters
    the chain but cannot move the contact point under the default axes.
    """

    joint_limits: tuple[tuple[float, float], ...] = (
        (-2.0857, 2.0857),  # head_yaw
        (-0.6720, 0.5149),  # head_pitch
        (-1.3265, 0.3142),  # shoulder_roll
        (-2.0857, 2.0857),  # shoulder_pitch
        (0.0349, 1.5446),  # elbow_roll
        (-2.0857, 2.0857),  # elbow_yaw
        (-1.8238, 1.8238),  # wrist
    )
    shoulder_offset: tuple[float, float, float] = (0.0, -0.098, 0.100)
    upper_arm: float = 0.105
    forearm_hand: float = 0.114
    face_target: tuple[float, float, float] = (0.05, 0.0, 0.05)
    touch_radius: float = 0.03
    joint_axes: tuple[str, ...] = ("z", "y", "z", "y", "z", "x", "x")

    def __post_init__(self) -> None:
        if len(self.joint_limits) != len(JOINT_NAMES):
            raise ValueError(f"need {len(JOINT_NAMES)} joint limit pairs")
        for name, (lo, hi) in zip(JOINT_NAMES, self.joint_limits):
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise ValueError(f"degenerate limits for {name}: [{lo}, {hi}]")
            # the sampler scales draws by hi - lo, which must be finite
            if not math.isfinite(hi - lo):
                raise ValueError(f"limits for {name} span more than a float: [{lo}, {hi}]")
        if len(self.shoulder_offset) != 3 or len(self.face_target) != 3:
            raise ValueError("shoulder_offset and face_target must be 3-vectors")
        if self.upper_arm <= 0.0 or self.forearm_hand <= 0.0:
            raise ValueError("link lengths must be positive")
        if not self.touch_radius > 0.0:
            raise ValueError(f"touch_radius must be positive, got {self.touch_radius}")
        if len(self.joint_axes) != len(JOINT_NAMES):
            raise ValueError(f"need {len(JOINT_NAMES)} joint axes")
        for name, axis in zip(JOINT_NAMES, self.joint_axes):
            if axis not in AXES:
                raise ValueError(f"axis for {name} must be one of {AXES}, got {axis!r}")

    @property
    def lower_limits(self) -> np.ndarray:
        return np.array([lo for lo, _ in self.joint_limits], dtype=np.float64)

    @property
    def upper_limits(self) -> np.ndarray:
        return np.array([hi for _, hi in self.joint_limits], dtype=np.float64)


def _rotate(axis: str, theta: np.ndarray, x: np.ndarray, y: np.ndarray, z: np.ndarray):
    """Rotate the 3-vectors ``(x, y, z)``, one (B,) array per coordinate, by
    ``theta`` (B,) about a torso-frame axis, right-handed."""
    c = np.cos(theta)
    s = np.sin(theta)
    if axis == "x":
        return x, c * y - s * z, s * y + c * z
    if axis == "y":
        return c * x + s * z, y, -s * x + c * z
    return c * x - s * y, s * x + c * y, z


def _hand(angles: np.ndarray, chain: ChainSpec):
    """Hand position ``(x, y, z)`` for a (B, 7) batch of joint angles."""
    ax = chain.joint_axes
    b = angles.shape[0]
    x = np.full(b, chain.forearm_hand, dtype=np.float64)
    y = np.zeros(b)
    z = np.zeros(b)
    # chain from torso: shoulder roll, shoulder pitch, upper arm, elbow yaw
    # (twist about the upper-arm axis), elbow roll (flexion), wrist, forearm;
    # rotations apply innermost first; a wrist turn about x, the forearm's own
    # axis, leaves (forearm_hand, 0, 0) in place and only flips signs of zeros
    if ax[6] != "x":
        x, y, z = _rotate(ax[6], angles[:, 6], x, y, z)
    x, y, z = _rotate(ax[4], angles[:, 4], x, y, z)
    x, y, z = _rotate(ax[5], angles[:, 5], x, y, z)
    x = x + chain.upper_arm
    x, y, z = _rotate(ax[3], angles[:, 3], x, y, z)
    x, y, z = _rotate(ax[2], angles[:, 2], x, y, z)
    ox, oy, oz = chain.shoulder_offset
    return ox + x, oy + y, oz + z


def _target(angles: np.ndarray, chain: ChainSpec):
    """Face-target position ``(x, y, z)`` for a (B, 7) batch of joint angles."""
    ax = chain.joint_axes
    b = angles.shape[0]
    x, y, z = (np.full(b, v, dtype=np.float64) for v in chain.face_target)
    x, y, z = _rotate(ax[1], angles[:, 1], x, y, z)
    return _rotate(ax[0], angles[:, 0], x, y, z)


def _touch_hits(draw: np.ndarray, chain: ChainSpec) -> np.ndarray:
    """Indices of the rows of a (B, 7) batch whose hand lands within
    ``touch_radius`` of the face target, ascending.

    The head rotates about the torso origin, so the target stays at distance
    rho = |face_target| from it, and the triangle inequality gives
    gap >= | |hand| - rho |. Only draws passing that bound, with a slack that
    float rounding cannot exhaust, get the head kinematics and the exact test.
    """
    r = chain.touch_radius
    hx, hy, hz = _hand(draw, chain)
    rho = math.hypot(*chain.face_target)
    norm = np.sqrt(hx * hx + hy * hy + hz * hz)
    cand = np.flatnonzero(np.abs(norm - rho) < r * (1 + 1e-9) + 1e-12)
    tx, ty, tz = _target(draw[cand], chain)
    dx = hx[cand] - tx
    dy = hy[cand] - ty
    dz = hz[cand] - tz
    gap = np.sqrt((dx * dx + dy * dy) + dz * dz)
    return cand[gap < r]


def forward_kinematics(sample, chain: ChainSpec = ChainSpec()) -> tuple[np.ndarray, np.ndarray]:
    """Hand position and face-target position (torso frame, meters) for one
    joint configuration. Pure; out-of-limit angles raise ValueError."""
    x = np.asarray(sample, dtype=np.float64)
    if x.shape != (len(JOINT_NAMES),):
        raise ValueError(f"sample has shape {x.shape}, expected ({len(JOINT_NAMES)},)")
    for name, angle, (lo, hi) in zip(JOINT_NAMES, x, chain.joint_limits):
        if not lo <= angle <= hi:
            raise ValueError(f"{name} angle {angle} outside limits [{lo}, {hi}]")
    row = x[None, :]
    return np.concatenate(_hand(row, chain)), np.concatenate(_target(row, chain))


@dataclass
class SynthesisResult:
    """Accepted samples plus the sampling effort that produced them."""

    data: np.ndarray
    attempts: int
    acceptance_rate: float


def synthesize_self_touch(
    chain: ChainSpec, n: int, seed: int, max_attempts: int | None = None
) -> SynthesisResult:
    """Draw joint configurations uniformly within limits and keep those whose
    hand lands within ``touch_radius`` of the face target.

    Deterministic for fixed (chain, n, seed); ``max_attempts`` only bounds the
    search (default ``max(100000, 20000 * n)`` draws) and never changes
    accepted rows.
    ``attempts`` counts draws up to and including the n-th acceptance.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if max_attempts is None:
        max_attempts = max(100_000, 20_000 * n)
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    rng = np.random.default_rng(_check_seed(seed))
    lo = chain.lower_limits
    span = chain.upper_limits - lo
    kept: list[np.ndarray] = []
    accepted = 0
    drawn = 0
    while drawn < max_attempts:
        # the bytes of rng.uniform(lo, hi, ...), which computes lo + span * U
        draw = rng.random((_BATCH, len(JOINT_NAMES)))
        draw *= span
        draw += lo
        hits = _touch_hits(draw, chain)
        hits = hits[hits < max_attempts - drawn][: n - accepted]
        kept.append(draw[hits])
        accepted += hits.size
        if accepted == n:
            attempts = drawn + int(hits[-1]) + 1
            return SynthesisResult(np.concatenate(kept, axis=0), attempts, n / attempts)
        drawn += _BATCH
    raise SamplingError(
        f"accepted only {accepted} of {n} samples within {max_attempts} attempts; "
        "increase touch_radius or max_attempts"
    )


def save_csv(dataset, path) -> None:
    """Write the 7-column dataset format (header + 17-significant-digit rows)."""
    X = np.asarray(dataset, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(JOINT_NAMES):
        raise ValueError(f"dataset has shape {X.shape}, expected (n, {len(JOINT_NAMES)})")
    if not np.isfinite(X).all():
        raise ValueError("dataset contains non-finite values")
    lines = [CSV_HEADER]
    for row in X:
        lines.append(",".join(format_float(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_csv(path) -> np.ndarray:
    """Read the dataset format back; exact inverse of ``save_csv`` at full
    printed precision."""
    raw = read_lines(path)
    if not raw or raw[0] != CSV_HEADER:
        got = raw[0] if raw else ""
        raise ParseError(f"{path}: line 1: expected header {CSV_HEADER!r}, got {got!r}")
    out = np.empty((len(raw) - 1, len(JOINT_NAMES)), dtype=np.float64)
    for i, line in enumerate(raw[1:]):
        lineno = i + 2
        cells = line.split(",")
        if len(cells) != len(JOINT_NAMES):
            raise ParseError(
                f"{path}: line {lineno}: expected {len(JOINT_NAMES)} columns, got {len(cells)}"
            )
        for j, cell in enumerate(cells):
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: line {lineno}, column {j + 1}: not a number: {cell!r}"
                ) from None
            if not np.isfinite(value):
                raise ParseError(
                    f"{path}: line {lineno}, column {j + 1}: non-finite value {cell!r}"
                )
            out[i, j] = value
    return out


@dataclass
class NormalizationParams:
    """Per-joint mean and population standard deviation of a training set."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=np.float64)
        std = np.asarray(self.std, dtype=np.float64)
        if mean.ndim != 1 or mean.shape != std.shape:
            raise ValueError(
                f"mean and std must be 1-D with equal shapes, got {mean.shape} and {std.shape}"
            )
        if not (np.isfinite(mean).all() and np.isfinite(std).all()):
            raise ValueError("normalization parameters must be finite")
        if not (std > 0.0).all():
            raise ValueError("every std must be positive")
        self.mean = mean
        self.std = std


def fit_normalization(dataset) -> NormalizationParams:
    """Per-column mean and population (1/N) standard deviation.

    Needs at least 2 rows; a constant column cannot be z-scored and raises
    an error naming the joint.
    """
    X = np.asarray(dataset, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"dataset must be 2-D, got shape {X.shape}")
    if X.shape[0] < 2:
        raise ValueError(f"need at least 2 rows to fit normalization, got {X.shape[0]}")
    if not np.isfinite(X).all():
        raise ValueError("dataset contains non-finite values")
    # detect constant columns by exact range, not std == 0: rounding in the
    # mean can leave a constant column with a tiny nonzero std
    constant = X.max(axis=0) == X.min(axis=0)
    for j in np.flatnonzero(constant):
        raise ValueError(f"{joint_names(X.shape[1])[j]} is constant; cannot normalize")
    return NormalizationParams(X.mean(axis=0), X.std(axis=0, ddof=0))


def apply_normalization(data, params: NormalizationParams) -> np.ndarray:
    """Z-score rows (or one sample) with the fitted parameters."""
    X = np.asarray(data, dtype=np.float64)
    if X.shape[-1] != params.mean.shape[0]:
        raise ValueError(
            f"data has {X.shape[-1]} columns, normalization has {params.mean.shape[0]}"
        )
    return (X - params.mean) / params.std


def invert_normalization(data, params: NormalizationParams) -> np.ndarray:
    """Map z-scored values back to raw units."""
    X = np.asarray(data, dtype=np.float64)
    if X.shape[-1] != params.mean.shape[0]:
        raise ValueError(
            f"data has {X.shape[-1]} columns, normalization has {params.mean.shape[0]}"
        )
    return X * params.std + params.mean
