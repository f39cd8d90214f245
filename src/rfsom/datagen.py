"""Synthetic self-touch training data.

A two-link arm hangs off a torso-fixed shoulder; a face target point rides on
a two-joint head. Configurations are drawn uniformly inside the joint limits
and kept when the hand lands within the touch radius of the face target.
All geometry lives in ``ChainSpec`` and is an artifact default, not recorded
robot data. Joint limits, link lengths, the shoulder offset, the face
target, the touch radius, datasets and normalization parameters pass the
library's one value check: finite and at most 1e100 in magnitude.

The sampler draws raw doubles into one buffer and scales them in place,
several draws to a row, which gives the bytes ``Generator.uniform`` would.
It runs the arm kinematics on a whole batch, one array per coordinate, and
skips a wrist rotation about x, the forearm's own axis, since it cannot move
the contact point. A float32 screen, with a slack that covers its rounding,
is the only prefilter. It first drops every draw whose hand distance from
the torso origin is off |face_target| by the touch radius or more, since
such a draw cannot touch; on the few percent left it runs the head
kinematics and drops every draw whose hand-to-target gap clears the radius.
The float64 arm and head kinematics and the exact touch test run on every
draw it keeps, a few per batch (``_touch_hits``). Float64 trigonometry and
arithmetic are elementwise, so a kept draw gets the bits a whole-batch
float64 pass would give it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fileio import ParseError, atomic_write_text, format_float, read_lines
from .som import _MAX_MAGNITUDE, _as_sample, _check_seed, _check_values

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

# draws per sampler batch. Rows, attempts and SamplingError counts never
# depend on it: the RNG stream is read in order and every draw is tested on
# its own. 16384 draws hold the sampler's traced peak near 2.2 MiB (65536
# held 5.8 MiB), and no size from 4096 to 65536 sampled faster per draw.
_BATCH = 16384


class SamplingError(RuntimeError):
    """Rejection sampling ran out of attempts before collecting n rows."""


@dataclass(frozen=True)
class ChainSpec:
    """Kinematic chain geometry, joint limits, and the touch predicate radius.

    Angles are radians throughout; lengths and offsets are meters. The hand
    contact point sits on the wrist rotation axis, so the wrist angle enters
    the chain but cannot move the contact point under the default axes.
    Every limit, length, offset, target coordinate and the radius is finite
    and at most 1e100 in magnitude, so the float64 kinematics cannot overflow.
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
            _check_values((lo, hi), f"{name} limit")
            if not lo < hi:
                raise ValueError(f"degenerate limits for {name}: [{lo}, {hi}]")
        if len(self.shoulder_offset) != 3 or len(self.face_target) != 3:
            raise ValueError("shoulder_offset and face_target must be 3-vectors")
        for name in ("shoulder_offset", "upper_arm", "forearm_hand", "face_target", "touch_radius"):
            _check_values(np.ravel(getattr(self, name)), name)
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


def _hand(angles: np.ndarray, chain: ChainSpec, scale: float = 1.0, dtype=np.float64):
    """Hand position ``(x, y, z)`` for a (B, 7) batch of joint angles,
    computed in ``dtype`` and in units of ``scale`` meters."""
    ax = chain.joint_axes
    b = angles.shape[0]
    dtype = np.dtype(dtype)
    x = np.full(b, chain.forearm_hand / scale, dtype=dtype)
    y = np.zeros(b, dtype=dtype)
    z = np.zeros(b, dtype=dtype)
    # chain from torso: shoulder roll, shoulder pitch, upper arm, elbow yaw
    # (twist about the upper-arm axis), elbow roll (flexion), wrist, forearm;
    # rotations apply innermost first; a wrist turn about x, the forearm's own
    # axis, leaves (forearm_hand, 0, 0) in place and only flips signs of zeros;
    # each angle column is cast on its own (float64 angles stay views), which
    # keeps a float32 pass from copying the whole batch
    if ax[6] != "x":
        x, y, z = _rotate(ax[6], angles[:, 6].astype(dtype, copy=False), x, y, z)
    x, y, z = _rotate(ax[4], angles[:, 4].astype(dtype, copy=False), x, y, z)
    x, y, z = _rotate(ax[5], angles[:, 5].astype(dtype, copy=False), x, y, z)
    x = x + dtype.type(chain.upper_arm / scale)
    x, y, z = _rotate(ax[3], angles[:, 3].astype(dtype, copy=False), x, y, z)
    x, y, z = _rotate(ax[2], angles[:, 2].astype(dtype, copy=False), x, y, z)
    ox, oy, oz = (dtype.type(v / scale) for v in chain.shoulder_offset)
    return ox + x, oy + y, oz + z


def _target(angles: np.ndarray, chain: ChainSpec, scale: float = 1.0, dtype=np.float64):
    """Face-target position ``(x, y, z)`` for a (B, 7) batch of joint angles,
    computed in ``dtype`` and in units of ``scale`` meters."""
    ax = chain.joint_axes
    b = angles.shape[0]
    dtype = np.dtype(dtype)
    x, y, z = (np.full(b, v / scale, dtype=dtype) for v in chain.face_target)
    x, y, z = _rotate(ax[1], angles[:, 1].astype(dtype, copy=False), x, y, z)
    return _rotate(ax[0], angles[:, 0].astype(dtype, copy=False), x, y, z)


def _screen_slack(chain: ChainSpec) -> float:
    """How far, in units of the screen's length scale L, either float32 test
    of ``_screen`` can stray from its float64 value, plus the rounding of
    the test's own differences and threshold.

    With u = 2**-24 (float32 rounding) and A the largest |joint limit|, each
    float32 cosine and sine is off by at most e = u*A (the angle's cast)
    + 2**-16 (float32 cos and sin, allowed 256 ulp of 1.0 where numpy's are
    tested to a few). Every position is a length <= 1 in units of L, so each
    rotation adds at most 2e + 4u. The arm's five rotations, its three
    offsets, the norm, rho/L and the shell test's difference and threshold
    add at most 10e + 30u; the head's two rotations add 2e + 4u each, and
    the face target's cast, the gap's differences and norm (a gap is at
    most 2) and its threshold at most 8u more: 14e + 46u in all, for both
    tests. At the default limits that is 2.2e-4, about 840 times the worst
    gap error measured on sampler batches (2.6e-7). A grows with the
    limits, so limits far beyond +-pi widen the screen until it keeps every
    draw; a limit too large for float32 casts to inf, whose cosine is NaN,
    and a NaN distance is kept.
    """
    u = 2.0**-24
    e = u * max(max(abs(lo), abs(hi)) for lo, hi in chain.joint_limits) + 2.0**-16
    return 14.0 * e + 46.0 * u


def _screen(draw: np.ndarray, chain: ChainSpec) -> np.ndarray:
    """Indices of the rows of a (B, 7) batch that a float32 pass of the
    kinematics cannot rule out as touches, ascending.

    Both tests run on geometry divided by L = max(arm reach, rho), so that
    every value stays at or below 1, and keep a draw unless their value
    clears r/L by the slack of ``_screen_slack``; a NaN keeps it. The shell
    test runs on every draw: the head rotates about the torso origin, so the
    target stays at distance rho = |face_target| from it, and the triangle
    inequality gives gap >= | |hand| - rho |. It needs only the arm and
    keeps about 6% of a default batch. The gap test runs the head
    kinematics on those draws only and tests |hand - target| itself; it
    keeps about 0.009%, 226 draws for 223 touches in 40 batches of 65536.
    """
    r = chain.touch_radius
    rho = math.hypot(*chain.face_target)
    scale = max(math.hypot(*chain.shoulder_offset) + chain.upper_arm + chain.forearm_hand, rho)
    reach = r / scale + _screen_slack(chain)
    # huge limits overflow the float32 cast and give NaN cosines: kept draws;
    # a huge radius casts to an inf threshold
    with np.errstate(over="ignore", invalid="ignore"):
        x, y, z = _hand(draw, chain, scale, np.float32)
        norm = np.sqrt(x * x + y * y + z * z)
        live = np.flatnonzero(~(np.abs(norm - np.float32(rho / scale)) >= reach))
        tx, ty, tz = _target(draw[live], chain, scale, np.float32)
        dx = x[live] - tx
        dy = y[live] - ty
        dz = z[live] - tz
        gap = np.sqrt(dx * dx + dy * dy + dz * dz)
        return live[~(gap >= reach)]


def _touch_hits(draw: np.ndarray, chain: ChainSpec) -> np.ndarray:
    """Indices of the rows of a (B, 7) batch whose hand lands within
    ``touch_radius`` of the face target, ascending.

    ``_screen`` is the one prefilter: every draw it keeps, a few per
    batch, gets the float64 arm and head kinematics and the exact test
    ``gap < touch_radius``. Float64 cos, sin and arithmetic are elementwise,
    so each of them gets the bits a whole-batch float64 pass would give it.
    """
    live = _screen(draw, chain)
    kept = draw[live]
    hx, hy, hz = _hand(kept, chain)
    tx, ty, tz = _target(kept, chain)
    dx = hx - tx
    dy = hy - ty
    dz = hz - tz
    gap = np.sqrt((dx * dx + dy * dy) + dz * dz)
    return live[gap < chain.touch_radius]


def forward_kinematics(sample, chain: ChainSpec = ChainSpec()) -> tuple[np.ndarray, np.ndarray]:
    """Hand position and face-target position (torso frame, meters) for one
    joint configuration. Pure; a sample that fails the value check or has an
    out-of-limit angle raises ValueError."""
    x = _as_sample(sample, len(JOINT_NAMES))
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
    # the bytes of rng.uniform(lo, hi, ...), which computes lo + span * U,
    # scaled k draws to a row (k divides the batch): numpy runs a 7k-long
    # row operand down the batch far faster than a 7-vector
    k = math.gcd(_BATCH, 64)
    lo = np.tile(chain.lower_limits, k)
    span = np.tile(chain.upper_limits, k) - lo
    draw = np.empty((_BATCH, len(JOINT_NAMES)))
    wide = draw.reshape(-1, span.size)
    kept: list[np.ndarray] = []
    accepted = 0
    drawn = 0
    while drawn < max_attempts:
        rng.random(out=draw)
        wide *= span
        wide += lo
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
    lines = [CSV_HEADER]
    for row in _check_values(X, "dataset"):
        lines.append(",".join(format_float(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _plain(text: str) -> bool:
    """False when ``text`` holds what float() reads beyond an ASCII decimal
    literal: non-ASCII digits, 1_0, or ASCII whitespace around a number."""
    return (
        text.isascii() and "_" not in text and " " not in text and "\t" not in text
        and "\x0b" not in text and "\x0c" not in text
    )


def load_csv(path) -> np.ndarray:
    """Read the dataset format back; exact inverse of ``save_csv`` at full
    printed precision. Every cell must be an ASCII decimal literal that
    passes ``_check_values``; the first that is not is reported with its
    line, column and text."""
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
        # only a line that fails the test is checked cell by cell; there ""
        # stands in for a cell that float() would read past the format
        texts = cells if _plain(line) else [cell if _plain(cell) else "" for cell in cells]
        for j, text in enumerate(texts):
            try:
                out[i, j] = float(text)
            except ValueError:
                raise ParseError(
                    f"{path}: line {lineno}, column {j + 1}: not a number: {cells[j]!r}"
                ) from None

    def bad_cell(at, why):
        cell = raw[at[0] + 1].split(",")[at[1]]
        return ParseError(f"{path}: line {at[0] + 2}, column {at[1] + 1}: value {cell!r} {why}")

    return _check_values(out, "dataset", bad_cell)


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
        mean = _check_values(mean, "normalization mean")
        std = _check_values(std, "normalization std")
        # the floor keeps z-scores of in-limit values finite: 2e100 / 1e-100
        # is 2e200, which the value check then refuses with its location
        low = np.flatnonzero(std < 1 / _MAX_MAGNITUDE)
        if low.size:
            raise ValueError(
                f"every std must be positive and at least {1 / _MAX_MAGNITUDE:g}, "
                f"got {std[low[0]]} at index {low[0]}"
            )
        self.mean = mean
        self.std = std


def fit_normalization(dataset) -> NormalizationParams:
    """Per-column mean and population (1/N) standard deviation.

    Needs at least 2 rows; a constant column, or one whose std is below the
    floor 1e-100 of ``NormalizationParams``, cannot be z-scored and raises
    an error naming the joint.
    """
    X = np.asarray(dataset, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"dataset must be 2-D, got shape {X.shape}")
    if X.shape[0] < 2:
        raise ValueError(f"need at least 2 rows to fit normalization, got {X.shape[0]}")
    X = _check_values(X, "dataset")
    std = X.std(axis=0, ddof=0)
    # detect constant columns by exact range, not std == 0: rounding in the
    # mean can leave a constant column with a tiny nonzero std
    constant = X.max(axis=0) == X.min(axis=0)
    for j in np.flatnonzero(constant | (std < 1 / _MAX_MAGNITUDE)):
        why = "is constant" if constant[j] else f"has std {std[j]}, below {1 / _MAX_MAGNITUDE:g}"
        raise ValueError(f"{joint_names(X.shape[1])[j]} {why}; cannot normalize")
    return NormalizationParams(X.mean(axis=0), std)


def _as_columns(data, params: NormalizationParams) -> np.ndarray:
    X = np.asarray(data, dtype=np.float64)
    if X.shape[-1] != params.mean.shape[0]:
        raise ValueError(
            f"data has {X.shape[-1]} columns, normalization has {params.mean.shape[0]}"
        )
    return X


def apply_normalization(data, params: NormalizationParams) -> np.ndarray:
    """Z-score rows (or one sample) with the fitted parameters."""
    return (_as_columns(data, params) - params.mean) / params.std


def invert_normalization(data, params: NormalizationParams) -> np.ndarray:
    """Map z-scored values back to raw units."""
    return _as_columns(data, params) * params.std + params.mean
