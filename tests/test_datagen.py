"""Kinematic self-touch sampler, dataset CSV format, z-score normalization."""

import dataclasses
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from rfsom import datagen
from rfsom.datagen import (
    CSV_HEADER,
    JOINT_NAMES,
    ChainSpec,
    NormalizationParams,
    SamplingError,
    _hand,
    _screen,
    _screen_slack,
    _target,
    _touch_hits,
    apply_normalization,
    fit_normalization,
    forward_kinematics,
    invert_normalization,
    load_csv,
    save_csv,
    synthesize_self_touch,
)
from rfsom.fileio import ParseError

from oracles import fk_matrix_oracle, pearson_scan, touch_gaps_rows


def widened_chain(**overrides):
    """Default geometry with limits loose enough to reach test poses."""
    limits = tuple((-2 * math.pi, 2 * math.pi) for _ in JOINT_NAMES)
    return dataclasses.replace(ChainSpec(), joint_limits=limits, **overrides)


def easy_chain(radius=0.5):
    """Default chain with a touch radius generous enough for fast sampling."""
    return dataclasses.replace(ChainSpec(), touch_radius=radius)


# ------------------------------------------------------------- chain spec

def test_chain_defaults_are_valid():
    chain = ChainSpec()
    assert chain.upper_arm == 0.105
    assert chain.forearm_hand == 0.114
    assert chain.touch_radius == 0.03
    assert len(chain.joint_limits) == 7
    assert chain.lower_limits.shape == (7,)
    assert (chain.lower_limits < chain.upper_limits).all()


def test_chain_validation():
    with pytest.raises(ValueError, match="degenerate limits for head_pitch"):
        dataclasses.replace(
            ChainSpec(),
            joint_limits=ChainSpec().joint_limits[:1]
            + ((0.5, 0.5),)
            + ChainSpec().joint_limits[2:],
        )
    # limits at the magnitude limit load; beyond it, the joint is named
    wide = dataclasses.replace(
        ChainSpec(), joint_limits=ChainSpec().joint_limits[:6] + ((-1e100, 1e100),)
    )
    assert wide.upper_limits[6] - wide.lower_limits[6] == 2e100
    message = "wrist limit value at index 0 exceeds the magnitude limit 1e+100: -1e+308"
    with pytest.raises(ValueError, match=re.escape(message)):
        dataclasses.replace(
            ChainSpec(), joint_limits=ChainSpec().joint_limits[:6] + ((-1e308, 1e308),)
        )
    with pytest.raises(ValueError, match="limit pairs"):
        dataclasses.replace(ChainSpec(), joint_limits=((0.0, 1.0),) * 6)
    with pytest.raises(ValueError, match="shoulder_offset and face_target must be 3-vectors"):
        dataclasses.replace(ChainSpec(), face_target=(0.05, 0.0))
    with pytest.raises(ValueError, match="positive"):
        dataclasses.replace(ChainSpec(), upper_arm=0.0)
    with pytest.raises(ValueError, match="touch_radius"):
        dataclasses.replace(ChainSpec(), touch_radius=-0.1)
    with pytest.raises(ValueError, match="axis for wrist"):
        dataclasses.replace(ChainSpec(), joint_axes=("z", "y", "z", "y", "z", "x", "w"))


# each geometry field -> a valid value with ``bad`` at the index it names
GEOMETRY = {
    "shoulder_offset": lambda bad: ((0.0, bad, 0.1), 1),
    "upper_arm": lambda bad: (bad, 0),
    "forearm_hand": lambda bad: (bad, 0),
    "face_target": lambda bad: ((0.05, 0.0, bad), 2),
    "touch_radius": lambda bad: (bad, 0),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e200])
@pytest.mark.parametrize("field", GEOMETRY)
def test_chain_geometry_obeys_the_value_rule(field, bad):
    """Lengths, offsets, the face target and the touch radius are refused,
    by name and index, unless finite and at most 1e100 in magnitude; the
    limit itself loads."""
    value, at = GEOMETRY[field](bad)
    why = "exceeds the magnitude limit 1e+100" if math.isfinite(bad) else "is not finite"
    with pytest.raises(ValueError, match=re.escape(f"{field} value at index {at} {why}: {bad}")):
        dataclasses.replace(ChainSpec(), **{field: value})
    value, _ = GEOMETRY[field](1e100)
    assert getattr(dataclasses.replace(ChainSpec(), **{field: value}), field) == value


# ------------------------------------------------------------- forward kinematics

def test_fk_zero_pose_closed_form():
    # default elbow_roll limits exclude 0, so widen limits but keep geometry;
    # at zero angles every rotation is the identity and the hand is the plain
    # sum of link offsets
    chain = widened_chain()
    hand, target = forward_kinematics(np.zeros(7), chain)
    np.testing.assert_allclose(hand, [0.219, -0.098, 0.100], rtol=0, atol=1e-15)
    np.testing.assert_allclose(target, [0.05, 0.0, 0.05], rtol=0, atol=1e-15)
    oracle_hand, oracle_target = fk_matrix_oracle(np.zeros(7), chain)
    np.testing.assert_allclose(hand, oracle_hand, rtol=0, atol=1e-12)
    np.testing.assert_allclose(target, oracle_target, rtol=0, atol=1e-12)


def test_fk_head_yaw_about_target_axis_is_inert():
    chain = widened_chain(face_target=(0.0, 0.0, 0.05))
    pose = np.zeros(7)
    pose[0] = math.pi  # yaw spins about z; a target on the z axis cannot move
    _, spun = forward_kinematics(pose, chain)
    _, still = forward_kinematics(np.zeros(7), chain)
    np.testing.assert_allclose(spun, still, rtol=0, atol=1e-12)


def test_fk_matches_matrix_oracle_on_random_samples():
    chain = ChainSpec()
    rng = np.random.default_rng(21)
    lo, hi = chain.lower_limits, chain.upper_limits
    for _ in range(300):
        sample = rng.uniform(lo, hi)
        hand, target = forward_kinematics(sample, chain)
        oracle_hand, oracle_target = fk_matrix_oracle(sample, chain)
        np.testing.assert_allclose(hand, oracle_hand, rtol=0, atol=1e-9)
        np.testing.assert_allclose(target, oracle_target, rtol=0, atol=1e-9)


def test_fk_rejects_out_of_limit_angles():
    with pytest.raises(ValueError, match="elbow_roll"):
        forward_kinematics(np.zeros(7))
    bad = np.zeros(7)
    bad[4] = 0.5
    bad[0] = 3.0
    with pytest.raises(ValueError, match="head_yaw"):
        forward_kinematics(bad)
    with pytest.raises(ValueError, match="shape"):
        forward_kinematics(np.zeros(6))


def test_fk_wrist_cannot_move_contact_point():
    # contact point lies on the wrist rotation axis by construction
    chain = ChainSpec()
    rng = np.random.default_rng(33)
    base = rng.uniform(chain.lower_limits, chain.upper_limits)
    hand0, _ = forward_kinematics(base, chain)
    for wrist in (-1.5, -0.3, 0.9, 1.8):
        pose = base.copy()
        pose[6] = wrist
        hand, _ = forward_kinematics(pose, chain)
        np.testing.assert_allclose(hand, hand0, rtol=0, atol=1e-12)


# ------------------------------------------------------------- sampler

def test_synthesize_deterministic_and_within_limits():
    chain = easy_chain()
    a = synthesize_self_touch(chain, 200, seed=6)
    b = synthesize_self_touch(chain, 200, seed=6)
    assert a.data.tobytes() == b.data.tobytes()
    assert a.attempts == b.attempts
    assert a.data.shape == (200, 7)
    assert (a.data >= chain.lower_limits).all()
    assert (a.data <= chain.upper_limits).all()
    c = synthesize_self_touch(chain, 200, seed=7)
    assert a.data.tobytes() != c.data.tobytes()


def test_synthesize_max_attempts_never_changes_rows():
    chain = easy_chain()
    a = synthesize_self_touch(chain, 150, seed=2)
    b = synthesize_self_touch(chain, 150, seed=2, max_attempts=10**9)
    assert a.data.tobytes() == b.data.tobytes()
    assert a.attempts == b.attempts


def test_synthesize_infinite_radius_accepts_everything():
    """At the largest radius, 1e100, acceptance is vacuous, so the rows are
    the raw draws: two batches of doubles scaled in place must equal
    ``Generator.uniform`` byte for byte."""
    default = ChainSpec()
    narrow = tuple((lo, lo + 1e-6) for lo, _ in default.joint_limits)
    chains = [
        default,
        dataclasses.replace(default, joint_axes=("x", "z", "y", "z", "x", "y", "z")),
        dataclasses.replace(default, joint_limits=narrow),
    ]
    for chain in chains:
        chain = dataclasses.replace(chain, touch_radius=1e100)
        for seed in range(4):
            res = synthesize_self_touch(chain, 2 * 65536, seed=seed)
            assert res.acceptance_rate == 1.0
            assert res.attempts == 2 * 65536
            rng = np.random.default_rng(seed)
            raw = [rng.uniform(chain.lower_limits, chain.upper_limits, size=(65536, 7))
                   for _ in range(2)]
            assert res.data.tobytes() == np.concatenate(raw).tobytes()


def test_synthesize_rows_satisfy_touch_predicate():
    chain = easy_chain(radius=0.2)
    res = synthesize_self_touch(chain, 100, seed=9)
    for row in res.data:
        hand, target = fk_matrix_oracle(row, chain)
        assert np.linalg.norm(hand - target) < chain.touch_radius


def touching_draws(chain, seed, max_attempts):
    """Touching draws among the first ``max_attempts`` draws of the sampler's
    RNG stream (65536-row batches), counted with the row reference."""
    rng = np.random.default_rng(seed)
    batches = -(-max_attempts // 65536)
    draw = np.concatenate(
        [rng.uniform(chain.lower_limits, chain.upper_limits, size=(65536, 7))
         for _ in range(batches)]
    )[:max_attempts]
    return int((touch_gaps_rows(draw, chain) < chain.touch_radius).sum())


def test_synthesize_exhaustion_raises_sampling_error():
    """The error reports the touching draws that fell within the budget."""
    cases = [(1e-9, 5, 200_000), (0.05, 100, 100_000), (0.05, 200, 140_000), (0.05, 100, 70_000)]
    for radius, n, max_attempts in cases:
        chain = dataclasses.replace(ChainSpec(), touch_radius=radius)
        want = touching_draws(chain, 0, max_attempts)
        assert want < n
        with pytest.raises(
            SamplingError,
            match=f"accepted only {want} of {n} samples within {max_attempts} attempts; "
            "increase touch_radius",
        ):
            synthesize_self_touch(chain, n, seed=0, max_attempts=max_attempts)


def test_synthesize_budget_boundary_is_the_nth_touch():
    """A budget of exactly ``attempts`` draws succeeds with the same rows; one
    draw fewer fails with n - 1 accepted."""
    chain = easy_chain(0.05)
    full = synthesize_self_touch(chain, 100, seed=0)
    exact = synthesize_self_touch(chain, 100, seed=0, max_attempts=full.attempts)
    assert exact.data.tobytes() == full.data.tobytes()
    assert exact.attempts == full.attempts
    short = full.attempts - 1
    with pytest.raises(SamplingError, match=f"accepted only 99 of 100 samples within {short} "):
        synthesize_self_touch(chain, 100, seed=0, max_attempts=short)


@pytest.mark.parametrize("batch", [1000, 16384, 65536])
def test_synthesize_does_not_depend_on_the_batch_size(monkeypatch, batch):
    """The RNG stream is read in order and every draw is tested on its own,
    so rows, attempts and a SamplingError's count are the same for any batch
    size, also when the budget ends inside a batch."""
    chain = easy_chain(0.05)
    want = synthesize_self_touch(chain, 100, seed=3)
    monkeypatch.setattr(datagen, "_BATCH", batch)
    got = synthesize_self_touch(chain, 100, seed=3)
    assert got.data.tobytes() == want.data.tobytes()
    assert got.attempts == want.attempts
    # 70500 draws end inside a batch of each size; their touches fall short
    hits = touching_draws(chain, 0, 70_500)
    assert hits < 100
    with pytest.raises(SamplingError, match=f"accepted only {hits} of 100 samples within 70500 "):
        synthesize_self_touch(chain, 100, seed=0, max_attempts=70_500)


def test_synthesize_peak_memory_is_bounded():
    """The sampler's traced peak is one batch's working arrays, whatever the
    number of draws: 2.24 MiB measured for 20 rows at the default radius
    (295797 draws) with 16384-draw batches, against 5.76 MiB with 65536-draw
    ones (numpy 2.4)."""
    tracemalloc.start()
    try:
        res = synthesize_self_touch(ChainSpec(), 20, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.attempts > 4 * 65536
    assert peak < 4 * 2**20


def test_synthesize_rejects_bad_arguments():
    with pytest.raises(ValueError):
        synthesize_self_touch(ChainSpec(), 0, seed=0)
    with pytest.raises(ValueError):
        synthesize_self_touch(ChainSpec(), 5, seed=0, max_attempts=0)


def scaled_chain(factor):
    """Default chain with every length, offset and the touch radius scaled."""
    chain = ChainSpec()
    return dataclasses.replace(
        chain,
        shoulder_offset=tuple(v * factor for v in chain.shoulder_offset),
        upper_arm=chain.upper_arm * factor,
        forearm_hand=chain.forearm_hand * factor,
        face_target=tuple(v * factor for v in chain.face_target),
        touch_radius=chain.touch_radius * factor,
    )


HIT_CHAINS = {
    "default": ChainSpec(),
    "r0.1": easy_chain(0.1),
    "r0.005": easy_chain(0.005),
    "permuted-axes": dataclasses.replace(
        ChainSpec(), joint_axes=("x", "z", "y", "z", "x", "y", "z"), touch_radius=0.01
    ),
    "r-1e100": easy_chain(1e100),
    # a wrist turn about y moves the contact point, so the sampler rotates it
    "wrist-y": dataclasses.replace(ChainSpec(), joint_axes=("z", "y", "z", "y", "z", "x", "y")),
    # float32 casts angles this large coarsely, so the screen's slack widens
    "limits-1e4": dataclasses.replace(ChainSpec(), joint_limits=((-1e4, 1e4),) * 7),
    # float32 casts these angles to inf and the screen sees NaN distances
    "limits-1e100": dataclasses.replace(ChainSpec(), joint_limits=((-1e100, 1e100),) * 7),
    "scaled-1e-30": scaled_chain(1e-30),
    "scaled-1e30": scaled_chain(1e30),
}


@pytest.mark.parametrize("chain", HIT_CHAINS.values(), ids=HIT_CHAINS.keys())
def test_touch_hits_match_row_reference(chain):
    """The float32 screen, the one prefilter, drops no draw the exact test
    keeps: hits equal the former every-row batch path on full sampler
    batches."""
    for seed in range(4):
        rng = np.random.default_rng(seed)
        draw = rng.uniform(chain.lower_limits, chain.upper_limits, size=(65536, 7))
        want = np.flatnonzero(touch_gaps_rows(draw, chain) < chain.touch_radius)
        np.testing.assert_array_equal(_touch_hits(draw, chain), want)


def screen_scale(chain):
    """The screen's length scale: arm reach or target distance."""
    return max(
        math.hypot(*chain.shoulder_offset) + chain.upper_arm + chain.forearm_hand,
        math.hypot(*chain.face_target),
    )


def sampler_batches(chain):
    """Four full sampler batches of ``chain``'s draws."""
    for seed in range(4):
        rng = np.random.default_rng(seed)
        yield rng.uniform(chain.lower_limits, chain.upper_limits, size=(65536, 7))


def test_touch_screen_error_is_far_below_its_slack():
    """On sampler batches the float32 hand distance strays from the float64
    one by at most a hundredth of the screen's slack."""
    for chain in (HIT_CHAINS["default"], HIT_CHAINS["permuted-axes"]):
        scale = screen_scale(chain)
        worst = 0.0
        for draw in sampler_batches(chain):
            sx, sy, sz = _hand(draw, chain, scale, np.float32)
            n32 = np.sqrt(sx * sx + sy * sy + sz * sz).astype(np.float64)
            hx, hy, hz = _hand(draw, chain)
            n64 = np.sqrt(hx * hx + hy * hy + hz * hz)
            worst = max(worst, np.abs(n32 * scale - n64).max() / scale)
        assert 0.0 < worst * 100 <= _screen_slack(chain)


def test_touch_screen_gap_error_is_far_below_its_slack():
    """On sampler batches the float32 hand-to-target gap, the screen's
    second test, strays from the float64 one by at most a hundredth of the
    same slack (2.6e-7 of 2.2e-4 measured at the default chain)."""
    for chain in (HIT_CHAINS["default"], HIT_CHAINS["permuted-axes"]):
        scale = screen_scale(chain)
        worst = 0.0
        for draw in sampler_batches(chain):
            hand = _hand(draw, chain, scale, np.float32)
            target = _target(draw, chain, scale, np.float32)
            dx, dy, dz = (h - t for h, t in zip(hand, target))
            g32 = np.sqrt(dx * dx + dy * dy + dz * dz).astype(np.float64)
            worst = max(worst, np.abs(g32 * scale - touch_gaps_rows(draw, chain)).max() / scale)
        assert 0.0 < worst * 100 <= _screen_slack(chain)


def test_touch_screen_keeps_a_few_draws_per_batch():
    """The exact float64 test sees under 0.1% of a default batch: the gap
    test leaves little beyond the touches themselves (at most 5 of 65536
    draws kept measured), where the shell test alone keeps about 6%."""
    chain = ChainSpec()
    for draw in sampler_batches(chain):
        assert _screen(draw, chain).size < draw.shape[0] // 1000


def collinear_case(n, seed):
    """A chain and ``n`` poses of it whose hand lies on the ray from the torso
    origin through the face target, so the gap equals | |hand| - rho | and
    only the float32 screen's slack keeps a draw whose gap sits at the
    radius."""
    chain = widened_chain(shoulder_offset=(0.0, 0.0, 0.0), face_target=(0.05, 0.0, 0.0))
    draw = np.random.default_rng(seed).uniform(-math.pi, math.pi, size=(n, 7))
    draw[:, 2] = draw[:, 0]  # shoulder roll follows head yaw (both about z)
    draw[:, 3] = draw[:, 1]  # shoulder pitch follows head pitch (both about y)
    draw[:, 4] = 0.0  # straight elbow; elbow yaw and wrist turn about the arm
    return chain, draw


def test_touch_hits_exact_at_the_radius():
    """A draw is rejected at touch_radius == its gap and accepted one ulp
    above: the exact test decides, the float32 screen never does."""
    default = ChainSpec()
    cases = [
        (default, np.random.default_rng(11).uniform(
            default.lower_limits, default.upper_limits, size=(50, 7))),
        collinear_case(50, 12),
    ]
    for chain, draw in cases:
        for i, gap in enumerate(touch_gaps_rows(draw, chain)):
            at = dataclasses.replace(chain, touch_radius=gap)
            above = dataclasses.replace(chain, touch_radius=np.nextafter(gap, np.inf))
            assert i not in _touch_hits(draw, at)
            assert i in _touch_hits(draw, above)


def test_synthesized_joints_are_mutually_correlated(synth_cache):
    """Self-touch couples the joints: on default 3216-row runs at least one
    off-diagonal |Pearson r| clears 0.1, for >= 4 of 5 seeds."""
    hits = 0
    for seed in (1, 2, 3, 4, 5):
        data = synth_cache(seed).data
        best = max(
            abs(pearson_scan(data[:, i].tolist(), data[:, j].tolist()))
            for i, j in itertools.combinations(range(7), 2)
        )
        hits += best > 0.1
    assert hits >= 4


# ------------------------------------------------------------- csv files

def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(14)
    X = rng.uniform(-2.0, 2.0, size=(37, 7))
    path = tmp_path / "data.csv"
    save_csv(X, path)
    text = path.read_text()
    assert text.startswith(CSV_HEADER + "\n")
    assert text.endswith("\n")
    back = load_csv(path)
    np.testing.assert_allclose(back, X, rtol=0, atol=1e-12)
    # 17 significant digits round-trip float64 exactly
    assert back.tobytes() == X.tobytes()


def test_csv_rejects_bad_shapes_and_values(tmp_path):
    with pytest.raises(ValueError, match="shape"):
        save_csv(np.zeros((3, 6)), tmp_path / "x.csv")
    with pytest.raises(ValueError, match="dataset value at row 0, column 0 is not finite: nan"):
        save_csv(np.full((2, 7), np.nan), tmp_path / "x.csv")


def test_load_csv_parse_errors_name_location(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n")
    with pytest.raises(ParseError, match="line 1"):
        load_csv(path)
    row = ",".join("0.1" for _ in range(7))
    path.write_text(CSV_HEADER + "\n" + "0.1,0.2,0.3,0.4,0.5,0.6\n")
    with pytest.raises(ParseError, match="line 2"):
        load_csv(path)
    path.write_text(CSV_HEADER + "\n" + row + "\n0.1,0.2,zap,0.4,0.5,0.6,0.7\n")
    with pytest.raises(ParseError, match=r"line 3, column 3"):
        load_csv(path)
    path.write_text(CSV_HEADER + "\n" + row.replace("0.1", "inf", 1) + "\n")
    with pytest.raises(ParseError, match="line 2, column 1: value 'inf' is not finite"):
        load_csv(path)


def test_load_csv_refuses_python_only_number_syntax(tmp_path):
    """A cell is an ASCII decimal literal: the underscores and non-ASCII
    digits that ``float()`` also reads are refused with their location,
    and nan keeps its own message."""
    path = tmp_path / "python.csv"
    row = ["0.5"] * 7
    for cell in ("1_0", "\u0661", "\uff11.5", "1e1_0"):
        row[2] = cell
        path.write_text(CSV_HEADER + "\n" + ",".join(["0.1"] * 7) + "\n" + ",".join(row) + "\n")
        message = f"{path}: line 3, column 3: not a number: {cell!r}"
        with pytest.raises(ParseError, match=re.escape(message)):
            load_csv(path)
    # the first bad cell of a line is reported, whichever way it is bad
    path.write_text(CSV_HEADER + "\n" + "0.1,zap,1_0,0.4,0.5,0.6,0.7\n")
    with pytest.raises(ParseError, match=re.escape("line 2, column 2: not a number: 'zap'")):
        load_csv(path)
    path.write_text(CSV_HEADER + "\n" + "0.1,1_0,zap,0.4,0.5,0.6,0.7\n")
    with pytest.raises(ParseError, match=re.escape("line 2, column 2: not a number: '1_0'")):
        load_csv(path)
    row[2] = "nan"
    path.write_text(CSV_HEADER + "\n" + ",".join(row) + "\n")
    with pytest.raises(ParseError, match="line 2, column 3: value 'nan' is not finite"):
        load_csv(path)


def test_load_csv_rejects_cells_beyond_the_magnitude_limit(tmp_path):
    """A finite cell above 1e100, whose squares could overflow, is refused
    with its line and column; the limit itself loads."""
    path = tmp_path / "huge.csv"
    row = ["0.5"] * 7
    for value in (1e100, -1e100):
        row[4] = repr(value)
        path.write_text(CSV_HEADER + "\n" + ",".join(row) + "\n")
        assert load_csv(path)[0, 4] == value
    above = repr(float(np.nextafter(1e100, np.inf)))
    for cell in (above, "-" + above, "1.7e308"):
        row[4] = cell
        path.write_text(CSV_HEADER + "\n" + ",".join(["0.1"] * 7) + "\n" + ",".join(row) + "\n")
        message = f"line 3, column 5: value '{cell}' exceeds the magnitude limit 1e+100"
        with pytest.raises(ParseError, match=re.escape(message)):
            load_csv(path)


def test_load_csv_header_only_gives_empty_dataset(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text(CSV_HEADER + "\n")
    assert load_csv(path).shape == (0, 7)


# ------------------------------------------------------------- normalization

def test_fit_normalization_two_point_column():
    X = np.array([[-1.0] * 7, [1.0] * 7])
    params = fit_normalization(X)
    np.testing.assert_array_equal(params.mean, np.zeros(7))
    np.testing.assert_array_equal(params.std, np.ones(7))  # population (1/N) std
    np.testing.assert_array_equal(apply_normalization(X, params), X)


def test_normalization_round_trip_and_moments():
    rng = np.random.default_rng(15)
    X = rng.normal(loc=3.0, scale=2.5, size=(400, 7))
    params = fit_normalization(X)
    Z = apply_normalization(X, params)
    assert np.abs(Z.mean(axis=0)).max() < 1e-10
    assert np.abs(Z.std(axis=0, ddof=0) - 1.0).max() < 1e-10
    np.testing.assert_allclose(invert_normalization(Z, params), X, rtol=0, atol=1e-12)


def test_fit_normalization_constant_column_names_joint():
    """A constant column, or one that varies but whose std is below the
    1e-100 floor (at 1e-200 it underflows to 0), is refused by joint name."""
    X = np.random.default_rng(16).normal(size=(10, 7))
    X[:, 6] = 0.42
    with pytest.raises(ValueError, match="wrist"):
        fit_normalization(X)
    with pytest.raises(ValueError, match="dim_3 is constant"):
        fit_normalization(X[:, 3:])
    with pytest.raises(ValueError, match="at least 2 rows"):
        fit_normalization(X[:1])
    with pytest.raises(ValueError, match=re.escape("dataset must be 2-D, got shape (7,)")):
        fit_normalization(X[0])
    X = np.random.default_rng(16).normal(size=(20, 7))
    for low in (1e-200, 1e-150):
        X[:, 3] = np.linspace(low, 2 * low, 20)
        std = X.std(axis=0)[3]
        assert std < 1e-100 and (std == 0.0) == (low == 1e-200)
        message = f"shoulder_pitch has std {std}, below 1e-100; cannot normalize"
        with pytest.raises(ValueError, match=re.escape(message)):
            fit_normalization(X)


def test_normalization_params_validation():
    with pytest.raises(ValueError, match="positive"):
        NormalizationParams(np.zeros(3), np.array([1.0, 0.0, 1.0]))
    with pytest.raises(ValueError, match="equal shapes"):
        NormalizationParams(np.zeros(3), np.ones(4))
    with pytest.raises(ValueError, match="finite"):
        NormalizationParams(np.array([np.inf]), np.ones(1))
    # below 1e-100 a z-score of an in-limit value could overflow
    for low in (1e-320, 9.9e-101):
        with pytest.raises(ValueError, match=f"at least 1e-100, got {low} at index 1"):
            NormalizationParams(np.zeros(2), np.array([1.0, low]))
    assert NormalizationParams(np.zeros(1), np.array([1e-100])).std[0] == 1e-100
    message = "data has 3 columns, normalization has 2"
    for transform in (apply_normalization, invert_normalization):
        with pytest.raises(ValueError, match=message):
            transform(np.zeros((2, 3)), NormalizationParams(np.zeros(2), np.ones(2)))
