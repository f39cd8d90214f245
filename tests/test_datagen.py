"""Kinematic self-touch sampler, dataset CSV format, z-score normalization."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from rfsom.datagen import (
    CSV_HEADER,
    JOINT_NAMES,
    ChainSpec,
    NormalizationParams,
    SamplingError,
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
    # both ends are finite, but the sampler's scale hi - lo is not
    with pytest.raises(ValueError, match="limits for wrist span more than a float"):
        dataclasses.replace(
            ChainSpec(), joint_limits=ChainSpec().joint_limits[:6] + ((-1e308, 1e308),)
        )
    with pytest.raises(ValueError, match="limit pairs"):
        dataclasses.replace(ChainSpec(), joint_limits=((0.0, 1.0),) * 6)
    with pytest.raises(ValueError, match="positive"):
        dataclasses.replace(ChainSpec(), upper_arm=0.0)
    with pytest.raises(ValueError, match="touch_radius"):
        dataclasses.replace(ChainSpec(), touch_radius=-0.1)
    with pytest.raises(ValueError, match="axis for wrist"):
        dataclasses.replace(ChainSpec(), joint_axes=("z", "y", "z", "y", "z", "x", "w"))


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
    """Acceptance is vacuous, so the rows are the raw draws: two batches of
    doubles scaled in place must equal ``Generator.uniform`` byte for byte."""
    default = ChainSpec()
    narrow = tuple((lo, lo + 1e-6) for lo, _ in default.joint_limits)
    chains = [
        default,
        dataclasses.replace(default, joint_axes=("x", "z", "y", "z", "x", "y", "z")),
        dataclasses.replace(default, joint_limits=narrow),
    ]
    for chain in chains:
        chain = dataclasses.replace(chain, touch_radius=math.inf)
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


def test_synthesize_rejects_bad_arguments():
    with pytest.raises(ValueError):
        synthesize_self_touch(ChainSpec(), 0, seed=0)
    with pytest.raises(ValueError):
        synthesize_self_touch(ChainSpec(), 5, seed=0, max_attempts=0)


HIT_CHAINS = {
    "default": ChainSpec(),
    "r0.1": easy_chain(0.1),
    "r0.005": easy_chain(0.005),
    "permuted-axes": dataclasses.replace(
        ChainSpec(), joint_axes=("x", "z", "y", "z", "x", "y", "z"), touch_radius=0.01
    ),
    "r-inf": easy_chain(math.inf),
    # a wrist turn about y moves the contact point, so the sampler rotates it
    "wrist-y": dataclasses.replace(ChainSpec(), joint_axes=("z", "y", "z", "y", "z", "x", "y")),
}


@pytest.mark.parametrize("chain", HIT_CHAINS.values(), ids=HIT_CHAINS.keys())
def test_touch_hits_match_row_reference(chain):
    """The norm prefilter drops no draw the exact test keeps: hits equal the
    former every-row batch path on full sampler batches."""
    for seed in range(4):
        rng = np.random.default_rng(seed)
        draw = rng.uniform(chain.lower_limits, chain.upper_limits, size=(65536, 7))
        want = np.flatnonzero(touch_gaps_rows(draw, chain) < chain.touch_radius)
        np.testing.assert_array_equal(_touch_hits(draw, chain), want)


def collinear_case(n, seed):
    """A chain and ``n`` poses of it whose hand lies on the ray from the torso
    origin through the face target, so the gap equals | |hand| - rho | and
    only the prefilter's slack keeps a draw whose gap sits at the radius."""
    chain = widened_chain(shoulder_offset=(0.0, 0.0, 0.0), face_target=(0.05, 0.0, 0.0))
    draw = np.random.default_rng(seed).uniform(-math.pi, math.pi, size=(n, 7))
    draw[:, 2] = draw[:, 0]  # shoulder roll follows head yaw (both about z)
    draw[:, 3] = draw[:, 1]  # shoulder pitch follows head pitch (both about y)
    draw[:, 4] = 0.0  # straight elbow; elbow yaw and wrist turn about the arm
    return chain, draw


def test_touch_hits_exact_at_the_radius():
    """A draw is rejected at touch_radius == its gap and accepted one ulp
    above: the exact test decides, the prefilter never does."""
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
    with pytest.raises(ValueError, match="non-finite"):
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
    with pytest.raises(ParseError, match="non-finite"):
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
    X = np.random.default_rng(16).normal(size=(10, 7))
    X[:, 6] = 0.42
    with pytest.raises(ValueError, match="wrist"):
        fit_normalization(X)
    with pytest.raises(ValueError, match="dim_3 is constant"):
        fit_normalization(X[:, 3:])
    with pytest.raises(ValueError, match="at least 2 rows"):
        fit_normalization(X[:1])


def test_normalization_params_validation():
    with pytest.raises(ValueError, match="positive"):
        NormalizationParams(np.zeros(3), np.array([1.0, 0.0, 1.0]))
    with pytest.raises(ValueError, match="equal shapes"):
        NormalizationParams(np.zeros(3), np.ones(4))
    with pytest.raises(ValueError, match="finite"):
        NormalizationParams(np.array([np.inf]), np.ones(1))
    with pytest.raises(ValueError, match="columns"):
        apply_normalization(np.zeros((2, 3)), NormalizationParams(np.zeros(2), np.ones(2)))
