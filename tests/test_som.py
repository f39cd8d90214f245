"""Baseline map: schedules, winner search, updates, training, metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfsom.lattice import LatticeSpec, distance_matrix
from rfsom.som import (
    Codebook,
    TrainSchedule,
    find_bmu,
    init_codebook,
    quantization_error,
    topographic_error,
    train,
)

from oracles import bmu_scan, qe_scan, te_scan, update_scan

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, width=64)


def small_instance(rng):
    rows = rng.integers(1, 5)
    cols = rng.integers(1, 5)
    dims = rng.integers(1, 8)
    lattice = LatticeSpec(rows=int(rows), cols=int(cols))
    weights = rng.uniform(-5.0, 5.0, size=(lattice.n_neurons, dims))
    return Codebook(weights, lattice)


# ------------------------------------------------------------- containers

def test_codebook_validation():
    lat = LatticeSpec(rows=2, cols=2)
    with pytest.raises(ValueError):
        Codebook(np.zeros((3, 2)), lat)
    with pytest.raises(ValueError):
        Codebook(np.full((4, 2), np.nan), lat)
    with pytest.raises(ValueError, match=r"codebook weights must be 2-D, got shape \(4,\)"):
        Codebook(np.zeros(4), lat)
    cb = Codebook(np.zeros((4, 2)), lat)
    assert cb.weights.dtype == np.float64


def test_schedule_validation():
    with pytest.raises(ValueError):
        TrainSchedule(epochs=-1)
    with pytest.raises(ValueError):
        TrainSchedule(alpha0=0.0)
    with pytest.raises(ValueError):
        TrainSchedule(alpha_end=0.9, alpha0=0.5)
    with pytest.raises(ValueError):
        TrainSchedule(sigma_end=3.0, sigma0=2.0)
    with pytest.raises(ValueError):
        TrainSchedule(decay="cosine")
    with pytest.raises(ValueError):
        TrainSchedule(seed=-1)


@pytest.mark.parametrize("decay", ["exponential", "linear"])
def test_schedule_endpoints_and_monotonicity(decay):
    sched = TrainSchedule(decay=decay)
    for values, v0, v_end in [
        (sched.alpha_values(1000), sched.alpha0, sched.alpha_end),
        (sched.sigma_values(1000), sched.sigma0, sched.sigma_end),
    ]:
        assert values[0] == pytest.approx(v0, rel=1e-12)
        assert values[-1] == pytest.approx(v_end, rel=1e-9)
        assert (np.diff(values) <= 0).all()
    assert sched.alpha_values(1).tolist() == [sched.alpha0]
    assert sched.alpha_values(0).size == 0


def test_schedule_refuses_curves_that_reach_zero():
    """sigma0 passes the value limit, so an exponential ratio cannot
    underflow; a curve whose last value rounds to 0 is refused by name."""
    for sigma0, why in [(1e300, "exceeds the magnitude limit 1e\\+100: 1e\\+300"),
                        (float("inf"), "is not finite: inf")]:
        with pytest.raises(ValueError, match=f"sigma0 value at index 0 {why}"):
            TrainSchedule(sigma0=sigma0, sigma_end=1e-100)
    for kwargs, name in [
        (dict(alpha_end=1e-320), "alpha0=0.5 and alpha_end=1e-320"),
        (dict(sigma0=1e20, sigma_end=1e-100), "sigma0=1e\\+20 and sigma_end=1e-100"),
    ]:
        with pytest.raises(ValueError, match=f"{name} end the linear .* curve at 0.0"):
            TrainSchedule(decay="linear", **kwargs)
    # the same ends are positive under exponential decay, and at the limits
    for sched in (TrainSchedule(alpha_end=1e-320), TrainSchedule(sigma0=1e100, sigma_end=1e-100)):
        assert sched.alpha_values(1000)[-1] > 0.0
        assert sched.sigma_values(1000)[-1] > 0.0


@pytest.mark.parametrize("decay", ["exponential", "linear"])
def test_schedule_ranges_hold_the_bits_of_the_whole_curve(decay):
    """Training reads the schedule one chunk of steps at a time; every range
    (here each epoch's) equals the whole run's curve byte for byte, at
    totals that are not multiples of a SIMD width too."""
    steep = TrainSchedule(alpha0=0.9, alpha_end=1e-5, sigma0=7.5, sigma_end=1e-3, decay=decay)
    for sched in (TrainSchedule(decay=decay), steep):
        for n, epochs in [(1, 1), (1, 9), (3, 5), (7, 3), (13, 11), (61, 7), (200, 4), (3216, 3)]:
            total = n * epochs
            for values in (sched.alpha_values, sched.sigma_values):
                curve = values(total)
                for epoch in range(epochs):
                    start, stop = epoch * n, (epoch + 1) * n
                    got = values(total, start, stop)
                    assert got.tobytes() == curve[start:stop].tobytes(), (n, epochs, epoch)
    assert sched.alpha_values(1, 0, 1).tolist() == [sched.alpha0]
    assert sched.alpha_values(0, 0, 0).size == 0


def test_init_codebook_deterministic_and_in_range():
    lat = LatticeSpec()
    a = init_codebook(lat, 7, 42)
    b = init_codebook(lat, 7, 42)
    assert a.weights.shape == (16, 7)
    assert np.array_equal(a.weights, b.weights)
    assert (np.abs(a.weights) <= 1.0).all()
    tiny = init_codebook(LatticeSpec(rows=1, cols=1), 1, 0)
    assert tiny.weights.shape == (1, 1)
    assert -1.0 <= tiny.weights[0, 0] <= 1.0


# ------------------------------------------------------------- winner search

def test_find_bmu_inspection_examples():
    lat = LatticeSpec(rows=1, cols=2)
    cb = Codebook(np.array([[0.0, 0.0], [1.0, 1.0]]), lat)
    assert find_bmu([0.9, 0.9], cb) == 1
    assert find_bmu([0.0, 0.0], cb) == 0


def test_find_bmu_exact_match_and_tie_break():
    lat = LatticeSpec(rows=2, cols=2)
    w = np.array([[1.0, 2.0], [3.0, 4.0], [1.0, 2.0], [0.0, 0.0]])
    cb = Codebook(w, lat)
    assert find_bmu([3.0, 4.0], cb) == 1
    assert find_bmu([1.0, 2.0], cb) == 0  # duplicate rows: lowest index wins


def test_find_bmu_dimension_mismatch():
    cb = Codebook(np.zeros((4, 3)), LatticeSpec(rows=2, cols=2))
    with pytest.raises(ValueError):
        find_bmu([0.0, 0.0], cb)


def test_find_bmu_matches_oracle_randomly():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        cb = small_instance(rng)
        x = rng.uniform(-5.0, 5.0, size=cb.dims)
        assert find_bmu(x, cb) == bmu_scan(cb.weights, x)


# ------------------------------------------------------------- update step

def update_step(codebook, sample, alpha, sigma):
    """One Kohonen update as training runs it: one epoch over a one-row
    dataset, with alpha and sigma held constant."""
    schedule = TrainSchedule(
        epochs=1, alpha0=alpha, alpha_end=alpha, sigma0=sigma, sigma_end=sigma
    )
    return train(codebook, np.array([sample], dtype=np.float64), schedule)[0]


def test_update_step_full_step_reaches_sample():
    lat = LatticeSpec(rows=1, cols=1)
    cb = Codebook(np.array([[0.0, 0.0]]), lat)
    out = update_step(cb, [1.0, 0.0], 1.0, 1.0)
    assert out.weights[0].tolist() == [1.0, 0.0]


def test_update_step_half_step_example():
    lat = LatticeSpec(rows=1, cols=1)
    cb = Codebook(np.array([[0.0, 0.0]]), lat)
    out = update_step(cb, [1.0, 0.0], 0.5, 1.0)
    assert out.weights[0].tolist() == [0.5, 0.0]
    assert cb.weights[0].tolist() == [0.0, 0.0]  # input untouched


def test_update_step_matches_scalar_oracle():
    rng = np.random.default_rng(7)
    for _ in range(100):
        cb = small_instance(rng)
        x = rng.uniform(-5.0, 5.0, size=cb.dims)
        alpha = float(rng.uniform(0.01, 1.0))
        sigma = float(rng.uniform(0.1, 4.0))
        got = update_step(cb, x, alpha, sigma)
        bmu = find_bmu(x, cb)
        coords = [cb.lattice.coord_of(i) for i in range(cb.n_neurons)]
        want = update_scan(cb.weights, coords, x, bmu, alpha, sigma)
        np.testing.assert_allclose(got.weights, want, rtol=0, atol=1e-12)


@given(
    st.lists(finite, min_size=2, max_size=2),
    st.lists(finite, min_size=2, max_size=2),
    st.floats(min_value=0.01, max_value=1.0),
    st.floats(min_value=0.1, max_value=5.0),
)
def test_update_step_convex_hull_attraction(wvals, xvals, alpha, sigma):
    """Each weight moves along the segment toward the sample, never past it."""
    lat = LatticeSpec(rows=1, cols=1)
    cb = Codebook(np.array([wvals]), lat)
    out = update_step(cb, xvals, alpha, sigma)
    for j in range(2):
        lo, hi = sorted((wvals[j], xvals[j]))
        assert lo - 1e-12 <= out.weights[0, j] <= hi + 1e-12
        before = abs(xvals[j] - wvals[j])
        after = abs(xvals[j] - out.weights[0, j])
        assert after <= before + 1e-12


# ------------------------------------------------------------- training

def test_train_zero_epochs_is_noop():
    cb = init_codebook(LatticeSpec(), 3, 5)
    X = np.random.default_rng(0).uniform(-1, 1, size=(10, 3))
    out, log = train(cb, X, TrainSchedule(epochs=0))
    assert np.array_equal(out.weights, cb.weights)
    assert log.quantization_errors == [] and log.topographic_errors == []


def test_train_deterministic():
    cb = init_codebook(LatticeSpec(), 3, 5)
    X = np.random.default_rng(1).uniform(-1, 1, size=(50, 3))
    sched = TrainSchedule(epochs=5, seed=9)
    a, la = train(cb, X, sched)
    b, lb = train(cb, X, sched)
    assert a.weights.tobytes() == b.weights.tobytes()
    assert la.quantization_errors == lb.quantization_errors
    assert la.topographic_errors == lb.topographic_errors


def test_train_log_one_entry_per_epoch_and_te_range():
    cb = init_codebook(LatticeSpec(), 2, 3)
    X = np.random.default_rng(2).uniform(-1, 1, size=(30, 2))
    _, log = train(cb, X, TrainSchedule(epochs=7, seed=1))
    assert len(log.quantization_errors) == 7
    assert len(log.topographic_errors) == 7
    assert all(0.0 <= t <= 1.0 for t in log.topographic_errors)
    assert all(q >= 0.0 for q in log.quantization_errors)


def test_train_rejects_empty_dataset():
    cb = init_codebook(LatticeSpec(), 3, 5)
    with pytest.raises(ValueError):
        train(cb, np.empty((0, 3)), TrainSchedule(epochs=1))
    with pytest.raises(ValueError, match=r"dataset has shape \(5, 2\), expected \(n, 3\)"):
        train(cb, np.zeros((5, 2)), TrainSchedule(epochs=1))
    with pytest.raises(ValueError, match="dims must be >= 1, got 0"):
        init_codebook(LatticeSpec(), 0, 5)


def test_train_quantization_error_halves_on_uniform_square():
    lat = LatticeSpec(rows=8, cols=8)
    cb = init_codebook(lat, 2, 11)
    X = np.random.default_rng(11).uniform(0.0, 1.0, size=(2000, 2))
    _, log = train(cb, X, TrainSchedule(epochs=30, seed=11))
    assert log.quantization_errors[-1] < 0.5 * quantization_error(cb, X)


# ------------------------------------------------------------- metrics

def test_quantization_error_examples():
    lat = LatticeSpec(rows=1, cols=2)
    cb = Codebook(np.array([[0.0, 0.0], [1.0, 1.0]]), lat)
    assert quantization_error(cb, np.array([[0.0, 0.0], [1.0, 1.0]])) == 0.0
    single = Codebook(np.array([[0.0, 0.0]]), LatticeSpec(rows=1, cols=1))
    assert quantization_error(single, np.array([[1.0, 0.0], [0.0, 1.0]])) == 1.0


def test_topographic_error_examples():
    lat = LatticeSpec(rows=1, cols=2)  # only pair is adjacent
    cb = Codebook(np.array([[0.0], [1.0]]), lat)
    X = np.array([[0.1], [0.9], [0.5]])
    assert topographic_error(cb, X) == 0.0
    single = Codebook(np.array([[0.0]]), LatticeSpec(rows=1, cols=1))
    assert topographic_error(single, X) == 0.0


def test_metrics_match_scalar_oracles():
    rng = np.random.default_rng(77)
    for _ in range(50):
        cb = small_instance(rng)
        X = rng.uniform(-5.0, 5.0, size=(int(rng.integers(1, 30)), cb.dims))
        assert quantization_error(cb, X) == pytest.approx(
            qe_scan(cb.weights, X), rel=0, abs=1e-12
        )
        if cb.n_neurons >= 2:
            D = distance_matrix(cb.lattice)
            assert topographic_error(cb, X) == pytest.approx(
                te_scan(cb.weights, X, lambda i, j: int(D[i, j])), rel=0, abs=0
            )


@settings(deadline=None, max_examples=30)
@given(st.data())
def test_mean_replacement_does_not_increase_squared_error(data):
    """Replacing a row by the mean of its mapped samples cannot increase the
    mean squared BMU distance (the classic k-means step)."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    cb = small_instance(rng)
    X = rng.uniform(-5.0, 5.0, size=(int(rng.integers(2, 25)), cb.dims))

    def mean_sq(codebook):
        d2 = ((X[:, None, :] - codebook.weights[None, :, :]) ** 2).sum(axis=2)
        return d2.min(axis=1).mean()

    assignments = np.array([find_bmu(x, cb) for x in X])
    k = assignments[0]  # some row with at least one mapped sample
    replaced = Codebook(cb.weights.copy(), cb.lattice)
    replaced.weights[k] = X[assignments == k].mean(axis=0)
    assert mean_sq(replaced) <= mean_sq(cb) + 1e-12
