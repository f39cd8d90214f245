"""Receptive-field masks: construction, masked search, confined training,
file round-trips."""

import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfsom.analysis import build_encoding_report
from rfsom.fileio import ParseError
from rfsom.lattice import LatticeSpec, distance_matrix
from rfsom.mrf import (
    BMU_SCOPES,
    BODY_GROUPS,
    GROUP_JOINTS,
    MrfConfig,
    ReceptiveFieldMask,
    default_quadrant_mask,
    home_group,
    _distances,
    _nearest_pair,
    _norms,
    load_mask,
    masked_quantization_error,
    masked_topographic_error,
    mrf_find_bmu,
    mrf_train,
    save_mask,
)
from rfsom.som import (
    Codebook,
    TrainSchedule,
    find_bmu,
    init_codebook,
    quantization_error,
    topographic_error,
    train,
)

from oracles import masked_bmu_scan, masked_distance_scan, mrf_train_reference


def random_mask(rng, n, dims):
    """Random boolean mask satisfying both coverage invariants."""
    while True:
        m = rng.uniform(size=(n, dims)) < 0.5
        if m.any(axis=1).all() and m.any(axis=0).all():
            return m


def random_masked_instance(rng):
    rows = int(rng.integers(1, 5))
    cols = int(rng.integers(1, 5))
    dims = int(rng.integers(1, 8))
    lattice = LatticeSpec(rows=rows, cols=cols)
    cb = Codebook(rng.uniform(-5.0, 5.0, size=(lattice.n_neurons, dims)), lattice)
    mask = ReceptiveFieldMask(rows, cols, random_mask(rng, lattice.n_neurons, dims))
    return cb, mask


# ------------------------------------------------------------- mask type

def test_mask_invariants_enforced():
    m = np.ones((4, 3), dtype=bool)
    m[2] = False  # neuron with empty receptive field
    with pytest.raises(ValueError):
        ReceptiveFieldMask(2, 2, m)
    m = np.ones((4, 3), dtype=bool)
    m[:, 1] = False  # orphaned input dimension
    with pytest.raises(ValueError):
        ReceptiveFieldMask(2, 2, m)
    with pytest.raises(ValueError):
        ReceptiveFieldMask(2, 2, np.ones((3, 3), dtype=bool))
    with pytest.raises(ValueError):
        ReceptiveFieldMask(2, 2, np.ones((4, 3), dtype=bool), groups=("a", "b"))
    with pytest.raises(ValueError, match="mask grid must be at least 1x1, got 0x2"):
        ReceptiveFieldMask(0, 2, np.ones((0, 3), dtype=bool))
    with pytest.raises(ValueError, match=r"mask entries must be boolean \(0/1\)"):
        ReceptiveFieldMask(2, 2, np.full((4, 3), 2))
    for label in ("", "a b", "a\nb"):
        with pytest.raises(ValueError, match=re.escape(f"invalid group label {label!r}")):
            ReceptiveFieldMask(2, 2, np.ones((4, 3), dtype=bool), groups=("a", "a", "a", label))


@pytest.mark.parametrize(
    "call",
    [
        lambda cb, mask, X: mrf_train(cb, X, mask, TrainSchedule(epochs=1)),
        lambda cb, mask, X: mrf_find_bmu(X[0], cb, mask),
        lambda cb, mask, X: masked_quantization_error(cb, X, mask),
        lambda cb, mask, X: build_encoding_report(cb, mask),
    ],
    ids=["mrf_train", "mrf_find_bmu", "masked_quantization_error", "build_encoding_report"],
)
def test_mask_grid_must_match_lattice(call):
    """A 2x8 mask has the 16 rows of a 4x4 codebook but not its grid."""
    quadrant = default_quadrant_mask()
    mask = ReceptiveFieldMask(2, 8, quadrant.mask, quadrant.groups)
    with pytest.raises(ValueError, match="mask grid 2x8 with 7 dims does not match 4x4 lattice"):
        call(init_codebook(LatticeSpec(), 7, 0), mask, np.zeros((2, 7)))


def test_home_group_parsing():
    assert home_group("head") == "head"
    assert home_group("overlap-elbow-shoulder-wrist") == "elbow"
    with pytest.raises(ValueError):
        home_group("overlap-")


def test_config_validation():
    with pytest.raises(ValueError):
        MrfConfig(bmu_scope="local")
    with pytest.raises(ValueError):
        MrfConfig(distance_normalization="mean")
    cfg = MrfConfig()
    assert cfg.bmu_scope == "global-masked"
    assert cfg.distance_normalization == "rms-per-active-dim"


# ------------------------------------------------------------- default mask

def test_default_mask_shape_and_groups():
    mask = default_quadrant_mask()
    assert mask.mask.shape == (16, 7)
    assert mask.mask.dtype == np.bool_
    homes = {home_group(g) for g in mask.groups}
    assert homes == set(BODY_GROUPS)
    assert mask.mask.any(axis=0).all()  # every joint reachable
    assert tuple(mask.group_indices()) == BODY_GROUPS


def test_group_indices_order_and_members():
    """Body groups come first in canonical order, then custom groups in order
    of first appearance; overlap labels join their home group."""
    labels = ("zeta", "wrist", "overlap-head-wrist", "alpha", "zeta", "head")
    mask = ReceptiveFieldMask(2, 3, np.ones((6, 2), dtype=bool), labels)
    indices = mask.group_indices()
    assert list(indices) == ["head", "wrist", "zeta", "alpha"]
    assert [idx.tolist() for idx in indices.values()] == [[2, 5], [1], [0, 4], [3]]
    assert tuple(mask.group_indices()) == ("head", "wrist", "zeta", "alpha")
    with pytest.raises(ValueError, match="no group labels"):
        tuple(ReceptiveFieldMask(2, 3, np.ones((6, 2), dtype=bool)).group_indices())


def test_default_mask_quadrant_structure():
    mask = default_quadrant_mask()
    spec = LatticeSpec()
    for g, joints in GROUP_JOINTS.items():
        for i in np.flatnonzero([home_group(lbl) == g for lbl in mask.groups]):
            assert mask.mask[i, list(joints)].all(), (g, i)
    # quadrant interiors: corner neurons carry exactly their own joints
    for coord, g in [((0, 0), "head"), ((0, 3), "shoulder"), ((3, 0), "wrist"), ((3, 3), "elbow")]:
        i = spec.index_of(coord)
        assert mask.groups[i] == g
        assert set(np.flatnonzero(mask.mask[i])) == set(GROUP_JOINTS[g])
    # boundary neurons take the union with the adjacent quadrant
    i = spec.index_of((0, 1))
    assert mask.groups[i] == "overlap-head-shoulder"
    assert set(np.flatnonzero(mask.mask[i])) == {0, 1, 2, 3}
    assert sum(1 for g in mask.groups if g.startswith("overlap-")) == 12


# ------------------------------------------------------------- distances

def masked_distance(sample, neuron, cb, mask, cfg=MrfConfig()):
    """Masked distance from one sample to one neuron, read from the array
    routine that winner search, training and the quality metrics share."""
    M = mask.mask
    diff = np.asarray(sample, dtype=np.float64) * M - cb.weights * M
    return float(_distances(diff, _norms(mask, cfg))[neuron])


def test_masked_distance_ignores_inactive_dims():
    lat = LatticeSpec(rows=1, cols=2)
    cb = Codebook(np.array([[1.0, 9.0], [0.0, 0.0]]), lat)
    mask = ReceptiveFieldMask(1, 2, np.array([[True, False], [True, True]]))
    # sample agrees on the active dim, differs wildly on the inactive one
    assert masked_distance([1.0, -50.0], 0, cb, mask) == 0.0


def test_masked_distance_single_dim_rms():
    lat = LatticeSpec(rows=1, cols=2)
    cb = Codebook(np.array([[0.5, 0.0], [0.0, 0.0]]), lat)
    mask = ReceptiveFieldMask(1, 2, np.array([[True, False], [True, True]]))
    assert masked_distance([0.2, 7.0], 0, cb, mask) == pytest.approx(0.3, abs=1e-15)


def test_masked_distance_matches_scalar_oracle():
    rng = np.random.default_rng(3)
    for _ in range(200):
        cb, mask = random_masked_instance(rng)
        x = rng.uniform(-5.0, 5.0, size=cb.dims)
        i = int(rng.integers(0, cb.n_neurons))
        for cfg, rms in [
            (MrfConfig(), True),
            (MrfConfig(distance_normalization="unnormalized"), False),
        ]:
            got = masked_distance(x, i, cb, mask, cfg)
            want = masked_distance_scan(cb.weights, x, mask.mask, i, rms)
            assert got == pytest.approx(want, rel=0, abs=1e-12)


def _rms_at(w, x):
    lat1 = LatticeSpec(rows=1, cols=1)
    cb = Codebook(np.array([w], dtype=float), lat1)
    mask = ReceptiveFieldMask(1, 1, np.ones((1, len(w)), dtype=bool))
    return masked_distance(np.asarray(x, dtype=float), 0, cb, mask)


@given(st.data())
def test_masked_distance_rms_invariant_to_duplicated_dim(data):
    """Duplicating an active (x_i, w_i) pair leaves the RMS distance unchanged
    on instances where every dim contributes the same |x_i - w_i|: receptive
    fields of different sizes compete on a comparable scale. (For unequal
    contributions the RMS shifts toward the duplicated dim, so the instances
    are constructed with one shared difference magnitude.)"""
    dims = data.draw(st.integers(1, 5))
    fin = st.floats(min_value=-5, max_value=5, allow_nan=False)
    w = data.draw(st.lists(fin, min_size=dims, max_size=dims))
    d = data.draw(st.floats(min_value=0, max_value=3, allow_nan=False))
    signs = data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=dims, max_size=dims))
    x = [wi + s * d for wi, s in zip(w, signs)]
    dup = data.draw(st.integers(0, dims - 1))
    base = _rms_at(w, x)
    extended = _rms_at(w + [w[dup]], x + [x[dup]])
    assert extended == pytest.approx(base, rel=1e-9, abs=1e-12)
    assert base == pytest.approx(d, rel=1e-9, abs=1e-12)


@given(st.data())
def test_masked_distance_rms_invariant_to_duplicating_whole_field(data):
    """Replicating the entire active set (arbitrary values) is always
    RMS-invariant: sum of squares and dim count scale together."""
    dims = data.draw(st.integers(1, 5))
    fin = st.floats(min_value=-5, max_value=5, allow_nan=False)
    w = data.draw(st.lists(fin, min_size=dims, max_size=dims))
    x = data.draw(st.lists(fin, min_size=dims, max_size=dims))
    assert _rms_at(w + w, x + x) == pytest.approx(_rms_at(w, x), rel=1e-9, abs=1e-12)


# ------------------------------------------------------------- winner search

def test_mrf_find_bmu_tie_break_and_exact_match():
    lat = LatticeSpec(rows=2, cols=2)
    cb = Codebook(np.ones((4, 3)), lat)
    mask = ReceptiveFieldMask(2, 2, np.ones((4, 3), dtype=bool))
    assert mrf_find_bmu([5.0, 5.0, 5.0], cb, mask) == 0  # all equal: lowest index
    w = np.array([[1.0, 0.0, 9.0], [2.0, 2.0, 2.0], [3.0, 3.0, 3.0], [4.0, 4.0, 4.0]])
    cb = Codebook(w, lat)
    m = np.ones((4, 3), dtype=bool)
    m[0, 2] = False  # neuron 0 ignores the dim it disagrees on
    mask = ReceptiveFieldMask(2, 2, m)
    assert mrf_find_bmu([1.0, 0.0, -100.0], cb, mask) == 0


def test_mrf_find_bmu_per_group():
    mask = default_quadrant_mask()
    cb = init_codebook(LatticeSpec(), 7, 0)
    cfg = MrfConfig(bmu_scope="per-group")
    rng = np.random.default_rng(5)
    indices = mask.group_indices()
    for _ in range(50):
        x = rng.uniform(-2.0, 2.0, size=7)
        winners = mrf_find_bmu(x, cb, mask, cfg)
        assert set(winners) == set(BODY_GROUPS)
        for g, idx in winners.items():
            want = masked_bmu_scan(cb.weights, x, mask.mask, True, indices[g])
            assert idx == want


def test_mrf_find_bmu_per_group_needs_labels():
    cb = init_codebook(LatticeSpec(rows=1, cols=2), 2, 0)
    mask = ReceptiveFieldMask(1, 2, np.ones((2, 2), dtype=bool))
    with pytest.raises(ValueError):
        mrf_find_bmu([0.0, 0.0], cb, mask, MrfConfig(bmu_scope="per-group"))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_winner_search_rejects_non_finite_sample(bad):
    """A NaN or infinite sample entry is named by its index, under either
    scope, instead of yielding a winner."""
    mask = default_quadrant_mask()
    cb = init_codebook(LatticeSpec(), 7, 0)
    x = np.zeros(7)
    x[4] = bad
    message = f"sample value at index 4 is not finite: {bad}"
    with pytest.raises(ValueError, match=message):
        find_bmu(x, cb)
    for scope in BMU_SCOPES:
        with pytest.raises(ValueError, match=message):
            mrf_find_bmu(x, cb, mask, MrfConfig(bmu_scope=scope))


def test_mrf_find_bmu_matches_oracle_randomly():
    rng = np.random.default_rng(17)
    for _ in range(300):
        cb, mask = random_masked_instance(rng)
        x = rng.uniform(-5.0, 5.0, size=cb.dims)
        for cfg, rms in [
            (MrfConfig(), True),
            (MrfConfig(distance_normalization="unnormalized"), False),
        ]:
            assert mrf_find_bmu(x, cb, mask, cfg) == masked_bmu_scan(
                cb.weights, x, mask.mask, rms
            )


# ------------------------------------------------------------- training

def test_mrf_train_reduces_to_baseline_bit_exactly():
    lat = LatticeSpec()
    cb = init_codebook(lat, 7, 3)
    X = np.random.default_rng(8).normal(size=(200, 7))
    sched = TrainSchedule(epochs=10, seed=3)
    mask = ReceptiveFieldMask(4, 4, np.ones((16, 7), dtype=bool))
    cfg = MrfConfig(bmu_scope="global-masked", distance_normalization="unnormalized")
    base, base_log = train(cb, X, sched)
    masked, masked_log = mrf_train(cb, X, mask, sched, cfg)
    assert base.weights.tobytes() == masked.weights.tobytes()
    assert base_log.quantization_errors == masked_log.quantization_errors
    assert base_log.topographic_errors == masked_log.topographic_errors


@pytest.mark.parametrize("scope", BMU_SCOPES)
def test_mrf_train_confines_updates_to_active_dims(scope):
    rng = np.random.default_rng(9)
    if scope == "per-group":
        mask = default_quadrant_mask()
        cb = init_codebook(LatticeSpec(), mask.dims, 9)
    else:
        cb, mask = random_masked_instance(rng)
    X = rng.normal(size=(40, cb.dims))
    inactive = ~mask.mask
    # -0.0 at every inactive position: adding 0.0 there would flip its sign bit
    signed_zero = Codebook(np.where(inactive, -0.0, cb.weights), cb.lattice)
    for start in (cb, signed_zero):
        out, _ = mrf_train(start, X, mask, TrainSchedule(epochs=5, seed=1), MrfConfig(scope))
        assert out.weights[inactive].tobytes() == start.weights[inactive].tobytes()
        assert not np.array_equal(out.weights[mask.mask], start.weights[mask.mask])


def random_grouped_instance(rng, metric, n_groups):
    """Random codebook and mask whose custom base groups differ in size and
    interleave in row-major order (some labels are overlap labels of their
    home group). Some neurons copy another's field and weights, so winner
    searches meet ties; the inactive weights start as -0.0 half of the time."""
    while True:
        rows, cols = int(rng.integers(1, 5)), int(rng.integers(2, 5))
        homes = rng.integers(n_groups, size=rows * cols)
        if len(set(homes.tolist())) == n_groups:
            break
    dims = int(rng.integers(1, 8))
    lattice = LatticeSpec(rows=rows, cols=cols, metric=metric)
    labels = tuple(
        f"overlap-g{h}-x" if rng.uniform() < 0.3 else f"g{h}" for h in homes.tolist()
    )
    fields = random_mask(rng, lattice.n_neurons, dims)
    weights = rng.uniform(-2.0, 2.0, size=(lattice.n_neurons, dims))
    for dst in np.flatnonzero(rng.uniform(size=lattice.n_neurons) < 0.3):
        src = rng.integers(lattice.n_neurons)
        fields[dst], weights[dst] = fields[src], weights[src]
    if not fields.any(axis=0).all():
        fields[0] = True
    mask = ReceptiveFieldMask(rows, cols, fields, labels)
    if rng.uniform() < 0.5:
        weights = np.where(mask.mask, weights, -0.0)
    return Codebook(weights, lattice), mask


@pytest.mark.parametrize("metric", ["manhattan", "hex-axial"])
@pytest.mark.parametrize("normalization", ["rms-per-active-dim", "unnormalized"])
@pytest.mark.parametrize("scope", BMU_SCOPES)
def test_mrf_train_matches_reference_loop_bytes(metric, normalization, scope, monkeypatch):
    """Training and both logs equal the reference loop's bytes whatever the
    chunk size, and both masked metrics read the same bits: at the default
    chunk (every dataset here fits in one), and in chunks of 1 and 3 rows,
    where some datasets end on a short chunk."""
    import rfsom.mrf

    default = rfsom.mrf._CHUNK
    sizes = []
    rng = np.random.default_rng(21)
    cfg = MrfConfig(scope, normalization)
    instances = [random_grouped_instance(rng, metric, k) for k in (1, 2, 3, 3, 4, 4)]
    quadrant = default_quadrant_mask()
    instances.append((init_codebook(LatticeSpec(metric=metric), 7, 5), quadrant))
    for cb, mask in instances:
        X = rng.normal(scale=1.5, size=(int(rng.integers(2, 40)), cb.dims))
        sizes.append(X.shape[0])
        sched = TrainSchedule(
            epochs=int(rng.integers(1, 4)), seed=int(rng.integers(2**32)),
            decay=("exponential", "linear")[int(rng.integers(2))],
        )
        total = sched.epochs * X.shape[0]
        groups = list(mask.group_indices().values()) if scope == "per-group" else None
        ref_w, ref_qe, ref_te = mrf_train_reference(
            cb.weights, X, mask.mask, distance_matrix(cb.lattice), sched.alpha_values(total),
            sched.sigma_values(total), sched.seed, sched.epochs,
            normalization == "rms-per-active-dim", groups,
        )
        scores = []
        for chunk in (default, cb.n_neurons * cb.dims, 3 * cb.n_neurons * cb.dims):
            monkeypatch.setattr(rfsom.mrf, "_CHUNK", chunk)
            out, log = mrf_train(cb, X, mask, sched, cfg)
            assert out.weights.tobytes() == ref_w.tobytes()
            assert np.array(log.quantization_errors).tobytes() == np.array(ref_qe).tobytes()
            assert np.array(log.topographic_errors).tobytes() == np.array(ref_te).tobytes()
            qe = masked_quantization_error(out, X, mask, cfg)
            scores.append((qe, masked_topographic_error(out, X, mask, cfg)))
        assert scores[0] == scores[1] == scores[2]
    assert any(size % 3 for size in sizes), sizes


def test_mrf_train_peak_memory_is_flat_in_epochs():
    """The schedule is computed one chunk of steps at a time, so the traced
    peak of a 100-epoch run is that of a 2-epoch run (386 and 388 KiB
    measured); whole-run curves made it 458 KiB larger at this size."""
    rng = np.random.default_rng(4)
    X = rng.normal(size=(201, 7))
    cb = init_codebook(LatticeSpec(), 7, 1)
    mask = default_quadrant_mask()
    peaks = []
    for epochs in (2, 100):
        tracemalloc.start()
        try:
            mrf_train(cb, X, mask, TrainSchedule(epochs=epochs))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 64 * 2**10, peaks


@pytest.mark.parametrize(
    "call",
    [
        lambda cb, X, m: mrf_train(cb, X, m, TrainSchedule(epochs=1)),
        lambda cb, X, m: masked_quantization_error(cb, X, m),
        lambda cb, X, m: masked_topographic_error(cb, X, m),
    ],
    ids=["mrf_train", "masked_qe", "masked_te"],
)
def test_peak_memory_grows_by_a_few_doubles_per_added_row(call):
    """Nothing holds n x N x D: past one chunk (1170 rows here), the traced
    peak grows by at most three doubles for each added row, whatever D (16
    bytes measured for training and 9 for the metrics: the shuffle order and
    the per-sample scores). Whole-dataset buffers made it 1415 and 1023
    bytes; per-epoch schedule lists and a value check that built |X| made it
    72 and 28."""
    rng = np.random.default_rng(4)
    cb = init_codebook(LatticeSpec(), 7, 1)
    mask = default_quadrant_mask()
    sizes = (8040, 32160)
    peaks = []
    for n in sizes:
        X = rng.normal(size=(n, 7))
        tracemalloc.start()
        try:
            call(cb, X, mask)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / (sizes[1] - sizes[0]) <= 3 * 8, peaks


def test_mrf_train_per_group_confines_and_learns():
    mask = default_quadrant_mask()
    cb = init_codebook(LatticeSpec(), 7, 4)
    X = np.random.default_rng(4).normal(size=(100, 7))
    cfg = MrfConfig(bmu_scope="per-group")
    out, log = mrf_train(cb, X, mask, TrainSchedule(epochs=5, seed=4), cfg)
    inactive = ~mask.mask
    assert out.weights[inactive].tobytes() == cb.weights[inactive].tobytes()
    assert len(log.quantization_errors) == 5


def test_one_neighborhood_kernel_call_per_group_per_step(monkeypatch):
    """Each training step evaluates the neighborhood kernel once per winner
    group: once for the baseline map, and once per base group (four in the
    default mask) under per-group scope."""
    import rfsom.mrf

    calls = []
    kernel = rfsom.mrf.neighborhood_weight

    def counted(d, sigma):
        calls.append(sigma)
        return kernel(d, sigma)

    monkeypatch.setattr(rfsom.mrf, "neighborhood_weight", counted)
    cb = init_codebook(LatticeSpec(), 7, 2)
    X = np.random.default_rng(2).normal(size=(30, 7))
    sched = TrainSchedule(epochs=3, seed=2)
    mask = default_quadrant_mask()
    train(cb, X, sched)
    assert len(calls) == 3 * 30
    calls.clear()
    mrf_train(cb, X, mask, sched, MrfConfig(bmu_scope="per-group"))
    assert len(mask.group_indices()) == 4
    assert len(calls) == 3 * 30 * 4


@pytest.mark.parametrize("rows, epochs", [(1, 1), (9, 4)])
def test_single_neuron_map_trains_with_topographic_error_zero(rows, epochs):
    """A 1x1 map has no second neuron, so every epoch logs TE 0.0, under the
    baseline and under per-group scope with a one-label mask, in a one-step
    run too."""
    cb = init_codebook(LatticeSpec(rows=1, cols=1), 3, 5)
    X = np.random.default_rng(5).normal(size=(rows, 3))
    sched = TrainSchedule(epochs=epochs, seed=5)
    mask = ReceptiveFieldMask(1, 1, np.ones((1, 3), dtype=bool), ("head",))
    for out, log in (
        train(cb, X, sched),
        mrf_train(cb, X, mask, sched, MrfConfig(bmu_scope="per-group")),
    ):
        assert log.topographic_errors == [0.0] * epochs
        assert len(log.quantization_errors) == epochs
        assert np.isfinite(out.weights).all()


def test_mrf_train_shape_mismatch_rejected():
    cb = init_codebook(LatticeSpec(), 7, 0)
    mask = ReceptiveFieldMask(2, 2, np.ones((4, 7), dtype=bool))
    with pytest.raises(ValueError):
        mrf_train(cb, np.zeros((5, 7)), mask, TrainSchedule(epochs=1))


def test_negative_weights_reachable_on_zscored_data(pipeline_cache):
    run = pipeline_cache(1)
    active = run.codebook.weights[run.mask.mask]
    assert (active < 0.0).any()


# ------------------------------------------------------------- metrics

def test_masked_metrics_match_unmasked_on_alltrue_unnormalized():
    cb = init_codebook(LatticeSpec(), 5, 12)
    X = np.random.default_rng(12).normal(size=(60, 5))
    mask = ReceptiveFieldMask(4, 4, np.ones((16, 5), dtype=bool))
    cfg = MrfConfig(distance_normalization="unnormalized")
    from rfsom.som import quantization_error, topographic_error

    assert masked_quantization_error(cb, X, mask, cfg) == quantization_error(cb, X)
    assert masked_topographic_error(cb, X, mask, cfg) == topographic_error(cb, X)


@pytest.mark.parametrize("scope", BMU_SCOPES)
@pytest.mark.parametrize("normalization", ["rms-per-active-dim", "unnormalized"])
def test_huge_masked_off_weight_changes_no_metric_or_winner(scope, normalization):
    """A masked-off weight is never read: one at the magnitude limit 1e100,
    or one at -1e100 against a sample entry at +1e100, leaves QE, TE and
    every winner as they are, and nothing overflows. A weight beyond the
    limit never enters a codebook."""
    mask = default_quadrant_mask()
    cb = init_codebook(LatticeSpec(), 7, 3)
    off = np.argwhere(~mask.mask)[0]
    cfg = MrfConfig(bmu_scope=scope, distance_normalization=normalization)
    for weight, entry in ((1e100, None), (-1e100, 1e100)):
        w = cb.weights.copy()
        w[tuple(off)] = weight
        huge = Codebook(w, cb.lattice)
        X = np.random.default_rng(3).normal(size=(40, 7))
        if entry is not None:
            X[0, off[1]] = entry
        for metric in (masked_quantization_error, masked_topographic_error):
            assert metric(huge, X, mask, cfg) == metric(cb, X, mask, cfg)
        for x in X:
            assert mrf_find_bmu(x, huge, mask, cfg) == mrf_find_bmu(x, cb, mask, cfg)
    w[tuple(off)] = 1e200
    message = f"codebook value at row {off[0]}, column {off[1]} exceeds the magnitude limit"
    with pytest.raises(ValueError, match=message):
        Codebook(w, cb.lattice)


def test_topographic_error_pair_is_the_stable_argsort_pair():
    """Each row's nearest pair equals a stable argsort's first two entries,
    on ties and zeros alike: the lattice table marks only that ordered pair
    adjacent. Distances are finite, as every value the map takes is."""
    rows = [
        [0.5, 0.5, 0.5, 0.5],
        [0.7, 0.2, 0.2, 0.9],
        [0.3, 0.1, 0.3, 0.1],
        [0.0, 0.0, 1.0, 2.0],
    ]
    rng = np.random.default_rng(5)
    rows += rng.integers(0, 3, size=(40, 4)).astype(np.float64).tolist()
    for row in rows:
        a, b = np.argsort(row, kind="stable")[:2]
        D = np.full((4, 4), 2)
        D[a, b] = 1
        nearest, apart = _nearest_pair(np.array([row]), D)
        assert nearest.tolist() == [min(row)] and apart.tolist() == [False], row
        D[a, b], D[b, a] = 2, 1
        assert _nearest_pair(np.array([row]), D)[1].tolist() == [True], row


# ------------------------------------------------------------- mask files

def test_mask_round_trip_default(tmp_path):
    mask = default_quadrant_mask()
    path = tmp_path / "default.mask"
    save_mask(mask, path)
    loaded = load_mask(path)
    assert np.array_equal(loaded.mask, mask.mask)
    assert loaded.groups == mask.groups
    assert (loaded.rows, loaded.cols) == (mask.rows, mask.cols)
    save_mask(loaded, tmp_path / "again.mask")
    assert (tmp_path / "again.mask").read_bytes() == path.read_bytes()


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_mask_round_trip_random(seed, with_groups):
    import tempfile, os

    rng = np.random.default_rng(seed)
    rows, cols, dims = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(1, 6))
    m = random_mask(rng, rows * cols, dims)
    groups = tuple(f"g{i}" for i in range(rows * cols)) if with_groups else None
    mask = ReceptiveFieldMask(rows, cols, m, groups)
    fd, path = tempfile.mkstemp(suffix=".mask")
    os.close(fd)
    try:
        save_mask(mask, path)
        loaded = load_mask(path)
        assert np.array_equal(loaded.mask, mask.mask)
        assert loaded.groups == mask.groups
    finally:
        os.unlink(path)


# a 1x2 mask document over 3 dims with group labels
MASK_DOC = {
    "format": "rfsom-mask", "version": 1, "rows": 1, "cols": 2,
    "mask": [[1, 0, 1], [0, 1, 1]], "groups": ["a", "b"],
}


def test_load_mask_accepts_spec_shape(tmp_path):
    rows = [[1, 0, 0, 0, 0, 0, 1] if i % 2 else [0, 1, 1, 1, 1, 1, 0] for i in range(16)]
    path = tmp_path / "ok.mask"
    path.write_text(json.dumps(MASK_DOC | {"rows": 4, "cols": 4, "mask": rows, "groups": None}))
    mask = load_mask(path)
    assert mask.mask.shape == (16, 7)
    assert mask.groups is None


def test_load_mask_parse_errors_name_lines(tmp_path):
    path = tmp_path / "bad.mask"
    path.write_text(json.dumps(MASK_DOC))
    assert load_mask(path).groups == ("a", "b")

    def refused(doc, message, error=ParseError):
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        with pytest.raises(error, match=re.escape(f"{path}: {message}")):
            load_mask(path)

    # a text mask of the earlier format is located by the JSON decoder
    refused("1 2 3\n1 0 1\n0 1 1\n", "invalid JSON: Extra data: line 1 column 3")
    refused("[]", "mask document must be a JSON object")
    refused("[" * 10**5 + "]" * 10**5, "invalid JSON: maximum recursion depth exceeded")
    refused(MASK_DOC | {"format": "rfsom-model"}, "not a mask file (format='rfsom-model')")
    refused(MASK_DOC | {"version": 2}, "unsupported mask version 2")
    refused(MASK_DOC | {"version": True}, "unsupported mask version True")
    refused({k: v for k, v in MASK_DOC.items() if k != "rows"}, "missing key 'rows'")
    refused(MASK_DOC | {"cols": "2"}, "key 'cols' has unexpected type str")
    refused(MASK_DOC | {"dims": 3}, "unknown key 'dims'")
    refused(MASK_DOC | {"mask": [[1, 0, 1], [0, 1]]}, "key 'mask' must be a 2-D array of integers")
    refused(MASK_DOC | {"mask": [[1, 0, 1], [0, True, 1]]}, "key 'mask' must be a 2-D array")
    refused(MASK_DOC | {"mask": [[1, 0, 1], [0, 2, 1]]}, "mask entries must be boolean (0/1)",
            ValueError)
    refused(MASK_DOC | {"groups": ["a"]}, "got 1 group labels for 2 neurons", ValueError)
    refused(MASK_DOC | {"rows": 0}, "mask grid must be at least 1x1, got 0x2", ValueError)
    refused(MASK_DOC | {"mask": [[1, 0, 10**20], [0, 1, 1]]}, "", ValueError)


def test_load_mask_invariant_violation_is_config_error(tmp_path):
    path = tmp_path / "empty_row.mask"
    path.write_text(json.dumps(MASK_DOC | {"mask": [[0, 0], [1, 1]], "groups": None}))
    with pytest.raises(ValueError, match="no active input dimension"):
        load_mask(path)


@pytest.mark.parametrize(
    "call",
    [
        lambda cb, X, m: train(cb, X, TrainSchedule()),
        lambda cb, X, m: mrf_train(cb, X, m, TrainSchedule()),
        lambda cb, X, m: quantization_error(cb, X),
        lambda cb, X, m: topographic_error(cb, X),
        lambda cb, X, m: masked_quantization_error(cb, X, m),
        lambda cb, X, m: masked_topographic_error(cb, X, m),
    ],
    ids=["train", "mrf_train", "qe", "te", "masked_qe", "masked_te"],
)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_dataset_rejected_before_any_epoch(monkeypatch, call, bad):
    import rfsom.mrf
    import rfsom.som

    def no_epochs(*args):
        raise AssertionError("an epoch started")

    monkeypatch.setattr(rfsom.som, "shuffle_order", no_epochs)
    monkeypatch.setattr(rfsom.mrf, "shuffle_order", no_epochs)
    X = np.zeros((5, 7))
    X[3, 2] = bad
    cb = init_codebook(LatticeSpec(), 7, 0)
    with pytest.raises(ValueError, match="row 3, column 2 is not finite"):
        call(cb, X, default_quadrant_mask())
