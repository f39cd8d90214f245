"""Config resolution, subcommand behavior, exit codes, artifact layout."""

import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from rfsom.cli import (
    FIELDS,
    MAX_NEURONS,
    Model,
    RunConfig,
    _ALL,
    _DEFAULTS,
    _merge_config,
    build_parser,
    build_run_config,
    load_model,
    main,
    parse_config_file,
    run_config_items,
    save_model,
)
from rfsom.datagen import joint_names, load_csv, save_csv
from rfsom.fileio import ParseError
from rfsom.lattice import LatticeSpec
from rfsom.mrf import MrfConfig, ReceptiveFieldMask, default_quadrant_mask, save_mask
from rfsom.som import TrainSchedule, init_codebook

EASY = ["--touch-radius", "0.5"]  # keeps rejection sampling fast in tests


def run_cli(*argv):
    return main(list(argv))


def gen_args(out, n=120, seed=5):
    return ["generate", "--n", str(n), "--seed", str(seed), "--out", str(out), *EASY]


def train_args(out, dataset, seed=5, epochs=10, extra=()):
    return [
        "train",
        "--dataset",
        str(dataset),
        "--seed",
        str(seed),
        "--epochs",
        str(epochs),
        "--out",
        str(out),
        *extra,
    ]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated dataset + trained model shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    assert run_cli(*gen_args(root / "gen")) == 0
    assert run_cli(*train_args(root / "run", root / "gen" / "dataset.csv")) == 0
    return root


# ------------------------------------------------------------- config layer

def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\n\nseed = 9\nmode=som\n")
    assert parse_config_file(path) == {"seed": "9", "mode": "som"}
    path.write_text("seed\n")
    with pytest.raises(ParseError, match="key=value"):
        parse_config_file(path)
    path.write_text("seed=1\nseed=2\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_config_file(path)
    path.write_text("=3\n")
    with pytest.raises(ParseError, match="empty key"):
        parse_config_file(path)


def test_build_run_config_defaults_and_round_trip():
    cfg = build_run_config({})
    assert cfg == RunConfig()
    assert cfg.mode == "mrf" and cfg.n == 3216 and cfg.mask == "default"
    assert build_run_config(run_config_items(cfg)) == cfg
    custom = build_run_config(
        {
            "seed": "11",
            "mode": "som",
            "lattice.rows": "8",
            "schedule.epochs": "3",
            "chain.limit.wrist": "-0.5,0.5",
            "max_attempts": "123",
        }
    )
    assert custom.seed == 11 and custom.schedule.seed == 11
    assert custom.lattice.rows == 8
    assert custom.chain.joint_limits[6] == (-0.5, 0.5)
    assert custom.max_attempts == 123
    assert build_run_config(run_config_items(custom)) == custom


def test_build_run_config_rejects_bad_input():
    with pytest.raises(ValueError, match="unknown config key"):
        build_run_config({"latice.rows": "4"})
    with pytest.raises(ValueError, match="invalid configuration: schedule.epochs='three': "):
        build_run_config({"schedule.epochs": "three"})
    with pytest.raises(ValueError, match="invalid configuration: n='abc': "):
        build_run_config({"n": "abc"})
    with pytest.raises(ValueError, match="invalid configuration: chain.upper_arm='x': "):
        build_run_config({"chain.upper_arm": "x"})
    with pytest.raises(ValueError, match="invalid configuration"):
        build_run_config({"mode": "both"})
    with pytest.raises(ValueError, match="invalid configuration"):
        build_run_config({"chain.touch_radius": "-1"})
    for threshold in ("0", "2", "-1"):
        with pytest.raises(ValueError, match=r"combination_threshold must be in \(0, 1\]"):
            build_run_config({"combination_threshold": threshold})


def test_config_file_plus_flag_precedence(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("n=7\nseed=1\nchain.touch_radius=0.5\n")
    out = tmp_path / "out"
    code = run_cli(
        "generate", "--config", str(cfg_file), "--n", "9", "--out", str(out)
    )
    assert code == 0
    assert load_csv(out / "dataset.csv").shape == (9, 7)  # flag beat the file
    manifest = json.loads((out / "generate_manifest.json").read_text())
    assert manifest["seed"] == 1  # file value survived where no flag given


def test_set_overrides(tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        "generate",
        "--set",
        "n=5",
        "--set",
        "chain.touch_radius=0.5",
        "--out",
        str(out),
    )
    assert code == 0
    assert load_csv(out / "dataset.csv").shape == (5, 7)
    assert run_cli("generate", "--set", "bogus", "--out", str(out)) == 4
    assert run_cli("generate", "--set", "no_such_key=1", "--out", str(out)) == 4


# ------------------------------------------------------------- flag surface

# each subcommand's flags and the default its help shows (None: no default)
FLAG_SURFACE = {
    "generate": {
        "--help": None, "--config": None, "--set": None, "--seed": "0", "--out": "none",
        "--n": "3216", "--max-attempts": "auto", "--upper-arm": "0.105",
        "--forearm-hand": "0.114",
        "--shoulder-offset": "0,-0.098000000000000004,0.10000000000000001",
        "--face-target": "0.050000000000000003,0,0.050000000000000003",
        "--touch-radius": "0.029999999999999999",
    },
    "train": {
        "--help": None, "--config": None, "--set": None, "--seed": "0", "--out": "none",
        "--dataset": "none", "--mode": "mrf", "--mask": "default", "--rows": "4",
        "--cols": "4", "--metric": "manhattan", "--epochs": "100",
        "--alpha0": "0.5", "--alpha-end": "0.01", "--sigma0": "2", "--sigma-end": "0.5",
        "--decay": "exponential", "--bmu-scope": "global-masked",
        "--distance-normalization": "rms-per-active-dim", "--combination-threshold": "0.25",
    },
    "evaluate": {
        "--help": None, "--config": None, "--set": None, "--model": None,
        "--dataset-path": None, "--seed": "0", "--out": "none",
    },
    "export": {
        "--help": None, "--config": None, "--set": None, "--model": None, "--seed": "0",
        "--out": "none",
    },
}

# flagged config key -> a valid non-default value
FLAG_VALUES = {
    "seed": "7", "out": "o", "n": "10", "max_attempts": "99", "chain.upper_arm": "0.2",
    "chain.forearm_hand": "0.3", "chain.shoulder_offset": "0,0,0.1",
    "chain.face_target": "0.1,0,0", "chain.touch_radius": "0.4", "dataset": "d.csv",
    "mode": "som", "mask": "m.mask", "lattice.rows": "3", "lattice.cols": "5",
    "lattice.metric": "hex-axial", "schedule.epochs": "7",
    "schedule.alpha0": "0.4", "schedule.alpha_end": "0.02", "schedule.sigma0": "1.5",
    "schedule.sigma_end": "0.25", "schedule.decay": "linear", "mrf.bmu_scope": "per-group",
    "mrf.distance_normalization": "unnormalized", "combination_threshold": "0.3",
}

REQUIRED = {
    "evaluate": ["--model", "m.json", "--dataset-path", "d.csv"],
    "export": ["--model", "m.json"],
}


def _subparsers(parser):
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_flag_surface_pinned():
    got = {}
    for name, sub in _subparsers(build_parser()).items():
        got[name] = {}
        for action in sub._actions:
            shown = re.search(r"\(default: (.*)\)$", action.help or "")
            for option in action.option_strings:
                if option.startswith("--"):
                    got[name][option] = shown.group(1) if shown else None
    assert got == FLAG_SURFACE


def test_flag_equals_set_override():
    parser = build_parser()
    flag_of = {"--" + key.rpartition(".")[2].replace("_", "-"): key for key in FLAG_VALUES}
    checked = set()
    for command, flags in FLAG_SURFACE.items():
        base = [command, *REQUIRED.get(command, [])]
        for flag in flags:
            key = flag_of.get(flag)
            if key is None:
                continue
            value = FLAG_VALUES[key]
            via_flag = _merge_config(parser.parse_args([*base, flag, value]))
            via_set = _merge_config(parser.parse_args([*base, "--set", f"{key}={value}"]))
            assert via_flag == via_set != build_run_config({}), (command, flag)
            checked.add(key)
    assert checked == set(FLAG_VALUES)


def test_readme_config_table_matches_fields():
    """Every key appears once in README's table, with the default and the
    "flag on" subcommands of its ``FIELDS`` row; a row naming several keys
    lists their defaults in the same order."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("## Configuration", 1)[1].split("\n## ", 1)[0]
    fields = {field.key: field for field in FIELDS}
    keys = []
    for line in section.splitlines():
        if line.startswith("| `"):
            cells = [cell.strip() for cell in line.split("|")]
            row = re.findall(r"`([^`]+)`", cells[1])
            defaults = re.findall(r"`([^`]+)`", cells[2]) or [""] * len(row)
            assert len(defaults) == len(row), line
            for key, default in zip(row, defaults):
                field = fields[key]
                assert field.parse(default) == field.parse(_DEFAULTS[key]), key
                flag_on = {(): "—", _ALL: "all"}.get(field.commands) or " ".join(field.commands)
                assert cells[3] == flag_on, key
            keys += row
    assert sorted(keys) == sorted(fields)


# ------------------------------------------------------------- generate

def test_generate_deterministic_and_manifest(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(*gen_args(a, n=40, seed=8)) == 0
    assert run_cli(*gen_args(b, n=40, seed=8)) == 0
    assert (a / "dataset.csv").read_bytes() == (b / "dataset.csv").read_bytes()
    assert (a / "generate_manifest.json").read_bytes() == (
        b / "generate_manifest.json"
    ).read_bytes()
    manifest = json.loads((a / "generate_manifest.json").read_text())
    assert manifest["format"] == "rfsom-generate-manifest"
    assert manifest["n"] == 40 and manifest["seed"] == 8
    assert manifest["attempts"] >= 40
    assert 0.0 < manifest["acceptance_rate"] <= 1.0
    assert manifest["chain"]["touch_radius"] == 0.5


def test_generate_sampling_failure_exit3_no_partial_file(tmp_path):
    out = tmp_path / "never"
    code = run_cli(
        "generate",
        "--n",
        "5",
        "--touch-radius",
        "1e-6",
        "--max-attempts",
        "70000",
        "--out",
        str(out),
    )
    assert code == 3
    assert not out.exists()  # nothing written on failure


@pytest.fixture
def no_work(monkeypatch):
    """Sampling or training fails the test if reached."""

    def refuse(*args, **kwargs):
        raise AssertionError("sampled or trained before the config was checked")

    monkeypatch.setattr("rfsom.cli.synthesize_self_touch", refuse)
    monkeypatch.setattr("rfsom.cli.mrf_train", refuse)


def test_generate_overflowing_limit_span_exit4_before_sampling(tmp_path, capsys, no_work):
    out = tmp_path / "never"
    code = run_cli("generate", "--set", "chain.limit.wrist=-1e308,1e308", "--out", str(out))
    assert code == 4
    err = capsys.readouterr().err
    assert err == (
        "error: invalid configuration: limits for wrist span more than a float: "
        "[-1e+308, 1e+308]\n"
    )
    assert not out.exists()


def test_missing_out_exit4_before_any_work(workspace, capsys, no_work):
    dataset = str(workspace / "gen" / "dataset.csv")
    for argv in (["generate", "--n", "5", *EASY], ["train", "--dataset", dataset]):
        assert run_cli(*argv) == 4
        assert capsys.readouterr().err == "error: no output directory configured (out=<dir>)\n"


# ------------------------------------------------------------- train

def test_train_writes_model_and_log(workspace):
    out = workspace / "run"
    model = load_model(out / "model.json")
    assert model.codebook.weights.shape == (16, 7)
    assert model.mode == "mrf"
    assert model.mask is not None and model.mask.groups is not None
    log_lines = (out / "train_log.csv").read_text().strip().split("\n")
    assert log_lines[0] == "epoch,quantization_error,topographic_error"
    assert len(log_lines) == 11  # header + one row per epoch
    assert log_lines[1].startswith("1,")


def test_train_epochs_zero_keeps_initial_codebook(workspace, tmp_path):
    out = tmp_path / "noop"
    dataset = workspace / "gen" / "dataset.csv"
    assert run_cli(*train_args(out, dataset, seed=13, epochs=0)) == 0
    model = load_model(out / "model.json")
    init = init_codebook(model.codebook.lattice, 7, 13)
    assert model.codebook.weights.tobytes() == init.weights.tobytes()
    assert (out / "train_log.csv").read_text().strip().split("\n") == [
        "epoch,quantization_error,topographic_error"
    ]


def test_train_som_equals_mrf_with_alltrue_mask(workspace, tmp_path):
    dataset = workspace / "gen" / "dataset.csv"
    mask_path = tmp_path / "alltrue.mask"
    mask_path.write_text("4 4 7\n" + "\n".join(["1 1 1 1 1 1 1"] * 16) + "\n")
    som_out, mrf_out = tmp_path / "som", tmp_path / "mrf"
    assert run_cli(*train_args(som_out, dataset, extra=("--mode", "som"))) == 0
    code = run_cli(
        *train_args(
            mrf_out,
            dataset,
            extra=(
                "--mode",
                "mrf",
                "--mask",
                str(mask_path),
                "--distance-normalization",
                "unnormalized",
            ),
        )
    )
    assert code == 0
    a = load_model(som_out / "model.json").codebook.weights
    b = load_model(mrf_out / "model.json").codebook.weights
    assert a.tobytes() == b.tobytes()


def test_train_config_errors_exit4_without_output(tmp_path, capsys):
    out = tmp_path / "nope"
    assert run_cli(*train_args(out, tmp_path / "missing.csv")) == 4
    assert not out.exists()
    one_row = tmp_path / "one_row.csv"
    save_csv(np.zeros((1, 7)), one_row)
    assert run_cli(*train_args(out, one_row)) == 4  # one sample cannot be normalized
    assert "at least 2 samples" in capsys.readouterr().err
    # rejected while the config is read, before the (here missing) dataset is opened
    threshold = ("--combination-threshold", "2")
    assert run_cli(*train_args(out, tmp_path / "missing.csv", extra=threshold)) == 4
    assert "combination_threshold must be in (0, 1], got 2.0" in capsys.readouterr().err
    bad_mask = tmp_path / "bad.mask"
    assert (
        run_cli(
            *train_args(out, tmp_path / "missing.csv", extra=("--mask", str(bad_mask)))
        )
        == 4
    )
    assert not out.exists()
    # a header claiming 1e11 dims is rejected on its short row, not allocated
    bad_mask.write_text("1 1 100000000000\n1\n")
    two_rows = tmp_path / "two_rows.csv"
    save_csv(np.arange(14.0).reshape(2, 7), two_rows)
    capsys.readouterr()
    assert run_cli(*train_args(out, two_rows, extra=("--mask", str(bad_mask)))) == 4
    assert "line 2: expected 100000000000 entries, got 1" in capsys.readouterr().err
    # the mask is read before the dataset, so a one-row dataset does not hide it
    assert run_cli(*train_args(out, one_row, extra=("--mask", str(bad_mask)))) == 4
    assert "line 2: expected 100000000000 entries, got 1" in capsys.readouterr().err
    assert not out.exists()


def test_train_single_neuron_lattice_exit4_before_loading(workspace, tmp_path, capsys):
    out = tmp_path / "tiny"
    lattice = ("--mode", "som", "--rows", "1", "--cols", "1")
    assert run_cli(*train_args(out, workspace / "gen" / "dataset.csv", extra=lattice)) == 4
    assert not out.exists()
    # the lattice is rejected before the (here missing) dataset is opened
    assert run_cli(*train_args(out, tmp_path / "missing.csv", extra=lattice)) == 4
    assert "at least 2 neurons, got a 1x1 lattice" in capsys.readouterr().err
    assert not out.exists()


def test_lattice_above_neuron_limit_exit4_before_any_work(workspace, tmp_path, capsys, no_work):
    assert build_run_config({"lattice.rows": "1", "lattice.cols": str(MAX_NEURONS)})
    message = (
        f"invalid configuration: lattice.rows x lattice.cols = 1x{MAX_NEURONS + 1} is "
        f"{MAX_NEURONS + 1} neurons, more than the limit of {MAX_NEURONS}"
    )
    with pytest.raises(ValueError, match=re.escape(message)):
        build_run_config({"lattice.rows": "1", "lattice.cols": str(MAX_NEURONS + 1)})
    out = tmp_path / "big"
    lattice = ("--rows", "1", "--cols", str(MAX_NEURONS + 1))
    assert run_cli(*train_args(out, workspace / "gen" / "dataset.csv", extra=lattice)) == 4
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_train_mask_grid_mismatch_exit4_without_output(workspace, tmp_path, capsys):
    quadrant = default_quadrant_mask()
    save_mask(ReceptiveFieldMask(2, 8, quadrant.mask, quadrant.groups), tmp_path / "2x8.mask")
    out = tmp_path / "out"
    extra = ("--mask", str(tmp_path / "2x8.mask"))
    assert run_cli(*train_args(out, workspace / "gen" / "dataset.csv", extra=extra)) == 4
    assert "mask grid 2x8 with 7 dims does not match 4x4 lattice" in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------------- evaluate

def test_evaluate_metrics_deterministic(workspace, tmp_path):
    model = workspace / "run" / "model.json"
    dataset = workspace / "gen" / "dataset.csv"
    out1, out2 = tmp_path / "m1", tmp_path / "m2"
    for out in (out1, out2):
        code = run_cli(
            "evaluate",
            "--model",
            str(model),
            "--dataset-path",
            str(dataset),
            "--out",
            str(out),
        )
        assert code == 0
    assert (out1 / "metrics.json").read_bytes() == (out2 / "metrics.json").read_bytes()
    metrics = json.loads((out1 / "metrics.json").read_text())
    assert metrics["format"] == "rfsom-metrics"
    assert metrics["n_samples"] == 120
    assert metrics["quantization_error"] > 0.0
    assert 0.0 <= metrics["topographic_error"] <= 1.0
    assert metrics["cluster_separation_reference"] == 0.5
    assert np.isfinite(metrics["cluster_separation_ratio"])


def test_evaluate_ignores_huge_masked_off_weight(workspace, tmp_path):
    """A masked-off weight whose square overflows changes neither QE nor TE."""
    doc = json.loads((workspace / "run" / "model.json").read_text())
    neuron, dim = np.argwhere(np.array(doc["mask"]["mask"]) == 0)[0]
    doc["codebook"][neuron][dim] = 1e200
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(doc))
    metrics = []
    for name, model in (("plain", workspace / "run" / "model.json"), ("huge", huge)):
        dataset = workspace / "gen" / "dataset.csv"
        out = tmp_path / name
        args = ["--model", str(model), "--dataset-path", str(dataset), "--out", str(out)]
        with warnings.catch_warnings():
            # the separation ratio reads union distances, where the huge
            # weight is active for the other neuron of a pair and its square
            # overflows; only QE and TE are under test here
            warnings.filterwarnings(
                "ignore", "overflow encountered", RuntimeWarning, "rfsom.analysis"
            )
            assert run_cli("evaluate", *args) == 0
        metrics.append(json.loads((out / "metrics.json").read_text()))
    for key in ("quantization_error", "topographic_error"):
        assert metrics[1][key] == metrics[0][key] is not None, key


def test_evaluate_dimension_mismatch_exit4(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c,d,e,f\n0,0,0,0,0,0\n")
    code = run_cli(
        "evaluate",
        "--model",
        str(workspace / "run" / "model.json"),
        "--dataset-path",
        str(bad),
        "--out",
        str(tmp_path / "out"),
    )
    assert code == 4
    assert "expected header" in capsys.readouterr().err


# the input a command reads -> its arguments, given a workspace and a missing path
MISSING_INPUTS = {
    "config": lambda ws, p: ["generate", "--config", p],
    "dataset": lambda ws, p: ["train", "--dataset", p],
    "mask": lambda ws, p: ["train", "--dataset", str(ws / "gen" / "dataset.csv"), "--mask", p],
    "evaluate-model": lambda ws, p: [
        "evaluate", "--model", p, "--dataset-path", str(ws / "gen" / "dataset.csv")
    ],
    "export-model": lambda ws, p: ["export", "--model", p],
}


@pytest.mark.parametrize("argv", MISSING_INPUTS.values(), ids=MISSING_INPUTS.keys())
def test_missing_input_exit4(workspace, tmp_path, capsys, argv):
    missing = str(tmp_path / "missing")
    out = tmp_path / "out"
    assert run_cli(*argv(workspace, missing), "--out", str(out)) == 4
    assert missing in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------------- export

def test_export_writes_full_artifact_set(workspace, tmp_path):
    out = tmp_path / "exp"
    model = workspace / "run" / "model.json"
    assert run_cli("export", "--model", str(model), "--out", str(out)) == 0
    names = sorted(p.name for p in out.iterdir())
    joints = [
        "elbow_roll",
        "elbow_yaw",
        "head_pitch",
        "head_yaw",
        "shoulder_pitch",
        "shoulder_roll",
        "wrist",
    ]
    want = sorted(
        [f"heatmap_{j}.csv" for j in joints]
        + [f"heatmap_{j}.pgm" for j in joints]
        + [f"heatmap_{j}.mask.pgm" for j in joints]
        + ["report.json"]
    )
    assert names == want
    report = json.loads((out / "report.json").read_text())
    assert report["format"] == "rfsom-report"
    assert report["group_order"] == ["head", "shoulder", "elbow", "wrist"]
    assert len(report["neurons"]) == 16
    assert len(report["distance_map"]) == 4
    # rerun is byte-identical (idempotent)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert run_cli("export", "--model", str(model), "--out", str(out)) == 0
    after = {p.name: p.read_bytes() for p in out.iterdir()}
    assert before == after


def test_export_corrupt_model_exit4(tmp_path, capsys):
    bad = tmp_path / "model.json"
    bad.write_text("{not json")
    assert run_cli("export", "--model", str(bad), "--out", str(tmp_path / "o")) == 4
    assert "invalid JSON" in capsys.readouterr().err
    bad.write_text('{"format": "something-else"}')
    assert run_cli("export", "--model", str(bad), "--out", str(tmp_path / "o")) == 4


def test_export_unwritable_output_exit5(workspace, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    model = workspace / "run" / "model.json"
    # out path is an existing regular file: directory creation fails
    assert run_cli("export", "--model", str(model), "--out", str(blocker)) == 5


# ------------------------------------------------------------- model file

def _unlabelled_mask(root):
    quadrant = default_quadrant_mask()
    save_mask(ReceptiveFieldMask(4, 4, quadrant.mask), root / "unlabelled.mask")
    return ("--mask", str(root / "unlabelled.mask"))


# model -> (train options, or None for the workspace model; the JSON null it must hold)
ROUND_TRIP_MODELS = {
    "mrf": (None, None),
    "som": (lambda root: ("--mode", "som"), lambda doc: doc["mask"]),
    "unlabelled-mask": (_unlabelled_mask, lambda doc: doc["mask"]["groups"]),
}


@pytest.mark.parametrize("extra, null", ROUND_TRIP_MODELS.values(), ids=ROUND_TRIP_MODELS.keys())
def test_model_round_trip_bytes(workspace, tmp_path, extra, null):
    path = workspace / "run" / "model.json"
    if extra is not None:
        dataset = workspace / "gen" / "dataset.csv"
        assert run_cli(*train_args(tmp_path / "run", dataset, epochs=2, extra=extra(tmp_path))) == 0
        path = tmp_path / "run" / "model.json"
        assert null(json.loads(path.read_text())) is None
    copy = tmp_path / "copy.json"
    save_model(load_model(path), copy)
    assert copy.read_bytes() == path.read_bytes()


def test_load_model_diagnostics(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"format": "rfsom-model", "version": 1}')
    with pytest.raises(ParseError, match="unsupported model version 1"):
        load_model(path)
    path.write_text('{"format": "rfsom-model", "version": 2}')
    with pytest.raises(ParseError, match="missing key 'run_config'"):
        load_model(path)


def _set(block, key, value):
    return lambda doc: doc[block].__setitem__(key, value)


def _truncate_normalization(doc):
    for key in ("mean", "std"):
        doc["normalization"][key] = doc["normalization"][key][:6]


# edit of a valid model document -> expected ParseError message
BAD_MODELS = {
    "version-1": (lambda doc: doc.update(version=1), "unsupported model version 1"),
    "unknown-top-level-key": (
        lambda doc: doc.update(lattice={"rows": 4, "cols": 4}), "unknown key 'lattice'"
    ),
    "float-in-int-field": (_set("run_config", "lattice.rows", "4.9"), "invalid configuration"),
    "bool-in-int-field": (_set("run_config", "schedule.epochs", "true"), "invalid configuration"),
    "float-seed": (_set("run_config", "seed", "1.5"), "invalid configuration"),
    "int-in-str-field": (_set("run_config", "mrf.bmu_scope", "1"), "unknown bmu_scope '1'"),
    "unknown-block-key": (_set("normalization", "scale", [1.0]), "unknown key 'scale'"),
    "unknown-mask-key": (_set("mask", "rows", 4), "mask: unknown key 'rows'"),
    "mask-grid": (
        lambda doc: doc["mask"].update(mask=doc["mask"]["mask"][:8]),
        "mask has shape (8, 7), expected (16, dims)",
    ),
    "float-mask-entry": (
        lambda doc: doc["mask"]["mask"][0].__setitem__(0, 1.0),
        "'mask' must be a 2-D array of integers",
    ),
    "int-group-labels": (
        _set("mask", "groups", list(range(16))), "'groups' must be a 1-D array of strings"
    ),
    "bool-in-codebook": (
        lambda doc: doc["codebook"][0].__setitem__(0, True),
        "'codebook' must be a 2-D array of numbers",
    ),
    "bool-in-normalization": (
        lambda doc: doc["normalization"]["std"].__setitem__(0, True),
        "'std' must be a 1-D array of numbers",
    ),
    "normalization-length": (_truncate_normalization, "normalization has 6 entries for 7 dims"),
    "run-config-unknown-key": (_set("run_config", "lattice.shape", "hex"), "unknown config key"),
    "run-config-malformed": (
        _set("run_config", "combination_threshold", "x"), "invalid configuration"
    ),
    "run-config-non-string": (_set("run_config", "seed", 5), "'seed' has unexpected type int"),
    "lattice-above-neuron-limit": (
        _set("run_config", "lattice.rows", str(MAX_NEURONS + 1)),
        f"run_config: invalid configuration: lattice.rows x lattice.cols = {MAX_NEURONS + 1}x4",
    ),
    "threshold-out-of-range": (
        _set("run_config", "combination_threshold", "2"),
        "invalid configuration: combination_threshold must be in (0, 1], got 2.0",
    ),
    "mrf-without-mask": (lambda doc: doc.update(mask=None), "mode 'mrf' needs a mask"),
    "som-with-mask": (
        _set("run_config", "mode", "som"), "mode 'som' needs \"mask\": null"
    ),
}


@pytest.mark.parametrize("edit, message", BAD_MODELS.values(), ids=BAD_MODELS.keys())
def test_malformed_model_rejected_before_any_write(workspace, tmp_path, edit, message):
    doc = json.loads((workspace / "run" / "model.json").read_text())
    edit(doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=re.escape(message)):
        load_model(path)
    out = tmp_path / "out"
    assert run_cli("export", "--model", str(path), "--out", str(out)) == 4
    assert not out.exists()


# field edit of a loaded global-masked model -> expected error
DISAGREEING_MODELS = {
    "mode": ({"mode": "som", "mask": None}, "model mode 'som' disagrees with run_config"),
    "mrf-config": (
        {"mrf_config": MrfConfig(bmu_scope="per-group")}, "model mrf_config MrfConfig(bmu_scope"
    ),
    "schedule": ({"schedule": TrainSchedule(epochs=1)}, "model schedule TrainSchedule(epochs=1"),
    "joints": ({"joints": joint_names(7)[::-1]}, "model joints ('wrist'"),
    "mode-and-mask": ({"mask": None}, "mode 'mrf' needs a mask"),
    "lattice": (
        {"codebook": init_codebook(LatticeSpec(metric="hex-axial"), 7, 0)},
        "model lattice LatticeSpec(rows=4, cols=4, metric='hex-axial')",
    ),
}


@pytest.mark.parametrize(
    "fields, message", DISAGREEING_MODELS.values(), ids=DISAGREEING_MODELS.keys()
)
def test_model_disagreeing_with_run_config_rejected(workspace, fields, message):
    model = load_model(workspace / "run" / "model.json")
    with pytest.raises(ValueError, match=re.escape(message)):
        dataclasses.replace(model, **fields)


def test_loaded_model_is_frozen(workspace):
    model = load_model(workspace / "run" / "model.json")
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.mode = "som"
    assert model.config == build_run_config(model.run_config)


def test_save_model_ignores_mutated_run_config_dict(workspace, tmp_path):
    """The frozen model's run_config is a plain dict; editing it after load
    must not reach the saved file."""
    saved = workspace / "run" / "model.json"
    model = load_model(saved)
    model.run_config["mode"] = "som"
    save_model(model, tmp_path / "model.json")
    assert load_model(tmp_path / "model.json").mode == "mrf"
    assert (tmp_path / "model.json").read_bytes() == saved.read_bytes()


# ------------------------------------------------------------- entry points

def test_usage_errors_exit2_and_help_exits0(capsys):
    assert run_cli("no-such-command") == 2
    assert run_cli("evaluate") == 2  # --model and --dataset-path required
    assert run_cli("--help") == 0
    assert "4x4" in capsys.readouterr().out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "rfsom", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "generate" in proc.stdout and "export" in proc.stdout
