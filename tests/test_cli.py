"""Config resolution, subcommand behavior, exit codes, artifact layout."""

import argparse
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from rfsom.cli import (
    Model,
    RunConfig,
    _merge_config,
    build_parser,
    build_run_config,
    load_model,
    main,
    parse_config_file,
    run_config_items,
    save_model,
)
from rfsom.datagen import load_csv
from rfsom.fileio import ParseError
from rfsom.som import init_codebook

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
    with pytest.raises(ValueError, match="invalid configuration"):
        build_run_config({"schedule.epochs": "three"})
    with pytest.raises(ValueError, match="invalid configuration"):
        build_run_config({"mode": "both"})
    with pytest.raises(ValueError, match="invalid configuration"):
        build_run_config({"chain.touch_radius": "-1"})


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
        "--cols": "4", "--layout": "hex-offset", "--metric": "manhattan", "--epochs": "100",
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
    "lattice.layout": "rectangular", "lattice.metric": "hex-axial", "schedule.epochs": "7",
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


def test_train_config_errors_exit4_without_output(tmp_path):
    out = tmp_path / "nope"
    assert run_cli(*train_args(out, tmp_path / "missing.csv")) == 4
    assert not out.exists()
    code = run_cli(
        "train",
        "--dataset",
        "synthesize:1",
        "--set",
        "chain.touch_radius=0.5",
        "--out",
        str(out),
    )
    assert code == 4  # one sample cannot be normalized
    bad_mask = tmp_path / "bad.mask"
    assert (
        run_cli(
            *train_args(out, tmp_path / "missing.csv", extra=("--mask", str(bad_mask)))
        )
        == 4
    )
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


def test_evaluate_missing_model_exit4(workspace, tmp_path):
    code = run_cli(
        "evaluate",
        "--model",
        str(tmp_path / "missing.json"),
        "--dataset-path",
        str(workspace / "gen" / "dataset.csv"),
        "--out",
        str(tmp_path / "out"),
    )
    assert code == 4


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

def test_model_round_trip_bytes(workspace, tmp_path):
    path = workspace / "run" / "model.json"
    model = load_model(path)
    copy = tmp_path / "copy.json"
    save_model(model, copy)
    assert copy.read_bytes() == path.read_bytes()


def test_load_model_diagnostics(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"format": "rfsom-model", "version": 2}')
    with pytest.raises(ParseError, match="version"):
        load_model(path)
    path.write_text('{"format": "rfsom-model", "version": 1, "mode": "mrf"}')
    with pytest.raises(ParseError, match="missing key"):
        load_model(path)


def _set(block, key, value):
    return lambda doc: doc[block].__setitem__(key, value)


# edit of a valid model document -> expected ParseError message
BAD_MODELS = {
    "float-in-int-field": (_set("lattice", "rows", 4.9), "'rows' has unexpected type float"),
    "bool-in-int-field": (_set("schedule", "epochs", True), "'epochs' has unexpected type bool"),
    "float-seed": (_set("schedule", "seed", 1.5), "'seed' has unexpected type float"),
    "int-in-str-field": (_set("mrf_config", "bmu_scope", 1), "'bmu_scope' has unexpected type int"),
    "unknown-block-key": (_set("lattice", "shape", "hex"), "unknown key 'shape'"),
    "mask-grid": (
        lambda doc: doc["mask"].update(rows=2, cols=8), "grid 2x8 does not match lattice 4x4"
    ),
    "run-config-unknown-key": (_set("run_config", "lattice.shape", "hex"), "unknown config key"),
    "run-config-malformed": (
        _set("run_config", "combination_threshold", "x"), "invalid configuration"
    ),
    "run-config-non-string": (_set("run_config", "seed", 5), "'seed' has unexpected type int"),
    "run-config-disagrees": (
        _set("run_config", "lattice.metric", "hex-axial"), "disagrees with the 'lattice'"
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
