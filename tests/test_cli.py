"""Config resolution, subcommand behavior, exit codes, artifact layout."""

import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from rfsom.cli import (
    FIELDS,
    MAX_NEURONS,
    RunConfig,
    _ALL,
    _DEFAULTS,
    _merge_config,
    _model,
    build_parser,
    build_run_config,
    load_model,
    main,
    run_config_items,
    save_model,
)
from rfsom.datagen import NormalizationParams, joint_names, load_csv, save_csv
from rfsom.fileio import ParseError
from rfsom.lattice import LatticeSpec
from rfsom.mrf import (
    MrfConfig, ReceptiveFieldMask, default_quadrant_mask, load_mask, save_mask,
)
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

def test_build_run_config_defaults_and_round_trip():
    cfg = build_run_config({})
    assert cfg == RunConfig()
    assert cfg.mode == "mrf" and cfg.n == 3216
    assert build_run_config(run_config_items(cfg, FIELDS)) == cfg
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
    assert build_run_config(run_config_items(custom, FIELDS)) == custom
    # the default view is model.json's: the train keys, without n or chain.*
    assert build_run_config(run_config_items(custom)) == dataclasses.replace(
        custom, max_attempts=None, chain=RunConfig().chain
    )


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


# ------------------------------------------------------------- flag surface

# each subcommand's flags and the default its help shows (None: no default)
FLAG_SURFACE = {
    "generate": {
        "--help": None, "--seed": "0", "--out": None,
        "--n": "3216", "--max-attempts": "auto", "--upper-arm": "0.105",
        "--forearm-hand": "0.114",
        "--shoulder-offset": "0,-0.098000000000000004,0.10000000000000001",
        "--face-target": "0.050000000000000003,0,0.050000000000000003",
        "--touch-radius": "0.029999999999999999", "--axes": "z,y,z,y,z,x,x",
        "--head-yaw": "-2.0857000000000001,2.0857000000000001",
        "--head-pitch": "-0.67200000000000004,0.51490000000000002",
        "--shoulder-roll": "-1.3265,0.31419999999999998",
        "--shoulder-pitch": "-2.0857000000000001,2.0857000000000001",
        "--elbow-roll": "0.0349,1.5446",
        "--elbow-yaw": "-2.0857000000000001,2.0857000000000001",
        "--wrist": "-1.8238000000000001,1.8238000000000001",
    },
    "train": {
        "--help": None, "--seed": "0", "--out": None,
        "--dataset": None, "--mode": "mrf",
        "--mask": "the built-in 4x4 quadrant mask over 7 joints", "--rows": "4",
        "--cols": "4", "--metric": "manhattan", "--epochs": "100",
        "--alpha0": "0.5", "--alpha-end": "0.01", "--sigma0": "2", "--sigma-end": "0.5",
        "--decay": "exponential", "--bmu-scope": "global-masked",
        "--distance-normalization": "rms-per-active-dim",
    },
    "evaluate": {
        "--help": None, "--model": None, "--dataset-path": None, "--seed": "0", "--out": None,
    },
    "export": {"--help": None, "--model": None, "--seed": "0", "--out": None},
}

# config key -> a valid non-default value
FLAG_VALUES = {
    "seed": "7", "n": "10", "max_attempts": "99", "chain.upper_arm": "0.2",
    "chain.forearm_hand": "0.3", "chain.shoulder_offset": "0,0,0.1",
    "chain.face_target": "0.1,0,0", "chain.touch_radius": "0.4",
    "mode": "som", "lattice.rows": "3", "lattice.cols": "5",
    "lattice.metric": "hex-axial", "schedule.epochs": "7",
    "schedule.alpha0": "0.4", "schedule.alpha_end": "0.02", "schedule.sigma0": "1.5",
    "schedule.sigma_end": "0.25", "schedule.decay": "linear", "mrf.bmu_scope": "per-group",
    "mrf.distance_normalization": "unnormalized", "chain.axes": "x,y,z,y,z,x,x",
    "chain.limit.head_yaw": "-1,1", "chain.limit.head_pitch": "-0.5,0.5",
    "chain.limit.shoulder_roll": "-1,0.25", "chain.limit.shoulder_pitch": "-2,2",
    "chain.limit.elbow_roll": "0.1,1.5", "chain.limit.elbow_yaw": "-2,2",
    "chain.limit.wrist": "-1,1",
}

REQUIRED = {
    "generate": ["--out", "o"],
    "train": ["--dataset", "d.csv", "--out", "o"],
    "evaluate": ["--model", "m.json", "--dataset-path", "d.csv", "--out", "o"],
    "export": ["--model", "m.json", "--out", "o"],
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
    """A key's flag sets that key, as the key=value pair would, and nothing
    else; every config key has a flag."""
    parser = build_parser()
    flag_of = {"--" + key.rpartition(".")[2].replace("_", "-"): key for key in FLAG_VALUES}
    checked = set()
    for command, flags in FLAG_SURFACE.items():
        base = [command, *REQUIRED[command]]
        for flag in flags:
            key = flag_of.get(flag)
            if key is None:
                continue
            value = FLAG_VALUES[key]
            # --flag=value also holds a value that starts with '-'
            via_flag = _merge_config(parser.parse_args([*base, f"{flag}={value}"]))
            assert via_flag == build_run_config({key: value}) != build_run_config({}), flag
            checked.add(key)
    assert checked == set(FLAG_VALUES) == {field.key for field in FIELDS}


def test_every_field_names_a_command():
    """No config key is unreachable: each is a flag of some subcommand."""
    assert all(field.commands and set(field.commands) <= set(_ALL) for field in FIELDS)


def _unread_flags():
    for command in _ALL:
        for field in FIELDS:
            if command not in field.commands:
                yield command, "--" + field.flag.replace("_", "-")


def test_unread_key_flag_exit2_before_any_work(tmp_path, capsys, no_work):
    """A flag of a key the command does not read, such as train --n 5, is a
    usage error, refused before any work or write."""
    out = str(tmp_path / "out")
    cases = list(_unread_flags())
    # 31 (command, key) pairs are flags: generate 16, train 13, evaluate 1, export 1
    assert len(cases) == 4 * len(FIELDS) - 31
    for command, flag in cases:
        argv = [command, *REQUIRED[command][:-1], out, flag, "1"]
        assert run_cli(*argv) == 2, argv
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {flag} 1" in err, argv
        # the subcommand's usage line, which lists the flags it does take
        assert err.startswith(f"usage: rfsom {command} [-h]"), argv
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", _ALL)
def test_set_config_and_abbreviations_exit2(tmp_path, capsys, no_work, command):
    """A key has one spelling, its flag: --set, --config and an abbreviated
    flag are usage errors on every command, refused before any work."""
    out = str(tmp_path / "out")
    base = [command, *REQUIRED[command][:-1], out]
    for extra in (["--set", "seed=1"], ["--config", "run.cfg"], ["--se", "1"]):
        assert run_cli(*base, *extra) == 2, extra
        assert f"unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err
    assert not os.path.exists(out)


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
                flag_on = "all" if field.commands == _ALL else " ".join(field.commands)
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
    """A joint limit beyond 1e100 is refused with the configuration, whether
    or not its span hi - lo overflows a float."""
    out = tmp_path / "never"
    for limit in ("1e+308", "1e+200"):
        setting = f"--wrist=-{limit},{limit}"
        assert run_cli("generate", setting, "--n", "5", *EASY, "--out", str(out)) == 4
        assert capsys.readouterr().err == (
            "error: invalid configuration: wrist limit value at index 0 exceeds the magnitude "
            f"limit 1e+100: -{limit}\n"
        )
        assert not out.exists()


# generate options -> the configuration error they give, before any draw
BAD_CHAINS = {
    # float64 kinematics of this chain overflow, so it is refused before sampling
    "overflowing-geometry": (
        ["--upper-arm", "1e300", "--face-target", "1e300,0,0",
         "--n", "1", "--max-attempts", "100000"],
        "upper_arm value at index 0 exceeds the magnitude limit 1e+100: 1e+300",
    ),
    "infinite-radius": (
        ["--touch-radius", "inf"], "touch_radius value at index 0 is not finite: inf"
    ),
    "nan-target": (
        ["--face-target", "0,nan,0"], "face_target value at index 1 is not finite: nan"
    ),
    "short-target": (
        ["--face-target", "1,2"],
        "chain.face_target='1,2': expected 3 comma-separated values, got 2",
    ),
    "two-axes": (["--axes", "x,y"], "need 7 joint axes"),
}


@pytest.mark.parametrize("options, message", BAD_CHAINS.values(), ids=BAD_CHAINS.keys())
def test_generate_bad_chain_exit4_before_sampling(tmp_path, capsys, no_work, options, message):
    out = tmp_path / "never"
    assert run_cli("generate", *options, "--out", str(out)) == 4
    assert capsys.readouterr().err == f"error: invalid configuration: {message}\n"
    assert not out.exists()


def test_missing_or_empty_path_exit2_before_any_work(workspace, tmp_path, capsys, no_work):
    """A missing --out or train --dataset, or an empty path option (an unset
    shell variable), is a usage error, refused before any sampling,
    training or write."""
    dataset = str(workspace / "gen" / "dataset.csv")
    model = str(workspace / "run" / "model.json")
    out = str(tmp_path / "out")
    required = "the following arguments are required: "
    cases = [
        (["generate", "--n", "5", *EASY], required + "--out"),
        (["generate", "--n", "5", *EASY, "--out", ""], "argument --out: expected a path, got ''"),
        (["train", "--dataset", dataset], required + "--out"),
        (["train", "--dataset", dataset, "--out", ""], "argument --out: expected a path"),
        (["train", "--out", out], required + "--dataset"),
        (["train", "--dataset", "", "--out", out], "argument --dataset: expected a path"),
        (["train", "--dataset", dataset, "--mask", "", "--out", out], "argument --mask: "),
        (["evaluate", "--model", model, "--dataset-path", dataset], required + "--out"),
        (["export", "--model", model, "--out", ""], "argument --out: expected a path"),
    ]
    for argv, message in cases:
        assert run_cli(*argv) == 2, argv
        assert message in capsys.readouterr().err, argv
    assert not os.path.exists(out)


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


# a mask file's keys before the {mask, groups} object it shares with model.json
MASK_HEADER = {"format": "rfsom-mask", "version": 1, "rows": 4, "cols": 4}


def test_train_som_equals_mrf_with_alltrue_mask(workspace, tmp_path):
    dataset = workspace / "gen" / "dataset.csv"
    mask_path = tmp_path / "alltrue.mask"
    mask_path.write_text(json.dumps(MASK_HEADER | {"mask": [[1] * 7] * 16, "groups": None}))
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


def test_model_mask_object_is_a_mask_file(workspace, tmp_path):
    """A model.json's mask object with the four header keys loads as the
    model's mask."""
    model = workspace / "run" / "model.json"
    path = tmp_path / "model.mask"
    path.write_text(json.dumps(MASK_HEADER | json.loads(model.read_text())["mask"]))
    mask, want = load_mask(path), load_model(model).mask
    assert (mask.rows, mask.cols, mask.groups) == (want.rows, want.cols, want.groups)
    assert mask.mask.tobytes() == want.mask.tobytes()


def test_train_with_saved_built_in_mask_writes_same_model(workspace, tmp_path):
    """The built-in mask saved to a file is model.json's mask object under
    the header, and training with it writes the bytes of a run without
    --mask."""
    mask_path = tmp_path / "quadrant.mask"
    save_mask(default_quadrant_mask(), mask_path)
    dataset = workspace / "gen" / "dataset.csv"
    assert run_cli(*train_args(tmp_path / "a", dataset, epochs=2)) == 0
    assert run_cli(*train_args(tmp_path / "b", dataset, epochs=2,
                               extra=("--mask", str(mask_path)))) == 0
    model = (tmp_path / "a" / "model.json").read_bytes()
    assert json.loads(mask_path.read_text()) == MASK_HEADER | json.loads(model)["mask"]
    assert (tmp_path / "b" / "model.json").read_bytes() == model


def test_train_config_errors_exit4_without_output(tmp_path, capsys):
    out = tmp_path / "nope"
    assert run_cli(*train_args(out, tmp_path / "missing.csv")) == 4
    assert not out.exists()
    one_row = tmp_path / "one_row.csv"
    save_csv(np.zeros((1, 7)), one_row)
    assert run_cli(*train_args(out, one_row)) == 4  # one sample cannot be normalized
    assert "at least 2 rows" in capsys.readouterr().err
    # rejected while the config is read, before the (here missing) dataset is opened
    alpha = ("--alpha0", "2")
    assert run_cli(*train_args(out, tmp_path / "missing.csv", extra=alpha)) == 4
    assert "alpha0 must be in (0, 1], got 2.0" in capsys.readouterr().err
    bad_mask = tmp_path / "bad.mask"
    assert (
        run_cli(
            *train_args(out, tmp_path / "missing.csv", extra=("--mask", str(bad_mask)))
        )
        == 4
    )
    assert not out.exists()
    # a text mask of the earlier format is not JSON, and is located as such
    bad_mask.write_text("4 4 7\n" + "\n".join(["1 1 1 1 1 1 1"] * 16) + "\n")
    two_rows = tmp_path / "two_rows.csv"
    save_csv(np.arange(14.0).reshape(2, 7), two_rows)
    capsys.readouterr()
    located = f"{bad_mask}: invalid JSON: Extra data: line 1 column 3"
    assert run_cli(*train_args(out, two_rows, extra=("--mask", str(bad_mask)))) == 4
    assert located in capsys.readouterr().err
    # the mask is read before the dataset, so a one-row dataset does not hide it
    assert run_cli(*train_args(out, one_row, extra=("--mask", str(bad_mask)))) == 4
    assert located in capsys.readouterr().err
    assert not out.exists()
    # a joint varying only between 1e-200 and 2e-200 has a std that underflows to 0
    data = np.random.default_rng(4).uniform(-1.0, 1.0, size=(20, 7))
    data[:, 3] = np.linspace(1e-200, 2e-200, 20)
    save_csv(data, tmp_path / "tiny.csv")
    assert run_cli(*train_args(out, tmp_path / "tiny.csv")) == 4
    assert capsys.readouterr().err == (
        "error: shoulder_pitch has std 0.0, below 1e-100; cannot normalize\n"
    )
    assert not out.exists()


# train option -> its value; a som map reads none of them
SOM_UNUSED = {
    "mask": ("--mask", "missing.mask"),
    "bmu-scope": ("--bmu-scope", "per-group"),
    "distance-normalization": ("--distance-normalization", "unnormalized"),
}


@pytest.mark.parametrize("option", SOM_UNUSED.values(), ids=SOM_UNUSED.keys())
def test_train_som_refuses_masked_inputs_exit4_before_reading(tmp_path, capsys, no_work, option):
    """The full-field map uses no mask and no masked configuration, so a som
    train given one exits 4 before it reads the (here missing) dataset or
    mask, and writes nothing; at their defaults the two settings pass."""
    out = tmp_path / "out"
    extra = ("--mode", "som", *option)
    assert run_cli(*train_args(out, tmp_path / "missing.csv", extra=extra)) == 4
    assert capsys.readouterr().err == (
        "error: --mode som takes no --mask, and --bmu-scope and --distance-normalization "
        "only at their defaults\n"
    )
    assert not out.exists()
    defaults = ("--mode", "som", "--bmu-scope", "global-masked",
                "--distance-normalization", "rms-per-active-dim")
    assert run_cli(*train_args(out, tmp_path / "missing.csv", extra=defaults)) == 4
    assert "missing.csv" in capsys.readouterr().err


def test_single_neuron_som_pipeline(workspace, tmp_path):
    """A 1x1 map trains, evaluates and exports; its one neuron is its own
    second match, so every TE is 0."""
    dataset = workspace / "gen" / "dataset.csv"
    lattice = ("--mode", "som", "--rows", "1", "--cols", "1")
    assert run_cli(*train_args(tmp_path / "run", dataset, epochs=2, extra=lattice)) == 0
    model = str(tmp_path / "run" / "model.json")
    assert run_cli("evaluate", "--model", model, "--dataset-path", str(dataset),
                   "--out", str(tmp_path / "eval")) == 0
    assert run_cli("export", "--model", model, "--out", str(tmp_path / "exp")) == 0
    log = (tmp_path / "run" / "train_log.csv").read_text().splitlines()[1:]
    assert [line.rpartition(",")[2] for line in log] == ["0", "0"]
    assert json.loads((tmp_path / "eval" / "metrics.json").read_text())["topographic_error"] == 0
    report = json.loads((tmp_path / "exp" / "report.json").read_text())
    assert len(report["neurons"]) == 1
    assert report["cluster_separation_ratio"] is None


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
    assert list(metrics) == [
        "format", "version", "n_samples", "quantization_error", "topographic_error"
    ]
    assert metrics["format"] == "rfsom-metrics"
    assert metrics["version"] == 2
    assert metrics["n_samples"] == 120
    assert metrics["quantization_error"] > 0.0
    assert 0.0 <= metrics["topographic_error"] <= 1.0


def test_evaluate_ignores_huge_masked_off_weight(workspace, tmp_path):
    """A masked-off weight at the magnitude limit changes neither QE nor TE,
    and the exported separation ratio, which reads it through union
    distances, stays finite."""
    doc = json.loads((workspace / "run" / "model.json").read_text())
    neuron, dim = np.argwhere(np.array(doc["mask"]["mask"]) == 0)[0]
    doc["codebook"][neuron][dim] = 1e100
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(doc))
    metrics = []
    for name, model in (("plain", workspace / "run" / "model.json"), ("huge", huge)):
        dataset = workspace / "gen" / "dataset.csv"
        out = tmp_path / name
        args = ["--model", str(model), "--dataset-path", str(dataset), "--out", str(out)]
        assert run_cli("evaluate", *args) == 0
        metrics.append(json.loads((out / "metrics.json").read_text()))
    for key in ("quantization_error", "topographic_error"):
        assert metrics[1][key] == metrics[0][key] is not None, key
    assert run_cli("export", "--model", str(huge), "--out", str(tmp_path / "exp")) == 0
    report = json.loads((tmp_path / "exp" / "report.json").read_text())
    assert np.isfinite(report["cluster_separation_ratio"])


def test_evaluate_dimension_mismatch_exit4(workspace, tmp_path, capsys):
    """A dataset with another header, or of 7 joints for a 3-dim model, is
    refused before any score or write."""
    cfg = build_run_config({"mode": "som"})
    normalization = NormalizationParams(np.zeros(3), np.ones(3))
    model = _model(cfg, init_codebook(cfg.lattice, 3, 0), None, normalization)
    save_model(model, tmp_path / "model.json")
    out = tmp_path / "out"
    dataset = str(workspace / "gen" / "dataset.csv")
    argv = ["--model", str(tmp_path / "model.json"), "--dataset-path", dataset]
    assert run_cli("evaluate", *argv, "--out", str(out)) == 4
    assert capsys.readouterr().err == "error: data has 7 columns, normalization has 3\n"
    assert not out.exists()
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


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_huge_dataset_cell_exit4_without_output(workspace, tmp_path, capsys, command):
    """A finite cell whose squares would overflow is refused where the file
    is read, with its line and column, before any overflow or write."""
    lines = (workspace / "gen" / "dataset.csv").read_text().splitlines()
    for lineno in (3, 5):
        cells = lines[lineno - 1].split(",")
        cells[2] = "1.7e308"
        lines[lineno - 1] = ",".join(cells)
    huge = tmp_path / "huge.csv"
    huge.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    model = str(workspace / "run" / "model.json")
    argv = {
        "train": train_args(out, huge),
        "evaluate": ["evaluate", "--model", model, "--dataset-path", str(huge), "--out", str(out)],
    }[command]
    assert run_cli(*argv) == 4
    assert capsys.readouterr().err == (
        f"error: {huge}: line 3, column 3: value '1.7e308' exceeds the magnitude limit 1e+100\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "export"])
def test_huge_model_weight_exit4_without_output(workspace, tmp_path, capsys, command):
    """A masked-off weight beyond the magnitude limit is refused where the
    model is read, with its row and column, before any overflow or write."""
    doc = json.loads((workspace / "run" / "model.json").read_text())
    neuron, dim = np.argwhere(np.array(doc["mask"]["mask"]) == 0)[0]
    doc["codebook"][neuron][dim] = 1e200
    model = tmp_path / "huge.json"
    model.write_text(json.dumps(doc))
    out = tmp_path / "out"
    argv = [command, "--model", str(model), "--out", str(out)]
    if command == "evaluate":
        argv += ["--dataset-path", str(workspace / "gen" / "dataset.csv")]
    assert run_cli(*argv) == 4
    assert capsys.readouterr().err == (
        f"error: {model}: malformed model: codebook value at row {neuron}, column {dim} "
        "exceeds the magnitude limit 1e+100: 1e+200\n"
    )
    assert not out.exists()


def test_tiny_model_std_exit4_without_output(workspace, tmp_path, capsys):
    """A std at the 1e-100 floor, small enough that the normalized data exceed
    the magnitude limit, is refused with the first such value's row and
    column, before any distance or write."""
    doc = json.loads((workspace / "run" / "model.json").read_text())
    doc["normalization"]["std"][0] = 1e-100
    model = tmp_path / "tiny.json"
    model.write_text(json.dumps(doc))
    dataset = workspace / "gen" / "dataset.csv"
    value = (load_csv(dataset)[0, 0] - doc["normalization"]["mean"][0]) / 1e-100
    out = tmp_path / "out"
    argv = ["evaluate", "--model", str(model), "--dataset-path", str(dataset), "--out", str(out)]
    assert run_cli(*argv) == 4
    assert capsys.readouterr().err == (
        f"error: dataset value at row 0, column 0 exceeds the magnitude limit 1e+100: {value}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("std", [1e-320, 1e-300, 9.9e-101, 0.0])
def test_model_std_below_floor_refused_where_read(workspace, tmp_path, capsys, std):
    """A std below 1e-100 would overflow the z-scores (a subnormal one to
    inf), so the model file is refused with its path before any data is
    normalized or written."""
    doc = json.loads((workspace / "run" / "model.json").read_text())
    doc["normalization"]["std"][0] = std
    model = tmp_path / "tiny.json"
    model.write_text(json.dumps(doc))
    out = tmp_path / "out"
    dataset = str(workspace / "gen" / "dataset.csv")
    for argv in (["evaluate", "--model", str(model), "--dataset-path", dataset],
                 ["export", "--model", str(model)]):
        assert run_cli(*argv, "--out", str(out)) == 4
        assert capsys.readouterr().err == (
            f"error: {model}: malformed model: every std must be positive and at least "
            f"1e-100, got {std} at index 0\n"
        )
    assert not out.exists()


@pytest.mark.parametrize("decay, settings, message", [
    ("exponential", ("--sigma0", "1e300", "--sigma-end", "1e-100"),
     "sigma0 value at index 0 exceeds the magnitude limit 1e+100: 1e+300"),
    ("linear", ("--sigma0", "1e20", "--sigma-end", "1e-100"),
     "sigma0=1e+20 and sigma_end=1e-100 end the linear sigma curve at 0.0, "
     "not a positive value"),
    ("linear", ("--alpha0", "1", "--alpha-end", "1e-320"),
     "alpha0=1.0 and alpha_end=1e-320 end the linear alpha curve at 0.0, "
     "not a positive value"),
    # a plain negative number needs no --flag=value spelling
    ("exponential", ("--sigma0", "-1"), "sigma0 must be positive, got -1.0"),
])
def test_train_schedule_ending_at_zero_exit4_before_any_epoch(
    workspace, tmp_path, capsys, no_work, decay, settings, message
):
    """A curve that would reach 0 (an exponential ratio that underflows, or a
    linear end that rounds to 0) is refused with the configuration before
    any epoch or write: sigma0 by the value limit, any other by its last
    value, naming both keys. A curve that starts below 0 is refused by its
    start."""
    out = tmp_path / "out"
    dataset = str(workspace / "gen" / "dataset.csv")
    argv = ["train", "--dataset", dataset, "--decay", decay, *settings]
    assert run_cli(*argv, "--out", str(out)) == 4
    assert capsys.readouterr().err == f"error: invalid configuration: {message}\n"
    assert not out.exists()


def test_train_sigma_end_below_floor_exit4_before_any_epoch(workspace, tmp_path, capsys, no_work):
    """Below 1e-100 the kernel's sigma**2 underflows to 0; the schedule
    refuses such a sigma_end with the configuration, before any epoch."""
    out = tmp_path / "out"
    dataset = str(workspace / "gen" / "dataset.csv")
    argv = ["train", "--dataset", dataset, "--sigma-end", "1e-200"]
    assert run_cli(*argv, "--out", str(out)) == 4
    assert capsys.readouterr().err == (
        "error: invalid configuration: sigma_end must be in [1e-100, sigma0], got 1e-200\n"
    )
    assert not out.exists()


# the input a command reads -> its arguments, given a workspace and a missing path
MISSING_INPUTS = {
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
    assert report["version"] == 2
    assert list(report["neurons"][0]) == [
        "index", "group", "active_joints", "weights", "argmax_joint"
    ]
    assert report["cluster_separation_reference"] == 0.5
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
    capsys.readouterr()
    bad.write_text("[]")
    assert run_cli("export", "--model", str(bad), "--out", str(tmp_path / "o")) == 4
    assert capsys.readouterr().err == f"error: {bad}: model document must be a JSON object\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", _ALL)
def test_out_naming_a_non_directory_exit5_before_any_work(tmp_path, capsys, no_work, command):
    """An --out that names an existing file, or a symlink to nothing, is
    refused with a message naming --out before any input is read."""
    blocker, dangling = tmp_path / "file", tmp_path / "link"
    blocker.write_text("x")
    dangling.symlink_to(tmp_path / "nowhere")
    for out in (str(blocker), str(dangling)):
        # the inputs in REQUIRED do not exist: they are never opened
        assert run_cli(command, *REQUIRED[command][:-1], out) == 5
        assert capsys.readouterr().err == f"error: --out {out!r} exists and is not a directory\n"
    assert blocker.read_text() == "x" and not (tmp_path / "nowhere").exists()


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


# model.json's run_config: the keys train reads, in FIELDS order
RUN_CONFIG_KEYS = [
    "mode", "seed", "lattice.rows", "lattice.cols", "lattice.metric", "schedule.epochs",
    "schedule.alpha0", "schedule.alpha_end", "schedule.sigma0", "schedule.sigma_end",
    "schedule.decay", "mrf.bmu_scope", "mrf.distance_normalization",
]


@pytest.mark.parametrize("mode", ["mrf", "som"])
def test_model_file_records_no_path(workspace, tmp_path, monkeypatch, mode):
    """model.json holds the 13 training keys and no path, so the same run
    given relative and then absolute paths writes the same bytes."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "gen").mkdir()
    (tmp_path / "gen" / "dataset.csv").write_bytes((workspace / "gen" / "dataset.csv").read_bytes())
    extra = ("--mode", mode)
    assert run_cli(*train_args("rel", "gen/dataset.csv", epochs=2, extra=extra)) == 0
    assert run_cli(*train_args(tmp_path / "abs", tmp_path / "gen" / "dataset.csv", epochs=2,
                               extra=extra)) == 0
    assert (tmp_path / "rel" / "model.json").read_bytes() == (
        tmp_path / "abs" / "model.json"
    ).read_bytes()
    run_config = json.loads((tmp_path / "rel" / "model.json").read_text())["run_config"]
    assert list(run_config) == RUN_CONFIG_KEYS == [
        field.key for field in FIELDS if field.key in RUN_CONFIG_KEYS
    ]
    assert run_config["mode"] == mode


def test_load_model_diagnostics(tmp_path):
    path = tmp_path / "m.json"
    for version in (1, 2, 3):
        path.write_text(f'{{"format": "rfsom-model", "version": {version}}}')
        with pytest.raises(ParseError, match=f"unsupported model version {version}"):
            load_model(path)
    path.write_text('{"format": "rfsom-model", "version": 4}')
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
    "version-2": (lambda doc: doc.update(version=2), "unsupported model version 2"),
    "version-3": (lambda doc: doc.update(version=3), "unsupported model version 3"),
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
    "run-config-unknown-key": (
        _set("run_config", "lattice.shape", "hex"), "run_config: unknown key 'lattice.shape'"
    ),
    # config keys that train does not read, so its model does not record them
    "run-config-out": (_set("run_config", "out", "run"), "run_config: unknown key 'out'"),
    "run-config-n": (_set("run_config", "n", "3216"), "run_config: unknown key 'n'"),
    "run-config-malformed": (
        _set("run_config", "schedule.alpha0", "x"), "invalid configuration"
    ),
    "run-config-non-string": (_set("run_config", "seed", 5), "'seed' has unexpected type int"),
    "lattice-above-neuron-limit": (
        _set("run_config", "lattice.rows", str(MAX_NEURONS + 1)),
        f"run_config: invalid configuration: lattice.rows x lattice.cols = {MAX_NEURONS + 1}x4",
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
    dataset = str(workspace / "gen" / "dataset.csv")
    assert run_cli("evaluate", "--model", str(path), "--dataset-path", dataset,
                   "--out", str(out)) == 4
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
