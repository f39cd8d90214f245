"""Tests of the benchmark itself, on tiny problem sizes.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import io
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import rfsom.cli
from perfbench import bench

TINY = bench.Sizes(default_n=8, default_epochs=2, paper_n=60, paper_epochs=2, sweep_n=30, sweep_epochs=2)
MANIFEST = bench.load_manifest()


def run_main(workload, trace, seconds=0.01):
    out = io.StringIO()
    argv = ["--workload", workload, "--seed", "3", "--seconds", str(seconds), "--trace", str(trace)]
    assert bench.main(argv, sizes=TINY, out=out) == 0
    lines = out.getvalue().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_every_metric_printed_with_its_unit(workload, trace):
    lines, result = run_main(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = MANIFEST["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for entry in declared:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], float)
        assert trace or metric["value"] > 0, "an end-to-end metric must never read 0"
        assert any(line.split()[:1] == [entry["name"]] and entry["unit"] in line.split() for line in lines)
    assert any(line.startswith("ops_failed_ratio ") and "CLI ops attempted" in line for line in lines)
    assert any(line.startswith("# env ") and '"git_rev"' in line and '"nproc"' in line for line in lines)


def test_traced_counts_and_digest_repeat_exactly():
    records = [bench.run_benchmark("seed-sweep", 5, 0.01, True, TINY) for _ in range(2)]
    assert records[0]["digest"] == records[1]["digest"]
    assert not records[0]["problems"] and not records[1]["problems"]
    for key in bench.EXACT_COUNTS:
        assert records[0]["per_layer"][key] == records[1]["per_layer"][key], key
    layers = records[0]["per_layer"]
    assert layers["lattice.neighborhood_weight_calls"] == layers["som.train_steps"] + 4 * layers["mrf.train_steps"]
    assert layers["som.train_s"] > 0 and layers["mrf.train_s"] > 0


def test_corrupted_masked_off_weight_counts_as_failed_op(monkeypatch, tmp_path):
    save_model = rfsom.cli.save_model

    def save_perturbed(model, path):
        off = np.argwhere(~model.mask.mask)[0]
        model.codebook.weights[tuple(off)] += 1e-12
        save_model(model, path)

    monkeypatch.setattr(rfsom.cli, "save_model", save_perturbed)
    result = bench.run_pass(bench.WORKLOADS["train-paper"](1, TINY), tmp_path / "pass")
    assert (result.attempted, result.failed) == (4, 1)
    assert "masked-off weight" in result.errors[0]


def test_dataset_row_off_the_face_counts_as_failed_op(monkeypatch, tmp_path):
    save_csv = rfsom.cli.save_csv

    def save_moved(data, path):
        moved = data.copy()
        moved[0, 3] = -moved[0, 3]  # mirror the shoulder pitch: the hand leaves the face
        save_csv(moved, path)

    monkeypatch.setattr(rfsom.cli, "save_csv", save_moved)
    result = bench.run_pass(bench.WORKLOADS["train-paper"](1, TINY), tmp_path / "pass")
    assert result.failed == 1
    assert "row 0" in result.errors[0]


def test_manifest_records_each_workload_and_its_layer_mapping():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(bench.WORKLOADS)
    layer_names = {m["name"] for m in MANIFEST["per_layer"]}
    e2e_names = {m["name"] for m in MANIFEST["end_to_end"]}
    for workload in MANIFEST["workloads"]:
        why = workload["why"]
        assert "\n" not in why and len(why) <= 200
        layers, _, moved = why.partition(" -> ")
        assert any(name in layers for name in layer_names), why
        assert any(name in moved for name in e2e_names), why
    setup = next(m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in MANIFEST["end_to_end"])


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    argv = ["--workload", "train-paper", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *argv], cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
