"""Correctness checks for each CLI operation, run outside the timed region.

A check reads the artifacts the operation wrote and recomputes what it can
with the library: rows against the kinematics, masked-off weights against
the seeded initial codebook, metrics against the metric functions.
"""

from __future__ import annotations

import json
import os

import numpy as np

from rfsom.cli import load_model
from rfsom.datagen import JOINT_NAMES, ChainSpec, apply_normalization, forward_kinematics, load_csv
from rfsom.lattice import LatticeSpec
from rfsom.mrf import masked_quantization_error, masked_topographic_error
from rfsom.som import init_codebook, quantization_error, topographic_error


class CheckFailed(Exception):
    """An operation exited 0 but its artifacts are wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_generate(op) -> None:
    data = load_csv(os.path.join(op.out, "dataset.csv"))
    _require(data.shape == (op.n, len(JOINT_NAMES)), f"dataset shape {data.shape}, want ({op.n}, 7)")
    chain = ChainSpec(touch_radius=op.touch_radius)
    inside = (data >= chain.lower_limits) & (data <= chain.upper_limits)
    _require(bool(inside.all()), "a row lies outside the joint limits")
    for i, row in enumerate(data):
        hand, target = forward_kinematics(row, chain)
        gap = float(np.sqrt(((hand - target) ** 2).sum()))
        _require(gap < op.touch_radius, f"row {i}: hand-target gap {gap} >= {op.touch_radius}")


def final_errors(train_dir: str) -> tuple[int, float, float]:
    """(rows, last QE, last TE) of a train_log.csv."""
    with open(os.path.join(train_dir, "train_log.csv"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    _require(lines[0] == "epoch,quantization_error,topographic_error", "bad train_log header")
    _require(len(lines) > 1, "train_log.csv has no epochs")
    _, qe, te = lines[-1].split(",")
    return len(lines) - 1, float(qe), float(te)


def check_train(op) -> tuple[float, float]:
    """Returns the last-epoch (QE, TE) of the run."""
    model = load_model(os.path.join(op.out, "model.json"))
    _require(model.mode == op.mode, f"model mode {model.mode}, want {op.mode}")
    weights = model.codebook.weights
    _require(bool(np.isfinite(weights).all()), "non-finite weight")
    if model.mask is not None:
        init = init_codebook(model.codebook.lattice, weights.shape[1], op.seed).weights
        off = ~model.mask.mask
        _require(
            weights[off].tobytes() == init[off].tobytes(),
            "a masked-off weight differs from its initial value",
        )
    epochs, qe, te = final_errors(op.out)
    _require(epochs == op.epochs, f"train_log.csv has {epochs} epochs, want {op.epochs}")
    return qe, te


def check_evaluate(op) -> None:
    with open(os.path.join(op.out, "metrics.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    model = load_model(op.model)
    data = apply_normalization(load_csv(op.dataset), model.normalization)
    if model.mask is not None:
        qe = masked_quantization_error(model.codebook, data, model.mask, model.mrf_config)
        te = masked_topographic_error(model.codebook, data, model.mask, model.mrf_config)
    else:
        qe = quantization_error(model.codebook, data)
        te = topographic_error(model.codebook, data)
    _require(doc["n_samples"] == data.shape[0], "metrics.json n_samples differs")
    _require(doc["quantization_error"] == qe, f"metrics.json QE {doc['quantization_error']} != {qe}")
    _require(doc["topographic_error"] == te, f"metrics.json TE {doc['topographic_error']} != {te}")


def check_export(op) -> None:
    for joint in JOINT_NAMES:
        for suffix in (".csv", ".pgm", ".mask.pgm"):
            path = os.path.join(op.out, f"heatmap_{joint}{suffix}")
            _require(os.path.isfile(path), f"missing {path}")
    with open(os.path.join(op.out, "report.json"), encoding="utf-8") as fh:
        neurons = json.load(fh)["neurons"]
    want = LatticeSpec().n_neurons
    _require(len(neurons) == want, f"report.json has {len(neurons)} neurons, want {want}")


CHECKS = {
    "generate": check_generate,
    "train": check_train,
    "evaluate": check_evaluate,
    "export": check_export,
}
