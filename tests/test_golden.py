"""Golden digests: a tiny seeded CLI tree must stay byte-identical across
versions, so numerics or format drift shows up as a failing digest.

The digests were recorded before the config-table rewrite of ``rfsom.cli``;
the three ``*/train`` digests were re-recorded when model.json became
version 2 (no duplicated configuration blocks, no ``lattice.layout`` key).
All nine ``*/train``, ``*/eval`` and ``*/export`` digests were re-recorded
when the weight-sign neuron classification and its ``combination_threshold``
key went: model.json version 3 has one ``run_config`` key fewer, metrics.json
version 2 holds only the dataset's sample count, QE and TE (the separation
ratio stays in report.json), and report.json version 2 has no
``classification``. Codebooks, training logs, QE and TE kept every byte.
The three ``*/train`` digests were re-recorded again when file paths left
the configuration: model.json version 4 records only the 13 keys ``train``
reads, with no ``out``, ``dataset`` or ``mask`` path and no ``n``,
``max_attempts`` or ``chain.*`` key; every other artifact kept every byte.
The three ``*/train`` digests were re-recorded once more for model.json
version 5: a som model stores its all-true, unlabelled mask instead of
``null`` and records the global-masked, unnormalized search that trained
it, and every model.json states version 5; codebooks, training logs and
every other artifact kept every byte.
A change that alters any artifact on purpose updates them and says why.

The sampler digests pin the rows and the draw count of ``synthesize_self_touch``
at small touch radii, where its float32 screen rejects most draws; the CLI
tree samples at radius 0.5, where nearly every draw passes it.
"""

import dataclasses
import hashlib

import pytest

from rfsom.cli import main
from rfsom.datagen import ChainSpec, synthesize_self_touch

TRAINS = {
    "mrf-global": [],
    "mrf-group": ["--bmu-scope", "per-group"],
    "som": ["--mode", "som"],
}

GOLDEN = {
    "gen": "b55e13e4910bc9d37a4030c680bd960b8c4691478837c7739631013f48dd2649",
    "mrf-global/train": "a7bc61d48ef3175d732c6205b22dbe5bfdc76772b3e872cdeb56187128cd0d7f",
    "mrf-global/eval": "04a43a36e7ff8ba61b662e3052b2c561d49f96197756cc35dc4648cdfc3f65d4",
    "mrf-global/export": "b3bbf6d140311dfd244bb4e6cac092b6d6c8f5a35773fc5f7b12f666de6401a6",
    "mrf-group/train": "b24538206695b92ffb23c822aadfd692bca0757ce4846e96af02b53da7b926f1",
    "mrf-group/eval": "342eabf90a90cb966d3ac16bb66dcaf7d8da24fa39baffd16fee066fe317cddc",
    "mrf-group/export": "af7a32aeabb42ad2c86fb7c394eac42226a894ff5054751d6f8f1b57edfb6e1f",
    "som/train": "e06dd8b2b7eee2401abf30b47f558b0a4c1ee285fe9ca0b838c63f8e27f9fc38",
    "som/eval": "e03d932af24f44b65e941d3ddbae81fbebe47f98f897647a0e3e54e2b289fa8f",
    "som/export": "76c4e3dea6e977a88c116b0a3c9506e6a4024e3311f51cb72640655910411b75",
}


def _tree_digest(root) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def test_golden_cli_tree(tmp_path, monkeypatch):
    # relative paths, though no artifact records a path
    monkeypatch.chdir(tmp_path)
    argv = [["generate", "--n", "60", "--seed", "3", "--touch-radius", "0.5", "--out", "gen"]]
    for name, extra in TRAINS.items():
        argv += [
            ["train", "--dataset", "gen/dataset.csv", "--seed", "3", "--epochs", "3",
             "--out", f"{name}/train", *extra],
            ["evaluate", "--model", f"{name}/train/model.json",
             "--dataset-path", "gen/dataset.csv", "--out", f"{name}/eval"],
            ["export", "--model", f"{name}/train/model.json", "--out", f"{name}/export"],
        ]
    for args in argv:
        assert main(args) == 0, args
    got = {name: _tree_digest(tmp_path / name) for name in GOLDEN}
    assert got == GOLDEN


PERMUTED = dataclasses.replace(
    ChainSpec(), joint_axes=("x", "z", "y", "z", "x", "y", "z"), touch_radius=0.01
)

# name -> (chain, seed, attempts, sha256 of the 25 accepted rows' bytes)
SAMPLER_GOLDEN = {
    "default-seed0": (
        ChainSpec(), 0, 339840,
        "fedce5c07c12d861b59a145af71a4f8990a7c33b99bfc1ee63f1c33e771785b1",
    ),
    "default-seed1": (
        ChainSpec(), 1, 337620,
        "6e16568783c12bc4da529cd238596812746bb465488a054873f045069d2a7b3f",
    ),
    "permuted-axes-r0.01": (
        PERMUTED, 0, 265898,
        "3247aac46fbadddac584096bc3bc81ffb781a81362d870c7b968f04e597ec7a0",
    ),
}


@pytest.mark.parametrize(
    "chain, seed, attempts, digest", SAMPLER_GOLDEN.values(), ids=SAMPLER_GOLDEN.keys()
)
def test_golden_sampler_rows(chain, seed, attempts, digest):
    res = synthesize_self_touch(chain, 25, seed)
    assert res.attempts == attempts
    assert hashlib.sha256(res.data.tobytes()).hexdigest() == digest
