"""Golden digests: a tiny seeded CLI tree must stay byte-identical across
versions, so numerics or format drift shows up as a failing digest.

The digests were recorded before the config-table rewrite of ``rfsom.cli``;
the three ``*/train`` digests were re-recorded when model.json became
version 2 (no duplicated configuration blocks, no ``lattice.layout`` key).
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
    "mrf-global/train": "ec49c1e4c114655ec44470cef7a7a8299b1af3de5bad2145d0f516aa8a370df6",
    "mrf-global/eval": "2778e0bdc77465fa6c7909ae0c807e616f22aea7952c07174431f082fe485f5d",
    "mrf-global/export": "69eb2462d398e94c2d89d381810e5630e8f1ec39a0bb907900e2d9622757f91f",
    "mrf-group/train": "5e66c1acb7c6a8e3c80d2d3fa2f43340368b72c9814ab45178739cd48cce492c",
    "mrf-group/eval": "662838a1dc310827652f640a3d90871ff38049567305e08aeb761e945f1af1cd",
    "mrf-group/export": "50848c7dde14120db87da2cf582118c154777e4bba2ccf10489e6bed6965ed62",
    "som/train": "f0f7c8e3cd66e076fa8e656f8efd56f8f4addc5d0feb54a598ce0a0a626ce118",
    "som/eval": "5699ed4132da2ac800d75e5eaf015d080f8c3aaf7268aced3e25b81803f17d46",
    "som/export": "f0784ddad8ba2326e3142a5668874c63708d7617403e70e5347f8a3fc29bf2f4",
}


def _tree_digest(root) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def test_golden_cli_tree(tmp_path, monkeypatch):
    # relative paths: model.json records out/dataset as given
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
