"""Golden digests: a tiny seeded CLI tree must stay byte-identical across
versions, so numerics or format drift shows up as a failing digest.

The digests were recorded before the config-table rewrite of ``rfsom.cli``.
A change that alters any artifact on purpose updates them and says why.
"""

import hashlib

from rfsom.cli import main

TRAINS = {
    "mrf-global": [],
    "mrf-group": ["--bmu-scope", "per-group"],
    "som": ["--mode", "som"],
}

GOLDEN = {
    "gen": "b55e13e4910bc9d37a4030c680bd960b8c4691478837c7739631013f48dd2649",
    "mrf-global/train": "e737b35501d83536d44e790a7d59a28a0007a1e4534cef5361862b5a28a60aa6",
    "mrf-global/eval": "2778e0bdc77465fa6c7909ae0c807e616f22aea7952c07174431f082fe485f5d",
    "mrf-global/export": "69eb2462d398e94c2d89d381810e5630e8f1ec39a0bb907900e2d9622757f91f",
    "mrf-group/train": "0e4c135ae2a2f990e5d141b8c46c5f0fe44ac8c06bacaddfc478ac8395cc150a",
    "mrf-group/eval": "662838a1dc310827652f640a3d90871ff38049567305e08aeb761e945f1af1cd",
    "mrf-group/export": "50848c7dde14120db87da2cf582118c154777e4bba2ccf10489e6bed6965ed62",
    "som/train": "4a7fde5400d650431e548170a30c10d0cde5303c21ca50c6754e70753779ba49",
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
