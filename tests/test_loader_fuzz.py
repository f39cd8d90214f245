"""Byte-mutation fuzz of the three file loaders.

A corrupted model, mask or dataset file may only raise ``ParseError`` or
``ValueError`` from its loader, and a CLI command reading it exits 0 or 4;
on exit 4 it creates no output directory.
"""

import contextlib
import io
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfsom.cli import load_model, main
from rfsom.datagen import load_csv
from rfsom.mrf import default_quadrant_mask, load_mask, save_mask

MUTATIONS = ("flip", "delete", "insert", "truncate")

# inserted bytes favour the separators and tokens of the three formats
byte = st.one_of(st.sampled_from(b'0123456789,.-+e \n"[]{}:'), st.integers(0, 255))

# (mutation, position, byte); the position wraps to the current length
edits = st.lists(
    st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 2**16), byte),
    min_size=1,
    max_size=4,
)


def mutate(data: bytes, ops) -> bytes:
    buf = bytearray(data)
    for op, pos, byte in ops:
        i = pos % (len(buf) + 1)
        if op == "insert":
            buf.insert(i, byte)
        elif op == "truncate":
            del buf[i:]
        elif i < len(buf):
            if op == "flip":
                buf[i] ^= 1 << (byte % 8)
            else:
                del buf[i]
    return bytes(buf)


def quiet_cli(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """Valid dataset, mask and model files to mutate, keyed by loader."""
    root = tmp_path_factory.mktemp("fuzz")
    gen, run = str(root / "gen"), str(root / "run")
    assert quiet_cli("generate", "--n", "12", "--seed", "2", "--touch-radius", "0.5",
                     "--out", gen) == 0
    dataset = os.path.join(gen, "dataset.csv")
    assert quiet_cli("train", "--dataset", dataset, "--epochs", "1", "--out", run) == 0
    save_mask(default_quadrant_mask(), root / "quadrant.mask")
    files = {
        "model": os.path.join(run, "model.json"),
        "mask": str(root / "quadrant.mask"),
        "dataset": dataset,
    }
    return {name: Path(path).read_bytes() for name, path in files.items()}, dataset


def commands(kind: str, path: str, dataset: str):
    """The CLI invocations (without ``--out``) that read a file of ``kind`` at ``path``."""
    if kind == "model":
        return [
            ("evaluate", "--model", path, "--dataset-path", dataset),
            ("export", "--model", path),
        ]
    if kind == "mask":
        return [("train", "--dataset", dataset, "--mask", path, "--epochs", "1")]
    return [("train", "--dataset", path, "--epochs", "1")]


LOADERS = {"model": load_model, "mask": load_mask, "dataset": load_csv}


@pytest.mark.parametrize("kind", LOADERS)
@settings(max_examples=100, deadline=None)
@given(ops=edits)
def test_mutated_file_gives_parse_error_or_exit4(originals, kind, ops):
    files, dataset = originals
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "wb") as fh:
            fh.write(mutate(files[kind], ops))
        try:
            LOADERS[kind](path)
        except ValueError:  # ParseError is a ValueError
            pass
        for argv in commands(kind, path, dataset):
            out = os.path.join(tmp, argv[0])
            code = quiet_cli(*argv, "--out", out)
            assert code in (0, 4), argv
            if code == 4:
                assert not os.path.exists(out), argv
