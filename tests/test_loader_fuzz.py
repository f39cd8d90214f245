"""Byte-level tests of the input file loaders.

A corrupted model, mask or dataset file may only raise ``ParseError`` or
``ValueError`` naming the file from its loader, and a CLI command reading it
exits 0 or 4; on exit 4 it creates no output directory. Pinned cases: a
non-UTF-8 byte in any of the three input formats is located by line and
column, and CRLF or CR line ends load like LF.
"""

import contextlib
import io
import os
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfsom.cli import load_model, main, save_model
from rfsom.datagen import load_csv, save_csv
from rfsom.fileio import ParseError
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
        except ValueError as exc:  # ParseError is a ValueError
            assert path in str(exc), exc
        for argv in commands(kind, path, dataset):
            out = os.path.join(tmp, argv[0])
            code = quiet_cli(*argv, "--out", out)
            assert code in (0, 4), argv
            if code == 4:
                assert not os.path.exists(out), argv


NEWLINES = {"lf": b"\n", "crlf": b"\r\n", "cr": b"\r"}


@pytest.mark.parametrize("newline", NEWLINES)
@pytest.mark.parametrize("kind", LOADERS)
def test_non_utf8_byte_located_and_exit4(originals, kind, newline, tmp_path):
    files, dataset = originals
    lines = files[kind].split(b"\n")
    lines[2] = lines[2][:1] + b"\xff" + lines[2][1:]
    path = tmp_path / "input"
    path.write_bytes(NEWLINES[newline].join(lines))
    with pytest.raises(ParseError, match=re.escape(f"{path}: line 3, column 2: ")):
        LOADERS[kind](path)
    for argv in commands(kind, str(path), dataset):
        out = tmp_path / argv[0]
        assert quiet_cli(*argv, "--out", str(out)) == 4, argv
        assert not out.exists(), argv


SAVERS = {"model": save_model, "mask": save_mask, "dataset": save_csv}


@pytest.mark.parametrize("newline", ["crlf", "cr"])
@pytest.mark.parametrize("kind", LOADERS)
def test_crlf_and_cr_line_ends_load_like_lf(originals, kind, newline, tmp_path):
    files, _ = originals
    other = tmp_path / newline
    other.write_bytes(files[kind].replace(b"\n", NEWLINES[newline]))
    # each format's writer renders what the loader read back to the LF bytes
    SAVERS[kind](LOADERS[kind](other), tmp_path / "resaved")
    assert (tmp_path / "resaved").read_bytes() == files[kind]
