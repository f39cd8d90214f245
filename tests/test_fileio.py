"""Line reading, float rendering, deterministic JSON, atomic writes."""

import json
import math
import os
import re
import stat

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rfsom.fileio import (
    ParseError,
    atomic_write_bytes,
    atomic_write_text,
    dump_json,
    format_float,
    read_lines,
)


def test_parse_error_is_value_error():
    assert issubclass(ParseError, ValueError)


# ------------------------------------------------------------- line reading

def test_read_lines_line_ends_and_trailing_blanks(tmp_path):
    path = tmp_path / "in.txt"
    path.write_bytes(b"a\r\nb\rc\n\nd\x0ce\xc2\x85f\n\r\n\r")
    # form feed and NEL stay inside their line; only trailing empty lines go
    assert read_lines(path) == ["a", "b", "c", "", "d\x0ce\x85f"]
    path.write_bytes(b"")
    assert read_lines(path) == []


def test_read_lines_bad_byte_located_in_characters(tmp_path):
    path = tmp_path / "in.txt"
    path.write_bytes("x\r\ny\rz\u00e9\u00e9".encode() + b"\xff\n")
    message = f"{path}: line 3, column 4: invalid UTF-8 byte 0xff"
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        read_lines(path)
    with pytest.raises(FileNotFoundError):
        read_lines(tmp_path / "missing.txt")


# ------------------------------------------------------------- float format

def test_format_float_words():
    assert format_float(math.nan) == "nan"
    assert format_float(math.inf) == "inf"
    assert format_float(-math.inf) == "-inf"
    assert format_float(2.0) == "2"
    assert format_float(0.1) == "0.10000000000000001"


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_float_round_trips_float64(x):
    assert float(format_float(x)) == x


def test_format_float_round_trips_random_float64():
    rng = np.random.default_rng(0)
    for x in rng.uniform(-1e6, 1e6, size=1000):
        assert float(format_float(float(x))) == x


# ------------------------------------------------------------- json writer

def test_dump_json_is_valid_json_and_ordered():
    doc = {
        "b_first": 1,
        "a_second": [1, 2.5, "x", True, None],
        "nested": {"k": {"deep": [0.1]}, "empty_list": [], "empty_obj": {}},
    }
    text = dump_json(doc)
    assert text.endswith("\n")
    back = json.loads(text)
    assert back == doc
    assert list(back) == ["b_first", "a_second", "nested"]  # insertion order kept
    assert text.index('"b_first"') < text.index('"a_second"')


def test_dump_json_scalar_lists_stay_on_one_line():
    text = dump_json({"row": [1.5, 2.5, 3.5]})
    assert "[1.5, 2.5, 3.5]" in text
    nested = dump_json({"rows": [[1, 2], [3, 4]]})
    assert "[1, 2]" in nested and "[3, 4]" in nested


def test_dump_json_nan_and_inf_become_null():
    assert json.loads(dump_json({"v": math.nan}))["v"] is None
    assert json.loads(dump_json({"v": math.inf}))["v"] is None


def test_dump_json_floats_round_trip():
    values = [0.1, 1e-300, 123456789.123456789, -2.0857]
    assert json.loads(dump_json(values)) == values


def test_dump_json_escapes_strings():
    tricky = 'quote " backslash \\ newline \n tab \t control \x01'
    assert json.loads(dump_json({"s": tricky}))["s"] == tricky
    # every control character, in values and keys, as the standard library writes it
    s = "".join(map(chr, range(0x20))) + '"\\'
    assert dump_json([s]) == "[" + json.dumps(s, ensure_ascii=False) + "]\n"
    assert dump_json({s: 1}) == "{\n  " + json.dumps(s, ensure_ascii=False) + ": 1\n}\n"


def test_dump_json_bools_are_not_ints():
    assert dump_json([True, False, 1, 0]).strip() == "[true, false, 1, 0]"


def test_dump_json_rejects_unserializable():
    with pytest.raises(TypeError):
        dump_json({"x": object()})
    with pytest.raises(TypeError):
        dump_json({1: "non-string key"})


def test_dump_json_layout_pinned():
    # the exact text, empty containers and all, at every depth
    doc = {
        "name": "r\u00e9sum\u00e9 \u2028",
        "empty_obj": {},
        "empty_list": [],
        "scalars": [1, -0.0, math.nan, math.inf, True, None, "x"],
        "pair": (0.1, 2),
        "rows": [{"a": [], "b": {}}, {"c": {"d": [{"e": (1, 2)}, []]}}],
        "nested": {"list": [{"k": {}}, [[], {}], ((3.5,), ())]},
    }
    assert dump_json(doc) == (
        "{\n"
        '  "name": "r\u00e9sum\u00e9 \u2028",\n'
        '  "empty_obj": {},\n'
        '  "empty_list": [],\n'
        '  "scalars": [1, -0, null, null, true, null, "x"],\n'
        '  "pair": [0.10000000000000001, 2],\n'
        '  "rows": [\n'
        "    {\n"
        '      "a": [],\n'
        '      "b": {}\n'
        "    },\n"
        "    {\n"
        '      "c": {\n'
        '        "d": [\n'
        "          {\n"
        '            "e": [1, 2]\n'
        "          },\n"
        "          []\n"
        "        ]\n"
        "      }\n"
        "    }\n"
        "  ],\n"
        '  "nested": {\n'
        '    "list": [\n'
        "      {\n"
        '        "k": {}\n'
        "      },\n"
        "      [\n"
        "        [],\n"
        "        {}\n"
        "      ],\n"
        "      [\n"
        "        [3.5],\n"
        "        []\n"
        "      ]\n"
        "    ]\n"
        "  }\n"
        "}\n"
    )


def test_dump_json_deterministic():
    doc = {"a": [1.1, 2.2], "b": {"c": "d"}}
    assert dump_json(doc) == dump_json(doc)


# ------------------------------------------------------------- atomic writes

def test_atomic_write_creates_and_overwrites(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(path, "first")
    assert path.read_text() == "first"
    atomic_write_bytes(path, b"second")
    assert path.read_bytes() == b"second"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]  # no temp litter


def test_atomic_write_missing_directory_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        atomic_write_text(tmp_path / "no" / "such" / "dir.txt", "x")
    assert list(tmp_path.iterdir()) == []


def test_atomic_write_failure_leaves_no_temp_file(tmp_path, monkeypatch):
    # a failure after the temp file is written must clean it up
    def exploding_replace(src, dst):
        raise RuntimeError("disk on fire")

    monkeypatch.setattr(os, "replace", exploding_replace)
    with pytest.raises(RuntimeError):
        atomic_write_bytes(tmp_path / "target.txt", b"payload")
    monkeypatch.undo()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask-022", "umask-077"]
)
def test_atomic_write_mode_follows_umask(tmp_path, umask, mode):
    """An artifact gets the mode open() gives a new file, 0o666 less the umask."""
    old = os.umask(umask)
    try:
        atomic_write_bytes(tmp_path / "out.bin", b"x")
        atomic_write_text(tmp_path / "out.txt", "x")
    finally:
        os.umask(old)
    for name in ("out.bin", "out.txt"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode, name
