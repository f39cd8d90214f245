"""File I/O helpers shared by the dataset, mask, model and config formats.

Every input file is read by ``read_lines``. All writers produce
byte-identical output for identical inputs: floats are rendered with 17
significant digits (lossless for float64), JSON keys keep insertion order,
and writes go through a temp file + atomic rename.
"""

from __future__ import annotations

import math
import os
import tempfile


class ParseError(ValueError):
    """A file exists and is readable but its contents are malformed."""


def read_lines(path) -> list[str]:
    r"""Lines of a UTF-8 input file: ``\n``, ``\r\n`` and ``\r`` end a line (not
    the ``\x0c``, ``\x85`` or Unicode separators ``str.splitlines`` adds) and
    trailing empty lines are dropped. Bytes that are not UTF-8 raise
    ParseError naming the path, line and column."""
    with open(path, "rb") as fh:
        # no UTF-8 multibyte sequence contains the byte \r or \n
        data = fh.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        lines = data.decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        before = data[: exc.start].decode("utf-8").split("\n")
        raise ParseError(
            f"{path}: line {len(before)}, column {len(before[-1]) + 1}: "
            f"invalid UTF-8 byte 0x{data[exc.start]:02x}"
        ) from None
    while lines and lines[-1] == "":
        lines.pop()
    return lines


def format_float(x: float) -> str:
    """Shortest-ish decimal form that round-trips float64 exactly."""
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(float(x), ".17g")


def atomic_write_bytes(path, data: bytes) -> None:
    """Write via a sibling temp file and atomic replace, so readers never see
    a partial file."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def _json_scalar(value) -> str:
    # bool is an int subclass; test it first
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            # strict JSON has no NaN/Inf literal
            return "null"
        return format_float(value)
    if isinstance(value, str):
        out = ['"']
        for ch in value:
            if ch == '"':
                out.append('\\"')
            elif ch == "\\":
                out.append("\\\\")
            elif ch == "\n":
                out.append("\\n")
            elif ch == "\t":
                out.append("\\t")
            elif ch == "\r":
                out.append("\\r")
            elif ord(ch) < 0x20:
                out.append(f"\\u{ord(ch):04x}")
            else:
                out.append(ch)
        out.append('"')
        return "".join(out)
    raise TypeError(f"value of type {type(value).__name__} is not JSON-serializable")


def _is_scalar(value) -> bool:
    return value is None or isinstance(value, (bool, int, float, str))


def _dump(value, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    if _is_scalar(value):
        out.append(_json_scalar(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        items = list(value.items())
        for i, (key, val) in enumerate(items):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            out.append(f"{pad}  {_json_scalar(key)}: ")
            _dump(val, indent + 1, out)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        seq = list(value)
        if not seq:
            out.append("[]")
            return
        if all(_is_scalar(v) for v in seq):
            # keep numeric rows on one line for readable diffs
            out.append("[" + ", ".join(_json_scalar(v) for v in seq) + "]")
            return
        out.append("[\n")
        for i, val in enumerate(seq):
            out.append(pad + "  ")
            _dump(val, indent + 1, out)
            out.append(",\n" if i < len(seq) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"value of type {type(value).__name__} is not JSON-serializable")


def dump_json(value) -> str:
    """Serialize to JSON with stable key order, .17g floats, and NaN as null."""
    out: list[str] = []
    _dump(value, 0, out)
    out.append("\n")
    return "".join(out)
