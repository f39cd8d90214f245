"""File I/O helpers shared by the dataset, mask, model and config formats.

Every input file is read by ``read_lines``. All writers produce
byte-identical output for identical inputs: floats are rendered with 17
significant digits (lossless for float64), JSON keys keep insertion order,
and writes go through a temp file + atomic rename.
"""

from __future__ import annotations

import json
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
    """Shortest-ish decimal form that round-trips float64 exactly (or nan, inf, -inf)."""
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


_encode = json.JSONEncoder(ensure_ascii=False).encode


def _json_scalar(value) -> str:
    if isinstance(value, float):
        # strict JSON has no NaN/Inf literal
        return format_float(value) if math.isfinite(value) else "null"
    if _is_scalar(value):
        return _encode(value)
    raise TypeError(f"value of type {type(value).__name__} is not JSON-serializable")


def _is_scalar(value) -> bool:
    return value is None or isinstance(value, (bool, int, float, str))


def _json_key(key) -> str:
    if not isinstance(key, str):
        raise TypeError(f"JSON object keys must be strings, got {key!r}")
    return _encode(key)


def _dump(value, indent: int) -> str:
    if not isinstance(value, (dict, list, tuple)):
        return _json_scalar(value)
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    pad = "  " * indent
    if isinstance(value, dict):
        items = [f"{pad}  {_json_key(k)}: {_dump(v, indent + 1)}" for k, v in value.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if all(_is_scalar(v) for v in value):
        # keep numeric rows on one line for readable diffs
        return "[" + ", ".join(_json_scalar(v) for v in value) + "]"
    items = [f"{pad}  {_dump(v, indent + 1)}" for v in value]
    return "[\n" + ",\n".join(items) + f"\n{pad}]"


def dump_json(value) -> str:
    """Serialize to JSON with stable key order, .17g floats, and NaN as null."""
    return _dump(value, 0) + "\n"
