"""File I/O helpers shared by the dataset, mask and model formats.

Every input file is read by ``read_lines``. The JSON documents (mask files
and model.json) are read by ``read_document``, which checks their format
and version, and their keys and values by ``_expect``, ``_check_keys`` and
``_array``. All writers produce byte-identical output for identical inputs:
floats are rendered with 17 significant digits (lossless for float64), JSON
keys keep insertion order, and writes go through a temp file + atomic
rename.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np


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


def read_document(path, fmt: str, version: int) -> dict:
    """The JSON object of a document whose ``format`` is ``fmt``
    (``rfsom-<kind>``) and whose ``version`` is ``version``; invalid JSON,
    another type, format or version raises ParseError naming the path."""
    kind = fmt.removeprefix("rfsom-")
    try:
        doc = json.loads("\n".join(read_lines(path)))
    except (json.JSONDecodeError, RecursionError) as exc:
        # a RecursionError is nesting deeper than the decoder's stack
        raise ParseError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: {kind} document must be a JSON object")
    if doc.get("format") != fmt:
        raise ParseError(f"{path}: not a {kind} file (format={doc.get('format')!r})")
    # a bool or float version is not an integer, even where it compares equal
    if type(doc.get("version")) is not int or doc["version"] != version:
        raise ParseError(f"{path}: unsupported {kind} version {doc.get('version')!r}")
    return doc


def _expect(doc: dict, key: str, kinds, where) -> object:
    if key not in doc:
        raise ParseError(f"{where}: missing key {key!r}")
    value = doc[key]
    # bool is an int subclass; no document field is boolean
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ParseError(f"{where}: key {key!r} has unexpected type {type(value).__name__}")
    return value


def _check_keys(doc: dict, known, where) -> None:
    unknown = sorted(doc.keys() - set(known))
    if unknown:
        raise ParseError(f"{where}: unknown key {unknown[0]!r}")


# entries of a document's JSON arrays -> (exact JSON types, so a bool is never
# a number; the dtype they load as)
_ENTRIES = {
    "numbers": ((int, float), np.float64),
    "integers": ((int,), np.int64),
    "strings": ((str,), object),
}


def _array(doc: dict, key: str, entries: str, ndim: int, where) -> np.ndarray:
    """A rectangular ``ndim``-deep JSON array whose every entry is one of ``entries``."""
    value = np.array(_expect(doc, key, list, where), dtype=object)
    types, dtype = _ENTRIES[entries]
    if value.ndim != ndim or any(type(v) not in types for v in value.flat):
        raise ParseError(f"{where}: key {key!r} must be a {ndim}-D array of {entries}")
    return value.astype(dtype)


def format_float(x: float) -> str:
    """Shortest-ish decimal form that round-trips float64 exactly (or nan, inf, -inf)."""
    return format(float(x), ".17g")


def atomic_write_bytes(path, data: bytes) -> None:
    """Write via a sibling temp file and atomic replace, so readers never see
    a partial file. The file gets the mode ``open`` gives a new file (0o666
    less the umask)."""
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path) or ".", f".tmp-{os.urandom(8).hex()}~")
    # "x" creates it exclusively, as mkstemp does, but without mkstemp's 0600,
    # which the rename would carry to the artifact
    fh = open(tmp, "xb")
    try:
        with fh:
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
