"""Binary named-tensor tables for checkpoints and caches.

Layout: a text header per entry (`tensor <name> <dtype> <dims>`)
followed by that entry's raw little-endian bytes. Metadata travels as
`meta <key>=<value>` lines before the first tensor. Writing the same
arrays twice produces byte-identical files.
"""

from __future__ import annotations

import io
import math
from pathlib import Path

import numpy as np

MAGIC = b"LOGGATE-TABLE-1\n"

_DTYPES = {"f8": "<f8", "i8": "<i8"}


class TableFormatError(ValueError):
    """File is not a valid tensor table."""


def save_table(path: str | Path, arrays: dict[str, np.ndarray],
               meta: dict[str, str] | None = None) -> None:
    buf = io.BytesIO()
    buf.write(MAGIC)
    for key, value in (meta or {}).items():
        if "\n" in key or "\n" in str(value) or "=" in key:
            raise TableFormatError(f"invalid meta entry: {key!r}")
        buf.write(f"meta {key}={value}\n".encode())
    for name, arr in arrays.items():
        # the header is space separated, so a name must be one non-empty word
        if not name or name.split() != [name]:
            raise TableFormatError(f"invalid tensor name {name!r}")
        if arr.dtype == np.float64:
            code = "f8"
        elif arr.dtype == np.int64:
            code = "i8"
        else:
            raise ValueError(f"unsupported dtype {arr.dtype} for {name!r}")
        dims = ",".join(str(d) for d in arr.shape)
        buf.write(f"tensor {name} {code} {dims}\n".encode())
        buf.write(np.ascontiguousarray(arr, dtype=_DTYPES[code]).tobytes())
    Path(path).write_bytes(buf.getvalue())


def load_table(path: str | Path) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    raw = Path(path).read_bytes()
    if not raw.startswith(MAGIC):
        raise TableFormatError(f"{path}: missing tensor-table magic")
    pos = len(MAGIC)
    arrays: dict[str, np.ndarray] = {}
    meta: dict[str, str] = {}
    while pos < len(raw):
        end = raw.find(b"\n", pos)
        if end < 0:
            raise TableFormatError(f"{path}: truncated header line")
        try:
            line = raw[pos:end].decode()
        except UnicodeDecodeError:
            raise TableFormatError(f"{path}: header line is not UTF-8") from None
        pos = end + 1
        if line.startswith("meta "):
            key, _, value = line[5:].partition("=")
            if key in meta:
                raise TableFormatError(f"{path}: duplicate meta key {key!r}")
            meta[key] = value
        elif line.startswith("tensor "):
            try:
                _, name, code, dims = line.split(" ")
                shape = tuple(int(d) for d in dims.split(",")) if dims else ()
            except ValueError:
                raise TableFormatError(
                    f"{path}: malformed header line {line!r}") from None
            if name in arrays:
                raise TableFormatError(f"{path}: duplicate tensor name {name!r}")
            if any(d < 0 for d in shape):
                raise TableFormatError(
                    f"{path}: tensor {name!r} has a negative dimension in {dims!r}")
            if code not in _DTYPES:
                raise TableFormatError(f"{path}: unknown dtype code {code!r}")
            nbytes = math.prod(shape) * 8  # Python ints: no wrap on huge dims
            if len(raw) - pos < nbytes:
                raise TableFormatError(f"{path}: truncated tensor {name!r}")
            data = np.frombuffer(raw[pos:pos + nbytes], dtype=_DTYPES[code])
            arrays[name] = data.reshape(shape).copy()
            pos += nbytes
        else:
            raise TableFormatError(f"{path}: unexpected header line {line!r}")
    return arrays, meta
