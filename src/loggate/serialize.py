"""Binary named-tensor tables for checkpoints and caches.

Layout: a text header per entry (`tensor <name> <dtype> <dims>`)
followed by that entry's raw little-endian bytes. Metadata travels as
`meta <key>=<value>` lines before the first tensor. Writing the same
arrays twice produces byte-identical files.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np

MAGIC = b"LOGGATE-TABLE-1\n"

_DTYPES = {"f8": "<f8", "i8": "<i8"}


class TableFormatError(ValueError):
    """File is not a valid tensor table."""


def save_table(path: str | Path, arrays: dict[str, np.ndarray],
               meta: dict[str, str] | None = None) -> None:
    """Write `arrays` and `meta` to `path`, each tensor's bytes straight from
    its array. Every meta entry, name and dtype is checked before the file
    is opened, so a refused table leaves `path` as it was."""
    header = [MAGIC]
    for key, value in (meta or {}).items():
        if "\n" in key or "\n" in str(value) or "=" in key:
            raise TableFormatError(f"invalid meta entry: {key!r}")
        header.append(f"meta {key}={value}\n".encode())
    codes = {}
    for name, arr in arrays.items():
        # the header is space separated, so a name must be one non-empty word
        if not name or name.split() != [name]:
            raise TableFormatError(f"invalid tensor name {name!r}")
        if arr.dtype == np.float64:
            codes[name] = "f8"
        elif arr.dtype == np.int64:
            codes[name] = "i8"
        else:
            raise ValueError(f"unsupported dtype {arr.dtype} for {name!r}")
    with Path(path).open("wb") as handle:
        handle.write(b"".join(header))
        for name, arr in arrays.items():
            dims = ",".join(str(d) for d in arr.shape)
            handle.write(f"tensor {name} {codes[name]} {dims}\n".encode())
            handle.write(np.ascontiguousarray(arr, dtype=_DTYPES[codes[name]]).data)


def load_table(path: str | Path) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """The arrays and meta `save_table` wrote at `path`, each tensor read
    from the file straight into its array."""
    with Path(path).open("rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        if handle.read(len(MAGIC)) != MAGIC:
            raise TableFormatError(f"{path}: missing tensor-table magic")
        arrays: dict[str, np.ndarray] = {}
        meta: dict[str, str] = {}
        while raw := handle.readline():
            if not raw.endswith(b"\n"):
                raise TableFormatError(f"{path}: truncated header line")
            try:
                line = raw[:-1].decode()
            except UnicodeDecodeError:
                raise TableFormatError(f"{path}: header line is not UTF-8") from None
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
                if size - handle.tell() < nbytes:
                    raise TableFormatError(f"{path}: truncated tensor {name!r}")
                data = np.empty(shape, dtype=_DTYPES[code])
                if handle.readinto(data.reshape(-1).view(np.uint8)) != nbytes:
                    raise TableFormatError(f"{path}: truncated tensor {name!r}")
                arrays[name] = data
            else:
                raise TableFormatError(f"{path}: unexpected header line {line!r}")
        return arrays, meta
