"""Tensor-table format: round trips, determinism, corruption handling."""

import numpy as np
import pytest

from loggate.serialize import MAGIC, TableFormatError, load_table, save_table


def test_roundtrip_preserves_values_dtypes_and_meta(tmp_path):
    rng = np.random.default_rng(2)
    arrays = {
        "weights": rng.standard_normal((3, 5)),
        "ids": np.arange(7, dtype=np.int64),
        "scalarish": np.array([3.25]),
    }
    path = tmp_path / "t.tbl"
    save_table(path, arrays, meta={"kind": "test", "digest": "abc123"})
    loaded, meta = load_table(path)
    assert meta == {"kind": "test", "digest": "abc123"}
    assert set(loaded) == set(arrays)
    for name, arr in arrays.items():
        assert loaded[name].dtype == arr.dtype
        np.testing.assert_array_equal(loaded[name], arr)


def test_rewrite_is_byte_identical(tmp_path):
    rng = np.random.default_rng(3)
    arrays = {"a": rng.standard_normal((2, 2)), "b": np.array([1, 2], np.int64)}
    p1, p2 = tmp_path / "a.tbl", tmp_path / "b.tbl"
    save_table(p1, arrays, meta={"x": "1"})
    save_table(p2, arrays, meta={"x": "1"})
    assert p1.read_bytes() == p2.read_bytes()


def test_empty_table_roundtrip(tmp_path):
    path = tmp_path / "empty.tbl"
    save_table(path, {})
    loaded, meta = load_table(path)
    assert loaded == {} and meta == {}


def test_unsupported_dtype_rejected(tmp_path):
    with pytest.raises(ValueError, match="dtype"):
        save_table(tmp_path / "bad.tbl", {"x": np.ones(3, dtype=np.float32)})


def test_missing_magic_rejected(tmp_path):
    path = tmp_path / "junk.tbl"
    path.write_bytes(b"not a table\n")
    with pytest.raises(TableFormatError, match="magic"):
        load_table(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "trunc.tbl"
    save_table(path, {"x": np.ones((4, 4))})
    blob = path.read_bytes()
    path.write_bytes(blob[:-9])
    with pytest.raises(TableFormatError):
        load_table(path)


def test_meta_with_newline_rejected(tmp_path):
    with pytest.raises(ValueError):
        save_table(tmp_path / "m.tbl", {}, meta={"k": "a\nb"})


@pytest.mark.parametrize("name", ["", "a b", "a\tb", "a\nb", " a"])
def test_unreadable_tensor_name_rejected_at_save(tmp_path, name):
    path = tmp_path / "n.tbl"
    with pytest.raises(TableFormatError, match="tensor name"):
        save_table(path, {name: np.ones(2)})
    assert not path.exists()


def _raw_table(path, *lines):
    """A table file from raw header lines, each tensor followed by one f8."""
    blob = bytearray(MAGIC)
    for line in lines:
        blob += line.encode() + b"\n"
        if line.startswith("tensor "):
            blob += np.ones(1).tobytes()
    path.write_bytes(bytes(blob))
    return path


def test_duplicate_tensor_name_rejected_at_load(tmp_path):
    path = _raw_table(tmp_path / "d.tbl", "tensor x f8 1", "tensor x f8 1")
    with pytest.raises(TableFormatError, match="duplicate tensor name 'x'"):
        load_table(path)


def test_duplicate_meta_key_rejected_at_load(tmp_path):
    path = _raw_table(tmp_path / "d.tbl", "meta k=1", "meta k=2")
    with pytest.raises(TableFormatError, match="duplicate meta key 'k'"):
        load_table(path)


@pytest.mark.parametrize("line", ["tensor a b f8 1", "tensor x f8", "tensor x f8 1,y"])
def test_malformed_tensor_header_rejected(tmp_path, line):
    path = _raw_table(tmp_path / "h.tbl", line)
    with pytest.raises(TableFormatError, match="malformed header line"):
        load_table(path)


def test_undecodable_header_rejected(tmp_path):
    path = tmp_path / "u.tbl"
    path.write_bytes(MAGIC + b"tensor \xff f8 1\n" + np.ones(1).tobytes())
    with pytest.raises(TableFormatError, match="not UTF-8"):
        load_table(path)


def test_magic_constant_is_stable():
    # Pinned: changing it silently would orphan existing artifacts.
    assert MAGIC == b"LOGGATE-TABLE-1\n"
