"""Tensor-table format: round trips, determinism, corruption handling."""

import numpy as np
import pytest

from loggate.serialize import MAGIC, TableFormatError, load_table, save_table

from helpers import random_text

# Legal characters: a tensor name is one word; a meta key may hold
# whitespace but no "=" or newline; a meta value may hold "=" too.
NAME_CHARS = "abcXYZ0189_.-/:,#\u00e9\u20ac"
KEY_CHARS = NAME_CHARS + " \t"
VALUE_CHARS = KEY_CHARS + "="


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


@pytest.mark.parametrize("meta", [{"k": "a\nb"}, {"a\nb": "v"}, {"a=b": "v"}])
def test_bad_meta_entry_is_a_table_format_error(tmp_path, meta):
    with pytest.raises(TableFormatError, match="invalid meta entry"):
        save_table(tmp_path / "m.tbl", {}, meta=meta)


def _random_array(rng):
    shape = tuple(int(n) for n in rng.integers(0, 4, size=int(rng.integers(0, 4))))
    if rng.random() < 0.5:
        arr = np.asarray(rng.standard_normal(shape))
        specials = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324])
        arr[rng.random(shape) < 0.2] = rng.choice(specials)
        return arr
    info = np.iinfo(np.int64)
    return np.asarray(rng.integers(info.min, info.max, size=shape, dtype=np.int64))


def test_random_tables_round_trip(tmp_path):
    # shapes include 0-d and zero-size arrays; meta keys include whitespace
    rng = np.random.Generator(np.random.PCG64(120))
    path = tmp_path / "r.tbl"
    for trial in range(300):
        arrays = {random_text(rng, NAME_CHARS, 1, 8): _random_array(rng)
                  for _ in range(int(rng.integers(0, 5)))}
        meta = {random_text(rng, KEY_CHARS, 0, 8): random_text(rng, VALUE_CHARS, 0, 12)
                for _ in range(int(rng.integers(0, 4)))}
        save_table(path, arrays, meta=meta)
        blob = path.read_bytes()
        loaded, loaded_meta = load_table(path)
        assert loaded_meta == meta, f"trial {trial}"
        assert list(loaded) == list(arrays), f"trial {trial}"
        for name, arr in arrays.items():
            got = loaded[name]
            assert (got.dtype, got.shape) == (arr.dtype, arr.shape), f"trial {trial}"
            assert got.tobytes() == arr.tobytes(), f"trial {trial} {name!r}"
        save_table(path, loaded, meta=loaded_meta)
        assert path.read_bytes() == blob, f"trial {trial}"


@pytest.mark.parametrize("name", ["", "a b", "a\tb", "a\nb", " a"])
def test_unreadable_tensor_name_rejected_at_save(tmp_path, name):
    path = tmp_path / "n.tbl"
    with pytest.raises(TableFormatError, match="tensor name"):
        save_table(path, {name: np.ones(2)})
    assert not path.exists()


@pytest.mark.parametrize("arrays", [
    {"a": np.ones(2), "b c": np.ones(2)},
    {"a": np.ones(2), "b": np.arange(3, dtype=np.int64), "c": np.ones(2, np.float32)},
], ids=["name-of-second", "dtype-of-last"])
def test_refused_save_leaves_path_as_it_was(tmp_path, arrays):
    existing, absent = tmp_path / "old.tbl", tmp_path / "new.tbl"
    save_table(existing, {"x": np.arange(4, dtype=np.int64)}, meta={"k": "v"})
    before = existing.read_bytes()
    for path in (existing, absent):
        with pytest.raises(ValueError, match="tensor name|dtype"):
            save_table(path, arrays, meta={"k": "w"})
    assert existing.read_bytes() == before
    assert not absent.exists()


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


@pytest.mark.parametrize("dims", ["-1", "-2,-3", "-1,-1", "-1,0"])
def test_negative_dimension_rejected(tmp_path, dims):
    path = _raw_table(tmp_path / "n.tbl", f"tensor b f8 {dims}")
    with pytest.raises(TableFormatError, match=f"n.tbl.*tensor 'b'.*negative"):
        load_table(path)


@pytest.mark.parametrize("dims", ["4294967296,4294967296", "3037000500,3037000500",
                                  "65536,65536,65536,65536,2"])
def test_dims_past_int64_name_the_file(tmp_path, dims):
    # the element count outgrows int64; an int64 product wraps to 0 or below
    path = _raw_table(tmp_path / "o.tbl", f"tensor b f8 {dims}")
    with pytest.raises(TableFormatError, match="o.tbl.*truncated tensor 'b'"):
        load_table(path)


def test_undecodable_header_rejected(tmp_path):
    path = tmp_path / "u.tbl"
    path.write_bytes(MAGIC + b"tensor \xff f8 1\n" + np.ones(1).tobytes())
    with pytest.raises(TableFormatError, match="not UTF-8"):
        load_table(path)


def test_magic_constant_is_stable():
    # Pinned: changing it silently would orphan existing artifacts.
    assert MAGIC == b"LOGGATE-TABLE-1\n"
