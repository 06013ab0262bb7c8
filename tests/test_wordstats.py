"""Per-word label counts and pooled per-message statistics features."""

import numpy as np
import pytest

from loggate.corpus import LabelVocab, LogDataset, LogRecord, tokenize
from loggate.wordstats import (StatDictionary, StatError, build_stat_dictionary,
                               load_stat_dictionary, message_stats, pooled_stats,
                               save_stat_dictionary)

from helpers import (brute_force_stat_counts, random_text, reference_pooled_stats,
                     total_tokens)


def make_dataset(rows, labels):
    """rows: (message, label_name, split) triples; vocab is irrelevant here."""
    vocab = LabelVocab(list(labels))
    records = []
    splits = {}
    for i, (message, label, split) in enumerate(rows):
        records.append(LogRecord(i, "-", tokenize(message), vocab.index_of(label)))
        splits[i] = split
    return LogDataset(records, vocab, splits, {})


# -- counting --------------------------------------------------------------


def test_counts_two_messages():
    ds = make_dataset([("send ok", "A", "train"), ("send fail", "B", "train")],
                      ["A", "B"])
    stats = build_stat_dictionary(ds)
    assert stats.lookup("send").tolist() == [1, 1]
    assert stats.lookup("ok").tolist() == [1, 0]
    assert stats.lookup("fail").tolist() == [0, 1]


def test_counts_repeats_within_message():
    ds = make_dataset([("x x", "A", "train"), ("y", "B", "train")], ["A", "B"])
    stats = build_stat_dictionary(ds)
    assert stats.lookup("x").tolist() == [2, 0]


def test_counts_train_split_only():
    ds = make_dataset([("seen", "A", "train"), ("leak", "A", "test"),
                       ("leak", "A", "dev")], ["A"])
    stats = build_stat_dictionary(ds)
    assert stats.lookup("seen").tolist() == [1]
    assert stats.lookup("leak").tolist() == [0]
    assert "leak" not in stats.counts


def test_counts_empty_train_split_rejected():
    ds = make_dataset([("only test", "A", "test")], ["A"])
    with pytest.raises(StatError, match="train split is empty"):
        build_stat_dictionary(ds)


def test_lookup_oov_is_zero_vector():
    ds = make_dataset([("a b", "A", "train")], ["A", "B"])
    stats = build_stat_dictionary(ds)
    vec = stats.lookup("never_seen")
    assert vec.tolist() == [0, 0]
    assert vec.dtype == np.int64


def test_lookup_returns_a_copy():
    ds = make_dataset([("a", "A", "train")], ["A"])
    stats = build_stat_dictionary(ds)
    stats.lookup("a")[0] = 99
    assert stats.lookup("a").tolist() == [1]


def test_counts_conservation():
    rng = np.random.Generator(np.random.PCG64(5))
    words = [f"w{c}" for c in "abcdefghijkl"]
    rows = []
    for i in range(60):
        msg = " ".join(words[rng.integers(0, len(words))]
                       for _ in range(rng.integers(1, 9)))
        rows.append((msg, "AB"[int(rng.integers(0, 2))],
                     ("train", "dev", "test")[int(rng.integers(0, 3))]))
    ds = make_dataset(rows, ["A", "B"])
    stats = build_stat_dictionary(ds)
    train_tokens = sum(len(r.tokens) for r in ds.split_records("train"))
    assert total_tokens(stats) == train_tokens


def test_counts_match_brute_force():
    rng = np.random.Generator(np.random.PCG64(9))
    words = [f"tok{c}" for c in "abcdefgh"]
    rows = [(" ".join(words[rng.integers(0, len(words))]
                      for _ in range(rng.integers(1, 6))),
             "XYZ"[int(rng.integers(0, 3))], "train") for _ in range(40)]
    ds = make_dataset(rows, ["X", "Y", "Z"])
    stats = build_stat_dictionary(ds)
    oracle = brute_force_stat_counts(ds.split_records("train"), 3)
    assert set(stats.counts) == set(oracle)
    for word, counts in oracle.items():
        assert stats.lookup(word).tolist() == counts


def test_counts_label_permutation_equivariance():
    rows = [("alpha beta", "A", "train"), ("beta gamma", "B", "train"),
            ("gamma gamma", "A", "train")]
    fwd = build_stat_dictionary(make_dataset(rows, ["A", "B"]))
    rev = build_stat_dictionary(make_dataset(rows, ["B", "A"]))
    for word in fwd.counts:
        assert fwd.lookup(word).tolist() == rev.lookup(word)[::-1].tolist()


# -- per-message features ----------------------------------------------------


def fixture_stats():
    ds = make_dataset([("send ok", "A", "train"), ("send fail", "B", "train")],
                      ["A", "B"])
    return build_stat_dictionary(ds), ds


def test_message_stats_worked_example():
    stats, _ = fixture_stats()
    rec = LogRecord(0, "-", ["send", "ok"], 0)
    ms = message_stats(stats, rec, m_fixed=4)
    assert ms.matrix.tolist() == [[1, 1], [1, 0], [0, 0], [0, 0]]
    assert ms.mask.tolist() == [True, True, False, False]
    assert ms.pooled.tolist() == [2, 1]
    np.testing.assert_allclose(ms.normalized, [np.log(3.0), np.log(2.0)])


def test_message_stats_oov_rows_zero():
    stats, _ = fixture_stats()
    rec = LogRecord(0, "-", ["send", "mystery"], 0)
    ms = message_stats(stats, rec, m_fixed=3)
    assert ms.matrix.tolist() == [[1, 1], [0, 0], [0, 0]]
    assert ms.mask.tolist() == [True, True, False]
    assert ms.pooled.tolist() == [1, 1]


def test_message_stats_truncation_keeps_prefix():
    stats, _ = fixture_stats()
    rec = LogRecord(0, "-", ["ok", "fail", "send"], 0)
    ms = message_stats(stats, rec, m_fixed=2)
    assert ms.matrix.tolist() == [[1, 0], [0, 1]]
    assert ms.mask.all()
    assert ms.pooled.tolist() == [1, 1]


def test_message_stats_empty_message():
    stats, _ = fixture_stats()
    ms = message_stats(stats, LogRecord(0, "-", [], 0), m_fixed=3)
    assert not ms.mask.any()
    assert ms.pooled.tolist() == [0, 0]
    assert ms.normalized.tolist() == [0.0, 0.0]


def test_message_stats_pooled_is_column_sum():
    rng = np.random.Generator(np.random.PCG64(2))
    stats, ds = fixture_stats()
    words = list(stats.counts) + ["oov1x", "oov2x"]
    for _ in range(20):
        tokens = [words[rng.integers(0, len(words))]
                  for _ in range(rng.integers(0, 7))]
        ms = message_stats(stats, LogRecord(0, "-", tokens, 0), m_fixed=5)
        expect = np.zeros(2, dtype=np.int64)
        for tok in tokens[:5]:
            expect += stats.lookup(tok)
        assert ms.pooled.tolist() == expect.tolist()
        np.testing.assert_allclose(ms.normalized, np.log1p(expect))


def test_message_stats_rejects_bad_width():
    stats, _ = fixture_stats()
    with pytest.raises(StatError, match="m_fixed"):
        message_stats(stats, LogRecord(0, "-", ["send"], 0), m_fixed=0)
    with pytest.raises(StatError, match="m_fixed"):
        pooled_stats(stats, [LogRecord(0, "-", ["send"], 0)], m_fixed=0)


def test_pooled_stats_equal_message_stats_rows_bit_for_bit():
    rng = np.random.Generator(np.random.PCG64(5))
    stats, _ = fixture_stats()
    words = list(stats.counts) + ["oov1x", "oov2x"]
    for trial in range(30):
        records = []
        for i in range(int(rng.integers(0, 12))):
            picks = rng.integers(0, len(words), int(rng.integers(0, 9)))
            records.append(LogRecord(i, "-", [words[int(j)] for j in picks], 0))
        m_fixed = int(rng.integers(1, 7))
        got = pooled_stats(stats, records, m_fixed)
        assert got.shape == (len(records), 2), f"trial {trial}"
        if records:
            assert np.array_equal(
                got, reference_pooled_stats(stats, records, m_fixed)), f"trial {trial}"


# -- persistence -------------------------------------------------------------


def test_save_load_roundtrip(tmp_path):
    stats, _ = fixture_stats()
    path = tmp_path / "stats.tsv"
    save_stat_dictionary(stats, path)
    loaded = load_stat_dictionary(path)
    assert loaded.label_vocab.labels == stats.label_vocab.labels
    assert loaded.built_from == stats.built_from
    assert set(loaded.counts) == set(stats.counts)
    for word in stats.counts:
        assert loaded.lookup(word).tolist() == stats.lookup(word).tolist()


def test_save_byte_stable(tmp_path):
    stats, _ = fixture_stats()
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    save_stat_dictionary(stats, a)
    save_stat_dictionary(stats, b)
    assert a.read_bytes() == b.read_bytes()


def test_load_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.tsv"
    path.write_text("word\t1,2\n", encoding="utf-8")
    with pytest.raises(StatError, match="not a statistics dictionary"):
        load_stat_dictionary(path)


def test_save_refuses_labels_that_do_not_round_trip(tmp_path):
    # "disk,full" would load back as two labels
    for label in ("disk,full", "disk\nfull", "disk\r", "a\u2028b"):
        stats = StatDictionary(LabelVocab([label, "net"]),
                               {"w": np.array([1, 0])}, "h")
        with pytest.raises(StatError, match="cannot be stored"):
            save_stat_dictionary(stats, tmp_path / "stats.tsv")


def test_load_rejects_count_rows_of_the_wrong_width(tmp_path):
    path = tmp_path / "stats.tsv"
    path.write_text("# labels: disk,full,net\n# train_hash: h\nw\t1,0\n",
                    encoding="utf-8")
    with pytest.raises(StatError, match="2 counts for 3 labels"):
        load_stat_dictionary(path)


# Legal characters: a word is one token (no whitespace); a label may hold
# whitespace but no comma or line break.
WORD_CHARS = "abcxyz019<>_-.:,#\u00e9\u20ac"
LABEL_CHARS = "abcXYZ019_-.:# \t\u00e9"


def test_random_dictionaries_round_trip(tmp_path):
    rng = np.random.Generator(np.random.PCG64(121))
    path = tmp_path / "stats.tsv"
    for trial in range(200):
        labels = list(dict.fromkeys(random_text(rng, LABEL_CHARS, 0, 6)
                                    for _ in range(int(rng.integers(1, 5)))))
        counts = {random_text(rng, WORD_CHARS, 1, 8):
                  rng.integers(0, 10 ** 12, size=len(labels))
                  for _ in range(int(rng.integers(0, 20)))}
        built_from = bytes(rng.integers(0, 256, size=8, dtype=np.uint8)).hex()
        stats = StatDictionary(LabelVocab(labels), counts, built_from)
        save_stat_dictionary(stats, path)
        blob = path.read_bytes()
        loaded = load_stat_dictionary(path)
        assert loaded.label_vocab.labels == labels, f"trial {trial}"
        assert loaded.built_from == built_from, f"trial {trial}"
        assert list(loaded.counts) == sorted(counts), f"trial {trial}"
        for word, vec in counts.items():
            assert loaded.counts[word].tolist() == vec.tolist(), f"trial {trial}"
        save_stat_dictionary(loaded, path)
        assert path.read_bytes() == blob, f"trial {trial}"
