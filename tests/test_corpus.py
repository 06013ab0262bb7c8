"""Tokenizer, dataset loading/splits, and the frequency profiler."""

import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from loggate import synth
from loggate.corpus import (CorpusError, CorpusProfile, LabelVocab, SplitSpec,
                            load_dataset, profile_corpus, read_dataset, tokenize,
                            train_split_hash, write_profile, NUM_TOKEN,
                            PAD_ID, SPLIT_NAMES, UNK_ID, FIRST_WORD_ID)

from helpers import brute_force_profile, random_text, reference_split_assignment


# -- tokenize --------------------------------------------------------------


def test_tokenize_mixed_line():
    assert tokenize("Error 404 on node-7") == ["error", NUM_TOKEN, "on",
                                               "node", NUM_TOKEN]


def test_tokenize_blank_and_punctuation():
    assert tokenize("") == []
    assert tokenize("  \t ") == []
    assert tokenize("!!! --- ...") == []


def test_tokenize_case_folding():
    assert tokenize("SEND send") == ["send", "send"]


def test_tokenize_digit_runs_collapse():
    assert tokenize("0 007 123456789") == [NUM_TOKEN] * 3


def test_tokenize_keeps_words_led_by_non_decimal_digits():
    # Superscripts and circled digits pass str.isdigit but are not \d:
    # they are letters of a word wherever they stand in it.
    assert tokenize("\u00b2abc a\u00b2b \u2460x x\u00b3") == [
        "\u00b2abc", "a\u00b2b", "\u2460x", "x\u00b3"]
    assert tokenize("\u0663\u0664 \u00b9") == [NUM_TOKEN, "\u00b9"]


def test_tokenize_idempotent_on_own_output():
    lines = [
        "Error 404 on node-7",
        "disk /dev/sda1 failed: code=0x1F",
        "UPPER lower 42 mixed_case-token",
    ]
    for line in lines:
        once = tokenize(line)
        assert tokenize(" ".join(once)) == once



# Pieces of a random log line: ASCII and non-ASCII letters (with case),
# ASCII and Arabic-Indic digits, punctuation, blanks and the sentinel.
LINE_PIECES = ["aZ", "\u00e9\u00c9\u00df", "\u0436\u0416", "\u6f22", "\u0130",
               "0123456789", "\u0663", ".,:;=/_-()[]<>", " \t", NUM_TOKEN,
               NUM_TOKEN.upper()]


def test_tokenize_random_lines_are_idempotent_and_digit_free():
    rng = np.random.Generator(np.random.PCG64(77))
    for trial in range(500):
        pieces = [LINE_PIECES[int(i)] for i in rng.integers(0, len(LINE_PIECES), 12)]
        line = "".join(piece if piece.upper() == NUM_TOKEN.upper()
                       else random_text(rng, piece, 0, 4) for piece in pieces)
        once = tokenize(line)
        assert tokenize(" ".join(once)) == once, f"trial {trial}: {line!r}"
        for token in once:
            assert token == NUM_TOKEN or not any(ch.isdecimal() for ch in token), \
                f"trial {trial}: {token!r} from {line!r}"

# -- split spec ------------------------------------------------------------


def test_split_counts_largest_remainder():
    spec = SplitSpec(0.8, 0.1, 0.1, seed=7)
    assert spec.counts(10) == (8, 1, 1)
    assert sum(spec.counts(7)) == 7
    assert SplitSpec(1.0, 0.0, 0.0).counts(5) == (5, 0, 0)


def test_split_counts_cover_every_size():
    spec = SplitSpec(0.8, 0.1, 0.1, seed=7)
    for n in range(0, 200):
        train, dev, test = spec.counts(n)
        assert train + dev + test == n
        assert min(train, dev, test) >= 0


def test_split_ratios_validated():
    with pytest.raises(CorpusError):
        SplitSpec(0.8, 0.3, 0.1)
    with pytest.raises(CorpusError):
        SplitSpec(-0.2, 1.1, 0.1)


# -- label vocab -----------------------------------------------------------


def test_label_vocab_rejects_duplicates():
    with pytest.raises(CorpusError):
        LabelVocab(["a", "b", "a"])


def test_label_vocab_lookup():
    vocab = LabelVocab(["a", "b"])
    assert vocab.size == 2
    assert vocab.labels == ["a", "b"]


# -- load_dataset ----------------------------------------------------------


def _write_corpus(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_load_dataset_basic(tmp_path):
    path = _write_corpus(tmp_path / "c.tsv", [
        "alpha\tt1\tsend ok now",
        "beta\tt2\tsend fail now",
        "alpha\t-\tretry send 42",
    ])
    ds = load_dataset(path, SplitSpec(1.0, 0.0, 0.0, seed=7))
    assert ds.label_vocab.labels == ["alpha", "beta"]
    assert [r.label_id for r in ds.records] == [0, 1, 0]
    assert ds.records[2].task_id == "-"
    assert ds.records[2].tokens == ["retry", "send", NUM_TOKEN]


def test_loaded_records_hold_one_object_per_word(tmp_path):
    path = tmp_path / "synth.tsv"
    synth.generate_synthetic(synth.make_default_spec(40), 3, path)
    # train, dev and test are tokenized in two passes; the second seeds its
    # word table from the vocabulary
    ds = load_dataset(path, SplitSpec(0.5, 0.25, 0.25, seed=3))
    tokens = [t for r in ds.records for t in r.tokens]
    assert len({id(t) for t in tokens}) == len(set(tokens))
    keys = dict(zip(ds.vocab, ds.vocab))
    assert all(keys.get(t, t) is t for t in tokens)
    lines = [line for line in path.read_text(encoding="utf-8").splitlines() if line]
    assert [r.tokens for r in ds.records] == [tokenize(line.split("\t", 2)[2])
                                              for line in lines]
    # sys.intern would make every word immortal on Python 3.12 (refcount
    # 2**32 - 1); one-character strings are immortal there anyway.
    words = [t for t in set(tokens) if len(t) > 1 and t != NUM_TOKEN]
    assert words and all(sys.getrefcount(t) < 2 ** 30 for t in words)


def test_load_dataset_split_sizes(tmp_path):
    lines = [f"lab{i % 2}\t-\tword{i} extra" for i in range(10)]
    ds = load_dataset(_write_corpus(tmp_path / "c.tsv", lines),
                      SplitSpec(0.8, 0.1, 0.1, seed=7))
    sizes = {name: len(ds.split_records(name)) for name in ("train", "dev", "test")}
    assert sizes == {"train": 8, "dev": 1, "test": 1}


def test_load_dataset_split_deterministic(tmp_path):
    lines = [f"lab\t-\tmsg {i} word" for i in range(30)]
    path = _write_corpus(tmp_path / "c.tsv", lines)
    first = load_dataset(path, SplitSpec(0.6, 0.2, 0.2, seed=11))
    second = load_dataset(path, SplitSpec(0.6, 0.2, 0.2, seed=11))
    assert np.array_equal(first.table.splits, second.table.splits)
    third = load_dataset(path, SplitSpec(0.6, 0.2, 0.2, seed=12))
    assert not np.array_equal(first.table.splits, third.table.splits)


def test_splits_match_the_per_position_assignment(tmp_path):
    rng = np.random.default_rng(20)
    path = tmp_path / "c.tsv"
    for n in range(61):
        # some ratios are zeroed, so empty splits come up too
        ratios = rng.random(3) * (rng.random(3) > 0.25)
        ratios[0] += not ratios.any()
        spec = SplitSpec(*(ratios / ratios.sum()).tolist(),
                         seed=int(rng.integers(2 ** 31)))
        _write_corpus(path, [f"lab{i % 3}\t-\tmsg w{i}" for i in range(n)])
        ds = load_dataset(path, spec)
        assigned = reference_split_assignment([r.message_id for r in ds.records], spec)
        codes = [SPLIT_NAMES.index(assigned[r.message_id]) for r in ds.records]
        assert ds.table.splits.tolist() == codes, (n, spec)
        assert np.array_equal(read_dataset(path, spec)[0].table.splits,
                              ds.table.splits), (n, spec)
        for name in ("train", "dev", "test"):
            expect = [r for r in ds.records if assigned[r.message_id] == name]
            got = ds.split_records(name)
            assert got == expect, (n, spec, name)
            got.reverse()
            got.append(None)
            assert ds.split_records(name) == expect, (n, spec, name)


def test_load_dataset_vocab_from_train_only(tmp_path):
    # letter suffixes: digit suffixes would all collapse to the number token
    lines = [f"lab\t-\tshared uniq{c}" for c in "abcdefghij"]
    ds = load_dataset(_write_corpus(tmp_path / "c.tsv", lines),
                      SplitSpec(0.8, 0.1, 0.1, seed=7))
    train_words = {t for r in ds.split_records("train") for t in r.tokens}
    assert set(ds.vocab) == train_words
    held_out = {t for r in ds.split_records("test") for t in r.tokens} - train_words
    assert held_out  # the uniq words make the test split carry new tokens
    ids = ds.token_ids(sorted(held_out))
    assert ids == [UNK_ID] * len(ids)
    assert min(ds.vocab.values()) == FIRST_WORD_ID > UNK_ID > PAD_ID


def test_load_dataset_single_record_degenerate_split(tmp_path):
    path = _write_corpus(tmp_path / "c.tsv", ["lab\t-\tonly message"])
    ds = load_dataset(path, SplitSpec(1.0, 0.0, 0.0))
    assert len(ds.split_records("train")) == 1
    assert ds.split_records("dev") == [] and ds.split_records("test") == []


def test_load_dataset_empty_message_warns(tmp_path):
    path = _write_corpus(tmp_path / "c.tsv", ["lab\tt1\t", "lab\tt2\tok fine"])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ds = load_dataset(path, SplitSpec(1.0, 0.0, 0.0))
    assert ds.records[0].tokens == []
    assert any("no tokens" in str(w.message) for w in caught)


def test_load_dataset_malformed_line_names_line_number(tmp_path):
    path = _write_corpus(tmp_path / "c.tsv", ["lab\t-\tfine message", "junk-no-tabs"])
    with pytest.raises(CorpusError, match=":2:"):
        load_dataset(path)


def test_load_dataset_unknown_label_rejected(tmp_path):
    path = _write_corpus(tmp_path / "c.tsv", ["lab_x\t-\tmessage text"])
    with pytest.raises(CorpusError, match="known labels"):
        load_dataset(path, known_labels=["lab_a", "lab_b"])


def test_load_dataset_known_labels_fix_order(tmp_path):
    path = _write_corpus(tmp_path / "c.tsv", ["b\t-\tmsg one", "a\t-\tmsg two"])
    ds = load_dataset(path, known_labels=["a", "b"])
    assert ds.label_vocab.labels == ["a", "b"]
    assert [r.label_id for r in ds.records] == [1, 0]


def test_train_split_hash_tracks_content(tmp_path):
    lines = [f"lab\t-\tmsg number {i}" for i in range(20)]
    path = _write_corpus(tmp_path / "c.tsv", lines)
    base = train_split_hash(load_dataset(path, SplitSpec(0.8, 0.1, 0.1, 5)))
    again = train_split_hash(load_dataset(path, SplitSpec(0.8, 0.1, 0.1, 5)))
    assert base == again
    other_seed = train_split_hash(load_dataset(path, SplitSpec(0.8, 0.1, 0.1, 6)))
    assert base != other_seed
    # change every message so the edit cannot hide in the dev/test splits
    edited_lines = [line + " extra" for line in lines]
    edited = train_split_hash(load_dataset(_write_corpus(tmp_path / "d.tsv", edited_lines),
                                           SplitSpec(0.8, 0.1, 0.1, 5)))
    assert base != edited


# -- profiler --------------------------------------------------------------


MINI_CORPUS = Path(__file__).resolve().parent / "data" / "mini_corpus.tsv"


def test_profile_matches_brute_force_oracle():
    path = MINI_CORPUS
    profile = profile_corpus(path)
    oracle = brute_force_profile(path)
    for name, expected in oracle.items():
        assert getattr(profile, name) == expected, name


def test_profile_small_handmade_corpus(tmp_path):
    path = tmp_path / "tiny.log"
    path.write_text("a b b\nc c c c c a\n", encoding="utf-8")
    profile = profile_corpus(path)
    # raw whitespace words: a=2, b=2, c=5
    assert profile.total_lines == 2
    assert profile.distinct_words == 3
    assert profile.count_appearing_once == 0
    assert profile.count_below_5 == 2
    assert profile.count_below_10 == 3
    assert profile.count_at_least_once_per_1000_lines == 3


def test_profile_empty_file(tmp_path):
    path = tmp_path / "empty.log"
    path.write_text("", encoding="utf-8")
    profile = profile_corpus(path)
    assert profile.total_lines == 0
    assert profile.distinct_words == 0
    assert profile.fraction(profile.count_below_20) == 0.0


def test_profile_buckets_monotone_on_random_corpora(tmp_path):
    rng = np.random.Generator(np.random.PCG64(3))
    for trial in range(5):
        n_lines = int(rng.integers(1, 400))
        lines = [" ".join(f"w{rng.integers(0, 50)}"
                          for _ in range(rng.integers(1, 8)))
                 for _ in range(n_lines)]
        path = tmp_path / f"r{trial}.log"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        profile = profile_corpus(path)
        profile.validate()
        assert (profile.count_appearing_once <= profile.count_below_5
                <= profile.count_below_10 <= profile.count_below_20
                <= profile.distinct_words)


def test_profile_fraction_and_report(tmp_path):
    path = tmp_path / "f.log"
    path.write_text("x y z z\n", encoding="utf-8")
    profile = profile_corpus(path)
    assert profile.fraction(profile.count_appearing_once) == pytest.approx(2 / 3)
    out = tmp_path / "profile.tsv"
    write_profile(profile, out)
    text = out.read_text(encoding="utf-8")
    assert "distinct_words\t3\n" in text
    assert "count_appearing_once\t2\n" in text


def test_profile_counts_raw_words_not_model_tokens(tmp_path):
    # profiler must not fold case or collapse digits
    path = tmp_path / "raw.log"
    path.write_text("Send send 404 405\n", encoding="utf-8")
    profile = profile_corpus(path)
    assert profile.distinct_words == 4
