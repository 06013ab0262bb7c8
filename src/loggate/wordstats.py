"""Per-word label-count statistics and per-message pooled features.

Counts are built from the training split only, into one table indexed
by the dataset's token ids; a word outside the train split reads the
zero `UNK_ID` row, so evaluation-time inputs can never leak their own
label counts into the features.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import (FIRST_WORD_ID, UNK_ID, CorpusError, LabelVocab, LogDataset,
                     LogRecord, train_split_hash)


class StatError(ValueError):
    pass


@dataclass
class StatDictionary:
    """Per-label occurrence counts of each word, from the train split only."""

    label_vocab: LabelVocab
    vocab: dict[str, int]  # word -> token id, as in `LogDataset.vocab`
    counts: np.ndarray     # (FIRST_WORD_ID + len(vocab), n) int64; row = token id
    built_from: str        # train-split digest

    def lookup(self, word: str) -> np.ndarray:
        """A copy of the word's count row; the zero `UNK_ID` row if it has no id."""
        return self.counts[self.vocab.get(word, UNK_ID)].copy()


def build_stat_dictionary(dataset: LogDataset) -> StatDictionary:
    """Count token occurrences per label over the training split.

    A word repeated inside one message counts once per occurrence, not
    once per message. The ids and labels are read from `dataset.table`;
    every train id must be a word id of `dataset.vocab`.
    """
    rows, labels, lengths, ids = dataset.table.split_arrays("train")
    if not len(rows):
        raise StatError("cannot build statistics dictionary: train split is empty")
    words = FIRST_WORD_ID + len(dataset.vocab)
    if ((ids < FIRST_WORD_ID) | (ids >= words)).any():
        raise StatError("a train-split word has no id in the dataset vocabulary")
    counts = np.zeros((words, dataset.label_vocab.size), dtype=np.int64)
    np.add.at(counts, (ids, np.repeat(labels, lengths)), 1)
    return StatDictionary(dataset.label_vocab, dataset.vocab, counts,
                          train_split_hash(dataset))


@dataclass
class MessageStats:
    """Stacked per-token count vectors for one message, padded to a fixed length.

    `pooled` is the column sum of the (padded) matrix; `normalized` is
    log1p of the pooled counts, elementwise.
    """

    matrix: np.ndarray      # (m_fixed, n) int64; pad rows all zero
    mask: np.ndarray        # (m_fixed,) bool; True at real token rows
    pooled: np.ndarray      # (n,) int64
    normalized: np.ndarray  # (n,) float64


def message_stats(stats: StatDictionary, record: LogRecord,
                  m_fixed: int) -> MessageStats:
    """Assemble the padded count matrix and its pooled summary.

    Messages longer than `m_fixed` keep their first `m_fixed` tokens.
    """
    if m_fixed < 1:
        raise StatError(f"m_fixed must be >= 1, got {m_fixed}")
    n = stats.label_vocab.size
    matrix = np.zeros((m_fixed, n), dtype=np.int64)
    mask = np.zeros(m_fixed, dtype=bool)
    for i, token in enumerate(record.tokens[:m_fixed]):
        matrix[i] = stats.lookup(token)
        mask[i] = True
    pooled = matrix.sum(axis=0)
    return MessageStats(matrix, mask, pooled, np.log1p(pooled.astype(np.float64)))


def pooled_stats(stats: StatDictionary, dataset: LogDataset, rows,
                 m_fixed: int) -> np.ndarray:
    """(len(rows), n) `message_stats(...).normalized` rows of `dataset`'s
    records with message ids `rows`, in that order.

    The count rows of the records' padded `dataset.table` ids are summed,
    one id column at a time, then log1p is applied. The ids must be the
    ones `stats` counts under, as in `build_stat_dictionary(dataset)`.
    Pad and unknown ids read zero rows and integer sums are exact, so
    each row is `message_stats`'s.
    """
    if m_fixed < 1:
        raise StatError(f"m_fixed must be >= 1, got {m_fixed}")
    ids = dataset.table.pad(rows, m_fixed)[0]
    pooled = sum(stats.counts.take(column, axis=0) for column in ids.T)
    return np.log1p(pooled.astype(np.float64))


def save_stat_dictionary(stats: StatDictionary, path: str | Path) -> None:
    """Sorted word-keyed table; byte-identical for identical inputs.

    Labels are stored comma-joined on one line, so a label holding a
    comma or a line break is refused rather than read back split.
    """
    for label in stats.label_vocab.labels:
        if "," in label or label.splitlines() not in ([label], []):
            raise StatError(f"label {label!r} cannot be stored: it holds "
                            "a comma or a line break")
    lines = [
        "# labels: " + ",".join(stats.label_vocab.labels),
        "# train_hash: " + stats.built_from,
    ]
    for word in sorted(stats.vocab):
        row = stats.counts[stats.vocab[word]].tolist()
        lines.append(word + "\t" + ",".join(map(str, row)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_stat_dictionary(path: str | Path) -> StatDictionary:
    text = Path(path).read_text(encoding="utf-8").splitlines()
    if len(text) < 2 or not text[0].startswith("# labels: ") \
            or not text[1].startswith("# train_hash: "):
        raise StatError(f"{path}: not a statistics dictionary file")
    labels = text[0][len("# labels: "):].split(",")
    try:
        label_vocab = LabelVocab(labels)
    except CorpusError as exc:
        raise StatError(f"{path}:1: {exc}") from None
    built_from = text[1][len("# train_hash: "):]
    vocab: dict[str, int] = {}
    rows = [[0] * len(labels)] * FIRST_WORD_ID
    for lineno, line in enumerate(text[2:], start=3):
        if not line:
            continue
        word, _, rest = line.partition("\t")
        try:
            row = [int(c) for c in rest.split(",")]
        except ValueError:
            raise StatError(f"{path}:{lineno}: word {word!r} has a count that is "
                            f"not an integer: {rest!r}") from None
        if len(row) != len(labels):
            raise StatError(f"{path}:{lineno}: word {word!r} has {len(row)} "
                            f"counts for {len(labels)} labels")
        if vocab.setdefault(word, len(rows)) != len(rows):
            raise StatError(f"{path}:{lineno}: word {word!r} is listed twice")
        rows.append(row)
    return StatDictionary(label_vocab, vocab, np.array(rows, dtype=np.int64),
                          built_from)
