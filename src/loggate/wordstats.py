"""Per-word label-count statistics and per-message pooled features.

Counts are built from the training split only; a word outside the
dictionary maps to the all-zeros vector, so evaluation-time inputs can
never leak their own label counts into the features.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import LabelVocab, LogDataset, LogRecord, train_split_hash


class StatError(ValueError):
    pass


@dataclass
class StatDictionary:
    """word -> per-label occurrence counts, from the train split only."""

    label_vocab: LabelVocab
    counts: dict[str, np.ndarray]
    built_from: str  # train-split digest

    def lookup(self, word: str) -> np.ndarray:
        """Stored count vector, or zeros for out-of-vocabulary words."""
        vec = self.counts.get(word)
        if vec is None:
            return np.zeros(self.label_vocab.size, dtype=np.int64)
        return vec.copy()


def build_stat_dictionary(dataset: LogDataset) -> StatDictionary:
    """Count token occurrences per label over the training split.

    A word repeated inside one message counts once per occurrence, not
    once per message.
    """
    train = dataset.split_records("train")
    if not train:
        raise StatError("cannot build statistics dictionary: train split is empty")
    n = dataset.label_vocab.size
    counts: dict[str, np.ndarray] = {}
    for record in train:
        for token in record.tokens:
            vec = counts.get(token)
            if vec is None:
                vec = np.zeros(n, dtype=np.int64)
                counts[token] = vec
            vec[record.label_id] += 1
    return StatDictionary(dataset.label_vocab, counts, train_split_hash(dataset))


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


def pooled_stats(stats: StatDictionary, records: list[LogRecord],
                 m_fixed: int) -> np.ndarray:
    """(len(records), n) `message_stats(...).normalized` rows, in one pass.

    Each record's first `m_fixed` tokens become rows of a count table
    (row 0 for out-of-vocabulary words); the rows are summed per record,
    one label column at a time, then log1p is applied. The per-column
    sums are of integers far below 2**53, so they are exact and every
    row equals `message_stats`'s bit for bit.
    """
    if m_fixed < 1:
        raise StatError(f"m_fixed must be >= 1, got {m_fixed}")
    rows = {word: i for i, word in enumerate(stats.counts, 1)}
    table = np.vstack([np.zeros(stats.label_vocab.size, dtype=np.int64),
                       *stats.counts.values()])
    lengths = np.fromiter((min(len(rec.tokens), m_fixed) for rec in records),
                          dtype=np.int64)
    flat = np.fromiter((rows.get(token, 0) for rec in records
                        for token in rec.tokens[:m_fixed]), dtype=np.int64)
    owner = np.repeat(np.arange(len(lengths)), lengths)
    pooled = np.empty((len(lengths), table.shape[1]))
    for j in range(table.shape[1]):
        pooled[:, j] = np.bincount(owner, weights=table[flat, j],
                                   minlength=len(lengths))
    return np.log1p(pooled)


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
    for word in sorted(stats.counts):
        lines.append(word + "\t" + ",".join(str(c) for c in stats.counts[word]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_stat_dictionary(path: str | Path) -> StatDictionary:
    text = Path(path).read_text(encoding="utf-8").splitlines()
    if len(text) < 2 or not text[0].startswith("# labels: ") \
            or not text[1].startswith("# train_hash: "):
        raise StatError(f"{path}: not a statistics dictionary file")
    labels = text[0][len("# labels: "):].split(",")
    built_from = text[1][len("# train_hash: "):]
    counts: dict[str, np.ndarray] = {}
    for line in text[2:]:
        if not line:
            continue
        word, _, rest = line.partition("\t")
        counts[word] = np.array([int(c) for c in rest.split(",")], dtype=np.int64)
        if counts[word].size != len(labels):
            raise StatError(f"{path}: word {word!r} has {counts[word].size} "
                            f"counts for {len(labels)} labels")
    return StatDictionary(LabelVocab(labels), counts, built_from)
