"""Corpus ingestion: tokenization, labeled datasets, token tables, frequency profiling.

Input format is one record per line, `<label>\t<task_id>\t<message>`.
The task id is stored untouched (opaque); no model component consumes it.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .serialize import load_table, save_table

NUM_TOKEN = "<num>"

# The sentinel must survive re-tokenization so tokenize() is idempotent
# on its own space-joined output.
_TOKEN_RE = re.compile(r"<num>|[^\W\d_]+|\d+", re.UNICODE)


class CorpusError(ValueError):
    """Malformed corpus input."""


def tokenize(line: str) -> list[str]:
    """Lowercase, split on non-alphanumeric boundaries, collapse digit runs.

    Every maximal run of decimal digits (`\\d`) becomes the sentinel
    token so volatile parameters (ports, offsets, counters) share one
    vocabulary entry. Other digit-like characters, such as superscripts,
    are letters of the word they stand in.
    Blank or punctuation-only lines yield an empty list.
    """
    out = []
    for tok in _TOKEN_RE.findall(line.lower()):
        out.append(NUM_TOKEN if tok[0].isdecimal() else tok)
    return out


@dataclass(slots=True)
class LogRecord:
    message_id: int
    task_id: str
    tokens: list[str]
    label_id: int


@dataclass
class LabelVocab:
    """Ordered, unique label names; index positions are stable for a run."""

    labels: list[str]

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise CorpusError(f"duplicate label names: {self.labels}")

    @property
    def size(self) -> int:
        return len(self.labels)


@dataclass
class SplitSpec:
    """Record-level split: seeded shuffle + largest-remainder counts."""

    train: float = 0.8
    dev: float = 0.1
    test: float = 0.1
    seed: int = 7

    def __post_init__(self):
        if min(self.train, self.dev, self.test) < 0 or \
                abs(self.train + self.dev + self.test - 1.0) > 1e-9:
            raise CorpusError(
                f"split ratios must be non-negative and sum to 1, got "
                f"{self.train}/{self.dev}/{self.test}")

    def counts(self, n: int) -> tuple[int, int, int]:
        ratios = (self.train, self.dev, self.test)
        floors = [int(np.floor(r * n)) for r in ratios]
        remainders = [r * n - f for r, f in zip(ratios, floors)]
        for _ in range(n - sum(floors)):
            i = max(range(3), key=lambda j: (remainders[j], -j))
            floors[i] += 1
            remainders[i] = -1.0
        return floors[0], floors[1], floors[2]


SPLIT_NAMES = ("train", "dev", "test")

PAD_ID = 0
UNK_ID = 1
FIRST_WORD_ID = 2


@dataclass
class TokenTable:
    """Every record's token ids, label and split, as flat arrays.

    Record i, the record with message id i, holds the ids
    `ids[offsets[i]:offsets[i + 1]]`, its tokens in order as
    `LogDataset.token_ids` maps them, the label id `labels[i]` and the
    split `SPLIT_NAMES[splits[i]]`.
    """

    ids: np.ndarray      # (total tokens,) int64
    offsets: np.ndarray  # (N + 1,) int64, from 0, non-decreasing
    labels: np.ndarray   # (N,) int64
    splits: np.ndarray   # (N,) int64

    ARRAYS = ("ids", "offsets", "labels", "splits")

    @classmethod
    def build(cls, vocab: dict[str, int], records: list[LogRecord],
              splits: np.ndarray) -> TokenTable:
        """The table of `records`, numbered 0..N-1 in order, under `vocab`, with
        the int64 split codes `splits` stored as given."""
        lengths = np.fromiter((len(rec.tokens) for rec in records), np.int64,
                              count=len(records))
        offsets = np.zeros(len(records) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        ids = np.fromiter((vocab.get(token, UNK_ID) for rec in records
                           for token in rec.tokens), np.int64, count=int(offsets[-1]))
        labels = np.fromiter((rec.label_id for rec in records), np.int64,
                             count=len(records))
        return cls(ids, offsets, labels, splits)

    def __len__(self) -> int:
        return len(self.labels)

    def split_rows(self, split: str) -> np.ndarray:
        """Message ids of `split`'s records, in file order."""
        if split not in SPLIT_NAMES:
            raise CorpusError(f"unknown split {split!r}; expected one of {SPLIT_NAMES}")
        return np.flatnonzero(self.splits == SPLIT_NAMES.index(split))

    def split_arrays(self, split: str) -> tuple[np.ndarray, ...]:
        """All the table holds on `split`: its rows, their labels, lengths and ids."""
        rows = self.split_rows(split)
        lengths = np.diff(self.offsets)
        in_split = np.repeat(self.splits == SPLIT_NAMES.index(split), lengths)
        return rows, self.labels[rows], lengths[rows], self.ids[in_split]

    def widths(self, rows, m_fixed: int) -> np.ndarray:
        """Key slot counts of records `rows` padded to `m_fixed`: each length,
        at most `m_fixed` and at least 1, as `semantic.pad_tokens` marks keys."""
        if m_fixed < 1:
            raise CorpusError(f"m_fixed must be >= 1, got {m_fixed}")
        rows = np.asarray(rows, dtype=np.int64)
        return np.clip(self.offsets[rows + 1] - self.offsets[rows], 1, m_fixed)

    def pad(self, rows, m_fixed: int) -> tuple[np.ndarray, np.ndarray]:
        """Padded token ids and key slot counts of records `rows`.

        Row i of the (len(rows), m_fixed) id matrix is `semantic.pad_tokens`'s
        padding of record `rows[i]`'s ids, and its first `slots[i]`
        positions are the ones that padding marks as keys; `slots` is
        `widths(rows, m_fixed)`. The ids are int32: the matrix holds a
        whole split.
        """
        slots = self.widths(rows, m_fixed)
        rows = np.asarray(rows, dtype=np.int64)
        starts, ends = self.offsets[rows], self.offsets[rows + 1]
        ids = np.full((len(rows), m_fixed), PAD_ID, dtype=np.int32)
        for column in range(m_fixed):
            at = starts + column
            kept = at < ends
            ids[kept, column] = self.ids[at[kept]]
        return ids, slots


@dataclass
class LogDataset:
    """Loaded corpus: records, label names, train-split word vocab, token table.

    `table` holds the same records as token ids under `vocab`, and is
    the one store of each record's split.
    """

    records: list[LogRecord]
    label_vocab: LabelVocab
    vocab: dict[str, int]
    table: TokenTable = field(repr=False, compare=False)

    def split_records(self, split: str) -> list[LogRecord]:
        """`split`'s records, in file order."""
        return [self.records[i] for i in self.table.split_rows(split).tolist()]

    def token_ids(self, tokens: list[str]) -> list[int]:
        return [self.vocab.get(t, UNK_ID) for t in tokens]


def save_token_table(path: str | Path, table: TokenTable, meta: dict[str, str]) -> None:
    save_table(path, {name: getattr(table, name) for name in TokenTable.ARRAYS}, meta)


def load_token_table(path: str | Path,
                     meta_keys) -> tuple[TokenTable, dict[str, str]]:
    """The table and meta `save_token_table` wrote at `path`.

    A missing file, tensor or `meta_keys` entry, arrays that do not fit
    together, or a token id below `UNK_ID`, a negative label id or a
    split code outside `SPLIT_NAMES` fail naming the file.
    """
    if not Path(path).is_file():
        raise CorpusError(f"{path}: no token table; rerun preprocessing")
    arrays, meta = load_table(path)
    for name in TokenTable.ARRAYS:
        if name not in arrays:
            raise CorpusError(f"{path}: token table has no {name!r} tensor")
    for key in meta_keys:
        if key not in meta:
            raise CorpusError(f"{path}: token table has no {key!r} meta entry")
    table = TokenTable(*(arrays[name] for name in TokenTable.ARRAYS))
    offsets = table.offsets
    if not (all(getattr(table, name).dtype == np.int64 for name in TokenTable.ARRAYS)
            and table.ids.ndim == 1 and table.labels.ndim == 1
            and table.splits.shape == table.labels.shape
            and offsets.shape == (len(table) + 1,) and offsets[0] == 0
            and offsets[-1] == len(table.ids) and (np.diff(offsets) >= 0).all()):
        raise CorpusError(f"{path}: token table arrays do not fit together")
    splits = table.splits
    for what, values, bad, why in (
            ("token id", table.ids, table.ids < UNK_ID, f"below UNK_ID={UNK_ID}"),
            ("label id", table.labels, table.labels < 0, "negative"),
            ("split code", splits, (splits < 0) | (splits >= len(SPLIT_NAMES)),
             f"not a code of {SPLIT_NAMES}")):
        if bad.any():
            raise CorpusError(f"{path}: token table holds {what} {values[bad][0]}, {why}")
    return table, meta


def _cut_splits(n: int, spec: SplitSpec) -> np.ndarray:
    """The int64 split codes of `n` records: train, dev and test cut in turn
    from a seeded permutation."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(spec.seed)))
    codes = np.empty(n, dtype=np.int64)
    codes[rng.permutation(n)] = np.repeat(np.arange(3), spec.counts(n))
    return codes


def load_dataset(path: str | Path, split_spec: SplitSpec | None = None,
                 known_labels: list[str] | None = None) -> LogDataset:
    """Load a labeled corpus file and assign deterministic splits.

    When `known_labels` is given, any other label is an error; otherwise
    the label vocabulary is built in first-appearance order. Lines with a
    label and task id but no message text are kept (empty token list)
    with a warning; blank lines are skipped. The dataset's `table` holds
    every record's token ids and split: `read_dataset`, then `tokenize_rest`.
    Every occurrence of a word in the records is one `str` object, the
    one in the load's `PendingRecords.words`.
    """
    return tokenize_rest(path, *read_dataset(path, split_spec, known_labels))


@dataclass
class PendingRecords:
    """The records `read_dataset` left for `tokenize_rest`, and the load's words.

    `entries` holds the `(record, line number, message)` of each record
    not yet tokenized. `words` maps each word tokenized so far to the one
    `str` object every record holds for it. It is local to one load, not
    `sys.intern`: an interned string is immortal on Python 3.12.
    """

    entries: list
    words: dict[str, str]

    def __len__(self) -> int:
        return len(self.entries)


def read_dataset(path: str | Path, split_spec: SplitSpec | None = None,
                 known_labels: list[str] | None = None
                 ) -> tuple[LogDataset, PendingRecords]:
    """`load_dataset`'s first half: every line parsed and checked, train tokenized.

    Returns the dataset, whose other records hold no tokens yet (nor ids
    in its table, which holds every record's split), and those records
    with the load's word table, for `tokenize_rest`.
    """
    path = Path(path)
    records: list[LogRecord] = []
    pending = []
    labels_seen: list[str] = []
    label_ids: dict[str, int] = {}
    if known_labels is not None:
        labels_seen = list(known_labels)
        label_ids = {name: i for i, name in enumerate(labels_seen)}
    with path.open(encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t", 2)
            if len(parts) < 2:
                raise CorpusError(
                    f"{path}:{lineno}: expected <label>\\t<task_id>\\t<message>")
            label = parts[0]
            task_id = parts[1]
            message = parts[2] if len(parts) == 3 else ""
            if label not in label_ids:
                if known_labels is not None:
                    raise CorpusError(
                        f"{path}:{lineno}: unknown label {label!r}; known labels: "
                        f"{', '.join(labels_seen)}")
                label_ids[label] = len(labels_seen)
                labels_seen.append(label)
            records.append(LogRecord(len(records), task_id, [], label_ids[label]))
            pending.append((records[-1], lineno, message))
    codes = _cut_splits(len(records), split_spec or SplitSpec())
    in_train = (codes == 0).tolist()
    words: dict[str, str] = {}
    _tokenize(path, [entry for entry, train in zip(pending, in_train) if train], words)
    rest = PendingRecords([entry for entry, train in zip(pending, in_train)
                           if not train], words)
    vocab = {word: FIRST_WORD_ID + i for i, word in enumerate(sorted(words))}
    return LogDataset(records, LabelVocab(labels_seen), vocab,
                      TokenTable.build(vocab, records, codes)), rest


def tokenize_rest(path: str | Path, dataset: LogDataset,
                  rest: PendingRecords) -> LogDataset:
    """`load_dataset`'s second half: tokenize `rest`, then rebuild the table's ids."""
    _tokenize(Path(path), rest.entries, rest.words)
    dataset.table = TokenTable.build(dataset.vocab, dataset.records,
                                     dataset.table.splits)
    return dataset


def _tokenize(path: Path, pending: list, words: dict[str, str]) -> None:
    """Tokenize each `(record, line number, message)`, dropping the text once done.

    Each token is replaced by `words`' object for its word, which the
    first occurrence adds.
    """
    for i, (rec, lineno, message) in enumerate(pending):
        pending[i] = None
        rec.tokens = [words.setdefault(t, t) for t in tokenize(message)]
        if not rec.tokens:
            warnings.warn(f"{path}:{lineno}: message has no tokens", stacklevel=4)


def train_split_hash(dataset: LogDataset) -> str:
    """Stable digest of the train split (ids, tokens, labels).

    The statistics dictionary records it, so `evaluate` can tell that
    the train split changed since the dictionary was built.
    """
    import hashlib

    h = hashlib.sha256()
    for r in dataset.split_records("train"):
        h.update(f"{r.message_id}\t{' '.join(r.tokens)}\t{r.label_id}\n".encode())
    return h.hexdigest()


# -- frequency profiling -------------------------------------------------------


@dataclass
class CorpusProfile:
    """Word-frequency shape of a raw log file.

    Words here are raw whitespace-separated strings (no case folding, no
    digit collapsing) so parameter-carrying tokens count as distinct
    words, which is what makes the rare-word skew visible. "Appears at
    least once per K lines" means occurrence count >= total_lines / K.
    """

    dataset_size_bytes: int
    total_lines: int
    distinct_words: int
    count_appearing_once: int
    count_below_5: int
    count_below_10: int
    count_below_20: int
    count_at_least_once_per_10000_lines: int
    count_at_least_once_per_1000_lines: int

    def fraction(self, count: int) -> float:
        return count / self.distinct_words if self.distinct_words else 0.0

    # bucket field -> how `format_profile` names it
    FIELDS = {
        "count_appearing_once": "appear only once",
        "count_below_5": "appear less than 5 times",
        "count_below_10": "appear less than 10 times",
        "count_below_20": "appear less than 20 times",
        "count_at_least_once_per_10000_lines": "appear at least once per 10000 lines",
        "count_at_least_once_per_1000_lines": "appear at least once per 1000 lines",
    }

    def validate(self) -> None:
        if not (self.count_appearing_once <= self.count_below_5
                <= self.count_below_10 <= self.count_below_20
                <= self.distinct_words):
            raise AssertionError("frequency buckets must be monotone")


def profile_corpus(path: str | Path) -> CorpusProfile:
    """Single-pass word-count profile of a log file, one message per line."""
    path = Path(path)
    counts: dict[str, int] = {}
    total_lines = 0
    with path.open(encoding="utf-8") as handle:
        for line in handle:
            total_lines += 1
            for word in line.split():
                counts[word] = counts.get(word, 0) + 1
    values = np.fromiter(counts.values(), dtype=np.int64, count=len(counts))
    per_10000 = total_lines / 10000.0
    per_1000 = total_lines / 1000.0
    profile = CorpusProfile(
        dataset_size_bytes=path.stat().st_size,
        total_lines=total_lines,
        distinct_words=len(counts),
        count_appearing_once=int((values == 1).sum()),
        count_below_5=int((values < 5).sum()),
        count_below_10=int((values < 10).sum()),
        count_below_20=int((values < 20).sum()),
        count_at_least_once_per_10000_lines=int((values >= per_10000).sum()),
        count_at_least_once_per_1000_lines=int((values >= per_1000).sum()),
    )
    profile.validate()
    return profile


def format_profile(profile: CorpusProfile) -> str:
    """Human-readable key/value report."""
    lines = [
        f"dataset size (bytes): {profile.dataset_size_bytes}",
        f"total lines: {profile.total_lines}",
        f"distinct words: {profile.distinct_words}",
    ]
    for name, phrase in CorpusProfile.FIELDS.items():
        count = getattr(profile, name)
        lines.append(f"{phrase}: {count} ({100.0 * profile.fraction(count):.2f}%)")
    return "\n".join(lines) + "\n"


def write_profile(profile: CorpusProfile, path: str | Path) -> None:
    """Machine-readable variant: one field per line, tab separated."""
    rows = [
        ("dataset_size_bytes", profile.dataset_size_bytes),
        ("total_lines", profile.total_lines),
        ("distinct_words", profile.distinct_words),
    ]
    for name in CorpusProfile.FIELDS:
        count = getattr(profile, name)
        rows.append((name, count))
        rows.append((name + "_fraction", repr(profile.fraction(count))))
    Path(path).write_text(
        "".join(f"{k}\t{v}\n" for k, v in rows), encoding="utf-8")
