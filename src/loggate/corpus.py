"""Corpus ingestion: tokenization, labeled datasets, frequency profiling.

Input format is one record per line, `<label>\t<task_id>\t<message>`.
The task id is stored untouched (opaque); no model component consumes it.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

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


@dataclass
class LogRecord:
    message_id: int
    task_id: str
    tokens: list[str]
    label_id: int


@dataclass
class LabelVocab:
    """Ordered, unique label names; index positions are stable for a run."""

    labels: list[str]
    _index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise CorpusError(f"duplicate label names: {self.labels}")
        self._index = {name: i for i, name in enumerate(self.labels)}

    @property
    def size(self) -> int:
        return len(self.labels)

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise CorpusError(
                f"unknown label {name!r}; known labels: {', '.join(self.labels)}")


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
class LogDataset:
    """Loaded corpus: records, split assignment, train-split word vocab."""

    records: list[LogRecord]
    label_vocab: LabelVocab
    splits: dict[int, str]
    vocab: dict[str, int]

    def split_records(self, split: str) -> list[LogRecord]:
        if split not in SPLIT_NAMES:
            raise CorpusError(f"unknown split {split!r}; expected one of {SPLIT_NAMES}")
        return [r for r in self.records if self.splits[r.message_id] == split]

    def token_ids(self, tokens: list[str]) -> list[int]:
        return [self.vocab.get(t, UNK_ID) for t in tokens]


def _assign_splits(ids: list[int], spec: SplitSpec) -> dict[int, str]:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(spec.seed)))
    order = rng.permutation(len(ids))
    n_train, n_dev, _ = spec.counts(len(ids))
    assignment: dict[int, str] = {}
    for pos, idx in enumerate(order):
        if pos < n_train:
            split = "train"
        elif pos < n_train + n_dev:
            split = "dev"
        else:
            split = "test"
        assignment[ids[idx]] = split
    return assignment


def load_dataset(path: str | Path, split_spec: SplitSpec | None = None,
                 known_labels: list[str] | None = None) -> LogDataset:
    """Load a labeled corpus file and assign deterministic splits.

    When `known_labels` is given, any other label is an error; otherwise
    the label vocabulary is built in first-appearance order. Lines with a
    label and task id but no message text are kept (empty token list)
    with a warning; blank lines are skipped.
    """
    path = Path(path)
    records: list[LogRecord] = []
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
            tokens = tokenize(message)
            if not tokens:
                warnings.warn(f"{path}:{lineno}: message has no tokens", stacklevel=2)
            records.append(LogRecord(len(records), task_id, tokens, label_ids[label]))
    spec = split_spec or SplitSpec()
    splits = _assign_splits([r.message_id for r in records], spec)
    vocab: dict[str, int] = {}
    train_words = sorted({t for r in records
                          if splits[r.message_id] == "train" for t in r.tokens})
    for i, word in enumerate(train_words):
        vocab[word] = FIRST_WORD_ID + i
    return LogDataset(records, LabelVocab(labels_seen), splits, vocab)


def train_split_hash(dataset: LogDataset) -> str:
    """Stable digest of the train split (ids, tokens, labels).

    Used to detect stale statistics dictionaries, embedding caches and
    checkpoints.
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

    FIELDS = (
        "count_appearing_once", "count_below_5", "count_below_10",
        "count_below_20", "count_at_least_once_per_10000_lines",
        "count_at_least_once_per_1000_lines",
    )

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
    labels = {
        "count_appearing_once": "appear only once",
        "count_below_5": "appear less than 5 times",
        "count_below_10": "appear less than 10 times",
        "count_below_20": "appear less than 20 times",
        "count_at_least_once_per_10000_lines": "appear at least once per 10000 lines",
        "count_at_least_once_per_1000_lines": "appear at least once per 1000 lines",
    }
    for name in CorpusProfile.FIELDS:
        count = getattr(profile, name)
        lines.append(f"{labels[name]}: {count} ({100.0 * profile.fraction(count):.2f}%)")
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
