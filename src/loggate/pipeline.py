"""End-to-end orchestration: preprocessing, pretraining, training, reports.

Every stage is deterministic for a given (config, seed); sub-stages draw
from independent child seeds so changing one stage's schedule never
shifts another's randomness.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import pickle
import shutil
import signal
import sys
import time
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import fusion, statvae
from .corpus import (FIRST_WORD_ID, SPLIT_NAMES, LogDataset, SplitSpec, TokenTable,
                     load_dataset, load_token_table, read_dataset, save_token_table,
                     tokenize_rest, train_split_hash)
from .fusion import MODES, DiagnosisModel
from .metrics import MetricsReport, compute_metrics, format_metrics, write_metrics
from .optim import Adam
# message_stats stays importable here: perfbench traces it under this name.
from .wordstats import (StatDictionary, build_stat_dictionary,  # noqa: F401
                        load_stat_dictionary, message_stats, pooled_stats,
                        save_stat_dictionary)


# Records per forward pass when scoring. On a 2-core VM one lane scored
# the 18,000 width-sorted test rows of diagnose-10x in 0.240 s at 32,
# 0.208 s at 64, 0.197 s at 128 and 0.374 s at 256 (medians of 15 runs
# alternating in one process with unsorted rows, which took 0.274, 0.246,
# 0.233 and 0.424 s). Unsorted, 128 raised a default train's peak RSS by
# 1.7 MB; no 10-pair series has tested it sorted.
EVAL_CHUNK = 64
SCORE_DTYPE = np.float32  # scoring arithmetic; training stays float64
# A row whose two largest SCORE_DTYPE logits lie within this gap is scored
# again in float64. Over 66,800 scored rows the float32 logits were within
# 2.4e-5 of the float64 ones (largest |logit| 12), and one float64 top-2 gap
# was 2.8e-7: float32 alone flipped that prediction.
TIE_GAP = 1e-3
# Fewest rows of a split per scoring lane (32 chunks). On a 2-core VM
# (medians of 9, one and two lanes alternating in one process), one lane
# scored 200 rows in 3.1 ms against 5.6 ms on two, 1,000 rows in 12.0 ms
# against 10.4 ms, 2,048 rows in 23 ms against 18 ms, 4,096 rows in 47 ms
# against 33 ms and 18,000 rows in 0.204 s against 0.127 s. Two lanes pay
# from about 1,000 rows, but no benchmark workload scores a split of 200
# to 4,096 rows, so no 10-pair series has tested a lower value.
# It gates ingest too: `preprocess` forks VAE pretraining only when at
# least this many records lie outside the train split. Tokenizing 2,048
# of them takes about 15 ms (18,000 in 0.13 s); a forked lane starts
# about 2 ms after the call.
LANE_MIN_ROWS = 2048
# `_file_digest` reads a file in blocks of this many bytes, so hashing an
# artifact holds one block, not the whole file, beside what `evaluate` loaded.
DIGEST_BLOCK_BYTES = 1 << 16


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name for diagnostics."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage
        self.message = message

    def __reduce__(self):
        # a failure in a training lane reaches the parent through pickle
        return type(self), (self.stage, self.message)


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    dataset: str = ""
    train_ratio: float = 0.8
    dev_ratio: float = 0.1
    test_ratio: float = 0.1
    m_fixed: int = 16
    d_model: int = 64
    latent_dim: int = 16
    epsilon: float = 0.2
    learning_rate: float = 1e-3
    batch_size: int = 32
    vae_epochs: int = 30
    classifier_epochs: int = 30
    seed: int = 7
    mode: str = "full"

    def validate(self) -> None:
        if not 0.0 <= self.epsilon <= 0.5:
            raise ConfigError(f"epsilon must lie in [0, 0.5], got {self.epsilon}")
        # a zero rate trains nothing and a non-finite one poisons every parameter
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ConfigError("learning_rate must be finite and positive, "
                              f"got {self.learning_rate}")
        for name in ("m_fixed", "d_model", "latent_dim", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("vae_epochs", "classifier_epochs", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        ratios = (self.train_ratio, self.dev_ratio, self.test_ratio)
        if not all(r >= 0.0 for r in ratios):
            raise ConfigError(f"split ratios must be non-negative, got {ratios}")
        total = sum(ratios)
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"split ratios sum to {total}, expected 1")
        # `load_config` reads one stripped line per key.
        if self.dataset != self.dataset.strip() or len(self.dataset.splitlines()) > 1:
            raise ConfigError("dataset must not hold a line break or surrounding "
                              f"whitespace, got {self.dataset!r}")


_CONFIG_TYPES = {f.name: f.type for f in fields(RunConfig)}
_CASTERS = {"str": str, "int": int, "float": float}


def _cast_field(key: str, raw):
    """`raw` as the field's type: a string, or a value from the API."""
    if key not in _CONFIG_TYPES:
        raise ConfigError(
            f"unknown config key {key!r}; valid keys: {', '.join(sorted(_CONFIG_TYPES))}")
    caster = _CASTERS[_CONFIG_TYPES[key]]
    try:
        value = caster(raw)
        if caster is int and not isinstance(raw, str) and value != raw:
            raise ValueError  # int() truncates a non-integral number
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"config key {key!r} expects {_CONFIG_TYPES[key]}, got {raw!r}")
    return value


def load_config(path: str | Path) -> RunConfig:
    """Flat `key=value` file; blank lines and #-comments ignored."""
    lines = enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1)
    return _with_settings(RunConfig(), ((f"{path}:{ln}", line) for ln, line in lines
                                        if line.strip()[:1] not in ("", "#")))


def save_config(config: RunConfig, path: str | Path) -> None:
    """Write a valid `config` as `key=value` lines `load_config` reads back."""
    config.validate()
    lines = [f"{f.name}={getattr(config, f.name)}" for f in fields(RunConfig)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def apply_overrides(config: RunConfig, pairs) -> RunConfig:
    """New config with `key=value` override strings applied."""
    return _with_settings(config, (("override", pair) for pair in pairs))


def _with_settings(config: RunConfig, items) -> RunConfig:
    """Valid `config` with `(where, "key=value")` items applied; errors name `where`.

    A key given twice among `items` is refused, naming both places.
    """
    updates, places = {}, {}
    for where, text in items:
        key, equals, raw = (part.strip() for part in text.partition("="))
        try:
            if not equals:
                raise ConfigError(f"expected key=value, got {text.strip()!r}")
            if key in places:
                raise ConfigError(f"config key {key!r} is given twice, first at "
                                  f"{places[key]}")
            updates[key] = _cast_field(key, raw)
            places[key] = where
        except ConfigError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    merged = replace(config, **updates)
    merged.validate()
    return merged


def _child_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream])))


def _config_snapshot(config: RunConfig) -> dict[str, str]:
    return {f.name: str(getattr(config, f.name)) for f in fields(RunConfig)}


def _file_digest(path: Path) -> str:
    """The sha256 of `path`'s bytes, read a block at a time."""
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(partial(handle.read, DIGEST_BLOCK_BYTES), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass
class PreprocessResult:
    dataset: LogDataset
    embeddings: np.ndarray  # (N, latent_dim), row i is message id i
    run_dir: Path


@dataclass
class TrainResult(PreprocessResult):
    model: DiagnosisModel
    report: MetricsReport


@contextlib.contextmanager
def _stage(name: str):
    """Re-raise any failure inside the block as a StageError named `name`.

    A `_Cancelled` lane call is re-raised as it is: it is not a failure.
    """
    try:
        yield
    except (StageError, _Cancelled):
        raise
    except Exception as exc:
        raise StageError(name, str(exc) or type(exc).__name__) from exc


def collect_logits(model: DiagnosisModel, dataset: TokenTable, records,
                   embeddings: np.ndarray) -> np.ndarray:
    """(N, n_labels) logits of N records, one row each, in chunks of EVAL_CHUNK.

    `records` holds the records' message ids, which index both the token
    table `dataset` (a `LogDataset.table` or a run's `tokens.tbl`) and
    the rows of `embeddings`; `TokenTable.pad` pads them once, in the
    order scoring reads them.

    Scores a SCORE_DTYPE constant copy of `model`, so `model` keeps its
    float64 parameters; `fusion.batch_forward` casts the embedding rows
    and every other constant of the forward pass to the copy's dtype.
    Rows whose top two logits lie within TIE_GAP are scored again by
    `model` itself, so every row's argmax is the float64 model's. The
    result is float64. Only the argmax of a row is used: dev selection
    and test metrics both read it. `embeddings` may be None for a mode
    that reads no statistics embedding.

    The rows are scored in a stable sort by padded width, so a chunk
    pads little. Sorted chunk i is `_map_lanes` call i, run in lane
    `i % lanes` (lane 0 here) of `min(usable CPUs, N // LANE_MIN_ROWS)`
    (`_lane_count`): two or more from 2 * LANE_MIN_ROWS rows. Each chunk
    holds the same rows, padded to the same width, at every lane count,
    so the logits do not depend on it. The float64 re-score runs here
    after the lanes join, on the tied rows in sorted order.
    """
    records = np.asarray(records, dtype=np.int64)
    widths = dataset.widths(records, model.m_fixed)
    # numpy sorts keys of at most 16 bits stably by radix; its int64 sorts
    # paged in about 0.4 MB more code and raised a default train's peak RSS.
    order = np.argsort(widths.astype(np.min_scalar_type(model.m_fixed)), kind="stable")
    sorted_records = records[order]
    inputs = (*dataset.pad(sorted_records, model.m_fixed), sorted_records, embeddings)
    scorer = fusion.constant_copy(model, SCORE_DTYPE)
    chunks = [slice(i, i + EVAL_CHUNK) for i in range(0, len(records), EVAL_CHUNK)]
    parts = _map_lanes([partial(_chunk_logits, scorer, inputs, rows) for rows in chunks],
                       _lane_count(len(records) // LANE_MIN_ROWS))
    logits = np.empty((len(records), model.n_labels))
    for rows, part in zip(chunks, parts):
        logits[order[rows]] = part
    del parts
    if model.n_labels < 2:
        return logits
    top2 = np.partition(logits, -2, axis=1)[:, -2:]
    ties = np.flatnonzero((top2[:, 1] - top2[:, 0] <= TIE_GAP)[order])  # sorted places
    for start in range(0, ties.size, EVAL_CHUNK):
        rows = ties[start:start + EVAL_CHUNK]
        logits[order[rows]] = _chunk_logits(model, inputs, rows)
    return logits


def _forward(model: DiagnosisModel, inputs, rows):
    """`fusion.batch_forward`'s `(logits, saved)` for `rows` of the padded `inputs`.

    The embeddings are read only in a mode that reads statistics, so a
    None in their place fails there and only there.
    """
    ids, slots, message_ids, embeddings = inputs
    stat_rows = (embeddings[message_ids[rows]]
                 if "stats" in fusion.TRAINED_GROUPS[model.mode] else None)
    return fusion.batch_forward(model, *fusion.batch_rows(ids, slots, rows),
                                stat_rows)


def _chunk_logits(model: DiagnosisModel, inputs, rows) -> np.ndarray:
    """`_forward`'s logits alone, in `model`'s dtype: what a scoring lane sends."""
    return _forward(model, inputs, rows)[0]


def _rows_to_score(table: TokenTable, split: str) -> np.ndarray:
    """The message ids of `split`; an empty split fails stage `evaluate-<split>`."""
    rows = table.split_rows(split)
    if not rows.size:
        raise StageError(f"evaluate-{split}", f"split {split!r} has no records to score")
    return rows


def _split_report(model, table: TokenTable, rows, embeddings, labels: list[str],
                  config, started: float) -> MetricsReport:
    """Metrics of records `rows` of `table`, whose label ids index `labels`.

    The wall clock runs from `started` to the end of scoring.
    """
    preds = collect_logits(model, table, rows, embeddings).argmax(axis=1)
    return compute_metrics(table.labels[rows], preds, labels,
                           config=_config_snapshot(config),
                           wall_clock=time.perf_counter() - started)


def _dataset_path(config: RunConfig) -> Path:
    if not config.dataset:
        raise ConfigError("config key 'dataset' is required")
    return Path(config.dataset)


def _split_spec(config: RunConfig) -> SplitSpec:
    return SplitSpec(config.train_ratio, config.dev_ratio, config.test_ratio,
                     config.seed)


# The preprocessing files a shared run copies; `model.ckpt` records each
# one's digest under `<name>_sha256`, and `evaluate` refuses any other bytes.
_SHARED_ARTIFACTS = ("stat_dict.tsv", "tokens.tbl", "vae.ckpt", "vae_log.tsv",
                     "embeddings.tbl")
# The settings that cut the splits; `tokens.tbl` records them with the
# corpus file's digest.
_SPLIT_KEYS = ("train_ratio", "dev_ratio", "test_ratio", "seed")
_TOKENS_META = ("corpus_sha256",) + _SPLIT_KEYS
# Every other setting but the corpus path; `model.ckpt` records them and
# `evaluate` refuses a `run.cfg` that differs in any.
_CHECKPOINT_KEYS = tuple(f.name for f in fields(RunConfig)
                         if f.name not in ("dataset", *_SPLIT_KEYS))


def _open_run(config: RunConfig, out_dir: str | Path, shared: Path | None = None) -> Path:
    """Create `out_dir` with a `run.cfg`, plus byte copies of `shared`'s preprocessing."""
    config.validate()
    run_dir = Path(out_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    save_config(config, run_dir / "run.cfg")
    for name in _SHARED_ARTIFACTS if shared else ():
        shutil.copyfile(shared / name, run_dir / name)
    return run_dir


def build_stats(config: RunConfig, out_dir: str | Path) -> Path:
    """Persist the statistics dictionary of `read_dataset`'s train split only."""
    dict_path = _open_run(config, out_dir) / "stat_dict.tsv"
    with _stage("load-dataset"):
        dataset = read_dataset(_dataset_path(config), _split_spec(config))[0]
    with _stage("stat-dictionary"):
        save_stat_dictionary(build_stat_dictionary(dataset), dict_path)
    return dict_path


def preprocess(config: RunConfig, out_dir: str | Path) -> PreprocessResult:
    """Stages ahead of the classifier: dataset, dictionary, token table, VAE, cache.

    `tokens.tbl` saves the dataset's `TokenTable`, which `evaluate`
    scores from, with the corpus file's digest and the split settings. A
    non-finite VAE loss or embedding stops the run before the VAE
    checkpoint or the embedding cache is written. `_preprocess` says
    which process runs each stage.
    """
    return _preprocess(config, _open_run(config, out_dir))


def _preprocess(config: RunConfig, run_dir: Path) -> PreprocessResult:
    """`preprocess` into `run_dir`.

    This process runs `_read_corpus`. Then lane 1 runs `_pretrain_vae`
    while this process runs `_finish_ingest`. Lane 1 forks only if at
    least LANE_MIN_ROWS records lie outside the train split; else this
    process makes both calls, in that order. `_embed` runs here last.
    """
    dataset, rest, stats, train_vectors = _read_corpus(config)
    all_vectors, (vae, curve) = _map_lanes(
        [partial(_finish_ingest, config, run_dir, dataset, rest, stats),
         partial(_pretrain_vae, config, train_vectors)],
        _lane_count(1 + (len(rest) >= LANE_MIN_ROWS)))
    return _embed(config, run_dir, dataset, all_vectors, vae, curve)


def _read_corpus(config: RunConfig):
    """Parse every line, tokenize the train split, build the dictionary and pool
    the train rows: `(dataset, rest, stats, train_vectors)`, where `rest` is
    what `_finish_ingest` tokenizes."""
    with _stage("load-dataset"):
        dataset, rest = read_dataset(_dataset_path(config), _split_spec(config))
    with _stage("stat-dictionary"):
        stats = build_stat_dictionary(dataset)
    with _stage("vae-pretrain"):
        train_vectors = pooled_stats(stats, dataset, dataset.table.split_rows("train"),
                                     config.m_fixed)
    return dataset, rest, stats, train_vectors


def _embed(config: RunConfig, run_dir: Path, dataset: LogDataset, all_vectors,
           vae, curve) -> PreprocessResult:
    """Save the pretrained `vae` and its loss `curve`, then embed every record's
    pooled statistics `all_vectors` and save the cache."""
    with _stage("vae-pretrain"):
        statvae.save_stat_vae(vae, run_dir / "vae.ckpt")
        _write_rows(run_dir / "vae_log.tsv", ("step", "loss"),
                    [(i, repr(v)) for i, v in enumerate(curve)])

    with _stage("embed-statistics"):
        embeddings = statvae.embed_statistics(vae, all_vectors)
        bad = int((~np.isfinite(embeddings)).any(axis=1).sum())
        if bad:
            raise FloatingPointError(
                f"{bad} of {len(embeddings)} embeddings are non-finite")
        statvae.save_embedding_cache(run_dir / "embeddings.tbl", embeddings)
    return PreprocessResult(dataset, embeddings, run_dir)


def _pretrain_vae(config: RunConfig, train_vectors: np.ndarray):
    """`statvae.pretrain`'s `(vae, curve)` on the train rows' pooled statistics."""
    with _stage("vae-pretrain"):
        return statvae.pretrain(train_vectors, statvae.VaeConfig(
            latent_dim=config.latent_dim, epochs=config.vae_epochs,
            batch_size=config.batch_size, learning_rate=config.learning_rate,
            seed=int(_child_rng(config.seed, 1).integers(2 ** 31))))


def _finish_ingest(config: RunConfig, run_dir: Path, dataset: LogDataset, rest,
                   stats: StatDictionary):
    """Tokenize `rest`, save the dictionary and `tokens.tbl`, and return every
    record's pooled statistics. Neither file records a digest of another
    artifact: the checkpoint `_finish` writes binds both by digest."""
    with _stage("load-dataset"):
        tokenize_rest(_dataset_path(config), dataset, rest)
    with _stage("stat-dictionary"):
        save_stat_dictionary(stats, run_dir / "stat_dict.tsv")
    with _stage("token-table"):
        save_token_table(run_dir / "tokens.tbl", dataset.table, {
            "corpus_sha256": _file_digest(_dataset_path(config)),
            **{key: str(getattr(config, key)) for key in _SPLIT_KEYS}})
    with _stage("embed-statistics"):
        return pooled_stats(stats, dataset, np.arange(len(dataset.table)),
                            config.m_fixed)


def train(config: RunConfig, out_dir: str | Path) -> TrainResult:
    """Run every stage in order and leave all artifacts under out_dir.

    Stages: load dataset, build statistics dictionary, pretrain the VAE,
    cache per-message embeddings, train the classifier with best-dev
    selection, evaluate on test.
    """
    started = time.perf_counter()
    pre = preprocess(config, out_dir)
    model, log_rows = _fit(config, pre.dataset, pre.embeddings)
    report = _finish(config, pre, pre.run_dir, model, log_rows, started)
    return TrainResult(**vars(pre), model=model, report=report)


def _finish(config: RunConfig, pre: PreprocessResult, run_dir: Path,
            model: DiagnosisModel, log_rows, started: float) -> MetricsReport:
    """Save a trained run into `run_dir`, score the test split, save the metrics.

    The train log and the checkpoint are written before scoring; the
    checkpoint records the digest of each of `run_dir`'s
    `_SHARED_ARTIFACTS` and `config`'s `_CHECKPOINT_KEYS`, whose model
    settings rewrite the model's own with equal values. The report's
    wall clock runs from `started` to the end of scoring.
    """
    with _stage("train-classifier"):
        _write_rows(run_dir / "train_log.tsv",
                    ("epoch", "mean_loss", "dev_macro_f1", "selected"), log_rows)
        fusion.save_model(model, run_dir / "model.ckpt", extra_meta={
            **{f"{name}_sha256": _file_digest(run_dir / name)
               for name in _SHARED_ARTIFACTS},
            **{key: str(getattr(config, key)) for key in _CHECKPOINT_KEYS}})
    table = pre.dataset.table
    with _stage("evaluate-test"):
        report = _split_report(model, table, table.split_rows("test"), pre.embeddings,
                               pre.dataset.label_vocab.labels, config, started)
        write_metrics(report, run_dir / "metrics.tsv")
        (run_dir / "metrics.txt").write_text(format_metrics(report) + "\n",
                                             encoding="utf-8")
    return report


@_stage("train-classifier")
def _fit(config: RunConfig, dataset: LogDataset, embeddings: np.ndarray | None):
    """Train with best-dev selection and return `(model, log_rows)`; writes nothing.

    An empty test split fails first, so no classifier trains for a run
    that cannot be scored. `embeddings` may be None in a mode that reads
    none. Adam holds only the mode's trained parameters; every other
    parameter keeps its initial value. An epoch is selected only if its
    dev macro-F1 is strictly above the best so far, so after an epoch
    that scores exactly 1.0 none can be: training stops there, and the
    log ends at that epoch. Without a dev split every epoch is selected
    and every epoch trains.

    In a lane, a failure in any lane stops the fit before its next
    epoch with `_Cancelled`.
    """
    _rows_to_score(dataset.table, "test")
    model = fusion.build_model(
        FIRST_WORD_ID + len(dataset.vocab), dataset.label_vocab.size,
        config.d_model, config.latent_dim, config.m_fixed, config.epsilon,
        config.mode, _child_rng(config.seed, 2))
    optimizer = Adam(model.trained_parameters(), lr=config.learning_rate)
    shuffle_rng = _child_rng(config.seed, 3)
    table = dataset.table
    train_rows = table.split_rows("train")
    dev_rows = table.split_rows("dev")
    inputs = (*table.pad(train_rows, config.m_fixed), train_rows, embeddings)
    labels = table.labels[train_rows]
    best = optimizer.values.copy()
    best_f1 = -1.0
    log_rows = []
    for epoch in range(config.classifier_epochs):
        if _lanes_failed is not None and _lanes_failed[0]:
            raise _Cancelled
        order = shuffle_rng.permutation(len(train_rows))
        losses = []
        for step, start in enumerate(range(0, len(order), config.batch_size)):
            rows = order[start:start + config.batch_size]
            logits, saved = _forward(model, inputs, rows)
            value = fusion.batch_backward(model, logits, saved, labels[rows],
                                          optimizer.grad_views)
            if not np.isfinite(value):
                raise FloatingPointError(
                    f"non-finite loss {value!r} at epoch {epoch} step {step}")
            optimizer.step_flat()
            losses.append(value)
        dev_f1 = (_split_report(model, table, dev_rows, embeddings,
                                dataset.label_vocab.labels, config,
                                time.perf_counter()).macro_f1
                  if dev_rows.size else float("nan"))
        # No dev split: every epoch is selected, so the final parameters stay.
        selected = not dev_rows.size or dev_f1 > best_f1
        if selected:
            best_f1 = dev_f1
            best = optimizer.values.copy()
        log_rows.append((epoch, repr(float(np.mean(losses))) if losses else "nan",
                         repr(dev_f1), int(selected)))
        if dev_f1 == 1.0:
            break
    optimizer.values[...] = best
    return model, log_rows


def _write_rows(path: Path, header, rows) -> None:
    lines = ["\t".join(str(v) for v in header)]
    lines.extend("\t".join(str(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def evaluate(run_dir: str | Path, split: str = "test") -> MetricsReport:
    """Metrics for one split from a finished run's artifacts.

    The split's token ids and labels come from `tokens.tbl`, so the
    corpus is read only to take its digest. Refuses stale artifacts:
    `run.cfg` must hold the model and training settings the checkpoint
    records, the table's token and label ids must lie below the
    checkpoint's vocab_size and n_labels, and each of `_SHARED_ARTIFACTS`
    must have the digest the checkpoint records for it. A checkpoint that
    records no such setting or digest is refused too. When the corpus
    file's digest or `run.cfg`'s split settings are not the ones the
    table records, the corpus is loaded and `_check_corpus` refuses it
    unless every split holds what the table holds.
    """
    run_dir = Path(run_dir)
    with _stage("load-artifacts"):
        config = load_config(run_dir / "run.cfg")
        table, table_meta = load_token_table(run_dir / "tokens.tbl", _TOKENS_META)
        stats = load_stat_dictionary(run_dir / "stat_dict.tsv")
        embeddings = statvae.load_embedding_cache(run_dir / "embeddings.tbl")
        model, meta = fusion.load_model(run_dir / "model.ckpt")
        corpus_hash = _file_digest(_dataset_path(config))

    with _stage("staleness-check"):
        if table_meta["corpus_sha256"] != corpus_hash or any(
                table_meta[key] != str(getattr(config, key)) for key in _SPLIT_KEYS):
            _check_corpus(config, table, stats)
        for key in _CHECKPOINT_KEYS:
            if key not in meta:
                raise ValueError(f"checkpoint records no {key}; retrain")
            if getattr(config, key) != _cast_field(key, meta[key]):
                raise ValueError(f"run.cfg sets {key}={getattr(config, key)}, the "
                                 f"checkpoint {key}={meta[key]}; retrain")
        for what, values, key, size in (
                ("token id", table.ids, "vocab_size", model.encoder.vocab_size),
                ("label id", table.labels, "n_labels", model.n_labels)):
            top = int(values.max(initial=0))
            if top >= size:
                raise ValueError(f"{run_dir / 'tokens.tbl'}: {what} {top} is not below "
                                 f"the checkpoint's {key} {size}; rerun preprocessing")
        for name in _SHARED_ARTIFACTS:
            if meta.get(f"{name}_sha256") != _file_digest(run_dir / name):
                raise ValueError(f"{run_dir / name}: the checkpoint was trained after "
                                 f"a different {name}, or records none; retrain")

    with _stage(f"evaluate-{split}"):
        return _split_report(model, table, _rows_to_score(table, split), embeddings,
                             stats.label_vocab.labels, config, time.perf_counter())


def _check_corpus(config: RunConfig, table: TokenTable, stats: StatDictionary) -> None:
    """Refuse the corpus `run.cfg` names unless it loads into `table` on every split.

    A changed train split fails as one the dictionary was not built
    from; any other changed split fails naming it.
    """
    dataset = load_dataset(_dataset_path(config), _split_spec(config))
    if stats.built_from != train_split_hash(dataset):
        raise ValueError("dataset train split changed since the statistics "
                         "dictionary was built; retrain")
    changed = [name for name in SPLIT_NAMES
               if not all(map(np.array_equal, dataset.table.split_arrays(name),
                              table.split_arrays(name)))]
    if changed:
        raise ValueError(f"the dataset's {' and '.join(changed)} "
                         f"split{'s' * (len(changed) > 1)} changed since "
                         "preprocessing; retrain")


# The failure flag of the lanes this process runs: set for the length of
# a `_map_lanes` call that forked, and in each child it forks. While it is
# set, `_lane_count` gives one lane, so no lane forks lanes of its own by
# that rule. Only a lane count worked out before a call forks inside it:
# `_train_sharing_preprocess` forks the later fits' lanes from lane 0
# while its embedding-free child still trains, so for that long up to
# CPUs + 1 processes are busy. Otherwise processes never outnumber CPUs.
_lanes_failed = None


class _Cancelled(Exception):
    """A lane call stopped once a call in another lane failed."""


def _lane_count(work: int) -> int:
    """Lanes for `work` units: one per CPU this process may use, at most `work`.

    One lane, this process, when lanes already run here or where the OS
    cannot fork (Windows, where `os.fork` is missing): the lanes inherit
    their work unpickled. So a lane forks lanes of its own only with a
    count asked for before its lanes started, as `_train_sharing_preprocess`
    does for the later fits.
    """
    # sched_getaffinity is missing on macOS and Windows
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    lanes = min(work, cpus)
    if lanes > 1 and _lanes_failed is None and hasattr(os, "fork"):
        return lanes
    return 1


def _map_lanes(calls, lanes: int) -> list:
    """`[call() for call in calls]` of zero-argument calls, call i in lane `i % lanes`.

    This process makes lane 0's calls in order. Each other lane is a
    child forked here at the start, which makes its calls from its copy
    of this process's memory and, once its last call ends, sends every
    result back pickled through a pipe of its own. Once a call fails, a
    flag in memory that every lane shares stops each lane before its
    next call, so no queued call starts, and a started call may stop
    early by raising `_Cancelled` (`_fit` does before its next epoch),
    which ends its lane as the flag does. The first failure read (this
    process's own, else the earliest child call's) is re-raised here. A
    child that exits before it sends its results fails at its lane's
    first call, with an error naming its lane. No child outlives the
    call.

    A call in lane 0 may make a `_map_lanes` call that forks, given a
    lane count worked out before this one: the two share the flag. If
    a failure outside the inner call stops it, it raises `_Cancelled`,
    and this call re-raises the failure read from its own lanes.

    The children's pipes are read in lane order once lane 0 is done. So
    with 3 or more lanes, a child that dies without sending a result is
    noticed only once the lanes before it are read, and until then those
    lanes may still start their queued calls.
    """
    if lanes == 1:
        return [call() for call in calls]
    global _lanes_failed
    import mmap  # here, so a run that never forks never loads it

    enclosing = _lanes_failed
    # shared; byte 0 is set once a call fails
    failed = mmap.mmap(-1, 1) if enclosing is None else enclosing
    children, results = {}, {}
    _lanes_failed = failed
    _flush_std_streams()  # else a child would write the buffered text again
    try:
        for lane in range(1, lanes):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_end)
                os.close(write_end)
                raise
            if not pid:
                _serve_lane(calls, lane, lanes, write_end, failed)
            os.close(write_end)
            children[open(read_end, "rb")] = lane, pid
        for index in range(0, len(calls), lanes):
            if failed[0]:
                break
            results[index] = calls[index]()
    except _Cancelled:
        pass  # the flag is set: the failure is read below or in an enclosing call
    except BaseException:
        failed[0] = 1
        raise
    finally:
        _lanes_failed = enclosing
        joined, failures = _join_lanes(children, calls, lanes, failed)
    if failures:
        raise failures[min(failures)]
    results.update(joined)
    if len(results) < len(calls):
        raise _Cancelled  # a lane of an enclosing call failed
    return [results[i] for i in range(len(calls))]


def _serve_lane(calls, lane: int, lanes: int, fd: int, failed) -> None:
    """Make lane `lane`'s calls in this forked child, then exit; never returns.

    Pickles each call's `(index, ok, result or failure)` as it ends and
    writes them all to pipe `fd` in one write after the last call, so a
    full pipe never stalls a call. A failure sets `failed`, and no call
    starts once it is set.
    """
    code = 1
    try:
        frames = []
        for index in range(lane, len(calls), lanes):
            if failed[0]:
                break
            try:
                frames.append(pickle.dumps((index, True, calls[index]())))
            except _Cancelled:
                break  # the flag is set; the lane that failed reports it
            except BaseException as exc:
                failed[0] = 1
                frames.append(_failure_frame(index, lane, exc))
        with open(fd, "wb") as out:
            out.write(b"".join(frames))
        code = 0
    finally:
        _flush_std_streams()
        os._exit(code)


def _failure_frame(index: int, lane: int, exc: BaseException) -> bytes:
    """The pickled frame of call `index`'s failure `exc`.

    A failure that does not survive pickling is sent as a RuntimeError
    that names the lane and the failure's type and message.
    """
    try:
        frame = pickle.dumps((index, False, exc))
        pickle.loads(frame)  # an exception whose __init__ wants other arguments fails here
        return frame
    except Exception:
        return pickle.dumps((index, False, RuntimeError(
            f"lane {lane}: {type(exc).__name__}: {exc}")))


def _join_lanes(children, calls, lanes: int, failed) -> tuple[dict, dict]:
    """Read every child's frames, reap it, and return `(results, failures)` by call.

    `children` maps each child's pipe, opened for reading, to its lane and
    pid, in lane order. Each pipe is read to its end in that order; a
    child blocks only on its own pipe, so one whose results outgrow it
    waits for its turn. A child that returned nothing for a call that
    no failure cancelled fails at that call and sets `failed`. If this
    wait is interrupted, every child not yet reaped is killed and reaped.
    """
    results, failures = {}, {}
    unreaped = dict(children)
    try:
        for pipe, (lane, pid) in children.items():
            with pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del unreaped[pipe]
            stream = io.BytesIO(data)
            # a frame cut short by a child that died writing it ends the stream
            with contextlib.suppress(Exception):
                while stream.tell() < len(data):
                    index, ok, value = pickle.load(stream)
                    (results if ok else failures)[index] = value
            lost = [i for i in range(lane, len(calls), lanes)
                    if i not in results and i not in failures]
            if lost and (code or not failed[0]):
                failed[0] = 1
                failures[lost[0]] = RuntimeError(
                    f"lane {lane} (exit code {code}) returned no result for "
                    f"call {lost[0]}")
        return results, failures
    finally:
        for pipe, (_, pid) in unreaped.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _flush_std_streams() -> None:
    for stream in (sys.stdout, sys.stderr):
        with contextlib.suppress(Exception):
            stream.flush()


def _run_dir(runs, pre: PreprocessResult, index: int) -> Path:
    """Run `index`'s directory: run 0's holds `pre`, any other gets a byte copy."""
    config, run_dir = runs[index]
    return _open_run(config, run_dir, shared=pre.run_dir) if index else pre.run_dir


def _fit_run(runs, pre: PreprocessResult, index: int, started: float) -> MetricsReport:
    """Train, save and score run `index` of `runs` on the preprocessing in run 0."""
    if index:
        started = time.perf_counter()
    config, run_dir = runs[index][0], _run_dir(runs, pre, index)
    return _finish(config, pre, run_dir, *_fit(config, pre.dataset, pre.embeddings),
                   started)


def _fit_runs(runs, pre: PreprocessResult, order, started: float,
              lanes: int) -> dict[int, MetricsReport]:
    """`_fit_run` of each run index of `order`, on `lanes` lanes; reports by index."""
    return dict(zip(order, _map_lanes([partial(_fit_run, runs, pre, i, started)
                                       for i in order], lanes)))


def _train_sharing_preprocess(runs) -> list[MetricsReport]:
    """Train every `(config, run_dir)` pair on one preprocessing pass.

    The configs may differ only in fields `preprocess` does not read
    (`mode`, `epsilon`, `d_model`): every config is validated, and one
    that differs from the first in another field is refused with a
    ConfigError naming it, before any work. The first run preprocesses
    into its own directory; each later run gets its own `run.cfg` and a
    byte copy of those artifacts, so every run directory equals what
    `train` alone would leave. Each fit depends only on its config and
    the shared preprocessing, so no artifact depends on the lane count.

    The runs train in this order: the first run whose mode reads no
    statistics embedding (the embedding-free run), if any, then the
    others in ascending order of the parameter groups their modes train
    and then `d_model`, which orders them by trained entries (ties in run
    order). With two or more lanes (`_lane_count` of the runs), the
    embedding-free run trains in a child of its own, forked by
    `_map_lanes` once ingest has finished here. Meanwhile this process
    pretrains the VAE and saves it and the embedding cache, then trains
    the other runs by the lane rule, so this process starts with the
    smallest. The child is joined last; this process then saves the
    embedding-free run, whose checkpoint binds the cache, and scores its
    test split outside any lane. Otherwise `preprocess` runs first, then
    every run trains by the lane rule.

    Every wall clock ends with its run's test scoring. Run 0's starts with
    this call, and so does the embedding-free run's when it trains in its
    own child: it then covers the whole call up to its test scoring,
    which comes after every other run's. Any other run's covers copying
    the artifacts and its classifier.
    """
    first = runs[0][0]
    for config, _ in runs:
        config.validate()
        for f in fields(RunConfig):
            if (f.name not in ("mode", "epsilon", "d_model")
                    and getattr(config, f.name) != getattr(first, f.name)):
                raise ConfigError(
                    f"runs sharing preprocessing must agree on {f.name}, got "
                    f"{getattr(first, f.name)!r} and {getattr(config, f.name)!r}")
    started = time.perf_counter()
    run_dir = _open_run(*runs[0])
    free = next((i for i, (config, _) in enumerate(runs)
                 if "stats" not in fusion.TRAINED_GROUPS[config.mode]), None)
    order = sorted(range(len(runs)), key=lambda i: (
        i != free, len(fusion.TRAINED_GROUPS[runs[i][0].mode]), runs[i][0].d_model))
    lanes = _lane_count(len(runs))
    if free is None or lanes == 1:
        reports = _fit_runs(runs, _preprocess(first, run_dir), order, started, lanes)
    else:
        dataset, rest, stats, train_vectors = _read_corpus(first)
        all_vectors = _finish_ingest(first, run_dir, dataset, rest, stats)
        later = order[1:]
        later_lanes = _lane_count(len(later))

        def pretrain_then_fit_later():
            pre = _embed(first, run_dir, dataset, all_vectors,
                         *_pretrain_vae(first, train_vectors))
            return pre, _fit_runs(runs, pre, later, started, later_lanes)

        (pre, reports), fit = _map_lanes(
            [pretrain_then_fit_later, partial(_fit, runs[free][0], dataset, None)], 2)
        reports[free] = _finish(runs[free][0], pre, _run_dir(runs, pre, free), *fit,
                                started)
    return [reports[i] for i in range(len(runs))]


def run_ablation(config: RunConfig, out_dir: str | Path) -> dict[str, MetricsReport]:
    """Full model plus the three ablations, identical settings and seed.

    The modes share one preprocessing pass; `<out_dir>/<mode>` holds the
    files `train` would write there. `semantic_only` reads no statistics
    embedding, so with two or more CPUs a forked child trains it from the
    end of ingest while this process pretrains the VAE; the other three
    then train on parallel lanes, one per CPU up to three, beside that
    child. `_train_sharing_preprocess` says what each wall clock covers.
    """
    out_dir = Path(out_dir)
    reports = dict(zip(MODES, _train_sharing_preprocess(
        [(replace(config, mode=mode), out_dir / mode) for mode in MODES])))
    _write_rows(out_dir / "ablation.tsv", ("mode", "macro_f1", "micro_f1"),
                [(mode, repr(rep.macro_f1), repr(rep.micro_f1))
                 for mode, rep in reports.items()])
    return reports


SWEEP_AXES = {"hidden_dim": "d_model", "epsilon": "epsilon"}


def run_sweep(config: RunConfig, axis: str, grid,
              out_dir: str | Path) -> list[tuple[float, MetricsReport]]:
    """One training run per grid value on the chosen axis.

    Every point is cast and validated, and duplicates are refused,
    before any work. The points share one preprocessing pass and train
    on parallel lanes, one per CPU up to one per point; in
    `semantic_only` mode, with two or more CPUs, a forked child trains
    the first point from the end of ingest while this process pretrains
    the VAE and then trains the others. `_train_sharing_preprocess` says
    what each wall clock covers.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep axis must be one of {sorted(SWEEP_AXES)}, got {axis!r}")
    field_name = SWEEP_AXES[axis]
    values = [_cast_field(field_name, value) for value in grid]
    if not values:
        raise ConfigError("sweep grid is empty")
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise ConfigError(f"sweep grid repeats {axis} value(s) {repeated}")
    out_dir = Path(out_dir)
    reports = _train_sharing_preprocess(
        [(replace(config, **{field_name: value}), out_dir / f"{axis}={value}")
         for value in values])
    results = list(zip(values, reports))
    _write_rows(out_dir / "sweep.tsv",
                (axis, "macro_f1", "micro_f1", "wall_clock"),
                [(value, repr(rep.macro_f1), repr(rep.micro_f1),
                  repr(rep.wall_clock)) for value, rep in results])
    return results
