"""End-to-end orchestration: preprocessing, pretraining, training, reports.

Every stage is deterministic for a given (config, seed); sub-stages draw
from independent child seeds so changing one stage's schedule never
shifts another's randomness.
"""

from __future__ import annotations

import contextlib
import hashlib
import shutil
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import fusion, statvae
from .corpus import (FIRST_WORD_ID, LogDataset, SplitSpec, load_dataset,
                     train_split_hash)
from .fusion import MODES, DiagnosisModel
from .metrics import MetricsReport, compute_metrics, format_metrics, write_metrics
from .optim import Adam
# message_stats stays importable here: perfbench traces it under this name.
from .wordstats import (StatDictionary, build_stat_dictionary,  # noqa: F401
                        load_stat_dictionary, message_stats, pooled_stats,
                        save_stat_dictionary)


EVAL_CHUNK = 32  # records per forward pass when scoring: one default training batch
SCORE_DTYPE = np.float32  # scoring arithmetic; training stays float64
# A row whose two largest SCORE_DTYPE logits lie within this gap is scored
# again in float64. Over 66,800 scored rows the float32 logits were within
# 2.4e-5 of the float64 ones (largest |logit| 12), and one float64 top-2 gap
# was 2.8e-7: float32 alone flipped that prediction.
TIE_GAP = 1e-3


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name for diagnostics."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


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
        for name in ("m_fixed", "d_model", "latent_dim", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("vae_epochs", "classifier_epochs"):
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
    values = {}
    for ln, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        values[key.strip()] = _cast_field(key.strip(), raw.strip())
    config = RunConfig(**values)
    config.validate()
    return config


def save_config(config: RunConfig, path: str | Path) -> None:
    """Write a valid `config` as `key=value` lines `load_config` reads back."""
    config.validate()
    lines = [f"{f.name}={getattr(config, f.name)}" for f in fields(RunConfig)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def apply_overrides(config: RunConfig, pairs) -> RunConfig:
    """New config with `key=value` override strings applied."""
    updates = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override must be key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        updates[key.strip()] = _cast_field(key.strip(), raw.strip())
    merged = replace(config, **updates)
    merged.validate()
    return merged


def _child_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream])))


def _config_snapshot(config: RunConfig) -> dict[str, str]:
    return {f.name: str(getattr(config, f.name)) for f in fields(RunConfig)}


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class PreprocessResult:
    dataset: LogDataset
    stats: StatDictionary
    vae: statvae.StatVae
    embeddings: np.ndarray  # (N, latent_dim), row i is message id i
    dict_hash: str
    run_dir: Path


@dataclass
class TrainResult:
    model: DiagnosisModel
    report: MetricsReport
    dataset: LogDataset
    stats: StatDictionary
    vae: statvae.StatVae
    embeddings: np.ndarray
    run_dir: Path


@contextlib.contextmanager
def _stage(name: str):
    """Re-raise any failure inside the block as a StageError named `name`."""
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, str(exc)) from exc


def _batch_logits(model: DiagnosisModel, dataset: LogDataset, records,
                  embeddings: np.ndarray) -> ad.Tensor:
    """(len(records), n_labels) logits from one forward pass."""
    return fusion.forward(model, [dataset.token_ids(rec.tokens) for rec in records],
                          embeddings[[rec.message_id for rec in records]])


def collect_logits(model: DiagnosisModel, dataset: LogDataset, records,
                   embeddings: np.ndarray) -> np.ndarray:
    """(N, n_labels) logits, one row per record, in chunks of EVAL_CHUNK.

    Scores a SCORE_DTYPE constant copy of `model`, so that pass builds no
    graph and `model` keeps its float64 parameters. `autodiff` casts the
    embedding rows and every other plain-array constant of the forward
    pass to the copy's dtype. Rows whose top two logits lie within
    TIE_GAP are scored again by `model` itself, so every row's argmax is
    the float64 model's. The result is float64. Only the argmax of a row
    is used: dev selection and test metrics both read it.
    """
    logits = np.zeros((len(records), model.n_labels))
    scorer = fusion.constant_copy(model, SCORE_DTYPE)
    for start in range(0, len(records), EVAL_CHUNK):
        logits[start:start + EVAL_CHUNK] = _batch_logits(
            scorer, dataset, records[start:start + EVAL_CHUNK], embeddings).values
    if model.n_labels < 2:
        return logits
    top2 = np.partition(logits, -2, axis=1)[:, -2:]
    ties = np.flatnonzero(top2[:, 1] - top2[:, 0] <= TIE_GAP)
    for start in range(0, ties.size, EVAL_CHUNK):
        rows = ties[start:start + EVAL_CHUNK]
        logits[rows] = _batch_logits(model, dataset, [records[i] for i in rows],
                                     embeddings).values
    return logits


def _records_to_score(dataset: LogDataset, split: str):
    """The records of `split`; an empty split fails stage `evaluate-<split>`."""
    records = dataset.split_records(split)
    if not records:
        raise StageError(f"evaluate-{split}", f"split {split!r} has no records to score")
    return records


def _split_report(model, dataset, records, embeddings, config,
                  wall_clock: float) -> MetricsReport:
    true_ids = np.array([rec.label_id for rec in records], dtype=np.int64)
    preds = collect_logits(model, dataset, records, embeddings).argmax(axis=1)
    return compute_metrics(true_ids, preds, dataset.label_vocab.labels,
                           config=_config_snapshot(config), wall_clock=wall_clock)


def _load_stage_dataset(config: RunConfig) -> LogDataset:
    if not config.dataset:
        raise ConfigError("config key 'dataset' is required")
    spec = SplitSpec(config.train_ratio, config.dev_ratio,
                     config.test_ratio, config.seed)
    return load_dataset(config.dataset, split_spec=spec)


def _dictionary_stages(config: RunConfig,
                       run_dir: Path) -> tuple[LogDataset, StatDictionary, Path]:
    """Load the dataset, then build and save its statistics dictionary."""
    with _stage("load-dataset"):
        dataset = _load_stage_dataset(config)
    with _stage("stat-dictionary"):
        stats = build_stat_dictionary(dataset)
        dict_path = run_dir / "stat_dict.tsv"
        save_stat_dictionary(stats, dict_path)
    return dataset, stats, dict_path


def _make_run_dir(config: RunConfig, out_dir: str | Path) -> Path:
    config.validate()
    run_dir = Path(out_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    return run_dir


def build_stats(config: RunConfig, out_dir: str | Path) -> Path:
    """Load the dataset and persist its statistics dictionary only."""
    return _dictionary_stages(config, _make_run_dir(config, out_dir))[2]


def preprocess(config: RunConfig, out_dir: str | Path) -> PreprocessResult:
    """Stages ahead of the classifier: dataset, dictionary, VAE, cache.

    A non-finite VAE loss or embedding stops the run before the VAE
    checkpoint or the embedding cache is written.
    """
    run_dir = _make_run_dir(config, out_dir)
    save_config(config, run_dir / "run.cfg")
    dataset, stats, dict_path = _dictionary_stages(config, run_dir)
    dict_hash = _file_digest(dict_path)

    with _stage("vae-pretrain"):
        # records are numbered 0..N-1 in file order, so row i is message i
        all_vectors = pooled_stats(stats, dataset.records, config.m_fixed)
        train_ids = [rec.message_id for rec in dataset.split_records("train")]
        vae_config = statvae.VaeConfig(
            latent_dim=config.latent_dim, epochs=config.vae_epochs,
            batch_size=config.batch_size, learning_rate=config.learning_rate,
            seed=int(_child_rng(config.seed, 1).integers(2 ** 31)))
        vae, curve = statvae.pretrain(all_vectors[train_ids], vae_config)
        statvae.save_stat_vae(vae, run_dir / "vae.ckpt")
        _write_rows(run_dir / "vae_log.tsv", ("step", "loss"),
                    [(i, repr(v)) for i, v in enumerate(curve)])

    with _stage("embed-statistics"):
        embeddings = statvae.embed_statistics(vae, all_vectors)
        bad = int((~np.isfinite(embeddings)).any(axis=1).sum())
        if bad:
            raise FloatingPointError(
                f"{bad} of {len(embeddings)} embeddings are non-finite")
        statvae.save_embedding_cache(run_dir / "embeddings.tbl", embeddings,
                                     dict_hash)
    return PreprocessResult(dataset, stats, vae, embeddings, dict_hash, run_dir)


def train(config: RunConfig, out_dir: str | Path) -> TrainResult:
    """Run every stage in order and leave all artifacts under out_dir.

    Stages: load dataset, build statistics dictionary, pretrain the VAE,
    cache per-message embeddings, train the classifier with best-dev
    selection, evaluate on test.
    """
    started = time.perf_counter()
    return _fit(config, preprocess(config, out_dir), started)


def _fit(config: RunConfig, pre: PreprocessResult, started: float) -> TrainResult:
    """Train the classifier on `pre`, save it and score the test split.

    An empty test split fails before the classifier trains. The report's
    wall clock runs from `started`.
    """
    dataset, embeddings, run_dir = pre.dataset, pre.embeddings, pre.run_dir
    test_records = _records_to_score(dataset, "test")
    with _stage("train-classifier"):
        model, log_rows = _train_classifier(config, dataset, embeddings)
        _write_rows(run_dir / "train_log.tsv",
                    ("epoch", "mean_loss", "dev_macro_f1", "selected"), log_rows)
        fusion.save_model(model, run_dir / "model.ckpt", extra_meta={
            "dict_hash": pre.dict_hash, "train_hash": train_split_hash(dataset)})

    with _stage("evaluate-test"):
        report = _split_report(model, dataset, test_records, embeddings, config,
                               time.perf_counter() - started)
        write_metrics(report, run_dir / "metrics.tsv")
        (run_dir / "metrics.txt").write_text(format_metrics(report) + "\n",
                                             encoding="utf-8")
    return TrainResult(model, report, dataset, pre.stats, pre.vae,
                       embeddings, run_dir)


def _train_classifier(config: RunConfig, dataset: LogDataset,
                      embeddings: np.ndarray):
    vocab_size = FIRST_WORD_ID + len(dataset.vocab)
    init_rng = _child_rng(config.seed, 2)
    model = fusion.build_model(
        vocab_size, dataset.label_vocab.size, config.d_model, config.latent_dim,
        config.m_fixed, config.epsilon, config.mode, init_rng)
    params = model.parameters()
    optimizer = Adam(params, lr=config.learning_rate)
    shuffle_rng = _child_rng(config.seed, 3)
    train_records = dataset.split_records("train")
    dev_records = dataset.split_records("dev")
    best_values = {name: t.values.copy() for name, t in params.items()}
    best_f1 = -1.0
    log_rows = []
    for epoch in range(config.classifier_epochs):
        order = shuffle_rng.permutation(len(train_records))
        losses = []
        for step, start in enumerate(range(0, len(order), config.batch_size)):
            batch = [train_records[i] for i in order[start:start + config.batch_size]]
            loss = ad.cross_entropy(
                _batch_logits(model, dataset, batch, embeddings),
                np.array([rec.label_id for rec in batch], dtype=np.int64))
            value = float(loss.values)
            if not np.isfinite(value):
                raise FloatingPointError(
                    f"non-finite loss {value!r} at epoch {epoch} step {step}")
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            losses.append(value)
        dev_f1 = (_split_report(model, dataset, dev_records, embeddings, config, 0.0)
                  .macro_f1 if dev_records else float("nan"))
        # No dev split: every epoch is selected, so the final parameters stay.
        selected = not dev_records or dev_f1 > best_f1
        if selected:
            best_f1 = dev_f1
            best_values = {name: t.values.copy() for name, t in params.items()}
        log_rows.append((epoch, repr(float(np.mean(losses))) if losses else "nan",
                         repr(dev_f1), int(selected)))
    for name, tensor in params.items():
        tensor.values = best_values[name]
    return model, log_rows


def _write_rows(path: Path, header, rows) -> None:
    lines = ["\t".join(str(v) for v in header)]
    lines.extend("\t".join(str(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def evaluate(run_dir: str | Path, split: str = "test") -> MetricsReport:
    """Metrics for one split from a finished run's artifacts.

    Refuses to run when the statistics dictionary, embedding cache and
    checkpoint digests disagree (stale artifacts).
    """
    run_dir = Path(run_dir)
    with _stage("load-artifacts"):
        config = load_config(run_dir / "run.cfg")
        dataset = _load_stage_dataset(config)
        load_stat_dictionary(run_dir / "stat_dict.tsv")
        dict_hash = _file_digest(run_dir / "stat_dict.tsv")
        embeddings, cached_hash = statvae.load_embedding_cache(
            run_dir / "embeddings.tbl")
        model, meta = fusion.load_model(run_dir / "model.ckpt")

    with _stage("staleness-check"):
        if cached_hash != dict_hash:
            raise ValueError("embedding cache was built from a different "
                             "statistics dictionary; rerun preprocessing")
        if meta.get("dict_hash") != dict_hash:
            raise ValueError("checkpoint was trained against a different "
                             "statistics dictionary; retrain")
        if meta.get("train_hash") != train_split_hash(dataset):
            raise ValueError("dataset train split changed since training; retrain")

    with _stage(f"evaluate-{split}"):
        started = time.perf_counter()
        return _split_report(model, dataset, _records_to_score(dataset, split),
                             embeddings, config, time.perf_counter() - started)


_SHARED_ARTIFACTS = ("stat_dict.tsv", "vae.ckpt", "vae_log.tsv", "embeddings.tbl")


def _train_sharing_preprocess(runs) -> list[MetricsReport]:
    """Train every `(config, run_dir)` pair on one preprocessing pass.

    The configs may differ only in fields `preprocess` does not read
    (`mode`, `epsilon`, `d_model`). Every config is validated before any
    work. Each later run gets its own `run.cfg` and a byte copy of the
    first run's preprocessing artifacts, so every run directory equals
    what `train` alone would leave.
    """
    for config, _ in runs:
        config.validate()
    reports, pre = [], None
    for config, run_dir in runs:
        started = time.perf_counter()
        if pre is None:
            pre = preprocess(config, run_dir)
            source = pre.run_dir
        else:
            run_dir = _make_run_dir(config, run_dir)
            save_config(config, run_dir / "run.cfg")
            for name in _SHARED_ARTIFACTS:
                shutil.copyfile(source / name, run_dir / name)
            pre = replace(pre, run_dir=run_dir)
        reports.append(_fit(config, pre, started).report)
    return reports


def run_ablation(config: RunConfig, out_dir: str | Path) -> dict[str, MetricsReport]:
    """Full model plus the three ablations, identical settings and seed.

    The modes share one preprocessing pass; `<out_dir>/<mode>` holds the
    files `train` would write there. The `full` report's wall clock
    covers preprocessing and its classifier; each other mode's covers
    copying the artifacts and its own classifier.
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
    before any work. The points share one preprocessing pass: the first
    point's wall clock covers preprocessing and its classifier; each
    later point's covers copying the artifacts and its own classifier.
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
