"""Config handling and the staged train/evaluate/ablation/sweep pipeline."""

import errno
import math
import os
import pickle
import re
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from loggate import corpus, fusion, pipeline, statvae
from loggate.autodiff import Tensor
from loggate.corpus import CorpusError, LogRecord, load_dataset, SplitSpec, TokenTable
from loggate.pipeline import (ConfigError, RunConfig, StageError,
                              apply_overrides, build_stats, collect_logits,
                              evaluate, load_config, preprocess, run_ablation,
                              run_sweep, save_config, train)
from loggate.fusion import MODES
from loggate.metrics import write_metrics
from loggate.optim import Adam
from loggate.semantic import pad_tokens
from loggate.serialize import load_table, save_table
from loggate.synth import (Injection, LabelSpec, SynthSpec, generate_synthetic,
                           make_default_spec, word_bank)
from loggate.wordstats import StatError, load_stat_dictionary

import helpers
from helpers import (ReferenceAdam, random_text, reference_accumulate,
                     reference_pooled_stats, reference_pretrain, total_tokens)

MINI_CORPUS = Path(__file__).resolve().parent / "data" / "mini_corpus.tsv"


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    bank = word_bank(40, "pipe-test")
    pools = {"ka": bank[:5], "kb": bank[5:10], "shared": bank[10:25]}
    spec = SynthSpec("pipe", 30, pools,
                     [LabelSpec("la", ["{ka} {shared} {ka} {shared}"]),
                      LabelSpec("lb", ["{kb} {shared} {kb} {shared}"])])
    path = tmp_path_factory.mktemp("corpus") / "corpus.tsv"
    generate_synthetic(spec, 3, path)
    return path


@pytest.fixture(scope="module")
def base_config(corpus_path):
    return RunConfig(dataset=str(corpus_path), m_fixed=6, d_model=8,
                     latent_dim=3, epsilon=0.2, learning_rate=3e-3,
                     batch_size=16, vae_epochs=2, classifier_epochs=3, seed=7)


@pytest.fixture(scope="module")
def trained(base_config, tmp_path_factory):
    return train(base_config, tmp_path_factory.mktemp("run"))


# -- config -----------------------------------------------------------------


def test_config_roundtrip(tmp_path, base_config):
    path = tmp_path / "run.cfg"
    save_config(base_config, path)
    assert load_config(path) == base_config


def test_config_comments_and_blanks(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# comment\n\ndataset=x.tsv\nseed = 11\n", encoding="utf-8")
    config = load_config(path)
    assert config.dataset == "x.tsv"
    assert config.seed == 11


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("no_such_key=1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(path)


def test_config_rejects_bad_value_and_line(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("seed=abc\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="expects int"):
        load_config(path)
    path.write_text("dataset=x\njunk line\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=":2:"):
        load_config(path)


def test_a_bad_setting_names_the_line_or_override_it_came_from(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("dataset=x\n\nseed=abc\n", encoding="utf-8")
    with pytest.raises(ConfigError,
                       match=rf"^{re.escape(str(path))}:3: config key 'seed' expects int"):
        load_config(path)
    with pytest.raises(ConfigError, match=r"^override: unknown config key 'sed'"):
        apply_overrides(RunConfig(), ["sed=1"])
    with pytest.raises(ConfigError, match=r"^override: expected key=value, got 'seed'"):
        apply_overrides(RunConfig(), ["seed"])
    path.write_text("epsilon=0.1\nseed=3\nepsilon=0.3\n", encoding="utf-8")
    where = re.escape(str(path))
    with pytest.raises(ConfigError, match=rf"^{where}:3: config key 'epsilon' is "
                                          rf"given twice, first at {where}:1$"):
        load_config(path)
    with pytest.raises(ConfigError, match=r"^override: config key 'seed' is given "
                                          r"twice, first at override$"):
        apply_overrides(RunConfig(), ["seed=3", "seed=4"])
    # a file key that an override sets again comes from two calls
    path.write_text("seed=3\n", encoding="utf-8")
    assert apply_overrides(load_config(path), ["seed=4"]).seed == 4


@pytest.mark.parametrize("overrides,message", [
    (dict(epsilon=0.7), "epsilon"),
    (dict(epsilon=-0.1), "epsilon"),
    (dict(mode="bogus"), "mode"),
    (dict(m_fixed=0), "m_fixed"),
    (dict(classifier_epochs=-1), "classifier_epochs"),
    (dict(train_ratio=0.5), "split ratios"),
    (dict(seed=-1), "seed must be >= 0"),
])
def test_config_validation(overrides, message):
    with pytest.raises(ConfigError, match=message):
        RunConfig(dataset="x", **overrides).validate()


@pytest.mark.parametrize("rate", ["0", "-1e-3", "nan", "inf", "-inf"])
def test_config_rejects_a_learning_rate_that_cannot_train(rate):
    with pytest.raises(ConfigError, match="learning_rate must be finite and positive"):
        apply_overrides(RunConfig(dataset="x"), [f"learning_rate={rate}"])
    with pytest.raises(ConfigError, match="learning_rate"):
        RunConfig(dataset="x", learning_rate=float(rate)).validate()


def test_apply_overrides(base_config):
    merged = apply_overrides(base_config, ["seed=9", "mode=no_gate"])
    assert merged.seed == 9 and merged.mode == "no_gate"
    assert base_config.seed == 7  # original untouched
    with pytest.raises(ConfigError, match="key=value"):
        apply_overrides(base_config, ["seed:9"])
    with pytest.raises(ConfigError, match="epsilon"):
        apply_overrides(base_config, ["epsilon=0.9"])



@pytest.mark.parametrize("fields,message", [
    *[pytest.param(dict(dataset=dataset), "dataset must not hold a line break",
                   id=dataset)
      for dataset in [" a.tsv", "a.tsv ", "\ta.tsv", "a\nseed=99", "a\r\nb",
                      "a\u2028b", "a\x0bb"]],
    # sums to 1, so only the sign check refuses it before `SplitSpec` would
    pytest.param(dict(dataset="a.tsv", train_ratio=1.2, dev_ratio=-0.2,
                      test_ratio=0.0),
                 "split ratios must be non-negative", id="negative-ratio"),
])
def test_save_config_refuses_values_that_do_not_round_trip(tmp_path, fields, message):
    path = tmp_path / "run.cfg"
    with pytest.raises(ConfigError, match=message):
        save_config(RunConfig(**fields), path)
    assert not path.exists()
    with pytest.raises(ConfigError, match=message):
        train(RunConfig(**fields), tmp_path / "run")
    assert not (tmp_path / "run").exists()


# A dataset path may hold inner blanks, "=", "#" and non-ASCII letters.
PATH_CHARS = "abzAZ09_-./=#\u00e9\u6f22 "


def test_random_configs_round_trip(tmp_path):
    rng = np.random.Generator(np.random.PCG64(303))
    path = tmp_path / "run.cfg"
    for trial in range(300):
        train_ratio = float(rng.uniform(0.1, 0.9))
        dev_ratio = float(rng.uniform(0.0, 1.0 - train_ratio))
        config = RunConfig(
            dataset="x" + random_text(rng, PATH_CHARS, 0, 20) + "y",
            train_ratio=train_ratio, dev_ratio=dev_ratio,
            test_ratio=1.0 - train_ratio - dev_ratio,
            m_fixed=int(rng.integers(1, 10 ** 6)),
            d_model=int(rng.integers(1, 512)),
            latent_dim=int(rng.integers(1, 64)),
            epsilon=float(rng.choice([0.0, 0.5, rng.uniform(0.0, 0.5)])),
            learning_rate=float(rng.choice([1e-3, 3e-7, 10 ** rng.uniform(-8, 1)])),
            batch_size=int(rng.integers(1, 1024)),
            vae_epochs=int(rng.integers(0, 100)),
            classifier_epochs=int(rng.integers(0, 100)),
            seed=int(rng.integers(0, 2 ** 62)),
            mode=str(rng.choice(MODES)))
        config.validate()
        save_config(config, path)
        blob = path.read_bytes()
        assert load_config(path) == config, f"trial {trial}"
        save_config(load_config(path), path)
        assert path.read_bytes() == blob, f"trial {trial}"

# -- stages -----------------------------------------------------------------


def test_build_stats_writes_dictionary(base_config, tmp_path):
    dict_path = build_stats(base_config, tmp_path)
    stats = load_stat_dictionary(dict_path)
    assert sorted(stats.label_vocab.labels) == ["la", "lb"]
    assert total_tokens(stats) > 0


def test_build_stats_leaves_the_run_cfg_and_dictionary_train_writes(
        trained, base_config, tmp_path):
    build_stats(base_config, tmp_path)
    for name in ("run.cfg", "stat_dict.tsv"):
        assert (tmp_path / name).read_bytes() == \
            (trained.run_dir / name).read_bytes(), name


def test_build_stats_tokenizes_only_the_train_split(base_config, tmp_path, monkeypatch):
    config = replace(base_config, dataset=str(MINI_CORPUS))
    train_rows = len(load_dataset(MINI_CORPUS, pipeline._split_spec(config))
                     .split_records("train"))
    calls, tokenize = [], corpus.tokenize

    def counting(line):
        calls.append(line)
        return tokenize(line)

    monkeypatch.setattr(corpus, "tokenize", counting)
    build_stats(config, tmp_path)
    assert len(calls) == train_rows


def test_preprocess_artifacts(base_config, tmp_path):
    result = preprocess(base_config, tmp_path)
    for name in ("run.cfg", "stat_dict.tsv", "vae.ckpt", "vae_log.tsv",
                 "embeddings.tbl"):
        assert (tmp_path / name).exists(), name
    assert result.embeddings.shape == (len(result.dataset.records), 3)
    assert [r.message_id for r in result.dataset.records] == \
        list(range(len(result.dataset.records)))
    log = (tmp_path / "vae_log.tsv").read_text(encoding="utf-8").splitlines()
    assert log[0] == "step\tloss"
    assert len(log) > 1


def test_train_artifacts_and_report(trained, base_config):
    run_dir = trained.run_dir
    for name in ("model.ckpt", "train_log.tsv", "metrics.tsv", "metrics.txt"):
        assert (run_dir / name).exists(), name
    assert 0.0 <= trained.report.macro_f1 <= 1.0
    assert trained.report.wall_clock > 0.0
    log = (run_dir / "train_log.tsv").read_text(encoding="utf-8").splitlines()
    assert log[0] == "epoch\tmean_loss\tdev_macro_f1\tselected"
    assert len(log) == 1 + base_config.classifier_epochs
    assert trained.model.mode == "full"


def test_train_reruns_bit_identical(trained, base_config, tmp_path):
    again = train(base_config, tmp_path)
    assert again.report.macro_f1 == trained.report.macro_f1
    for name in ("stat_dict.tsv", "tokens.tbl", "vae.ckpt", "vae_log.tsv",
                 "embeddings.tbl", "model.ckpt", "train_log.tsv", "metrics.tsv",
                 "run.cfg"):
        assert (tmp_path / name).read_bytes() == \
            (trained.run_dir / name).read_bytes(), name


def _scripted_dev_scores(monkeypatch, scores):
    """Make each dev scoring report the next of `scores` as its macro-F1."""
    report, left = pipeline._split_report, list(scores)

    def scripted(model, table, rows, *args):
        real = report(model, table, rows, *args)
        if np.array_equal(rows, table.split_rows("dev")):
            return replace(real, macro_f1=left.pop(0))
        return real

    monkeypatch.setattr(pipeline, "_split_report", scripted)


def _logged_dev_scores(run_dir):
    rows = (run_dir / "train_log.tsv").read_text(encoding="utf-8").splitlines()[1:]
    return [(float(row.split("\t")[2]), int(row.split("\t")[3])) for row in rows]


@pytest.mark.parametrize("scores, logged", [
    ([0.5, 1.0, 0.75], [(0.5, 1), (1.0, 1)]),
    ([1.0, 1.0, 1.0], [(1.0, 1)]),
    ([0.5, 0.9, 0.999], [(0.5, 1), (0.9, 1), (0.999, 1)]),
    ([0.9, 0.5, 0.75], [(0.9, 1), (0.5, 0), (0.75, 0)])])
def test_training_stops_after_a_perfect_dev_score(base_config, tmp_path, monkeypatch,
                                                  scores, logged):
    _scripted_dev_scores(monkeypatch, scores)
    train(base_config, tmp_path)
    assert _logged_dev_scores(tmp_path) == logged
    assert load_config(tmp_path / "run.cfg").classifier_epochs == 3


def test_a_run_without_a_dev_split_never_stops_early(base_config, tmp_path,
                                                     monkeypatch):
    config = replace(base_config, train_ratio=0.9, dev_ratio=0.0, test_ratio=0.1)
    _scripted_dev_scores(monkeypatch, [])  # a dev scoring would fail here
    train(config, tmp_path)
    logged = _logged_dev_scores(tmp_path)
    assert len(logged) == config.classifier_epochs
    assert all(math.isnan(f1) and selected == 1 for f1, selected in logged)


def test_zero_epoch_runs(base_config, tmp_path):
    config = replace(base_config, vae_epochs=0, classifier_epochs=0)
    result = train(config, tmp_path)
    assert 0.0 <= result.report.macro_f1 <= 1.0
    log = (tmp_path / "train_log.tsv").read_text(encoding="utf-8").splitlines()
    assert len(log) == 1  # header only


def test_missing_dataset_fails_in_stage(tmp_path):
    with pytest.raises(StageError, match=r"\[load-dataset\]"):
        train(RunConfig(dataset=str(tmp_path / "nope.tsv")), tmp_path)
    with pytest.raises(StageError, match="dataset"):
        train(RunConfig(), tmp_path)


def test_non_finite_embeddings_stop_before_cache(base_config, tmp_path, monkeypatch):
    real = statvae.embed_statistics

    def poisoned(vae, x):
        out = real(vae, x)
        out[3, 0] = np.inf
        return out

    monkeypatch.setattr(statvae, "embed_statistics", poisoned)
    with pytest.raises(StageError, match=r"\[embed-statistics\] 1 of \d+ embeddings"):
        preprocess(base_config, tmp_path)
    assert not (tmp_path / "embeddings.tbl").exists()


def test_non_finite_classifier_loss_stops_before_checkpoint(base_config, tmp_path,
                                                           monkeypatch):
    monkeypatch.setattr(fusion, "batch_forward",
                        lambda model, ids, mask, stat_rows:
                        (np.full((len(ids), model.n_labels), np.nan), {}))
    with pytest.raises(StageError, match=r"\[train-classifier\] non-finite loss "
                                         r"nan at epoch 0 step 0"):
        train(base_config, tmp_path)
    assert not (tmp_path / "model.ckpt").exists()


def test_a_nan_weight_stops_training(base_config, tmp_path, monkeypatch):
    build_model = fusion.build_model

    def poisoned(*args, **kwargs):
        model = build_model(*args, **kwargs)
        model.encoder.parameters()["ffn_w1"].values[0, 0] = np.nan
        return model

    monkeypatch.setattr(fusion, "build_model", poisoned)
    with pytest.raises(StageError, match=r"\[train-classifier\] non-finite loss "
                                         r"nan at epoch 0 step 0"):
        train(base_config, tmp_path)
    assert not (tmp_path / "model.ckpt").exists()


# -- evaluate ------------------------------------------------------------------


def test_evaluate_matches_training_report(trained):
    report = evaluate(trained.run_dir)
    assert report.macro_f1 == trained.report.macro_f1
    assert report.micro_f1 == trained.report.micro_f1
    dev = evaluate(trained.run_dir, split="dev")
    assert 0.0 <= dev.macro_f1 <= 1.0


def test_wall_clocks_cover_test_scoring(base_config, tmp_path, monkeypatch):
    # no classifier epoch: every forward pass is a test-scoring one
    config = replace(base_config, classifier_epochs=0)
    slept, forward = [], fusion.batch_forward

    def slow(model, ids, mask, stat_rows):
        time.sleep(0.05)
        slept.append(0.05)
        return forward(model, ids, mask, stat_rows)

    monkeypatch.setattr(fusion, "batch_forward", slow)
    started = time.perf_counter()
    report = train(config, tmp_path).report
    elapsed = time.perf_counter() - started
    assert sum(slept) <= report.wall_clock <= elapsed
    # only writing the reports may follow the wall clock's end
    assert elapsed - report.wall_clock < 0.05
    slept.clear()
    assert evaluate(tmp_path).wall_clock >= sum(slept) > 0


def test_evaluate_missing_run(tmp_path):
    with pytest.raises(StageError, match=r"\[load-artifacts\]"):
        evaluate(tmp_path / "never_ran")


def test_evaluate_rejects_stale_dictionary(base_config, tmp_path):
    result = train(base_config, tmp_path)
    dict_path = result.run_dir / "stat_dict.tsv"
    dict_path.write_text(dict_path.read_text(encoding="utf-8") + "zzz\t1,0\n",
                         encoding="utf-8")
    with pytest.raises(StageError, match=r"^\[staleness-check\] .*/stat_dict.tsv: the "
                                         "checkpoint was trained after a different "
                                         "stat_dict.tsv, or records none; retrain$"):
        evaluate(result.run_dir)


def test_evaluate_rejects_changed_train_split(base_config, tmp_path, corpus_path):
    moved = tmp_path / "corpus.tsv"
    moved.write_bytes(corpus_path.read_bytes())
    config = replace(base_config, dataset=str(moved))
    result = train(config, tmp_path / "run")
    with moved.open("a", encoding="utf-8") as handle:
        for i in range(4):
            handle.write(f"la\t-\tlate extra message {i}\n")
    with pytest.raises(StageError, match="train split changed"):
        evaluate(result.run_dir)


def test_evaluate_refuses_a_cache_pretrained_again_into_a_trained_run(
        trained, base_config, tmp_path):
    # the dictionary is rebuilt byte for byte; run.cfg records the new setting
    run_dir = tmp_path / "run"
    shutil.copytree(trained.run_dir, run_dir)
    preprocess(replace(base_config, vae_epochs=1), run_dir)
    assert (run_dir / "stat_dict.tsv").read_bytes() == \
        (trained.run_dir / "stat_dict.tsv").read_bytes()
    with pytest.raises(StageError, match=rf"^\[staleness-check\] run.cfg sets "
                                         rf"vae_epochs=1, the checkpoint "
                                         rf"vae_epochs={base_config.vae_epochs}; "
                                         "retrain$"):
        evaluate(run_dir)


def test_evaluate_refuses_a_checkpoint_that_records_no_embedding_cache(
        trained, tmp_path):
    # the meta a checkpoint carried before it recorded every shared file's digest
    run_dir = tmp_path / "run"
    shutil.copytree(trained.run_dir, run_dir)
    arrays, meta = load_table(run_dir / "model.ckpt")
    for name in pipeline._SHARED_ARTIFACTS:
        del meta[f"{name}_sha256"]
    meta["embeddings_hash"] = pipeline._file_digest(run_dir / "embeddings.tbl")
    meta["tokens_hash"] = pipeline._file_digest(run_dir / "tokens.tbl")
    save_table(run_dir / "model.ckpt", arrays, meta=meta)
    with pytest.raises(StageError, match=r"^\[staleness-check\] .*/stat_dict.tsv: .*"
                                         "records none; retrain$"):
        evaluate(run_dir)


@pytest.mark.parametrize("key, value", [
    ("m_fixed", 5), ("epsilon", 0.45), ("mode", "no_gate"), ("d_model", 4),
    ("latent_dim", 2), ("learning_rate", 0.5), ("batch_size", 8), ("vae_epochs", 4),
    ("classifier_epochs", 9)])
def test_evaluate_refuses_a_run_cfg_whose_model_settings_are_not_the_checkpoints(
        trained, base_config, tmp_path, key, value):
    # build-stats rewrites run.cfg but leaves the dictionary and cache bytes
    run_dir = tmp_path / "run"
    shutil.copytree(trained.run_dir, run_dir)
    build_stats(replace(base_config, **{key: value}), run_dir)
    trained_with = getattr(base_config, key)
    with pytest.raises(StageError, match=rf"^\[staleness-check\] run.cfg sets "
                                         rf"{key}={value}, the checkpoint "
                                         rf"{key}={trained_with}; retrain$"):
        evaluate(run_dir)


def test_evaluate_refuses_a_checkpoint_that_records_no_training_settings(
        trained, tmp_path):
    # the meta a checkpoint carried before it recorded them
    run_dir = tmp_path / "run"
    shutil.copytree(trained.run_dir, run_dir)
    arrays, meta = load_table(run_dir / "model.ckpt")
    for key in ("learning_rate", "batch_size", "vae_epochs", "classifier_epochs",
                "tokens.tbl_sha256"):
        del meta[key]
    save_table(run_dir / "model.ckpt", arrays, meta=meta)
    with pytest.raises(StageError, match=r"^\[staleness-check\] checkpoint records "
                                         "no learning_rate; retrain$"):
        evaluate(run_dir)


def _edit_tensor(path: Path, name: str, edit) -> None:
    """Rewrite tensor `name` of the table at `path` as `edit` of it, meta intact."""
    arrays, meta = load_table(path)
    arrays[name] = edit(arrays[name])
    save_table(path, arrays, meta=meta)


def _edit_loss(path: Path) -> None:
    """Double the first loss of a `vae_log.tsv`."""
    header, first, *rest = path.read_text(encoding="utf-8").splitlines(keepends=True)
    step, loss = first.split("\t")
    path.write_text("".join([header, f"{step}\t{2 * float(loss)!r}\n", *rest]),
                    encoding="utf-8")


# One edit per shared preprocessing file, each one that file's own loader reads.
_EDITS = {
    # every label moved to the next one: in range, but not what trained the model
    "tokens.tbl": partial(_edit_tensor, name="labels",
                          edit=lambda labels: (labels + 1) % (labels.max() + 1)),
    "stat_dict.tsv": lambda path: path.write_text(
        path.read_text(encoding="utf-8") + "zzz\t1,0\n", encoding="utf-8"),
    "vae.ckpt": partial(_edit_tensor, name="enc_b", edit=lambda bias: bias + 1.0),
    "vae_log.tsv": _edit_loss,
    "embeddings.tbl": partial(_edit_tensor, name="embeddings",
                              edit=lambda embeddings: embeddings + 1e-9)}


@pytest.mark.parametrize("name", pipeline._SHARED_ARTIFACTS)
def test_evaluate_refuses_a_shared_artifact_edited_under_intact_meta(trained, tmp_path,
                                                                    name):
    run_dir = tmp_path / "run"
    shutil.copytree(trained.run_dir, run_dir)
    _EDITS[name](run_dir / name)
    assert (run_dir / name).read_bytes() != (trained.run_dir / name).read_bytes()
    with pytest.raises(StageError, match=rf"^\[staleness-check\] .*/{name}: the "
                                         "checkpoint was trained after a different "
                                         rf"{name}, or records none; retrain$"):
        evaluate(run_dir)


def _mini_run(tmp_path: Path):
    """A run trained on a copy of the mini corpus: (corpus copy, run dir, dataset)."""
    corpus_copy = tmp_path / "corpus.tsv"
    corpus_copy.write_bytes(MINI_CORPUS.read_bytes())
    config = RunConfig(dataset=str(corpus_copy), m_fixed=10, d_model=8, latent_dim=3,
                       vae_epochs=1, classifier_epochs=1, seed=7)
    result = train(config, tmp_path / "run")
    return corpus_copy, result.run_dir, result.dataset


def _set_message(corpus_file: Path, message_id: int, text: str) -> None:
    """Rewrite the message text of line `message_id` (the corpus has no blank line)."""
    lines = corpus_file.read_text(encoding="utf-8").splitlines(keepends=True)
    label, task_id, _ = lines[message_id].split("\t", 2)
    lines[message_id] = f"{label}\t{task_id}\t{text}\n"
    corpus_file.write_text("".join(lines), encoding="utf-8")


def test_evaluate_refuses_a_rewritten_test_split_line(tmp_path):
    corpus_copy, run_dir, dataset = _mini_run(tmp_path)
    target = dataset.split_records("test")[0]
    donor = next(rec for rec in dataset.split_records("train")
                 if dataset.token_ids(rec.tokens) != dataset.token_ids(target.tokens))
    _set_message(corpus_copy, target.message_id, " ".join(donor.tokens))
    for split in ("test", "dev"):
        with pytest.raises(StageError, match=r"^\[staleness-check\] the dataset's test "
                                             "split changed since preprocessing; "
                                             "retrain$"):
            evaluate(run_dir, split)


def test_evaluate_scores_a_corpus_change_no_token_sees(tmp_path, monkeypatch):
    # a digit run is one <num> token, whatever its digits
    corpus_copy, run_dir, dataset = _mini_run(tmp_path)
    before = evaluate(run_dir)
    target = dataset.split_records("test")[0]
    text = corpus_copy.read_text(encoding="utf-8").splitlines()[target.message_id]
    message = text.split("\t", 2)[2]
    digit = re.search(r"\d", message).start()
    _set_message(corpus_copy, target.message_id, message[:digit]
                 + str((int(message[digit]) + 1) % 10) + message[digit + 1:])
    loads, load = [], pipeline.load_dataset

    def counting(*args, **kwargs):
        loads.append(args)
        return load(*args, **kwargs)

    monkeypatch.setattr(pipeline, "load_dataset", counting)
    after = evaluate(run_dir)
    assert len(loads) == 1  # the digest differs, so the corpus is compared
    assert after.macro_f1 == before.macro_f1
    assert after.confusion.tolist() == before.confusion.tolist()


@pytest.mark.parametrize("edit, message", [
    ({"seed": 8}, "dataset train split changed since the statistics dictionary was "
                  "built; retrain"),
    ({"train_ratio": 0.7, "test_ratio": 0.2},
     "dataset train split changed since the statistics dictionary was built; retrain"),
    # 48 train records either way; the dev and test records move
    ({"dev_ratio": 0.15, "test_ratio": 0.05},
     "the dataset's dev and test splits changed since preprocessing; retrain")])
def test_evaluate_refuses_a_run_cfg_whose_split_settings_changed(trained, tmp_path,
                                                                edit, message):
    run_dir = tmp_path / "run"
    shutil.copytree(trained.run_dir, run_dir)
    save_config(replace(load_config(run_dir / "run.cfg"), **edit), run_dir / "run.cfg")
    with pytest.raises(StageError, match=rf"^\[staleness-check\] {message}$"):
        evaluate(run_dir)


def test_evaluate_scores_from_the_token_table_without_tokenizing(ablated, tmp_path,
                                                                 monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("evaluate read the corpus text")

    monkeypatch.setattr(corpus, "tokenize", refuse)
    monkeypatch.setattr(pipeline, "load_dataset", refuse)
    out, _ = ablated
    for mode in MODES:
        write_metrics(evaluate(out / mode, "test"), tmp_path / mode)
        assert (tmp_path / mode).read_bytes() == \
            (out / mode / "metrics.tsv").read_bytes(), mode


def test_evaluate_refuses_a_run_without_a_token_table(trained, base_config, tmp_path):
    # a run directory written before preprocessing saved the token table
    run_dir = tmp_path / "run"
    shutil.copytree(trained.run_dir, run_dir)
    (run_dir / "tokens.tbl").unlink()
    with pytest.raises(StageError, match=r"^\[load-artifacts\] .*/tokens.tbl: no token "
                                         "table; rerun preprocessing$"):
        evaluate(run_dir)
    # preprocessing again rewrites every other artifact byte for byte
    preprocess(base_config, run_dir)
    assert evaluate(run_dir).macro_f1 == trained.report.macro_f1


# -- ablation and sweep ----------------------------------------------------------


def test_ablation_covers_every_mode(base_config, tmp_path):
    config = replace(base_config, classifier_epochs=1, vae_epochs=1)
    reports = run_ablation(config, tmp_path)
    assert set(reports) == set(MODES)
    table = (tmp_path / "ablation.tsv").read_text(encoding="utf-8").splitlines()
    assert table[0] == "mode\tmacro_f1\tmicro_f1"
    assert len(table) == 1 + len(MODES)
    for mode in MODES:
        assert (tmp_path / mode / "model.ckpt").exists()
        assert f"{mode}\t{reports[mode].macro_f1!r}" in "\n".join(table)


def test_sweep_singleton_equals_plain_train(base_config, trained, tmp_path):
    results = run_sweep(base_config, "epsilon", [base_config.epsilon], tmp_path)
    assert len(results) == 1
    value, report = results[0]
    assert value == base_config.epsilon
    assert report.macro_f1 == trained.report.macro_f1
    point_dir = tmp_path / f"epsilon={base_config.epsilon}"
    assert (point_dir / "metrics.tsv").read_bytes() == \
        (trained.run_dir / "metrics.tsv").read_bytes()
    table = (tmp_path / "sweep.tsv").read_text(encoding="utf-8").splitlines()
    assert table[0] == "epsilon\tmacro_f1\tmicro_f1\twall_clock"
    assert len(table) == 2


def test_sweep_validates_axis_and_grid(base_config, tmp_path):
    with pytest.raises(ConfigError, match="sweep axis"):
        run_sweep(base_config, "latent", [1], tmp_path)
    with pytest.raises(ConfigError, match="grid is empty"):
        run_sweep(base_config, "epsilon", [], tmp_path)


def test_sweep_validates_every_point_before_training(base_config, tmp_path):
    out = tmp_path / "sweep"
    with pytest.raises(ConfigError, match="epsilon"):
        run_sweep(base_config, "epsilon", ["0.1", "0.9"], out)
    assert not out.exists()


@pytest.mark.parametrize("value", [4.5, float("inf"), None])
def test_sweep_refuses_values_an_int_axis_cannot_hold(base_config, tmp_path, value):
    out = tmp_path / "sweep"
    with pytest.raises(ConfigError, match="'d_model' expects int"):
        run_sweep(base_config, "hidden_dim", [4, value], out)
    assert not out.exists()


def test_sweep_refuses_points_that_cast_to_the_same_value(base_config, tmp_path):
    out = tmp_path / "sweep"
    with pytest.raises(ConfigError, match=r"repeats epsilon value\(s\) \[0.1\]"):
        run_sweep(base_config, "epsilon", ["0.1", "0.10"], out)
    assert not out.exists()


# Every file a run leaves that carries no wall clock.
RUN_FILES = ("run.cfg", "stat_dict.tsv", "tokens.tbl", "vae.ckpt", "vae_log.tsv",
             "embeddings.tbl", "model.ckpt", "train_log.tsv", "metrics.tsv")


def assert_same_run_files(shared_dir, alone_dir):
    for name in RUN_FILES:
        assert (shared_dir / name).read_bytes() == (alone_dir / name).read_bytes(), \
            f"{shared_dir.name}/{name}"


@pytest.fixture(scope="module")
def ablated(base_config, tmp_path_factory):
    out = tmp_path_factory.mktemp("ablation")
    return out, run_ablation(base_config, out)


def test_ablation_equals_independent_train_runs(ablated, base_config, tmp_path):
    out, reports = ablated
    alone = {mode: train(replace(base_config, mode=mode), tmp_path / mode).report
             for mode in MODES}
    for mode in MODES:
        assert_same_run_files(out / mode, tmp_path / mode)
    expected = "mode\tmacro_f1\tmicro_f1\n" + "".join(
        f"{mode}\t{alone[mode].macro_f1!r}\t{alone[mode].micro_f1!r}\n"
        for mode in MODES)
    assert (out / "ablation.tsv").read_text(encoding="utf-8") == expected
    assert [reports[mode].macro_f1 for mode in MODES] == \
        [alone[mode].macro_f1 for mode in MODES]


def test_evaluate_reads_every_ablation_mode(ablated):
    out, reports = ablated
    for mode in MODES:
        report = evaluate(out / mode)
        assert report.macro_f1 == reports[mode].macro_f1, mode
        assert report.confusion.tolist() == reports[mode].confusion.tolist(), mode


@pytest.mark.parametrize("axis,field,grid", [("hidden_dim", "d_model", [4, 12]),
                                             ("epsilon", "epsilon", [0.0, 0.35])])
def test_sweep_equals_independent_train_runs(base_config, tmp_path, axis, field,
                                             grid):
    results = run_sweep(base_config, axis, grid, tmp_path / "sweep")
    assert [value for value, _ in results] == grid
    for value, report in results:
        point = f"{axis}={value}"
        alone = train(replace(base_config, **{field: value}), tmp_path / point)
        assert_same_run_files(tmp_path / "sweep" / point, tmp_path / point)
        assert report.macro_f1 == alone.report.macro_f1, point


def test_train_is_byte_identical_to_the_loop_references(tmp_path, monkeypatch):
    # The flat-buffer Adam, VAE pretraining and classifier training over
    # one flat parameter vector, the one-pass pooling and storing fresh
    # gradients uncopied change no float operation, so the run must match
    # the per-batch VAE loop, the per-parameter Adam loop, one
    # message_stats call per record and the always-copying gradient
    # accumulation, byte for byte.
    config = RunConfig(dataset=str(MINI_CORPUS), m_fixed=10, d_model=16,
                       latent_dim=4, vae_epochs=3, classifier_epochs=2, seed=7)
    train(config, tmp_path / "fast")
    monkeypatch.setattr(statvae, "pretrain", reference_pretrain)
    monkeypatch.setattr(helpers, "Adam", ReferenceAdam)
    monkeypatch.setattr(pipeline, "Adam", ReferenceAdam)
    monkeypatch.setattr(pipeline, "pooled_stats", reference_pooled_stats)
    monkeypatch.setattr(Tensor, "_accumulate", reference_accumulate)
    train(config, tmp_path / "loop")
    assert_same_run_files(tmp_path / "fast", tmp_path / "loop")


def test_no_run_takes_a_per_tensor_adam_step(base_config, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a run left the flat Adam path")

    monkeypatch.setattr(Adam, "step", refuse)
    train(base_config, tmp_path / "train")
    evaluate(tmp_path / "train")
    run_ablation(base_config, tmp_path / "ablate")


# Parameter groups each mode's forward pass never reads.
UNREAD = {"stats_only": {"sem", "info"}, "semantic_only": {"stats"}}


@pytest.mark.parametrize("mode", sorted(UNREAD))
def test_a_mode_leaves_the_parameters_it_never_reads_at_their_initial_values(
        ablated, base_config, mode):
    # Adam holds only the parameters the mode reads; every other one must
    # keep its initial value bit for bit.
    trained, _ = fusion.load_model(ablated[0] / mode / "model.ckpt")
    initial = fusion.build_model(
        trained.encoder.vocab_size, trained.n_labels, trained.encoder.d_model,
        trained.latent_dim, trained.m_fixed, trained.epsilon, mode,
        pipeline._child_rng(base_config.seed, 2)).parameters()
    moved = {name.split(".")[0] for name, t in trained.parameters().items()
             if t.values.tobytes() != initial[name].values.tobytes()}
    assert moved == {name.split(".")[0] for name in initial} - UNREAD[mode]


@pytest.mark.parametrize("mode", MODES)
def test_adam_holds_only_the_parameters_a_mode_reads(base_config, tmp_path,
                                                     monkeypatch, mode):
    held = []

    class Recording(Adam):
        def __init__(self, params, lr):
            held.append(list(params))
            super().__init__(params, lr)

    monkeypatch.setattr(pipeline, "Adam", Recording)
    train(replace(base_config, mode=mode, classifier_epochs=1), tmp_path)
    names = fusion.load_model(tmp_path / "model.ckpt")[0].parameters()
    assert held == [[name for name in names
                     if name.split(".")[0] not in UNREAD.get(mode, ())]]


@pytest.mark.parametrize("name, key, error", [
    ("model.ckpt", "vocab_size", fusion.FusionError),
    ("embeddings.tbl", "message_ids", statvae.VaeError),
    ("tokens.tbl", "offsets", CorpusError),
    ("tokens.tbl", "corpus_sha256", CorpusError)])
def test_evaluate_names_the_file_and_key_a_damaged_artifact_lacks(
        trained, tmp_path, name, key, error):
    run_dir = tmp_path / "run"
    shutil.copytree(trained.run_dir, run_dir)
    arrays, meta = load_table(run_dir / name)
    arrays.pop(key, None)
    meta.pop(key, None)
    save_table(run_dir / name, arrays, meta=meta)
    with pytest.raises(StageError, match=rf"^\[load-artifacts\] .*/{name}: .*'{key}'") \
            as failure:
        evaluate(run_dir)
    assert isinstance(failure.value.__cause__, error)


# A test-split record's token id, label id or split code, and the stage
# that refuses it; None is the checkpoint's vocab_size or n_labels.
@pytest.mark.parametrize("name, value, stage", [
    ("ids", -5, "load-artifacts"),
    ("ids", corpus.PAD_ID, "load-artifacts"),
    ("labels", -1, "load-artifacts"),
    ("splits", 7, "load-artifacts"),
    ("splits", -1, "load-artifacts"),
    ("ids", None, "staleness-check"),
    ("labels", None, "staleness-check")])
def test_evaluate_names_the_file_of_an_out_of_range_token_table_value(
        trained, tmp_path, name, value, stage):
    run_dir = tmp_path / "run"
    shutil.copytree(trained.run_dir, run_dir)
    arrays, meta = load_table(run_dir / "tokens.tbl")
    if value is None:
        model = fusion.load_model(run_dir / "model.ckpt")[0]
        value = model.encoder.vocab_size if name == "ids" else model.n_labels
    row = np.flatnonzero((arrays["splits"] == 2) & (np.diff(arrays["offsets"]) > 0))[0]
    index = arrays["offsets"][row] if name == "ids" else row
    arrays[name][index] = value
    save_table(run_dir / "tokens.tbl", arrays, meta=meta)
    with pytest.raises(StageError, match=rf"^\[{stage}\] .*/tokens.tbl: .* {value}\b") \
            as failure:
        evaluate(run_dir)
    assert isinstance(failure.value.__cause__,
                      CorpusError if stage == "load-artifacts" else ValueError)


@pytest.mark.parametrize("key, value", [
    ("vocab_size", "abc"), ("epsilon", "x"), ("d_model", "-3"), ("vocab_size", "-1"),
    ("n_labels", "-2"), ("epsilon", "0.9"), ("mode", "bogus"), ("m_fixed", "0")])
def test_evaluate_names_the_file_and_key_of_a_damaged_checkpoint_value(
        trained, tmp_path, key, value):
    run_dir = tmp_path / "run"
    shutil.copytree(trained.run_dir, run_dir)
    arrays, meta = load_table(run_dir / "model.ckpt")
    meta[key] = value
    save_table(run_dir / "model.ckpt", arrays, meta=meta)
    damage = rf"^\[load-artifacts\] .*/model.ckpt: .*'{key}' holds '{value}'"
    with pytest.raises(StageError, match=damage) as failure:
        evaluate(run_dir)
    assert isinstance(failure.value.__cause__, fusion.FusionError)


def test_evaluate_names_the_file_and_line_of_a_cut_statistics_dictionary(
        trained, tmp_path):
    run_dir = tmp_path / "run"
    shutil.copytree(trained.run_dir, run_dir)
    text = (run_dir / "stat_dict.tsv").read_text(encoding="utf-8")
    # cut after the tab of a line past the middle, so its counts are missing
    cut = text[:text.index("\t", len(text) // 2) + 1]
    (run_dir / "stat_dict.tsv").write_text(cut, encoding="utf-8")
    lineno = cut.count("\n") + 1
    with pytest.raises(StageError,
                       match=rf"^\[load-artifacts\] .*/stat_dict.tsv:{lineno}: ") \
            as failure:
        evaluate(run_dir)
    assert isinstance(failure.value.__cause__, StatError)


def test_train_and_evaluate_build_no_graph(tmp_path, monkeypatch):
    # training and scoring run the closed-form numpy step; the autodiff
    # graph is only the tests' oracle
    nodes = []
    record = Tensor._result

    def counting(values, parents, backward):
        out = record(values, parents, backward)
        if out._backward is not None:
            nodes.append(out)
        return out

    monkeypatch.setattr(Tensor, "_result", staticmethod(counting))
    config = RunConfig(dataset=str(MINI_CORPUS), m_fixed=10, d_model=16,
                       latent_dim=4, vae_epochs=2, classifier_epochs=2, seed=7)
    train(config, tmp_path)
    evaluate(tmp_path)
    assert len(nodes) == 0


def test_split_token_matrix_is_pad_tokens_row_for_row():
    dataset = load_dataset(MINI_CORPUS)
    rng = np.random.Generator(np.random.PCG64(90))
    words = sorted(dataset.vocab) + ["unseen", "neverseen"]
    records = list(dataset.records)
    for _ in range(300):
        picks = rng.integers(0, len(words), int(rng.integers(0, 20)))
        records.append(LogRecord(len(records), "-", [words[j] for j in picks], 0))
    lengths = [len(rec.tokens) for rec in records]
    assert min(lengths) == 0 and max(lengths) > 16  # empty messages and truncation
    assert any(t not in dataset.vocab for rec in records for t in rec.tokens)
    table = TokenTable.build(dataset.vocab, records,
                             np.full(len(records), 2, dtype=np.int64))
    for m_fixed in (1, 6, 16):
        every = rng.permutation(len(records))
        ids, slots = table.pad(every, m_fixed)
        assert ids.dtype == np.int32 and ids.shape == (len(records), m_fixed)
        np.testing.assert_array_equal(slots, table.widths(every, m_fixed))
        for i, rec in enumerate(records[j] for j in every):
            want_ids, want_mask = pad_tokens(dataset.token_ids(rec.tokens), m_fixed)
            np.testing.assert_array_equal(ids[i], want_ids)
            assert slots[i] == want_mask.sum()
        for _ in range(20):
            batch = rng.choice(len(records), size=int(rng.integers(1, 33)))
            token_ids = [dataset.token_ids(records[every[i]].tokens) for i in batch]
            width = min(m_fixed, max(1, max(len(t) for t in token_ids)))
            got_ids, got_mask = fusion.batch_rows(ids, slots, batch)
            for row, t in enumerate(token_ids):
                want_ids, want_mask = pad_tokens(t, width)
                np.testing.assert_array_equal(got_ids[row], want_ids)
                np.testing.assert_array_equal(got_mask[row], want_mask)
    assert table.pad([], 4)[0].shape == (0, 4)
    for call in (table.pad, table.widths):
        with pytest.raises(CorpusError, match="m_fixed must be >= 1, got 0"):
            call(np.arange(len(records)), 0)


# -- scoring -------------------------------------------------------------------


def _scoring_inputs(run_dir: Path):
    """Model, dataset and embedding cache of a finished run."""
    config = load_config(run_dir / "run.cfg")
    dataset = load_dataset(config.dataset, split_spec=SplitSpec(
        config.train_ratio, config.dev_ratio, config.test_ratio, config.seed))
    embeddings = statvae.load_embedding_cache(run_dir / "embeddings.tbl")
    return fusion.load_model(run_dir / "model.ckpt")[0], dataset, embeddings


@pytest.fixture(scope="module", params=["mini", "criterion-3"])
def scored_runs(request, tmp_path_factory):
    """Every mode trained on the mini corpus or on criterion 3's corpus."""
    out = tmp_path_factory.mktemp(f"scoring-{request.param}")
    corpus = MINI_CORPUS
    if request.param == "criterion-3":
        corpus = out / "corpus.tsv"
        generate_synthetic(make_default_spec(50), 7, corpus)
    run_ablation(RunConfig(dataset=str(corpus), m_fixed=10, d_model=16, latent_dim=4,
                           vae_epochs=3, classifier_epochs=3, seed=7), out)
    return {mode: _scoring_inputs(out / mode) for mode in MODES}


def _ids(records) -> np.ndarray:
    """The message ids of `records`, the rows `collect_logits` scores."""
    return np.array([rec.message_id for rec in records], dtype=np.int64)


def _float64_logits(model, dataset, records, embeddings):
    """Chunked float64 forward through `model` itself."""
    return np.concatenate([fusion.forward(
        model, [dataset.token_ids(rec.tokens) for rec in chunk],
        embeddings[[rec.message_id for rec in chunk]]).values
        for chunk in (records[i:i + 32] for i in range(0, len(records), 32))])


def test_scoring_argmax_equals_the_float64_forward(scored_runs):
    for mode, (model, dataset, embeddings) in scored_runs.items():
        for split in ("train", "dev", "test"):
            records = dataset.split_records(split)
            reference = _float64_logits(model, dataset, records, embeddings)
            logits = collect_logits(model, dataset.table, _ids(records), embeddings)
            np.testing.assert_array_equal(logits.argmax(axis=1),
                                          reference.argmax(axis=1), f"{mode} {split}")
            np.testing.assert_allclose(logits, reference, rtol=0.0, atol=1e-4,
                                       err_msg=f"{mode} {split}")


def test_predictions_do_not_depend_on_the_scoring_chunk(ablated, monkeypatch):
    model, dataset, embeddings = _scoring_inputs(ablated[0] / "full")
    records = dataset.records * 6
    reference = _float64_logits(model, dataset, records, embeddings).argmax(axis=1)
    for chunk in (1, 32, 64):
        monkeypatch.setattr(pipeline, "EVAL_CHUNK", chunk)
        logits = collect_logits(model, dataset.table, _ids(records), embeddings)
        np.testing.assert_array_equal(logits.argmax(axis=1), reference, f"chunk {chunk}")


def _record_results(monkeypatch) -> list:
    """(dtype, has a graph record) of every op result from now on."""
    made = []
    record = Tensor._result

    def recording(values, parents, backward):
        out = record(values, parents, backward)
        made.append((out.values.dtype, bool(out._parents)))
        return out

    monkeypatch.setattr(Tensor, "_result", staticmethod(recording))
    return made


def test_scoring_builds_no_graph_and_stays_float32(ablated, monkeypatch):
    # a float64 constant anywhere in the forward would silently upcast
    # every array after it
    runs = [_scoring_inputs(ablated[0] / mode) for mode in MODES]
    monkeypatch.setattr(pipeline, "TIE_GAP", -1.0)  # no row is re-scored
    made = _record_results(monkeypatch)
    dtypes = set()
    batch_forward = fusion.batch_forward

    def recording(model, ids, mask, stat_rows):
        logits, saved = batch_forward(model, ids, mask, stat_rows)
        dtypes.update(a.dtype for a in (logits, *saved.values()) if a.dtype.kind == "f")
        return logits, saved

    monkeypatch.setattr(fusion, "batch_forward", recording)
    for model, dataset, embeddings in runs:
        collect_logits(model, dataset.table, dataset.table.split_rows("test"),
                       embeddings)
    assert not made
    assert dtypes == {np.dtype(np.float32)}


def test_rescored_rows_are_the_float64_forward(ablated, monkeypatch):
    runs = [_scoring_inputs(ablated[0] / mode) for mode in MODES]
    monkeypatch.setattr(pipeline, "TIE_GAP", np.inf)  # every row is re-scored
    for model, dataset, embeddings in runs:
        records = dataset.split_records("test")
        reference = _float64_logits(model, dataset, records, embeddings)
        logits = collect_logits(model, dataset.table, _ids(records), embeddings)
        np.testing.assert_array_equal(logits, reference, model.mode)


def test_scoring_leaves_the_model_float64_and_trainable(trained):
    params = trained.model.parameters()
    before = {name: t.values.tobytes() for name, t in params.items()}
    table = trained.dataset.table
    collect_logits(trained.model, table, table.split_rows("test"), trained.embeddings)
    for name, tensor in trained.model.parameters().items():
        assert tensor is params[name], name
        assert tensor.values.dtype == np.float64 and tensor.requires_grad, name
        assert tensor.values.tobytes() == before[name], name


def test_scoring_no_record_gives_an_empty_block(trained):
    logits = collect_logits(trained.model, trained.dataset.table, [],
                            trained.embeddings)
    assert logits.shape == (0, trained.model.n_labels)


def test_scoring_a_single_label_model(trained):
    model = trained.model
    single = fusion.build_model(model.encoder.vocab_size, 1, model.encoder.d_model,
                                model.latent_dim, model.m_fixed, model.epsilon,
                                model.mode, np.random.default_rng(0))
    rows = trained.dataset.table.split_rows("test")
    logits = collect_logits(single, trained.dataset.table, rows, trained.embeddings)
    assert logits.shape == (len(rows), 1)


# -- training lanes ----------------------------------------------------------------


def test_stage_error_survives_pickling():
    error = pickle.loads(pickle.dumps(StageError("train-classifier", "x")))
    assert type(error) is StageError
    assert error.stage == "train-classifier"
    assert str(error) == "[train-classifier] x"


def _use_cpus(monkeypatch, count: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


@pytest.fixture
def no_lane_left():
    yield
    # ChildProcessError: this process has no child, running or exited
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _has_child() -> bool:
    """Whether this process has a child, running or exited; reaps none."""
    try:
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
    except ChildProcessError:
        return False
    return True


def _without_last_column(path: Path) -> list[str]:
    return [line.rsplit("\t", 1)[0]
            for line in path.read_text(encoding="utf-8").splitlines()]


def test_lanes_leave_the_same_files_at_every_cpu_count(base_config, tmp_path,
                                                      monkeypatch, no_lane_left):
    # In the semantic_only sweep the first point trains beside VAE
    # pretraining and shares its directory with the preprocessing.
    grid = [0.0, 0.2, 0.35]
    semantic = replace(base_config, mode="semantic_only")
    for cpus in (1, 2, 8):
        _use_cpus(monkeypatch, cpus)
        run_ablation(base_config, tmp_path / f"cpus{cpus}" / "ablation")
        run_sweep(base_config, "epsilon", grid, tmp_path / f"cpus{cpus}" / "sweep")
        run_sweep(semantic, "epsilon", grid, tmp_path / f"cpus{cpus}" / "semantic")
    sweeps = ("sweep", "semantic")
    runs = [f"ablation/{mode}" for mode in MODES] + [
        f"{sweep}/epsilon={v}" for sweep in sweeps for v in grid]
    serial = tmp_path / "cpus1"
    for value in grid:
        alone = tmp_path / "alone" / f"epsilon={value}"
        train(replace(semantic, epsilon=value), alone)
        assert_same_run_files(serial / "semantic" / alone.name, alone)
    for cpus in (2, 8):
        laned = tmp_path / f"cpus{cpus}"
        for run in runs:
            assert_same_run_files(laned / run, serial / run)
        assert (laned / "ablation" / "ablation.tsv").read_bytes() == \
            (serial / "ablation" / "ablation.tsv").read_bytes()
        for sweep in sweeps:
            # the wall_clock column is the last one
            assert _without_last_column(laned / sweep / "sweep.tsv") == \
                _without_last_column(serial / sweep / "sweep.tsv")


@pytest.fixture
def fit_pids(tmp_path, monkeypatch):
    """Records each run's classifier fit as it starts.

    Call it for mode -> pid of the process the fit ran in, or with
    `started=True` for mode -> `time.perf_counter()` at its start (one
    clock for every process on the platforms that fork).
    """
    pid_log = tmp_path / "pids.tsv"
    fit = pipeline._fit

    def recording_fit(config, *args):
        with pid_log.open("a", encoding="utf-8") as handle:
            handle.write(f"{config.mode}\t{os.getpid()}\t{time.perf_counter()!r}\n")
        return fit(config, *args)

    def read(started=False):
        lines = (pid_log.read_text(encoding="utf-8").splitlines()
                 if pid_log.exists() else [])
        return {mode: float(start) if started else int(pid)
                for mode, pid, start in (line.split("\t") for line in lines)}

    monkeypatch.setattr(pipeline, "_fit", recording_fit)
    return read


def _await_fit(fit_pids, mode: str, timeout: float = 10.0) -> bool:
    """Whether `mode`'s fit starts within `timeout` seconds."""
    deadline = time.monotonic() + timeout
    while mode not in fit_pids() and time.monotonic() < deadline:
        time.sleep(0.01)
    return mode in fit_pids()


def test_later_runs_train_in_a_child_lane(base_config, tmp_path, monkeypatch,
                                          no_lane_left, fit_pids, pretrain_pids):
    # semantic_only reads no statistics embedding, so a child of its own
    # trains it, forked before this process pretrains the VAE.
    _use_cpus(monkeypatch, 2)
    pretrain, forked = statvae.pretrain, []

    def recording(vectors, config):
        forked.append(_has_child())
        return pretrain(vectors, config)

    monkeypatch.setattr(statvae, "pretrain", recording)
    run_ablation(base_config, tmp_path / "ablation")
    pids = fit_pids()
    assert set(pids) == set(MODES)
    assert pretrain_pids() == [os.getpid()]
    assert forked == [True]
    # then the other three, fewest trained entries first: stats_only, then
    # full and no_gate, which tie and keep their order, so a lane child
    # trains full beside semantic_only's child
    in_parent = {mode for mode, pid in pids.items() if pid == os.getpid()}
    assert in_parent == {"stats_only", "no_gate"}
    assert len({os.getpid(), pids["full"], pids["semantic_only"]}) == 3


def test_a_later_fit_starts_before_the_embedding_free_fit_ends(
        base_config, tmp_path, monkeypatch, no_lane_left, fit_pids):
    # semantic_only's fit waits in its child until a later fit has started:
    # the later lanes fork once the embedding cache exists, not once that
    # fit ends
    _use_cpus(monkeypatch, 2)
    fit, overlapped = pipeline._fit, tmp_path / "overlapped"

    def waiting(config, *args):
        if config.mode == "semantic_only" and _await_fit(fit_pids, "stats_only"):
            overlapped.touch()
        return fit(config, *args)

    monkeypatch.setattr(pipeline, "_fit", waiting)
    run_ablation(base_config, tmp_path / "ablation")
    assert overlapped.exists()
    assert set(fit_pids()) == set(MODES)


@pytest.mark.parametrize("cpus, in_parent", [
    (2, {"stats_only", "no_gate"}), (None, set(MODES))])
def test_lanes_count_cpus_without_sched_getaffinity(base_config, tmp_path, monkeypatch,
                                                    no_lane_left, fit_pids, cpus,
                                                    in_parent):
    # macOS and Windows have no os.sched_getaffinity; os.cpu_count may be None
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    run_ablation(base_config, tmp_path / "ablation")
    pids = fit_pids()
    assert set(pids) == set(MODES)
    assert {mode for mode, pid in pids.items() if pid == os.getpid()} == in_parent


def test_every_run_trains_here_where_fork_is_no_start_method(base_config, tmp_path,
                                                             monkeypatch, no_lane_left,
                                                             fit_pids):
    _use_cpus(monkeypatch, 4)
    monkeypatch.delattr(os, "fork")
    run_ablation(base_config, tmp_path / "ablation")
    assert fit_pids() == {mode: os.getpid() for mode in MODES}
    # in the order one CPU gives them
    started = fit_pids(started=True)
    assert sorted(MODES, key=started.get) == \
        ["semantic_only", "stats_only", "full", "no_gate"]


def _process_pool_modules_after(code: str) -> str:
    """The process-pool modules loaded after running `code` in a fresh interpreter."""
    code += ("; import sys; "
             "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    src = str(Path(pipeline.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    return out.stdout.strip()


def test_importing_the_entry_points_loads_no_process_pool():
    # a module-level import of either raised a default train's peak RSS by 1.6 MB
    assert _process_pool_modules_after("import loggate.pipeline, loggate.cli") == "[]"


def test_forked_lanes_load_no_process_pool():
    assert _process_pool_modules_after(
        "from loggate import pipeline; "
        "assert pipeline._map_lanes([int, str], 2) == [0, '']") == "[]"


@pytest.mark.parametrize("cpus", [2, 8])
def test_a_failing_child_lane_raises_its_stage_error(base_config, tmp_path,
                                                     monkeypatch, no_lane_left, cpus):
    _use_cpus(monkeypatch, cpus)
    forward = fusion.batch_forward

    def diverging(model, ids, mask, stat_rows):
        if model.mode == "no_gate":
            return np.full((len(ids), model.n_labels), np.nan), {}
        return forward(model, ids, mask, stat_rows)

    monkeypatch.setattr(fusion, "batch_forward", diverging)
    with pytest.raises(StageError, match=r"\[train-classifier\] non-finite loss") \
            as caught:
        run_ablation(base_config, tmp_path)
    assert caught.value.stage == "train-classifier"
    assert not (tmp_path / "no_gate" / "model.ckpt").exists()
    assert not (tmp_path / "ablation.tsv").exists()


def test_a_failing_vae_pretrain_stops_the_run_while_semantic_only_trains_beside_it(
        base_config, tmp_path, monkeypatch, no_lane_left, fit_pids):
    _use_cpus(monkeypatch, 2)
    parent = os.getpid()

    def failing(vectors, config):
        # any other failure here fails the match below
        assert os.getpid() == parent, "pretraining forked"
        assert _await_fit(fit_pids, "semantic_only"), "semantic_only did not train"
        raise FloatingPointError("vae fault")

    monkeypatch.setattr(statvae, "pretrain", failing)
    with pytest.raises(StageError, match=r"^\[vae-pretrain\] vae fault$") as caught:
        run_ablation(base_config, tmp_path)
    assert caught.value.stage == "vae-pretrain"
    assert set(fit_pids()) == {"semantic_only"}
    assert fit_pids()["semantic_only"] != os.getpid()
    for name in ("train_log.tsv", "model.ckpt", "metrics.tsv", "metrics.txt"):
        assert not list(tmp_path.rglob(name)), name
    assert not (tmp_path / "ablation.tsv").exists()


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_failure_without_a_message_is_named_by_its_type(base_config, tmp_path,
                                                          monkeypatch, no_lane_left, cpus):
    _use_cpus(monkeypatch, cpus)

    def failing(vectors, config):
        raise MemoryError()

    monkeypatch.setattr(statvae, "pretrain", failing)
    with pytest.raises(StageError, match=r"^\[vae-pretrain\] MemoryError$"):
        train(base_config, tmp_path)


def _trained_entries(config: RunConfig) -> int:
    dataset = load_dataset(config.dataset, pipeline._split_spec(config))
    model = fusion.build_model(corpus.FIRST_WORD_ID + len(dataset.vocab),
                               dataset.label_vocab.size, config.d_model,
                               config.latent_dim, config.m_fixed, config.epsilon,
                               config.mode, np.random.default_rng(0))
    return sum(t.values.size for t in model.trained_parameters().values())


@pytest.mark.parametrize("axis, mode, grid", [("ablation", None, None),
                                              ("hidden_dim", "full", [12, 4, 8]),
                                              ("hidden_dim", "semantic_only",
                                               [12, 16, 4, 8])])
def test_later_runs_start_in_ascending_order_of_trained_entries(
        base_config, tmp_path, monkeypatch, axis, mode, grid):
    # On one CPU every fit runs here in order: the first run that reads no
    # statistics embedding beside pretraining, then the rest, fewest
    # trained entries first, ties in run order.
    _use_cpus(monkeypatch, 1)
    started, fit = [], pipeline._fit

    def recording(config, *args):
        started.append(config)
        return fit(config, *args)

    monkeypatch.setattr(pipeline, "_fit", recording)
    if axis == "ablation":
        runs = [replace(base_config, mode=m) for m in MODES]
        run_ablation(base_config, tmp_path)
    else:
        runs = [replace(base_config, mode=mode, d_model=v) for v in grid]
        run_sweep(replace(base_config, mode=mode), axis, grid, tmp_path)
    beside = [c for c in runs if "stats" not in fusion.TRAINED_GROUPS[c.mode]][:1]
    later = sorted((c for c in runs if c not in beside), key=_trained_entries)
    assert started == beside + later
    assert later != [c for c in runs if c not in beside]


@pytest.mark.parametrize("field, changes", [
    ("seed", {"seed": 8}), ("vae_epochs", {"vae_epochs": 1}),
    ("train_ratio", {"train_ratio": 0.7, "test_ratio": 0.2}),
    ("dataset", {"dataset": "x.tsv"})])
def test_runs_sharing_preprocessing_differ_only_in_mode_epsilon_and_d_model(
        base_config, tmp_path, field, changes):
    other = replace(base_config, mode="no_gate", epsilon=0.3, d_model=4, **changes)
    runs = [(base_config, tmp_path / "a"), (other, tmp_path / "b")]
    with pytest.raises(ConfigError, match=rf"^runs sharing preprocessing must agree "
                                          rf"on {field}, got "):
        pipeline._train_sharing_preprocess(runs)
    assert list(tmp_path.iterdir()) == []


def test_a_failing_parent_lane_cancels_the_queued_child_runs(base_config, tmp_path,
                                                             monkeypatch, no_lane_left):
    # Two lanes over 8 points: the child's lane holds points 1, 3, 5 and 7.
    # Point 0 fails in this process once the child has started point 1:
    # point 1 finishes, and points 3, 5 and 7 must never start.
    _use_cpus(monkeypatch, 2)
    parent, fit, forward = os.getpid(), pipeline._fit, fusion.batch_forward
    started = tmp_path / "point 1 started"

    def slow_child_fit(config, *args):
        if os.getpid() != parent:
            started.touch()
            time.sleep(0.5)
        return fit(config, *args)

    def diverging(model, ids, mask, stat_rows):
        if model.epsilon == 0.0:
            deadline = time.monotonic() + 10.0
            while not started.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            return np.full((len(ids), model.n_labels), np.nan), {}
        return forward(model, ids, mask, stat_rows)

    monkeypatch.setattr(pipeline, "_fit", slow_child_fit)
    monkeypatch.setattr(fusion, "batch_forward", diverging)
    grid = [round(0.05 * i, 2) for i in range(8)]
    out = tmp_path / "sweep"
    with pytest.raises(StageError, match=r"\[train-classifier\] non-finite loss"):
        run_sweep(base_config, "epsilon", grid, out)
    assert (out / f"epsilon={grid[1]}" / "model.ckpt").exists()
    for point in (3, 5, 7):
        assert not (out / f"epsilon={grid[point]}").exists(), point
    assert not (out / "sweep.tsv").exists()


# -- the lane runner ---------------------------------------------------------------


def _lane_calls(fail_at=None) -> list:
    """Seven calls whose results outgrow a pipe's buffer; call `fail_at` raises."""
    def call(i):
        if i == fail_at:
            raise StageError("lane-test", f"call {i} failed")
        return np.full(100_000, float(i)), sum(range(20_000 * i))

    return [partial(call, i) for i in range(7)]


@pytest.fixture
def ticking():
    """A no-op SIGALRM handler runs every millisecond in this process."""
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: None)
    signal.setitimer(signal.ITIMER_REAL, 1e-3, 1e-3)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def deadline():
    """A TimeoutError is raised here if the test takes more than 30 s."""
    def expire(signum, frame):
        raise TimeoutError("the test took more than 30 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 30.0)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("lanes", [2, 3])
def test_lane_results_and_failures_hold_under_a_timer_signal(ticking, no_lane_left,
                                                             lanes):
    # the benchmark's clock interrupts this process every 20 ms
    expected = pipeline._map_lanes(_lane_calls(), 1)
    results = pipeline._map_lanes(_lane_calls(), lanes)
    assert len(results) == len(expected)
    for (array, total), (want_array, want_total) in zip(results, expected):
        np.testing.assert_array_equal(array, want_array)
        assert total == want_total
    for fail_at in (0, 1, 5):
        with pytest.raises(StageError, match=rf"^\[lane-test\] call {fail_at} failed$"):
            pipeline._map_lanes(_lane_calls(fail_at), lanes)


def test_a_child_that_exits_without_a_result_fails_naming_its_lane(deadline,
                                                                   no_lane_left):
    calls = [partial(int, 0), partial(os._exit, 3), partial(int, 2), partial(int, 3)]
    with pytest.raises(RuntimeError,
                       match=r"^lane 1 \(exit code 3\) returned no result for call 1$"):
        pipeline._map_lanes(calls, 2)


def _sleepy_or_large(i: int) -> np.ndarray:
    """Call i of six in three lanes: lane 1 sleeps 0.15 s, lane 2 returns 2 MB at once."""
    if i % 3 == 1:
        time.sleep(0.15)
    return np.full(1 << 18 if i % 3 == 2 else 4, float(i))


def test_a_lane_read_late_may_outgrow_its_pipe(deadline, no_lane_left):
    # lane 2's pipe fills while this process waits on the sleeping lane 1
    calls = [partial(_sleepy_or_large, i) for i in range(6)]
    expected = pipeline._map_lanes(calls, 1)
    for got, want in zip(pipeline._map_lanes(calls, 3), expected, strict=True):
        np.testing.assert_array_equal(got, want)


def _stamped(i: int) -> tuple[np.ndarray, float]:
    """Call i: a 1 KiB array and the time the call ends; call 0 sleeps 0.3 s first."""
    if i == 0:
        time.sleep(0.3)
    return np.full(128, float(i)), time.monotonic()


def test_a_child_lane_makes_every_call_before_it_sends_a_result(deadline,
                                                                no_lane_left):
    # lane 1's 256 results outgrow its pipe long before lane 0 wakes, so a
    # child that wrote each as it ended would wait for this process
    calls = [partial(_stamped, i) for i in range(512)]
    expected = pipeline._map_lanes(calls, 1)
    results = pipeline._map_lanes(calls, 2)
    assert results[-1][1] < results[0][1]
    for (got, _), (want, _) in zip(results, expected, strict=True):
        np.testing.assert_array_equal(got, want)


def test_a_lane_read_late_that_exits_without_a_result_fails_naming_its_lane(
        deadline, no_lane_left):
    calls = [partial(int, 0), partial(_sleepy_or_large, 1), partial(os._exit, 3),
             partial(int, 3), partial(int, 4), partial(int, 5)]
    with pytest.raises(RuntimeError,
                       match=r"^lane 2 \(exit code 3\) returned no result for call 2$"):
        pipeline._map_lanes(calls, 3)


def test_a_failed_fork_closes_its_pipe_and_leaves_no_lane(monkeypatch, no_lane_left):
    open_fds = Path("/proc/self/fd")
    if not open_fds.is_dir():
        pytest.skip("no /proc/self/fd to count open descriptors")
    made, fork = [], os.fork

    def second_fails():
        made.append(None)
        if len(made) == 2:
            raise BlockingIOError(errno.EAGAIN, "fork refused")
        return fork()

    monkeypatch.setattr(os, "fork", second_fails)
    before = len(os.listdir(open_fds))
    with pytest.raises(BlockingIOError, match="fork refused"):
        pipeline._map_lanes([partial(int, i) for i in range(6)], 3)
    assert len(made) == 2
    assert len(os.listdir(open_fds)) == before


class _NeedsTwoArguments(Exception):
    """Pickles, but does not unpickle: pickle calls the class with the message alone."""

    def __init__(self, what: str, where: str):
        super().__init__(f"{what} {where}")


def test_a_failure_that_cannot_be_pickled_still_reaches_the_caller(deadline,
                                                                   no_lane_left):
    class LocalError(Exception):  # pickle finds no class by this name
        pass

    def raising(exc):
        raise exc

    for exc, name in ((LocalError("lane fault"), "LocalError"),
                      (_NeedsTwoArguments("lane", "fault"), "_NeedsTwoArguments")):
        with pytest.raises(RuntimeError, match=rf"^lane 1: {name}: lane fault$"):
            pipeline._map_lanes([partial(int, 0), partial(raising, exc)], 2)
    # a result that cannot be pickled fails its call
    with pytest.raises(Exception, match=r"(?i)pickle"):
        pipeline._map_lanes([partial(int, 0), lambda: lambda: 0], 2)


# -- scoring lanes -----------------------------------------------------------------


@pytest.fixture
def score_pids(tmp_path, monkeypatch):
    """Records every scored chunk; call it for (mode, dtype, pid, first row, rows) rows.

    Rows count in the width-sorted split; the float64 chunks are
    near-tie re-scores.
    """
    log = tmp_path / "score-pids.tsv"
    chunk_logits = pipeline._chunk_logits

    def recording(model, inputs, rows):
        logits = chunk_logits(model, inputs, rows)
        picked = np.arange(len(inputs[2]))[rows]
        with log.open("a", encoding="utf-8") as handle:
            handle.write(f"{model.mode}\t{logits.dtype}\t{os.getpid()}\t{picked[0]}\t"
                         f"{len(picked)}\n")
        return logits

    monkeypatch.setattr(pipeline, "_chunk_logits", recording)

    def read():
        rows = log.read_text(encoding="utf-8").splitlines() if log.exists() else []
        log.unlink(missing_ok=True)
        return [(mode, dtype, int(pid), int(first), int(count))
                for mode, dtype, pid, first, count in (row.split("\t") for row in rows)]
    return read


def _lane_ranges(chunks, widths: np.ndarray, lanes: int) -> None:
    """`chunks` tile the width-sorted split of `widths`, chunk k in lane `k % lanes`.

    Lane 0 is this process, which also makes every float64 re-score. A
    lane may have no chunk; once there are at least as many chunks as
    lanes, each lane's padded tokens lie within one chunk's of an even
    share.
    """
    here, size = os.getpid(), pipeline.EVAL_CHUNK
    rescored = [(pid, first) for _, dtype, pid, first, _ in chunks if dtype == "float64"]
    assert all(pid == here for pid, _ in rescored)
    assert rescored == sorted(rescored)  # in sorted order
    chunks = sorted((c for c in chunks if c[1] == "float32"), key=lambda c: c[3])
    assert [c[3:] for c in chunks] == [(first, min(size, len(widths) - first))
                                       for first in range(0, len(widths), size)]
    lane_pids = {}
    for k, (_, _, pid, _, _) in enumerate(chunks):
        assert lane_pids.setdefault(k % lanes, pid) == pid, k
    assert lane_pids.get(0, here) == here
    assert len(set(lane_pids.values())) == len(lane_pids)
    if len(chunks) >= lanes:
        slots = np.sort(widths)
        tokens = np.array([count * slots[first + count - 1]
                           for *_, first, count in chunks])
        shares = np.bincount(np.arange(len(tokens)) % lanes, weights=tokens)
        assert np.abs(shares - tokens.sum() / lanes).max() <= tokens.max()


def _all_widths(trained) -> np.ndarray:
    """The padded widths of every record of a `train` result's dataset."""
    table = trained.dataset.table
    return table.widths(np.arange(len(table)), trained.model.m_fixed)


def test_scoring_lanes_give_the_one_lane_logits(ablated, monkeypatch, no_lane_left,
                                                score_pids):
    model, dataset, embeddings = _scoring_inputs(ablated[0] / "full")
    rows = np.tile(np.arange(len(dataset.table)), 6)
    sizes = (0, 1, 5, 31, 33, 100, 257, len(rows))
    assert len(rows) % pipeline.EVAL_CHUNK
    gaps = [pipeline.TIE_GAP]
    monkeypatch.setattr(pipeline, "LANE_MIN_ROWS", 1)
    _use_cpus(monkeypatch, 1)
    monkeypatch.setattr(pipeline, "TIE_GAP", -1.0)
    float32 = collect_logits(model, dataset.table, rows, embeddings)
    score_pids()
    top2 = np.sort(float32, axis=1)[:, -2:]
    # half the rows lie within this gap and are scored again in float64
    gaps.append(float(np.median(top2[:, 1] - top2[:, 0])))
    for gap in gaps:
        monkeypatch.setattr(pipeline, "TIE_GAP", gap)
        for n_rows in sizes:
            _use_cpus(monkeypatch, 1)
            one_lane = collect_logits(model, dataset.table, rows[:n_rows], embeddings)
            widths = dataset.table.widths(rows[:n_rows], model.m_fixed)
            _lane_ranges(score_pids(), widths, 1)
            for cpus in (2, 8):
                _use_cpus(monkeypatch, cpus)
                logits = collect_logits(model, dataset.table, rows[:n_rows], embeddings)
                np.testing.assert_array_equal(logits, one_lane, f"{cpus} {n_rows}")
                _lane_ranges(score_pids(), widths, max(1, min(cpus, n_rows)))
    assert not np.array_equal(one_lane, float32)


def test_scoring_forks_lanes_only_from_the_threshold(trained, monkeypatch,
                                                     no_lane_left, score_pids):
    _use_cpus(monkeypatch, 2)
    monkeypatch.setattr(pipeline, "EVAL_CHUNK", 8)
    rows = np.arange(len(trained.dataset.table))
    fork = os.fork

    def no_fork():
        raise AssertionError("a split below the threshold forked")

    for min_rows, lanes in ((len(rows) // 2 + 1, 1), (len(rows) // 2, 2)):
        monkeypatch.setattr(pipeline, "LANE_MIN_ROWS", min_rows)
        monkeypatch.setattr(os, "fork", no_fork if lanes == 1 else fork)
        collect_logits(trained.model, trained.dataset.table, rows, trained.embeddings)
        _lane_ranges(score_pids(), _all_widths(trained), lanes)


def test_training_lanes_score_in_their_own_process(base_config, tmp_path, monkeypatch,
                                                   no_lane_left, fit_pids, score_pids,
                                                   forks):
    _use_cpus(monkeypatch, 2)
    monkeypatch.setattr(pipeline, "LANE_MIN_ROWS", 1)
    monkeypatch.setattr(pipeline, "EVAL_CHUNK", 2)
    run_ablation(base_config, tmp_path / "ablation")
    fitted = fit_pids()
    scored = [row for row in score_pids() if row[1] == "float32"]
    # dev scoring every logged epoch plus the test split, in chunks of 2
    # rows; a run stops early after a dev macro-F1 of 1.0. semantic_only,
    # trained in a child of its own, scores its test split here once that
    # child is joined, outside any lane: on two lanes, the second a child
    # of its own.
    table = load_dataset(base_config.dataset, pipeline._split_spec(base_config)).table
    dev_chunks, test_chunks = (-(-table.split_rows(split).size // 2)
                               for split in ("dev", "test"))
    epochs = [len((tmp_path / "ablation" / mode / "train_log.tsv")
                  .read_text(encoding="utf-8").splitlines()) - 1 for mode in MODES]
    assert len(scored) == sum(epochs) * dev_chunks + len(MODES) * test_chunks
    assert {mode for mode, _, pid, *_ in scored if pid != fitted[mode]} == \
        {"semantic_only"}
    # its dev chunks were all scored before its test split's
    _lane_ranges([row for row in scored if row[0] == "semantic_only"][-test_chunks:],
                 table.widths(table.split_rows("test"), base_config.m_fixed), 2)
    # semantic_only's child, and this process and a child for the later runs
    assert len(set(fitted.values())) == 3
    # one child trains semantic_only, one trains later runs and one scores
    # part of semantic_only's test split: no lane forks scoring lanes
    assert forks() == 3


@pytest.mark.parametrize("cpus, lanes", [(2, 2), (None, 1)])
def test_scoring_lanes_count_cpus_without_sched_getaffinity(trained, monkeypatch,
                                                            no_lane_left, score_pids,
                                                            cpus, lanes):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(pipeline, "LANE_MIN_ROWS", 1)
    monkeypatch.setattr(pipeline, "EVAL_CHUNK", 8)
    rows = np.arange(len(trained.dataset.table))
    collect_logits(trained.model, trained.dataset.table, rows, trained.embeddings)
    _lane_ranges(score_pids(), _all_widths(trained), lanes)


def test_every_row_scores_here_where_fork_is_no_start_method(trained, monkeypatch,
                                                             no_lane_left, score_pids):
    _use_cpus(monkeypatch, 4)
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(pipeline, "LANE_MIN_ROWS", 1)
    monkeypatch.setattr(pipeline, "EVAL_CHUNK", 8)
    rows = np.arange(len(trained.dataset.table))
    collect_logits(trained.model, trained.dataset.table, rows, trained.embeddings)
    _lane_ranges(score_pids(), _all_widths(trained), 1)


def test_a_failing_scoring_lane_raises_its_stage_error(base_config, trained, tmp_path,
                                                       monkeypatch, no_lane_left):
    # the 6 test rows fill 3 chunks of 2, so the child scores at least one
    monkeypatch.setattr(pipeline, "EVAL_CHUNK", 2)
    _use_cpus(monkeypatch, 2)
    monkeypatch.setattr(pipeline, "LANE_MIN_ROWS", 1)
    parent, forward = os.getpid(), fusion.batch_forward

    def failing_in_a_child(model, ids, mask, stat_rows):
        if os.getpid() != parent:
            raise FloatingPointError("lane fault")
        return forward(model, ids, mask, stat_rows)

    monkeypatch.setattr(fusion, "batch_forward", failing_in_a_child)
    for run in (lambda: evaluate(trained.run_dir),
                lambda: train(replace(base_config, classifier_epochs=0), tmp_path)):
        with pytest.raises(StageError, match=r"\[evaluate-test\] lane fault") as caught:
            run()
        assert caught.value.stage == "evaluate-test"
    assert not (tmp_path / "metrics.tsv").exists()


def test_a_failing_parent_scoring_lane_raises_its_stage_error(base_config, tmp_path,
                                                              monkeypatch, no_lane_left):
    # 42 test rows in chunks of 32: this process's lane scores the first
    # chunk, the child the rest
    config = replace(base_config, classifier_epochs=0, train_ratio=0.3, dev_ratio=0.0,
                     test_ratio=0.7)
    monkeypatch.setattr(pipeline, "EVAL_CHUNK", 32)
    _use_cpus(monkeypatch, 2)
    monkeypatch.setattr(pipeline, "LANE_MIN_ROWS", 1)
    parent, forward = os.getpid(), fusion.batch_forward

    def failing_here(model, ids, mask, stat_rows):
        if os.getpid() == parent:
            # the child lane is forked before this process scores its own range
            assert _has_child(), "scoring did not fork"
            raise FloatingPointError("lane fault")
        return forward(model, ids, mask, stat_rows)

    monkeypatch.setattr(fusion, "batch_forward", failing_here)
    for run in (lambda: train(config, tmp_path), lambda: evaluate(tmp_path)):
        with pytest.raises(StageError, match=r"\[evaluate-test\] lane fault") as caught:
            run()
        assert caught.value.stage == "evaluate-test"
    assert not (tmp_path / "metrics.tsv").exists()


@pytest.mark.parametrize("cpus", [1, 2, 8])
def test_permuting_the_records_permutes_the_logits(scored_runs, monkeypatch,
                                                   no_lane_left, cpus):
    # messages of 5 to 7 tokens: padding a row wider changes none of its bits
    model, dataset, embeddings = scored_runs["full"]
    rows = np.tile(np.arange(len(dataset.table)), 3)
    assert len(np.unique(dataset.table.pad(rows, model.m_fixed)[1])) == 3
    order = np.random.default_rng(cpus).permutation(len(rows))
    monkeypatch.setattr(pipeline, "LANE_MIN_ROWS", 1)
    _use_cpus(monkeypatch, cpus)
    for gap in (pipeline.TIE_GAP, np.inf):  # np.inf scores every row again in float64
        monkeypatch.setattr(pipeline, "TIE_GAP", gap)
        logits = collect_logits(model, dataset.table, rows, embeddings)
        np.testing.assert_array_equal(
            collect_logits(model, dataset.table, rows[order], embeddings), logits[order])


@pytest.fixture(scope="module")
def wide_runs(tmp_path_factory):
    """Every mode trained at m_fixed=16 on messages of 3 to 20 tokens."""
    bank = word_bank(40, "pipe-wide")
    pools = {"ka": bank[:5], "kb": bank[5:10], "shared": bank[10:25], "extra": bank[25:]}
    labels = [LabelSpec(name, [f"{{{key}}} {{shared}} {{{key}}}",
                               " ".join([f"{{{key}}} {{shared}}"] * 6)],
                        [Injection("extra", rate=0.9, min_count=1, max_count=8)])
              for name, key in (("la", "ka"), ("lb", "kb"))]
    out = tmp_path_factory.mktemp("wide")
    generate_synthetic(SynthSpec("wide", 40, pools, labels), 5, out / "corpus.tsv")
    run_ablation(RunConfig(dataset=str(out / "corpus.tsv"), m_fixed=16, d_model=16,
                           latent_dim=4, vae_epochs=3, classifier_epochs=3, seed=7), out)
    return {mode: _scoring_inputs(out / mode) for mode in MODES}


@pytest.mark.parametrize("cpus", [1, 8])
def test_scoring_messages_wider_than_8_keeps_the_float64_argmax(wide_runs, monkeypatch,
                                                                no_lane_left, cpus):
    # From 8 key positions numpy sums a row pairwise, so the width a row is
    # padded to may move its float32 logits by an ulp.
    monkeypatch.setattr(pipeline, "LANE_MIN_ROWS", 1)
    _use_cpus(monkeypatch, cpus)
    for mode, (model, dataset, embeddings) in wide_runs.items():
        records = dataset.records * 3
        widths = dataset.table.pad(_ids(records), model.m_fixed)[1]
        assert widths.min() < 8 and widths.max() == 16
        reference = _float64_logits(model, dataset, records, embeddings)
        logits = collect_logits(model, dataset.table, _ids(records), embeddings)
        np.testing.assert_array_equal(logits.argmax(axis=1), reference.argmax(axis=1),
                                      mode)


@pytest.mark.parametrize("cpus", [2, 3, 8])
def test_scoring_lanes_share_the_padded_tokens(wide_runs, monkeypatch, no_lane_left,
                                               score_pids, cpus):
    # 60 chunks of 4 messages, 3 to 16 keys wide
    model, dataset, embeddings = wide_runs["full"]
    rows = np.tile(np.arange(len(dataset.table)), 3)
    monkeypatch.setattr(pipeline, "EVAL_CHUNK", 4)
    monkeypatch.setattr(pipeline, "LANE_MIN_ROWS", 1)
    _use_cpus(monkeypatch, cpus)
    collect_logits(model, dataset.table, rows, embeddings)
    _lane_ranges(score_pids(), dataset.table.widths(rows, model.m_fixed), cpus)


# -- forked ingest -----------------------------------------------------------------


INGEST_FILES = ("run.cfg", "stat_dict.tsv", "tokens.tbl", "vae.ckpt", "vae_log.tsv",
                "embeddings.tbl")


def _ingest_config(dataset=MINI_CORPUS) -> RunConfig:
    return RunConfig(dataset=str(dataset), m_fixed=10, d_model=16, latent_dim=4,
                     vae_epochs=2, classifier_epochs=1, seed=7)


@pytest.fixture
def pretrain_pids(tmp_path, monkeypatch):
    """Records the process of each VAE pretraining; call it for the pids so far."""
    log = tmp_path / "pretrain-pids.txt"
    pretrain = statvae.pretrain

    def recording(vectors, config):
        with log.open("a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()}\n")
        return pretrain(vectors, config)

    monkeypatch.setattr(statvae, "pretrain", recording)

    def read():
        pids = log.read_text(encoding="utf-8").split() if log.exists() else []
        log.unlink(missing_ok=True)
        return [int(pid) for pid in pids]
    return read


@pytest.fixture
def forks(monkeypatch):
    """Counts the lane children forked in this process; call it for the count so far."""
    made, fork = [], os.fork

    def counted():
        made.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return lambda: len(made)


def _mini_corpus_with(tmp_path, edits) -> Path:
    """A copy of MINI_CORPUS with line number -> new line `edits` applied."""
    lines = MINI_CORPUS.read_text(encoding="utf-8").splitlines()
    for lineno, line in edits.items():
        lines[lineno - 1] = line
    path = tmp_path / "corpus.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_forked_ingest_leaves_the_serial_bytes_at_every_cpu_count(
        tmp_path, monkeypatch, no_lane_left, pretrain_pids):
    config = _ingest_config()
    _use_cpus(monkeypatch, 2)
    serial = preprocess(config, tmp_path / "serial")
    assert pretrain_pids() == [os.getpid()]
    loaded = load_dataset(MINI_CORPUS)
    assert [rec.tokens for rec in serial.dataset.records] == \
        [rec.tokens for rec in loaded.records]
    for name in TokenTable.ARRAYS:
        np.testing.assert_array_equal(getattr(serial.dataset.table, name),
                                      getattr(loaded.table, name))
    monkeypatch.setattr(pipeline, "LANE_MIN_ROWS", 1)
    for cpus in (1, 2, 8):
        _use_cpus(monkeypatch, cpus)
        result = preprocess(config, tmp_path / f"cpus{cpus}")
        assert (pretrain_pids() == [os.getpid()]) == (cpus == 1), cpus
        np.testing.assert_array_equal(result.embeddings, serial.embeddings)
        for name in INGEST_FILES:
            assert (tmp_path / f"cpus{cpus}" / name).read_bytes() == \
                (tmp_path / "serial" / name).read_bytes(), (cpus, name)


def test_ingest_forks_from_the_threshold_or_beside_a_run_and_never_inside_a_lane(
        base_config, tmp_path, monkeypatch, no_lane_left, pretrain_pids, forks):
    _use_cpus(monkeypatch, 2)
    dataset = load_dataset(MINI_CORPUS)
    outside_train = len(dataset.records) - len(dataset.split_records("train"))
    for min_rows, forked in ((outside_train + 1, 0), (outside_train, 1)):
        monkeypatch.setattr(pipeline, "LANE_MIN_ROWS", min_rows)
        preprocess(_ingest_config(), tmp_path / f"min{min_rows}")
        assert forks() == forked, min_rows
        assert (pretrain_pids() != [os.getpid()]) == bool(forked), min_rows
    # An ablation never forks ingest: at any size it forks a child to train
    # semantic_only once ingest is done, pretrains here, then forks one more
    # child for the later runs. With the threshold at 1, every scoring
    # outside a lane forks: only semantic_only's test scoring, which runs
    # here once its child is joined, adds a child.
    for min_rows, children in ((10 ** 9, 2), (1, 3)):
        monkeypatch.setattr(pipeline, "LANE_MIN_ROWS", min_rows)
        forked = forks()
        run_ablation(base_config, tmp_path / f"ablation{min_rows}")
        assert forks() - forked == children, min_rows
        assert pretrain_pids() == [os.getpid()], min_rows


def test_a_failing_pretrain_lane_raises_its_stage_error(tmp_path, monkeypatch,
                                                        no_lane_left):
    _use_cpus(monkeypatch, 2)
    monkeypatch.setattr(pipeline, "LANE_MIN_ROWS", 1)
    parent = os.getpid()

    def failing(vectors, config):
        assert os.getpid() != parent, "pretraining did not fork"
        raise FloatingPointError("vae fault")

    monkeypatch.setattr(statvae, "pretrain", failing)
    with pytest.raises(StageError, match=r"^\[vae-pretrain\] vae fault$") as caught:
        preprocess(_ingest_config(), tmp_path)
    assert caught.value.stage == "vae-pretrain"
    for name in ("vae.ckpt", "vae_log.tsv", "embeddings.tbl"):
        assert not (tmp_path / name).exists(), name


def test_an_ablation_forking_ingest_leaves_the_serial_bytes_at_every_cpu_count(
        base_config, tmp_path, monkeypatch, no_lane_left):
    _use_cpus(monkeypatch, 1)
    serial = tmp_path / "serial"
    run_ablation(base_config, serial)
    monkeypatch.setattr(pipeline, "LANE_MIN_ROWS", 1)
    for cpus in (1, 2, 8):
        _use_cpus(monkeypatch, cpus)
        run_ablation(base_config, tmp_path / f"cpus{cpus}")
        for mode in MODES:
            assert_same_run_files(tmp_path / f"cpus{cpus}" / mode, serial / mode)
        assert (tmp_path / f"cpus{cpus}" / "ablation.tsv").read_bytes() == \
            (serial / "ablation.tsv").read_bytes()


def _child_exited(pid: int = 0) -> bool:
    """Whether child `pid` (with 0, any child) of this process has exited; reaps none."""
    return os.waitid(os.P_PID if pid else os.P_ALL, pid,
                     os.WEXITED | os.WNOHANG | os.WNOWAIT) is not None


def _await(condition, timeout: float = 10.0) -> bool:
    """Whether `condition()` holds within `timeout` seconds."""
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)
    return condition()


@pytest.mark.parametrize("cpus", [1, 2, 8])
def test_a_fit_diverging_beside_pretraining_stops_the_ablation(
        base_config, tmp_path, monkeypatch, no_lane_left, fit_pids, cpus):
    _use_cpus(monkeypatch, cpus)
    forward, pretrain = fusion.batch_forward, statvae.pretrain

    def after_the_failure(vectors, config):
        # on two or more CPUs semantic_only trains in a child forked before
        # pretraining, which exits once it fails; one CPU trains it later
        assert cpus == 1 or _await(_child_exited), "semantic_only's child is running"
        return pretrain(vectors, config)

    monkeypatch.setattr(statvae, "pretrain", after_the_failure)

    def diverging(model, ids, mask, stat_rows):
        if model.mode == "semantic_only":
            return np.full((len(ids), model.n_labels), np.nan), {}
        return forward(model, ids, mask, stat_rows)

    monkeypatch.setattr(fusion, "batch_forward", diverging)
    with pytest.raises(StageError, match=r"^\[train-classifier\] non-finite loss") \
            as caught:
        run_ablation(base_config, tmp_path)
    assert caught.value.stage == "train-classifier"
    # no later run started
    assert set(fit_pids()) == {"semantic_only"}
    assert (fit_pids()["semantic_only"] == os.getpid()) == (cpus == 1)
    assert not list(tmp_path.rglob("model.ckpt"))
    assert not (tmp_path / "ablation.tsv").exists()


def test_a_later_fit_diverging_while_semantic_only_trains_stops_the_ablation(
        base_config, tmp_path, monkeypatch, no_lane_left, fit_pids):
    # On two lanes stats_only trains here and full in a child. stats_only
    # fails once full has started, while semantic_only's child waits for
    # that failure: full and semantic_only finish, and only full is saved.
    _use_cpus(monkeypatch, 2)
    forward, fit, failed = fusion.batch_forward, pipeline._fit, tmp_path / "failed"

    def diverging(model, ids, mask, stat_rows):
        if model.mode == "stats_only":
            assert _await_fit(fit_pids, "full"), "full did not start"
            failed.touch()
            raise FloatingPointError("stats_only fault")
        return forward(model, ids, mask, stat_rows)

    def waiting(config, *args):
        if config.mode == "semantic_only":
            assert _await(failed.exists), "stats_only did not fail"
        return fit(config, *args)

    monkeypatch.setattr(fusion, "batch_forward", diverging)
    monkeypatch.setattr(pipeline, "_fit", waiting)
    out = tmp_path / "ablation"
    with pytest.raises(StageError, match=r"^\[train-classifier\] stats_only fault$") \
            as caught:
        run_ablation(base_config, out)
    assert caught.value.stage == "train-classifier"
    pids = fit_pids()
    assert pids["stats_only"] == os.getpid() != pids["semantic_only"]
    # no_gate, queued after stats_only here, never started
    assert set(pids) == {"semantic_only", "stats_only", "full"}
    assert sorted(path.parent.name for path in out.rglob("model.ckpt")) == ["full"]
    assert not (out / "semantic_only" / "metrics.tsv").exists()
    assert not (out / "ablation.tsv").exists()


def test_semantic_only_diverging_after_the_later_lanes_start_stops_the_ablation(
        base_config, tmp_path, monkeypatch, no_lane_left, fit_pids):
    # semantic_only fails once full has started in a child lane, while
    # stats_only trains here until semantic_only's child has exited: the
    # started fits finish, and no_gate, queued after stats_only, never starts.
    _use_cpus(monkeypatch, 2)
    forward, fit = fusion.batch_forward, pipeline._fit

    def diverging(model, ids, mask, stat_rows):
        if model.mode == "semantic_only":
            assert _await_fit(fit_pids, "full"), "full did not start"
            raise FloatingPointError("semantic_only fault")
        return forward(model, ids, mask, stat_rows)

    def waiting(config, *args):
        if config.mode == "stats_only":
            assert _await(lambda: _child_exited(fit_pids()["semantic_only"])), \
                "semantic_only's child is running"
        return fit(config, *args)

    monkeypatch.setattr(fusion, "batch_forward", diverging)
    monkeypatch.setattr(pipeline, "_fit", waiting)
    out = tmp_path / "ablation"
    with pytest.raises(StageError,
                       match=r"^\[train-classifier\] semantic_only fault$") as caught:
        run_ablation(base_config, out)
    assert caught.value.stage == "train-classifier"
    assert set(fit_pids()) == {"semantic_only", "stats_only", "full"}
    assert sorted(path.parent.name for path in out.rglob("model.ckpt")) == \
        ["full", "stats_only"]
    assert not (out / "ablation.tsv").exists()


def test_a_malformed_test_split_line_fails_before_ingest_forks(tmp_path, monkeypatch,
                                                               no_lane_left, forks):
    # no blank lines: message id i sits on line i + 1
    lineno = load_dataset(MINI_CORPUS).split_records("test")[-1].message_id + 1
    path = _mini_corpus_with(tmp_path, {lineno: "junk-no-tabs"})
    _use_cpus(monkeypatch, 2)
    monkeypatch.setattr(pipeline, "LANE_MIN_ROWS", 1)

    def no_fork():
        raise AssertionError("ingest forked before every line was parsed")

    monkeypatch.setattr(os, "fork", no_fork)
    with pytest.raises(StageError, match=rf"^\[load-dataset\] {re.escape(str(path))}:"
                                         rf"{lineno}: expected <label>"):
        preprocess(_ingest_config(path), tmp_path / "run")
    assert forks() == 0


def test_forked_ingest_warns_on_every_empty_message(tmp_path, monkeypatch,
                                                  no_lane_left, pretrain_pids):
    dataset = load_dataset(MINI_CORPUS)
    lines = MINI_CORPUS.read_text(encoding="utf-8").splitlines()
    empty = sorted(rec.message_id + 1 for split in corpus.SPLIT_NAMES
                   for rec in dataset.split_records(split)[:2])
    edits = {}
    for lineno in empty:
        label, task_id, _ = lines[lineno - 1].split("\t")
        edits[lineno] = f"{label}\t{task_id}\t" + ("" if lineno % 2 else "-- !!")
    path = _mini_corpus_with(tmp_path, edits)
    _use_cpus(monkeypatch, 2)
    monkeypatch.setattr(pipeline, "LANE_MIN_ROWS", 1)
    with pytest.warns(UserWarning) as caught:
        preprocess(_ingest_config(path), tmp_path / "run")
    assert pretrain_pids() != [os.getpid()]
    warned = sorted(int(str(w.message).split(":")[-2]) for w in caught
                    if str(w.message).endswith("message has no tokens"))
    assert warned == empty
    assert all(str(w.message).startswith(f"{path}:") for w in caught)
