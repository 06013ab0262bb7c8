"""Config handling and the staged train/evaluate/ablation/sweep pipeline."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from loggate import fusion, pipeline, statvae
from loggate.autodiff import Tensor
from loggate.corpus import load_dataset, SplitSpec
from loggate.pipeline import (ConfigError, RunConfig, StageError,
                              apply_overrides, build_stats, evaluate,
                              load_config, preprocess, run_ablation,
                              run_sweep, save_config, train)
from loggate.fusion import MODES
from loggate.synth import LabelSpec, SynthSpec, generate_synthetic, word_bank
from loggate.wordstats import load_stat_dictionary

from helpers import ReferenceAdam, random_text, reference_pooled_stats, total_tokens

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


@pytest.mark.parametrize("overrides,message", [
    (dict(epsilon=0.7), "epsilon"),
    (dict(epsilon=-0.1), "epsilon"),
    (dict(mode="bogus"), "mode"),
    (dict(m_fixed=0), "m_fixed"),
    (dict(classifier_epochs=-1), "classifier_epochs"),
    (dict(train_ratio=0.5), "split ratios"),
])
def test_config_validation(overrides, message):
    with pytest.raises(ConfigError, match=message):
        RunConfig(dataset="x", **overrides).validate()


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
            seed=int(rng.integers(-2 ** 62, 2 ** 62)),
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
    for name in ("stat_dict.tsv", "vae.ckpt", "vae_log.tsv", "embeddings.tbl",
                 "model.ckpt", "train_log.tsv", "metrics.tsv", "run.cfg"):
        assert (tmp_path / name).read_bytes() == \
            (trained.run_dir / name).read_bytes(), name


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
    monkeypatch.setattr(fusion, "forward",
                        lambda model, token_ids, stat_embedding:
                        Tensor(np.full((len(token_ids), model.n_labels), np.nan)))
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


def test_evaluate_missing_run(tmp_path):
    with pytest.raises(StageError, match=r"\[load-artifacts\]"):
        evaluate(tmp_path / "never_ran")


def test_evaluate_rejects_stale_dictionary(base_config, tmp_path):
    result = train(base_config, tmp_path)
    dict_path = result.run_dir / "stat_dict.tsv"
    dict_path.write_text(dict_path.read_text(encoding="utf-8") + "zzz\t1,0\n",
                         encoding="utf-8")
    with pytest.raises(StageError, match="different statistics dictionary"):
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
RUN_FILES = ("run.cfg", "stat_dict.tsv", "vae.ckpt", "vae_log.tsv",
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
    # The flat-buffer Adam and the one-pass pooling change no float
    # operation, so the run must match the per-parameter Adam loop and
    # one message_stats call per record, byte for byte.
    config = RunConfig(dataset=str(MINI_CORPUS), m_fixed=10, d_model=16,
                       latent_dim=4, vae_epochs=3, classifier_epochs=2, seed=7)
    train(config, tmp_path / "fast")
    monkeypatch.setattr(statvae, "Adam", ReferenceAdam)
    monkeypatch.setattr(pipeline, "Adam", ReferenceAdam)
    monkeypatch.setattr(pipeline, "pooled_stats", reference_pooled_stats)
    train(config, tmp_path / "loop")
    assert_same_run_files(tmp_path / "fast", tmp_path / "loop")
