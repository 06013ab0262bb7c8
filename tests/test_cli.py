"""CLI argument handling, exit codes and delegation onto the pipeline."""

import json
from pathlib import Path

import pytest

from loggate.cli import main
from loggate.synth import LabelSpec, SynthSpec, generate_synthetic, word_bank


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    bank = word_bank(30, "cli-test")
    spec = SynthSpec("cli", 24,
                     {"ka": bank[:4], "kb": bank[4:8], "shared": bank[8:20]},
                     [LabelSpec("la", ["{ka} {shared} {ka}"]),
                      LabelSpec("lb", ["{kb} {shared} {kb}"])])
    path = tmp_path_factory.mktemp("corpus") / "corpus.tsv"
    generate_synthetic(spec, 5, path)
    return path


@pytest.fixture(scope="module")
def config_args(corpus_path):
    return [
        "--set", f"dataset={corpus_path}",
        "--set", "m_fixed=6", "--set", "d_model=8", "--set", "latent_dim=3",
        "--set", "batch_size=16", "--set", "vae_epochs=1",
        "--set", "classifier_epochs=2",
    ]


@pytest.fixture(scope="module")
def run_dir(config_args, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-train")
    assert main(["train", *config_args, "--out-dir", str(out)]) == 0
    return out


# -- usage errors -----------------------------------------------------------


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--nope"])
    assert exc.value.code == 2


def test_bad_preset_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--preset", "bogus", "--out", "x.tsv"])
    assert exc.value.code == 2


# -- runtime errors exit 1 ---------------------------------------------------


def test_missing_file_reports_error(tmp_path, capsys):
    assert main(["profile", str(tmp_path / "missing.log")]) == 1
    assert "error:" in capsys.readouterr().err


def test_bad_override_reports_error(tmp_path, capsys):
    assert main(["train", "--set", "no_such_key=1",
                 "--out-dir", str(tmp_path)]) == 1
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverged_training_fails_loudly(tmp_path, capsys):
    # lr 1e6 drives the VAE loss to NaN within the first epoch; the run must
    # stop there, name the stage, and leave no checkpoint or cache behind
    corpus = Path(__file__).resolve().parent / "data" / "mini_corpus.tsv"
    code = main(["train", "--set", f"dataset={corpus}", "--set", "learning_rate=1e6",
                 "--set", "vae_epochs=2", "--set", "classifier_epochs=1",
                 "--out-dir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "[vae-pretrain] non-finite loss" in err and "epoch 0 step" in err
    for name in ("vae.ckpt", "embeddings.tbl", "model.ckpt"):
        assert not (tmp_path / name).exists(), name


def test_evaluate_without_run_reports_error(tmp_path, capsys):
    assert main(["evaluate", "--run-dir", str(tmp_path / "nope")]) == 1
    assert "load-artifacts" in capsys.readouterr().err


def test_evaluate_on_an_empty_split_fails_loudly(tmp_path, capsys):
    # with dev_ratio=0 the dev split has no record: scoring it must not
    # report a macro-F1 of 0
    corpus = Path(__file__).resolve().parent / "data" / "mini_corpus.tsv"
    assert main(["train", "--set", f"dataset={corpus}", "--set", "train_ratio=0.9",
                 "--set", "dev_ratio=0", "--set", "m_fixed=6", "--set", "d_model=8",
                 "--set", "latent_dim=3", "--set", "vae_epochs=1",
                 "--set", "classifier_epochs=1", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--run-dir", str(tmp_path), "--split", "dev"]) == 1
    captured = capsys.readouterr()
    assert "[evaluate-dev] split 'dev' has no records" in captured.err
    assert "macro" not in captured.out


def test_train_with_an_empty_test_split_fails_before_the_classifier(tmp_path, capsys):
    # with test_ratio=0 there is nothing to report: the run must not train a
    # classifier and then write a macro-F1 of 0
    corpus = Path(__file__).resolve().parent / "data" / "mini_corpus.tsv"
    assert main(["train", "--set", f"dataset={corpus}", "--set", "train_ratio=0.9",
                 "--set", "dev_ratio=0.1", "--set", "test_ratio=0",
                 "--set", "m_fixed=6", "--set", "d_model=8", "--set", "latent_dim=3",
                 "--set", "vae_epochs=1", "--set", "classifier_epochs=1",
                 "--out-dir", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert "[evaluate-test] split 'test' has no records to score" in captured.err
    assert "macro" not in captured.out
    for name in ("model.ckpt", "train_log.tsv", "metrics.tsv"):
        assert not (tmp_path / name).exists(), name


# -- subcommands --------------------------------------------------------------


def test_profile_subcommand(tmp_path, capsys):
    log = tmp_path / "sample.log"
    log.write_text("alpha beta\nbeta gamma gamma\n", encoding="utf-8")
    out = tmp_path / "profile.tsv"
    assert main(["profile", str(log), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "total lines: 2" in stdout
    assert "distinct words: 3" in stdout
    assert "distinct_words\t3" in out.read_text(encoding="utf-8")


def test_synth_subcommand(tmp_path, capsys):
    out = tmp_path / "c.tsv"
    assert main(["synth", "--preset", "default", "--out", str(out),
                 "--seed", "3", "--messages-per-label", "2"]) == 0
    assert "wrote 8 lines" in capsys.readouterr().out
    assert len(out.read_text(encoding="utf-8").splitlines()) == 8
    manifest = json.loads((tmp_path / "c.tsv.manifest.json").read_text())
    assert manifest["seed"] == 3


def test_build_stats_subcommand(config_args, tmp_path, capsys):
    assert main(["build-stats", *config_args, "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "stat_dict.tsv").exists()
    assert "statistics dictionary" in capsys.readouterr().out


def test_pretrain_vae_subcommand(config_args, tmp_path, capsys):
    assert main(["pretrain-vae", *config_args, "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "vae.ckpt").exists()
    assert (tmp_path / "embeddings.tbl").exists()
    assert "embedding cache" in capsys.readouterr().out


def test_train_subcommand_artifacts(run_dir, capsys):
    for name in ("model.ckpt", "metrics.tsv", "metrics.txt", "train_log.tsv"):
        assert (run_dir / name).exists(), name


def test_train_uses_config_file(corpus_path, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"dataset={corpus_path}\nm_fixed=6\nd_model=8\n"
                   "latent_dim=3\nvae_epochs=1\nclassifier_epochs=1\n",
                   encoding="utf-8")
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg),
                 "--set", "classifier_epochs=2", "--out-dir", str(out)]) == 0
    text = (out / "run.cfg").read_text(encoding="utf-8")
    assert "classifier_epochs=2" in text  # override beats the file
    assert "macro-F1" in capsys.readouterr().out


def test_cli_train_matches_direct_pipeline_call(config_args, run_dir, tmp_path):
    # thin delegation: the CLI may add nothing beyond parsing and paths
    from loggate.pipeline import RunConfig, apply_overrides, train
    overrides = [a for a in config_args if a != "--set"]
    config = apply_overrides(RunConfig(), overrides)
    train(config, tmp_path)
    for name in ("model.ckpt", "metrics.tsv", "train_log.tsv", "run.cfg"):
        assert (tmp_path / name).read_bytes() == (run_dir / name).read_bytes(), name


def test_evaluate_subcommand(run_dir, tmp_path, capsys):
    out = tmp_path / "metrics.tsv"
    assert main(["evaluate", "--run-dir", str(run_dir), "--split", "test",
                 "--out", str(out)]) == 0
    assert "macro-F1" in capsys.readouterr().out
    assert "macro_f1\t-\t" in out.read_text(encoding="utf-8")


def test_out_root_env_fallback(config_args, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LOGGATE_OUT_ROOT", str(tmp_path / "root"))
    assert main(["build-stats", *config_args]) == 0
    assert (tmp_path / "root" / "build-stats" / "stat_dict.tsv").exists()


def test_ablate_subcommand(config_args, tmp_path, capsys):
    assert main(["ablate", *config_args, "--set", "classifier_epochs=1",
                 "--out-dir", str(tmp_path)]) == 0
    stdout = capsys.readouterr().out
    for mode in ("full", "stats_only", "semantic_only", "no_gate"):
        assert mode in stdout
        assert (tmp_path / mode / "metrics.tsv").exists()
    assert (tmp_path / "ablation.tsv").exists()


def test_sweep_subcommand(config_args, tmp_path, capsys):
    assert main(["sweep", *config_args, "--set", "classifier_epochs=1",
                 "--axis", "epsilon", "--grid", "0.0,0.2",
                 "--out-dir", str(tmp_path)]) == 0
    stdout = capsys.readouterr().out
    assert "epsilon=0.0" in stdout and "epsilon=0.2" in stdout
    assert (tmp_path / "sweep.tsv").exists()
    assert (tmp_path / "epsilon=0.0" / "model.ckpt").exists()
