"""Confusion matrix and precision/recall/F1 against loop-based oracles."""

import numpy as np
import pytest

from loggate.metrics import (compute_metrics, confusion_matrix, format_metrics,
                             write_metrics)

from helpers import brute_force_metrics


def test_confusion_matrix_counts():
    matrix = confusion_matrix([0, 0, 1, 2, 1], [0, 1, 1, 2, 1], 3)
    assert matrix.tolist() == [[1, 1, 0], [0, 2, 0], [0, 0, 1]]
    assert matrix.sum() == 5


def test_confusion_matrix_validates():
    with pytest.raises(ValueError, match="true labels vs"):
        confusion_matrix([0, 1], [0], 2)
    with pytest.raises(ValueError, match="out of range"):
        confusion_matrix([0, 3], [0, 0], 3)
    with pytest.raises(ValueError, match="out of range"):
        confusion_matrix([0, 0], [0, -1], 3)


def test_metrics_hand_example():
    # label 0: tp=2 fp=1 fn=0; label 1: tp=1 fp=0 fn=1
    report = compute_metrics([0, 0, 1, 1], [0, 0, 1, 0], ["a", "b"])
    np.testing.assert_allclose(report.precision, [2 / 3, 1.0])
    np.testing.assert_allclose(report.recall, [1.0, 0.5])
    np.testing.assert_allclose(report.f1, [0.8, 2 / 3])
    assert report.macro_f1 == pytest.approx((0.8 + 2 / 3) / 2)
    assert report.micro_f1 == pytest.approx(0.75)


def test_metrics_match_brute_force_oracle():
    rng = np.random.Generator(np.random.PCG64(81))
    for _ in range(20):
        n_labels = int(rng.integers(2, 6))
        n = int(rng.integers(1, 40))
        true_ids = rng.integers(0, n_labels, n)
        pred_ids = rng.integers(0, n_labels, n)
        report = compute_metrics(true_ids, pred_ids,
                                 [f"l{i}" for i in range(n_labels)])
        precision, recall, f1, macro, micro = brute_force_metrics(
            true_ids.tolist(), pred_ids.tolist(), n_labels)
        np.testing.assert_allclose(report.precision, precision, atol=1e-15)
        np.testing.assert_allclose(report.recall, recall, atol=1e-15)
        np.testing.assert_allclose(report.f1, f1, atol=1e-15)
        assert report.macro_f1 == pytest.approx(macro, abs=1e-15)
        assert report.micro_f1 == pytest.approx(micro, abs=1e-15)


def test_micro_f1_is_accuracy():
    rng = np.random.Generator(np.random.PCG64(82))
    true_ids = rng.integers(0, 4, 50)
    pred_ids = rng.integers(0, 4, 50)
    report = compute_metrics(true_ids, pred_ids, list("abcd"))
    assert report.micro_f1 == pytest.approx(np.mean(true_ids == pred_ids))


def test_degenerate_predictors():
    # all-one-class predictor: absent-class P/R/F1 are defined as 0
    report = compute_metrics([0, 1, 2, 1], [1, 1, 1, 1], list("xyz"))
    assert report.precision[0] == report.recall[0] == report.f1[0] == 0.0
    assert report.precision[2] == report.recall[2] == report.f1[2] == 0.0
    assert report.recall[1] == 1.0
    perfect = compute_metrics([0, 1, 2], [0, 1, 2], list("xyz"))
    assert perfect.macro_f1 == 1.0 and perfect.micro_f1 == 1.0


def test_label_missing_from_data_counts_in_macro():
    # macro averages over the label vocabulary, not the observed labels
    report = compute_metrics([0, 0], [0, 0], ["seen", "absent"])
    assert report.f1.tolist() == [1.0, 0.0]
    assert report.macro_f1 == 0.5


def test_write_metrics_deterministic_and_complete(tmp_path):
    report = compute_metrics([0, 1, 1], [0, 1, 0], ["a", "b"],
                             config={"seed": "7"}, wall_clock=1.23)
    p1, p2 = tmp_path / "m1.tsv", tmp_path / "m2.tsv"
    write_metrics(report, p1)
    slower = compute_metrics([0, 1, 1], [0, 1, 0], ["a", "b"],
                             config={"seed": "7"}, wall_clock=99.9)
    write_metrics(slower, p2)
    assert p1.read_bytes() == p2.read_bytes()  # wall clock excluded
    text = p1.read_text(encoding="utf-8")
    assert f"macro_f1\t-\t{report.macro_f1!r}\n" in text
    assert "confusion\ta|b\t0" in text
    assert "config\tseed\t7" in text


def test_write_metrics_values_parse_as_floats(tmp_path):
    # numpy 2 reprs a numpy scalar as `np.float64(...)`, which float() refuses
    labels = ["a", "b", "c"]
    report = compute_metrics([0, 1, 1, 2], [0, 1, 0, 2], labels)
    path = tmp_path / "m.tsv"
    write_metrics(report, path)
    values = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        name, label, value = line.split("\t")
        if name in ("precision", "recall", "f1", "macro_f1", "micro_f1"):
            values[name, label] = float(value)
    assert len(values) == 3 * len(labels) + 2
    for name in ("precision", "recall", "f1"):
        assert [values[name, label] for label in labels] == \
            getattr(report, name).tolist(), name
    assert values["macro_f1", "-"] == report.macro_f1
    assert values["micro_f1", "-"] == report.micro_f1


def test_format_metrics_mentions_every_label():
    report = compute_metrics([0, 1], [0, 1], ["alpha", "beta"], wall_clock=2.0)
    text = format_metrics(report)
    assert "alpha" in text and "beta" in text
    assert "macro-F1 1.0000" in text
    assert "wall clock: 2.00s" in text
