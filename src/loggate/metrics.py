"""Per-label precision/recall/F1 reports with confusion matrices."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class MetricsReport:
    labels: list[str]
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    macro_f1: float
    micro_f1: float
    confusion: np.ndarray
    config: dict[str, str] = field(default_factory=dict)
    wall_clock: float = 0.0


def confusion_matrix(true_ids, pred_ids, n_labels: int) -> np.ndarray:
    """(n, n) count matrix; rows are true labels, columns predictions."""
    true_ids = np.asarray(true_ids, dtype=np.int64)
    pred_ids = np.asarray(pred_ids, dtype=np.int64)
    if true_ids.shape != pred_ids.shape:
        raise ValueError(
            f"{true_ids.shape[0]} true labels vs {pred_ids.shape[0]} predictions")
    for name, ids in (("true", true_ids), ("predicted", pred_ids)):
        if ids.size and (ids.min() < 0 or ids.max() >= n_labels):
            raise ValueError(f"{name} label id out of range [0, {n_labels})")
    matrix = np.zeros((n_labels, n_labels), dtype=np.int64)
    np.add.at(matrix, (true_ids, pred_ids), 1)
    return matrix


def _safe_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    out = np.zeros_like(num, dtype=np.float64)
    np.divide(num, den, out=out, where=den > 0)
    return out


def compute_metrics(true_ids, pred_ids, labels: list[str],
                    config: dict[str, str] | None = None,
                    wall_clock: float = 0.0) -> MetricsReport:
    """Report over one prediction set.

    Per-label F1 is the harmonic mean of precision and recall, defined
    as 0 when both are 0. Macro-F1 averages over every label in the
    vocabulary; micro-F1 equals plain accuracy for single-label data.
    """
    matrix = confusion_matrix(true_ids, pred_ids, len(labels))
    diag = np.diag(matrix).astype(np.float64)
    precision = _safe_div(diag, matrix.sum(axis=0))
    recall = _safe_div(diag, matrix.sum(axis=1))
    f1 = _safe_div(2.0 * precision * recall, precision + recall)
    total = matrix.sum()
    micro = float(diag.sum() / total) if total else 0.0
    return MetricsReport(
        labels=list(labels), precision=precision, recall=recall, f1=f1,
        macro_f1=float(f1.mean()) if labels else 0.0, micro_f1=micro,
        confusion=matrix, config=dict(config or {}), wall_clock=wall_clock)


def write_metrics(report: MetricsReport, path: str | Path) -> None:
    """Machine-readable report: one `name<TAB>label<TAB>value` per line.

    Deliberately excludes wall-clock time so identical runs produce
    byte-identical files. Values are written as Python float reprs:
    numpy 2's repr of a numpy scalar is `np.float64(...)`.
    """
    lines = []
    for i, label in enumerate(report.labels):
        lines.append(f"precision\t{label}\t{float(report.precision[i])!r}")
        lines.append(f"recall\t{label}\t{float(report.recall[i])!r}")
        lines.append(f"f1\t{label}\t{float(report.f1[i])!r}")
    lines.append(f"macro_f1\t-\t{report.macro_f1!r}")
    lines.append(f"micro_f1\t-\t{report.micro_f1!r}")
    for i, true_label in enumerate(report.labels):
        for j, pred_label in enumerate(report.labels):
            lines.append(
                f"confusion\t{true_label}|{pred_label}\t{report.confusion[i, j]}")
    for key in sorted(report.config):
        lines.append(f"config\t{key}\t{report.config[key]}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def format_metrics(report: MetricsReport) -> str:
    """Human-readable summary, wall clock included."""
    width = max([len(l) for l in report.labels] + [5])
    lines = [f"{'label'.ljust(width)}  precision  recall     f1"]
    for i, label in enumerate(report.labels):
        lines.append(f"{label.ljust(width)}  {report.precision[i]:9.4f}  "
                     f"{report.recall[i]:6.4f}  {report.f1[i]:6.4f}")
    lines.append(f"macro-F1 {report.macro_f1:.4f}   micro-F1 {report.micro_f1:.4f}")
    lines.append("confusion (rows = true label):")
    cell = max(len(str(report.confusion.max())) if report.labels else 1, 4)
    header = " " * (width + 2) + " ".join(
        label[:cell].rjust(cell) for label in report.labels)
    lines.append(header)
    for i, label in enumerate(report.labels):
        row = " ".join(str(v).rjust(cell) for v in report.confusion[i])
        lines.append(f"{label.ljust(width)}  {row}")
    lines.append(f"wall clock: {report.wall_clock:.2f}s")
    return "\n".join(lines)
