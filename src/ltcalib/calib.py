"""Calibration metrics: ECE, reliability-diagram bins, per-split accuracy,
and true-class probability distributions.

Bins are equal-width and half-open, Bin-b = ((b-1)/B, b/B], with the first
bin closed at 0 so a confidence of exactly 0 (impossible for softmax output,
but accepted) lands in bin 1 and a confidence of 1.0 lands in bin B.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import write_csv

__all__ = [
    "PredictionLog",
    "CalibrationReport",
    "ece",
    "reliability_bins",
    "split_accuracy",
    "probability_distribution",
]


@dataclass
class PredictionLog:
    """Per-sample prediction records, the three numbers per row that every report
    reads; ``p_true`` is optional, and only :func:`probability_distribution` needs it."""

    confidence: np.ndarray  # max predicted probability
    predicted: np.ndarray  # argmax class
    label: np.ndarray  # true class
    p_true: np.ndarray | None = None  # probability of the true class, when logged

    @classmethod
    def from_probs(cls, probs: np.ndarray, labels: np.ndarray) -> "PredictionLog":
        """The records of (N, K) probability rows; the rows themselves are not kept."""
        probs = np.asarray(probs, dtype=np.float64)
        labels = np.asarray(labels)
        rows = np.arange(len(labels))
        predicted = probs.argmax(axis=1)
        return cls(
            confidence=probs[rows, predicted],
            predicted=predicted,
            label=labels,
            p_true=probs[rows, labels],
        )

    def __len__(self):
        return len(self.label)

    @property
    def correct(self) -> np.ndarray:
        return (self.predicted == self.label).astype(np.float64)


@dataclass
class CalibrationReport:
    bins: int
    bin_counts: np.ndarray
    bin_accuracy: np.ndarray  # zero for empty bins
    bin_confidence: np.ndarray
    ece_percent: float
    direction: str  # over-confident | under-confident | mixed


def bin_index(confidence: np.ndarray, b: int) -> np.ndarray:
    """0-based bin index under the ((b-1)/B, b/B] convention.

    Uses the literal upper edges j/B so that edge cases agree exactly with a
    direct interval test ``bin_lo < c <= bin_hi``.
    """
    edges = np.arange(1, b + 1) / b
    idx = np.searchsorted(edges, np.asarray(confidence), side="left")
    return np.clip(idx, 0, b - 1)


def ece(log: PredictionLog, b: int = 15) -> CalibrationReport:
    """Expected calibration error in percent, plus per-bin statistics."""
    if b < 1:
        raise ValueError("need at least one bin")
    n = len(log)
    if n == 0:
        raise ValueError("empty prediction log")
    idx = bin_index(log.confidence, b)
    counts = np.bincount(idx, minlength=b)
    conf_sums = np.bincount(idx, weights=log.confidence, minlength=b)
    acc_sums = np.bincount(idx, weights=log.correct, minlength=b)
    occupied = counts > 0
    acc = np.zeros(b)
    conf = np.zeros(b)
    acc[occupied] = acc_sums[occupied] / counts[occupied]
    conf[occupied] = conf_sums[occupied] / counts[occupied]

    total = 0.0
    signed = 0.0
    for j in range(b):
        if counts[j] == 0:
            continue
        gap = conf[j] - acc[j]
        total += counts[j] / n * abs(gap)
        signed += counts[j] / n * gap
    if signed > 0:
        direction = "over-confident"
    elif signed < 0:
        direction = "under-confident"
    else:
        direction = "mixed"
    return CalibrationReport(
        bins=b,
        bin_counts=counts,
        bin_accuracy=acc,
        bin_confidence=conf,
        ece_percent=float(total * 100.0),
        direction=direction,
    )


def reliability_bins(log: PredictionLog, b: int = 15) -> list[dict]:
    """One row per bin, empty bins included, covering (0, 1] without gaps."""
    report = ece(log, b)
    rows = []
    for j in range(b):
        rows.append(
            {
                "bin_lo": j / b,
                "bin_hi": (j + 1) / b,
                "count": int(report.bin_counts[j]),
                "accuracy": float(report.bin_accuracy[j]),
                "confidence": float(report.bin_confidence[j]),
            }
        )
    return rows


def export_reliability_csv(rows: list[dict], path: str | Path):
    write_csv(path, ["bin_lo", "bin_hi", "count", "accuracy", "confidence"],
              ([repr(r["bin_lo"]), repr(r["bin_hi"]), r["count"], repr(r["accuracy"]), repr(r["confidence"])]
               for r in rows))


def split_accuracy(log: PredictionLog, splits: list[str]) -> dict[str, float | None]:
    """Accuracy per many/medium/few split and overall; absent splits map to None."""
    splits_arr = np.asarray(splits)
    if log.label.max() >= len(splits_arr):
        raise ValueError("a logged label has no split tag")
    per_sample = splits_arr[log.label]
    out: dict[str, float | None] = {}
    for name in ("many", "medium", "few"):
        mask = per_sample == name
        out[name] = float(log.correct[mask].mean() * 100.0) if mask.any() else None
    out["all"] = float(log.correct.mean() * 100.0)
    return out


def probability_distribution(log: PredictionLog, splits: list[str]) -> dict[str, dict]:
    """True-class probability samples and summary stats per split."""
    if log.p_true is None:
        raise ValueError("true-class probabilities were not logged")
    per_sample = np.asarray(splits)[log.label]
    out = {}
    for name in ("many", "medium", "few"):
        vals = log.p_true[per_sample == name]
        out[name] = {
            "samples": vals,
            "mean": float(vals.mean()) if len(vals) else None,
            "median": float(np.median(vals)) if len(vals) else None,
            "frac_above_099": float((vals > 0.99).mean()) if len(vals) else None,
        }
    return out


def export_distribution_csv(dist: dict[str, dict], path: str | Path):
    write_csv(path, ["split", "p_true"],
              ([name, repr(float(v))] for name in ("many", "medium", "few") for v in dist[name]["samples"]))
