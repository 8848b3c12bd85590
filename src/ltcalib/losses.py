"""Cross-entropy variants: soft-target CE, per-class weighted CE, and
label-aware smoothing with count-dependent smoothing factors.

The smoothing factor for class y is eps_y = f(N_y), where f maps the class's
training count into [eps_K, eps_1] and is non-decreasing in the count, so
head classes are smoothed harder than tail classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import write_json
from .data import one_hot
from .tensor import Tensor, softmax_cross_entropy

__all__ = [
    "related_fn_eval",
    "SmoothingSchedule",
    "las_targets",
    "soft_ce_loss",
    "ce_loss",
    "weighted_ce_loss",
    "effective_number_weights",
    "las_optimal_logit_gap",
]

RELATED_FN_KINDS = ("concave", "linear", "convex", "exponential")


def related_fn_eval(
    kind: str,
    eps1: float,
    eps_k: float,
    n_y: float,
    n_1: float,
    n_k: float,
    p: float = 2.0,
) -> float:
    """Smoothing factor for a class with count n_y, given endpoint counts n_1 >= n_k.

    concave:     eps_k + (eps1 - eps_k) * sin(pi*t/2)
    linear:      eps_k + (eps1 - eps_k) * t
    convex:      eps1  + (eps1 - eps_k) * sin(3*pi/2 + pi*t/2)
    exponential: eps_k + (eps1 - eps_k) * t**p
    with t = (n_y - n_k)/(n_1 - n_k). A balanced dataset (n_1 == n_k) makes
    t indeterminate; we fall back to uniform smoothing eps1.
    """
    if kind not in RELATED_FN_KINDS:
        raise ValueError(f"unknown related function {kind!r}")
    if not (n_k <= n_y <= n_1):
        raise ValueError("require n_k <= n_y <= n_1")
    if n_1 == n_k:
        return eps1
    t = (n_y - n_k) / (n_1 - n_k)
    if kind == "concave":
        return eps_k + (eps1 - eps_k) * math.sin(math.pi * t / 2.0)
    if kind == "linear":
        return eps_k + (eps1 - eps_k) * t
    if kind == "convex":
        return eps1 + (eps1 - eps_k) * math.sin(3.0 * math.pi / 2.0 + math.pi * t / 2.0)
    return eps_k + (eps1 - eps_k) * t**p


@dataclass
class SmoothingSchedule:
    """Per-class smoothing factors materialized from a related-function choice."""

    eps: np.ndarray
    kind: str
    eps1: float
    eps_k: float
    p: float = 2.0

    @classmethod
    def from_counts(
        cls, counts, kind: str, eps1: float, eps_k: float, p: float = 2.0
    ) -> "SmoothingSchedule":
        counts = np.asarray(counts, dtype=np.float64)
        if not (0.0 <= eps_k <= eps1 <= 0.5):
            raise ValueError("require 0 <= eps_K <= eps_1 <= 0.5")
        if np.any(counts[:-1] < counts[1:]):
            raise ValueError("counts must be non-increasing")
        n_1, n_k = counts[0], counts[-1]
        eps = np.array([related_fn_eval(kind, eps1, eps_k, c, n_1, n_k, p) for c in counts])
        return cls(eps=eps, kind=kind, eps1=eps1, eps_k=eps_k, p=p)

    def to_json(self, path: str | Path):
        payload = {
            "kind": self.kind,
            "eps1": self.eps1,
            "epsK": self.eps_k,
            "p": self.p,
            "eps": [float(e) for e in self.eps],
        }
        write_json(path, payload)


def las_targets(eps_y: float, y: int, k: int) -> np.ndarray:
    """Soft target: 1 - eps_y on the true class, eps_y/(K-1) elsewhere."""
    if k < 2:
        raise ValueError("need at least 2 classes")
    if not 0 <= y < k:
        raise ValueError("label out of range")
    q = np.full(k, eps_y / (k - 1))
    q[y] = 1.0 - eps_y
    return q


def las_target_matrix(schedule: SmoothingSchedule, labels: np.ndarray, k: int) -> np.ndarray:
    eps = schedule.eps[labels]
    q = np.tile((eps / (k - 1))[:, None], (1, k))
    q[np.arange(len(labels)), labels] = 1.0 - eps
    return q


def soft_ce_loss(q, logits: Tensor) -> Tensor:
    """Mean over the batch of -sum_i q_i * log softmax(z)_i.

    ``q`` is a constant probability (or scaled one-hot) matrix; for a single
    sample both q and logits may be 1-D. Gradient w.r.t. a logit row is
    sum(q)*p - q, i.e. the classical p - q when q is normalized.
    """
    return softmax_cross_entropy(np.atleast_2d(np.asarray(q, dtype=np.float64)), logits)


def ce_loss(labels, logits: Tensor) -> Tensor:
    """Plain cross-entropy on integer labels."""
    k = logits.values.shape[-1]
    return soft_ce_loss(one_hot(labels, k), logits)


def weighted_ce_loss(weights, labels, logits: Tensor) -> Tensor:
    """Per-class re-weighted CE: mean of -w_y * log p_y (scaled one-hot targets)."""
    weights = np.asarray(weights, dtype=np.float64)
    if np.any(weights <= 0):
        raise ValueError("class weights must be positive")
    labels = np.atleast_1d(np.asarray(labels))
    k = logits.values.shape[-1]
    return soft_ce_loss(one_hot(labels, k) * weights[labels][:, None], logits)


def effective_number_weights(counts, gamma: float = 0.999) -> np.ndarray:
    """Inverse effective-number class weights, normalized to mean 1."""
    counts = np.asarray(counts, dtype=np.float64)
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    w = (1.0 - gamma) / (1.0 - gamma**counts)
    return w / w.mean()


def las_optimal_logit_gap(k: int, eps_y: float) -> float:
    """Optimum logit gap z_y - z_other for the smoothed loss: log((K-1)(1-eps)/eps).

    At eps_y = 0 the smoothed loss degenerates to CE, whose optimum is
    unbounded; +inf is returned as the marker.
    """
    if k < 2:
        raise ValueError("need at least 2 classes")
    if eps_y < 0 or eps_y >= 1:
        raise ValueError("eps_y must lie in [0, 1)")
    if eps_y == 0:
        return math.inf
    return math.log((k - 1) * (1.0 - eps_y) / eps_y)
