"""The classifiers: Stage-1 z = W^T x and the Stage-2 head z = diag(s) (r*W + dW)^T x.

Both have the kernel pair ``forward_arrays``/``backward_arrays`` that training
runs, ``eval_logits``, the same logits with no context, which scoring runs,
and a composite taped ``__call__``. In the head, W is the frozen Stage-1
classifier weight. The head degenerates to classifier re-training (cRT: r=0,
s fixed at 1, dW learnable) and to learnable weight scaling (LWS: r=1, dW
fixed at 0, s learnable); the generalized mode learns both s and dW, with a
separate learning-rate multiplier for dW.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .artifacts import write_csv
from .tensor import Tensor, linear_backward, linear_forward

__all__ = ["LinearClassifier", "GeneralizedHead"]

HEAD_MODES = ("crt", "lws", "generalized")


class LinearClassifier:
    """The Stage-1 classifier: logits ``x @ w`` of a learnable (M, K) weight, no bias."""

    def __init__(self, w: np.ndarray):
        self.w = Tensor(w, requires_grad=True)

    def forward_arrays(self, x: np.ndarray):
        return linear_forward(x, self.w.values.T)  # x @ w: w.T's transpose is w itself

    def eval_logits(self, x: np.ndarray) -> np.ndarray:
        """The logits of :meth:`forward_arrays` with no context."""
        return self.forward_arrays(x)[0]

    def backward_arrays(self, ctx, g: np.ndarray, input_grad: bool = True):
        """Gradients (x, w) of :meth:`forward_arrays`; x's is None unless ``input_grad``."""
        g_x, g_wt, _ = linear_backward(ctx, g, input_grad)
        return g_x, g_wt.T  # the array x.T @ g, as the taped matmul gives it

    def __call__(self, x) -> Tensor:
        return (x if isinstance(x, Tensor) else Tensor(x)) @ self.w

    def params(self) -> list[Tensor]:
        """The parameters :meth:`backward_arrays` returns gradients of, in its order."""
        return [self.w]

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {"classifier.w": self.w.values}

    def load_state_arrays(self, arrays: dict[str, np.ndarray]):
        self.w.values = arrays["classifier.w"].copy()


class GeneralizedHead:
    def __init__(self, w: np.ndarray, mode: str = "generalized", r: float | None = None,
                 lr_ratio_dw: float = 1.0):
        if mode not in HEAD_MODES:
            raise ValueError(f"unknown head mode {mode!r}")
        self.mode = mode
        self.w = np.array(w, dtype=np.float64)  # (M, K), frozen
        if r is None:
            r = 0.0 if mode == "crt" else 1.0
        self.r = float(r)
        self.lr_ratio_dw = float(lr_ratio_dw)
        self.dw = Tensor(np.zeros_like(self.w), requires_grad=(mode != "lws"))
        self.s = Tensor(np.ones(self.w.shape[1]), requires_grad=(mode != "crt"))

    def _unscaled(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(r * W + dW, x @ (r * W + dW))``: the logits before the scaling by s."""
        if x.shape[1] != self.w.shape[0]:
            raise ValueError(f"feature width {x.shape[1]} != {self.w.shape[0]}")
        eff = self.r * self.w + self.dw.values
        return eff, x @ eff

    def forward_arrays(self, x: np.ndarray):
        """Logits ``(x @ (r * W + dW)) * s`` of feature rows on arrays, recording
        no tape; the context is for :meth:`backward_arrays`."""
        eff, z = self._unscaled(x)
        return z * self.s.values, (x, eff, z)

    def eval_logits(self, x: np.ndarray) -> np.ndarray:
        """The logits of :meth:`forward_arrays` with no context: scaled by s in
        place, so the unscaled logits are not kept beside them."""
        z = self._unscaled(x)[1]
        z *= self.s.values
        return z

    def backward_arrays(self, ctx, g: np.ndarray, input_grad: bool = True):
        """Gradients (x, dW, s) of :meth:`forward_arrays`; x's is None unless
        ``input_grad``, and a frozen parameter's is None."""
        x, eff, z = ctx
        g_z = g * self.s.values
        return (g_z @ eff.T if input_grad else None,
                x.T @ g_z if self.dw.requires_grad else None,
                (g * z).sum(axis=0) if self.s.requires_grad else None)

    def forward(self, x) -> Tensor:
        """Logits as the composite ``(x @ (Tensor(r * W) + dW)) * s`` of :meth:`forward_arrays`."""
        x = x if isinstance(x, Tensor) else Tensor(x)
        return (x @ (Tensor(self.r * self.w) + self.dw)) * self.s

    __call__ = forward

    def params(self) -> list[Tensor]:
        """The parameters :meth:`backward_arrays` returns gradients of, in its order."""
        return [self.dw, self.s]

    def param_groups(self) -> list[dict]:
        """Learnable groups with LR multipliers; frozen tensors excluded."""
        groups = []
        if self.s.requires_grad:
            groups.append({"params": [self.s], "lr_mult": 1.0})
        if self.dw.requires_grad:
            groups.append({"params": [self.dw], "lr_mult": self.lr_ratio_dw})
        return groups

    def effective_weight(self) -> np.ndarray:
        return (self.r * self.w + self.dw.values) * self.s.values

    def weight_norms(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-class L2 norms: (effective column norms, raw Stage-1 column norms)."""
        return np.linalg.norm(self.effective_weight(), axis=0), np.linalg.norm(self.w, axis=0)

    def export_weight_norms(self, path: str | Path, class_counts):
        eff, raw = self.weight_norms()
        write_csv(path, ["class", "count", "norm_effective", "norm_w"],
                  ([j, int(c), repr(float(e)), repr(float(r))]
                   for j, (c, e, r) in enumerate(zip(class_counts, eff, raw))))

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {"head.w": self.w, "head.dw": self.dw.values, "head.s": self.s.values,
                "head.r": np.array([self.r])}

    def load_state_arrays(self, arrays: dict[str, np.ndarray]):
        self.w = arrays["head.w"].copy()
        self.dw.values = arrays["head.dw"].copy()
        self.s.values = arrays["head.s"].copy()
        self.r = float(arrays["head.r"][0])
