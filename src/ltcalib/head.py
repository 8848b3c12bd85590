"""Stage-2 classifier head z = diag(s) (r*W + dW)^T x.

W is the frozen Stage-1 classifier weight. The head degenerates to classifier
re-training (cRT: r=0, s fixed at 1, dW learnable) and to learnable weight
scaling (LWS: r=1, dW fixed at 0, s learnable); the generalized mode learns
both s and dW, with a separate learning-rate multiplier for dW.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .artifacts import write_csv
from .tensor import Tensor

__all__ = ["GeneralizedHead"]

HEAD_MODES = ("crt", "lws", "generalized")


class GeneralizedHead:
    def __init__(
        self,
        w: np.ndarray,
        mode: str = "generalized",
        r: float | None = None,
        lr_ratio_dw: float = 1.0,
    ):
        if mode not in HEAD_MODES:
            raise ValueError(f"unknown head mode {mode!r}")
        self.mode = mode
        self.w = np.array(w, dtype=np.float64)  # (M, K), frozen
        if r is None:
            r = 0.0 if mode == "crt" else 1.0
        self.r = float(r)
        self.lr_ratio_dw = float(lr_ratio_dw)
        m, k = self.w.shape
        self.dw = Tensor(np.zeros((m, k)), requires_grad=(mode != "lws"))
        self.s = Tensor(np.ones(k), requires_grad=(mode != "crt"))

    def forward_arrays(self, x: np.ndarray):
        """Logits ``(x @ (r * W + dW)) * s`` of feature rows on arrays, recording
        no tape; the context is for :meth:`backward_arrays`."""
        if x.shape[1] != self.w.shape[0]:
            raise ValueError(f"feature width {x.shape[1]} != {self.w.shape[0]}")
        eff = self.r * self.w + self.dw.values
        z = x @ eff
        return z * self.s.values, (x, eff, z)

    def backward_arrays(self, ctx, g: np.ndarray, input_grad: bool = True):
        """Gradients (x, dW, s) of :meth:`forward_arrays`; x's is None unless
        ``input_grad``, and a frozen parameter's is None."""
        x, eff, z = ctx
        g_z = g * self.s.values
        return (g_z @ eff.T if input_grad else None,
                x.T @ g_z if self.dw.requires_grad else None,
                (g * z).sum(axis=0) if self.s.requires_grad else None)

    def logits(self, x: np.ndarray) -> np.ndarray:
        """Logits of feature rows as a plain array; the same values as :meth:`forward`."""
        return self.forward_arrays(x)[0]

    def forward(self, x) -> Tensor:
        """Logits as one tape node; same values and gradients as the composite
        ``(x @ (Tensor(r * W) + dW)) * s``."""
        x = x if isinstance(x, Tensor) else Tensor(x)
        dw, s = self.dw, self.s
        out, ctx = self.forward_arrays(x.values)

        def backward(g):
            g_x, g_dw, g_s = self.backward_arrays(ctx, g, x.requires_grad)
            if g_s is not None:
                s._accumulate(g_s)
            if g_x is not None:
                x._accumulate(g_x)
            if g_dw is not None:
                dw._accumulate(g_dw)

        return Tensor._from_op(out, (x, dw, s), backward)

    __call__ = forward

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
        eff = np.linalg.norm(self.effective_weight(), axis=0)
        raw = np.linalg.norm(self.w, axis=0)
        return eff, raw

    def export_weight_norms(self, path: str | Path, class_counts):
        eff, raw = self.weight_norms()
        write_csv(path, ["class", "count", "norm_effective", "norm_w"],
                  ([j, int(c), repr(float(e)), repr(float(r))]
                   for j, (c, e, r) in enumerate(zip(class_counts, eff, raw))))

    def state_arrays(self, prefix: str = "head.") -> dict[str, np.ndarray]:
        return {
            prefix + "w": self.w,
            prefix + "dw": self.dw.values,
            prefix + "s": self.s.values,
            prefix + "r": np.array([self.r]),
        }

    def load_state_arrays(self, arrays: dict[str, np.ndarray], prefix: str = "head."):
        self.w = arrays[prefix + "w"].copy()
        self.dw.values = arrays[prefix + "dw"].copy()
        self.s.values = arrays[prefix + "s"].copy()
        self.r = float(arrays[prefix + "r"][0])
