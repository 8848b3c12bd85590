"""The classifier z = diag(s) (r*W + dW)^T x, in a Stage-1 and a Stage-2 form.

In the Stage-2 head, W is the frozen Stage-1 classifier weight. The head
degenerates to classifier re-training (cRT: r=0, s fixed at 1, dW learnable)
and to learnable weight scaling (LWS: r=1, dW fixed at 0, s learnable); the
generalized mode learns both s and dW, with a separate learning-rate
multiplier for dW. The Stage-1 classifier is cRT with no W at all
(:meth:`GeneralizedHead.stage1`): the bias-free ``x @ dW``, dW holding the
learnable weight and s frozen at ones. With no W, every forward and backward
skips both the ``r*W + dW`` add and the multiply by s.

The head has the backbone layers' kernel pair: ``forward_arrays(x) -> (z, ctx)``
and ``backward_arrays(ctx, g, input_grad) -> g_x``, which sets the learnable
parameters' ``.grad``; training runs it, and the taped ``__call__`` is one tape
node over it (``tensor.kernel_op``). It also has ``eval_logits``, the same
logits with no context, which scoring runs, and ``parameters``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .artifacts import write_csv
from .tensor import Tensor, kernel_op

__all__ = ["GeneralizedHead"]

HEAD_MODES = ("crt", "lws", "generalized")


class GeneralizedHead:
    def __init__(self, w: np.ndarray, mode: str = "generalized", r: float | None = None,
                 lr_ratio_dw: float = 1.0):
        if mode not in HEAD_MODES:
            raise ValueError(f"unknown head mode {mode!r}")
        self.mode = mode
        self.w = np.array(w, dtype=np.float64)  # (M, K), frozen; None in the Stage-1 form
        if r is None:
            r = 0.0 if mode == "crt" else 1.0
        self.r = float(r)
        self.lr_ratio_dw = float(lr_ratio_dw)
        self.dw = Tensor(np.zeros_like(self.w), requires_grad=(mode != "lws"))
        self.s = Tensor(np.ones(self.w.shape[1]), requires_grad=(mode != "crt"))

    @classmethod
    def stage1(cls, w: np.ndarray) -> GeneralizedHead:
        """The Stage-1 classifier ``x @ w``: cRT with no frozen W, a copy of ``w``
        as the learnable dW, and s frozen at ones."""
        head = cls(w, mode="crt")
        head.w, head.dw.values = None, head.w
        return head

    def _unscaled(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(r * W + dW, x @ (r * W + dW))``: the logits before the scaling by s."""
        if x.ndim != 2 or x.shape[1] != self.dw.shape[0]:
            raise ValueError(f"features of shape {x.shape} for a head of width {self.dw.shape[0]}")
        eff = self.dw.values if self.w is None else self.r * self.w + self.dw.values
        return eff, x @ eff

    def forward_arrays(self, x: np.ndarray):
        """Logits ``(x @ (r * W + dW)) * s`` of feature rows on arrays, recording
        no tape; the context is for :meth:`backward_arrays`."""
        eff, z = self._unscaled(x)
        if self.w is None:
            return z, (x, eff, None)
        return z * self.s.values, (x, eff, z)

    def eval_logits(self, x: np.ndarray) -> np.ndarray:
        """The logits of :meth:`forward_arrays` with no context: scaled by s in
        place, so the unscaled logits are not kept beside them."""
        z = self._unscaled(x)[1]
        if self.w is not None:
            z *= self.s.values
        return z

    def backward_arrays(self, ctx, g: np.ndarray, input_grad: bool = True):
        """A frozen parameter's ``.grad`` is set to None."""
        x, eff, z = ctx
        g_z = g if self.w is None else g * self.s.values
        self.dw.grad = x.T @ g_z if self.dw.requires_grad else None
        self.s.grad = (g * z).sum(axis=0) if self.s.requires_grad else None
        return g_z @ eff.T if input_grad else None

    def forward(self, x) -> Tensor:
        """The logits of :meth:`forward_arrays` as one tape node over the kernel pair."""
        return kernel_op(self, x if isinstance(x, Tensor) else Tensor(x))

    __call__ = forward

    def parameters(self) -> list[Tensor]:
        """The learnable tensors, dW before s."""
        return [p for p in (self.dw, self.s) if p.requires_grad]

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
        """``classifier.w`` (dW) with no W, else every ``head.*`` entry."""
        if self.w is None:
            return {"classifier.w": self.dw.values}
        return {"head.w": self.w, "head.dw": self.dw.values, "head.s": self.s.values,
                "head.r": np.array([self.r])}
