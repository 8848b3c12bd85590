"""Layers and the MLP backbone: linear, ReLU, batch normalization with shift mode.

Every layer, like the classifier in ``head``, holds its train-mode arithmetic
once, as a kernel pair on plain arrays: ``forward_arrays(x) -> (out, ctx)``,
and ``backward_arrays(ctx, g, input_grad) -> g_x``, which sets the layer's own
parameters' ``.grad`` and returns x's gradient, or None when ``input_grad`` is
false and the layer has parameters. Training chains the pairs directly; the
taped ``__call__`` is one tape node over the pair (``tensor.kernel_op``).
Backbone layers also have ``frozen_inplace``, their eval/shift forward on
plain arrays, which may write over its input, ``parameters`` and
``state_arrays``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .artifacts import _COUNT, _OBJECT, FormatError, check_fields, list_of, write_atomic, write_json
from .tensor import Tensor, kernel_op

__all__ = ["Linear", "BatchNorm", "BackboneConfig", "Backbone", "save_checkpoint", "load_checkpoint"]

TRAIN = "train"
EVAL = "eval"
SHIFT = "shift"  # batch stats + EMA updates, affine frozen, no gradients
MODES = (TRAIN, EVAL, SHIFT)


def _check_frozen_input(x, mode: str):
    """Eval and shift forwards carry no gradient, so refuse an input that wants one."""
    if isinstance(x, Tensor) and x.requires_grad:
        raise ValueError(f"{mode} mode records no gradient; got an input with requires_grad=True")


class Linear:
    """y = x @ W.T + b with weight shape (out, in)."""

    prefix = "linear"  # of its checkpoint entries
    mode = TRAIN  # the same in every mode

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        scale = np.sqrt(2.0 / in_dim)
        self.weight = Tensor(rng.standard_normal((out_dim, in_dim)) * scale, requires_grad=True)
        self.bias = Tensor(np.zeros(out_dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        if x.values.shape[1] != self.weight.values.shape[1]:
            raise ValueError(f"linear input width {x.values.shape[1]} != {self.weight.values.shape[1]}")
        return kernel_op(self, x)

    def forward_arrays(self, x: np.ndarray):
        return x @ self.weight.values.T + self.bias.values, x

    def backward_arrays(self, x: np.ndarray, g: np.ndarray, input_grad: bool = True):
        self.weight.grad = (x.T @ g).T
        self.bias.grad = g.sum(axis=0)
        return g @ self.weight.values if input_grad else None

    def frozen_inplace(self, h: np.ndarray) -> np.ndarray:
        """The product ``h @ W.T``, the one array the layer allocates, plus the bias in place."""
        out = h @ self.weight.values.T
        out += self.bias.values
        return out

    def parameters(self) -> list[Tensor]:
        return [self.weight, self.bias]

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {"weight": self.weight.values, "bias": self.bias.values}


class ReLU:
    """max(x, 0), written as ``x * (x > 0)`` so that a negative input gives -0.0."""

    mode = TRAIN  # the same in every mode

    def __call__(self, x: Tensor) -> Tensor:
        return kernel_op(self, x)

    def forward_arrays(self, x: np.ndarray):
        mask = x > 0.0
        return x * mask, mask

    def backward_arrays(self, mask: np.ndarray, g: np.ndarray, input_grad: bool = True):
        return g * mask

    def frozen_inplace(self, h: np.ndarray) -> np.ndarray:
        h *= h > 0.0
        return h

    def parameters(self) -> list[Tensor]:
        return []

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {}


class BatchNorm:
    """Per-channel batch normalization with an explicit shift-learning mode.

    Modes:
      train: normalize by batch mean/var (biased, divisor m), update running
             stats by EMA, gradients flow to the affine scale/shift.
      eval:  normalize by running stats, no updates, no parameter gradients.
      shift: normalize by batch stats and keep updating the running stats,
             but the affine parameters are frozen and receive no gradient.

    Eval and shift modes run on plain values: their output carries no
    gradient, and an input with ``requires_grad`` is rejected. The kernel
    pair is train mode's.
    """

    prefix = "bn"

    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-5):
        if not 0.0 < momentum <= 1.0:
            raise ValueError("momentum must lie in (0, 1]")
        self.scale = Tensor(np.ones(channels), requires_grad=True)
        self.shift = Tensor(np.zeros(channels), requires_grad=True)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.momentum = momentum
        self.eps = eps
        self.mode = TRAIN

    def __call__(self, h: Tensor) -> Tensor:
        """Train mode records one tape node over the kernel pair; eval and
        shift modes record nothing."""
        if self.mode != TRAIN:
            _check_frozen_input(h, self.mode)
            return Tensor(self.normalize(h.values))
        return kernel_op(self, h)

    def forward_arrays(self, h: np.ndarray):
        """Train mode on arrays: normalize by the batch statistics and fold
        them into the running ones."""
        m = h.shape[0]
        if m < 2:
            raise ValueError("batch normalization needs batch size >= 2 in training modes")
        # The arithmetic, and in backward its order, is that of the graph
        # mean -> diff -> var -> sqrt -> divide -> affine, which
        # tests/test_fused_ops.py builds from Tensor ops as the reference.
        inv_m = 1.0 / m
        mu = h.sum(axis=0) * inv_m
        diff = h - mu
        var = (diff * diff).sum(axis=0) * inv_m
        self._update_running(mu, var)
        sd = np.sqrt(var + self.eps)
        x_hat = diff / sd
        return self.scale.values * x_hat + self.shift.values, (diff, sd, x_hat, inv_m)

    def backward_arrays(self, ctx, g: np.ndarray, input_grad: bool = True):
        diff, sd, x_hat, inv_m = ctx
        self.shift.grad = g.sum(axis=0)
        self.scale.grad = (g * x_hat).sum(axis=0)
        if not input_grad:
            return None
        g_xhat = g * self.scale.values
        g_sd = (-g_xhat * diff / sd**2).sum(axis=0)
        g_sq = (g_sd * 0.5 / sd * inv_m) * diff  # through diff * diff, once per factor
        g_diff = (g_xhat / sd + g_sq) + g_sq
        g_mean = -g_diff.sum(axis=0) * inv_m  # h's share through the batch mean
        return g_diff + g_mean

    def normalize(self, h: np.ndarray) -> np.ndarray:
        """Eval or shift mode on plain values: affine frozen, nothing recorded,
        ``h`` left as it was. Eval normalizes by the running statistics; shift
        normalizes by the batch statistics and folds them into the running ones."""
        return self.frozen_inplace(np.array(h, dtype=np.float64))

    def frozen_inplace(self, h: np.ndarray) -> np.ndarray:
        """:meth:`normalize` written over the float64 array ``h``, which is returned.
        ``h`` may stack batches on leading axes, its batch axis being -2: shift mode
        then takes each batch's own statistics and folds them into the running
        ones batch by batch, in order, as that many calls on one batch would."""
        if self.mode == EVAL:
            h -= self.running_mean
            h /= np.sqrt(self.running_var + self.eps)
        elif self.mode == SHIFT:
            if h.shape[-2] < 2:
                raise ValueError("batch normalization needs batch size >= 2 in training modes")
            mu = h.mean(axis=-2, keepdims=True)
            h -= mu
            var = (h**2).mean(axis=-2, keepdims=True)
            for batch_mu, batch_var in zip(mu.reshape(-1, h.shape[-1]), var.reshape(-1, h.shape[-1])):
                self._update_running(batch_mu, batch_var)
            h /= np.sqrt(var + self.eps)
        else:
            raise ValueError(f"unknown batch-norm mode {self.mode!r}; expected one of {MODES}")
        h *= self.scale.values
        h += self.shift.values
        return h

    def _update_running(self, mu: np.ndarray, var: np.ndarray):
        self.running_mean = (1.0 - self.momentum) * self.running_mean + self.momentum * mu
        self.running_var = (1.0 - self.momentum) * self.running_var + self.momentum * var

    def parameters(self) -> list[Tensor]:
        return [self.scale, self.shift]

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {"scale": self.scale.values, "shift": self.shift.values,
                "running_mean": self.running_mean, "running_var": self.running_var}


@dataclass
class BackboneConfig:
    in_dim: int
    hidden: list[int] = field(default_factory=list)  # widths of hidden blocks
    batchnorm: bool = True
    bn_momentum: float = 0.1
    seed: int = 0

    @property
    def feature_dim(self) -> int:
        return self.hidden[-1] if self.hidden else self.in_dim


class Backbone:
    """MLP feature extractor: repeated [linear -> (BN) -> ReLU] blocks, held as
    one flat list of layers.

    With no hidden widths configured the backbone is the identity map.
    """

    def __init__(self, cfg: BackboneConfig):
        self.cfg = cfg
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xB0]))
        self.layers: list[Linear | BatchNorm | ReLU] = []
        prev = cfg.in_dim
        for width in cfg.hidden:
            self.layers.append(Linear(prev, width, rng))
            if cfg.batchnorm:
                self.layers.append(BatchNorm(width, cfg.bn_momentum))
            self.layers.append(ReLU())
            prev = width

    @property
    def norms(self) -> list[BatchNorm]:
        """The batch-norm layers, in order."""
        return [layer for layer in self.layers if isinstance(layer, BatchNorm)]

    def set_mode(self, mode: str):
        if mode not in MODES:
            raise ValueError(f"unknown backbone mode {mode!r}; expected one of {MODES}")
        for layer in self.layers:
            layer.mode = mode

    def forward(self, x, mode: str) -> Tensor:
        """Features of a batch. Train mode records the tape; eval and shift
        modes run on plain values and return a tensor with no gradient (an
        input with ``requires_grad`` is rejected there), and take a stack of
        batches as :meth:`frozen_features` does."""
        if mode != TRAIN:
            _check_frozen_input(x, mode)
            return Tensor(self.frozen_features(x.values if isinstance(x, Tensor) else x, mode))
        self.set_mode(mode)
        h = x if isinstance(x, Tensor) else Tensor(x)
        self._check_width(h.values)
        for layer in self.layers:
            h = layer(h)
        return h

    def frozen_features(self, x: np.ndarray, mode: str) -> np.ndarray:
        """Features of a batch of plain values in eval or shift mode, as an array.
        Each block's product ``values @ W.T`` is the one array it allocates: the
        bias, batch norm and ReLU are applied over it in place.

        ``x`` may also be a stack ``(n, B, in)`` of n batches, each normalized by
        its own statistics in shift mode. The result holds the bits of the n
        single-batch calls: numpy (2.4, OpenBLAS) runs a stacked product as one
        gemm per batch, and reduces each batch over its rows as it reduces one
        batch. That is numpy's behaviour, not its contract; the block tests in
        ``tests/test_net.py`` fail if a numpy that fuses the product changes it."""
        self.set_mode(mode)
        values = np.asarray(x, dtype=np.float64)
        self._check_width(values)
        for layer in self.layers:
            values = layer.frozen_inplace(values)
        return values

    def _check_width(self, values: np.ndarray):
        if values.shape[-1] != self.cfg.in_dim:
            raise ValueError(f"input width {values.shape[-1]} != {self.cfg.in_dim}")

    def parameters(self) -> list[Tensor]:
        return [p for layer in self.layers for p in layer.parameters()]

    def state_arrays(self) -> dict[str, np.ndarray]:
        """All parameter and running-stat arrays keyed by a stable name,
        ``<layer prefix><block index>.<array>``."""
        per_block = len(self.layers) // max(1, len(self.cfg.hidden))
        return {f"{layer.prefix}{i // per_block}.{name}": a for i, layer in enumerate(self.layers)
                for name, a in layer.state_arrays().items()}


# A block of steps stacks its batches, so that a frozen backbone runs once per
# block: at most BLOCK_STEPS steps, fewer when a step's widest array (a batch of
# inputs, features or soft targets) would make the block's exceed BLOCK_BYTES,
# and one at least. On grid-c10 (2 vCPUs), 16-step blocks ran 6% faster than
# 4-step ones and 32-step ones no faster. The cap gives train-c100's 100-wide
# soft targets 5-step blocks, which kept its peak RSS at a step-at-a-time run's,
# where 16-step blocks added 1.8 MB for a run time within noise of the 5-step one.
BLOCK_STEPS = 16
BLOCK_BYTES = 1 << 18


def block_steps(batch: int, width: int) -> int:
    """Steps per block for batches of ``batch`` rows whose widest array has ``width`` columns."""
    return max(1, min(BLOCK_STEPS, BLOCK_BYTES // (8 * batch * width)))


def bn_shift_stats(backbone: Backbone, sampler, steps: int, batch: int) -> None:
    """Refresh BN running statistics under a sampler with everything else frozen:
    the batches are drawn in turn and run through the backbone a block at a time,
    which leaves the statistics ``steps`` single-batch forwards would."""
    per_block = block_steps(batch, max([backbone.cfg.in_dim, *backbone.cfg.hidden]))
    for start in range(0, steps, per_block):
        xs = np.array([sampler.next_batch(batch)[0] for _ in range(min(per_block, steps - start))])
        backbone.forward(xs, SHIFT)


# -- checkpoint format: JSON manifest + flat little-endian f64 blob -------------


def save_checkpoint(path_prefix: str | Path, arrays: dict[str, np.ndarray], meta: dict):
    """Write <prefix>.bin (f64 LE blob), then <prefix>.json (manifest), each
    atomically; bit-exact round trip. The manifest records the blob's SHA-256,
    so a blob left beside another save's manifest fails to load."""
    prefix = Path(path_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    blobs = {name: np.ascontiguousarray(arrays[name], dtype="<f8") for name in sorted(arrays)}
    entries, offset = [], 0
    for name, arr in blobs.items():
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.size
    raw = b"".join(arr.tobytes() for arr in blobs.values())
    write_atomic(prefix.with_suffix(".bin"), lambda fh: fh.write(raw), binary=True)
    write_json(prefix.with_suffix(".json"), {"meta": meta, "entries": entries, "total": offset,
                                             "sha256": hashlib.sha256(raw).hexdigest()})


# What save_checkpoint writes in a manifest (besides sha256) and its entries.
MANIFEST_RULES = {"meta": _OBJECT, "entries": ("a list", lambda v: isinstance(v, list)), "total": _COUNT}
ENTRY_RULES = {"name": ("a string", lambda v: isinstance(v, str)),
               "shape": list_of("integers in [0, 2**63)", _COUNT), "offset": _COUNT}


def load_checkpoint(path_prefix: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Arrays and meta of a checkpoint; a manifest or blob that does not hold
    one (its entries must tile the blob in order, with finite values), or a blob
    whose SHA-256 is not the manifest's, raises :class:`FormatError` naming the file."""
    prefix = Path(path_prefix)
    path = prefix.with_suffix(".json")
    try:
        with open(path) as fh:
            manifest = json.load(fh)
        check_fields(MANIFEST_RULES, manifest)
    except ValueError as exc:  # also UnicodeDecodeError
        raise FormatError(f"{path}: {exc}") from None
    total, bin_path = manifest["total"], prefix.with_suffix(".bin")
    raw = bin_path.read_bytes()
    if len(raw) != 8 * total:
        raise FormatError(f"{bin_path}: {len(raw)} bytes, manifest total is {total} float64 values")
    # Manifests written before the checksum was recorded have none to check.
    if "sha256" in manifest and manifest["sha256"] != hashlib.sha256(raw).hexdigest():
        raise FormatError(f"{bin_path}: SHA-256 differs from the manifest's; "
                          "the blob and the manifest come from different saves")
    blob = np.frombuffer(raw, dtype="<f8")
    arrays, end = {}, 0
    for i, entry in enumerate(manifest["entries"]):
        check_fields(ENTRY_RULES, entry, f"{path}: entries[{i}].", FormatError)
        name, shape, offset = entry["name"], entry["shape"], entry["offset"]
        n = math.prod(shape)
        if offset != end or end + n > total:  # save_checkpoint lays entries back to back
            raise FormatError(f"{path}: entry {name!r} at offset {offset} is not the next {n} "
                              f"values of the {total}-value blob, which start at {end}")
        if name in arrays:
            raise FormatError(f"{path}: duplicate entry {name!r}")
        arrays[name] = blob[end : end + n].reshape(shape).astype(np.float64)
        if not np.isfinite(arrays[name]).all():
            raise FormatError(f"{bin_path}: entry {name!r} holds a non-finite value")
        end += n
    if end != total:
        raise FormatError(f"{path}: entries cover {end} of the {total}-value blob")
    return arrays, manifest["meta"]
