"""Layers and the MLP backbone: linear, ReLU, batch normalization with shift mode."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .artifacts import _COUNT, _OBJECT, FormatError, check_fields, list_of, write_atomic, write_json
from .tensor import Tensor, relu

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

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, bias: bool = True):
        scale = np.sqrt(2.0 / in_dim)
        self.weight = Tensor(rng.standard_normal((out_dim, in_dim)) * scale, requires_grad=True)
        self.bias = Tensor(np.zeros(out_dim), requires_grad=True) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        """The composite ``x @ W.T + b`` of :func:`~ltcalib.tensor.linear_forward`."""
        if x.values.shape[1] != self.weight.values.shape[1]:
            raise ValueError(f"linear input width {x.values.shape[1]} != {self.weight.values.shape[1]}")
        out = x @ self.weight.T
        return out + self.bias if self.bias is not None else out

    def parameters(self) -> list[Tensor]:
        return [self.weight] + ([self.bias] if self.bias is not None else [])


class BatchNorm:
    """Per-channel batch normalization with an explicit shift-learning mode.

    Modes:
      train: normalize by batch mean/var (biased, divisor m), update running
             stats by EMA, gradients flow to the affine scale/shift.
      eval:  normalize by running stats, no updates, no parameter gradients.
      shift: normalize by batch stats and keep updating the running stats,
             but the affine parameters are frozen and receive no gradient.

    Eval and shift modes run on plain values: their output carries no
    gradient, and an input with ``requires_grad`` is rejected.
    """

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
        """Train mode records the composite graph of :meth:`train_forward`;
        eval and shift modes record nothing."""
        if self.mode != TRAIN:
            _check_frozen_input(h, self.mode)
            return Tensor(self.normalize(h.values))
        if h.values.shape[0] < 2:
            raise ValueError("batch normalization needs batch size >= 2 in training modes")
        mu = h.mean(axis=0)
        diff = h - mu
        var = (diff * diff).mean(axis=0)
        self._update_running(mu.values, var.values)
        return self.scale * (diff / (var + self.eps).sqrt()) + self.shift

    def train_forward(self, h: np.ndarray):
        """Train mode on arrays: normalize by the batch statistics and fold
        them into the running ones. Returns the output and the context for
        :meth:`train_backward`."""
        m = h.shape[0]
        if m < 2:
            raise ValueError("batch normalization needs batch size >= 2 in training modes")
        # The arithmetic, and in backward its order, is that of the composite
        # graph mean -> diff -> var -> sqrt -> divide -> affine, so values,
        # gradients and running statistics match it bit for bit.
        inv_m = 1.0 / m
        mu = h.sum(axis=0) * inv_m
        diff = h - mu
        var = (diff * diff).sum(axis=0) * inv_m
        self._update_running(mu, var)
        sd = np.sqrt(var + self.eps)
        x_hat = diff / sd
        return self.scale.values * x_hat + self.shift.values, (diff, sd, x_hat, inv_m)

    def train_backward(self, ctx, g: np.ndarray):
        """Gradients (input, scale, shift) of :meth:`train_forward`."""
        diff, sd, x_hat, inv_m = ctx
        g_shift = g.sum(axis=0)
        g_scale = (g * x_hat).sum(axis=0)
        g_xhat = g * self.scale.values
        g_sd = (-g_xhat * diff / sd**2).sum(axis=0)
        g_sq = (g_sd * 0.5 / sd * inv_m) * diff  # through diff * diff, once per factor
        g_diff = (g_xhat / sd + g_sq) + g_sq
        g_mean = -g_diff.sum(axis=0) * inv_m  # h's share through the batch mean
        return g_diff + g_mean, g_scale, g_shift

    def normalize(self, h: np.ndarray) -> np.ndarray:
        """Eval or shift mode on plain values: affine frozen, nothing recorded,
        ``h`` left as it was. Eval normalizes by the running statistics; shift
        normalizes by the batch statistics and folds them into the running ones."""
        return self.normalize_inplace(np.array(h, dtype=np.float64))

    def normalize_inplace(self, h: np.ndarray) -> np.ndarray:
        """:meth:`normalize` written over the float64 array ``h``, which is returned."""
        if self.mode == EVAL:
            h -= self.running_mean
            h /= np.sqrt(self.running_var + self.eps)
        elif self.mode == SHIFT:
            if h.shape[0] < 2:
                raise ValueError("batch normalization needs batch size >= 2 in training modes")
            mu = h.mean(axis=0)
            h -= mu
            var = (h**2).mean(axis=0)
            self._update_running(mu, var)
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
    """MLP feature extractor: repeated [linear -> (BN) -> ReLU] blocks.

    With no hidden widths configured the backbone is the identity map.
    """

    def __init__(self, cfg: BackboneConfig):
        self.cfg = cfg
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xB0]))
        self.linears: list[Linear] = []
        self.norms: list[BatchNorm | None] = []
        prev = cfg.in_dim
        for width in cfg.hidden:
            self.linears.append(Linear(prev, width, rng))
            self.norms.append(BatchNorm(width, cfg.bn_momentum) if cfg.batchnorm else None)
            prev = width

    def set_mode(self, mode: str):
        if mode not in MODES:
            raise ValueError(f"unknown backbone mode {mode!r}; expected one of {MODES}")
        for bn in self.norms:
            if bn is not None:
                bn.mode = mode

    def forward(self, x, mode: str) -> Tensor:
        """Features of a batch. Train mode records the tape; eval and shift
        modes run on plain values and return a tensor with no gradient (an
        input with ``requires_grad`` is rejected there)."""
        if mode != TRAIN:
            _check_frozen_input(x, mode)
            return Tensor(self.frozen_features(x.values if isinstance(x, Tensor) else x, mode))
        self.set_mode(mode)
        h = x if isinstance(x, Tensor) else Tensor(x)
        self._check_width(h.values)
        for lin, bn in zip(self.linears, self.norms):
            h = lin(h)
            if bn is not None:
                h = bn(h)
            h = relu(h)
        return h

    def frozen_features(self, x: np.ndarray, mode: str) -> np.ndarray:
        """Features of a batch of plain values in eval or shift mode, as an array.
        Each layer's product ``values @ W.T`` is the one array it allocates: the
        bias, batch norm and ReLU are applied over it in place."""
        self.set_mode(mode)
        values = np.asarray(x, dtype=np.float64)
        self._check_width(values)
        for lin, bn in zip(self.linears, self.norms):
            values = values @ lin.weight.values.T
            values += lin.bias.values
            if bn is not None:
                bn.normalize_inplace(values)
            values *= values > 0.0  # ReLU as x * (x > 0), so a negative input gives -0.0
        return values

    def _check_width(self, values: np.ndarray):
        if values.shape[1] != self.cfg.in_dim:
            raise ValueError(f"input width {values.shape[1]} != {self.cfg.in_dim}")

    def parameters(self) -> list[Tensor]:
        params: list[Tensor] = []
        for lin, bn in zip(self.linears, self.norms):
            params.extend(lin.parameters())
            if bn is not None:
                params.extend(bn.parameters())
        return params

    def state_arrays(self) -> dict[str, np.ndarray]:
        """All parameter and running-stat arrays keyed by a stable name."""
        out: dict[str, np.ndarray] = {}
        for i, (lin, bn) in enumerate(zip(self.linears, self.norms)):
            out[f"linear{i}.weight"] = lin.weight.values
            out[f"linear{i}.bias"] = lin.bias.values
            if bn is not None:
                out[f"bn{i}.scale"] = bn.scale.values
                out[f"bn{i}.shift"] = bn.shift.values
                out[f"bn{i}.running_mean"] = bn.running_mean
                out[f"bn{i}.running_var"] = bn.running_var
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray]):
        for i, (lin, bn) in enumerate(zip(self.linears, self.norms)):
            lin.weight.values = arrays[f"linear{i}.weight"].copy()
            lin.bias.values = arrays[f"linear{i}.bias"].copy()
            if bn is not None:
                bn.scale.values = arrays[f"bn{i}.scale"].copy()
                bn.shift.values = arrays[f"bn{i}.shift"].copy()
                bn.running_mean = arrays[f"bn{i}.running_mean"].copy()
                bn.running_var = arrays[f"bn{i}.running_var"].copy()


def bn_shift_stats(backbone: Backbone, sampler, steps: int, batch: int) -> None:
    """Refresh BN running statistics under a sampler with everything else frozen."""
    for _ in range(steps):
        x, _ = sampler.next_batch(batch)
        backbone.forward(x, SHIFT)


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
    one (its entries must tile the blob in order), or a blob whose SHA-256 is
    not the manifest's, raises :class:`FormatError` naming the file."""
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
        end += n
    if end != total:
        raise FormatError(f"{path}: entries cover {end} of the {total}-value blob")
    return arrays, manifest["meta"]
