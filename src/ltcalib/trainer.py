"""Two-stage training pipeline.

Stage-1 trains the backbone and a plain linear classifier jointly with
instance-balanced sampling (optionally with mixup). Stage-2 freezes the
backbone and BN affine parameters, switches to class-balanced sampling,
optionally lets BN running statistics drift to the class-balanced input
distribution (shift learning), and retrains only the classifier head with
label-aware smoothing, plain CE, or per-class weighted CE.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import net
from .artifacts import (_AT_LEAST_ONE, _BOOL, _COUNT, _OBJECT, _POSITIVE, FormatError, _number, _one_of,
                        check_fields, list_of, write_csv, write_json)
from .calib import PredictionLog, ece, split_accuracy
from .data import LongTailedDataset, MixupConfig, Sampler, mixup_batch, one_hot
from .head import GeneralizedHead, HEAD_MODES, LinearClassifier
# Training builds soft-CE targets and runs the loss kernels directly; the taped
# losses stay importable from here, where perfbench's tracer looks them up.
from .losses import (
    RELATED_FN_KINDS,
    SmoothingSchedule,
    ce_loss,
    effective_number_weights,
    las_target_matrix,
    soft_ce_loss,
    weighted_ce_loss,
)
from .tensor import (
    Tensor,
    linear_backward,
    linear_forward,
    relu_backward,
    relu_forward,
    softmax_cross_entropy_backward,
    softmax_cross_entropy_forward,
    softmax_inplace,
)

__all__ = [
    "TrainConfig",
    "DivergenceError",
    "lr_at",
    "SGD",
    "Model",
    "train_stage1",
    "train_stage2",
    "run",
    "run_ablation_grid",
    "evaluate",
]


class DivergenceError(RuntimeError):
    """A non-finite training loss, at a stage (1 or 2), an epoch and a step of
    that epoch (both counted from 0)."""

    def __init__(self, stage: int, epoch: int, step: int):
        super().__init__(f"non-finite loss at stage {stage}, epoch {epoch}, step {step}")
        self.stage, self.epoch, self.step = stage, epoch, step


SCHEDULE_KINDS = ("multistep", "cosine")


def lr_at(schedule: dict, epoch: int, total_epochs: int, base_lr: float) -> float:
    """Learning rate at an epoch.

    multistep: base_lr * factor**(number of milestones passed).
    cosine:    base_lr * 0.5 * (1 + cos(pi * epoch / total_epochs)).
    """
    if not 0 <= epoch < total_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {total_epochs})")
    kind = schedule["kind"]
    if kind == "multistep":
        passed = sum(1 for m in schedule.get("milestones", []) if epoch >= m)
        return base_lr * schedule.get("factor", 0.1) ** passed
    if kind == "cosine":
        return base_lr * 0.5 * (1.0 + math.cos(math.pi * epoch / total_epochs))
    raise ValueError(f"unknown schedule kind {kind!r}")


class SGD:
    """Momentum SGD with per-group learning-rate multipliers and L2 decay.

    Each group keeps its parameters' values in one flat buffer, with every
    parameter's ``.values`` rebound to a view into it, beside one flat gradient
    and one flat velocity buffer, so a step is a few array operations per
    group. Groups are never merged: adding ``0.0 * p`` to an undecayed
    gradient would turn a ``-0.0`` into ``+0.0``.
    """

    def __init__(self, param_groups: list[dict], momentum: float = 0.9):
        self.groups = param_groups
        self.momentum = momentum
        self.velocity: dict[int, np.ndarray] = {}  # id(param) -> view into its group's buffer
        self._flat = []  # per non-empty group: (group, values, grads, velocity, slices)
        for g in param_groups:
            params = g["params"]
            if not params:
                continue
            ends = np.cumsum([p.values.size for p in params]).tolist()
            spans = [slice(a, b) for a, b in zip([0] + ends, ends)]
            values, velocity = np.empty(ends[-1]), np.zeros(ends[-1])
            for p, span in zip(params, spans):
                shape = p.values.shape
                values[span] = p.values.ravel()
                p.values = values[span].reshape(shape)
                self.velocity[id(p)] = velocity[span].reshape(shape)
            self._flat.append((g, values, np.empty_like(values), velocity, spans))

    def zero_grad(self):
        for g in self.groups:
            for p in g["params"]:
                p.zero_grad()

    def step(self, lr: float):
        """One update of every parameter with a gradient; one whose ``.grad``
        is None keeps its values and velocity."""
        for g, values, grads, velocity, spans in self._flat:
            eff_lr = lr * g.get("lr_mult", 1.0)
            wd = g.get("weight_decay", 0.0)
            params = g["params"]
            if all(p.grad is not None for p in params):
                np.concatenate([p.grad.ravel() for p in params], out=grads)
                self._update(values, grads, velocity, eff_lr, wd)
                continue
            for p, span in zip(params, spans):
                if p.grad is not None:
                    self._update(values[span], p.grad.ravel(), velocity[span], eff_lr, wd)

    def _update(self, values, grad, velocity, lr, wd):
        if wd:
            grad = grad + wd * values
        velocity *= self.momentum
        velocity += grad
        values -= lr * velocity


_MILESTONES = list_of("integers in [0, 2**63)", _COUNT)
_SCHEDULE = (f"an object with 'kind' in {SCHEDULE_KINDS}, optional 'milestones' (integers in [0, 2**63)) and 'factor' (> 0)",
             lambda v: isinstance(v, dict) and set(v) <= {"kind", "milestones", "factor"}
             and v.get("kind") in SCHEDULE_KINDS and _MILESTONES[1](v.get("milestones", []))
             and _POSITIVE[1](v.get("factor", 0.1)))

# Every TrainConfig field -> (rule, check), walked by TrainConfig.validate.
FIELD_RULES: dict[str, tuple[str, Callable]] = {
    "lr": _POSITIVE,
    "batch_size": _AT_LEAST_ONE,
    "weight_decay": _number(">= 0", lambda v: v >= 0),
    "momentum": _number("in [0, 1)", lambda v: 0 <= v < 1),
    "stage1_epochs": _AT_LEAST_ONE,
    "stage1_schedule": _SCHEDULE,
    "stage2_epochs": _COUNT,
    "stage2_schedule": _SCHEDULE,
    "stage2_lr_scale": _POSITIVE,
    "hidden": list_of("integers in [1, 2**63)", _AT_LEAST_ONE),
    "batchnorm": _BOOL,
    "bn_momentum": _number("in (0, 1]", lambda v: 0 < v <= 1),  # as net.BatchNorm requires
    "mixup_alpha": _POSITIVE,
    "mixup_stage1": _BOOL,
    "mixup_stage2": _BOOL,
    "mixup_force_lam": _number("in [0, 1]", lambda v: 0 <= v <= 1, null=True),
    "shift_bn": _BOOL,
    "stage2_loss": _one_of(("las", "ce", "weighted")),
    "las_kind": _one_of(RELATED_FN_KINDS),
    "eps1": _number("in [0, 0.5]", lambda v: 0 <= v <= 0.5),
    "eps_k": _number("in [0, 0.5]", lambda v: 0 <= v <= 0.5),
    "las_p": _POSITIVE,
    "head_mode": _one_of(HEAD_MODES),
    "lr_ratio_dw": _number(">= 0", lambda v: v >= 0),
    "batches_per_epoch": _number(">= 1", lambda v: v >= 1, integer=True, null=True),
    "bn_warm_steps": _COUNT,
    "bn_concurrent": _BOOL,
    "seed": _COUNT,
}


@dataclass
class TrainConfig:
    lr: float = 0.1
    batch_size: int = 64
    weight_decay: float = 2e-4
    momentum: float = 0.9
    stage1_epochs: int = 30
    stage1_schedule: dict = field(default_factory=lambda: {"kind": "multistep", "milestones": [20, 26], "factor": 0.1})
    stage2_epochs: int = 10
    stage2_schedule: dict = field(default_factory=lambda: {"kind": "cosine"})
    stage2_lr_scale: float = 0.1  # Stage-2 base LR relative to Stage-1
    hidden: list[int] = field(default_factory=lambda: [32, 16])
    batchnorm: bool = True
    bn_momentum: float = 0.1
    mixup_alpha: float = 0.2
    mixup_stage1: bool = True
    mixup_stage2: bool = False
    mixup_force_lam: float | None = None  # test hook: pin the Beta draw
    shift_bn: bool = True
    stage2_loss: str = "las"
    las_kind: str = "concave"
    eps1: float = 0.4
    eps_k: float = 0.1
    las_p: float = 2.0
    head_mode: str = "generalized"
    lr_ratio_dw: float = 0.2
    batches_per_epoch: int | None = None  # default: ceil(N_total / batch_size)
    bn_warm_steps: int = 0  # optional stats-only pass before Stage-2 training
    bn_concurrent: bool = True  # keep updating BN stats during Stage-2 steps
    seed: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self):
        """Check every field against FIELD_RULES, then the rules that join fields;
        each failure is ``ValueError("<field>: must be <rule>, got <value>")``."""
        check_fields(FIELD_RULES, vars(self))
        for stage, epochs in ((1, self.stage1_epochs), (2, self.stage2_epochs)):
            ms = getattr(self, f"stage{stage}_schedule").get("milestones", [])
            if any(b <= a for a, b in zip(ms, ms[1:])) or any(m >= epochs for m in ms):
                raise ValueError(f"stage{stage}_schedule.milestones: must be strictly increasing "
                                 f"and < stage{stage}_epochs ({epochs}), got {ms!r}")
        if self.eps_k > self.eps1:
            raise ValueError(f"eps_k: must be <= eps1 ({self.eps1!r}), got {self.eps_k!r}")
        if self.batch_size < 2 and self.batchnorm and self.hidden:
            raise ValueError(f"batch_size: must be >= 2 with batchnorm and hidden layers, got {self.batch_size!r}")

    def to_json(self, path: str | Path):
        write_json(path, asdict(self))

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        if not isinstance(d, dict):
            raise ValueError(f"config: must be a JSON object, got {d!r}")
        if unknown := set(d) - set(cls.__dataclass_fields__):
            raise ValueError(f"{sorted(unknown)[0]}: unknown config key")
        return cls(**d)

    @classmethod
    def from_json(cls, path: str | Path) -> "TrainConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


class Model:
    """Backbone plus classifier: the Stage-1 :class:`LinearClassifier`, or the
    Stage-2 :class:`GeneralizedHead` built from its weight. The backbone learns
    in train mode (Stage 1) and runs frozen in shift or eval mode (Stage 2)."""

    def __init__(self, backbone: net.Backbone, classifier: LinearClassifier | GeneralizedHead):
        self.backbone = backbone
        self.classifier = classifier

    def logits(self, x, mode: str) -> Tensor:
        return self.classifier(self.backbone.forward(x, mode))

    def train_forward(self, x: np.ndarray, mode: str) -> tuple[np.ndarray, list]:
        """Logits of a training batch on plain arrays, recording no tape, and the
        context :meth:`train_backward` needs: one entry per backbone kernel that
        learns (none unless ``mode`` is train), then the classifier's."""
        if mode != net.TRAIN:
            z, ctx = self.classifier.forward_arrays(self.backbone.frozen_features(x, mode))
            return z, [ctx]
        ctxs, h = [], x
        for lin, bn in zip(self.backbone.linears, self.backbone.norms):
            h, ctx = linear_forward(h, lin.weight.values, lin.bias.values)
            ctxs.append(ctx)
            if bn is not None:
                h, ctx = bn.train_forward(h)
                ctxs.append(ctx)
            h, ctx = relu_forward(h)
            ctxs.append(ctx)
        z, ctx = self.classifier.forward_arrays(h)
        ctxs.append(ctx)
        return z, ctxs

    def train_backward(self, ctx: list, g: np.ndarray):
        """Set ``.grad`` of every learnable parameter from ``g``, the loss's gradient
        w.r.t. the logits of :meth:`train_forward`, consuming its context; the
        graph is a chain without fan-out, so each parameter gets one gradient."""
        g, *grads = self.classifier.backward_arrays(ctx.pop(), g, bool(ctx))
        for p, grad in zip(self.classifier.params(), grads):
            p.grad = grad
        layers = list(zip(self.backbone.linears, self.backbone.norms)) if ctx else []
        for i in reversed(range(len(layers))):
            lin, bn = layers[i]
            g = relu_backward(ctx.pop(), g)
            if bn is not None:
                g, bn.scale.grad, bn.shift.grad = bn.train_backward(ctx.pop(), g)
            g, lin.weight.grad, lin.bias.grad = linear_backward(ctx.pop(), g, i > 0)

    def predict_probs(self, x: np.ndarray) -> np.ndarray:
        """Eval-mode class probabilities on plain arrays, recording no tape;
        the same values as ``softmax(self.logits(x, net.EVAL)).values``. The
        softmax is taken over the logits matrix in place; ``x`` is not changed."""
        return softmax_inplace(self.classifier.eval_logits(self.backbone.frozen_features(x, net.EVAL)))


def evaluate(model: Model, ds: LongTailedDataset, bins: int = 15) -> dict:
    """Accuracy, ECE, and split accuracies on the balanced test set."""
    probs = model.predict_probs(ds.test_features)
    log = PredictionLog.from_probs(probs, ds.test_labels)
    report = ece(log, bins)
    out = {"accuracy": float(log.correct.mean() * 100.0), "ece": report.ece_percent}
    out.update({f"acc_{k}": v for k, v in split_accuracy(log, ds.splits).items()})
    return out


# numpy's overflow warnings stay quiet in training: a non-finite loss is
# reported once, as the DivergenceError that names where it happened.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _fit(model: Model, opt: SGD, sampler: Sampler, *, cfg: TrainConfig, ds: LongTailedDataset,
         stage: int, epochs: int, schedule: dict, base_lr: float, mode: str, mixup: bool,
         mix_tag: int, targets, metrics: list | None) -> Model:
    """The epoch loop of either stage: draw a batch (mixed up when ``mixup``),
    run the model's forward chain on arrays, take an SGD step on the soft CE
    against the mixup targets or ``targets(labels)``, and append one curve row
    per epoch to ``metrics``."""
    mix_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, mix_tag]))
    mix_cfg = MixupConfig(alpha=cfg.mixup_alpha, enabled=mixup)
    steps = cfg.batches_per_epoch
    if steps is None:
        steps = math.ceil(len(ds.labels) / cfg.batch_size)
    for epoch in range(epochs):
        lr = lr_at(schedule, epoch, epochs, base_lr)
        losses = []
        for step in range(steps):
            x, y = sampler.next_batch(cfg.batch_size)
            if mixup:
                perm = mix_rng.permutation(len(x))
                x, q = mixup_batch(x, y, x[perm], y[perm], mix_cfg, mix_rng, ds.num_classes,
                                   lam=cfg.mixup_force_lam)
            else:
                q = targets(y)
            z, ctx = model.train_forward(x, mode)
            loss, ce_ctx = softmax_cross_entropy_forward(q, z)
            losses.append(loss.item())
            if not np.isfinite(losses[-1]):
                raise DivergenceError(stage, epoch, step)
            model.train_backward(ctx, softmax_cross_entropy_backward(ce_ctx))
            opt.step(lr)
        if metrics is not None:
            ev = evaluate(model, ds)
            metrics.append({"epoch": epoch, "stage": stage, "lr": lr,
                            "train_loss": float(np.mean(losses)),
                            "test_acc": ev["accuracy"], "ece": ev["ece"]})
    return model


def train_stage1(cfg: TrainConfig, ds: LongTailedDataset, metrics: list | None = None) -> Model:
    """Joint backbone + linear classifier training on instance-balanced batches."""
    bb_cfg = net.BackboneConfig(
        in_dim=ds.dim, hidden=list(cfg.hidden), batchnorm=cfg.batchnorm,
        bn_momentum=cfg.bn_momentum, seed=cfg.seed,
    )
    backbone = net.Backbone(bb_cfg)
    w_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x57]))
    classifier = LinearClassifier(w_rng.standard_normal((bb_cfg.feature_dim, ds.num_classes))
                                  / np.sqrt(bb_cfg.feature_dim))
    decayed = [{"params": [lin.weight for lin in backbone.linears] + classifier.params(),
                "weight_decay": cfg.weight_decay}]
    plain = [{"params": [lin.bias for lin in backbone.linears]
              + [p for bn in backbone.norms if bn is not None for p in bn.parameters()]}]
    return _fit(Model(backbone, classifier), SGD(decayed + plain, momentum=cfg.momentum),
                Sampler("instance", ds, seed=int(np.random.SeedSequence([cfg.seed, 0x5A]).generate_state(1)[0])),
                cfg=cfg, ds=ds, stage=1, epochs=cfg.stage1_epochs, schedule=cfg.stage1_schedule,
                base_lr=cfg.lr, mode=net.TRAIN, mixup=cfg.mixup_stage1, mix_tag=0x3F,
                targets=lambda y: one_hot(y, ds.num_classes), metrics=metrics)


def train_stage2(cfg: TrainConfig, model: Model, ds: LongTailedDataset,
                 metrics: list | None = None) -> Model:
    """Classifier retraining on class-balanced batches with a frozen backbone."""
    k = ds.num_classes
    head = GeneralizedHead(model.classifier.w.values, mode=cfg.head_mode, lr_ratio_dw=cfg.lr_ratio_dw)
    groups = head.param_groups()
    for g in groups:
        # Weight decay on dW only; the scaling vector s is left undecayed.
        if g["params"][0] is head.dw:
            g["weight_decay"] = cfg.weight_decay
    sampler = Sampler("class", ds, seed=int(np.random.SeedSequence([cfg.seed, 0xC2]).generate_state(1)[0]))

    # The soft-CE targets of a batch's labels, chosen once; las_target_matrix is
    # called through this module's globals on every step.
    if cfg.stage2_loss == "las":
        schedule = SmoothingSchedule.from_counts(ds.class_counts, cfg.las_kind, cfg.eps1,
                                                 cfg.eps_k, cfg.las_p)
        targets = lambda y: las_target_matrix(schedule, y, k)
    elif cfg.stage2_loss == "weighted":
        weights = effective_number_weights(ds.class_counts)
        targets = lambda y: one_hot(y, k) * weights[y][:, None]
    else:
        targets = lambda y: one_hot(y, k)

    if cfg.shift_bn and cfg.bn_warm_steps:
        net.bn_shift_stats(model.backbone, sampler, cfg.bn_warm_steps, cfg.batch_size)
    return _fit(Model(model.backbone, head), SGD(groups, momentum=cfg.momentum), sampler,
                cfg=cfg, ds=ds, stage=2, epochs=cfg.stage2_epochs, schedule=cfg.stage2_schedule,
                base_lr=cfg.lr * cfg.stage2_lr_scale,
                mode=net.SHIFT if cfg.shift_bn and cfg.bn_concurrent else net.EVAL,
                mixup=cfg.mixup_stage2, mix_tag=0x9D, targets=targets, metrics=metrics)


def run(cfg: TrainConfig, ds: LongTailedDataset) -> dict:
    """Full pipeline; returns final metrics, per-epoch curves, and the model."""
    metrics: list[dict] = []
    model = train_stage1(cfg, ds, metrics)
    if cfg.stage2_epochs > 0:
        model = train_stage2(cfg, model, ds, metrics)
    final = evaluate(model, ds)
    return {"config": asdict(cfg), "final": final, "curves": metrics, "model": model}


ABLATION_CELLS = [(mu, sl, las) for mu in (False, True) for sl in (False, True)
                  for las in (False, True)]


def run_ablation_grid(base_cfg: TrainConfig, ds: LongTailedDataset) -> list[dict]:
    """The 2^3 (mixup, shift-BN, smoothing) toggle grid with per-cell seeds."""
    results = []
    base = asdict(base_cfg)
    for i, (mu, sl, las) in enumerate(ABLATION_CELLS):
        d = dict(base)
        d.update(mixup_stage1=mu, shift_bn=sl, stage2_loss="las" if las else "ce",
                 seed=base_cfg.seed + i)
        cell = {"mixup_stage1": mu, "shift_bn": sl, "las": las, "seed": d["seed"]}
        try:
            res = run(TrainConfig.from_dict(d), ds)
            cell.update(accuracy=res["final"]["accuracy"], ece=res["final"]["ece"])
        except DivergenceError as exc:
            cell.update(error=str(exc))
        results.append(cell)
    return results


def write_metrics_csv(metrics: list[dict], path: str | Path):
    """One row per epoch curve entry; a non-finite value raises ``ValueError``
    naming its stage, epoch and column before any file is opened."""
    for row in metrics:
        for column in ("lr", "train_loss", "test_acc", "ece"):
            if not math.isfinite(row[column]):
                raise ValueError(f"metrics: {column} is {row[column]!r} at stage {row['stage']}, "
                                 f"epoch {row['epoch']}; a curve value must be finite")
    write_csv(path, ["epoch", "stage", "lr", "train_loss", "test_acc", "ece"],
              ([row["epoch"], row["stage"], repr(row["lr"]), repr(row["train_loss"]),
                repr(row["test_acc"]), repr(row["ece"])] for row in metrics))


def save_model(model: Model, path_prefix: str | Path, meta: dict | None = None):
    arrays = {f"backbone.{k}": v for k, v in model.backbone.state_arrays().items()}
    arrays.update(model.classifier.state_arrays())
    meta = dict(meta or {})
    meta["backbone"] = {"in_dim": model.backbone.cfg.in_dim,
                        "hidden": list(model.backbone.cfg.hidden),
                        "batchnorm": model.backbone.cfg.batchnorm,
                        "bn_momentum": model.backbone.cfg.bn_momentum,
                        "seed": model.backbone.cfg.seed}
    meta["num_classes"] = int(model.classifier.w.shape[1])
    if isinstance(model.classifier, GeneralizedHead):
        meta["head"] = {"mode": model.classifier.mode, "r": model.classifier.r,
                        "lr_ratio_dw": model.classifier.lr_ratio_dw}
    net.save_checkpoint(path_prefix, arrays, meta)


# What save_model writes in a checkpoint's meta, walked by load_model.
META_RULES = {"backbone": _OBJECT, "num_classes": _AT_LEAST_ONE}
BACKBONE_RULES = {"in_dim": _AT_LEAST_ONE, **{k: FIELD_RULES[k] for k in ("hidden", "batchnorm", "bn_momentum", "seed")}}
HEAD_RULES = {"mode": FIELD_RULES["head_mode"], "r": _number("", lambda v: True), "lr_ratio_dw": FIELD_RULES["lr_ratio_dw"]}


def load_model(path_prefix: str | Path) -> Model:
    """A model saved by :func:`save_model`: its meta must pass the rules above, and
    its entries must be those the meta implies, in those shapes, plus at most the
    ``classifier.w`` that Stage-2 saves once stored beside an equal ``head.w``;
    else :class:`FormatError`."""
    arrays, meta = net.load_checkpoint(path_prefix)
    manifest = Path(path_prefix).with_suffix(".json")
    total = sum(a.size for a in arrays.values())
    check_fields(META_RULES, meta, f"{manifest}: meta.", FormatError)
    check_fields(BACKBONE_RULES, meta["backbone"], f"{manifest}: meta.backbone.", FormatError)
    if "head" in meta:
        check_fields(HEAD_RULES, meta["head"], f"{manifest}: meta.head.", FormatError)
    cfg = net.BackboneConfig(**{key: meta["backbone"][key] for key in BACKBONE_RULES})
    widths = [cfg.in_dim, *cfg.hidden, meta["num_classes"]]
    if sum(a * b for a, b in zip(widths, widths[1:])) > total:  # before any layer is built
        raise FormatError(f"{manifest}: layer widths {widths} need more weights than the {total}-value blob")
    shape_w = (cfg.feature_dim, meta["num_classes"])
    classifier = (GeneralizedHead(np.zeros(shape_w), **{key: meta["head"][key] for key in HEAD_RULES})
                  if "head" in meta else LinearClassifier(np.zeros(shape_w)))
    bb = net.Backbone(cfg)
    expected = {f"backbone.{name}": a.shape for name, a in bb.state_arrays().items()}
    expected.update((name, a.shape) for name, a in classifier.state_arrays().items())
    legacy = None if "classifier.w" in expected else arrays.pop("classifier.w", None)
    if unmatched := sorted(arrays.keys() ^ expected.keys()):
        raise FormatError(f"{manifest}: " + (f"no entry {unmatched[0]!r}" if unmatched[0] in expected
                                             else f"entry {unmatched[0]!r} is not implied by meta"))
    for name, shape in expected.items():
        if arrays[name].shape != shape:
            raise FormatError(f"{manifest}: {name} has shape {list(arrays[name].shape)}, "
                              f"meta implies {list(shape)}")
    if legacy is not None and (legacy.shape, legacy.tobytes()) != (expected["head.w"], arrays["head.w"].tobytes()):
        raise FormatError(f"{manifest}: classifier.w differs from head.w")
    bb.load_state_arrays({name[len("backbone."):]: a for name, a in arrays.items()
                          if name.startswith("backbone.")})
    classifier.load_state_arrays(arrays)
    return Model(bb, classifier)
