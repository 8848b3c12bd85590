"""Two-stage training pipeline.

Stage-1 trains the backbone and the classifier's Stage-1 form, the bias-free
``x @ w`` of :meth:`GeneralizedHead.stage1`, jointly with instance-balanced
sampling (optionally with mixup). Stage-2 freezes the backbone and BN affine
parameters, switches to class-balanced sampling, optionally lets BN running
statistics drift to the class-balanced input distribution (shift learning),
and retrains only a head built on the frozen Stage-1 weight, with label-aware
smoothing, plain CE, or per-class weighted CE.
"""

from __future__ import annotations

import copy
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
from .data import LongTailedDataset, Sampler, mixup_batch, nan_row_error, one_hot
from .head import GeneralizedHead, HEAD_MODES
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
from .tensor import softmax_cross_entropy_backward, softmax_cross_entropy_forward, softmax_inplace

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
    that epoch (both counted from 0); with no step, the evaluation that ended
    that epoch scored the model's own training rows to a NaN probability."""

    def __init__(self, stage: int, epoch: int, step: int | None = None):
        where = f"stage {stage}, epoch {epoch}"
        super().__init__(f"non-finite evaluation at {where}: the model overflows its own training rows"
                         if step is None else f"non-finite loss at {where}, step {step}")
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
        self._flat = []  # per non-empty group: (group, values, grads, velocity)
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
            self._flat.append((g, values, np.empty_like(values), velocity))

    def zero_grad(self):
        for g in self.groups:
            for p in g["params"]:
                p.zero_grad()

    def step(self, lr: float):
        """One update of every parameter; each must hold a ``.grad``."""
        for g, values, grads, velocity in self._flat:
            np.concatenate([p.grad.ravel() for p in g["params"]], out=grads)
            if wd := g.get("weight_decay", 0.0):
                grads = grads + wd * values
            velocity *= self.momentum
            velocity += grads
            values -= lr * g.get("lr_mult", 1.0) * velocity


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


# Rows per block of Model.prediction_log. BLAS gives a row bits that depend on
# the rows multiplied with it: with OpenBLAS 0.3.31 (Haswell), blocks of 625
# rows or fewer of a 16->100 head, or of 75 or fewer of a 32->16 layer, round
# differently from the same rows of a 20,000-row product, and every larger size
# tried, up to 4,099 rows, matched it. (Over 10,000 rows a 16->10 head takes a
# BLAS path that no block takes.) The partition depends on the row count alone,
# so scoring stays deterministic.
_SCORE_BLOCK_ROWS = 2048


def _score_block_ends(n: int) -> list[int]:
    """The end row of each block of ``n`` scored rows: blocks of ``_SCORE_BLOCK_ROWS``
    rows, the remainder folded into the last, so fewer than twice that is one block."""
    return [_SCORE_BLOCK_ROWS * i for i in range(1, n // _SCORE_BLOCK_ROWS)] + [n]


# numpy's overflow warnings stay quiet in training and scoring: a non-finite
# loss or evaluation is reported once, as the DivergenceError that names where
# it happened, and a test row scored to NaN as the error that names the row.
_QUIET = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}


class Model:
    """Backbone plus classifier, a :class:`GeneralizedHead`: its Stage-1 form,
    with no frozen W, or the Stage-2 head built from that form's weight. The
    backbone learns in train mode (Stage 1) and runs frozen in shift or eval
    mode (Stage 2)."""

    def __init__(self, backbone: net.Backbone, classifier: GeneralizedHead):
        self.backbone = backbone
        self.classifier = classifier

    def _chain(self) -> list:
        return [*self.backbone.layers, self.classifier]

    def train_forward(self, x: np.ndarray, mode: str) -> tuple[np.ndarray, list]:
        """Logits of a training batch on plain arrays, recording no tape, and the
        context :meth:`train_backward` needs, one entry per layer that ran: every
        backbone layer and the classifier in train mode, the classifier alone in
        eval or shift mode, where ``x`` is the batch's features, which the frozen
        backbone computed beforehand (see :func:`_fit`)."""
        ctxs = []
        for layer in self._chain() if mode == net.TRAIN else [self.classifier]:
            x, ctx = layer.forward_arrays(x)
            ctxs.append(ctx)
        return x, ctxs

    def train_backward(self, ctx: list, g: np.ndarray):
        """Set ``.grad`` of every learnable parameter from ``g``, the loss's gradient
        w.r.t. the logits of :meth:`train_forward`, consuming its context; the
        graph is a chain without fan-out, so each parameter gets one gradient."""
        for layer in reversed(self._chain()[-len(ctx):]):
            g = layer.backward_arrays(ctx.pop(), g, bool(ctx))

    def predict_probs(self, x: np.ndarray) -> np.ndarray:
        """Eval-mode class probabilities on plain arrays, recording no tape; the
        same values as the taped ``softmax(classifier(backbone.forward(x, net.EVAL)))``.
        The softmax is taken over the logits matrix in place; ``x`` is not changed."""
        return softmax_inplace(self.classifier.eval_logits(self.backbone.frozen_features(x, net.EVAL)))

    @np.errstate(**_QUIET)
    def prediction_log(self, x: np.ndarray, labels: np.ndarray,
                       features: list[np.ndarray] | None = None) -> PredictionLog:
        """The :class:`PredictionLog` of :meth:`predict_probs` on ``x``, each block of
        :func:`_eval_features` reduced to its records, so that no (N, K) probability
        matrix is held; ``x`` is not changed. ``features``, those blocks made
        beforehand under this backbone, stand in for running it."""
        # The records are copied into arrays made up front, so that no block's
        # records outlive it: kept in a list and concatenated at the end, they
        # fragmented glibc's heap, and score-csv's peak RSS rose from 57 to 62 MB.
        n = len(x)
        log = PredictionLog(np.empty(n), np.empty(n, dtype=np.intp), np.asarray(labels), np.empty(n))
        blocks = iter(_eval_features(self.backbone, x) if features is None else features)
        ends = _score_block_ends(n)
        for a, b in zip([0, *ends], ends):
            # Neither a block's features nor its probabilities are bound to a name (zip's
            # reused tuple would bind them): the next block's would be made beside them.
            block = PredictionLog.from_probs(softmax_inplace(self.classifier.eval_logits(next(blocks))), labels[a:b])
            log.confidence[a:b], log.predicted[a:b], log.p_true[a:b] = block.confidence, block.predicted, block.p_true
        return log

    def state_arrays(self) -> dict[str, np.ndarray]:
        """The checkpoint's entries by name; each but ``head.r`` is the model's own array."""
        return {**{f"backbone.{k}": a for k, a in self.backbone.state_arrays().items()}, **self.classifier.state_arrays()}


def _eval_features(backbone: net.Backbone, x: np.ndarray):
    """The eval-mode features of ``x``, one array per block of rows that
    ``_score_block_ends`` gives, each made when asked for."""
    ends = _score_block_ends(len(x))
    return (backbone.frozen_features(x[a:b], net.EVAL) for a, b in zip([0, *ends], ends))


def evaluate(model: Model, ds: LongTailedDataset, test_features: list[np.ndarray] | None = None) -> dict:
    """Accuracy, ECE, and split accuracies on the balanced test set (whose
    :func:`_eval_features` under the model's backbone may be given). A test row scored
    to a NaN probability by a model whose forward pass is finite on every training
    row is a fault of the test data, raised as :func:`~ltcalib.data.nan_row_error`."""
    log = model.prediction_log(ds.test_features, ds.test_labels, test_features)
    # A NaN on the training rows too is the model's own fault: the metric stays NaN.
    if (np.isnan(log.confidence).any()
            and not np.isnan(model.prediction_log(ds.features, ds.labels).confidence).any()):
        raise nan_row_error(ds.test_path, log.confidence)
    out = {"accuracy": float(log.correct.mean() * 100.0), "ece": ece(log).ece_percent}
    out.update({f"acc_{k}": v for k, v in split_accuracy(log, ds.splits).items()})
    return out


def _draw_block(sampler: Sampler, mix_rng: np.random.Generator, n: int, *, cfg: TrainConfig,
                k: int, mixup: bool) -> tuple[np.ndarray, np.ndarray]:
    """The inputs ``(n, B, d)`` and, with mixup, the soft targets ``(n, B, k)`` of n
    steps; without it, the labels ``(n, B)``, which :func:`_fit` maps to targets.
    Each step draws its batch, then (when ``mixup``) its permutation and its λ from
    ``mix_rng``, in the order a step at a time drew them; mixup then runs once on
    the stack, elementwise, to the same bits."""
    xs, ys, perms, lams = [], [], [], []
    for _ in range(n):
        x, y = sampler.next_batch(cfg.batch_size)
        xs.append(x)
        ys.append(y)
        if mixup:
            perms.append(mix_rng.permutation(len(x)))
            lams.append(float(mix_rng.beta(cfg.mixup_alpha, cfg.mixup_alpha))
                        if cfg.mixup_force_lam is None else cfg.mixup_force_lam)
    xs, ys = np.array(xs), np.array(ys)
    if not mixup:
        return xs, ys
    pairs = np.arange(n)[:, None], np.array(perms)  # step i's rows in perms[i]'s order
    return mixup_batch(xs, ys, xs[pairs], ys[pairs], cfg.mixup_alpha, mix_rng, k,
                       lam=np.array(lams, dtype=np.float64)[:, None, None])


def _draws(sampler: Sampler, mix_rng: np.random.Generator, *, cfg: TrainConfig, ds: LongTailedDataset,
           epochs: int, mixup: bool):
    """Stage 1's producer, and Stage 2's draws: per epoch, a generator of its blocks of
    :func:`_draw_block`, each drawn when asked for and ending by the epoch's end,
    and no test features."""
    steps = cfg.batches_per_epoch
    if steps is None:
        steps = math.ceil(len(ds.labels) / cfg.batch_size)
    per_block = net.block_steps(cfg.batch_size, max(ds.dim, ds.num_classes, *cfg.hidden))
    for _ in range(epochs):
        yield (_draw_block(sampler, mix_rng, min(per_block, steps - start), cfg=cfg, k=ds.num_classes, mixup=mixup)
               for start in range(0, steps, per_block)), None


def _stage2_mode(cfg: TrainConfig) -> str:
    return net.SHIFT if cfg.shift_bn and cfg.bn_concurrent else net.EVAL


def _stage2_feed(cfg: TrainConfig, backbone: net.Backbone, ds: LongTailedDataset):
    """Stage 2's producer, its work that the head does not change, done when asked
    for: the BN warm pass, then per epoch the blocks of :func:`_draws` with the
    frozen backbone's features for inputs, and the test set's :func:`_eval_features`,
    computed once in eval mode; in shift mode, where the statistics move, None."""
    sampler = Sampler("class", ds, seed=int(np.random.SeedSequence([cfg.seed, 0xC2]).generate_state(1)[0]))
    mix_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x9D]))
    mode = _stage2_mode(cfg)
    # Without BN the warm pass refreshes nothing; skipped, it leaves the sampler untouched.
    if cfg.shift_bn and cfg.bn_warm_steps and backbone.norms:
        net.bn_shift_stats(backbone, sampler, cfg.bn_warm_steps, cfg.batch_size)
    test = list(_eval_features(backbone, ds.test_features)) if mode == net.EVAL else None

    def frozen(block):  # holds a block's inputs only until their features are made
        return backbone.forward(block[0], mode).values, block[1]

    for blocks, _ in _draws(sampler, mix_rng, cfg=cfg, ds=ds, epochs=cfg.stage2_epochs, mixup=cfg.mixup_stage2):
        yield map(frozen, blocks), test


@np.errstate(**_QUIET)  # as quiet as _fit, in which a solo feed runs
def _record(cfg: TrainConfig, backbone: net.Backbone, ds: LongTailedDataset) -> list:
    """:func:`_stage2_feed` on ``backbone`` (whose statistics it writes) run to its end:
    per epoch, the blocks, the test features and the BN statistics the epoch left."""
    stream = []
    for blocks, test in _stage2_feed(cfg, backbone, ds):
        blocks = list(blocks)
        stream.append((blocks, test, [(bn.running_mean.copy(), bn.running_var.copy()) for bn in backbone.norms]))
    return stream


def _replay(stream: list, backbone: net.Backbone):
    """:func:`_record`'s feed, which sets ``backbone``'s BN statistics to copies of the
    ones an epoch left before that epoch; only its evaluation reads them."""
    for blocks, test, stats in stream:
        for bn, (mean, var) in zip(backbone.norms, stats):
            bn.running_mean, bn.running_var = mean.copy(), var.copy()
        yield blocks, test


@np.errstate(**_QUIET)
def _fit(model: Model, opt: SGD, feed, *, ds: LongTailedDataset, stage: int, epochs: int,
         schedule: dict, base_lr: float, mode: str, targets, metrics: list | None,
         final: dict | None) -> Model:
    """The epoch loop of either stage. ``feed`` yields per epoch its blocks and the
    test set's :func:`_eval_features` or None. A block stacks n steps' inputs (the
    frozen backbone's features in eval or shift mode) and mixup's soft targets, or
    labels, which ``targets`` maps to soft targets here and nowhere else. Each step
    runs the model's forward chain on arrays and takes an SGD step on the soft CE.
    With ``metrics``, each epoch appends one curve row there; ``final`` is set to
    the last epoch's evaluation, which scored the model returned. A NaN ECE (the
    model overflows its training rows too) raises :class:`DivergenceError` for it."""
    for epoch, (blocks, test) in enumerate(feed):
        lr = lr_at(schedule, epoch, epochs, base_lr)
        losses = []
        for xs, qs in blocks:
            if qs.ndim == 2:
                qs = targets(qs.ravel()).reshape(*qs.shape, ds.num_classes)
            for x, q in zip(xs, qs):
                z, ctx = model.train_forward(x, mode)
                loss, ce_ctx = softmax_cross_entropy_forward(q, z)
                losses.append(loss.item())
                if not math.isfinite(losses[-1]):
                    raise DivergenceError(stage, epoch, len(losses) - 1)
                model.train_backward(ctx, softmax_cross_entropy_backward(ce_ctx))
                opt.step(lr)
            del xs, qs, x, q, ce_ctx  # the block dies before the next is made or the epoch is scored
        if metrics is not None:
            ev = evaluate(model, ds, test_features=test)
            if math.isnan(ev["ece"]):
                raise DivergenceError(stage, epoch)
            metrics.append({"epoch": epoch, "stage": stage, "lr": lr,
                            "train_loss": float(np.mean(losses)),
                            "test_acc": ev["accuracy"], "ece": ev["ece"]})
            if final is not None:
                final.update(ev)
    return model


def train_stage1(cfg: TrainConfig, ds: LongTailedDataset, metrics: list | None = None,
                 final: dict | None = None) -> Model:
    """Joint backbone + Stage-1 classifier training on instance-balanced batches. With
    ``metrics``, each epoch is evaluated and appends a curve row there, and ``final``
    (when given) is set to the last epoch's evaluation."""
    bb_cfg = net.BackboneConfig(
        in_dim=ds.dim, hidden=list(cfg.hidden), batchnorm=cfg.batchnorm,
        bn_momentum=cfg.bn_momentum, seed=cfg.seed,
    )
    backbone = net.Backbone(bb_cfg)
    w_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x57]))
    classifier = GeneralizedHead.stage1(w_rng.standard_normal((bb_cfg.feature_dim, ds.num_classes))
                                        / np.sqrt(bb_cfg.feature_dim))
    # Weight decay on the weight matrices only; biases and BN's affine vectors are left undecayed.
    params = backbone.parameters() + classifier.parameters()
    groups = [{"params": [p for p in params if p.values.ndim == 2], "weight_decay": cfg.weight_decay},
              {"params": [p for p in params if p.values.ndim == 1]}]
    feed = _draws(Sampler("instance", ds, seed=int(np.random.SeedSequence([cfg.seed, 0x5A]).generate_state(1)[0])),
                  np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x3F])), cfg=cfg, ds=ds,
                  epochs=cfg.stage1_epochs, mixup=cfg.mixup_stage1)
    return _fit(Model(backbone, classifier), SGD(groups, momentum=cfg.momentum), feed, ds=ds, stage=1,
                epochs=cfg.stage1_epochs, schedule=cfg.stage1_schedule, base_lr=cfg.lr, mode=net.TRAIN,
                targets=lambda y: one_hot(y, ds.num_classes), metrics=metrics, final=final)


def train_stage2(cfg: TrainConfig, model: Model, ds: LongTailedDataset,
                 metrics: list | None = None, final: dict | None = None, stream: list | None = None) -> Model:
    """Classifier retraining on class-balanced batches with a frozen backbone;
    ``metrics`` and ``final`` as for :func:`train_stage1`. ``stream``, :func:`_record`
    on this backbone and a config that differs at most in its loss, is replayed."""
    k = ds.num_classes
    head = GeneralizedHead(model.classifier.dw.values, mode=cfg.head_mode, lr_ratio_dw=cfg.lr_ratio_dw)
    groups = head.param_groups()
    for g in groups:
        # Weight decay on dW only; the scaling vector s is left undecayed.
        if g["params"][0] is head.dw:
            g["weight_decay"] = cfg.weight_decay

    # The soft-CE targets of a block's labels, chosen once; las_target_matrix is
    # called through this module's globals on every block.
    if cfg.stage2_loss == "las":
        schedule = SmoothingSchedule.from_counts(ds.class_counts, cfg.las_kind, cfg.eps1,
                                                 cfg.eps_k, cfg.las_p)
        targets = lambda y: las_target_matrix(schedule, y, k)
    elif cfg.stage2_loss == "weighted":
        weights = effective_number_weights(ds.class_counts)
        targets = lambda y: one_hot(y, k) * weights[y][:, None]
    else:
        targets = lambda y: one_hot(y, k)

    feed = _stage2_feed(cfg, model.backbone, ds) if stream is None else _replay(stream, model.backbone)
    return _fit(Model(model.backbone, head), SGD(groups, momentum=cfg.momentum), feed, ds=ds, stage=2,
                epochs=cfg.stage2_epochs, schedule=cfg.stage2_schedule, base_lr=cfg.lr * cfg.stage2_lr_scale,
                mode=_stage2_mode(cfg), targets=targets, metrics=metrics, final=final)


def run(cfg: TrainConfig, ds: LongTailedDataset, stage1: tuple | None = None,
        stage2: list | None = None) -> dict:
    """Full pipeline; returns final metrics, per-epoch curves, and the model. The
    final metrics are the last epoch's evaluation (Stage 1 has an epoch at least).
    ``stage1``, a ``(model, curves, final)`` triple from :func:`train_stage1` on a
    config with this one's Stage-1 fields, takes the place of training Stage 1; it
    is deep-copied, since Stage 2 writes the backbone's BN running statistics.
    ``stage2`` is the ``stream`` of :func:`train_stage2`."""
    if stage1 is None:
        metrics, final = [], {}
        model = train_stage1(cfg, ds, metrics, final)
    else:
        model, metrics, final = copy.deepcopy(stage1)
    if cfg.stage2_epochs > 0:
        model = train_stage2(cfg, model, ds, metrics, final, stream=stage2)
    return {"config": asdict(cfg), "final": final, "curves": metrics, "model": model}


ABLATION_CELLS = [(mu, sl, las) for mu in (False, True) for sl in (False, True)
                  for las in (False, True)]


def run_ablation_grid(base_cfg: TrainConfig, ds: LongTailedDataset) -> list[dict]:
    """The 2^3 (mixup, shift-BN, smoothing) toggle grid, every cell on the base
    seed. Only ``mixup_stage1`` reaches Stage 1, so Stage 1 is trained once per
    mixup setting and the four cells that share it each :func:`run` Stage 2 from
    it. Only the loss tells the two cells of a ``(mixup, shift-BN)`` pair apart,
    so both replay one record of the Stage-2 work the head does not change. Each
    cell equals ``run`` on its own config. A Stage-1 divergence is the ``error``
    of the four cells that share that Stage 1."""
    results = []
    stage1: dict[bool, tuple | str] = {}  # per mixup setting: (model, curves, final) or an error
    stream, streamed = None, None  # the recorded Stage 2 of the pair ``streamed``
    for mu, sl, las in ABLATION_CELLS:
        cfg = TrainConfig.from_dict(dict(asdict(base_cfg), mixup_stage1=mu, shift_bn=sl,
                                         stage2_loss="las" if las else "ce"))
        cell = {"mixup_stage1": mu, "shift_bn": sl, "las": las, "seed": cfg.seed}
        if mu not in stage1:
            metrics, final = [], {}
            try:
                stage1[mu] = (train_stage1(cfg, ds, metrics, final), metrics, final)
            except DivergenceError as exc:
                stage1[mu] = str(exc)
        if isinstance(stage1[mu], str):
            cell.update(error=stage1[mu])
        else:
            if streamed != (mu, sl) and cfg.stage2_epochs > 0:
                stream = None  # released before the next is recorded, so one is alive at a time
                stream, streamed = _record(cfg, copy.deepcopy(stage1[mu][0].backbone), ds), (mu, sl)
            try:
                res = run(cfg, ds, stage1=stage1[mu], stage2=stream)
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
    meta = dict(meta or {}, backbone=asdict(model.backbone.cfg), num_classes=int(model.classifier.dw.shape[1]))
    if model.classifier.w is not None:
        meta["head"] = {key: getattr(model.classifier, key) for key in HEAD_RULES}
    net.save_checkpoint(path_prefix, model.state_arrays(), meta)


# What save_model writes in a checkpoint's meta, walked by load_model.
META_RULES = {"backbone": _OBJECT, "num_classes": _AT_LEAST_ONE}
BACKBONE_RULES = {"in_dim": _AT_LEAST_ONE, **{k: FIELD_RULES[k] for k in ("hidden", "batchnorm", "bn_momentum", "seed")}}
HEAD_RULES = {"mode": FIELD_RULES["head_mode"], "r": _number("", lambda v: True), "lr_ratio_dw": FIELD_RULES["lr_ratio_dw"]}


def load_model(path_prefix: str | Path) -> Model:
    """A model saved by :func:`save_model`: its meta must pass the rules above, and
    its entries must be the :meth:`Model.state_arrays` of the model meta builds, in
    their shapes and with meta's ``head.r``, plus at most the ``classifier.w`` that
    Stage-2 saves once stored beside an equal ``head.w``; else :class:`FormatError`."""
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
                  if "head" in meta else GeneralizedHead.stage1(np.zeros(shape_w)))
    model = Model(net.Backbone(cfg), classifier)
    live = model.state_arrays()
    legacy = None if "classifier.w" in live else arrays.pop("classifier.w", None)
    if unmatched := sorted(arrays.keys() ^ live.keys()):
        raise FormatError(f"{manifest}: " + (f"no entry {unmatched[0]!r}" if unmatched[0] in live
                                             else f"entry {unmatched[0]!r} is not implied by meta"))
    for name, a in live.items():  # filled in place; the model is dropped if a check fails
        if arrays[name].shape != a.shape:
            raise FormatError(f"{manifest}: {name} has shape {list(arrays[name].shape)}, "
                              f"meta implies {list(a.shape)}")
        a[...] = arrays[name]
    if legacy is not None and (legacy.shape, legacy.tobytes()) != (live["head.w"].shape, arrays["head.w"].tobytes()):
        raise FormatError(f"{manifest}: classifier.w differs from head.w")
    if "head.r" in live and arrays["head.r"][0] != classifier.r:
        raise FormatError(f"{manifest}: entry 'head.r' is {arrays['head.r'].item()!r}, meta.head.r is {classifier.r!r}")
    return model
