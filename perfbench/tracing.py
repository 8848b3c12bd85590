"""Per-layer spans recorded from outside the program.

During a traced operation each public function of a layer is replaced, where
its caller looks it up (a module attribute, a class attribute or an entry of
the CLI's dispatch table), by a wrapper that records a span: name, start,
end, parent span and operation id. Untraced operations run the original
functions; the wrappers are installed only around traced ones.

A target that no longer exists (say, after ``train_stage1`` and
``train_stage2`` merge) is skipped, and the metrics it fed are reported as
absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

LAYERS = ("tensor", "data", "net", "losses", "head", "calib", "trainer", "cli")


def _mode(args, kwargs) -> str:
    return args[2] if len(args) > 2 else kwargs["mode"]


def _kind(args, kwargs) -> str:
    return args[0].kind


@dataclass(frozen=True)
class Target:
    span: str  # "<layer>.<name>"; a split target appends "_<split(...)>"
    module: str
    attr: str  # dotted path inside the module; "COMMANDS[]" wraps each dict entry
    split: Callable | None = None


TARGETS = [
    Target("tensor.backward", "ltcalib.tensor", "Tensor.backward"),
    Target("net.forward", "ltcalib.net", "Backbone.forward", split=_mode),
    Target("net.bn_shift_stats", "ltcalib.net", "bn_shift_stats"),
    Target("net.save_checkpoint", "ltcalib.net", "save_checkpoint"),
    Target("net.load_checkpoint", "ltcalib.net", "load_checkpoint"),
    Target("head.forward", "ltcalib.head", "GeneralizedHead.__call__"),
    Target("head.forward", "ltcalib.head", "GeneralizedHead.forward"),
    Target("losses.ce", "ltcalib.trainer", "soft_ce_loss"),
    Target("losses.ce", "ltcalib.trainer", "ce_loss"),
    Target("losses.ce", "ltcalib.trainer", "weighted_ce_loss"),
    Target("losses.las_targets", "ltcalib.trainer", "las_target_matrix"),
    Target("data.next_batch", "ltcalib.data", "Sampler.next_batch", split=_kind),
    Target("data.mixup", "ltcalib.trainer", "mixup_batch"),
    Target("data.gen", "ltcalib.data", "gen_gaussian_blobs"),
    Target("data.save_csv", "ltcalib.data", "save_dataset"),
    Target("data.load_csv", "ltcalib.data", "load_dataset"),
    Target("calib.ece", "ltcalib.cli", "ece"),
    Target("calib.ece", "ltcalib.trainer", "ece"),
    Target("calib.ece", "ltcalib.calib", "ece"),  # reliability_bins calls it here
    Target("calib.reliability", "ltcalib.cli", "reliability_bins"),
    Target("calib.reliability", "ltcalib.cli", "export_reliability_csv"),
    Target("calib.distribution", "ltcalib.cli", "probability_distribution"),
    Target("calib.distribution", "ltcalib.cli", "export_distribution_csv"),
    Target("calib.split_accuracy", "ltcalib.cli", "split_accuracy"),
    Target("calib.split_accuracy", "ltcalib.trainer", "split_accuracy"),
    Target("trainer.stage1", "ltcalib.trainer", "train_stage1"),
    Target("trainer.stage2", "ltcalib.trainer", "train_stage2"),
    Target("trainer.evaluate", "ltcalib.trainer", "evaluate"),
    Target("trainer.sgd_step", "ltcalib.trainer", "SGD.step"),
    # Spans below feed only the layers' self time.
    Target("trainer.run", "ltcalib.trainer", "run"),
    Target("trainer.ablation_grid", "ltcalib.trainer", "run_ablation_grid"),
    Target("trainer.save_model", "ltcalib.trainer", "save_model"),
    Target("trainer.load_model", "ltcalib.trainer", "load_model"),
    Target("trainer.write_metrics", "ltcalib.trainer", "write_metrics_csv"),
    Target("cli.main", "ltcalib.cli", "main"),
    Target("cli", "ltcalib.cli", "COMMANDS[]"),
]

# Count metrics read from the number of spans of one name.
SPAN_COUNTS = {
    "tensor.backward_calls": "tensor.backward",
    "trainer.evaluate_calls": "trainer.evaluate",
    "trainer.steps": "trainer.sgd_step",
}
# Counts that must repeat exactly between runs of the same code.
EXACT_COUNTS = (*SPAN_COUNTS, "data.load_csv_rows", "tensor.tensors_per_step")


def _source(metric: str) -> str | None:
    """The span a per-layer metric is read from; None for metrics always present."""
    if metric in SPAN_COUNTS:
        return SPAN_COUNTS[metric]
    if metric == "data.load_csv_rows":
        return "data.load_csv"
    if metric == "tensor.tensors_per_step":
        return "tensor.init"
    layer, _, rest = metric.partition(".")
    if rest == "self_s" or layer == "trace":
        return None
    span = f"{layer}.{rest.removesuffix('_s')}"
    if layer == "cli" and span != "cli.main":
        return "cli"
    for target in TARGETS:
        if target.split and span.startswith(target.span + "_"):
            return target.span
    return span


class Tracer:
    """Installs the wrappers around one operation at a time and keeps every span."""

    def __init__(self):
        self.spans: list[list] = []  # [op_id, name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.op_id = -1
        self.depth: Counter = Counter()
        self.tensor_inits: Counter = Counter()  # op_id -> Tensors built in training
        self.csv_rows: Counter = Counter()  # op_id -> rows returned by load_dataset
        self.missing: set[str] = set()
        self._restore: list[Callable] = []

    # -- installing ------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, split: Callable | None) -> Callable:
        spans, stack, depth = self.spans, self.stack, self.depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            full = f"{name}_{split(args, kwargs)}" if split else name
            index = len(spans)
            spans.append([self.op_id, full, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            depth[full] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                depth[full] -= 1
                stack.pop()
                spans[index][3] = time.perf_counter()
            if full == "data.load_csv":
                self.csv_rows[self.op_id] += len(result.labels) + (
                    len(result.test_labels) if result.test_labels is not None else 0)
            return result

        return wrapper

    def _install_target(self, target: Target) -> bool:
        try:
            owner = importlib.import_module(target.module)
        except ImportError:
            return False
        *path, attr = target.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        if attr == "COMMANDS[]":
            table = getattr(owner, "COMMANDS", None)
            if not isinstance(table, dict):
                return False
            for key, fn in list(table.items()):
                table[key] = self._wrap(f"{target.span}.{key.replace('-', '_')}", fn, None)
                self._restore.append(functools.partial(table.__setitem__, key, fn))
            return True
        # Class attributes are read from the class dict so methods stay plain functions.
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if not callable(original):
            return False
        setattr(owner, attr, self._wrap(target.span, original, target.split))
        self._restore.append(functools.partial(setattr, owner, attr, original))
        return True

    def _install_tensor_counter(self) -> bool:
        try:
            from ltcalib.tensor import Tensor
        except ImportError:
            return False
        original = Tensor.__dict__.get("__init__")
        if original is None:
            return False
        depth, inits = self.depth, self.tensor_inits

        @functools.wraps(original)
        def counting_init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            if depth["trainer.run"] and not depth["trainer.evaluate"]:
                inits[self.op_id] += 1

        Tensor.__init__ = counting_init
        self._restore.append(functools.partial(setattr, Tensor, "__init__", original))
        return True

    def begin(self, op_id: int) -> None:
        """Install every wrapper; spans recorded until :meth:`end` carry ``op_id``."""
        self.op_id = op_id
        found: Counter = Counter()
        for target in TARGETS:
            found[target.span] += self._install_target(target)
        self.missing = {span for span, n in found.items() if n == 0}
        # tensors_per_step counts inside trainer.run, outside evaluate, per SGD step.
        needed = {"trainer.run", "trainer.evaluate", "trainer.sgd_step"}
        if not self._install_tensor_counter() or needed & self.missing:
            self.missing.add("tensor.init")

    def end(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- reducing --------------------------------------------------------------

    def absent(self, metric: str) -> bool:
        """True when a metric's source span could not be installed."""
        return _source(metric) in self.missing

    def op_metrics(self, op_id: int) -> dict[str, float]:
        """Per span name its inclusive time (``<name>_s``) and calls (``<name>.calls``),
        self time per layer (``<layer>.self_s``) and the count metrics."""
        spans = self.spans
        own = [i for i, s in enumerate(spans) if s[0] == op_id]
        child_time: Counter = Counter()
        for i in own:
            op, name, start, end, parent = spans[i]
            if parent >= 0:
                child_time[parent] += end - start
        inclusive: Counter = Counter()
        calls: Counter = Counter()
        self_time: Counter = Counter()
        for i in own:
            op, name, start, end, parent = spans[i]
            calls[name] += 1
            self_time[name.split(".")[0]] += (end - start) - child_time[i]
            # A span nested in one of the same name is already inside its time.
            p = parent
            while p >= 0 and spans[p][1] != name:
                p = spans[p][4]
            if p < 0:
                inclusive[name] += end - start
        out = {f"{name}_s": t for name, t in inclusive.items()}
        out.update({f"{name}.calls": n for name, n in calls.items()})
        out.update({f"{layer}.self_s": self_time[layer] for layer in LAYERS})
        for metric, source in SPAN_COUNTS.items():
            out[metric] = calls[source]
        out["data.load_csv_rows"] = self.csv_rows[op_id]
        steps = calls["trainer.sgd_step"]
        out["tensor.tensors_per_step"] = self.tensor_inits[op_id] / steps if steps else 0.0
        return out

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            for i, (op, name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "op": op, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
