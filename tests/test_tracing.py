"""perfbench's tracer sees the training work, also where it runs a block of steps at a time."""

import importlib.util
import sys
from pathlib import Path

import pytest

from ltcalib import trainer
from ltcalib.data import gen_gaussian_blobs

_spec = importlib.util.spec_from_file_location(
    "tracing", Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("tracing", tracing)  # its dataclasses look their module up there
_spec.loader.exec_module(tracing)

TINY = dict(stage1_epochs=2, stage1_schedule={"kind": "multistep", "milestones": [1], "factor": 0.1},
            stage2_epochs=2, hidden=[8], batch_size=16, batches_per_epoch=20, seed=3)


@pytest.fixture(scope="module")
def ds():
    return gen_gaussian_blobs([60, 30, 10], dim=3, spread=0.4, seed=5)


def _traced_calls(fn) -> dict[str, int]:
    """Span calls of one traced call of ``fn``, by span name. Every tracer target
    must resolve, so that a rename in ``ltcalib`` cannot make a per-layer metric absent."""
    tracer = tracing.Tracer()
    tracer.begin(0)
    try:
        assert not tracer.missing, f"unresolved tracer spans: {sorted(tracer.missing)}"
        fn()
    finally:
        tracer.end()
    metrics = tracer.op_metrics(0)
    return {name.removesuffix(".calls"): n for name, n in metrics.items() if name.endswith(".calls")}


def test_a_default_run_shows_every_training_span(ds):
    cfg = trainer.TrainConfig.from_dict(TINY)
    calls = _traced_calls(lambda: trainer.run(cfg, ds))
    for span in ("data.next_batch_instance", "data.next_batch_class", "data.mixup", "losses.las_targets",
                 "net.forward_shift", "trainer.sgd_step"):
        assert calls.get(span, 0) >= 1, span
    assert calls["trainer.sgd_step"] == (TINY["stage1_epochs"] + TINY["stage2_epochs"]) * TINY["batches_per_epoch"]


def test_a_warm_only_grid_shows_the_warm_pass_and_eval_mode_stage2(ds):
    cfg = trainer.TrainConfig.from_dict(dict(TINY, bn_warm_steps=20, bn_concurrent=False))
    calls = _traced_calls(lambda: trainer.run_ablation_grid(cfg, ds))
    for span in ("net.bn_shift_stats", "net.forward_shift", "net.forward_eval", "data.next_batch_class",
                 "losses.las_targets", "trainer.sgd_step"):
        assert calls.get(span, 0) >= 1, span
