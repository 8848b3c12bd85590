import copy
import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest

from ltcalib import net, trainer
from ltcalib.tensor import Tensor, softmax
from ltcalib.data import DatasetFormatError, Sampler, gen_gaussian_blobs, mixup_batch, one_hot
from ltcalib.head import HEAD_MODES
from ltcalib.losses import (
    SmoothingSchedule,
    ce_loss,
    effective_number_weights,
    las_target_matrix,
    soft_ce_loss,
    weighted_ce_loss,
)
from ltcalib.trainer import (
    ABLATION_CELLS,
    SGD,
    DivergenceError,
    TrainConfig,
    evaluate,
    load_model,
    lr_at,
    run,
    run_ablation_grid,
    save_model,
    train_stage1,
    train_stage2,
    write_metrics_csv,
)


@pytest.fixture(scope="module")
def ds():
    return gen_gaussian_blobs([60, 30, 10], dim=3, spread=0.4, seed=5)


def tiny_cfg(**kw):
    base = dict(
        stage1_epochs=3,
        stage1_schedule={"kind": "multistep", "milestones": [2], "factor": 0.1},
        stage2_epochs=2,
        hidden=[8],
        batch_size=16,
        batches_per_epoch=4,
        seed=1,
    )
    base.update(kw)
    return TrainConfig.from_dict(base)


class TestLrSchedule:
    def test_multistep_decays_at_milestones(self):
        sched = {"kind": "multistep", "milestones": [160, 180], "factor": 0.1}
        assert lr_at(sched, 0, 200, 0.1) == 0.1
        assert lr_at(sched, 159, 200, 0.1) == 0.1
        assert lr_at(sched, 170, 200, 0.1) == pytest.approx(0.01)
        assert lr_at(sched, 185, 200, 0.1) == pytest.approx(0.001)

    def test_cosine_endpoints(self):
        sched = {"kind": "cosine"}
        assert lr_at(sched, 0, 10, 0.5) == 0.5
        assert lr_at(sched, 5, 10, 0.5) == pytest.approx(0.25)
        assert lr_at(sched, 9, 10, 0.5) == pytest.approx(
            0.5 * 0.5 * (1 + math.cos(math.pi * 0.9))
        )

    def test_out_of_range_epoch(self):
        with pytest.raises(ValueError):
            lr_at({"kind": "cosine"}, 10, 10, 0.1)
        with pytest.raises(ValueError):
            lr_at({"kind": "cosine"}, -1, 10, 0.1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            lr_at({"kind": "poly"}, 0, 10, 0.1)


class TestConfig:
    def test_defaults_are_valid(self):
        TrainConfig()

    @pytest.mark.parametrize(
        "patch",
        [
            {"stage1_epochs": 0},
            {"stage1_schedule": {"kind": "multistep", "milestones": [5, 3]}},
            {"stage1_schedule": {"kind": "multistep", "milestones": [40]}},
            {"eps1": 0.1, "eps_k": 0.3},
            {"eps1": 0.7},
            {"head_mode": "cosine"},
            {"stage2_loss": "focal"},
            {"mixup_alpha": 0.0},
            {"batch_size": 0},
            {"batch_size": -3},
            {"batches_per_epoch": 0},
            {"stage1_schedule": {"kind": "poly"}},
            {"stage2_schedule": {"kind": "bogus"}},
            {"stage2_schedule": {"milestones": [1]}},
            {"las_kind": "nope"},
            {"batch_size": 1},
            {"batch_size": 1, "hidden": [4]},
            {"stage2_schedule": {"kind": "multistep", "milestones": [5, 1]}},
            {"stage2_schedule": {"kind": "multistep", "milestones": [3, 3]}},
            {"stage2_epochs": 4, "stage2_schedule": {"kind": "multistep", "milestones": [4]}},
            {"lr": -1},
            {"hidden": [0]},
            {"momentum": 5},
            {"weight_decay": -1},
            {"stage2_lr_scale": -1},
            {"mixup_force_lam": 3},
            {"bn_warm_steps": -5},
            {"lr_ratio_dw": -1},
            {"seed": -1},
            {"bn_momentum": 0},
            {"las_p": -1, "las_kind": "exponential"},
            {"batchnorm": "false"},
            {"stage1_schedule": {"kind": "multistep", "milestones": [2], "decay": 0.1}},
        ],
    )
    def test_invalid_values_rejected(self, patch):
        with pytest.raises(ValueError):
            TrainConfig(**patch)

    @pytest.mark.parametrize("patch", [{"momentum": 0}, {"bn_momentum": 1}, {"eps1": 0.5, "eps_k": 0.5},
                                       {"hidden": []}, {"mixup_force_lam": 0}, {"mixup_force_lam": 1}])
    def test_boundary_values_accepted(self, patch):
        TrainConfig(**patch)

    def test_every_field_has_a_rule(self):
        assert set(trainer.FIELD_RULES) == set(TrainConfig.__dataclass_fields__)

    @pytest.mark.parametrize(
        "patch",
        [
            {"lr": "0.1"},
            {"lr": float("nan")},
            {"batch_size": 16.0},
            {"seed": True},
            {"mixup_force_lam": "1.0"},
            {"batches_per_epoch": "3"},
        ],
    )
    def test_non_numeric_values_rejected(self, patch):
        with pytest.raises(ValueError, match=next(iter(patch))):
            TrainConfig(**patch)

    @pytest.mark.parametrize("patch", [{"batch_size": 1, "batchnorm": False},
                                       {"batch_size": 1, "hidden": []}])
    def test_batch_of_one_accepted_without_batchnorm(self, patch):
        TrainConfig(**patch)

    def test_stage2_milestones_checked_against_stage2_epochs(self):
        TrainConfig(stage2_epochs=4, stage2_schedule={"kind": "multistep", "milestones": [1, 3]})
        with pytest.raises(ValueError, match="^stage2_schedule.milestones: .*stage2_epochs"):
            TrainConfig(stage2_epochs=4, stage2_schedule={"kind": "multistep", "milestones": [1, 4]})

    def test_optional_numeric_fields_accept_none_and_numbers(self):
        TrainConfig(mixup_force_lam=None, batches_per_epoch=None)
        TrainConfig(mixup_force_lam=1, batches_per_epoch=3)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig.from_dict({"learning_rate": 0.1})

    def test_json_round_trip(self, tmp_path):
        cfg = tiny_cfg(eps1=0.3, eps_k=0.05)
        cfg.to_json(tmp_path / "cfg.json")
        back = TrainConfig.from_json(tmp_path / "cfg.json")
        assert back == cfg


class TestSGD:
    def test_negative_zero_gradient_stays_negative_zero_in_the_plain_group(self):
        decayed, plain = Tensor([1.0], requires_grad=True), Tensor([1.0], requires_grad=True)
        opt = SGD([{"params": [decayed], "weight_decay": 0.1}, {"params": [plain]}], momentum=0.0)
        for grad in (-1.0, -0.0):  # the first step leaves a negative velocity
            decayed.grad, plain.grad = np.array([grad]), np.array([grad])
            opt.step(1.0)
        assert opt.velocity[id(plain)].tobytes() == np.array([-0.0]).tobytes()
        assert opt.velocity[id(decayed)].tobytes() != np.array([-0.0]).tobytes()

    def test_parameters_built_before_the_optimizer_are_updated_in_place(self):
        w = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        opt = SGD([{"params": [w, b], "lr_mult": 0.5}], momentum=0.9)
        views = w.values, b.values
        assert w.values.shape == (2, 3) and np.shares_memory(w.values.base, b.values)
        for _ in range(3):
            w.grad, b.grad = np.full((2, 3), 0.25), np.full(3, -1.0)
            expect = [p.values - 0.5 * (0.9 * v + p.grad)
                      for p, v in ((w, opt.velocity[id(w)]), (b, opt.velocity[id(b)]))]
            opt.step(1.0)
            assert w.values is views[0] and b.values is views[1]
            assert w.values.tobytes() == expect[0].tobytes()
            assert b.values.tobytes() == expect[1].tobytes()


class _PerParameterSGD:
    """Momentum SGD one parameter at a time, each update a new array."""

    def __init__(self, groups, momentum):
        self.groups, self.momentum = groups, momentum
        self.velocity = {id(p): np.zeros_like(p.values) for g in groups for p in g["params"]}

    def step(self, lr):
        for g in self.groups:
            eff_lr, wd = lr * g.get("lr_mult", 1.0), g.get("weight_decay", 0.0)
            for p in g["params"]:
                if p.grad is None:
                    continue
                v = self.velocity[id(p)]
                grad = p.grad + wd * p.values if wd else p.grad
                v *= self.momentum
                v += grad
                p.values = p.values - eff_lr * v


def _taped_fit(cfg, model, opt, feed, *, ds, stage, epochs, schedule, base_lr, mode, targets,
               metrics, final):
    """The loop of ``trainer._fit`` on the tape, one step at a time, for ``cfg``. It
    never reads ``feed``: it draws its own batches from a sampler and a mixup
    generator seeded as the stage seeds its own, runs Stage 2's warm pass one
    batch at a time, then for each step Backbone.forward, ``@`` or the head node,
    the taped losses and backward, and per-parameter SGD. It builds its losses from
    ``cfg`` and ignores ``targets``, and evaluates through the backbone each epoch."""
    k = ds.num_classes
    if stage == 1 or cfg.stage2_loss == "ce":
        loss_of = lambda y, z: ce_loss(y, z)
    elif cfg.stage2_loss == "weighted":
        weights = effective_number_weights(ds.class_counts)
        loss_of = lambda y, z: weighted_ce_loss(weights, y, z)
    else:
        sched = SmoothingSchedule.from_counts(ds.class_counts, cfg.las_kind, cfg.eps1,
                                              cfg.eps_k, cfg.las_p)
        loss_of = lambda y, z: soft_ce_loss(las_target_matrix(sched, y, k), z)
    kind, tag, mix_tag, mixup = (("instance", 0x5A, 0x3F, cfg.mixup_stage1) if stage == 1
                                 else ("class", 0xC2, 0x9D, cfg.mixup_stage2))
    sampler = Sampler(kind, ds, seed=int(np.random.SeedSequence([cfg.seed, tag]).generate_state(1)[0]))
    mix_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, mix_tag]))
    if stage == 2 and cfg.shift_bn and model.backbone.norms:
        for _ in range(cfg.bn_warm_steps):
            model.backbone.forward(sampler.next_batch(cfg.batch_size)[0], net.SHIFT)
    opt = _PerParameterSGD(opt.groups, cfg.momentum)
    steps = cfg.batches_per_epoch or math.ceil(len(ds.labels) / cfg.batch_size)
    for epoch in range(epochs):
        lr = lr_at(schedule, epoch, epochs, base_lr)
        losses = []
        for _ in range(steps):
            x, y = sampler.next_batch(cfg.batch_size)
            if mixup:
                perm = mix_rng.permutation(len(x))
                x, q = mixup_batch(x, y, x[perm], y[perm], cfg.mixup_alpha, mix_rng, k,
                                   lam=cfg.mixup_force_lam)
            feats = model.backbone.forward(x, mode)
            z = model.classifier(feats)
            loss = soft_ce_loss(q, z) if mixup else loss_of(y, z)
            losses.append(loss.values.item())
            for g in opt.groups:
                for p in g["params"]:
                    p.zero_grad()
            loss.backward()
            opt.step(lr)
        if metrics is not None:
            ev = evaluate(model, ds)
            metrics.append({"epoch": epoch, "stage": stage, "lr": lr,
                            "train_loss": float(np.mean(losses)),
                            "test_acc": ev["accuracy"], "ece": ev["ece"]})
            if final is not None:
                final.update(ev)
    return model


CHAIN_CASES = {
    "default": {},
    "no-mixup-no-bn-no-hidden-crt-ce-no-shift": dict(
        mixup_stage1=False, batchnorm=False, hidden=[], head_mode="crt", stage2_loss="ce",
        shift_bn=False),
    "batch7-lws-weighted-mixup2-warm-only": dict(
        batch_size=7, hidden=[8, 4], head_mode="lws", stage2_loss="weighted", mixup_stage2=True,
        bn_warm_steps=5, bn_concurrent=False),
    "las-mixup2-concurrent": dict(hidden=[8, 4], mixup_stage1=False, mixup_stage2=True),
    "crt-weighted-no-shift": dict(hidden=[8, 4], head_mode="crt", stage2_loss="weighted",
                                  shift_bn=False),
    "lws-ce-mixup2-warm-and-concurrent": dict(head_mode="lws", stage2_loss="ce",
                                              mixup_stage2=True, bn_warm_steps=5),
    "no-bn-generalized-ce-concurrent": dict(batchnorm=False, hidden=[8, 4], stage2_loss="ce"),
    "no-bn-no-hidden-warm-and-concurrent": dict(batchnorm=False, hidden=[], bn_warm_steps=5),
    # 37 steps and 37 warm steps: two full blocks of net.BLOCK_STEPS and a ragged one.
    "blocks-concurrent-shift": dict(batches_per_epoch=37),
    "blocks-warm-only": dict(batches_per_epoch=37, bn_warm_steps=37, bn_concurrent=False),
    "blocks-no-shift": dict(batches_per_epoch=37, shift_bn=False),
    "blocks-mixup2-warm-and-concurrent": dict(batches_per_epoch=37, bn_warm_steps=37, mixup_stage2=True),
    "blocks-batch7-warm-and-concurrent": dict(batches_per_epoch=37, bn_warm_steps=37, batch_size=7),
}


class TestDirectChain:
    """The tape-free training chain, which consumes blocks of steps from each
    stage's producer, against a taped reference loop that takes one step at a
    time and never calls the producer, byte for byte."""

    def test_the_block_cases_span_several_ragged_blocks(self, ds):
        for case in CHAIN_CASES.values():
            if case.get("batches_per_epoch") == 37:
                cfg = tiny_cfg(**case)
                width = max(ds.dim, ds.num_classes, *cfg.hidden)
                assert 37 > net.block_steps(cfg.batch_size, width) and 37 % net.block_steps(cfg.batch_size, width)

    @pytest.mark.parametrize("case", sorted(CHAIN_CASES))
    def test_matches_the_taped_reference(self, ds, case, monkeypatch):
        cfg = tiny_cfg(**CHAIN_CASES[case])
        chain = run(cfg, ds)
        monkeypatch.setattr(trainer, "_fit", functools.partial(_taped_fit, cfg))
        tape = run(cfg, ds)
        assert _run_bytes(chain) == _run_bytes(tape)


class TestBlockDraw:
    @pytest.mark.parametrize("targets, mixup, lam", [("las", False, None), ("weighted", False, None),
                                                     (None, True, None), (None, True, 0.3), (None, True, 1)],
                             ids=["las", "weighted", "mixup", "mixup-forced-lam", "mixup-forced-int-lam"])
    @pytest.mark.parametrize("kind", Sampler.KINDS)
    def test_a_block_equals_its_steps_drawn_one_at_a_time(self, ds, kind, targets, mixup, lam):
        cfg, k, n = tiny_cfg(batch_size=7, mixup_force_lam=lam), ds.num_classes, 5
        if targets == "las":
            sched = SmoothingSchedule.from_counts(ds.class_counts, "concave", 0.4, 0.1, 2.0)
            targets = lambda y: las_target_matrix(sched, y, k)
        elif targets == "weighted":
            targets = lambda y: one_hot(y, k) * effective_number_weights(ds.class_counts)[y][:, None]
        block_sampler, step_sampler = Sampler(kind, ds, seed=11), Sampler(kind, ds, seed=11)
        block_rng, step_rng = np.random.default_rng(12), np.random.default_rng(12)
        xs, qs = trainer._draw_block(block_sampler, block_rng, n, cfg=cfg, k=k, mixup=mixup)
        if targets is not None:  # as trainer._fit maps a block of labels
            qs = targets(qs.ravel()).reshape(*qs.shape, k)
        assert xs.shape == (n, 7, ds.dim) and qs.shape == (n, 7, k)
        for x_block, q_block in zip(xs, qs):
            x, y = step_sampler.next_batch(7)
            if mixup:
                perm = step_rng.permutation(7)
                x, q = mixup_batch(x, y, x[perm], y[perm], cfg.mixup_alpha, step_rng, k, lam=lam)
            else:
                q = targets(y)
            assert x_block.tobytes() == x.tobytes() and q_block.tobytes() == q.tobytes()
        assert block_sampler.rng.bit_generator.state == step_sampler.rng.bit_generator.state
        assert block_rng.bit_generator.state == step_rng.bit_generator.state


def _run_bytes(res) -> dict:
    """The bytes of a run's curves, final metrics and every state array."""
    model = res["model"]
    arrays = {**model.backbone.state_arrays(), **model.classifier.state_arrays()}
    out = {f"array {name}": a.tobytes() for name, a in arrays.items()}
    out["curves"] = np.array([[row[key] for key in sorted(row)] for row in res["curves"]]).tobytes()
    out.update({f"final {key}": None if v is None else np.float64(v).tobytes()
                for key, v in res["final"].items()})
    return out


class TestDeterminism:
    def test_two_runs_bit_identical(self, ds):
        cfg = tiny_cfg()
        a = run(cfg, ds)
        b = run(cfg, ds)
        assert a["final"] == b["final"]
        assert a["curves"] == b["curves"]
        ma, mb = a["model"], b["model"]
        assert ma.classifier.w.tobytes() == mb.classifier.w.tobytes()
        for k, arr in ma.backbone.state_arrays().items():
            assert arr.tobytes() == mb.backbone.state_arrays()[k].tobytes()
        assert ma.classifier.dw.values.tobytes() == mb.classifier.dw.values.tobytes()
        assert ma.classifier.s.values.tobytes() == mb.classifier.s.values.tobytes()

    def test_forced_full_mixup_matches_no_mixup(self, ds):
        # lambda pinned at 1 makes each mixed batch equal the raw batch,
        # so the trajectories must agree to the bit
        on = train_stage1(tiny_cfg(mixup_stage1=True, mixup_force_lam=1.0), ds)
        off = train_stage1(tiny_cfg(mixup_stage1=False), ds)
        assert on.classifier.dw.values.tobytes() == off.classifier.dw.values.tobytes()
        for k, arr in on.backbone.state_arrays().items():
            assert arr.tobytes() == off.backbone.state_arrays()[k].tobytes()


class TestStage2:
    def test_backbone_and_bn_affine_frozen(self, ds):
        cfg = tiny_cfg(shift_bn=True)
        model = train_stage1(cfg, ds)
        before = {k: v.tobytes() for k, v in model.backbone.state_arrays().items()}
        w_before = model.classifier.dw.values.tobytes()
        trained = train_stage2(cfg, model, ds)
        after = trained.backbone.state_arrays()
        for k in before:
            if "running" in k:
                continue
            assert after[k].tobytes() == before[k], f"{k} changed during stage 2"
        assert trained.classifier.w.tobytes() == w_before
        assert trained.classifier.mode == cfg.head_mode

    def test_shift_toggle_moves_only_running_stats(self, ds):
        cfg_off = tiny_cfg(shift_bn=False)
        model = train_stage1(cfg_off, ds)
        snapshot = {k: v.copy() for k, v in model.backbone.state_arrays().items()}

        frozen = train_stage2(cfg_off, copy.deepcopy(model), ds)
        for k, v in frozen.backbone.state_arrays().items():
            assert v.tobytes() == snapshot[k].tobytes()

        shifted = train_stage2(tiny_cfg(shift_bn=True), copy.deepcopy(model), ds)
        stats = shifted.backbone.state_arrays()
        assert stats["bn0.running_mean"].tobytes() != snapshot["bn0.running_mean"].tobytes()
        assert stats["bn0.scale"].tobytes() == snapshot["bn0.scale"].tobytes()
        assert stats["linear0.weight"].tobytes() == snapshot["linear0.weight"].tobytes()

    def test_warm_pass_without_concurrent_updates(self, ds):
        cfg = tiny_cfg(shift_bn=True, bn_warm_steps=20, bn_concurrent=False)
        model = train_stage1(cfg, ds)
        before = model.backbone.state_arrays()["bn0.running_mean"].copy()
        trained = train_stage2(cfg, model, ds)
        after = trained.backbone.state_arrays()["bn0.running_mean"]
        assert after.tobytes() != before.tobytes()

    @pytest.mark.parametrize("batchnorm, hidden", [(False, [8]), (True, [])],
                             ids=["no_batchnorm", "identity_backbone"])
    def test_warm_pass_is_inert_without_batch_norm(self, ds, batchnorm, hidden):
        """With no BN layer the warm pass has nothing to refresh, so it draws no batch either."""
        cold, warm = (run(tiny_cfg(batchnorm=batchnorm, hidden=hidden, bn_warm_steps=steps), ds)
                      for steps in (0, 300))
        assert _run_bytes(cold) == _run_bytes(warm)

    @pytest.mark.parametrize("stage, head_mode", [(1, "generalized"), *((2, mode) for mode in HEAD_MODES)])
    def test_every_tensor_in_an_sgd_group_learns(self, ds, stage, head_mode, monkeypatch):
        """After one step each grouped tensor requires a gradient and has one, so
        no frozen tensor pushes a group off SGD.step's one-concatenate path."""
        opts = []

        class RecordingSGD(SGD):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opts.append(self)

        monkeypatch.setattr(trainer, "SGD", RecordingSGD)
        cfg = tiny_cfg(head_mode=head_mode, stage1_epochs=1, stage1_schedule={"kind": "cosine"},
                       stage2_epochs=1, batches_per_epoch=1)
        model = train_stage1(cfg, ds)
        if stage == 2:
            model = train_stage2(cfg, model, ds)
        params = [p for g in opts[-1].groups for p in g["params"]]
        assert params and all(p.requires_grad and p.grad is not None for p in params)
        if stage == 1:  # the classifier adds its weight alone, as the bias-free x @ w did
            own = [p for p in params if not any(p is q for q in model.backbone.parameters())]
            assert len(own) == 1 and own[0] is model.classifier.dw

    @pytest.mark.parametrize("patch", [{}, dict(bn_warm_steps=5, bn_concurrent=False)], ids=["shift", "eval"])
    def test_a_solo_stage2_keeps_no_stream(self, ds, patch):
        """Each block is drawn as it is consumed, so the traced peak of 20 epochs
        exceeds that of 2 by less than one epoch of features and labels."""
        cfg = tiny_cfg(batches_per_epoch=37, **patch)
        model = train_stage1(cfg, ds)
        peaks = []
        for epochs in (2, 20):
            fresh = copy.deepcopy(model)
            tracemalloc.start()
            try:
                train_stage2(dataclasses.replace(cfg, stage2_epochs=epochs), fresh, ds, metrics=[])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < cfg.batches_per_epoch * cfg.batch_size * (cfg.hidden[-1] + 1) * 8

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow en route to the error
    def test_divergence_raises_with_epoch(self, ds):
        cfg = tiny_cfg(lr=1e12)
        with pytest.raises(DivergenceError) as exc:
            run(cfg, ds)
        assert exc.value.epoch >= 0

    def test_divergence_names_stage_epoch_and_step(self, ds):
        with pytest.raises(DivergenceError) as exc:
            run(tiny_cfg(lr=1e12), ds)
        err = exc.value
        assert err.stage in (1, 2) and err.epoch >= 0 and 0 <= err.step < 4
        assert str(err) == f"non-finite loss at stage {err.stage}, epoch {err.epoch}, step {err.step}"

    @pytest.mark.parametrize("loss, mixup", [("las", False), ("ce", False), ("weighted", False),
                                             ("weighted", True)],
                             ids=["las", "ce", "weighted", "weighted-mixup_stage2"])
    def test_all_stage2_losses_train(self, ds, loss, mixup):
        cfg = tiny_cfg(stage2_loss=loss, mixup_stage2=mixup)
        res = run(cfg, ds)
        assert np.isfinite(res["final"]["accuracy"])
        again = run(cfg, ds)
        assert again["curves"] == res["curves"]
        for name in ("dw", "s"):
            assert (getattr(again["model"].classifier, name).values.tobytes()
                    == getattr(res["model"].classifier, name).values.tobytes())

    @pytest.mark.parametrize("mode", ["crt", "lws", "generalized"])
    def test_all_head_modes_train(self, ds, mode):
        res = run(tiny_cfg(head_mode=mode), ds)
        assert np.isfinite(res["final"]["ece"])


class TestFinalEvaluation:
    @pytest.mark.parametrize("stage2_epochs", [0, 2], ids=["stage1", "stage2"])
    def test_final_is_the_last_epochs_evaluation_and_none_is_repeated(self, ds, monkeypatch, stage2_epochs):
        calls = []
        original = trainer.evaluate
        monkeypatch.setattr(trainer, "evaluate", lambda *a, **kw: calls.append(None) or original(*a, **kw))
        res = run(tiny_cfg(stage2_epochs=stage2_epochs), ds)
        assert len(calls) == len(res["curves"]) == 3 + stage2_epochs
        assert res["final"] == original(res["model"], ds)
        assert (res["final"]["accuracy"], res["final"]["ece"]) == (res["curves"][-1]["test_acc"],
                                                                    res["curves"][-1]["ece"])

    def test_a_test_row_a_finite_model_overflows_is_a_data_fault_naming_the_row(self, ds):
        test_features = ds.test_features.copy()
        test_features[2] = 1.7e308
        bad = dataclasses.replace(ds, test_features=test_features, test_path="t.test.csv")
        with pytest.raises(DatasetFormatError, match="^t.test.csv: data row 3 overflows "):
            run(tiny_cfg(), bad)
        with pytest.raises(DatasetFormatError, match="^test split: data row 3 overflows "):
            evaluate(run(tiny_cfg(), ds)["model"], dataclasses.replace(bad, test_path=None))

    def test_a_model_that_overflows_its_training_rows_is_a_divergence_at_that_epoch(self, ds):
        cfg = tiny_cfg(lr=1e300, stage1_epochs=1, stage1_schedule={"kind": "cosine"},
                       stage2_epochs=0, batches_per_epoch=1)
        assert math.isnan(evaluate(train_stage1(cfg, ds), ds)["ece"])
        with pytest.raises(DivergenceError) as exc:
            run(cfg, ds)
        assert (exc.value.stage, exc.value.epoch, exc.value.step) == (1, 0, None)
        assert str(exc.value) == ("non-finite evaluation at stage 1, epoch 0: "
                                  "the model overflows its own training rows")


def _stage2_scoring_training_rows(cfg, ds, replay, monkeypatch):
    """``run`` of Stage 2 of ``cfg`` on ``ds`` after an unevaluated Stage 1, solo or
    replaying a record of its head-independent work, and the backbone state bytes
    of each scoring of the training rows, in a list filled as Stage 2 runs."""
    stage1 = (train_stage1(cfg, ds), [], {})
    stream = trainer._record(cfg, copy.deepcopy(stage1[0].backbone), ds) if replay else None
    scored, original = [], trainer.Model.prediction_log

    def recording(model, x, labels, features=None):
        if x is ds.features:
            scored.append({k: a.tobytes() for k, a in model.backbone.state_arrays().items()})
        return original(model, x, labels, features)

    monkeypatch.setattr(trainer.Model, "prediction_log", recording)
    return lambda: run(cfg, ds, stage1=stage1, stage2=stream), scored


EVAL_MODE_STAGE2 = {"no_shift": dict(shift_bn=False), "warm_only": dict(bn_warm_steps=5, bn_concurrent=False)}


class TestEvalModeStage2Faults:
    """Eval-mode Stage 2 scores the test rows from features computed once; the
    faults it finds still score the training rows through the backbone as it
    stood at that epoch: the warmed one after a warm pass, solo or replayed."""

    @pytest.mark.parametrize("replay", [False, True], ids=["solo", "replay"])
    @pytest.mark.parametrize("patch", EVAL_MODE_STAGE2.values(), ids=EVAL_MODE_STAGE2)
    def test_a_model_that_overflows_its_training_rows_is_a_divergence_at_that_epoch(self, ds, monkeypatch,
                                                                                    patch, replay):
        cfg = tiny_cfg(stage2_lr_scale=1e300, batches_per_epoch=1, **patch)
        warmed = run(dataclasses.replace(cfg, stage2_lr_scale=0.1), ds)["model"].backbone.state_arrays()
        stage2, scored = _stage2_scoring_training_rows(cfg, ds, replay, monkeypatch)
        with pytest.raises(DivergenceError) as exc:
            stage2()
        assert (exc.value.stage, exc.value.epoch, exc.value.step) == (2, 0, None)
        assert str(exc.value) == ("non-finite evaluation at stage 2, epoch 0: "
                                  "the model overflows its own training rows")
        assert scored == [{k: a.tobytes() for k, a in warmed.items()}]

    @pytest.mark.parametrize("replay", [False, True], ids=["solo", "replay"])
    @pytest.mark.parametrize("patch", EVAL_MODE_STAGE2.values(), ids=EVAL_MODE_STAGE2)
    def test_a_test_row_a_finite_model_overflows_is_a_data_fault_naming_the_row(self, ds, monkeypatch,
                                                                                 patch, replay):
        cfg = tiny_cfg(**patch)
        warmed = run(cfg, ds)["model"].backbone.state_arrays()
        test_features = ds.test_features.copy()
        test_features[2] = 1.7e308
        bad = dataclasses.replace(ds, test_features=test_features, test_path="t.test.csv")
        stage2, scored = _stage2_scoring_training_rows(cfg, bad, replay, monkeypatch)
        with pytest.raises(DatasetFormatError, match="^t.test.csv: data row 3 overflows "):
            stage2()
        assert scored == [{k: a.tobytes() for k, a in warmed.items()}]


# Base configs of the grid: the defaults, where shift-mode Stage 2 writes the BN
# statistics on every step, and grid-c10's warm pass with no concurrent update.
GRID_BASES = {
    "concurrent_shift": dict(stage1_epochs=2, stage2_epochs=1, stage1_schedule={"kind": "cosine"}),
    "warm_pass": dict(stage1_epochs=2, stage2_epochs=1, stage1_schedule={"kind": "cosine"},
                      bn_warm_steps=20, bn_concurrent=False, eps1=0.3, eps_k=0.0, lr_ratio_dw=0.5),
}


def cell_key(cfg):
    return cfg.mixup_stage1, cfg.shift_bn, cfg.stage2_loss == "las"


@pytest.fixture(scope="module")
def grids(ds):
    """Per base config: the grid's cells, the configs ``train_stage1`` was called
    with, and each ``trainer.run`` call's config and result."""
    out = {}
    for name, patch in GRID_BASES.items():
        stage1_calls, runs = [], []
        train, whole = trainer.train_stage1, trainer.run
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trainer, "train_stage1", lambda cfg, *a, **kw: stage1_calls.append(cfg) or train(cfg, *a, **kw))
            mp.setattr(trainer, "run", lambda cfg, *a, **kw: runs.append((cfg, whole(cfg, *a, **kw))) or runs[-1][1])
            cells = run_ablation_grid(tiny_cfg(**patch), ds)
        out[name] = cells, stage1_calls, runs
    return out


@pytest.fixture(scope="module")
def grid_work(ds):
    """Per base config, with two Stage-2 epochs of three blocks each: the grid's
    warm passes, and its Stage-2 blocks run through the frozen backbone."""
    out = {}
    for name, patch in GRID_BASES.items():
        work, warming = {"warm passes": 0, "stage-2 blocks": 0}, []
        shift_stats, forward = net.bn_shift_stats, net.Backbone.forward

        def counted_shift_stats(*a, **kw):
            work["warm passes"] += 1
            warming.append(None)
            try:
                return shift_stats(*a, **kw)
            finally:
                warming.pop()

        def counted_forward(backbone, x, mode):
            work["stage-2 blocks"] += mode != net.TRAIN and np.ndim(x) == 3 and not warming
            return forward(backbone, x, mode)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(net, "bn_shift_stats", counted_shift_stats)
            mp.setattr(net.Backbone, "forward", counted_forward)
            run_ablation_grid(tiny_cfg(**dict(patch, stage2_epochs=2, batches_per_epoch=37)), ds)
        out[name] = work
    return out


class TestAblationGrid:
    def test_grid_has_eight_cells(self, grids):
        results = grids["concurrent_shift"][0]
        assert len(results) == len(ABLATION_CELLS) == 8
        combos = {(r["mixup_stage1"], r["shift_bn"], r["las"]) for r in results}
        assert len(combos) == 8

    @pytest.mark.parametrize("base", GRID_BASES)
    def test_stage1_is_trained_once_per_mixup_setting_and_run_once_per_cell(self, grids, base):
        _, stage1_calls, runs = grids[base]
        assert [cfg.mixup_stage1 for cfg in stage1_calls] == [False, True]
        assert [cell_key(cfg) for cfg, _ in runs] == ABLATION_CELLS

    @pytest.mark.parametrize("base", GRID_BASES)
    @pytest.mark.parametrize("index", range(8))
    def test_every_cell_matches_standalone_run(self, ds, grids, base, index):
        cells, _, runs = grids[base]
        cfg, shared = runs[index]
        assert cell_key(cfg) == ABLATION_CELLS[index]
        solo = run(cfg, ds)
        assert cfg.seed == tiny_cfg().seed
        assert cells[index] == dict(zip(("mixup_stage1", "shift_bn", "las"), ABLATION_CELLS[index]),
                                    seed=cfg.seed, accuracy=solo["final"]["accuracy"], ece=solo["final"]["ece"])
        assert shared["final"] == solo["final"]
        assert shared["curves"] == solo["curves"]
        assert ({k: v.tobytes() for k, v in shared["model"].state_arrays().items()}
                == {k: v.tobytes() for k, v in solo["model"].state_arrays().items()})

    def test_the_warm_pass_runs_once_per_pair_with_shift_bn(self, grid_work):
        assert grid_work["warm_pass"]["warm passes"] == 2
        assert grid_work["concurrent_shift"]["warm passes"] == 0

    @pytest.mark.parametrize("base", GRID_BASES)
    def test_the_frozen_backbone_runs_once_per_pair_per_block(self, ds, grid_work, base):
        blocks = math.ceil(37 / net.block_steps(tiny_cfg().batch_size, max(ds.dim, ds.num_classes, *tiny_cfg().hidden)))
        assert blocks == 3
        assert grid_work[base]["stage-2 blocks"] == 4 * 2 * blocks

    @pytest.mark.parametrize("base", GRID_BASES)
    def test_the_cells_of_a_pair_return_models_that_share_no_array(self, grids, base):
        _, _, runs = grids[base]
        for (_, ce), (_, las) in zip(runs[::2], runs[1::2]):
            for a in ce["model"].state_arrays().values():
                assert not any(np.shares_memory(a, b) for b in las["model"].state_arrays().values())

    @pytest.mark.parametrize("diverged", [False, True], ids=["no_mixup", "mixup"])
    def test_a_stage1_divergence_is_the_error_of_the_four_cells_sharing_it(self, ds, monkeypatch, diverged):
        stage1_calls, runs = [], []
        train, whole = trainer.train_stage1, trainer.run

        def stage1(cfg, *a, **kw):
            stage1_calls.append(cfg.mixup_stage1)
            if cfg.mixup_stage1 == diverged:
                raise DivergenceError(1, 0, 2)
            return train(cfg, *a, **kw)

        monkeypatch.setattr(trainer, "train_stage1", stage1)
        monkeypatch.setattr(trainer, "run", lambda cfg, *a, **kw: runs.append(cell_key(cfg)) or whole(cfg, *a, **kw))
        cells = run_ablation_grid(tiny_cfg(**GRID_BASES["concurrent_shift"]), ds)
        assert sorted(stage1_calls) == [False, True]
        assert runs == [key for key in ABLATION_CELLS if key[0] != diverged]
        for cell in cells:
            if cell["mixup_stage1"] == diverged:
                assert set(cell) == {"mixup_stage1", "shift_bn", "las", "seed", "error"}
                assert cell["error"] == "non-finite loss at stage 1, epoch 0, step 2"
            else:
                assert "error" not in cell and math.isfinite(cell["accuracy"])

    @pytest.mark.parametrize("base", GRID_BASES)
    def test_a_stage2_divergence_is_each_cells_error_as_a_solo_run_raises_it(self, ds, base):
        base_cfg = tiny_cfg(**GRID_BASES[base], stage2_lr_scale=1e300)
        cells = run_ablation_grid(base_cfg, ds)
        assert len(cells) == len(ABLATION_CELLS) == 8
        for cell, (mu, sl, las) in zip(cells, ABLATION_CELLS):
            cfg = TrainConfig.from_dict(dict(dataclasses.asdict(base_cfg), mixup_stage1=mu, shift_bn=sl,
                                             stage2_loss="las" if las else "ce"))
            with pytest.raises(DivergenceError) as solo:
                run(cfg, ds)
            assert solo.value.stage == 2
            assert cell == {"mixup_stage1": mu, "shift_bn": sl, "las": las, "seed": cfg.seed,
                            "error": str(solo.value)}


class TestArtifacts:
    def test_metrics_csv(self, ds, tmp_path):
        res = run(tiny_cfg(), ds)
        write_metrics_csv(res["curves"], tmp_path / "metrics.csv")
        lines = (tmp_path / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,stage,lr,train_loss,test_acc,ece"
        assert len(lines) == 1 + 3 + 2  # header + stage1 + stage2 epochs

    @pytest.mark.parametrize("column", ["lr", "train_loss", "test_acc", "ece"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_metrics_csv_refuses_a_non_finite_value_and_writes_nothing(self, tmp_path, column, bad):
        rows = [{"epoch": e, "stage": 1, "lr": 0.1, "train_loss": 1.5, "test_acc": 40.0, "ece": 9.0}
                for e in range(3)]
        rows[2][column] = bad
        with pytest.raises(ValueError) as exc:
            write_metrics_csv(rows, tmp_path / "metrics.csv")
        assert column in str(exc.value) and "epoch 2" in str(exc.value)
        assert list(tmp_path.iterdir()) == []

    def test_model_round_trip_preserves_predictions(self, ds, tmp_path):
        res = run(tiny_cfg(), ds)
        save_model(res["model"], tmp_path / "model")
        back = load_model(tmp_path / "model")
        a = res["model"].predict_probs(ds.test_features)
        b = back.predict_probs(ds.test_features)
        assert a.tobytes() == b.tobytes()
        assert evaluate(back, ds) == res["final"]

    @pytest.mark.parametrize("stage2_epochs", [0, 2], ids=["stage1", "stage2"])
    def test_two_loads_share_no_array_and_hold_the_saved_bytes(self, ds, tmp_path, stage2_epochs):
        model = run(tiny_cfg(stage2_epochs=stage2_epochs), ds)["model"]
        save_model(model, tmp_path / "model")
        a, b = load_model(tmp_path / "model"), load_model(tmp_path / "model")
        saved = model.state_arrays()
        for loaded in (a, b):
            assert {k: v.tobytes() for k, v in loaded.state_arrays().items()} == {k: v.tobytes() for k, v in saved.items()}
        for x in a.state_arrays().values():
            assert not any(np.shares_memory(x, y) for y in b.state_arrays().values())

    def test_backbone_meta_rules_name_every_backbone_config_field(self):
        assert set(trainer.BACKBONE_RULES) == {f.name for f in dataclasses.fields(net.BackboneConfig)}


class TestPredictProbs:
    @pytest.mark.parametrize("head_mode", [None, "crt", "lws", "generalized"])
    def test_records_no_tape_and_matches_taped_softmax(self, ds, head_mode, monkeypatch):
        cfg = tiny_cfg(head_mode=head_mode or "generalized")
        model = train_stage1(cfg, ds)
        if head_mode is not None:
            model = train_stage2(cfg, model, ds)
        expected = softmax(model.classifier(model.backbone.forward(ds.test_features, net.EVAL))).values

        ops = []
        from_op = Tensor._from_op
        monkeypatch.setattr(Tensor, "_from_op",
                            staticmethod(lambda *args: ops.append(args) or from_op(*args)))
        probs = model.predict_probs(ds.test_features)
        assert len(ops) == 0
        assert probs.tobytes() == expected.tobytes()
