import copy
import math

import numpy as np
import pytest

from ltcalib import net, trainer
from ltcalib.tensor import Tensor, softmax
from ltcalib.data import MixupConfig, gen_gaussian_blobs, mixup_batch
from ltcalib.head import GeneralizedHead
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
    def test_parameter_without_gradient_keeps_values_and_velocity(self):
        grads = [(np.array([0.3, -0.1]), np.array([[1.0], [-1.0]])), (np.array([0.2, 0.2]), None)]
        runs = []
        for make in (SGD, _PerParameterSGD):
            a = Tensor([1.0, -2.0], requires_grad=True)
            b = Tensor([[0.5], [3.0]], requires_grad=True)
            opt = make([{"params": [a, b], "weight_decay": 0.1}], momentum=0.9)
            for a.grad, b.grad in grads:  # b has no gradient in the second step
                kept = b.values.tobytes(), opt.velocity[id(b)].tobytes()
                opt.step(0.5)
            assert (b.values.tobytes(), opt.velocity[id(b)].tobytes()) == kept
            runs.append([a.values.tobytes(), opt.velocity[id(a)].tobytes(), b.values.tobytes()])
        assert runs[0] == runs[1]

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


def _taped_fit(model, opt, sampler, *, cfg, ds, stage, epochs, schedule, base_lr, mode, mixup,
               mix_tag, targets, metrics):
    """The loop of ``trainer._fit`` on the tape: Backbone.forward, ``@`` or the
    head node, the taped losses and backward, and per-parameter SGD. It builds
    its losses from ``cfg`` and ignores ``targets``."""
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
    opt = _PerParameterSGD(opt.groups, cfg.momentum)
    mix_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, mix_tag]))
    mix_cfg = MixupConfig(alpha=cfg.mixup_alpha, enabled=mixup)
    steps = cfg.batches_per_epoch or math.ceil(len(ds.labels) / cfg.batch_size)
    for epoch in range(epochs):
        lr = lr_at(schedule, epoch, epochs, base_lr)
        losses = []
        for _ in range(steps):
            x, y = sampler.next_batch(cfg.batch_size)
            if mixup:
                perm = mix_rng.permutation(len(x))
                x, q = mixup_batch(x, y, x[perm], y[perm], mix_cfg, mix_rng, k,
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
}


class TestDirectChain:
    """The tape-free training chain against a taped reference loop, byte for byte."""

    @pytest.mark.parametrize("case", sorted(CHAIN_CASES))
    def test_matches_the_taped_reference(self, ds, case, monkeypatch):
        cfg = tiny_cfg(**CHAIN_CASES[case])
        chain = run(cfg, ds)
        monkeypatch.setattr(trainer, "_fit", _taped_fit)
        tape = run(cfg, ds)
        assert _run_bytes(chain) == _run_bytes(tape)


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
        assert on.classifier.w.values.tobytes() == off.classifier.w.values.tobytes()
        for k, arr in on.backbone.state_arrays().items():
            assert arr.tobytes() == off.backbone.state_arrays()[k].tobytes()


class TestStage2:
    def test_backbone_and_bn_affine_frozen(self, ds):
        cfg = tiny_cfg(shift_bn=True)
        model = train_stage1(cfg, ds)
        before = {k: v.tobytes() for k, v in model.backbone.state_arrays().items()}
        w_before = model.classifier.w.values.tobytes()
        trained = train_stage2(cfg, model, ds)
        after = trained.backbone.state_arrays()
        for k in before:
            if "running" in k:
                continue
            assert after[k].tobytes() == before[k], f"{k} changed during stage 2"
        assert trained.classifier.w.tobytes() == w_before
        assert isinstance(trained.classifier, GeneralizedHead)

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


class TestAblationGrid:
    def test_grid_has_eight_cells(self, ds):
        results = run_ablation_grid(tiny_cfg(stage1_epochs=2, stage2_epochs=1,
                                             stage1_schedule={"kind": "cosine"}), ds)
        assert len(results) == len(ABLATION_CELLS) == 8
        combos = {(r["mixup_stage1"], r["shift_bn"], r["las"]) for r in results}
        assert len(combos) == 8

    def test_baseline_cell_matches_standalone_run(self, ds):
        base = tiny_cfg(stage1_epochs=2, stage2_epochs=1,
                        stage1_schedule={"kind": "cosine"})
        results = run_ablation_grid(base, ds)
        cell = results[0]
        assert (cell["mixup_stage1"], cell["shift_bn"], cell["las"]) == (False, False, False)
        solo = run(tiny_cfg(stage1_epochs=2, stage2_epochs=1,
                            stage1_schedule={"kind": "cosine"},
                            mixup_stage1=False, shift_bn=False, stage2_loss="ce"), ds)
        assert cell["accuracy"] == solo["final"]["accuracy"]
        assert cell["ece"] == solo["final"]["ece"]


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


class TestPredictProbs:
    @pytest.mark.parametrize("head_mode", [None, "crt", "lws", "generalized"])
    def test_records_no_tape_and_matches_taped_softmax(self, ds, head_mode, monkeypatch):
        cfg = tiny_cfg(head_mode=head_mode or "generalized")
        model = train_stage1(cfg, ds)
        if head_mode is not None:
            model = train_stage2(cfg, model, ds)
        expected = softmax(model.logits(ds.test_features, net.EVAL)).values

        ops = []
        from_op = Tensor._from_op
        monkeypatch.setattr(Tensor, "_from_op",
                            staticmethod(lambda *args: ops.append(args) or from_op(*args)))
        probs = model.predict_probs(ds.test_features)
        assert len(ops) == 0
        assert probs.tobytes() == expected.tobytes()
