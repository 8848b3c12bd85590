import copy
import json

import numpy as np
import pytest

from ltcalib import net
from ltcalib.artifacts import FormatError
from ltcalib.data import Sampler, gen_gaussian_blobs
from ltcalib.net import Backbone, BackboneConfig, BatchNorm, Linear, bn_shift_stats
from ltcalib.tensor import Tensor, log_softmax

from conftest import assert_grads_close, central_diff


class TestBatchNorm:
    def test_constant_batch_outputs_shift(self):
        bn = BatchNorm(3)
        bn.shift.values = np.array([1.0, -2.0, 0.5])
        out = bn(Tensor(np.tile([4.0, 5.0, 6.0], (8, 1))))
        assert np.allclose(out.values, np.tile(bn.shift.values, (8, 1)), atol=1e-6)

    def test_train_mode_normalizes(self, rng):
        bn = BatchNorm(4)
        h = rng.standard_normal((64, 4)) * 3.0 + 5.0
        out = bn(Tensor(h)).values
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-10)
        # biased batch variance, corrected for eps
        assert np.allclose(out.var(axis=0) * (h.var(axis=0) + bn.eps) / h.var(axis=0),
                           1.0, atol=1e-10)

    def test_small_batch_rejected_in_training_modes(self):
        bn = BatchNorm(2)
        with pytest.raises(ValueError):
            bn(Tensor(np.ones((1, 2))))

    def test_eval_uses_running_stats_without_updates(self, rng):
        bn = BatchNorm(2)
        bn.running_mean = np.array([1.0, 2.0])
        bn.running_var = np.array([4.0, 9.0])
        bn.mode = net.EVAL
        h = rng.standard_normal((5, 2))
        out = bn(Tensor(h)).values
        expect = (h - bn.running_mean) / np.sqrt(bn.running_var + bn.eps)
        assert np.allclose(out, expect, atol=1e-12)
        assert np.array_equal(bn.running_mean, [1.0, 2.0])

    def test_ema_update_rule(self, rng):
        bn = BatchNorm(2, momentum=0.25)
        h = rng.standard_normal((32, 2))
        mu_b = h.mean(axis=0)
        var_b = h.var(axis=0)
        bn(Tensor(h))
        assert np.allclose(bn.running_mean, 0.25 * mu_b, atol=1e-12)
        assert np.allclose(bn.running_var, 0.75 * 1.0 + 0.25 * var_b, atol=1e-12)

    def test_ema_converges_geometrically_under_stationary_batches(self, rng):
        bn = BatchNorm(1, momentum=0.2)
        h = rng.standard_normal((16, 1)) + 3.0
        mu_b = h.mean()
        errs = []
        for _ in range(30):
            bn(Tensor(h))
            errs.append(abs(bn.running_mean[0] - mu_b))
        ratios = [b / a for a, b in zip(errs, errs[1:]) if a > 1e-14]
        assert np.allclose(ratios, 0.8, atol=1e-8)

    def test_shift_mode_freezes_affine_and_tracks_stats(self, rng):
        bn = BatchNorm(2)
        bn.scale.values = np.array([2.0, 3.0])
        bn.shift.values = np.array([-1.0, 1.0])
        scale_bytes = bn.scale.values.tobytes()
        shift_bytes = bn.shift.values.tobytes()
        bn.mode = net.SHIFT
        for _ in range(20):
            out = bn(Tensor(rng.standard_normal((16, 2)) + 5.0))
            assert not out.requires_grad
        assert bn.scale.values.tobytes() == scale_bytes
        assert bn.shift.values.tobytes() == shift_bytes
        assert abs(bn.running_mean[0] - 5.0) < 1.0

    def test_train_mode_gradients_match_finite_differences(self, rng):
        bn = BatchNorm(3)
        h = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
        out = bn(h)
        loss = (out * out).sum()
        loss.backward()

        def numeric():
            bn_local = BatchNorm(3)
            out = bn_local(Tensor(h.values))
            return (out.values ** 2).sum()

        num = central_diff(numeric, [h.values])
        assert_grads_close([h.grad], num)


class TestBnShiftOracle:
    def test_shifted_mean_reaches_class_balanced_population_mean(self):
        # counts 900/100 with class means 0 and 1 in channel 0:
        # instance-balanced mean ~0.1, class-balanced mean 0.5
        ds = _skewed_two_class_dataset()
        bn = BatchNorm(2, momentum=0.1)
        inst = Sampler("instance", ds, seed=5)
        bn.mode = net.SHIFT
        for _ in range(500):
            x, _ = inst.next_batch(64)
            bn(Tensor(x))
        assert abs(bn.running_mean[0] - 0.1) < 0.05

        cls = Sampler("class", ds, seed=6)
        for _ in range(500):
            x, _ = cls.next_batch(64)
            bn(Tensor(x))
        assert abs(bn.running_mean[0] - 0.5) < 0.05

    def test_balanced_dataset_shift_is_a_noop_in_distribution(self):
        ds = gen_gaussian_blobs([200, 200], dim=2, spread=0.3, seed=8)
        cfg = BackboneConfig(in_dim=2, hidden=[4], seed=1)
        bb = Backbone(cfg)
        inst = Sampler("instance", ds, seed=3)
        for _ in range(300):
            bb.forward(inst.next_batch(64)[0], net.TRAIN)
        mu_inst = bb.norms[0].running_mean.copy()
        cls = Sampler("class", ds, seed=4)
        bn_shift_stats(bb, cls, steps=300, batch=64)
        assert np.allclose(bb.norms[0].running_mean, mu_inst, atol=0.05)

    def test_zero_steps_leaves_state_unchanged(self):
        ds = gen_gaussian_blobs([50, 50], dim=2, spread=0.3, seed=8)
        bb = Backbone(BackboneConfig(in_dim=2, hidden=[4], seed=1))
        before = bb.norms[0].running_mean.tobytes()
        bn_shift_stats(bb, Sampler("class", ds, seed=1), steps=0, batch=16)
        assert bb.norms[0].running_mean.tobytes() == before


def _skewed_two_class_dataset():
    from ltcalib.data import LongTailedDataset

    rng = np.random.default_rng(77)
    n0, n1 = 900, 100
    feats = np.concatenate([
        np.column_stack([rng.normal(0.0, 0.05, n0), rng.normal(0.0, 0.05, n0)]),
        np.column_stack([rng.normal(1.0, 0.05, n1), rng.normal(0.0, 0.05, n1)]),
    ])
    labels = np.concatenate([np.zeros(n0, dtype=int), np.ones(n1, dtype=int)])
    return LongTailedDataset(features=feats, labels=labels,
                             class_counts=np.array([n0, n1]), splits=["many", "many"])


class TestBackbone:
    def test_identity_when_no_hidden_layers(self, rng):
        bb = Backbone(BackboneConfig(in_dim=3, hidden=[]))
        x = rng.standard_normal((4, 3))
        assert np.array_equal(bb.forward(x, net.EVAL).values, x)

    def test_eval_mode_is_pure(self, rng):
        bb = Backbone(BackboneConfig(in_dim=3, hidden=[5, 4], seed=2))
        x = rng.standard_normal((4, 3))
        a = bb.forward(x, net.EVAL).values
        b = bb.forward(x, net.EVAL).values
        assert a.tobytes() == b.tobytes()

    def test_width_mismatch_rejected(self, rng):
        bb = Backbone(BackboneConfig(in_dim=3, hidden=[5]))
        with pytest.raises(ValueError):
            bb.forward(rng.standard_normal((4, 2)), net.EVAL)

    @pytest.mark.parametrize("hidden, batchnorm, names", [
        ([], True, []),
        ([8, 4], True, ["bn0.running_mean", "bn0.running_var", "bn0.scale", "bn0.shift",
                        "bn1.running_mean", "bn1.running_var", "bn1.scale", "bn1.shift",
                        "linear0.bias", "linear0.weight", "linear1.bias", "linear1.weight"]),
        ([8, 4, 3], False, ["linear0.bias", "linear0.weight", "linear1.bias", "linear1.weight",
                            "linear2.bias", "linear2.weight"]),
    ])
    def test_checkpoint_entry_names_carry_the_block_index(self, hidden, batchnorm, names):
        bb = Backbone(BackboneConfig(in_dim=5, hidden=hidden, batchnorm=batchnorm))
        assert sorted(bb.state_arrays()) == names

    def test_backbone_gradients_match_finite_differences(self, rng):
        cfg = BackboneConfig(in_dim=2, hidden=[4], seed=3)
        bb = Backbone(cfg)
        w = Tensor(rng.standard_normal((4, 3)) * 0.4, requires_grad=True)
        x = rng.standard_normal((6, 2)) * 0.7
        q = np.full((6, 3), 1.0 / 3.0)
        params = bb.parameters() + [w]
        state = [p.values.copy() for p in params]
        run_stats = (bb.norms[0].running_mean.copy(), bb.norms[0].running_var.copy())

        def forward_scalar():
            bb.norms[0].running_mean, bb.norms[0].running_var = run_stats[0].copy(), run_stats[1].copy()
            feats = bb.forward(x, net.TRAIN)
            return -(Tensor(q) * log_softmax(feats @ w)).sum()

        loss = forward_scalar()
        loss.backward()
        analytic = [p.grad for p in params]
        num = central_diff(lambda: forward_scalar().values.item(), [p.values for p in params])
        for p, v in zip(params, state):
            assert p.values.tobytes() == v.tobytes()
        assert_grads_close(analytic, num)


class TestBlockForward:
    """A stack ``(n, B, in)`` of n batches through the frozen backbone against n
    single-batch calls, byte for byte. numpy 2.4 with OpenBLAS runs a stacked
    product as one gemm per ``(B, in)`` slice, and reduces each slice over its
    rows as it reduces one batch; that is numpy's behaviour, not its contract.
    A numpy that fuses the stacked product into one gemm would round it as a
    flattened ``(n*B, in)`` product, whose bits differ (a 32->16 layer does):
    these tests then fail, and training would no longer match its reference."""

    @staticmethod
    def _backbone(in_dim: int, rng) -> Backbone:
        """The presets' layer widths, with random affine and running statistics."""
        bb = Backbone(BackboneConfig(in_dim=in_dim, hidden=[32, 16], seed=2))
        for lin in bb.layers:
            if isinstance(lin, Linear):
                lin.bias.values = rng.standard_normal(lin.bias.values.shape)
        for bn in bb.norms:
            bn.running_mean = rng.standard_normal(bn.running_mean.shape)
            bn.running_var = rng.random(bn.running_var.shape) + 0.5
            bn.scale.values = rng.standard_normal(bn.scale.values.shape)
            bn.shift.values = rng.standard_normal(bn.shift.values.shape)
        return bb

    @pytest.mark.parametrize("steps", [1, 5, net.BLOCK_STEPS + 3])
    @pytest.mark.parametrize("batch", [7, 64])
    @pytest.mark.parametrize("in_dim", [16, 24])
    @pytest.mark.parametrize("mode", [net.EVAL, net.SHIFT])
    def test_a_block_equals_its_batches_one_at_a_time(self, mode, in_dim, batch, steps):
        rng = np.random.default_rng(in_dim * batch + steps)
        block_bb = self._backbone(in_dim, rng)
        step_bb = copy.deepcopy(block_bb)
        xs = rng.standard_normal((steps, batch, in_dim)) * 2.0 + 0.5
        block = block_bb.forward(xs, mode).values
        assert block.shape == (steps, batch, 16)
        assert block.tobytes() == np.stack([step_bb.forward(x, mode).values for x in xs]).tobytes()
        for name, a in block_bb.state_arrays().items():
            assert a.tobytes() == step_bb.state_arrays()[name].tobytes(), name

    def test_a_block_of_batches_of_one_is_refused_in_shift_mode(self, rng):
        bb = self._backbone(16, rng)
        with pytest.raises(ValueError, match="batch size >= 2"):
            bb.forward(rng.standard_normal((3, 1, 16)), net.SHIFT)

    @pytest.mark.parametrize("batch", [7, 64])
    def test_shift_stats_in_blocks_equal_single_batch_forwards(self, rng, batch):
        ds = gen_gaussian_blobs([80, 30, 9], dim=16, spread=0.5, seed=4)
        block_bb = self._backbone(16, rng)
        step_bb = copy.deepcopy(block_bb)
        block_sampler, step_sampler = Sampler("class", ds, seed=8), Sampler("class", ds, seed=8)
        steps = 2 * net.BLOCK_STEPS + 5
        assert net.block_steps(batch, 32) == net.BLOCK_STEPS
        bn_shift_stats(block_bb, block_sampler, steps=steps, batch=batch)
        for _ in range(steps):
            step_bb.forward(step_sampler.next_batch(batch)[0], net.SHIFT)
        for name, a in block_bb.state_arrays().items():
            assert a.tobytes() == step_bb.state_arrays()[name].tobytes(), name
        assert block_sampler.rng.bit_generator.state == step_sampler.rng.bit_generator.state

    @pytest.mark.parametrize("batch, width, steps", [(64, 32, net.BLOCK_STEPS), (64, 100, 5),
                                                     (7, 16, net.BLOCK_STEPS), (4096, 512, 1),
                                                     (10**6, 10**6, 1)])
    def test_a_block_holds_at_least_one_step_and_at_most_its_byte_cap(self, batch, width, steps):
        assert net.block_steps(batch, width) == steps
        assert steps == 1 or steps * 8 * batch * width <= net.BLOCK_BYTES


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        arrays = {
            "w": rng.standard_normal((3, 4)),
            "b": rng.standard_normal(4),
            "scalar": np.array([3.14159]),
        }
        net.save_checkpoint(tmp_path / "ckpt", arrays, {"note": "x"})
        back, meta = net.load_checkpoint(tmp_path / "ckpt")
        assert meta == {"note": "x"}
        for k in arrays:
            assert back[k].tobytes() == arrays[k].tobytes()
            assert back[k].shape == arrays[k].shape

    def test_failed_manifest_write_leaves_no_manifest(self, tmp_path, rng):
        arrays = {"w": rng.standard_normal((3, 4))}
        with pytest.raises(ValueError):  # NaN is not valid JSON
            net.save_checkpoint(tmp_path / "ckpt", arrays, {"note": float("nan")})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.bin"]
        with pytest.raises(FileNotFoundError):
            net.load_checkpoint(tmp_path / "ckpt")

    def test_failed_manifest_rewrite_does_not_load(self, tmp_path, rng):
        net.save_checkpoint(tmp_path / "ckpt", {"w": rng.standard_normal((3, 4))}, {"note": "old"})
        with pytest.raises(ValueError):  # NaN is not valid JSON
            net.save_checkpoint(tmp_path / "ckpt", {"w": rng.standard_normal((3, 4))},
                                {"note": float("nan")})
        with pytest.raises(FormatError, match="SHA-256"):
            net.load_checkpoint(tmp_path / "ckpt")

    def test_manifest_without_checksum_still_loads(self, tmp_path, rng):
        arrays = {"w": rng.standard_normal((3, 4))}
        net.save_checkpoint(tmp_path / "ckpt", arrays, {"note": "x"})
        manifest = json.loads((tmp_path / "ckpt.json").read_text())
        del manifest["sha256"]
        (tmp_path / "ckpt.json").write_text(json.dumps(manifest))
        back, meta = net.load_checkpoint(tmp_path / "ckpt")
        assert meta == {"note": "x"} and back["w"].tobytes() == arrays["w"].tobytes()
