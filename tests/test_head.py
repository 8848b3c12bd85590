import numpy as np
import pytest

from ltcalib.head import GeneralizedHead
from ltcalib.losses import soft_ce_loss
from ltcalib.tensor import Tensor
from ltcalib.trainer import SGD


@pytest.fixture
def w(rng):
    return rng.standard_normal((6, 4))


class TestDegenerations:
    def test_identity_configuration_reproduces_stage1(self, w, rng):
        head = GeneralizedHead(w, mode="generalized")  # r=1, dW=0, s=1
        x = rng.standard_normal((5, 6))
        assert np.array_equal(head(x).values, x @ w)

    def test_crt_mode_is_delta_w_only(self, w, rng):
        head = GeneralizedHead(w, mode="crt")
        head.dw.values = rng.standard_normal(w.shape)
        x = rng.standard_normal((5, 6))
        assert np.array_equal(head(x).values, x @ head.dw.values)

    def test_lws_mode_scales_frozen_columns(self, w, rng):
        head = GeneralizedHead(w, mode="lws")
        head.s.values = np.array([1.0, 2.0, 0.5, 3.0])
        x = rng.standard_normal((5, 6))
        assert np.allclose(head(x).values, (x @ w) * head.s.values, atol=1e-15)

    def test_feature_width_mismatch(self, w, rng):
        with pytest.raises(ValueError):
            GeneralizedHead(w)(rng.standard_normal((2, 5)))
        with pytest.raises(ValueError):  # one row of the right width, but not a batch
            GeneralizedHead(w)(rng.standard_normal(w.shape[0]))


class TestParamGroups:
    def test_groups_and_multipliers(self, w):
        head = GeneralizedHead(w, mode="generalized", lr_ratio_dw=0.2)
        groups = head.param_groups()
        assert [g["lr_mult"] for g in groups] == [1.0, 0.2]
        assert groups[0]["params"] == [head.s]
        assert groups[1]["params"] == [head.dw]

    def test_w_excluded_everywhere(self, w):
        for mode in ("crt", "lws", "generalized"):
            head = GeneralizedHead(w, mode=mode)
            for g in head.param_groups():
                for p in g["params"]:
                    assert p.values is not head.w

    def test_lr_ratio_scales_the_step(self, w, rng):
        head = GeneralizedHead(w, mode="generalized", lr_ratio_dw=0.2)
        x = rng.standard_normal((8, 6))
        opt = SGD(head.param_groups(), momentum=0.0)
        q = np.full((8, 4), 0.25)
        loss = soft_ce_loss(q, head(x))
        opt.zero_grad()
        loss.backward()
        dw_grad = head.dw.grad.copy()
        opt.step(lr=1.0)
        assert np.allclose(head.dw.values, -0.2 * dw_grad, atol=1e-15)

    def test_zero_ratio_freezes_delta_w(self, w, rng):
        head = GeneralizedHead(w, mode="generalized", lr_ratio_dw=0.0)
        x = rng.standard_normal((8, 6))
        opt = SGD(head.param_groups(), momentum=0.0)
        before = head.dw.values.tobytes()
        for _ in range(3):
            loss = soft_ce_loss(np.full((8, 4), 0.25), head(x))
            opt.zero_grad()
            loss.backward()
            opt.step(lr=0.5)
        assert head.dw.values.tobytes() == before
        assert head.s.values.tobytes() != np.ones(4).tobytes()


class TestWeightNorms:
    def test_orthonormal_columns_give_unit_norms(self):
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 4)))
        head = GeneralizedHead(q)
        eff, raw = head.weight_norms()
        assert np.allclose(eff, 1.0, atol=1e-12)
        assert np.allclose(raw, 1.0, atol=1e-12)

    def test_doubling_s_doubles_norm(self, w):
        head = GeneralizedHead(w)
        eff0, _ = head.weight_norms()
        head.s.values = head.s.values * 2.0
        eff1, _ = head.weight_norms()
        assert np.allclose(eff1, 2 * eff0, atol=1e-12)

    def test_csv_export(self, w, tmp_path):
        head = GeneralizedHead(w)
        head.export_weight_norms(tmp_path / "norms.csv", [50, 20, 10, 5])
        lines = (tmp_path / "norms.csv").read_text().strip().splitlines()
        assert lines[0] == "class,count,norm_effective,norm_w"
        assert len(lines) == 5


class TestInvariants:
    def test_argmax_invariance_under_uniform_positive_scaling(self, w, rng):
        head = GeneralizedHead(w, mode="generalized")
        head.dw.values = 0.1 * rng.standard_normal(w.shape)
        head.s.values = rng.uniform(0.5, 2.0, w.shape[1])
        x = rng.standard_normal((20, 6))
        before = head(x).values.argmax(axis=1)
        head.s.values = head.s.values * 7.3
        after = head(x).values.argmax(axis=1)
        assert np.array_equal(before, after)

    def test_w_frozen_through_training(self, w, rng):
        head = GeneralizedHead(w, mode="generalized", lr_ratio_dw=0.5)
        w_bytes = head.w.tobytes()
        opt = SGD(head.param_groups(), momentum=0.9)
        x = rng.standard_normal((8, 6))
        for _ in range(10):
            loss = soft_ce_loss(np.full((8, 4), 0.25), head(x))
            opt.zero_grad()
            loss.backward()
            opt.step(0.1)
        assert head.w.tobytes() == w_bytes

    def test_crt_matches_independent_linear_classifier_bit_exact(self, rng):
        # cRT head vs a bare weight-matrix classifier: identical data,
        # identical init, identical optimizer -> identical trajectories
        w = rng.standard_normal((6, 4))
        init = rng.standard_normal((6, 4)) * 0.1
        head = GeneralizedHead(w, mode="crt")
        head.dw.values = init.copy()
        v = Tensor(init.copy(), requires_grad=True)
        opt_head = SGD(head.param_groups(), momentum=0.9)
        opt_lin = SGD([{"params": [v], "lr_mult": 1.0}], momentum=0.9)
        data_rng = np.random.default_rng(99)
        for _ in range(100):
            x = data_rng.standard_normal((8, 6))
            y = data_rng.integers(0, 4, 8)
            q = np.zeros((8, 4))
            q[np.arange(8), y] = 1.0
            l1 = soft_ce_loss(q, head(x))
            opt_head.zero_grad()
            l1.backward()
            opt_head.step(0.1)
            l2 = soft_ce_loss(q, Tensor(x) @ v)
            opt_lin.zero_grad()
            l2.backward()
            opt_lin.step(0.1)
        assert head.dw.values.tobytes() == v.values.tobytes()
