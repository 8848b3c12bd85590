"""The in-place eval forward: the bits of the allocating expressions it replaced,
inputs left as they were, one logits matrix held while scoring, and a prediction
log scored in row blocks, so that no probability matrix of every row is held."""

import copy
import tracemalloc

import numpy as np
import pytest

from ltcalib import net, tensor, trainer
from ltcalib.calib import PredictionLog
from ltcalib.head import GeneralizedHead
from ltcalib.net import Backbone, BackboneConfig, BatchNorm, Linear
from ltcalib.tensor import _log_softmax_rows, softmax_inplace
from ltcalib.trainer import Model

BLOCK = tensor._SOFTMAX_BLOCK_ROWS
ROW_COUNTS = [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]
CLASSIFIERS = ["stage1", "crt", "lws", "generalized"]


def _model(kind: str, rng, dim=6, hidden=(8, 5), k=7, batchnorm=True) -> Model:
    """A model with every parameter and running statistic drawn at random,
    so no term of the forward is an identity."""
    bb = Backbone(BackboneConfig(in_dim=dim, hidden=list(hidden), batchnorm=batchnorm, seed=3))
    for lin in bb.layers:
        if isinstance(lin, Linear):
            lin.bias.values = rng.standard_normal(lin.bias.values.shape)
    for bn in bb.norms:
        bn.running_mean = rng.standard_normal(bn.running_mean.shape)
        bn.running_var = rng.random(bn.running_var.shape) + 0.5
        bn.scale.values = rng.standard_normal(bn.scale.values.shape)
        bn.shift.values = rng.standard_normal(bn.shift.values.shape)
    w = rng.standard_normal((hidden[-1] if hidden else dim, k))
    if kind == "stage1":
        return Model(bb, GeneralizedHead.stage1(w))
    head = GeneralizedHead(w, mode=kind)
    head.dw.values = rng.standard_normal(w.shape) * 0.3
    head.s.values = rng.random(k) + 0.5
    return Model(bb, head)


def _reference_bn(bn: BatchNorm, h: np.ndarray, mode: str) -> np.ndarray:
    """Eval or shift batch norm as the allocating expressions of the earlier code."""
    if mode == net.EVAL:
        x_hat = (h - bn.running_mean) / np.sqrt(bn.running_var + bn.eps)
    else:
        mu = h.mean(axis=0)
        var = ((h - mu) ** 2).mean(axis=0)
        bn.running_mean = (1.0 - bn.momentum) * bn.running_mean + bn.momentum * mu
        bn.running_var = (1.0 - bn.momentum) * bn.running_var + bn.momentum * var
        x_hat = (h - mu) / np.sqrt(var + bn.eps)
    return bn.scale.values * x_hat + bn.shift.values


def _reference_features(backbone: Backbone, x: np.ndarray, mode: str) -> np.ndarray:
    """The frozen backbone forward, one new array per op, without frozen_features."""
    values = np.asarray(x, dtype=np.float64)
    for layer in backbone.layers:
        if isinstance(layer, Linear):
            values = values @ layer.weight.values.T + layer.bias.values
        elif isinstance(layer, BatchNorm):
            values = _reference_bn(layer, values, mode)
        else:
            values = values * (values > 0.0)
    return values


def _reference_probs(model: Model, x: np.ndarray) -> np.ndarray:
    feats = _reference_features(model.backbone, x, net.EVAL)
    c = model.classifier
    if c.w is None:
        z = feats @ c.dw.values
    else:
        z = (feats @ (c.r * c.w + c.dw.values)) * c.s.values
    shifted = z - z.max(axis=1, keepdims=True)
    return np.exp(shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True)))


class TestBytes:
    @pytest.mark.parametrize("rows", ROW_COUNTS)
    @pytest.mark.parametrize("kind", CLASSIFIERS)
    def test_predict_probs_matches_the_allocating_reference(self, kind, rows):
        rng = np.random.default_rng(rows)
        model = _model(kind, rng)
        x = rng.standard_normal((rows, 6)) * 3.0
        assert model.predict_probs(x).tobytes() == _reference_probs(model, x).tobytes()

    @pytest.mark.parametrize("hidden, batchnorm", [((), True), ((8,), False)],
                             ids=["identity_backbone", "no_batchnorm"])
    def test_predict_probs_matches_without_batch_norm_layers(self, hidden, batchnorm):
        rng = np.random.default_rng(11)
        model = _model("generalized", rng, hidden=hidden, batchnorm=batchnorm)
        x = rng.standard_normal((BLOCK + 1, 6))
        assert model.predict_probs(x).tobytes() == _reference_probs(model, x).tobytes()

    @pytest.mark.parametrize("mode", [net.EVAL, net.SHIFT])
    def test_frozen_features_match_the_reference_to_the_sign_of_zero(self, mode):
        rng = np.random.default_rng(8)
        model = _model("stage1", rng)
        ref = copy.deepcopy(model.backbone)
        x = rng.standard_normal((40, 6)) * 3.0
        feats = model.backbone.frozen_features(x, mode)
        expected = _reference_features(ref, x, mode)
        assert np.signbit(expected[expected == 0.0]).any()  # ReLU's x * (x > 0) gives -0.0
        assert feats.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("rows", ROW_COUNTS)
    def test_softmax_inplace_is_exp_of_log_softmax_and_returns_its_argument(self, rows):
        z = np.random.default_rng(rows).standard_normal((rows, 9)) * 20.0
        expected = np.exp(_log_softmax_rows(z))
        out = softmax_inplace(z)
        assert out is z
        assert out.tobytes() == expected.tobytes()

    def test_shift_stats_match_the_reference(self):
        rng = np.random.default_rng(5)
        model = _model("generalized", rng)
        ref = copy.deepcopy(model.backbone)
        batches = [rng.standard_normal((16, 6)) * 2.0 + 1.0 for _ in range(5)]

        class Replay:
            def __init__(self):
                self.left = list(batches)

            def next_batch(self, batch):
                return self.left.pop(0), None

        net.bn_shift_stats(model.backbone, Replay(), len(batches), 16)
        for x in batches:
            _reference_features(ref, x, net.SHIFT)
        for name, a in model.backbone.state_arrays().items():
            assert a.tobytes() == ref.state_arrays()[name].tobytes(), name

    @pytest.mark.parametrize("mode", [net.EVAL, net.SHIFT])
    def test_normalize_matches_the_reference(self, mode):
        rng = np.random.default_rng(9)
        bn = _model("stage1", rng).backbone.norms[0]
        bn.mode = mode
        ref = copy.deepcopy(bn)
        h = rng.standard_normal((33, 8)) * 4.0
        assert bn.normalize(h).tobytes() == _reference_bn(ref, h, mode).tobytes()
        assert bn.running_mean.tobytes() == ref.running_mean.tobytes()
        assert bn.running_var.tobytes() == ref.running_var.tobytes()


class TestInputsUnchanged:
    @pytest.mark.parametrize("hidden", [(8, 5), ()], ids=["mlp", "identity_backbone"])
    @pytest.mark.parametrize("kind", CLASSIFIERS)
    def test_predict_probs_leaves_its_input(self, kind, hidden):
        rng = np.random.default_rng(2)
        model = _model(kind, rng, hidden=hidden)
        x = rng.standard_normal((BLOCK + 3, 6))
        before = x.copy()
        model.predict_probs(x)
        assert x.tobytes() == before.tobytes()

    @pytest.mark.parametrize("mode", [net.EVAL, net.SHIFT])
    def test_normalize_leaves_its_input(self, mode):
        rng = np.random.default_rng(4)
        bn = _model("stage1", rng).backbone.norms[0]
        bn.mode = mode
        h = rng.standard_normal((20, 8))
        before = h.copy()
        out = bn.normalize(h)
        assert out is not h
        assert h.tobytes() == before.tobytes()


def test_predict_probs_peak_memory_stays_near_its_output():
    """Scoring 20,000 rows into 100 classes holds one logits matrix: the traced
    peak stays under 1.5x the output (the allocating forward peaked at 3x)."""
    rng = np.random.default_rng(0)
    model = _model("generalized", rng, dim=64, hidden=(32, 16), k=100)
    x = rng.standard_normal((20_000, 64))
    tracemalloc.start()
    try:
        probs = model.predict_probs(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert probs.shape == (20_000, 100)
    assert peak < 1.5 * probs.nbytes, f"peak {peak} bytes for a {probs.nbytes}-byte output"


class TestPredictionLog:
    @pytest.mark.parametrize("rows, ends", [
        (1, [1]), (2047, [2047]), (2048, [2048]), (4095, [4095]), (4096, [2048, 4096]), (4097, [2048, 4097]),
        (20_000, [2048, 4096, 6144, 8192, 10240, 12288, 14336, 16384, 20_000])])
    def test_block_ends_fold_the_remainder_into_the_last_block(self, rows, ends):
        assert trainer._score_block_ends(rows) == ends

    # The reference scores each block on its own, so the test holds whatever
    # bits a BLAS build gives a block's product.
    @pytest.mark.parametrize("rows", [1, 2047, 4096, 2 * 4096 + 5])
    @pytest.mark.parametrize("kind", CLASSIFIERS)
    def test_prediction_log_is_the_log_of_predict_probs_per_block(self, kind, rows):
        rng = np.random.default_rng(rows)
        model = _model(kind, rng)
        x = rng.standard_normal((rows, 6)) * 3.0
        labels = rng.integers(0, 7, rows)
        before = x.copy()
        ends = trainer._score_block_ends(rows)
        blocks = [PredictionLog.from_probs(model.predict_probs(x[a:b]), labels[a:b]) for a, b in zip([0, *ends], ends)]
        log = model.prediction_log(x, labels)
        for name in ("confidence", "predicted", "label", "p_true"):
            expected = np.concatenate([getattr(block, name) for block in blocks])
            assert getattr(log, name).dtype == expected.dtype, name
            assert getattr(log, name).tobytes() == expected.tobytes(), name
        assert x.tobytes() == before.tobytes()


def test_prediction_log_peak_memory_stays_under_a_third_of_the_probability_matrix():
    """Scoring 20,000 rows into 100 classes holds one block's probabilities and
    four numbers per row: the traced peak stays under 0.35x the bytes of the
    probabilities of every row, which predict_probs holds."""
    rng = np.random.default_rng(0)
    model = _model("generalized", rng, dim=64, hidden=(32, 16), k=100)
    x = rng.standard_normal((20_000, 64))
    labels = rng.integers(0, 100, 20_000)
    tracemalloc.start()
    try:
        log = model.prediction_log(x, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(log) == 20_000
    matrix = 20_000 * 100 * 8
    assert peak < 0.35 * matrix, f"peak {peak} bytes against a {matrix}-byte probability matrix"
