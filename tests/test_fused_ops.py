"""Plain-array kernels and the fused loss against the composite Tensor graphs.

Training and scoring run each layer as a kernel pair, ``forward_arrays(x) ->
(out, ctx)`` and ``backward_arrays(ctx, g) -> g_x``, which sets the layer's
parameters' ``.grad``; on the tape, Linear, train-mode batch norm, ReLU and
the classifier in both its forms are composite graphs of the elementwise
Tensor ops. Driven with the same upstream gradient, each kernel pair must
give values, gradients and BN running statistics byte-identical to its
composite graph, and the one fused node, softmax cross-entropy, must match
its composite graph too. Also covered: gradient routing through shared and repeated
inputs, and the tape-free eval/shift backbone forward.
"""

import copy

import numpy as np
import pytest

from ltcalib import net
from ltcalib.head import GeneralizedHead
from ltcalib.losses import soft_ce_loss
from ltcalib.net import Backbone, BackboneConfig, BatchNorm, Linear, ReLU
from ltcalib.tensor import Tensor, log_softmax, relu

from conftest import assert_grads_close, central_diff

# (batch m, width M, classes K): the edges, then random draws.
_EDGES = [(2, 1, 2), (2, 7, 100), (3, 5, 2), (64, 24, 100)]
_draw = np.random.default_rng(20240)
SHAPES = _EDGES + [(int(_draw.integers(2, 65)), int(_draw.integers(1, 41)),
                    int(_draw.integers(2, 101))) for _ in range(16)]


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _all_same(kernel, composite):
    """Pairwise byte equality; a gradient the kernel leaves None must be None on the tape too."""
    assert len(kernel) == len(composite)
    return all((a is None and b is None) or (a is not None and b is not None and _same(a, b))
               for a, b in zip(kernel, composite))


def _leaf(values):
    return Tensor(np.array(values, dtype=np.float64), requires_grad=True)


def _weighted_sum(out: Tensor, r: np.ndarray) -> Tensor:
    """A scalar whose gradient w.r.t. ``out`` is ``r``: a non-trivial upstream gradient."""
    return (out * Tensor(r)).sum()


@pytest.mark.parametrize("m,d,k", SHAPES)
def test_linear_matches_composite(m, d, k):
    rng = np.random.default_rng(m * 1000 + d * 10 + k)
    x0, w0, b0 = rng.standard_normal((m, d)), rng.standard_normal((k, d)), rng.standard_normal(k)
    r = rng.standard_normal((m, k))
    kernel_lin, lin = Linear(d, k, rng), Linear(d, k, rng)
    for layer in (kernel_lin, lin):
        layer.weight.values, layer.bias.values = w0.copy(), b0.copy()
    out, ctx = kernel_lin.forward_arrays(x0)
    kernel = [out, kernel_lin.backward_arrays(ctx, r), kernel_lin.weight.grad, kernel_lin.bias.grad]

    x = _leaf(x0)
    out = lin(x)
    _weighted_sum(out, r).backward()
    composite = [out.values, x.grad, lin.weight.grad, lin.bias.grad]
    assert _all_same(kernel, composite)


@pytest.mark.parametrize("m,d,k", SHAPES)
def test_linear_classifier_kernels_match_composite(m, d, k):
    rng = np.random.default_rng(m * 1000 + d * 10 + k + 1)
    x0, w0 = rng.standard_normal((m, d)), rng.standard_normal((d, k))
    r = rng.standard_normal((m, k))
    clf = GeneralizedHead.stage1(w0)
    out, ctx = clf.forward_arrays(x0)
    kernel = [out, clf.backward_arrays(ctx, r), clf.dw.grad, clf.s.grad]

    x, w = _leaf(x0), _leaf(w0)
    out = x @ w
    _weighted_sum(out, r).backward()
    assert _all_same(kernel, [out.values, x.grad, w.grad, None])
    # The classifier's own taped call is that graph.
    x, clf = _leaf(x0), GeneralizedHead.stage1(w0)
    out = clf(x)
    _weighted_sum(out, r).backward()
    assert _all_same(kernel, [out.values, x.grad, clf.dw.grad, clf.s.grad])


@pytest.mark.parametrize("m,d,k", SHAPES)
def test_relu_kernels_match_composite(m, d, k):
    rng = np.random.default_rng(m * 3 + d)
    x0, r = rng.standard_normal((m, d)), rng.standard_normal((m, d))
    layer = ReLU()
    out, mask = layer.forward_arrays(x0)
    x = _leaf(x0)
    taped = relu(x)
    _weighted_sum(taped, r).backward()
    assert _all_same([out, layer.backward_arrays(mask, r)], [taped.values, x.grad])


def _fresh_bn(d: int) -> BatchNorm:
    bn = BatchNorm(d, momentum=0.3)
    bn.scale.values = np.linspace(0.5, 2.0, d)
    bn.shift.values = np.linspace(-1.0, 1.0, d)
    bn.running_mean = np.full(d, 0.25)
    bn.running_var = np.full(d, 1.5)
    return bn


@pytest.mark.parametrize("m,d,k", SHAPES)
def test_batchnorm_train_matches_composite(m, d, k):
    rng = np.random.default_rng(m * 7 + d)
    h0 = rng.standard_normal((m, d)) * 3.0 + rng.standard_normal(d)
    r = rng.standard_normal((m, d))
    bn = _fresh_bn(d)
    out, ctx = bn.forward_arrays(h0)
    kernel = [out, bn.backward_arrays(ctx, r), bn.scale.grad, bn.shift.grad, bn.running_mean, bn.running_var]

    bn = _fresh_bn(d)
    h = _leaf(h0)
    out = bn(h)
    _weighted_sum(out, r).backward()
    assert _all_same(kernel, [out.values, h.grad, bn.scale.grad, bn.shift.grad,
                              bn.running_mean, bn.running_var])


@pytest.mark.parametrize("m,d,k", SHAPES)
def test_softmax_cross_entropy_matches_composite(m, d, k):
    rng = np.random.default_rng(m + 31 * k)
    z0 = rng.standard_normal((m, k)) * 4.0
    q = rng.dirichlet(np.ones(k), size=m) * rng.uniform(0.5, 2.0, (m, 1))
    runs = []
    for fused in (True, False):
        z = _leaf(z0)
        loss = (soft_ce_loss(q, z) if fused
                else -(Tensor(q) * log_softmax(z)).sum() * (1.0 / m))
        loss.backward()
        runs.append([loss.values, z.grad])
    assert all(_same(a, b) for a, b in zip(*runs))


def test_softmax_cross_entropy_single_row_of_1d_logits():
    z0 = np.array([0.3, -1.2, 2.0, 0.0])
    q = np.array([[0.1, 0.2, 0.6, 0.1]])
    runs = []
    for fused in (True, False):
        z = _leaf(z0)
        loss = soft_ce_loss(q, z) if fused else -(Tensor(q) * log_softmax(z)).sum() * 1.0
        loss.backward()
        runs.append([loss.values, z.grad])
    assert all(_same(a, b) for a, b in zip(*runs))


@pytest.mark.parametrize("k", [2, 5, 100])
def test_soft_ce_1d_targets_match_composite(k):
    rng = np.random.default_rng(k)
    q, z0 = rng.dirichlet(np.ones(k)), rng.standard_normal(k)
    runs = []
    for fused in (True, False):
        z = _leaf(z0)
        loss = soft_ce_loss(q, z) if fused else -(Tensor(q) * log_softmax(z)).sum()
        loss.backward()
        runs.append([loss.values, z.grad])
    for a, b in zip(*runs):
        assert _same(a, b)


def test_softmax_cross_entropy_rejects_mismatched_targets():
    with pytest.raises(ValueError):
        soft_ce_loss(np.full((3, 4), 0.25), Tensor(np.zeros((2, 4))))


@pytest.mark.parametrize("m,d,k", SHAPES)
@pytest.mark.parametrize("mode", ["crt", "lws", "generalized"])
def test_head_matches_composite(m, d, k, mode):
    rng = np.random.default_rng(m * 13 + k)
    w = rng.standard_normal((d, k))
    dw0, s0 = 0.1 * rng.standard_normal((d, k)), rng.uniform(0.5, 1.5, k)
    x0 = rng.standard_normal((m, d))
    r = rng.standard_normal((m, k))
    kernel_head, head = GeneralizedHead(w, mode=mode), GeneralizedHead(w, mode=mode)
    for h in (kernel_head, head):
        h.dw.values, h.s.values = dw0.copy(), s0.copy()
    out, ctx = kernel_head.forward_arrays(x0)
    kernel = [out, kernel_head.backward_arrays(ctx, r), kernel_head.dw.grad, kernel_head.s.grad]

    x = _leaf(x0)
    out = head(x)
    _weighted_sum(out, r).backward()
    assert _all_same(kernel, [out.values, x.grad, head.dw.grad, head.s.grad])


_PARAMETRIZED_LAYERS = {
    "linear": lambda d, k, rng: Linear(d, k, rng),
    "batchnorm": lambda d, k, rng: _fresh_bn(d),
    "classifier": lambda d, k, rng: GeneralizedHead.stage1(rng.standard_normal((d, k))),
    **{mode: (lambda d, k, rng, mode=mode: GeneralizedHead(rng.standard_normal((d, k)), mode=mode))
       for mode in ("crt", "lws", "generalized")},
}


@pytest.mark.parametrize("m,d,k", SHAPES)
@pytest.mark.parametrize("kind", list(_PARAMETRIZED_LAYERS))
def test_backward_without_input_grad_sets_the_same_parameter_grads(m, d, k, kind):
    """The first layer of a chain skips x's gradient: ``input_grad=False``
    returns None and leaves every parameter's ``.grad`` as the full backward does."""
    layers = [_PARAMETRIZED_LAYERS[kind](d, k, np.random.default_rng(m * 7 + d)) for _ in range(2)]
    rng = np.random.default_rng(m * 31 + k)
    x0 = rng.standard_normal((m, d)) * 2.0 + rng.standard_normal(d)
    for p, q in zip(*(layer.parameters() for layer in layers)):
        p.values = p.values + 0.1 * rng.standard_normal(p.values.shape)
        q.values = p.values.copy()
    outs = [layer.forward_arrays(x0) for layer in layers]
    assert _same(outs[0][0], outs[1][0])
    r = rng.standard_normal(outs[0][0].shape)
    assert layers[0].backward_arrays(outs[0][1], r) is not None
    assert layers[1].backward_arrays(outs[1][1], r, input_grad=False) is None
    assert _all_same([p.grad for p in layers[0].parameters()], [p.grad for p in layers[1].parameters()])


# -- gradient routing ----------------------------------------------------------


def test_head_routes_gradient_into_its_input():
    rng = np.random.default_rng(5)
    head = GeneralizedHead(rng.standard_normal((4, 3)), mode="generalized")
    head.dw.values = 0.3 * rng.standard_normal((4, 3))
    head.s.values = rng.uniform(0.5, 1.5, 3)
    x = _leaf(rng.standard_normal((5, 4)))
    q = rng.dirichlet(np.ones(3), size=5)
    soft_ce_loss(q, head(x)).backward()
    num = central_diff(lambda: soft_ce_loss(q, head(Tensor(x.values))).values.item(),
                       [x.values])
    assert_grads_close([x.grad], num)


def test_backbone_and_head_route_gradient_into_the_input():
    rng = np.random.default_rng(6)
    bb = Backbone(BackboneConfig(in_dim=3, hidden=[5, 4], seed=2))
    head = GeneralizedHead(rng.standard_normal((4, 3)), mode="generalized")
    head.s.values = rng.uniform(0.5, 1.5, 3)
    x = _leaf(rng.standard_normal((6, 3)))
    q = rng.dirichlet(np.ones(3), size=6)
    stats = [(bn.running_mean.copy(), bn.running_var.copy()) for bn in bb.norms]

    def loss_of(inp):
        for bn, (mean, var) in zip(bb.norms, stats):
            bn.running_mean, bn.running_var = mean.copy(), var.copy()
        return soft_ce_loss(q, head(bb.forward(inp, net.TRAIN)))

    loss_of(x).backward()
    num = central_diff(lambda: loss_of(Tensor(x.values)).values.item(), [x.values])
    assert_grads_close([x.grad], num)


def test_shared_and_repeated_inputs_get_every_contribution():
    rng = np.random.default_rng(8)
    g = rng.standard_normal((3, 4))
    a = _leaf(rng.standard_normal((3, 4)))
    b = _leaf(rng.standard_normal((3, 4)))
    c = _leaf(rng.standard_normal((3, 4)))
    d = _leaf(rng.standard_normal((3, 4)))
    # One upstream gradient g feeds a + a, c * c and a + b (summed).
    _weighted_sum((a + a) + (c * c) + (a + b), g).backward()
    assert np.array_equal(a.grad, g + g + g)
    assert np.array_equal(b.grad, g)
    assert np.array_equal(c.grad, g * c.values + g * c.values)
    # A sum node whose gradient is both an input's and another sum's.
    _weighted_sum((d + b) + d, g).backward()
    assert np.array_equal(d.grad, g + g)
    assert np.array_equal(b.grad, g + g)


def test_inplace_update_of_one_grad_leaves_the_others_alone():
    rng = np.random.default_rng(9)
    g = rng.standard_normal((2, 3))
    a = _leaf(rng.standard_normal((2, 3)))
    b = _leaf(rng.standard_normal((2, 3)))
    c = _leaf(rng.standard_normal((2, 3)))
    _weighted_sum((a + b) + c, g).backward()
    leaves = [a, b, c]
    before = [p.grad.copy() for p in leaves]
    for i, p in enumerate(leaves):
        p.grad += 1.0
        for j, other in enumerate(leaves):
            expect = before[j] + (1.0 if j <= i else 0.0)
            assert np.array_equal(other.grad, expect)


# -- tape-free eval and shift forwards ----------------------------------------


def _composite_forward(bb: Backbone, x: Tensor, mode: str) -> Tensor:
    """Layer-by-layer forward with elementwise Tensor ops in eval mode, and
    with plain batch statistics and running-stat updates in shift mode."""
    h = x
    for layer in bb.layers:
        if isinstance(layer, Linear):
            h = h @ layer.weight.T + layer.bias
        elif isinstance(layer, BatchNorm):
            bn = layer
            if mode == net.EVAL:
                denom = np.sqrt(bn.running_var + bn.eps)
                x_hat = (h - Tensor(bn.running_mean)) / Tensor(denom)
            else:
                mu = h.values.mean(axis=0)
                var = ((h.values - mu) ** 2).mean(axis=0)
                bn._update_running(mu, var)
                x_hat = Tensor((h.values - mu) / np.sqrt(var + bn.eps))
            h = bn.scale * x_hat + bn.shift
        else:
            h = relu(h)
    return h


@pytest.mark.parametrize("mode", [net.EVAL, net.SHIFT])
@pytest.mark.parametrize("batchnorm", [True, False])
def test_eval_and_shift_forwards_record_no_tape(mode, batchnorm):
    rng = np.random.default_rng(10)
    bb = Backbone(BackboneConfig(in_dim=4, hidden=[6, 5], batchnorm=batchnorm, seed=3))
    for _ in range(3):  # move the running statistics off their initial values
        bb.forward(rng.standard_normal((8, 4)) + 1.0, net.TRAIN)
    ref = copy.deepcopy(bb)
    for _ in range(3):
        x0 = rng.standard_normal((7, 4))
        out = bb.forward(Tensor(x0), mode)
        expect = _composite_forward(ref, Tensor(x0), mode)
        assert not out.requires_grad
        assert out._parents == () and out._backward is None
        assert _same(out.values, expect.values)
        for bn, bn_ref in zip(bb.norms, ref.norms):
            assert _same(bn.running_mean, bn_ref.running_mean)
            assert _same(bn.running_var, bn_ref.running_var)


@pytest.mark.parametrize("mode", [net.EVAL, net.SHIFT])
def test_eval_and_shift_reject_an_input_that_wants_gradients(mode):
    bb = Backbone(BackboneConfig(in_dim=3, hidden=[4], seed=1))
    x = _leaf(np.random.default_rng(0).standard_normal((5, 3)))
    with pytest.raises(ValueError, match="requires_grad"):
        bb.forward(x, mode)
    bn = BatchNorm(3)
    bn.mode = mode
    with pytest.raises(ValueError, match="requires_grad"):
        bn(x)


def test_unknown_mode_is_rejected():
    x = np.zeros((4, 3))
    for batchnorm in (True, False):
        bb = Backbone(BackboneConfig(in_dim=3, hidden=[4], batchnorm=batchnorm, seed=1))
        with pytest.raises(ValueError, match="mode"):
            bb.forward(x, "test")
    bn = BatchNorm(3)
    bn.mode = "test"
    with pytest.raises(ValueError, match="mode"):
        bn(Tensor(x))
