import numpy as np
import pytest
from hypothesis import given, strategies as st

from ltcalib.tensor import Tensor, log_softmax, matmul, relu, softmax

from conftest import assert_grads_close, central_diff


def test_matmul_identity():
    a = Tensor([[1.0, 0.0], [0.0, 1.0]])
    b = Tensor([[3.0], [4.0]])
    assert np.array_equal(matmul(a, b).values, [[3.0], [4.0]])


def test_matmul_scalar_case():
    assert matmul(Tensor([[2.0]]), Tensor([[5.0]])).values.item() == 10.0


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_matmul_gradient_matches_finite_differences(rng):
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    out = matmul(a, b).sum()
    out.backward()
    num = central_diff(lambda: (a.values @ b.values).sum(), [a.values, b.values])
    assert_grads_close([a.grad, b.grad], num, rtol=1e-6)


def test_softmax_symmetry():
    out = softmax(Tensor([0.0, 0.0, 0.0])).values
    assert np.allclose(out, 1.0 / 3.0, atol=1e-15)


def test_softmax_shift_invariance():
    z = np.array([1.0, 2.0, 3.0])
    a = softmax(Tensor(z)).values
    b = softmax(Tensor(z + 123.456)).values
    assert np.allclose(a, b, atol=1e-12)


def test_softmax_matches_direct_formula():
    z = np.array([1.0, 2.0, 3.0])
    expect = np.exp(z) / np.exp(z).sum()
    assert np.allclose(softmax(Tensor(z)).values, expect, atol=1e-12)


@given(st.lists(st.floats(-30, 30), min_size=1, max_size=10))
def test_softmax_sums_to_one(zs):
    out = softmax(Tensor(np.array(zs))).values
    assert abs(out.sum() - 1.0) <= 1e-12
    assert np.all(out > 0)


def test_softmax_empty_input_rejected():
    with pytest.raises(ValueError):
        log_softmax(Tensor(np.array([])))


def test_backward_requires_scalar():
    t = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        (t * 2.0).backward()


def test_backward_sum_gives_ones():
    t = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    t.sum().backward()
    assert np.array_equal(t.grad, np.ones((2, 3)))


def test_backward_square_sum():
    t = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    (t * t).sum().backward()
    assert np.allclose(t.grad, [2.0, 4.0, 6.0])


def test_backward_accumulates_without_reset():
    t = Tensor([1.0, 2.0], requires_grad=True)
    t.sum().backward()
    t.sum().backward()
    assert np.array_equal(t.grad, [2.0, 2.0])
    t.zero_grad()
    t.sum().backward()
    assert np.array_equal(t.grad, [1.0, 1.0])


def test_mlp_gradients_match_finite_differences(rng):
    # 2 -> 8 -> 3 MLP with a cross-entropy-style loss on top
    w1 = Tensor(rng.standard_normal((2, 8)) * 0.5, requires_grad=True)
    b1 = Tensor(rng.standard_normal(8) * 0.1, requires_grad=True)
    w2 = Tensor(rng.standard_normal((8, 3)) * 0.5, requires_grad=True)
    x = rng.standard_normal((5, 2))
    q = np.full((5, 3), 1.0 / 3.0)

    def loss_tensor():
        h = relu(Tensor(x) @ w1 + b1)
        return -(Tensor(q) * log_softmax(h @ w2)).sum()

    loss = loss_tensor()
    loss.backward()
    num = central_diff(lambda: loss_tensor().values.item(), [w1.values, b1.values, w2.values])
    assert_grads_close([w1.grad, b1.grad, w2.grad], num)


@pytest.mark.parametrize("op", ["add", "mul", "div", "sub", "pow", "exp", "sqrt", "relu", "mean"])
def test_elementwise_gradients(op, rng):
    x = Tensor(rng.uniform(0.5, 2.0, size=(4, 3)), requires_grad=True)
    y = Tensor(rng.uniform(0.5, 2.0, size=(4, 3)), requires_grad=True)
    builders = {
        "add": lambda: (x + y).sum(),
        "sub": lambda: (x - y).sum(),
        "mul": lambda: (x * y).sum(),
        "div": lambda: (x / y).sum(),
        "pow": lambda: (x**3.0).sum(),
        "exp": lambda: x.exp().sum(),
        "sqrt": lambda: x.sqrt().sum(),
        "relu": lambda: relu(x - 1.0).sum(),
        "mean": lambda: (x.mean(axis=0) * y.mean(axis=1).sum()).sum(),
    }
    loss = builders[op]()
    loss.backward()
    num = central_diff(lambda: builders[op]().values.item(), [x.values, y.values])
    analytic = [x.grad if x.grad is not None else np.zeros_like(x.values),
                y.grad if y.grad is not None else np.zeros_like(y.values)]
    assert_grads_close(analytic, num)


def test_broadcast_gradient(rng):
    mat = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    row = Tensor(rng.standard_normal(3), requires_grad=True)
    ((mat * row) + row).sum().backward()
    num = central_diff(lambda: ((mat.values * row.values) + row.values).sum(),
                       [mat.values, row.values])
    assert_grads_close([mat.grad, row.grad], num, rtol=1e-6)


def test_determinism_same_seed_bit_identical():
    def build(seed):
        r = np.random.default_rng(seed)
        w = Tensor(r.standard_normal((3, 3)), requires_grad=True)
        out = softmax(Tensor(r.standard_normal((2, 3))) @ w)
        loss = (out * out).sum()
        loss.backward()
        return loss.values.copy(), w.grad.copy()
    l1, g1 = build(7)
    l2, g2 = build(7)
    assert l1.tobytes() == l2.tobytes()
    assert g1.tobytes() == g2.tobytes()
