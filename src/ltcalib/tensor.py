"""Dense float64 tensors with reverse-mode automatic differentiation.

Small dynamic-tape engine: each operation records its parents and a closure
that routes the incoming gradient back to them. The ops are ``+``, unary
``-``, ``*``, ``**``, ``@``, ``sum``, ``exp``, ``relu``, ``log_softmax`` and
``softmax``.

A layer's arithmetic is written once, as its plain-array kernel pair
(``forward_arrays``/``backward_arrays`` in ``net`` and ``head``), which
training and scoring chain with no tape. On the tape a layer is one node over
that pair (:func:`kernel_op`), and the loss is one node over
``softmax_cross_entropy_forward``/``_backward``, so gradient checks on the
tape check the code that trains.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor", "kernel_op", "matmul", "relu", "log_softmax", "softmax", "softmax_inplace",
    "softmax_cross_entropy", "softmax_cross_entropy_forward", "softmax_cross_entropy_backward",
]


class Tensor:
    """A dense float64 array plus an optional gradient buffer.

    Gradients accumulate on backward: the first one is kept as given, later
    ones are summed into a new array, so a gradient array shared between
    nodes is never written through. Call :meth:`zero_grad` between steps.
    Tensors created by operations carry closures back to their parents,
    forming an implicit tape.
    """

    __slots__ = ("values", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _from_op(values, parents, backward):
        out = Tensor(values)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    @property
    def shape(self):
        return self.values.shape

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g):
        if self.requires_grad:
            self.grad = g if self.grad is None else self.grad + g

    # -- autodiff --------------------------------------------------------------

    def backward(self):
        """Run reverse-mode differentiation from a scalar tensor."""
        if self.values.size != 1:
            raise ValueError(f"backward() requires a scalar loss, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.values))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- arithmetic ------------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other):
        other = self._coerce(other)
        out_vals = self.values + other.values

        def backward(g):
            g_self = _unbroadcast(g, self.values.shape)
            g_other = _unbroadcast(g, other.values.shape)
            self._accumulate(g_self)
            # Each parent owns its gradient array, even when both are g itself.
            if g_other is g_self and other.requires_grad:
                g_other = g_other.copy()
            other._accumulate(g_other)

        return Tensor._from_op(out_vals, (self, other), backward)

    __radd__ = __add__

    def __neg__(self):
        def backward(g):
            self._accumulate(-g)

        return Tensor._from_op(-self.values, (self,), backward)

    def __mul__(self, other):
        other = self._coerce(other)
        out_vals = self.values * other.values

        def backward(g):
            self._accumulate(_unbroadcast(g * other.values, self.values.shape))
            other._accumulate(_unbroadcast(g * self.values, other.values.shape))

        return Tensor._from_op(out_vals, (self, other), backward)

    __rmul__ = __mul__

    def __pow__(self, exponent: float):
        out_vals = self.values**exponent

        def backward(g):
            self._accumulate(g * exponent * self.values ** (exponent - 1))

        return Tensor._from_op(out_vals, (self,), backward)

    def __matmul__(self, other):
        return matmul(self, other)

    # -- reductions and elementwise maps ----------------------------------------

    def sum(self, axis=None):
        out_vals = self.values.sum(axis=axis)

        def backward(g):
            if axis is None:
                self._accumulate(np.broadcast_to(g, self.values.shape).copy())
            else:
                self._accumulate(np.broadcast_to(np.expand_dims(g, axis), self.values.shape).copy())

        return Tensor._from_op(out_vals, (self,), backward)

    def exp(self):
        out_vals = np.exp(self.values)

        def backward(g):
            self._accumulate(g * out_vals)

        return Tensor._from_op(out_vals, (self,), backward)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with gradients dA = dC @ B.T and dB = A.T @ dC."""
    if a.values.ndim != 2 or b.values.ndim != 2:
        raise ValueError("matmul expects 2-D tensors")
    if a.values.shape[1] != b.values.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    out_vals = a.values @ b.values

    def backward(g):
        a._accumulate(g @ b.values.T)
        b._accumulate(a.values.T @ g)

    return Tensor._from_op(out_vals, (a, b), backward)


def kernel_op(layer, x: Tensor) -> Tensor:
    """``layer`` applied to ``x`` as one tape node over its kernel pair: the
    output of ``layer.forward_arrays``, whose backward runs
    ``layer.backward_arrays`` and routes x's gradient into ``x``. The kernel
    sets each parameter's ``.grad``; the node adds it to the ``.grad`` held
    before, so a parameter reached by several nodes gets every contribution."""
    out, ctx = layer.forward_arrays(x.values)
    params = layer.parameters()

    def backward(g):
        held = [p.grad for p in params]
        x._accumulate(layer.backward_arrays(ctx, g, x.requires_grad))
        for p, grad in zip(params, held):
            p.grad, new = grad, p.grad
            p._accumulate(new)

    return Tensor._from_op(out, (x, *params), backward)


def relu(t: Tensor) -> Tensor:
    """max(t, 0) as ``t * (t > 0)``, the arithmetic of :class:`~ltcalib.net.ReLU`'s kernels."""
    return t * Tensor(t.values > 0.0)


def _rows(t: Tensor) -> np.ndarray:
    """Logits as a 2-D array of rows (a 1-D input is one row)."""
    if t.values.size == 0:
        raise ValueError("log_softmax on empty input")
    return t.values if t.values.ndim == 2 else t.values.reshape(1, -1)


# Rows per block of softmax_inplace; its one scratch buffer holds this many rows.
_SOFTMAX_BLOCK_ROWS = 512


def _log_softmax_into(rows: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of ``rows`` written over it, with ``scratch``, an
    array of its shape, holding the exponentials of the shifted rows."""
    rows -= rows.max(axis=1, keepdims=True)
    rows -= np.log(np.exp(rows, out=scratch).sum(axis=1, keepdims=True))
    return rows


def _log_softmax_rows(vals: np.ndarray) -> np.ndarray:
    rows = np.array(vals, dtype=np.float64)  # a copy in vals' memory layout
    return _log_softmax_into(rows, np.empty_like(rows))


def softmax_inplace(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a 2-D float64 array of logits, written over ``z`` and
    returned: the bits of ``np.exp(_log_softmax_rows(z))``, computed in blocks
    of rows with one block-sized scratch buffer."""
    scratch = np.empty((min(len(z), _SOFTMAX_BLOCK_ROWS), z.shape[1]))
    for start in range(0, len(z), _SOFTMAX_BLOCK_ROWS):
        block = z[start : start + _SOFTMAX_BLOCK_ROWS]
        np.exp(_log_softmax_into(block, scratch[: len(block)]), out=block)
    return z


def log_softmax(t: Tensor) -> Tensor:
    """Row-wise log-softmax with max-subtraction for stability.

    The subtracted row max is treated as a constant; softmax is invariant to
    per-row shifts, so gradients are unaffected.
    """
    out_vals = _log_softmax_rows(_rows(t))

    def backward(g):
        g2 = g.reshape(out_vals.shape)
        gt = g2 - np.exp(out_vals) * g2.sum(axis=1, keepdims=True)
        t._accumulate(gt.reshape(t.values.shape))

    return Tensor._from_op(out_vals.reshape(t.values.shape), (t,), backward)


def softmax(t: Tensor) -> Tensor:
    """Row-wise softmax; outputs positive and summing to one per row."""
    return log_softmax(t).exp()


def softmax_cross_entropy_forward(q: np.ndarray, z: np.ndarray):
    """Mean over rows of -sum_i q_i log softmax(z)_i for (m, K) arrays ``q``
    and ``z``; the loss is a float64 scalar, the context is for
    :func:`softmax_cross_entropy_backward`."""
    logp = _log_softmax_rows(z)
    scale = 1.0 / q.shape[0]
    return -(q * logp).sum() * scale, (q, logp, scale)


def softmax_cross_entropy_backward(ctx, g=1.0) -> np.ndarray:
    """Gradient w.r.t. the logits of :func:`softmax_cross_entropy_forward`,
    given the loss's upstream gradient ``g``."""
    q, logp, scale = ctx
    gq = -(g * scale) * q
    return gq - np.exp(logp) * gq.sum(axis=1, keepdims=True)


def softmax_cross_entropy(q: np.ndarray, t: Tensor) -> Tensor:
    """Mean over rows of -sum_i q_i log softmax(t)_i as one node over the
    kernel pair that training runs.

    Acceptance gates 1, 2 and 4 run it in tight loops, where the composite
    graph made that suite about 22% slower.

    ``q`` is a constant (m, K) target matrix; ``t`` holds logits of the same
    shape (or one 1-D row when m == 1). Same values and gradients as
    ``-(Tensor(q) * log_softmax(t)).sum() * (1 / m)``.
    """
    vals = _rows(t)
    if q.shape != vals.shape:
        raise ValueError(f"targets of shape {q.shape} for logits of shape {t.shape}")
    loss, ctx = softmax_cross_entropy_forward(q, vals)

    def backward(g):
        t._accumulate(softmax_cross_entropy_backward(ctx, g).reshape(t.values.shape))

    return Tensor._from_op(loss, (t,), backward)
