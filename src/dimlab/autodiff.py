"""Dense float64 tensors and a minimal define-by-run reverse-mode engine.

Values are plain numpy float64 arrays; the graph is a DAG of :class:`Node`
objects built fresh on every forward pass. Every op is built by ``_op``
from its value and one vector-Jacobian product per parent; a node's
``grad`` is None until the backward pass reaches it, and is never written
in place.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, NumericError, ParameterError


def as_tensor(x) -> np.ndarray:
    """Coerce to a C-contiguous float64 array (copies only when needed)."""
    return np.ascontiguousarray(np.asarray(x, dtype=np.float64))


class Node:
    """A vertex of the computation graph.

    Carries the forward value, the tag of the op that produced it, its
    parent nodes, and ``grad``: None until the backward pass reaches the
    node, then the summed gradient, replaced (never written in place) by
    each further contribution. Nodes are write-once apart from ``grad``;
    ops never mutate their inputs' value arrays.
    """

    __slots__ = ("value", "grad", "op_tag", "parents", "requires_grad", "_backward")

    def __init__(self, value, parents=(), op_tag="leaf", requires_grad=False):
        self.value = as_tensor(value)
        self.grad = None
        self.op_tag = op_tag
        self.parents = tuple(parents)
        self.requires_grad = bool(requires_grad)
        self._backward = None

    def __repr__(self):
        return (f"Node({self.op_tag}, shape={self.value.shape}, "
                f"requires_grad={self.requires_grad})")

    def __add__(self, other):
        return add(self, _lift(other))

    def __sub__(self, other):
        return sub(self, _lift(other))

    def __mul__(self, other):
        return mul(self, _lift(other))


def leaf(value, requires_grad=False) -> Node:
    """Create a graph input holding ``value``."""
    return Node(value, op_tag="leaf", requires_grad=requires_grad)


def constant(value) -> Node:
    """A leaf that never receives gradients."""
    return leaf(value, requires_grad=False)


def _lift(x) -> Node:
    return x if isinstance(x, Node) else constant(x)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient over the axes numpy broadcast an operand along."""
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _accumulate(node: Node, g: np.ndarray) -> None:
    """Add one gradient contribution to ``node.grad``, its only writer.

    Never in place: a contribution may be shared with another node (``add``
    hands the same ``g`` to both parents) or be a read-only broadcast view
    (``global_avg_pool``).
    """
    node.grad = g if node.grad is None else node.grad + g


def _op(tag: str, value, *edges) -> Node:
    """The output node of one op over (parent, vjp) ``edges``.

    A vjp maps the output gradient to that parent's contribution; it runs
    only when the parent requires a gradient.
    """
    out = Node(value, parents=tuple(p for p, _ in edges), op_tag=tag,
               requires_grad=any(p.requires_grad for p, _ in edges))

    def backward(g):
        for parent, vjp in edges:
            if parent.requires_grad:
                _accumulate(parent, vjp(g))

    out._backward = backward
    return out


def add(a: Node, b: Node) -> Node:
    """Elementwise sum with numpy broadcasting."""
    return _op("add", a.value + b.value,
               (a, lambda g: _unbroadcast(g, a.value.shape)),
               (b, lambda g: _unbroadcast(g, b.value.shape)))


def sub(a: Node, b: Node) -> Node:
    """Elementwise difference with numpy broadcasting."""
    return _op("sub", a.value - b.value,
               (a, lambda g: _unbroadcast(g, a.value.shape)),
               (b, lambda g: _unbroadcast(-g, b.value.shape)))


def mul(a: Node, b: Node) -> Node:
    """Elementwise product with numpy broadcasting."""
    return _op("mul", a.value * b.value,
               (a, lambda g: _unbroadcast(g * b.value, a.value.shape)),
               (b, lambda g: _unbroadcast(g * a.value, b.value.shape)))


def square(a: Node) -> Node:
    """Elementwise x**2."""
    return _op("square", a.value * a.value, (a, lambda g: 2.0 * a.value * g))


def scale(a: Node, c: float) -> Node:
    """Multiply by a python float constant."""
    c = float(c)
    return _op("scale", a.value * c, (a, lambda g: c * g))


def sum_all(a: Node) -> Node:
    """Sum every entry into a scalar (shape ()) node."""
    return _op("sum", a.value.sum(), (a, lambda g: np.full_like(a.value, g)))


def reshape(a: Node, shape) -> Node:
    """View the same entries under a new shape."""
    return _op("reshape", a.value.reshape(shape),
               (a, lambda g: g.reshape(a.value.shape)))


def _check_matmul(a: Node, b: Node) -> None:
    if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[1] != b.value.shape[0]:
        raise DimensionError(
            f"matmul expects (m,k)@(k,n), got {a.value.shape} @ {b.value.shape}")


def matmul(a: Node, b: Node) -> Node:
    """Matrix product of two 2-D nodes."""
    _check_matmul(a, b)
    return _op("matmul", a.value @ b.value,
               (a, lambda g: g @ b.value.T),
               (b, lambda g: a.value.T @ g))


def _masked(mask: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``np.where(mask, x, 0.0)`` for float64 ``x`` of ``mask``'s shape,
    byte for byte, without a branch per entry: each True becomes a word of
    all ones that keeps x's bits, each False a zero word, which is +0.0.
    ``x`` may be any view (transposed, sliced, stride-0 broadcast)."""
    bits = np.empty(np.shape(mask), dtype=np.int64)  # an array also at 0-d
    np.subtract(0, mask, out=bits, dtype=np.int64)
    np.bitwise_and(bits, x.view(np.int64), out=bits)
    return bits.view(np.float64)


def relu(a: Node) -> Node:
    """Elementwise max(0, x); at exactly 0 the subgradient 0 is used."""
    mask = a.value > 0
    return _op("relu", _masked(mask, a.value),
               (a, lambda g: _masked(mask, g)))


def dense(h: Node, w: Node, b: Node, rate: float,
          rng: np.random.Generator | None = None) -> Node:
    """One hidden layer, relu(h @ w + b) under inverted dropout of ``rate``
    (0 for none, as in eval mode), as a single node.

    Its value, its three gradients and its draw from ``rng`` equal those of
    ``dropout(relu(matmul(h, w) + b), rate, True, rng)`` bit for bit: it
    makes the same numpy calls in the same order, the bias add and the
    dropout product in place on arrays it owns.
    """
    _check_matmul(h, w)
    units = w.value.shape[1]
    if b.value.shape != (units,):
        raise DimensionError(
            f"bias must have shape ({units},), got {b.value.shape}")
    drop = _dropout_mask((h.value.shape[0], units), rate, True, rng)
    pre = h.value @ w.value
    pre += b.value
    mask = pre > 0
    value = _masked(mask, pre)
    if drop is not None:
        value *= drop

    # the vjps map the gradient of ``pre``, which backward computes once
    out = _op("dense", value,
              (h, lambda g: g @ w.value.T),
              (w, lambda g: h.value.T @ g),
              (b, lambda g: _unbroadcast(g, b.value.shape)))
    to_parents = out._backward
    out._backward = lambda g: to_parents(
        _masked(mask, g if drop is None else g * drop))
    return out


def gather_rows(a: Node, perm: Sequence[int]) -> Node:
    """Reorder rows so output row i is input row perm[i].

    ``perm`` must be a bijection on 0..n-1; gradients scatter back through
    the inverse permutation.
    """
    idx = np.asarray(perm, dtype=np.intp)
    n = a.value.shape[0]
    if idx.ndim != 1 or idx.shape[0] != n or np.any(idx < 0) or np.any(idx >= n) \
            or np.any(np.bincount(idx, minlength=n) != 1):
        raise ParameterError(f"index list is not a permutation of 0..{n - 1}")

    def vjp(g):
        scattered = np.empty_like(a.value)
        scattered[idx] = g
        return scattered

    return _op("gather_rows", a.value[idx], (a, vjp))


def adjacent_diff(a: Node) -> Node:
    """First differences of a 1-D node: out[i] = a[i+1] - a[i]."""
    if a.value.ndim != 1:
        raise DimensionError(f"adjacent_diff expects a vector, got {a.value.shape}")

    def vjp(g):  # the transpose of differencing: in[i] gets g[i-1] - g[i]
        return np.concatenate(([0.0], g)) - np.concatenate((g, [0.0]))

    return _op("adjacent_diff", np.diff(a.value), (a, vjp))


def conv1d_same(x: Node, kernels: Node, bias: Node) -> Node:
    """Width-3 cross-correlation over (batch, length, in_ch) with zero 'same'
    padding, producing (batch, length, out_ch).

    The kernel gradient of tap k is an einsum over a contiguous copy of the
    window ``padded[:, k:k + length, :]``. On the copy numpy merges batch
    and length into one loop and still adds the (batch, length) terms of
    each kernel entry in order, so the bytes of every report stay the same;
    on the strided window it ran about three times slower. (With one input
    and one output channel numpy sums the merged loop with its own
    accumulators instead, and that gradient moves in its last bits.)
    ``G.T @ P`` would be faster still, but BLAS adds in another order and
    changes the bits. The forward and ``x_vjp`` multiply by the strided
    ``kernels.value[:, :, k]``, which keeps them on numpy's own matmul
    loop; every BLAS route for them that was measured changes bits too.
    """
    if x.value.ndim != 3:
        raise DimensionError(f"conv1d_same input must be 3-D, got {x.value.shape}")
    if kernels.value.ndim != 3 or kernels.value.shape[2] != 3:
        raise DimensionError(
            f"kernels must be (out_ch, in_ch, 3), got {kernels.value.shape}")
    batch, length, in_ch = x.value.shape
    out_ch, k_in, _ = kernels.value.shape
    if k_in != in_ch:
        raise DimensionError(
            f"channel mismatch: input {x.value.shape} vs kernels {kernels.value.shape}")
    if bias.value.shape != (out_ch,):
        raise DimensionError(
            f"bias must have shape ({out_ch},), got {bias.value.shape}")

    padded = np.zeros((batch, length + 2, in_ch))
    padded[:, 1:-1, :] = x.value
    value = np.broadcast_to(bias.value, (batch, length, out_ch)).copy()
    for k in range(3):
        value += padded[:, k:k + length, :] @ kernels.value[:, :, k].T

    def x_vjp(g):
        g_padded = np.zeros_like(padded)
        for k in range(3):
            g_padded[:, k:k + length, :] += g @ kernels.value[:, :, k]
        return g_padded[:, 1:-1, :]

    def kernels_vjp(g):
        return np.stack([np.einsum("blo,blc->oc", g,
                                   np.ascontiguousarray(padded[:, k:k + length, :]))
                         for k in range(3)], axis=2)

    return _op("conv1d_same", value, (x, x_vjp), (kernels, kernels_vjp),
               (bias, lambda g: g.sum(axis=(0, 1))))


def global_avg_pool(x: Node) -> Node:
    """Mean over the length axis of (batch, length, ch) -> (batch, ch)."""
    if x.value.ndim != 3:
        raise DimensionError(f"global_avg_pool input must be 3-D, got {x.value.shape}")
    length = x.value.shape[1]
    if length < 1:
        raise DimensionError("global_avg_pool needs length >= 1")
    return _op("global_avg_pool", x.value.mean(axis=1),
               (x, lambda g: np.broadcast_to(g[:, None, :] / length,
                                             x.value.shape)))


def _dropout_mask(shape, rate: float, training: bool,
                  rng: np.random.Generator | None) -> np.ndarray | None:
    """Inverted-dropout multipliers drawn from ``rng``: 0 with probability
    ``rate``, else 1/(1-rate). None when nothing is dropped (eval mode or
    rate 0), which draws nothing."""
    if not 0.0 <= rate < 1.0:
        raise ParameterError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return None
    if rng is None:
        raise ParameterError("training-mode dropout needs a seeded generator")
    keep = rng.random(shape) >= rate
    factor = 1.0 / (1.0 - rate)
    return keep * factor


def dropout(a: Node, rate: float, training: bool,
            rng: np.random.Generator | None = None) -> Node:
    """Inverted dropout: zero entries with probability ``rate`` and scale
    survivors by 1/(1-rate) in training mode; identity in eval mode."""
    mask = _dropout_mask(a.value.shape, rate, training, rng)
    if mask is None:
        return a
    return _op("dropout", a.value * mask, (a, lambda g: g * mask))


def _topo_order(root: Node) -> list[Node]:
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order  # parents always precede children


def backward_pass(root: Node) -> None:
    """Reverse-accumulate gradients from a scalar root through the graph.

    Gradients sum across multiple uses of a node. The root's own grad is
    seeded with 1; nodes the root does not depend on keep ``grad`` None.
    """
    if root.value.size != 1:
        raise DimensionError(
            f"backward_pass needs a scalar root, got shape {root.value.shape}")
    order = _topo_order(root)
    _accumulate(root, np.ones_like(root.value))
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def gradient_check(loss_fn: Callable[[Node], Node], point, step: float) -> float:
    """Compare the engine's gradient against central finite differences.

    ``loss_fn`` must be a pure function mapping a leaf node (same shape as
    ``point``) to a scalar node. Returns
    max_i |g_a,i - g_fd,i| / max(1e-8, |g_a,i| + |g_fd,i|); a point the
    loss does not reach has analytic gradient 0.
    """
    if step <= 0:
        raise ParameterError(f"step must be positive, got {step}")
    base = as_tensor(point)
    p = leaf(base, requires_grad=True)
    backward_pass(loss_fn(p))
    g_analytic = np.zeros(base.size) if p.grad is None else p.grad.ravel()

    flat = base.ravel().copy()
    g_fd = np.empty_like(flat)
    for i in range(flat.size):
        vals = []
        for sign in (1.0, -1.0):
            bumped = flat.copy()
            bumped[i] += sign * step
            out = loss_fn(leaf(bumped.reshape(base.shape))).value.item()
            if not np.isfinite(out):
                raise NumericError(f"non-finite loss at perturbed coordinate {i}")
            vals.append(out)
        g_fd[i] = (vals[0] - vals[1]) / (2.0 * step)

    denom = np.maximum(1e-8, np.abs(g_analytic) + np.abs(g_fd))
    return float(np.max(np.abs(g_analytic - g_fd) / denom))
