"""Dense float64 tensors and a minimal define-by-run reverse-mode engine.

Values are plain numpy float64 arrays; the graph is a DAG of :class:`Node`
objects built fresh on every forward pass. Every op is built by ``_op``
from its value and one vector-Jacobian product per parent; a node's
``grad`` is None until the backward pass reaches it, and is never written
in place.
"""

from __future__ import annotations

import functools
import logging
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, ParameterError

log = logging.getLogger(__name__)


def as_tensor(x) -> np.ndarray:
    """Coerce to a C-contiguous float64 array of at least one dimension (a
    scalar becomes shape (1,)), copying only when needed."""
    return np.ascontiguousarray(x, dtype=np.float64)


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


def leaf(value, requires_grad=False) -> Node:
    """Create a graph input holding ``value``."""
    return Node(value, op_tag="leaf", requires_grad=requires_grad)


def constant(value) -> Node:
    """A leaf that never receives gradients."""
    return leaf(value, requires_grad=False)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient over the axes numpy broadcast an operand along."""
    if grad.shape == shape:
        return grad
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
    parents, requires_grad = [], False
    for p, _ in edges:
        parents.append(p)
        requires_grad = requires_grad or p.requires_grad
    out = Node(value, parents, op_tag=tag, requires_grad=requires_grad)

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
    """Sum every entry into a scalar node, shape (1,) (see as_tensor)."""
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


def linear_head(h: Node, w: Node, b: Node) -> Node:
    """The scalar head h @ w + b, for a (k, 1) ``w`` and a (1,) ``b``, as one
    node of shape (n,), with the bits of ``reshape(matmul(h, w) + b, (n,))``:
    the same numpy calls in the same order, the bias add in place."""
    _check_matmul(h, w)
    pre = h.value @ w.value
    pre += b.value
    return _op("linear_head", pre.reshape(h.value.shape[0]),
               (h, lambda g: g.reshape(pre.shape) @ w.value.T),
               (w, lambda g: h.value.T @ g.reshape(pre.shape)),
               (b, lambda g: _unbroadcast(g.reshape(pre.shape), b.value.shape)))


def _masked(mask: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``np.where(mask, x, 0.0)`` for float64 ``x`` of ``mask``'s shape,
    byte for byte, without a branch per entry: each True becomes a word of
    all ones that keeps x's bits, each False a zero word, which is +0.0.
    ``x`` may be any view (transposed, sliced, stride-0 broadcast)."""
    bits = mask.astype(np.int64)
    np.negative(bits, out=bits)
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


_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)
_helper: ThreadPoolExecutor | None = None  # started by the first split
_helper_idle = threading.Lock()  # held by a split or by pool_map


def _drop_helper() -> None:
    """Forget the parent's helper in a forked child, which has no thread
    behind it, and the lock, which the fork may have caught held."""
    global _helper, _helper_idle
    _helper, _helper_idle = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_helper)


def _on_both_cores(work: Callable[[int, int], None], n: int) -> None:
    """Run ``work(0, n // 2)`` on the caller and ``work(n // 2, n)`` on the
    process's one helper thread, and return or raise once both halves are
    done; a fault in either half propagates, the caller's first. With
    fewer than 2 entries, on one CPU, or while another thread holds the
    helper (its own split, or ``pool_map``), ``work(0, n)`` runs
    inline: no thread queues for the helper.
    """
    global _helper
    if n < 2 or _CPUS < 2 or not _helper_idle.acquire(blocking=False):
        work(0, n)
        return
    try:
        if _helper is None:
            _helper = ThreadPoolExecutor(1, thread_name_prefix="dimlab-conv")
        helper_half = _helper.submit(work, n // 2, n)
        try:
            work(0, n // 2)
        finally:
            helper_half.exception()  # waits for the helper's half, also on a fault
    finally:
        _helper_idle.release()
    helper_half.result()


# (get, set) names of OpenBLAS's thread-count functions: numpy's bundled
# scipy-openblas build, then a plain OpenBLAS
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _find_openblas():
    """(get, set) thread-count functions of numpy's OpenBLAS, or None, found
    once by dlsym on numpy's LAPACK extension and the libraries it links."""
    import ctypes

    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for get_name, set_name in _OPENBLAS_SYMBOLS:
        if hasattr(lib, get_name) and hasattr(lib, set_name):
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    log.info("no OpenBLAS thread-count functions found; pool_map runs its "
             "threads with BLAS threads unpinned")
    return None


def pool_map(fn: Callable, items, workers: int) -> list:
    """``list(map(fn, items))``, on ``workers`` threads when ``workers`` > 1,
    in item order either way. Those threads fill the cores, so while they
    run no op starts threads of its own: the pool holds the helper (every
    ``conv1d_same`` runs inline, and an overlapping pool waits its turn)
    and holds OpenBLAS at one thread, restoring the count it found, also
    when a call raises. Without OpenBLAS's thread-count functions, BLAS
    runs unpinned."""
    if workers == 1:
        return list(map(fn, items))
    with _helper_idle:
        api = _find_openblas()
        if api:
            saved = api[0]()
            api[1](1)
        try:
            with ThreadPoolExecutor(workers) as pool:
                return list(pool.map(fn, items))
        finally:
            if api:
                api[1](saved)


def conv1d_same(x: Node, kernels: Node, bias: Node) -> Node:
    """Width-3 cross-correlation over (batch, length, in_ch) with zero 'same'
    padding, producing (batch, length, out_ch).

    The forward and ``x_vjp`` multiply by ``taps``, one contiguous copy of
    the kernels per call in (tap, out_ch, in_ch) order. Given the strided
    ``kernels.value[:, :, k]``, numpy's matmul copies it again for every
    batch row before its BLAS call; the one copy gives BLAS the same
    operands, so the bytes stay and the cost per row goes. At length 1
    numpy takes a one-row path whose bits depend on the operand's layout,
    so there the taps stay views. The kernel gradient of tap k is an einsum
    over the window ``padded[:, k:k + length, :]`` as a contiguous array (a
    copy for taps 0 and 2; tap 1's window is ``x`` itself): numpy merges
    batch and length into one loop and still adds each kernel entry's
    terms in order. (With one input and one output channel it sums
    that loop with its own accumulators, and that gradient moves in its
    last bits.) ``G.T @ P`` would be faster, but BLAS adds in another order.

    Each part runs on both cores (``_on_both_cores``) with the same bytes.
    The forward and ``x_vjp`` split by batch row: rows are independent in
    the matmuls, since the stacked matmul makes the same BLAS call on each
    row whatever rows sit beside it, and each half adds its rows' taps in
    the same order. The kernel gradient splits by output channel: each
    kernel entry is the sum over its own channel pair's products, one
    multiply and one add per (batch, length) row in row order, whichever
    other channels share the einsum. A half of one output channel is a
    strided slice, which numpy sums in that order too. The matmuls write
    their products into one array the caller allocates (same BLAS calls),
    so the helper thread's own malloc arena stays small.
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
    taps = kernels.value.transpose(2, 0, 1)
    if length > 1:
        taps = np.ascontiguousarray(taps)
    value = np.broadcast_to(bias.value, (batch, length, out_ch)).copy()
    products = np.empty_like(value)

    def forward_rows(lo, hi):
        out, rows, product = value[lo:hi], padded[lo:hi], products[lo:hi]
        for k in range(3):
            out += np.matmul(rows[:, k:k + length, :], taps[k].T, out=product)

    _on_both_cores(forward_rows, batch)

    def x_vjp(g):
        g_padded = np.zeros_like(padded)
        products = np.empty_like(x.value)

        def rows(lo, hi):
            out, g_rows, product = g_padded[lo:hi], g[lo:hi], products[lo:hi]
            for k in range(3):
                out[:, k:k + length, :] += np.matmul(g_rows, taps[k], out=product)

        _on_both_cores(rows, batch)
        return g_padded[:, 1:-1, :]

    def kernels_vjp(g):
        windows = [np.ascontiguousarray(padded[:, :length, :]), x.value,
                   np.ascontiguousarray(padded[:, 2:, :])]
        grad = np.empty((out_ch, in_ch, 3))

        def channels(lo, hi):
            for k in range(3):
                grad[lo:hi, :, k] = np.einsum("blo,blc->oc", g[:, :, lo:hi], windows[k])

        _on_both_cores(channels, out_ch)
        return grad

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
    seen: set[Node] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for parent in node.parents:  # one without a gradient has none above
            if parent.requires_grad and parent not in seen:
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
