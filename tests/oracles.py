"""Reference formulas that dimlab's packed and re-laid-out kernels must
match bit for bit. They are kept here, outside the package, in their plain
form, so an optimisation of the package cannot change them. The test-only
helpers that ``src/`` has no caller for, the finite-difference gradient
check and the synthetic data's noise-free response, live here too."""

from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace
from typing import Callable

import numpy as np

from dimlab.autodiff import (Node, _check_matmul, _dropout_mask, _masked,
                             _op, _unbroadcast, as_tensor, backward_pass,
                             constant, leaf, linear_head)
from dimlab.data import _TRANSFORMS
from dimlab.errors import DimensionError, NumericError, ParameterError
from dimlab.penalty import (BASELINE_MODES, COMPLIANCE_ATOL, FeatureFit,
                            LinearBaseline)

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class ReferenceAdam:
    """Bias-corrected Adam with one (m, v) pair per parameter array."""

    def __init__(self, params):
        self.t = 0
        self.m = {k: np.zeros_like(p) for k, p in params.items()}
        self.v = {k: np.zeros_like(p) for k, p in params.items()}

    def step(self, params, grads, lr):
        """Updated copies of ``params``; the moments advance in place."""
        self.t += 1
        new = {}
        for name, p in params.items():
            g = grads[name]
            m = BETA1 * self.m[name] + (1.0 - BETA1) * g
            v = BETA2 * self.v[name] + (1.0 - BETA2) * (g * g)
            m_hat = m / (1.0 - BETA1 ** self.t)
            v_hat = v / (1.0 - BETA2 ** self.t)
            new[name] = p - lr * m_hat / (np.sqrt(v_hat) + EPS)
            self.m[name], self.v[name] = m, v
        return new


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


def network_reference(model, batch, training=False, rng=None):
    """A dense model's (ann, mlp3, mlp5) forward pass as a graph over
    parameter leaves: one :func:`dense` node per hidden layer, then
    ``linear_head``. Returns the prediction node and the leaves by name,
    whose ``grad`` a backward pass fills."""
    nodes = {name: leaf(value, requires_grad=True)
             for name, value in model.parameters.items()}
    rate = model.config.dropout_rate if training else 0.0
    h = constant(as_tensor(batch))
    for i in range(len(model.config.hidden_sizes)):
        h = dense(h, nodes[f"layer{i}_w"], nodes[f"layer{i}_b"], rate, rng)
    return linear_head(h, nodes["head_w"], nodes["head_b"]), nodes


def conv1d_same_reference(x, kernels, bias, g):
    """``conv1d_same``'s value and its x, kernels and bias gradients for the
    output gradient ``g``, with every kernel-gradient einsum reading a
    strided window of the padded input."""
    batch, length, in_ch = x.shape
    out_ch = kernels.shape[0]
    padded = np.zeros((batch, length + 2, in_ch))
    padded[:, 1:-1, :] = x
    value = np.broadcast_to(bias, (batch, length, out_ch)).copy()
    for k in range(3):
        value += padded[:, k:k + length, :] @ kernels[:, :, k].T

    g_padded = np.zeros_like(padded)
    for k in range(3):
        g_padded[:, k:k + length, :] += g @ kernels[:, :, k]
    kernels_grad = np.stack([np.einsum("blo,blc->oc", g, padded[:, k:k + length, :])
                             for k in range(3)], axis=2)
    return value, g_padded[:, 1:-1, :], kernels_grad, g.sum(axis=(0, 1))


def row_products_sum_reference(g, p):
    """The (out_ch, in_ch) sums over rows n of ``g[n, o] * p[n, c]`` for 2-D
    ``g`` (rows, out_ch) and ``p`` (rows, in_ch): each entry starts at +0.0
    and takes one rounded product and one rounded add per row, in row
    order, in Python floats."""
    rows_g, rows_p = g.tolist(), p.tolist()
    out = np.zeros((g.shape[1], p.shape[1]))
    for o in range(g.shape[1]):
        for c in range(p.shape[1]):
            acc = 0.0
            for g_row, p_row in zip(rows_g, rows_p):
                acc = acc + g_row[o] * p_row[c]
            out[o, c] = acc
    return out


def fit_linear_baseline_reference(x_col, preds):
    """Least-squares line from one feature column to the predictions.

    Uses population (1/N) covariance and variance. Returns None when
    N < 2 or the column is constant or has zero variance, since no line
    can then be fitted.
    """
    x_col = np.asarray(x_col, dtype=np.float64)
    preds = np.asarray(preds, dtype=np.float64)
    if x_col.ndim != 1 or preds.ndim != 1 or x_col.shape != preds.shape:
        raise DimensionError(
            f"fit_linear_baseline expects equal-length vectors, got "
            f"{x_col.shape} and {preds.shape}")
    n = x_col.shape[0]
    # .max(), .min() and .sum() call these reduces; sum / n is np.mean's bits
    if n < 2 or np.maximum.reduce(x_col) == np.minimum.reduce(x_col):
        return None
    mean_x = np.add.reduce(x_col) / n
    mean_p = np.add.reduce(preds) / n
    centred = x_col - mean_x
    var = np.add.reduce(centred * centred) / n
    if var == 0.0:
        return None
    cov = np.add.reduce(centred * (preds - mean_p)) / n
    slope = cov / var
    return LinearBaseline(slope=float(slope),
                          intercept=float(mean_p - slope * mean_x),
                          x_mean=float(mean_x), x_var=float(var))


@dataclass(frozen=True)
class BatchFitReference:
    """The per-feature batch fit: ``features`` maps each monotonic
    feature, in spec order, to its ``penalty.FeatureFit``, or to None when
    the feature is degenerate in the batch (skipped)."""

    batch_size: int
    perm: np.ndarray  # stable ascending sort of the predictions
    features: dict

    @property
    def skipped(self) -> tuple[int, ...]:
        return tuple(j for j, f in self.features.items() if f is None)

    @cached_property
    def per_feature(self) -> dict[int, float]:
        if self.batch_size < 1:
            raise DimensionError("a batch penalty needs at least one row, got 0")
        return {j: 0.0 if f is None else float(np.add.reduce(f.violations * f.violations))
                for j, f in self.features.items()}

    @cached_property
    def total(self) -> float:
        p_sum = 0.0
        for p_j in self.per_feature.values():
            p_sum += p_j
        return p_sum * (1.0 / self.batch_size)

    def compliance(self) -> float | None:
        pairs = 0
        compliant = 0
        for f in self.features.values():
            if f is not None:
                v = f.violations
                pairs += v.size
                compliant += int(np.count_nonzero(v <= COMPLIANCE_ATOL))
        return compliant / pairs if pairs else None


def fit_batch_reference(preds, X, spec, baseline_mode="frozen"):
    """``penalty.fit_batch`` as one fit per feature: sort the batch once,
    then for each monotonic feature in spec order fit its line with
    :func:`fit_linear_baseline_reference` and take its shortfalls at the
    fitted slope (frozen) or at ``sum(preds * coeffs)`` (coupled)."""
    if baseline_mode not in BASELINE_MODES:
        raise ParameterError(
            f"baseline_mode must be one of {BASELINE_MODES}, got {baseline_mode!r}")
    preds = np.asarray(preds, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    if preds.ndim != 1 or X.ndim != 2 or X.shape[0] != preds.shape[0]:
        raise DimensionError(
            f"expected preds (N,) and X (N, d), got {preds.shape} and {X.shape}")
    spec.validate_for(X.shape[1])
    n = preds.shape[0]
    perm = np.argsort(preds, kind="stable")
    sorted_preds = preds[perm]
    dpred = sorted_preds[1:] - sorted_preds[:-1]  # np.diff's bytes
    features = {}
    for j in spec.indices:
        x_col = X[:, j]
        b = fit_linear_baseline_reference(x_col, preds)
        if b is None:
            features[j] = None
            continue
        slope, coeffs = b.slope, None
        if baseline_mode == "coupled":
            coeffs = (x_col - b.x_mean) / (n * b.x_var)
            slope = np.add.reduce(preds * coeffs)
        sorted_x = x_col[perm]
        dx = sorted_x[1:] - sorted_x[:-1]
        features[j] = FeatureFit(b, dx, np.maximum(slope * dx - dpred, 0.0),
                                 coeffs)
    return BatchFitReference(batch_size=n, perm=perm, features=features)


def loss_terms_reference(preds, y, X, spec, lam, baseline_mode):
    """``penalty.build_loss_terms`` as a graph of the engine's small ops,
    returning (total, fit): the MSE as ``sub``/``square``/``sum_all`` and
    the ``1/n`` scale, and when the penalty is present, ``gather_rows`` and
    ``adjacent_diff`` for the sorted prediction increments, then per
    feature ``mul``/``sum_all``/``mul``/``sub``/``relu``/``square``/
    ``sum_all``, the adds, the ``1/n`` scale, the lambda scale and the
    add to the MSE."""
    from dimlab import autodiff as ad

    y = np.asarray(y, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    fit = fit_batch_reference(preds.value, X, spec)
    n = fit.batch_size
    fit.total  # refuses a 0-row batch

    residual = ad.sub(preds, ad.constant(y))
    mse = ad.scale(ad.sum_all(ad.square(residual)), 1.0 / n)

    if lam == 0 or all(f is None for f in fit.features.values()):
        return mse, fit

    per_feature = {}
    p_sum_node = None
    sorted_preds = ad.gather_rows(preds, fit.perm)
    dfhat = ad.adjacent_diff(sorted_preds)
    for j, f in fit.features.items():
        if f is None:
            per_feature[j] = 0.0
            continue
        if baseline_mode == "frozen":
            dg = ad.constant(f.baseline.slope * f.dx)
        else:
            b = f.baseline
            coeffs = (X[:, j] - b.x_mean) / (n * b.x_var)
            slope_node = ad.sum_all(ad.mul(preds, ad.constant(coeffs)))
            dg = ad.mul(slope_node, ad.constant(f.dx))
        p_j = ad.sum_all(ad.square(ad.relu(ad.sub(dg, dfhat))))
        per_feature[j] = p_j.value.item()
        p_sum_node = p_j if p_sum_node is None else ad.add(p_sum_node, p_j)

    penalty = ad.scale(p_sum_node, 1.0 / n)
    total = ad.add(mse, ad.scale(penalty, lam))
    # the graph's own penalty values, in the fields a BatchFit reports
    graph_fit = SimpleNamespace(per_feature=per_feature,
                                total=penalty.value.item(), batch_size=n,
                                skipped=fit.skipped)
    return total, graph_fit


def topo_order_reference(root):
    """The engine's graph order as it stood before it skipped the nodes
    that need no gradient: every node ``root`` reaches, parents before
    children, in the order of a depth-first walk that pushes each node's
    parents in their order and expands the last one pushed first."""
    order = []
    seen = set()
    stack = [(root, False)]
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
    return order


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


def noise_free_response(X) -> np.ndarray:
    """Sum of the four baseline transforms, no bumps, no noise."""
    X = np.asarray(X, dtype=np.float64)
    return sum(f(X[:, j]) for j, f in enumerate(_TRANSFORMS))
