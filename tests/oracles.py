"""Reference formulas that dimlab's packed and re-laid-out kernels must
match bit for bit. They are kept here, outside the package, in their plain
form, so an optimisation of the package cannot change them."""

from types import SimpleNamespace

import numpy as np

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


def loss_terms_reference(preds, y, X, spec, lam, baseline_mode):
    """``penalty.build_loss_terms`` as a graph of the engine's small ops:
    ``gather_rows`` and ``adjacent_diff`` for the sorted prediction
    increments, then per feature ``mul``/``sum_all``/``mul``/``sub``/
    ``relu``/``square``/``sum_all``, the adds, and the ``1/n`` scale."""
    from dimlab import autodiff as ad
    from dimlab import penalty as pen

    y = np.asarray(y, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    fit = pen.fit_batch(preds.value, X, spec)
    n = fit.batch_size
    fit.total  # refuses a 0-row batch

    residual = preds - ad.constant(y)
    mse = ad.scale(ad.sum_all(ad.square(residual)), 1.0 / n)

    if lam == 0 or all(f is None for f in fit.features.values()):
        return pen.LossTerms(total=mse, mse=mse, penalty=None, fit=fit)

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
            slope_node = ad.sum_all(preds * ad.constant(coeffs))
            dg = slope_node * ad.constant(f.dx)
        p_j = ad.sum_all(ad.square(ad.relu(dg - dfhat)))
        per_feature[j] = p_j.value.item()
        p_sum_node = p_j if p_sum_node is None else p_sum_node + p_j

    penalty = ad.scale(p_sum_node, 1.0 / n)
    total = mse + ad.scale(penalty, lam)
    # the graph's own penalty values, in the fields a BatchFit reports
    graph_fit = SimpleNamespace(per_feature=per_feature,
                                total=penalty.value.item(), batch_size=n,
                                skipped=fit.skipped)
    return pen.LossTerms(total=total, mse=mse, penalty=penalty, fit=graph_fit)


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
