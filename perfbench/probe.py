"""Host-speed probe: a frozen numpy imitation of a workload's training step.

The VM the benchmark runs on shares its cores, and its speed drifts: within
forty minutes the same sweeps got 27-37% faster. run.py times this probe
before every sweep and corrects the run's times by it (see run.py,
speed_factor). The probe does the kind of work the workload's sweep does,
with the same layer shapes, numpy kernels and number of threads, but it
never imports dimlab: no change to the program can move it, only the
host's speed can.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

N_FEATURES = 4
# architecture -> (hidden sizes, dropout rate): dimlab's defaults
ARCHITECTURES = {"ann": ((128,), 0.0), "mlp3": ((128, 64, 32), 0.2),
                 "cnn1d": ((128, 64, 32), 0.0)}
ADAM = (0.9, 0.999, 1e-8, 1e-3)


def _adam(params, grads, m, v, t):
    b1, b2, eps, lr = ADAM
    for name, g in grads.items():
        m[name] = b1 * m[name] + (1.0 - b1) * g
        v[name] = b2 * v[name] + (1.0 - b2) * (g * g)
        m_hat = m[name] / (1.0 - b1 ** t)
        v_hat = v[name] / (1.0 - b2 ** t)
        params[name] = params[name] - lr * m_hat / (np.sqrt(v_hat) + eps)


def _mlp_step(params, x, y, rng, sizes, rate):
    """Forward, then MSE backward through ReLU (and dropout) layers."""
    h, saved = x, []
    for i in range(len(sizes)):
        z = h @ params[f"w{i}"] + params[f"b{i}"]
        mask = (np.where(rng.random(z.shape) >= rate, 1.0 / (1.0 - rate), 0.0)
                if rate else None)
        saved.append((h, z, mask))
        h = np.maximum(z, 0.0)
        if mask is not None:
            h = h * mask
    out = (h @ params["wh"] + params["bh"])[:, 0]
    g = (2.0 / len(y) * (out - y))[:, None]
    grads = {"wh": h.T @ g, "bh": g.sum(axis=0)}
    g = g @ params["wh"].T
    for i in reversed(range(len(sizes))):
        h_in, z, mask = saved[i]
        if mask is not None:
            g = g * mask
        g = g * (z > 0)
        grads[f"w{i}"] = h_in.T @ g
        grads[f"b{i}"] = g.sum(axis=0)
        g = g @ params[f"w{i}"].T
    return grads


def _conv_step(params, x, y, sizes):
    """Width-3 'same' convolutions over the feature axis, global average
    pool and a linear head, with their backward passes."""
    n, length = x.shape
    h, saved = x[:, :, None], []
    for i in range(len(sizes)):
        w = params[f"w{i}"]
        padded = np.zeros((n, length + 2, h.shape[2]))
        padded[:, 1:-1, :] = h
        z = np.broadcast_to(params[f"b{i}"], (n, length, w.shape[0])).copy()
        for k in range(3):
            z += padded[:, k:k + length, :] @ w[:, :, k].T
        saved.append((padded, z))
        h = np.maximum(z, 0.0)
    pooled = h.mean(axis=1)
    out = (pooled @ params["wh"] + params["bh"])[:, 0]
    g = (2.0 / n * (out - y))[:, None]
    grads = {"wh": pooled.T @ g, "bh": g.sum(axis=0)}
    g = np.broadcast_to((g @ params["wh"].T)[:, None, :] / length, h.shape)
    for i in reversed(range(len(sizes))):
        padded, z = saved[i]
        w = params[f"w{i}"]
        g = g * (z > 0)
        grads[f"b{i}"] = g.sum(axis=(0, 1))
        gw = np.zeros_like(w)
        g_padded = np.zeros_like(padded)
        for k in range(3):
            gw[:, :, k] = np.einsum("blo,blc->oc", g, padded[:, k:k + length, :])
            g_padded[:, k:k + length, :] += g @ w[:, :, k]
        grads[f"w{i}"] = gw
        g = g_padded[:, 1:-1, :]
    return grads


def _train(arch: str, batch: int, steps: int, seed: int) -> None:
    sizes, rate = ARCHITECTURES[arch]
    rng = np.random.default_rng(seed)
    params, width = {}, (1 if arch == "cnn1d" else N_FEATURES)
    for i, units in enumerate(sizes):
        shape = (units, width, 3) if arch == "cnn1d" else (width, units)
        params[f"w{i}"] = rng.uniform(-0.3, 0.3, size=shape)
        params[f"b{i}"] = np.zeros(units)
        width = units
    params["wh"] = rng.uniform(-0.3, 0.3, size=(width, 1))
    params["bh"] = np.zeros(1)
    m = {k: np.zeros_like(p) for k, p in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    x = rng.random((batch, N_FEATURES))
    y = x @ np.arange(1.0, N_FEATURES + 1.0)
    for t in range(1, steps + 1):
        if arch == "cnn1d":
            grads = _conv_step(params, x, y, sizes)
        else:
            grads = _mlp_step(params, x, y, rng, sizes, rate)
        _adam(params, grads, m, v, t)


def probe_s(arch: str, batch: int, steps: int, threads: int) -> float:
    """Wall time of ``steps`` imitation steps on each of ``threads``
    threads at once, as the workload's pool runs its cells."""
    start = time.perf_counter()
    if threads == 1:
        _train(arch, batch, steps, 0)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for f in [pool.submit(_train, arch, batch, steps, s)
                      for s in range(threads)]:
                f.result()
    return time.perf_counter() - start
