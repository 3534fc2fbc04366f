"""Textbook reference formulas that dimlab's packed kernels must match
bit for bit. They are kept here, outside the package, in their plain
per-array form, so an optimisation of the package cannot change them."""

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
