"""Linear-baseline monotonicity penalty and compliance score.

For each feature designated monotonic, a per-batch linear trend is fitted
from that feature to the current predictions. Predictions are sorted
ascending; wherever the baseline expects a larger increment between
adjacent sorted predictions than the model produced, the shortfall is
penalized quadratically. The batch penalty is the violation energy summed
over features, divided by the batch size.

The forward pass is :func:`fit_batch` alone: it validates the batch, sorts
it once, fits every feature and measures its shortfalls, and every path
reads that one fit. In training, :func:`build_loss_terms` puts the fit's
penalty into the autodiff graph as one node over the predictions, which
adds only the backward pass (:func:`_penalty_node`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .errors import DimensionError, ParameterError

# a violation counts as zero when at or below this (absolute)
COMPLIANCE_ATOL = 1e-12

BASELINE_MODES = ("frozen", "coupled")


@dataclass(frozen=True)
class LinearBaseline:
    """Per-feature affine reference trend: g(x) = slope * x + intercept,
    with the population mean and variance of the column it was fitted on."""

    slope: float
    intercept: float
    x_mean: float
    x_var: float


@dataclass(frozen=True)
class MonotonicitySpec:
    """Which feature columns are expected to act non-decreasingly.

    The expected direction is fixed (non-decreasing); decreasing
    constraints are out of scope.
    """

    indices: tuple[int, ...]

    def __init__(self, indices):
        idx = tuple(sorted(int(i) for i in indices))
        if any(i < 0 for i in idx):
            raise ParameterError(f"negative feature index in {idx}")
        if len(set(idx)) != len(idx):
            raise ParameterError(f"duplicate feature index in {idx}")
        object.__setattr__(self, "indices", idx)

    def validate_for(self, num_features: int) -> None:
        bad = [i for i in self.indices if i >= num_features]
        if bad:
            raise ParameterError(
                f"monotonic feature indices {bad} out of range for "
                f"{num_features} features")


@dataclass(frozen=True)
class PenaltyBreakdown:
    """Penalty decomposition for one batch.

    ``total * batch_size`` equals the sum of ``per_feature`` values (to
    rounding). Features skipped as degenerate appear in ``per_feature``
    with value 0 and are listed in ``skipped``.
    """

    per_feature: dict[int, float]
    total: float
    batch_size: int
    skipped: tuple[int, ...] = ()


def fit_linear_baseline(x_col, preds) -> LinearBaseline | None:
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
    if n < 2 or x_col.max() == x_col.min():
        return None
    # sum() / n is np.mean's own reduction and division, bit for bit
    mean_x = x_col.sum() / n
    mean_p = preds.sum() / n
    centred = x_col - mean_x
    var = (centred * centred).sum() / n
    if var == 0.0:
        return None
    cov = (centred * (preds - mean_p)).sum() / n
    slope = cov / var
    return LinearBaseline(slope=float(slope),
                          intercept=float(mean_p - slope * mean_x),
                          x_mean=float(mean_x), x_var=float(var))


def adjacent_violations(dpred: np.ndarray, dx: np.ndarray,
                        slope: float) -> np.ndarray:
    """Shortfall of each adjacent sorted-prediction increment.

    ``dpred`` holds the increments of the sorted predictions and ``dx``
    those of the feature carried along the same order. For pair i:
    v[i] = max(0, slope * dx[i] - dpred[i]); the intercept cancels in
    increments.
    """
    return np.maximum(slope * dx - dpred, 0.0)


class FeatureFit(NamedTuple):
    """One non-degenerate feature of a batch, in prediction-sorted order."""

    baseline: LinearBaseline
    dx: np.ndarray          # diff(x[perm])
    violations: np.ndarray  # shortfalls at the slope of fit_batch's mode
    coeffs: np.ndarray | None = None  # coupled mode: slope = sum(preds * coeffs)


@dataclass(frozen=True)
class BatchFit:
    """The shared per-batch work of every penalty and compliance path.

    ``features`` maps each monotonic feature, in spec order, to its fit,
    or to None when the feature is degenerate in the batch (skipped).
    """

    batch_size: int
    perm: np.ndarray  # stable ascending sort of the predictions
    features: dict[int, FeatureFit | None]

    @property
    def skipped(self) -> tuple[int, ...]:
        return tuple(j for j, f in self.features.items() if f is None)

    def breakdown(self) -> PenaltyBreakdown:
        """Violation energy (sum of squared shortfalls) per feature, and
        their sum divided by the batch size."""
        n = self.batch_size
        if n < 1:
            raise DimensionError("monotonicity_penalty needs at least one row")
        per_feature: dict[int, float] = {}
        p_sum = 0.0
        for j, f in self.features.items():
            p_j = 0.0 if f is None else float(np.sum(f.violations * f.violations))
            per_feature[j] = p_j
            p_sum += p_j
        return PenaltyBreakdown(per_feature=per_feature, total=p_sum * (1.0 / n),
                                batch_size=n, skipped=self.skipped)

    def compliance(self) -> float | None:
        """Share of adjacent pairs, pooled over non-degenerate features,
        whose violation is zero within COMPLIANCE_ATOL; None when no
        feature has a usable pair."""
        pairs = 0
        compliant = 0
        for f in self.features.values():
            if f is not None:
                v = f.violations
                pairs += v.size
                compliant += int(np.count_nonzero(v <= COMPLIANCE_ATOL))
        return compliant / pairs if pairs else None


def fit_batch(preds, X, spec: MonotonicitySpec,
              baseline_mode: str = "frozen") -> BatchFit:
    """Validate a batch, sort it once by prediction, fit every monotonic
    feature against that one order and measure its shortfalls.

    Frozen mode measures them at the fitted slope. Coupled mode measures
    them at the slope as training differentiates it, ``sum(preds *
    coeffs)`` with ``coeffs = (x - mean_x) / (N * var)`` (the mean of the
    predictions drops out since ``sum(coeffs) = 0``), which may differ from
    the fitted slope in its last bits. Degenerate features (constant in
    the batch, or N < 2) are recorded as skipped.
    """
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
    dpred = np.diff(preds[perm])
    features: dict[int, FeatureFit | None] = {}
    for j in spec.indices:
        x_col = X[:, j]
        b = fit_linear_baseline(x_col, preds)
        if b is None:
            features[j] = None
            continue
        slope, coeffs = b.slope, None
        if baseline_mode == "coupled":
            coeffs = (x_col - b.x_mean) / (n * b.x_var)
            slope = (preds * coeffs).sum()
        dx = np.diff(x_col[perm])
        features[j] = FeatureFit(b, dx, adjacent_violations(dpred, dx, slope),
                                 coeffs)
    return BatchFit(batch_size=n, perm=perm, features=features)


def monotonicity_penalty(preds, X, spec: MonotonicitySpec) -> PenaltyBreakdown:
    """Batch penalty over all monotonic features.

    One stable sort of the predictions is shared by every feature.
    Degenerate features (constant in the batch, or N < 2) contribute 0
    and are reported in ``skipped``.
    """
    return fit_batch(preds, X, spec).breakdown()


def compliance_score(preds, X, spec: MonotonicitySpec) -> float | None:
    """Fraction of adjacent sorted pairs, pooled over non-degenerate
    monotonic features, whose violation is zero within 1e-12 absolute.

    That is the share of prediction-sorted adjacent pairs whose prediction
    increment covers the fitted trend's increment ``slope * dx``. It is
    not a pointwise monotonicity check: it never varies a feature with the
    other features held fixed, and the true targets of a monotone function
    can score well below 1.

    None when no valid pairs exist (all features degenerate, empty spec,
    or N < 2).
    """
    return fit_batch(preds, X, spec).compliance()


@dataclass(frozen=True)
class LossTerms:
    """Graph nodes of the combined objective plus the logged decomposition.

    ``total`` is ``mse + scale(penalty, lam)``. ``penalty`` is one graph
    node for the whole batch penalty, every feature included (see
    :func:`build_loss_terms`), or None when the penalty term is not part
    of the graph (lambda = 0, empty spec, or every feature degenerate).
    ``breakdown`` is the batch fit's decomposition on every path.
    """

    total: Node
    mse: Node
    penalty: Node | None
    breakdown: PenaltyBreakdown


def _penalty_node(preds: Node, fit: BatchFit, total: float) -> Node:
    """The batch penalty as one node over ``preds``: its value is
    ``total``, ``fit.breakdown().total``, and the node adds the backward.

    Its gradient equals, bit for bit, that of the graph
    ``scale(sum_j sum_all(square(relu(dg_j - adjacent_diff(gather_rows(
    preds, perm))))), 1/n)``, where ``dg_j`` is the constant
    ``slope_j * dx_j`` (frozen) or ``sum_all(preds * coeffs_j) * dx_j``
    (coupled), whose relu is the fit's violations. The backward adds to
    ``preds.grad`` as that graph's backward pass did, one contribution at
    a time: in coupled mode ``coeffs_j`` times the slope's gradient, per
    feature in spec order, then the hinge gradient scattered back through
    ``perm``.
    """
    c = 1.0 / fit.batch_size
    out = ad._op("penalty", total, (preds, None))  # backward set below

    def backward(g):
        if not preds.requires_grad:
            return
        g_p = c * g  # the gradient of sum_j p_j, and so of each p_j
        g_dpred = None
        for f in fit.features.values():
            if f is None:
                continue
            v = f.violations
            g_diff = np.where(v > 0, 2.0 * v * g_p, 0.0)
            if f.coeffs is not None:
                g_slope = (g_diff * f.dx).sum(axis=0)
                ad._accumulate(preds, g_slope * f.coeffs)
            g_dpred = -g_diff if g_dpred is None else g_dpred + -g_diff
        # the transpose of differencing, then the scatter through perm
        g_sorted = np.concatenate(([0.0], g_dpred)) - np.concatenate((g_dpred, [0.0]))
        scattered = np.empty_like(preds.value)
        scattered[fit.perm] = g_sorted
        ad._accumulate(preds, scattered)

    out._backward = backward
    return out


def build_loss_terms(preds: Node, y, X, spec: MonotonicitySpec, lam: float,
                     baseline_mode: str = "frozen") -> LossTerms:
    """Assemble L = MSE + lambda * penalty inside the autodiff graph.

    The penalty is one node (:func:`_penalty_node`) on the batch's one
    :class:`BatchFit`. In frozen mode the fitted slope is a constant of
    the backward pass; in coupled mode gradients also flow through the
    covariance/variance formulas. The sort permutation is constant in
    backward either way. ``preds.grad`` receives the MSE's contribution
    first, then the penalty node's, in the order that node documents.
    At lambda = 0 the breakdown reports the fitted slope's penalty in
    either mode.
    """
    if not 0.0 <= lam < math.inf:
        raise ParameterError(f"penalty weight must be finite and >= 0, got {lam}")
    if baseline_mode not in BASELINE_MODES:
        raise ParameterError(
            f"baseline_mode must be one of {BASELINE_MODES}, got {baseline_mode!r}")
    y = np.asarray(y, dtype=np.float64)
    fit = fit_batch(preds.value, X, spec, baseline_mode if lam > 0 else "frozen")
    if y.shape != preds.value.shape:
        raise DimensionError(
            f"targets shape {y.shape} does not match predictions "
            f"{preds.value.shape}")

    residual = preds - ad.constant(y)
    mse = ad.scale(ad.sum_all(ad.square(residual)), 1.0 / fit.batch_size)
    breakdown = fit.breakdown()
    if lam == 0 or all(f is None for f in fit.features.values()):
        # penalty not built into the graph; report the decomposition anyway
        return LossTerms(total=mse, mse=mse, penalty=None, breakdown=breakdown)

    penalty = _penalty_node(preds, fit, breakdown.total)
    return LossTerms(total=mse + ad.scale(penalty, lam), mse=mse,
                     penalty=penalty, breakdown=breakdown)
