"""Linear-baseline monotonicity penalty and compliance score.

For each feature designated monotonic, a per-batch linear trend is fitted
from that feature to the current predictions. Predictions are sorted
ascending; wherever the baseline expects a larger increment between
adjacent sorted predictions than the model produced, the shortfall is
penalized quadratically. The batch penalty is the violation energy summed
over features, divided by the batch size.

Every path shares one validated, sorted and fitted batch (:func:`fit_batch`).
In training, :func:`build_loss_terms` puts the whole batch penalty, every
feature included, into the autodiff graph as one node over the
predictions, whose value and gradient equal those of the engine's small
ops bit for bit (:func:`_penalty_node`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .errors import (
    ComplianceUndefined,
    DegenerateFeature,
    DimensionError,
    ParameterError,
)

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


def fit_linear_baseline(x_col, preds) -> LinearBaseline:
    """Least-squares line from one feature column to the predictions.

    Uses population (1/N) covariance and variance. Raises
    :class:`DegenerateFeature` when N < 2 or the column is constant;
    callers decide whether that skips the feature or aborts.
    """
    x_col = np.asarray(x_col, dtype=np.float64)
    preds = np.asarray(preds, dtype=np.float64)
    if x_col.ndim != 1 or preds.ndim != 1 or x_col.shape != preds.shape:
        raise DimensionError(
            f"fit_linear_baseline expects equal-length vectors, got "
            f"{x_col.shape} and {preds.shape}")
    n = x_col.shape[0]
    if n < 2:
        raise DegenerateFeature(f"need at least 2 rows to fit a line, got {n}")
    if x_col.max() == x_col.min():
        raise DegenerateFeature("feature column is constant within the batch")
    # sum() / n is np.mean's own reduction and division, bit for bit
    mean_x = x_col.sum() / n
    mean_p = preds.sum() / n
    centred = x_col - mean_x
    var = (centred * centred).sum() / n
    if var == 0.0:
        raise DegenerateFeature("feature column has zero variance")
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
    dx: np.ndarray     # diff(x[perm])
    dpred: np.ndarray  # diff(preds[perm]), shared by the batch's features

    @property
    def violations(self) -> np.ndarray:
        # computed on access: the graph path builds its own and skips this
        return adjacent_violations(self.dpred, self.dx, self.baseline.slope)


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
            v = None if f is None else f.violations
            p_j = 0.0 if v is None else float(np.sum(v * v))
            per_feature[j] = p_j
            p_sum += p_j
        return PenaltyBreakdown(per_feature=per_feature, total=p_sum * (1.0 / n),
                                batch_size=n, skipped=self.skipped)

    def compliance(self) -> float:
        """Share of adjacent pairs, pooled over non-degenerate features,
        whose violation is zero within COMPLIANCE_ATOL."""
        pairs = 0
        compliant = 0
        for f in self.features.values():
            if f is not None:
                v = f.violations
                pairs += v.size
                compliant += int(np.count_nonzero(v <= COMPLIANCE_ATOL))
        if pairs == 0:
            raise ComplianceUndefined("no adjacent pairs with a usable baseline")
        return compliant / pairs


def fit_batch(preds, X, spec: MonotonicitySpec) -> BatchFit:
    """Validate a batch, sort it once by prediction, and fit every
    monotonic feature against that one order.

    Degenerate features (constant in the batch, or N < 2) are recorded
    as skipped rather than raising.
    """
    preds = np.asarray(preds, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    if preds.ndim != 1 or X.ndim != 2 or X.shape[0] != preds.shape[0]:
        raise DimensionError(
            f"expected preds (N,) and X (N, d), got {preds.shape} and {X.shape}")
    spec.validate_for(X.shape[1])
    perm = np.argsort(preds, kind="stable")
    dpred = np.diff(preds[perm])
    features: dict[int, FeatureFit | None] = {}
    for j in spec.indices:
        x_col = X[:, j]
        try:
            baseline = fit_linear_baseline(x_col, preds)
        except DegenerateFeature:
            features[j] = None
            continue
        features[j] = FeatureFit(baseline, np.diff(x_col[perm]), dpred)
    return BatchFit(batch_size=preds.shape[0], perm=perm, features=features)


def monotonicity_penalty(preds, X, spec: MonotonicitySpec) -> PenaltyBreakdown:
    """Batch penalty over all monotonic features.

    One stable sort of the predictions is shared by every feature.
    Degenerate features (constant in the batch, or N < 2) contribute 0
    and are reported in ``skipped`` rather than raising.
    """
    return fit_batch(preds, X, spec).breakdown()


def compliance_score(preds, X, spec: MonotonicitySpec) -> float:
    """Fraction of adjacent sorted pairs, pooled over non-degenerate
    monotonic features, whose violation is zero within 1e-12 absolute.

    That is the share of prediction-sorted adjacent pairs whose prediction
    increment covers the fitted trend's increment ``slope * dx``. It is
    not a pointwise monotonicity check: it never varies a feature with the
    other features held fixed, and the true targets of a monotone function
    can score well below 1.

    Raises :class:`ComplianceUndefined` when no valid pairs exist (all
    features degenerate, empty spec, or N < 2).
    """
    return fit_batch(preds, X, spec).compliance()


@dataclass(frozen=True)
class LossTerms:
    """Graph nodes of the combined objective plus the logged decomposition.

    ``total`` is ``mse + scale(penalty, lam)``. ``penalty`` is one graph
    node for the whole batch penalty, every feature included (see
    :func:`build_loss_terms`), or None when the penalty term is not part
    of the graph (lambda = 0, empty spec, or every feature degenerate);
    the ``breakdown`` still reports the batch's decomposition, with total
    0 unless lambda = 0.
    """

    total: Node
    mse: Node
    penalty: Node | None
    breakdown: PenaltyBreakdown


def _penalty_node(preds: Node, fit: BatchFit, X: np.ndarray,
                  coupled: bool) -> tuple[Node, dict[int, float]]:
    """The batch penalty as one node over ``preds``, and its per-feature
    violation energies.

    Value and gradient equal, bit for bit, those of the graph
    ``scale(sum_j sum_all(square(relu(dg_j - adjacent_diff(gather_rows(
    preds, perm))))), 1/n)``, where ``dg_j`` is the constant
    ``slope_j * dx_j`` (frozen) or ``sum_all(preds * coeffs_j) * dx_j``
    (coupled): the node makes that graph's numpy calls in the same order.
    Its backward adds to ``preds.grad`` as that graph's backward pass did,
    one contribution at a time: in coupled mode ``coeffs_j`` times the
    slope's gradient, per feature in spec order, then the hinge gradient
    scattered back through ``perm``.
    """
    n = fit.batch_size
    per_feature: dict[int, float] = {}
    hinges = []  # per fitted feature: (dx, coeffs or None, mask, relu value)
    p_sum = None
    for j, f in fit.features.items():
        if f is None:
            per_feature[j] = 0.0
            continue
        if coupled:
            # slope = sum(c * preds) with c = (x - mean_x) / (N * var);
            # the mean-of-preds term drops out since sum(c) = 0
            b = f.baseline
            coeffs = (X[:, j] - b.x_mean) / (n * b.x_var)
            dg = ad.as_tensor((preds.value * coeffs).sum()) * f.dx
        else:
            coeffs = None
            dg = f.baseline.slope * f.dx
        diff = dg - f.dpred  # dpred = diff(preds[perm]), from the fit
        mask = diff > 0
        hinge = ad._masked(mask, diff)
        p_j = ad.as_tensor((hinge * hinge).sum())
        per_feature[j] = p_j.item()
        p_sum = p_j if p_sum is None else ad.as_tensor(p_sum + p_j)
        hinges.append((f.dx, coeffs, mask, hinge))

    c = 1.0 / n
    perm = fit.perm
    out = ad._op("penalty", p_sum * c, (preds, None))  # backward set below

    def backward(g):
        if not preds.requires_grad:
            return
        g_p = c * g  # the gradient of sum_j p_j, and so of each p_j
        g_dpred = None
        for dx, coeffs, mask, hinge in hinges:
            g_diff = ad._masked(mask, 2.0 * hinge * np.full_like(hinge, g_p))
            if coeffs is not None:
                g_slope = (g_diff * dx).sum(axis=0)
                ad._accumulate(preds, np.full_like(preds.value, g_slope) * coeffs)
            g_dpred = -g_diff if g_dpred is None else g_dpred + -g_diff
        # the transpose of differencing, then the scatter through perm
        g_sorted = np.concatenate(([0.0], g_dpred)) - np.concatenate((g_dpred, [0.0]))
        scattered = np.empty_like(preds.value)
        scattered[perm] = g_sorted
        ad._accumulate(preds, scattered)

    out._backward = backward
    return out, per_feature


def build_loss_terms(preds: Node, y, X, spec: MonotonicitySpec, lam: float,
                     baseline_mode: str = "frozen") -> LossTerms:
    """Assemble L = MSE + lambda * penalty inside the autodiff graph.

    The penalty is one node (:func:`_penalty_node`) on the batch's one
    :class:`BatchFit`. In frozen mode the fitted slope is a constant of
    the backward pass; in coupled mode gradients also flow through the
    covariance/variance formulas. The sort permutation is constant in
    backward either way. ``preds.grad`` receives the MSE's contribution
    first, then the penalty node's, in the order that node documents.
    """
    if not 0.0 <= lam < math.inf:
        raise ParameterError(f"penalty weight must be finite and >= 0, got {lam}")
    if baseline_mode not in BASELINE_MODES:
        raise ParameterError(
            f"baseline_mode must be one of {BASELINE_MODES}, got {baseline_mode!r}")
    y = np.asarray(y, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    fit = fit_batch(preds.value, X, spec)
    if y.shape != preds.value.shape:
        raise DimensionError(
            f"targets shape {y.shape} does not match predictions "
            f"{preds.value.shape}")
    n = fit.batch_size

    residual = preds - ad.constant(y)
    mse = ad.scale(ad.sum_all(ad.square(residual)), 1.0 / n)

    if lam == 0 or all(f is None for f in fit.features.values()):
        # penalty not built into the graph; report the decomposition anyway
        return LossTerms(total=mse, mse=mse, penalty=None,
                         breakdown=fit.breakdown())

    penalty, per_feature = _penalty_node(preds, fit, X,
                                         baseline_mode == "coupled")
    total = mse + ad.scale(penalty, lam)
    breakdown = PenaltyBreakdown(per_feature=per_feature,
                                 total=penalty.value.item(),
                                 batch_size=n, skipped=fit.skipped)
    return LossTerms(total=total, mse=mse, penalty=penalty, breakdown=breakdown)
