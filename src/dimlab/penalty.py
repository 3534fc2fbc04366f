"""Linear-baseline monotonicity penalty and compliance score.

For each feature designated monotonic, a per-batch linear trend is fitted
from that feature to the current predictions. Predictions are sorted
ascending; wherever the baseline expects a larger increment between
adjacent sorted predictions than the model produced, the shortfall is
penalized quadratically. The batch penalty is the violation energy summed
over features, divided by the batch size.

The forward pass is :func:`fit_batch` alone: it validates the batch, sorts
it once and fits all of its monotonic features together, as one array
program over the (features x rows) stack of their columns
(:func:`fit_linear_baseline`). Every path reads that one fit, a
:class:`BatchFit`, which also gives the penalty per feature and in total;
its per-feature :class:`FeatureFit` objects are built only when read. In
training, :func:`build_loss_terms` puts the whole objective, the MSE plus
lambda times the fit's penalty, into the autodiff graph as one node over
the predictions (:func:`_objective_node`), whose backward runs over the
same stack; the penalty adds no node of its own. At lambda = 0 the penalty
is only reported, so the fit comes back unevaluated (:class:`PendingFit`)
and :func:`batch_totals` computes an epoch's worth of them as one
(batches x features x rows) stack.

Every stack is C-contiguous and every row-wise reduce runs over its last
axis, so each row takes numpy's pairwise summation exactly as a 1-D reduce
over that feature alone does: the bytes do not depend on how many features
or batches are stacked.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .errors import ConfigError, DimensionError, ParameterError

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
        if isinstance(indices, str) or not hasattr(indices, "__iter__"):
            raise ParameterError(
                f"monotonic feature indices must be a list of integers, "
                f"got {indices!r}")
        idx = tuple(indices)
        for i in idx:  # a bool or a float such as 2.0 is no index
            if not isinstance(i, numbers.Integral) or isinstance(i, bool):
                raise ParameterError(
                    f"monotonic feature index must be an integer, got {i!r}")
        idx = tuple(sorted(int(i) for i in idx))
        if any(i < 0 for i in idx):
            raise ParameterError(f"negative feature index in {idx}")
        if len(set(idx)) != len(idx):
            raise ParameterError(f"duplicate feature index in {idx}")
        object.__setattr__(self, "indices", idx)

    @classmethod
    def of_names(cls, feature_names, names) -> MonotonicitySpec:
        """The spec of the features ``names`` among ``feature_names``: a
        bare string, a name that is not a feature, or a repeated name is a
        ConfigError."""
        if isinstance(names, str):
            raise ConfigError(f"monotonic names must be a list, got {names!r}")
        names, feature_names = list(names), list(feature_names)
        missing = [n for n in names if n not in feature_names]
        if missing:
            raise ConfigError(f"monotonic names {missing} not among "
                              f"features {feature_names}")
        repeated = sorted({n for n in names if names.count(n) > 1})
        if repeated:
            raise ConfigError(f"duplicate monotonic names {repeated} in {names}")
        return cls(feature_names.index(n) for n in names)

    @cached_property
    def columns(self) -> np.ndarray:
        """``indices`` as an index array: ``X.T[spec.columns]`` is the
        C-contiguous (features x rows) stack of the batch ``X``."""
        return np.array(self.indices, dtype=np.intp)

    def validate_for(self, num_features: int) -> None:
        bad = [i for i in self.indices if i >= num_features]
        if bad:
            raise ParameterError(
                f"monotonic feature indices {bad} out of range for "
                f"{num_features} features")


class Lines(NamedTuple):
    """Least-squares lines over a stack (..., k, N) of feature columns, one
    per column; each field has the shape (..., k, 1) unless noted."""

    slope: np.ndarray      # 0 where no line was fitted
    x_mean: np.ndarray
    x_var: np.ndarray
    p_mean: np.ndarray     # (..., 1, 1), or (1,) for predictions (N,)
    fitted: np.ndarray     # bool: False for a constant or zero-variance column

    def baseline(self, r: int) -> LinearBaseline:
        """Line ``r`` of a one-batch stack (k, N)."""
        slope, x_mean = self.slope[r, 0], self.x_mean[r, 0]
        return LinearBaseline(float(slope),
                              float(self.p_mean.item() - slope * x_mean),
                              float(x_mean), float(self.x_var[r, 0]))


def fit_linear_baseline(x_cols, preds):
    """Least-squares lines from feature columns to the predictions.

    ``x_cols`` is a stack (..., k, N) of columns with N >= 2 and ``preds``
    (N,) or (..., 1, N); the result is their :class:`Lines`. One column
    (N,) and predictions (N,) give its :class:`LinearBaseline` instead, from
    the same formulas on numpy scalars, or None when N < 2 or the column is
    constant or has zero variance, since no line can then be fitted. Uses
    population (1/N) covariance and variance.
    """
    x_cols = np.asarray(x_cols, dtype=np.float64)
    preds = np.asarray(preds, dtype=np.float64)
    one = x_cols.ndim == 1
    if one:
        if preds.ndim != 1 or x_cols.shape != preds.shape:
            raise DimensionError(
                f"fit_linear_baseline expects equal-length vectors, got "
                f"{x_cols.shape} and {preds.shape}")
        if x_cols.shape[0] < 2:
            return None
    else:  # so that every row-wise reduce runs along a contiguous axis
        x_cols = np.ascontiguousarray(x_cols)
        preds = np.ascontiguousarray(preds)
    n = x_cols.shape[-1]
    rows = not one  # a stack's moments keep a last axis, to broadcast
    # .max(), .min() and .sum() call these reduces; sum / n is np.mean's bits
    mean_x = np.add.reduce(x_cols, axis=-1, keepdims=rows) / n
    mean_p = np.add.reduce(preds, axis=-1, keepdims=rows) / n
    centred = x_cols - mean_x
    var = np.add.reduce(centred * centred, axis=-1, keepdims=rows) / n
    fitted = ((np.maximum.reduce(x_cols, axis=-1, keepdims=rows)
               != np.minimum.reduce(x_cols, axis=-1, keepdims=rows))
              & (var != 0.0))
    cov = np.add.reduce(centred * (preds - mean_p), axis=-1, keepdims=rows) / n
    if rows:
        slope = np.divide(cov, var, out=np.zeros(cov.shape), where=fitted)
        return Lines(slope, mean_x, var, mean_p, fitted)
    if not fitted:
        return None
    slope = cov / var
    return LinearBaseline(slope=float(slope),
                          intercept=float(mean_p - slope * mean_x),
                          x_mean=float(mean_x), x_var=float(var))


def adjacent_violations(dpred: np.ndarray, dx: np.ndarray,
                        slope) -> np.ndarray:
    """Shortfall of each adjacent sorted-prediction increment.

    ``dpred`` holds the increments of the sorted predictions and ``dx``
    those of the feature carried along the same order, one row per feature
    with its ``slope`` in a column (k, 1). For pair i: v[i] = max(0, slope *
    dx[i] - dpred[i]); the intercept cancels in increments.
    """
    return np.maximum(slope * dx - dpred, 0.0)


class FeatureFit(NamedTuple):
    """One non-degenerate feature of a batch, in prediction-sorted order."""

    baseline: LinearBaseline
    dx: np.ndarray          # diff(x[perm])
    violations: np.ndarray  # shortfalls at the slope of fit_batch's mode
    coeffs: np.ndarray | None = None  # coupled mode: slope = sum(preds * coeffs)


def _refuse_empty(batch_size: int) -> None:
    if batch_size < 1:
        raise DimensionError("a batch penalty needs at least one row, got 0")


class BatchFit:
    """The shared per-batch work of every penalty and compliance path,
    and the batch penalty it measures.

    The monotonic features ``indices`` are in spec order, and so are the
    rows of ``lines`` (the one feature's :class:`LinearBaseline` when there
    is one); those in ``fitted`` are the rows of the stacks ``dx``,
    ``violations`` and ``coeffs``, and the others are degenerate in the
    batch (``skipped``). ``features``, ``per_feature`` and ``total`` are
    computed when first read; on a 0-row batch reading the penalty raises
    DimensionError, while ``skipped`` and ``compliance()`` still answer.
    """

    def __init__(self, batch_size, perm, indices, fitted, lines, dx,
                 violations, coeffs=None):
        self.batch_size = batch_size
        self.perm = perm              # stable ascending sort of the predictions
        self.indices = indices
        self.fitted = fitted
        self.lines = lines
        self.dx = dx                  # (fitted, N-1): diff(x[perm])
        self.violations = violations  # (fitted, N-1), at the mode's slope
        self.coeffs = coeffs          # coupled: (fitted, N), slope = preds @ row

    @property
    def skipped(self) -> tuple[int, ...]:
        return tuple(j for j in self.indices if j not in self.fitted)

    @cached_property
    def features(self) -> dict[int, FeatureFit | None]:
        """Each monotonic feature, in spec order, with its fit, or None when
        it was skipped."""
        rows = {j: s for s, j in enumerate(self.fitted)}  # stack rows
        features = {}
        for r, j in enumerate(self.indices):
            s = rows.get(j)
            if s is None:
                features[j] = None
                continue
            line = self.lines
            if isinstance(line, Lines):
                line = line.baseline(r)
            features[j] = FeatureFit(line, self.dx[s], self.violations[s],
                                     None if self.coeffs is None else self.coeffs[s])
        return features

    @cached_property
    def per_feature(self) -> dict[int, float]:
        """Violation energy (sum of squared shortfalls) per feature, in
        spec order; 0 for a skipped feature."""
        _refuse_empty(self.batch_size)
        v = self.violations
        energy = dict(zip(self.fitted, np.add.reduce(v * v, axis=-1).tolist()))
        if len(energy) == len(self.indices):
            return energy
        return {j: energy.get(j, 0.0) for j in self.indices}

    @cached_property
    def total(self) -> float:
        """The batch penalty: ``per_feature`` summed in spec order, divided
        by the batch size."""
        p_sum = 0.0
        for p_j in self.per_feature.values():
            p_sum += p_j
        return p_sum * (1.0 / self.batch_size)

    def compliance(self) -> float | None:
        """Share of adjacent pairs, pooled over non-degenerate features,
        whose violation is zero within COMPLIANCE_ATOL; None when no
        feature has a usable pair."""
        v = self.violations
        return np.count_nonzero(v <= COMPLIANCE_ATOL) / v.size if v.size else None


class PendingFit:
    """A batch's frozen-mode fit, not computed yet: :func:`build_loss_terms`
    returns one at lambda = 0, where the penalty is only reported. Reading
    any other :class:`BatchFit` attribute computes the fit, once;
    :func:`batch_totals` computes many together."""

    __slots__ = ("preds", "X", "spec", "batch_size", "_fit")

    def __init__(self, preds, X, spec: MonotonicitySpec):
        self.preds, self.X, self.spec = preds, X, spec
        self.batch_size = preds.shape[0]
        self._fit = None

    def __getattr__(self, name):
        if name.startswith("_"):  # no slot lookup may land here
            raise AttributeError(name)
        if self._fit is None:
            self._fit = _fit(self.preds, self.X, self.spec, "frozen")
        return getattr(self._fit, name)


def _check_mode(baseline_mode) -> None:
    if baseline_mode not in BASELINE_MODES:
        raise ParameterError(
            f"baseline_mode must be one of {BASELINE_MODES}, got {baseline_mode!r}")


def _check_batch(preds, X, spec: MonotonicitySpec):
    """``preds`` (N,) and ``X`` (N, d) as float64, with ``spec`` in range."""
    preds = np.asarray(preds, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    if preds.ndim != 1 or X.ndim != 2 or X.shape[0] != preds.shape[0]:
        raise DimensionError(
            f"expected preds (N,) and X (N, d), got {preds.shape} and {X.shape}")
    spec.validate_for(X.shape[1])
    return preds, X


def _fit(preds, X, spec: MonotonicitySpec, baseline_mode) -> BatchFit:
    """The fit of a checked batch: one sort, one stacked fit of the spec's
    features, one hinge over the rows of those fitted."""
    n = preds.shape[0]
    indices = spec.indices
    perm = np.argsort(preds, kind="stable")
    # one feature's stack is its column, whose moments are numpy scalars
    # and whose ops broadcast nothing
    cols = X[:, indices[0]] if len(indices) == 1 else X.T[spec.columns]
    line = fit_linear_baseline(cols, preds) if n >= 2 and indices else None
    if isinstance(line, Lines):
        keep = [ok for (ok,) in line.fitted.tolist()]
        fitted = tuple(j for j, ok in zip(indices, keep) if ok)
    else:
        fitted = () if line is None else indices
    if not fitted:
        empty = np.empty((0, max(n - 1, 0)))
        return BatchFit(n, perm, indices, (), line, empty, empty)
    slope, x_mean, x_var = line.slope, line.x_mean, line.x_var
    if len(fitted) < len(indices):  # the stacks hold only the fitted rows
        rows = line.fitted[:, 0]
        cols, slope, x_mean, x_var = (a[rows] for a in (cols, slope, x_mean, x_var))
    sorted_preds = preds[perm]
    dpred = sorted_preds[1:] - sorted_preds[:-1]  # np.diff's bytes
    # a stack's take keeps C order, which cols[:, perm] does not
    sorted_x = cols[perm] if cols.ndim == 1 else cols.take(perm, axis=1)
    dx = sorted_x[..., 1:] - sorted_x[..., :-1]
    coeffs = None
    if baseline_mode == "coupled":
        coeffs = (cols - x_mean) / (n * x_var)
        slope = np.add.reduce(preds * coeffs, axis=-1, keepdims=cols.ndim > 1)
    violations = adjacent_violations(dpred, dx, slope)
    if cols.ndim == 1:  # stacks of one row
        dx, violations = dx[None], violations[None]
        coeffs = None if coeffs is None else coeffs[None]
    return BatchFit(n, perm, indices, fitted, line, dx, violations, coeffs)


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
    _check_mode(baseline_mode)
    preds, X = _check_batch(preds, X, spec)
    return _fit(preds, X, spec, baseline_mode)


def batch_totals(fits) -> list[float]:
    """Each fit's batch penalty (``total``), in order, with the bytes it
    gives alone. A computed fit gives its own; the pending fits of equal
    shape and features are computed together, as one (batches x features
    x rows) stack, and stay pending."""
    totals = [None] * len(fits)
    groups: dict[tuple, list[int]] = {}
    for i, fit in enumerate(fits):
        if isinstance(fit, PendingFit) and fit._fit is None:
            groups.setdefault((fit.X.shape, fit.spec), []).append(i)
        else:
            totals[i] = fit.total
    for ((n, _), spec), members in groups.items():
        if n < 2 or not spec.indices:  # nothing to fit
            group = [0.0] * len(members)
        else:
            preds = np.stack([fits[i].preds for i in members])[:, None]  # (B, 1, N)
            X = np.stack([fits[i].X for i in members])
            cols = np.ascontiguousarray(X.transpose(0, 2, 1)[:, spec.columns])
            lines = fit_linear_baseline(cols, preds)
            perm = np.argsort(preds, axis=-1, kind="stable")
            sorted_preds = np.take_along_axis(preds, perm, axis=-1)
            dpred = sorted_preds[..., 1:] - sorted_preds[..., :-1]
            sorted_x = np.take_along_axis(cols, perm, axis=-1)
            dx = sorted_x[..., 1:] - sorted_x[..., :-1]
            v = adjacent_violations(dpred, dx, lines.slope)
            energy = np.where(lines.fitted[..., 0],
                              np.add.reduce(v * v, axis=-1), 0.0)
            # summed left to right in spec order, as BatchFit.total does
            group = (np.add.accumulate(energy, axis=-1)[:, -1]
                     * (1.0 / n)).tolist()
        for i, total in zip(members, group):
            totals[i] = total
    return totals


def monotonicity_penalty(preds, X, spec: MonotonicitySpec) -> BatchFit:
    """The frozen-mode fit of a batch, with its penalty read: degenerate
    features (constant in the batch, or N < 2) contribute 0 and are listed
    in ``skipped``, and a 0-row batch raises DimensionError. Nothing in
    the package calls it; it stays as the name the benchmark's tracer
    wraps."""
    fit = fit_batch(preds, X, spec)
    fit.total  # refuses a 0-row batch
    return fit


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


def _objective_node(preds: Node, y: np.ndarray, fit: BatchFit,
                    lam: float) -> Node:
    """The objective L = MSE + lambda * penalty as one node over ``preds``,
    with the value and gradient bits of the op graph ``add(mse, scale(
    penalty, lam))``. The MSE is ``scale(sum_all(square(preds - y)), 1/n)``.
    The penalty term is there when lambda > 0 and some feature was fitted:
    its value is ``fit.total``, and its graph is ``scale(sum_j sum_all(
    square(relu(dg_j - adjacent_diff(gather_rows(preds, perm))))), 1/n)``,
    where ``dg_j`` is the constant ``slope_j * dx_j`` (frozen) or
    ``sum_all(preds * coeffs_j) * dx_j`` (coupled), whose relu is the fit's
    violations. The backward works on the fit's stacks and adds to
    ``preds.grad`` as that graph's backward pass did, one contribution at a
    time: the MSE's, then in coupled mode ``coeffs_j`` times the slope's
    gradient, per feature in spec order, then the hinge gradient, chained
    ``((-g_0) - g_1) - ...`` in spec order and scattered back through
    ``perm``.
    """
    c = 1.0 / fit.batch_size
    r = preds.value - y
    value = np.add.reduce(r * r, axis=None) * c
    lam = float(lam)
    with_penalty = lam > 0 and len(fit.fitted) > 0
    if with_penalty:
        value = value + fit.total * lam
    out = ad._op("objective", value, (preds, None))  # backward set below

    def backward(g):
        if not preds.requires_grad:
            return
        g = g.item()  # the objective's one entry: float math, numpy's bits
        ad._accumulate(preds, 2.0 * r * (c * g))
        if not with_penalty:
            return
        g_p = c * (lam * g)  # the gradient of sum_j p_j, and so of each p_j
        v = fit.violations
        g_diff = np.where(v > 0, 2.0 * v * g_p, 0.0)
        if fit.coeffs is not None:
            g_slopes = np.add.reduce(g_diff * fit.dx, axis=-1).tolist()
            for g_slope, coeffs in zip(g_slopes, fit.coeffs):
                ad._accumulate(preds, g_slope * coeffs)
        g_dpred = -g_diff[0]
        for g_j in g_diff[1:]:
            g_dpred = g_dpred - g_j
        # the transpose of differencing, (0, g) - (g, 0), then perm's scatter
        g_sorted = np.empty_like(preds.value)
        g_sorted[0], g_sorted[-1] = 0.0 - g_dpred[0], g_dpred[-1]
        np.subtract(g_dpred[:-1], g_dpred[1:], out=g_sorted[1:-1])
        scattered = np.empty_like(preds.value)
        scattered[fit.perm] = g_sorted
        ad._accumulate(preds, scattered)

    out._backward = backward
    return out


def build_loss_terms(preds: Node, y, X, spec: MonotonicitySpec, lam: float,
                     baseline_mode: str = "frozen") -> tuple[Node, BatchFit]:
    """The training objective L = MSE + lambda * penalty, as one graph node
    (:func:`_objective_node`), and the batch's one fit.

    In frozen mode the fitted slope is a constant of the backward pass; in
    coupled mode gradients also flow through the covariance/variance
    formulas. The sort permutation is constant in backward either way.
    With an empty spec or with every feature degenerate the objective is
    the MSE alone. At lambda = 0 it is the MSE alone too, and the fit is
    returned unevaluated, a :class:`PendingFit` of the frozen-mode fit in
    either mode: it reports the penalty at the fitted slope when read, and
    :func:`batch_totals` reports an epoch's at once. The batch is checked
    either way: a 0-row batch raises DimensionError, and so does a lambda
    that is a bool or not finite and >= 0 (a ParameterError).
    """
    if isinstance(lam, (bool, np.bool_)) or not 0.0 <= lam < math.inf:
        raise ParameterError(
            f"penalty weight must be finite and >= 0, got {lam!r}")
    _check_mode(baseline_mode)
    p, X = _check_batch(preds.value, X, spec)
    y = np.asarray(y, dtype=np.float64)
    if y.shape != p.shape:
        raise DimensionError(
            f"targets shape {y.shape} does not match predictions {p.shape}")
    _refuse_empty(p.shape[0])
    if lam > 0:
        fit = _fit(p, X, spec, baseline_mode)
    else:
        fit = PendingFit(p, X, spec)
    return _objective_node(preds, y, fit, lam), fit
